//! `axcore-serve` — a deadline-aware serving runtime over the prepared
//! AxCore GEMM engines and [`axcore_nn`]'s quantized-model generation.
//!
//! The reliability layers beneath this crate (verified GEMM with tier
//! degradation, the replaceable worker pool, typed errors through the
//! model stack) give a single request well-defined failure behaviour.
//! This crate adds the *service* half of the robustness story: what
//! happens when many requests with deadlines arrive faster than the
//! machine can serve them, or when the execution substrate stops making
//! progress mid-batch.
//!
//! * **Bounded admission** — [`Server::submit`] either admits a request
//!   into a fixed-depth queue (returning a [`Ticket`]) or rejects it
//!   immediately with a typed [`SubmitError`]; nothing in the runtime
//!   grows without bound under overload.
//! * **Continuous batching** — a batcher thread runs an
//!   `axcore_nn::scheduler::DecodeScheduler` over a block-paged KV
//!   arena: sequences with ragged prompts, budgets, and deadlines join
//!   and leave the running batch at **token granularity**, each step
//!   forwards only uncached tokens (KV gathered through per-sequence
//!   block tables), and admission is bounded by **tokens in flight**
//!   ([`ServeConfig::max_tokens_in_flight`]) so the page arena — not
//!   the queue — is what memory tracks. With the default FP pages every
//!   served output stays **bit-identical** to the same request run
//!   alone — batching, admission timing, eviction and load shedding
//!   never change answer bits, only latency and failure typing. `AXCORE_KV` switches the arena to 4-bit quantized
//!   pages (an accuracy-gated tier, no longer bit-exact).
//! * **Overload shedding** — a hysteretic controller walks a
//!   degradation ladder (batch shrink, longest-idle KV prefix eviction,
//!   finally typed admission shedding) and walks it back when the queue
//!   calms. It acts on the server's own state only: the process-wide
//!   tier and verification settings hold under load.
//! * **Watchdog** — a supervisor thread detects batches that stopped
//!   making progress, cancels them cooperatively, and if that fails
//!   abandons the batch with [`ServeError::Wedged`], force-restarts the
//!   worker pool, and hands the queue to a replacement batcher.
//! * **Observability** — [`Server::report`] snapshots latency
//!   percentiles, throughput, shed/downgrade/restart counters, and a
//!   structured [`Incident`] log.
//!
//! ```
//! use axcore_serve::{ServeConfig, Server};
//! use axcore_nn::{quantize_model, LmConfig, Scheme, TransformerLm};
//! use axcore_nn::layers::ActKind;
//! use std::sync::Arc;
//!
//! let cfg = LmConfig {
//!     vocab: 17, d_model: 16, n_layers: 1, n_heads: 2,
//!     d_ff: 24, max_seq: 32, act: ActKind::Relu,
//! };
//! let model = TransformerLm::new(cfg, 7);
//! let qlm = Arc::new(quantize_model(&model, Scheme::AxCore, 8, None));
//!
//! let server = Server::start(qlm, ServeConfig::default());
//! let ticket = server.submit(&[1, 2, 3], 4, None).expect("admitted");
//! let completion = ticket.wait().expect("served");
//! assert_eq!(completion.generated, 4);
//! let report = server.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod config;
mod controller;
pub mod report;
pub mod server;

pub use config::{ServeConfig, ServeFault};
pub use report::{Incident, ServeReport};
pub use server::{Completion, ServeError, Server, SubmitError, Ticket};

// The server is handed to submitter threads by reference; this must
// hold for the whole stack (engines, prepared weights, counters).
const _: fn() = || {
    fn assert_sync_send<T: Sync + Send>() {}
    fn assert_send<T: Send>() {}
    assert_sync_send::<Server>();
    assert_send::<Ticket>(); // tickets move to the waiting thread
};
