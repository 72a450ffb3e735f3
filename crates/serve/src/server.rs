//! The serving runtime: bounded admission, a continuous-batching
//! executor thread over a paged KV arena, and a watchdog that recovers
//! from wedged batches.
//!
//! # Threads and ownership
//!
//! Three kinds of thread touch the runtime:
//!
//! * **Submitters** call [`Server::submit`], which either rejects with a
//!   typed [`SubmitError`] or enqueues the request and hands back a
//!   [`Ticket`] (the receiving half of a response channel).
//! * **The batcher** (one live instance, identified by an epoch number)
//!   runs a [`DecodeScheduler`]: at every token boundary it admits
//!   queued requests into the running batch — bounded by the
//!   controller's batch ceiling and by **tokens in flight**
//!   ([`crate::ServeConfig::max_tokens_in_flight`]), which is what
//!   bounds the KV page arena — performs any evictions the overload
//!   ladder requested, registers the step as *in-flight*, advances every
//!   live sequence one token (KV-cached: each step forwards only the
//!   uncached suffix), and completes the tickets of sequences that
//!   retired. Sequences with different prompts, budgets, and deadlines
//!   share the batch; one finishing never stalls the others.
//! * **The watchdog** periodically ticks the overload controller and
//!   inspects the in-flight slot. A step past its hard deadline gets a
//!   cooperative cancel first; if it still hasn't returned after
//!   `wedge_grace`, the watchdog *takes* the in-flight record, fails its
//!   tickets as [`ServeError::Wedged`], force-restarts the worker pool,
//!   bumps the epoch, and spawns a replacement batcher (with a fresh
//!   scheduler and arena). The superseded batcher discovers the stale
//!   epoch when it tries to take the in-flight record back and exits
//!   without touching anything.
//!
//! The in-flight slot (`Mutex<Option<InFlight>>`) is the ownership
//! hand-off point: whoever `take()`s the record completes its tickets,
//! exactly once.
//!
//! With the default FP pages, every served completion stays
//! **bit-identical** to the same request run alone through
//! `try_generate`, regardless of batchmates, admission timing, or
//! evictions — see [`axcore_nn::scheduler`] for the invariant.

use crate::config::{ServeConfig, ServeFault};
use crate::controller::{Controller, EVICT_LEVEL};
use crate::report::{snapshot, Incident, Metrics, ServeReport};
use axcore_nn::eval::QuantizedLm;
use axcore_nn::generate::GenerateError;
use axcore_nn::scheduler::{DecodeScheduler, SeqHandle, StepEvent};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Why a request was rejected at the door (before any work was done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity — backpressure; retry later.
    QueueFull {
        /// The configured queue depth that was hit.
        depth: usize,
    },
    /// The overload controller is at its shedding level.
    Overloaded {
        /// The controller's current degradation level.
        level: u8,
    },
    /// The server is draining for shutdown.
    Draining,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            SubmitError::Overloaded { level } => {
                write!(f, "shedding load (degradation level {level})")
            }
            SubmitError::Draining => write!(f, "server draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *admitted* request failed (delivered through its [`Ticket`]).
#[derive(Debug)]
pub enum ServeError {
    /// The deadline passed while the request was queued or mid-decode;
    /// partial work was discarded.
    DeadlineExceeded,
    /// The request's batch stopped making progress and was abandoned by
    /// the watchdog (the pool was restarted underneath it).
    Wedged,
    /// The request itself was invalid or failed in the GEMM layer.
    Invalid(GenerateError),
    /// The server went away without completing the ticket (shutdown
    /// tear-down crossed the request; should not happen in normal
    /// operation).
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Wedged => write!(f, "batch wedged; abandoned by watchdog"),
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::Disconnected => write!(f, "server disconnected"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// A successfully served generation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Prompt plus the generated continuation — bit-identical to the
    /// same request run alone through `try_generate`.
    pub tokens: Vec<usize>,
    /// Number of generated (non-prompt) tokens.
    pub generated: usize,
}

/// The receiving half of an admitted request: redeem it with
/// [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Completion, ServeError>>,
}

impl Ticket {
    /// Block until the request completes or fails.
    pub fn wait(self) -> Result<Completion, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Block up to `timeout`; `None` means the request is still in
    /// flight (the ticket is consumed — intended for tests asserting
    /// liveness bounds).
    pub fn wait_for(self, timeout: Duration) -> Option<Result<Completion, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

/// An admitted request waiting in the queue.
struct Pending {
    prompt: Vec<usize>,
    new_tokens: usize,
    submitted: Instant,
    deadline: Instant,
    tx: mpsc::Sender<Result<Completion, ServeError>>,
}

/// The response-side of one batched request, parked in the in-flight
/// slot while a decode step runs (only ever completed by the watchdog's
/// wedge path — the healthy path answers through `SeqInfo`).
struct TicketOut {
    tx: mpsc::Sender<Result<Completion, ServeError>>,
}

/// Last-seen values of this batcher's scheduler-local KV integrity
/// counters. The global [`Metrics`] outlive batcher replacements (a
/// wedge recovery starts a fresh scheduler whose counters restart at
/// zero), so each batcher accumulates *deltas* into the atomics rather
/// than storing its counters outright.
#[derive(Default, Clone, Copy)]
struct KvSeen {
    verified: u64,
    corruptions: u64,
    reconstructed: u64,
    recomputed: u64,
    scrubbed: u64,
    scrub_repairs: u64,
    stalls: u64,
}

/// The batcher's per-sequence bookkeeping: the ticket, keyed by the
/// scheduler handle, plus the request's deadline.
struct SeqInfo {
    tx: mpsc::Sender<Result<Completion, ServeError>>,
    submitted: Instant,
    deadline: Instant,
}

/// The decode step currently executing. Owned by the in-flight slot;
/// whoever takes it completes (or fails) the tickets.
struct InFlight {
    /// Epoch of the batcher that installed it; a batcher only takes the
    /// record back if the epoch still matches.
    epoch: u64,
    started: Instant,
    /// Latest per-request deadline among the step's sequences. A healthy
    /// step self-limits each sequence at its own deadline, so crossing
    /// this means the executor is not returning.
    hard_deadline: Instant,
    /// Cooperative cancel flag polled by the step's `keep_going`
    /// callback per sequence.
    cancel: Arc<AtomicBool>,
    /// Whether the watchdog already issued the cooperative cancel.
    flagged: bool,
    parts: Vec<TicketOut>,
}

struct Shared {
    cfg: ServeConfig,
    qlm: Arc<QuantizedLm>,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    stop_watchdog: AtomicBool,
    /// Bumped by the watchdog on every forced recovery; the live batcher
    /// is the one whose epoch matches.
    epoch: AtomicU64,
    inflight: Mutex<Option<InFlight>>,
    /// Handle of the *current* batcher. Replaced (old handle dropped —
    /// detaching the wedged thread) when the watchdog spawns a
    /// replacement; drained by `shutdown`.
    batcher: Mutex<Option<JoinHandle<()>>>,
    controller: Mutex<Controller>,
    metrics: Metrics,
    started: Instant,
    fault_armed: AtomicBool,
}

/// How often a parked batcher re-checks drain/epoch while waiting for
/// work.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// A request whose earliest batchmate deadline is closer than this many
/// batch windows flushes immediately instead of coalescing.
const PRESSURE_WINDOWS: u32 = 4;

/// Deadline-aware serving front-end over a prepared [`QuantizedLm`].
///
/// See the [crate docs](crate) for the architecture; see
/// [`ServeConfig`] for the knobs.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("epoch", &self.epoch.load(Relaxed))
            .field("draining", &self.draining.load(Relaxed))
            .finish()
    }
}

impl Server {
    /// Start the runtime: one batcher thread (epoch 0) plus the
    /// watchdog.
    pub fn start(qlm: Arc<QuantizedLm>, cfg: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            controller: Mutex::new(Controller::new(
                cfg.shed_enabled,
                cfg.queue_depth,
                cfg.max_batch,
                cfg.hysteresis_ticks,
            )),
            fault_armed: AtomicBool::new(cfg.fault.is_some()),
            cfg,
            qlm,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            stop_watchdog: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            inflight: Mutex::new(None),
            batcher: Mutex::new(None),
            metrics: Metrics::default(),
            started: Instant::now(),
        });
        install_batcher(&shared, 0);
        let wd_shared = Arc::clone(&shared);
        let watchdog = thread::Builder::new()
            .name("axcore-serve-watchdog".into())
            .spawn(move || watchdog_loop(&wd_shared))
            .ok();
        Server { shared, watchdog }
    }

    /// Offer a request. `deadline` of `None` uses the configured
    /// default. Rejection is immediate and typed; admission returns a
    /// [`Ticket`] that will always resolve (completion, typed failure,
    /// or [`ServeError::Disconnected`] if the server is torn down).
    pub fn submit(
        &self,
        prompt: &[usize],
        new_tokens: usize,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let m = &self.shared.metrics;
        m.submitted.fetch_add(1, Relaxed);
        if self.shared.draining.load(Relaxed) {
            m.shed_draining.fetch_add(1, Relaxed);
            return Err(SubmitError::Draining);
        }
        let level = self
            .shared
            .controller
            .lock()
            .map(|c| if c.shedding() { Some(c.level()) } else { None })
            .unwrap_or(None);
        if let Some(level) = level {
            m.shed_overload.fetch_add(1, Relaxed);
            return Err(SubmitError::Overloaded { level });
        }
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            prompt: prompt.to_vec(),
            new_tokens,
            submitted: now,
            deadline: now + deadline.unwrap_or(self.shared.cfg.default_deadline),
            tx,
        };
        {
            let Ok(mut q) = self.shared.queue.lock() else {
                return Err(SubmitError::Draining);
            };
            if q.len() >= self.shared.cfg.queue_depth {
                m.shed_queue_full.fetch_add(1, Relaxed);
                return Err(SubmitError::QueueFull {
                    depth: self.shared.cfg.queue_depth,
                });
            }
            q.push_back(pending);
            m.note_queue_depth(q.len());
        }
        self.shared.queue_cv.notify_all();
        Ok(Ticket { rx })
    }

    /// Snapshot the runtime's metrics.
    pub fn report(&self) -> ServeReport {
        let queue_depth = self.shared.queue.lock().map(|q| q.len()).unwrap_or(0);
        let (level, peak) = self
            .shared
            .controller
            .lock()
            .map(|c| (c.level(), c.peak()))
            .unwrap_or((0, 0));
        snapshot(
            &self.shared.metrics,
            queue_depth,
            level,
            peak,
            self.shared.started,
        )
    }

    /// Drain-then-stop: new submissions are rejected with
    /// [`SubmitError::Draining`], already-admitted requests are served
    /// to completion (the watchdog stays armed, so a wedge during drain
    /// still recovers), then the threads are joined. Returns the final
    /// report.
    pub fn shutdown(mut self) -> ServeReport {
        let report_before_teardown = self.report();
        self.shared.draining.store(true, Relaxed);
        self.shared.queue_cv.notify_all();
        // The watchdog may swap in a replacement batcher while we join
        // the current one; keep joining until the slot stays empty.
        loop {
            let handle = self.shared.batcher.lock().ok().and_then(|mut b| b.take());
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        self.shared.stop_watchdog.store(true, Relaxed);
        if let Some(wd) = self.watchdog.take() {
            let _ = wd.join();
        }
        drop(report_before_teardown);
        self.report()
    }
}

/// Spawn a batcher for `epoch` and make it the current one (dropping —
/// and thereby detaching — any superseded handle).
fn install_batcher(shared: &Arc<Shared>, epoch: u64) {
    let s = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name(format!("axcore-serve-batcher-{epoch}"))
        .spawn(move || batcher_loop(&s, epoch))
        .ok();
    if let Ok(mut slot) = shared.batcher.lock() {
        *slot = handle;
    }
}

fn batcher_loop(shared: &Arc<Shared>, my_epoch: u64) {
    // A replacement batcher starts after a forced pool restart; clear
    // any sticky cooperative-cancel flag so fresh dispatches run.
    axcore_parallel::clear_cancel();
    let mut sched = DecodeScheduler::new(&shared.qlm, shared.cfg.decoding, shared.cfg.kv);
    let mut parts: HashMap<SeqHandle, SeqInfo> = HashMap::new();
    let mut kv_seen = KvSeen::default();
    loop {
        if shared.epoch.load(Relaxed) != my_epoch {
            // Superseded by the watchdog; it already failed our tickets.
            return;
        }
        // Idle: nothing decoding. Park until work arrives or drain ends
        // the loop; coalesce briefly once it does (the only place the
        // batch window is paid — mid-decode admission is per token).
        if sched.live() == 0 && !idle_start(shared, my_epoch) {
            return;
        }
        admit_from_queue(shared, &mut sched, &mut parts);
        if sched.live() == 0 {
            continue;
        }
        run_evictions(shared, &mut sched);
        maybe_resume(shared, &mut sched);
        if !step_once(shared, my_epoch, &mut sched, &mut parts, &mut kv_seen) {
            return;
        }
    }
}

/// Block until the queue is non-empty (true) or the batcher should exit
/// (false: drained or superseded). On new work, waits out the coalescing
/// window unless a deadline is near — the continuous analogue of the
/// lockstep gather's batching delay.
fn idle_start(shared: &Arc<Shared>, my_epoch: u64) -> bool {
    let Ok(mut q) = shared.queue.lock() else {
        return false;
    };
    loop {
        if shared.epoch.load(Relaxed) != my_epoch {
            return false;
        }
        expire_queued(&mut q, &shared.metrics);
        if let Some(head) = q.front() {
            let pressure = head.deadline.saturating_duration_since(Instant::now())
                < shared.cfg.batch_window * PRESSURE_WINDOWS;
            drop(q);
            if !shared.cfg.batch_window.is_zero() && !pressure && !shared.draining.load(Relaxed) {
                thread::sleep(shared.cfg.batch_window);
            }
            return true;
        }
        if shared.draining.load(Relaxed) {
            return false;
        }
        let Ok((guard, _)) = shared.queue_cv.wait_timeout(q, IDLE_POLL) else {
            return false;
        };
        q = guard;
    }
}

/// Admit queued requests into the running batch, FIFO, while both the
/// concurrency ceiling and the token-in-flight bound allow. A request
/// that can never fit the token bound is still admitted when the batch
/// is empty (progress over strictness); invalid requests fail their
/// ticket right here, without touching the batch.
fn admit_from_queue(
    shared: &Arc<Shared>,
    sched: &mut DecodeScheduler<'_>,
    parts: &mut HashMap<SeqHandle, SeqInfo>,
) {
    let cap = effective_cap(shared);
    let Ok(mut q) = shared.queue.lock() else {
        return;
    };
    expire_queued(&mut q, &shared.metrics);
    while sched.live() < cap {
        let fits = q.front().is_some_and(|p| {
            sched.live() == 0
                || sched.tokens_committed() + p.prompt.len() + p.new_tokens
                    <= shared.cfg.max_tokens_in_flight
        });
        if !fits {
            break;
        }
        let Some(p) = q.pop_front() else { break };
        match sched.admit(&p.prompt, p.new_tokens) {
            Ok(handle) => {
                parts.insert(
                    handle,
                    SeqInfo { tx: p.tx, submitted: p.submitted, deadline: p.deadline },
                );
            }
            Err(e) => {
                shared.metrics.request_errors.fetch_add(1, Relaxed);
                let _ = p.tx.send(Err(ServeError::Invalid(e)));
            }
        }
    }
}

/// Perform the evictions the overload ladder requested since the last
/// step: return the longest-idle sequence's prefix pages to the arena
/// (the victim re-prefills when resumed).
fn run_evictions(shared: &Arc<Shared>, sched: &mut DecodeScheduler<'_>) {
    let requested = shared.metrics.pending_evictions.swap(0, Relaxed);
    for _ in 0..requested {
        let Some((_victim, pages)) = sched.evict_longest_idle() else {
            break;
        };
        shared.metrics.evictions.fetch_add(1, Relaxed);
        shared.metrics.note_incident(Incident::PagesEvicted { pages });
    }
}

/// Un-park one evicted sequence when the pressure that evicted it has
/// passed (ladder below the evict rung, or nothing else to run). Paused
/// sequences still see their deadlines fire inside `step`.
fn maybe_resume(shared: &Arc<Shared>, sched: &mut DecodeScheduler<'_>) {
    if sched.paused() == 0 {
        return;
    }
    let level = shared.controller.lock().map(|c| c.level()).unwrap_or(0);
    let queue_empty = shared.queue.lock().map(|q| q.is_empty()).unwrap_or(true);
    if level < EVICT_LEVEL || queue_empty || sched.paused() == sched.live() {
        sched.resume_one();
    }
}

/// One supervised decode step: install the in-flight record, advance
/// every live sequence a token, take the record back (unless the
/// watchdog wedged us — then the tickets are already failed and we
/// exit), and complete retired sequences' tickets. Returns `false` when
/// this batcher must exit.
fn step_once(
    shared: &Arc<Shared>,
    my_epoch: u64,
    sched: &mut DecodeScheduler<'_>,
    parts: &mut HashMap<SeqHandle, SeqInfo>,
    kv_seen: &mut KvSeen,
) -> bool {
    let now = Instant::now();
    let cancel = Arc::new(AtomicBool::new(false));
    let hard_deadline = parts.values().map(|p| p.deadline).max().unwrap_or(now);
    if let Ok(mut slot) = shared.inflight.lock() {
        *slot = Some(InFlight {
            epoch: my_epoch,
            started: now,
            hard_deadline,
            cancel: Arc::clone(&cancel),
            flagged: false,
            parts: parts.values().map(|p| TicketOut { tx: p.tx.clone() }).collect(),
        });
    } else {
        return false;
    }
    let step_no = shared.metrics.batches.fetch_add(1, Relaxed);
    shared.metrics.batched_requests.fetch_add(sched.live() as u64, Relaxed);

    // Test-only faults: stall before decoding (as a stuck kernel would),
    // or flip a bit in live KV state (as an at-rest memory fault would).
    match shared.cfg.fault {
        Some(ServeFault::WedgeFirstBatch { hold }) if shared.fault_armed.swap(false, Relaxed) => {
            thread::sleep(hold);
        }
        Some(ServeFault::CorruptKvEvery { period, seed })
            if period > 0 && step_no.is_multiple_of(period) =>
        {
            sched.inject_random_kv_fault(seed ^ (step_no + 1));
        }
        _ => {}
    }

    let events = sched.step(|h| {
        !cancel.load(Relaxed)
            && parts.get(&h).is_some_and(|p| Instant::now() < p.deadline)
    });

    shared.metrics.kv_pages_live.store(sched.kv_pages_live(), Relaxed);
    shared.metrics.kv_pages_peak.fetch_max(sched.kv_pages_peak(), Relaxed);
    shared.metrics.kv_block.store(sched.kv_block(), Relaxed);
    shared.metrics.tokens_in_flight_peak.fetch_max(sched.tokens_peak(), Relaxed);
    let now_seen = KvSeen {
        verified: sched.kv_pages_verified(),
        corruptions: sched.kv_corruptions_detected(),
        reconstructed: sched.kv_repairs_reconstructed(),
        recomputed: sched.kv_repairs_recomputed(),
        scrubbed: sched.kv_pages_scrubbed(),
        scrub_repairs: sched.kv_scrub_repairs(),
        stalls: sched.kv_capacity_stalls(),
    };
    shared.metrics.kv_pages_verified.fetch_add(now_seen.verified - kv_seen.verified, Relaxed);
    shared.metrics.kv_corruptions.fetch_add(now_seen.corruptions - kv_seen.corruptions, Relaxed);
    shared
        .metrics
        .kv_repairs_reconstructed
        .fetch_add(now_seen.reconstructed - kv_seen.reconstructed, Relaxed);
    shared
        .metrics
        .kv_repairs_recomputed
        .fetch_add(now_seen.recomputed - kv_seen.recomputed, Relaxed);
    shared.metrics.kv_pages_scrubbed.fetch_add(now_seen.scrubbed - kv_seen.scrubbed, Relaxed);
    shared
        .metrics
        .kv_scrub_repairs
        .fetch_add(now_seen.scrub_repairs - kv_seen.scrub_repairs, Relaxed);
    shared
        .metrics
        .kv_capacity_stalls
        .fetch_add(now_seen.stalls - kv_seen.stalls, Relaxed);
    if now_seen.corruptions > kv_seen.corruptions
        || now_seen.reconstructed > kv_seen.reconstructed
        || now_seen.recomputed > kv_seen.recomputed
    {
        shared.metrics.note_incident(Incident::KvCorruption {
            detected: now_seen.corruptions - kv_seen.corruptions,
            reconstructed: now_seen.reconstructed - kv_seen.reconstructed,
            recomputed: now_seen.recomputed - kv_seen.recomputed,
        });
    }
    if now_seen.scrub_repairs > kv_seen.scrub_repairs {
        shared.metrics.note_incident(Incident::KvScrubRepair {
            repaired: now_seen.scrub_repairs - kv_seen.scrub_repairs,
        });
    }
    if now_seen.stalls > kv_seen.stalls {
        // Capacity backpressure inside the batch: ask the eviction rung
        // to free prefix pages so the stalled sequence can resume.
        shared
            .metrics
            .pending_evictions
            .fetch_add(now_seen.stalls - kv_seen.stalls, Relaxed);
    }
    *kv_seen = now_seen;

    // Take the in-flight record back. `None` or a different epoch means
    // the watchdog wedged this step and already failed the tickets —
    // the decoded output is discarded.
    let taken = match shared.inflight.lock() {
        Ok(mut slot) => {
            if slot.as_ref().is_some_and(|f| f.epoch == my_epoch) {
                slot.take()
            } else {
                None
            }
        }
        Err(_) => None,
    };
    if taken.is_none() {
        return false;
    }
    for ev in events {
        match ev {
            StepEvent::Finished { handle, outcome } => {
                let Some(info) = parts.remove(&handle) else { continue };
                if outcome.completed {
                    shared.metrics.completed.fetch_add(1, Relaxed);
                    shared
                        .metrics
                        .note_latency(info.submitted.elapsed().as_secs_f64() * 1e3);
                    let _ = info.tx.send(Ok(Completion {
                        tokens: outcome.tokens,
                        generated: outcome.generated,
                    }));
                } else {
                    // `keep_going` stopped it: its own deadline passed
                    // (the cancel flag only trips after every deadline
                    // in the step has passed — `hard_deadline` is the
                    // max).
                    shared.metrics.deadline_missed.fetch_add(1, Relaxed);
                    let _ = info.tx.send(Err(ServeError::DeadlineExceeded));
                }
            }
            StepEvent::Failed { handle, error } => {
                let Some(info) = parts.remove(&handle) else { continue };
                shared.metrics.request_errors.fetch_add(1, Relaxed);
                let _ = info.tx.send(Err(ServeError::Invalid(error)));
            }
        }
    }
    true
}

/// Fail every queued request whose deadline already passed.
fn expire_queued(q: &mut VecDeque<Pending>, metrics: &Metrics) {
    let now = Instant::now();
    q.retain(|p| {
        if now >= p.deadline {
            metrics.deadline_missed.fetch_add(1, Relaxed);
            let _ = p.tx.send(Err(ServeError::DeadlineExceeded));
            false
        } else {
            true
        }
    });
}

fn effective_cap(shared: &Shared) -> usize {
    shared
        .controller
        .lock()
        .map(|c| c.effective_max_batch())
        .unwrap_or(1)
}

fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.stop_watchdog.load(Relaxed) {
        thread::sleep(shared.cfg.watchdog_interval);
        let queue_len = shared.queue.lock().map(|q| q.len()).unwrap_or(0);
        if let Ok(mut c) = shared.controller.lock() {
            c.tick(queue_len, &shared.metrics);
        }
        check_inflight(shared);
    }
}

/// One watchdog inspection of the in-flight batch: strike one is a
/// cooperative cancel; strike two (after `wedge_grace`) abandons the
/// batch, restarts the pool, and hands the queue to a fresh batcher.
fn check_inflight(shared: &Arc<Shared>) {
    let now = Instant::now();
    let Ok(mut slot) = shared.inflight.lock() else {
        return;
    };
    let Some(inflight) = slot.as_mut() else { return };
    if now <= inflight.hard_deadline {
        return;
    }
    if !inflight.flagged {
        inflight.flagged = true;
        inflight.cancel.store(true, Relaxed);
        // Also interrupt any pooled dispatch loop mid-GEMM.
        axcore_parallel::request_cancel();
        shared.metrics.note_incident(Incident::BatchOverdue {
            running_ms: inflight.started.elapsed().as_millis() as u64,
            batch_size: inflight.parts.len(),
        });
        return;
    }
    if now < inflight.hard_deadline + shared.cfg.wedge_grace {
        return;
    }
    // Strike two: the cancel did not converge. Take ownership, recover
    // the substrate first (epoch bump + pool restart), and only then
    // fail the tickets — a client that observes `Wedged` can rely on
    // the recovery already being underway.
    let Some(wedged) = slot.take() else { return };
    drop(slot);
    let abandoned = wedged.parts.len();
    let next_epoch = shared.epoch.load(Relaxed) + 1;
    shared.epoch.store(next_epoch, Relaxed);
    axcore_parallel::force_restart_pool();
    for part in wedged.parts {
        shared.metrics.wedged.fetch_add(1, Relaxed);
        let _ = part.tx.send(Err(ServeError::Wedged));
    }
    shared.metrics.note_incident(Incident::PoolRestarted { abandoned });
    install_batcher(shared, next_epoch);
    shared.queue_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcore_nn::eval::{quantize_model, Scheme};
    use axcore_nn::generate::{try_generate, Decoding};
    use axcore_nn::layers::ActKind;
    use axcore_nn::model::{LmConfig, TransformerLm};
    use std::sync::OnceLock;

    fn tiny_qlm() -> Arc<QuantizedLm> {
        static QLM: OnceLock<Arc<QuantizedLm>> = OnceLock::new();
        Arc::clone(QLM.get_or_init(|| {
            let cfg = LmConfig {
                vocab: 17,
                d_model: 16,
                n_layers: 1,
                n_heads: 2,
                d_ff: 24,
                max_seq: 32,
                act: ActKind::Relu,
            };
            let model = TransformerLm::new(cfg, 11);
            Arc::new(quantize_model(&model, Scheme::AxCore, 8, None))
        }))
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            queue_depth: 8,
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_requests_bit_exact_with_serial_reference() {
        let qlm = tiny_qlm();
        let server = Server::start(Arc::clone(&qlm), serve_cfg());
        let prompts: Vec<Vec<usize>> = (0..6).map(|i| vec![1 + i, 2, 3]).collect();
        let tickets: Vec<Ticket> = prompts
            .iter()
            .map(|p| server.submit(p, 4, None).expect("admitted"))
            .collect();
        for (p, t) in prompts.iter().zip(tickets) {
            let got = t.wait().expect("served");
            let want = try_generate(&qlm, p, 4, Decoding::Greedy).expect("reference");
            assert_eq!(got.tokens, want, "served output bit-exact vs serial");
            assert_eq!(got.generated, 4);
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 6);
        assert_eq!(report.shed_rate(), 0.0);
        assert!(report.batches >= 1);
        assert!(report.p99_ms > 0.0);
    }

    #[test]
    fn invalid_requests_fail_typed_without_poisoning_the_batch() {
        let qlm = tiny_qlm();
        let server = Server::start(Arc::clone(&qlm), serve_cfg());
        let good = server.submit(&[1, 2], 3, None).expect("admitted");
        let bad = server.submit(&[9999], 3, None).expect("admitted");
        assert!(matches!(
            bad.wait(),
            Err(ServeError::Invalid(GenerateError::TokenOutOfRange { .. }))
        ));
        let got = good.wait().expect("good request unaffected");
        assert_eq!(
            got.tokens,
            try_generate(&qlm, &[1, 2], 3, Decoding::Greedy).expect("reference")
        );
        let report = server.shutdown();
        assert_eq!(report.request_errors, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn draining_server_rejects_new_requests() {
        let server = Server::start(tiny_qlm(), serve_cfg());
        let admitted = server.submit(&[1, 2, 3], 2, None).expect("admitted");
        let report = server.shutdown();
        assert!(report.completed >= 1, "admitted request served during drain");
        drop(admitted);
    }

    #[test]
    fn queue_full_backpressure_is_typed() {
        // A server with no room: depth 1 and a wedged first batch is
        // overkill here — simply pile on more than the queue holds
        // with a long batch window so the queue backs up.
        let qlm = tiny_qlm();
        let cfg = ServeConfig {
            queue_depth: 2,
            max_batch: 1,
            batch_window: Duration::from_millis(50),
            default_deadline: Duration::from_secs(10),
            shed_enabled: false,
            ..ServeConfig::default()
        };
        let server = Server::start(qlm, cfg);
        let mut ok = Vec::new();
        let mut full = 0u32;
        for i in 0..40 {
            match server.submit(&[1 + (i % 7), 2], 2, None) {
                Ok(t) => ok.push(t),
                Err(SubmitError::QueueFull { depth }) => {
                    assert_eq!(depth, 2);
                    full += 1;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        assert!(full > 0, "typed backpressure observed");
        for t in ok {
            let _ = t.wait().expect("admitted requests all served");
        }
        server.shutdown();
    }

    #[test]
    fn per_request_deadline_cancels_cleanly() {
        let qlm = tiny_qlm();
        let server = Server::start(qlm, serve_cfg());
        // A deadline that has effectively already passed.
        let t = server
            .submit(&[1, 2, 3], 8, Some(Duration::from_nanos(1)))
            .expect("admitted");
        assert!(matches!(t.wait(), Err(ServeError::DeadlineExceeded)));
        let report = server.shutdown();
        assert_eq!(report.deadline_missed, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn mixed_budgets_batch_by_budget_and_all_complete() {
        let qlm = tiny_qlm();
        let server = Server::start(Arc::clone(&qlm), serve_cfg());
        let reqs: Vec<(Vec<usize>, usize)> = vec![
            (vec![1, 2], 2),
            (vec![2, 3], 5),
            (vec![3, 4], 2),
            (vec![4, 5], 5),
        ];
        let tickets: Vec<Ticket> = reqs
            .iter()
            .map(|(p, n)| server.submit(p, *n, None).expect("admitted"))
            .collect();
        for ((p, n), t) in reqs.iter().zip(tickets) {
            let got = t.wait().expect("served");
            assert_eq!(
                got.tokens,
                try_generate(&qlm, p, *n, Decoding::Greedy).expect("reference")
            );
            assert_eq!(got.generated, *n);
        }
        server.shutdown();
    }

    #[test]
    fn wedged_batch_is_abandoned_pool_restarts_and_service_recovers() {
        let qlm = tiny_qlm();
        let cfg = ServeConfig {
            queue_depth: 8,
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            default_deadline: Duration::from_millis(60),
            watchdog_interval: Duration::from_millis(10),
            wedge_grace: Duration::from_millis(40),
            fault: Some(ServeFault::WedgeFirstBatch {
                hold: Duration::from_millis(400),
            }),
            ..ServeConfig::default()
        };
        let restarts_before = axcore_parallel::pool_restarts();
        let server = Server::start(Arc::clone(&qlm), cfg);
        let wedged = server.submit(&[1, 2, 3], 4, None).expect("admitted");
        assert!(
            matches!(
                wedged.wait_for(Duration::from_secs(5)),
                Some(Err(ServeError::Wedged))
            ),
            "stalled batch abandoned with a typed error"
        );
        assert!(
            axcore_parallel::pool_restarts() > restarts_before,
            "watchdog force-restarted the pool"
        );
        // The replacement batcher must serve subsequent requests.
        let t = server
            .submit(&[2, 3, 4], 3, Some(Duration::from_secs(10)))
            .expect("admitted after recovery");
        let got = t.wait().expect("served by replacement batcher");
        assert_eq!(
            got.tokens,
            try_generate(&qlm, &[2, 3, 4], 3, Decoding::Greedy).expect("reference")
        );
        let report = server.shutdown();
        assert_eq!(report.wedged, 1);
        assert!(report.pool_restarts > 0);
        assert!(report
            .incidents
            .iter()
            .any(|i| matches!(i, Incident::BatchOverdue { .. })));
        assert!(report
            .incidents
            .iter()
            .any(|i| matches!(i, Incident::PoolRestarted { abandoned: 1 })));
    }

    /// The overload ladder (halve → evict → shed) acts on this server
    /// alone: walking it to the shed level and back changes neither the
    /// tier quarantine flags nor the execution config a fresh thread
    /// resolves, so an operator's `AXCORE_VERIFY` / `AXCORE_LUT` hold
    /// under load.
    #[test]
    fn overload_ladder_leaves_process_exec_state_alone() {
        use crate::controller::{HALVE_LEVEL, SHED_LEVEL};
        use axcore_parallel::health::{self, Tier};
        const TIERS: [Tier; 4] = [Tier::W4a8, Tier::Avx2Lut, Tier::SwarLut, Tier::Direct];
        let observe = || {
            thread::spawn(|| (axcore_parallel::current_exec(), TIERS.map(health::is_quarantined)))
                .join()
                .expect("observer thread")
        };
        let before = observe();
        let cfg = ServeConfig {
            queue_depth: 8,
            max_batch: 2,
            batch_window: Duration::from_millis(1),
            default_deadline: Duration::from_secs(10),
            watchdog_interval: Duration::from_millis(2),
            hysteresis_ticks: 1,
            // The first batch stalls, so the queue backs up and each
            // watchdog tick escalates one rung until admission sheds.
            fault: Some(ServeFault::WedgeFirstBatch {
                hold: Duration::from_millis(200),
            }),
            ..ServeConfig::default()
        };
        let server = Server::start(tiny_qlm(), cfg);
        let mut tickets = Vec::new();
        let mut shed_at = None;
        let t0 = Instant::now();
        while shed_at.is_none() && t0.elapsed() < Duration::from_secs(5) {
            match server.submit(&[1, 2], 2, None) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Overloaded { level }) => shed_at = Some(level),
                Err(SubmitError::QueueFull { .. }) => {}
                Err(e) => panic!("unexpected rejection: {e}"),
            }
            assert_eq!(observe(), before, "at level {}", server.report().level);
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(shed_at, Some(SHED_LEVEL), "typed shedding at the top rung");
        for t in tickets {
            t.wait().expect("admitted requests are served");
        }
        let t1 = Instant::now();
        while server.report().level > 0 && t1.elapsed() < Duration::from_secs(5) {
            assert_eq!(observe(), before, "at level {}", server.report().level);
            thread::sleep(Duration::from_millis(2));
        }
        let report = server.shutdown();
        assert_eq!(report.level, 0, "controller restored to nominal");
        assert_eq!(report.peak_level, SHED_LEVEL);
        assert_eq!(observe(), before);
        let climbed: Vec<u8> = report
            .incidents
            .iter()
            .filter_map(|i| match i {
                Incident::Escalated { level } => Some(*level),
                _ => None,
            })
            .take(3)
            .collect();
        assert_eq!(climbed, [HALVE_LEVEL, EVICT_LEVEL, SHED_LEVEL], "halve → evict → shed");
    }
}
