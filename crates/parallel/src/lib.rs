//! # axcore-parallel
//!
//! The execution runtime for the GEMM engines: rayon-style
//! `par_chunks_mut` over disjoint output slices plus the scratch arena,
//! built with no dependencies (the build environment has no registry
//! access, so rayon itself cannot be pulled in; this crate provides the
//! small slice-parallel subset the engines need).
//!
//! Work is dispatched to a lazily-started **persistent worker pool**
//! ([`pool`]): workers park on a condvar between calls, so the
//! steady-state decode path pays one wake/park round-trip instead of
//! re-spawning OS threads on every `gemm` call, and dispatch itself
//! performs no heap allocation (chunks are claimed off an atomic
//! counter). The pool is the only runtime; the bit-exactness tests
//! compare it against its own serial path (`with_threads(1)`).
//!
//! Guarantees:
//!
//! * **Determinism** — each chunk's output location is a function of its
//!   chunk index alone, never of thread scheduling; callers that compute
//!   each output element independently of iteration order get
//!   bit-identical results at any thread count.
//! * **No nesting blowup** — a worker thread that itself calls into the
//!   parallel API runs serially, so parallel GEMMs inside parallel row
//!   sweeps do not oversubscribe the machine.
//! * **Control** — the worker count is one field of the per-call
//!   [`ExecConfig`] ([`exec`]): [`with_exec`] (or its [`with_threads`]
//!   view) scopes an explicit count (1 = force serial, used by benches
//!   and the bit-exactness tests); the `AXCORE_THREADS` environment
//!   variable sets the default.

#![deny(unsafe_code)] // narrowly allowed in the pool dispatch path only

pub mod arena;
pub mod env;
pub mod exec;
pub mod health;
pub mod pool;
pub mod shard;

pub use exec::{
    current_exec, threads_for, with_exec, ActPolicy, ExecConfig, LutPolicy, VerifyPolicy,
};
pub use health::{ExecReport, FailReason, Tier};
pub use pool::{
    cancel_requested, clear_cancel, force_restart as force_restart_pool, request_cancel,
    restarts as pool_restarts, shutdown as shutdown_pool, spawned_workers,
};
pub use shard::{Shard, ShardPlan};

use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine-level default thread count: `AXCORE_THREADS` if set,
/// otherwise the available hardware parallelism.
pub fn max_threads() -> usize {
    exec::default_exec().threads
}

/// Thread counts worth sweeping in benchmarks: always `1, 2, 4, 8`
/// (so every `BENCH_gemm.json` carries a comparable scaling curve, even
/// from a small runner where the high rows are oversubscribed), plus
/// [`max_threads`] when the machine exceeds 8. Counts above the hardware
/// parallelism still execute — `with_threads` is an explicit override —
/// they just report sub-linear `scaling_efficiency`.
pub fn thread_sweep() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    let max = max_threads();
    if max > 8 {
        counts.push(max);
    }
    counts
}

/// `current_exec().threads`: the worker count parallel calls on this
/// thread use right now.
pub fn current_threads() -> usize {
    current_exec().threads
}

/// [`with_exec`] with only the worker count changed (`1` forces the
/// serial path).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_exec(ExecConfig { threads: n, ..current_exec() }, f)
}

/// Split `data` into contiguous chunks of `chunk_len` elements and call
/// `f(chunk_index, chunk)` for every chunk, distributing chunks over up
/// to [`current_threads`] workers. Equivalent to
/// `data.chunks_mut(chunk_len).enumerate().for_each(...)` in any order.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_with(data, chunk_len, || (), |(), i, c| f(i, c));
}

/// [`par_chunks_mut`] with per-worker scratch state: each worker thread
/// builds one `S` via `mk_scratch` and reuses it across all the chunks
/// it processes — the hook GEMM kernels use to amortize row-encode
/// buffers instead of allocating per chunk.
pub fn par_chunks_mut_with<T, S, MkS, F>(data: &mut [T], chunk_len: usize, mk_scratch: MkS, f: F)
where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let num_chunks = data.len().div_ceil(chunk_len);
    let threads = current_threads().min(num_chunks.max(1));
    if threads <= 1 {
        let mut scratch = mk_scratch();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, i, chunk);
        }
        return;
    }
    pooled_chunks(data, chunk_len, num_chunks, threads, &mk_scratch, &f);
}

/// Pool dispatch: all participants (caller + `threads - 1` pool workers)
/// claim chunk indices off one atomic counter. Claiming is dynamic (load
/// balances uneven chunks) but output placement is by chunk index, so
/// scheduling cannot affect results. No allocation happens on this path.
fn pooled_chunks<T, S, MkS, F>(
    data: &mut [T],
    chunk_len: usize,
    num_chunks: usize,
    threads: usize,
    mk_scratch: &MkS,
    f: &F,
) where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    /// The output slice as a shareable base pointer. Participants carve
    /// disjoint sub-slices out of it by claimed chunk index.
    struct RawChunks<T> {
        base: *mut T,
        len: usize,
    }
    // SAFETY: shared only for the duration of `pool::run`; every access
    // goes through a uniquely claimed chunk index, so no two threads
    // ever touch the same element (`T: Send` moves element access to
    // the claiming thread).
    #[allow(unsafe_code)]
    unsafe impl<T: Send> Sync for RawChunks<T> {}

    let raw = RawChunks {
        base: data.as_mut_ptr(),
        len: data.len(),
    };
    // Capture the Sync wrapper by reference (closure field-capture would
    // otherwise grab the raw pointer itself, which is not Sync).
    let raw = &raw;
    let next = AtomicUsize::new(0);
    /// Fail-fast drain: if a participant unwinds out of `f`, exhaust the
    /// claim counter so no other participant claims further chunks. The
    /// panicking chunk's claim is thereby never "leaked" into a counter
    /// state other threads keep working past — the dispatch converges and
    /// the panic propagates from `pool::run` with the pool reusable.
    struct DrainOnUnwind<'a> {
        next: &'a AtomicUsize,
        num_chunks: usize,
    }
    impl Drop for DrainOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.next.store(self.num_chunks, Ordering::Relaxed);
            }
        }
    }
    let body = || {
        let mut i = next.fetch_add(1, Ordering::Relaxed);
        if i >= num_chunks {
            return; // late participant: all chunks already claimed
        }
        let _drain = DrainOnUnwind {
            next: &next,
            num_chunks,
        };
        let mut scratch = mk_scratch();
        loop {
            // Cooperative cancellation: stop claiming further chunks.
            // The output is partial — only callers that will discard the
            // result ever request this (see `pool::request_cancel`).
            if pool::cancel_requested() {
                return;
            }
            let start = i * chunk_len;
            let len = chunk_len.min(raw.len - start);
            // SAFETY: `i` was claimed exactly once via fetch_add, so the
            // [start, start + len) ranges handed out are pairwise
            // disjoint sub-slices of the caller's exclusive borrow, which
            // outlives `pool::run` (it blocks until all participants
            // finish).
            #[allow(unsafe_code)]
            let chunk = unsafe { std::slice::from_raw_parts_mut(raw.base.add(start), len) };
            f(&mut scratch, i, chunk);
            i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_chunks {
                return;
            }
        }
    };
    pool::run(threads - 1, &body);
}

/// A mutable view of one shard's columns of a row-major `rows × n`
/// output matrix. [`row`](ShardSlice::row) hands out the shard's slice
/// of one output row; different shards' views alias no elements (their
/// column ranges are disjoint by [`ShardPlan`] construction), and shard
/// boundaries are cache-line aligned, so concurrent writeback needs no
/// barrier and causes no false sharing.
pub struct ShardSlice<'a, T> {
    base: *mut T,
    rows: usize,
    row_stride: usize,
    col0: usize,
    cols: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> ShardSlice<'_, T> {
    /// Rows in the underlying matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns owned by this shard.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// This shard's columns of output row `r`.
    pub fn row(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        // SAFETY: the view was constructed over a live exclusive borrow
        // of the full matrix (kept alive by `par_shards_with`'s
        // completion wait); `r < rows` and `col0 + cols <= row_stride`,
        // so the range is in bounds, and no other shard's view overlaps
        // these columns.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(
                self.base.add(r * self.row_stride + self.col0),
                self.cols,
            )
        }
    }
}

/// Run `f` once per shard of `plan` over the row-major `rows × plan.n()`
/// matrix `out`, with **stable shard→thread affinity**: shard `s` always
/// executes on pool slot `s` (slot 0 is the calling thread), i.e. on the
/// same OS thread call after call, so that thread's scratch arena keeps
/// the shard's tables warm. Each shard worker builds one `S` via
/// `mk_scratch` and writes only its own disjoint output columns through
/// the provided [`ShardSlice`] — a single barrier-free writeback.
///
/// With a one-shard plan this degenerates to a plain serial call on the
/// current thread (the bit-exactness baseline; sharding never changes
/// results because every output element is computed independently).
pub fn par_shards_with<T, S, MkS, F>(out: &mut [T], rows: usize, plan: &ShardPlan, mk_scratch: MkS, f: F)
where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, shard::Shard, &mut ShardSlice<'_, T>) + Sync,
{
    let n = plan.n();
    assert!(out.len() >= rows * n, "output shorter than rows × n");
    let nshards = plan.num_shards();
    if nshards <= 1 {
        let sh = plan.shard(0);
        let mut view = ShardSlice {
            base: out.as_mut_ptr(),
            rows,
            row_stride: n,
            col0: sh.col0,
            cols: sh.cols,
            _borrow: std::marker::PhantomData,
        };
        let mut scratch = mk_scratch();
        f(&mut scratch, sh, &mut view);
        return;
    }
    /// The matrix base pointer as a shareable handle; every access goes
    /// through a shard view whose column range is unique to its slot.
    struct RawMatrix<T> {
        base: *mut T,
    }
    // SAFETY: shared only for the duration of the dispatch below; slots
    // are executed exactly once per job and their shards' column ranges
    // are pairwise disjoint, so no element is reachable from two threads.
    #[allow(unsafe_code)]
    unsafe impl<T: Send> Sync for RawMatrix<T> {}

    let raw = RawMatrix { base: out.as_mut_ptr() };
    let raw = &raw;
    let body = |slot: usize| {
        let sh = plan.shard(slot);
        if sh.cols == 0 {
            return;
        }
        let mut view = ShardSlice {
            base: raw.base,
            rows,
            row_stride: n,
            col0: sh.col0,
            cols: sh.cols,
            _borrow: std::marker::PhantomData,
        };
        let mut scratch = mk_scratch();
        f(&mut scratch, sh, &mut view);
    };
    pool::run_indexed(nshards - 1, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_chunk_exactly_once() {
        let mut data = vec![0u32; 1003];
        par_chunks_mut(&mut data, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += i as u32 + 1;
            }
        });
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, (j / 10) as u32 + 1, "elem {j}");
        }
    }

    #[test]
    fn covers_every_chunk_on_four_workers() {
        with_threads(4, || {
            let mut data = vec![0u32; 777];
            par_chunks_mut(&mut data, 13, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += i as u32 + 1;
                }
            });
            for (j, &v) in data.iter().enumerate() {
                assert_eq!(v, (j / 13) as u32 + 1, "elem {j}");
            }
        });
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize, chunk: &mut [f32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = ((i * 31 + j) as f32).sin();
            }
        };
        let mut serial = vec![0f32; 500];
        with_threads(1, || par_chunks_mut(&mut serial, 7, work));
        let mut parallel = vec![0f32; 500];
        with_threads(8, || par_chunks_mut(&mut parallel, 7, work));
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn thread_sweep_is_increasing_and_covers_1_2_4_8() {
        let sweep = thread_sweep();
        assert_eq!(&sweep[..4], &[1, 2, 4, 8]);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        if max_threads() > 8 {
            assert_eq!(*sweep.last().unwrap(), max_threads());
        }
    }

    #[test]
    fn shards_cover_every_column_on_four_workers() {
        with_threads(4, || {
            let (rows, n) = (3usize, 100usize);
            let plan = ShardPlan::new(n, current_threads(), 1);
            let mut out = vec![0u32; rows * n];
            par_shards_with(&mut out, rows, &plan, || (), |(), sh, view| {
                for r in 0..view.rows() {
                    for (j, v) in view.row(r).iter_mut().enumerate() {
                        *v = (r * n + sh.col0 + j) as u32 + 1;
                    }
                }
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u32 + 1, "elem {i}");
            }
        });
    }

    #[test]
    fn sharded_and_serial_agree_bitwise() {
        let work = |_s: &mut (), sh: Shard, view: &mut ShardSlice<'_, f32>| {
            for r in 0..view.rows() {
                for (j, v) in view.row(r).iter_mut().enumerate() {
                    *v = (((r * 31 + sh.col0 + j) as f32) * 0.37).sin();
                }
            }
        };
        let (rows, n) = (2usize, 230usize);
        let mut serial = vec![0f32; rows * n];
        with_threads(1, || {
            par_shards_with(&mut serial, rows, &ShardPlan::new(n, 1, 4), || (), work);
        });
        let mut sharded = vec![0f32; rows * n];
        with_threads(8, || {
            par_shards_with(&mut sharded, rows, &ShardPlan::new(n, 8, 4), || (), work);
        });
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            sharded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn shard_slots_keep_stable_thread_affinity() {
        use std::sync::{Mutex, PoisonError};
        use std::thread::ThreadId;
        with_threads(4, || {
            let n = 256usize;
            let plan = ShardPlan::new(n, 4, 1);
            assert_eq!(plan.num_shards(), 4);
            let observed: Mutex<Vec<Vec<ThreadId>>> = Mutex::new(vec![Vec::new(); 4]);
            let mut out = vec![0u8; n];
            for _ in 0..5 {
                par_shards_with(&mut out, 1, &plan, || (), |(), sh, _view| {
                    observed
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)[sh.index]
                        .push(std::thread::current().id());
                });
            }
            let observed = observed.lock().unwrap_or_else(PoisonError::into_inner);
            for (slot, ids) in observed.iter().enumerate() {
                assert_eq!(ids.len(), 5, "slot {slot} ran once per call");
                assert!(
                    ids.iter().all(|id| *id == ids[0]),
                    "slot {slot} must stay on one OS thread across calls"
                );
            }
        });
    }

    #[test]
    fn shard_panic_propagates_and_pool_stays_usable() {
        with_threads(4, || {
            let n = 256usize;
            let plan = ShardPlan::new(n, 4, 1);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut out = vec![0u8; n];
                par_shards_with(&mut out, 1, &plan, || (), |(), sh, _v| {
                    if sh.index == 2 {
                        panic!("shard 2 failed");
                    }
                });
            }));
            assert!(result.is_err(), "shard panic must propagate");
            let mut out = vec![0u8; n];
            par_shards_with(&mut out, 1, &plan, || (), |(), _sh, view| {
                view.row(0).fill(7);
            });
            assert!(out.iter().all(|&v| v == 7), "pool reusable after shard panic");
        });
    }

    #[test]
    fn with_threads_restores_previous_setting() {
        let before = current_exec();
        with_threads(3, || {
            assert_eq!(current_exec(), ExecConfig { threads: 3, ..before });
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_exec(), before);
    }

    #[test]
    fn nested_calls_run_serially_in_workers() {
        let nested_threads = AtomicUsize::new(usize::MAX);
        let mut data = vec![0u8; 64];
        with_threads(4, || {
            par_chunks_mut(&mut data, 1, |_, _| {
                nested_threads.fetch_min(current_threads(), Ordering::Relaxed);
            });
        });
        assert_eq!(nested_threads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        let builds = AtomicUsize::new(0);
        let mut data = vec![0u8; 100];
        with_threads(2, || {
            par_chunks_mut_with(
                &mut data,
                1,
                || builds.fetch_add(1, Ordering::Relaxed),
                |_, _, _| {},
            );
        });
        // One scratch per worker, not per chunk.
        assert!(builds.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn pool_workers_persist_across_calls() {
        with_threads(3, || {
            let mut data = vec![0u8; 96];
            par_chunks_mut(&mut data, 4, |_, c| c.fill(1));
            let after_first = spawned_workers();
            assert!(after_first >= 2, "pool should have started helpers");
            for _ in 0..5 {
                par_chunks_mut(&mut data, 4, |_, c| c.fill(2));
            }
            assert_eq!(spawned_workers(), after_first, "no re-spawning per call");
            assert!(data.iter().all(|&v| v == 2));
        });
    }

    #[test]
    fn panicking_task_propagates_and_pool_stays_usable() {
        with_threads(2, || {
            let mut data = vec![0u32; 32];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut poisoned = vec![0u32; 32];
                par_chunks_mut(&mut poisoned, 1, |i, _| {
                    if i == 17 {
                        panic!("task 17 failed");
                    }
                });
            }));
            let err = result.expect_err("panic must propagate to the caller");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("task 17 failed"), "payload preserved: {msg}");
            // The pool must be parked and reusable after the panic.
            par_chunks_mut(&mut data, 1, |i, c| c[0] = i as u32 + 1);
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u32 + 1);
            }
        });
    }

    #[test]
    fn panic_in_first_worker_drains_claims_and_pool_is_reusable() {
        with_threads(4, || {
            let processed = AtomicUsize::new(0);
            let claims = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut data = vec![0u8; 256];
                par_chunks_mut(&mut data, 1, |_, _| {
                    // The very first chunk claimed dies.
                    if claims.fetch_add(1, Ordering::Relaxed) == 0 {
                        panic!("worker 0 failed");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    processed.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(result.is_err(), "panic must propagate");
            // Fail-fast drain: once chunk 0 panicked, the claim counter
            // was exhausted so the survivors stopped claiming instead of
            // grinding through all 255 remaining chunks.
            let done = processed.load(Ordering::Relaxed);
            assert!(done < 200, "drained on unwind (processed {done})");
            // The dispatcher serves subsequent calls normally.
            let mut again = vec![0u8; 64];
            par_chunks_mut(&mut again, 4, |_, c| c.fill(7));
            assert!(again.iter().all(|&v| v == 7), "reusable");
        });
    }

    #[test]
    fn shutdown_joins_workers_and_pool_restarts() {
        with_threads(2, || {
            let mut data = vec![0u8; 64];
            par_chunks_mut(&mut data, 2, |_, c| c.fill(1));
        });
        // Serialize with other tests' pool use: shutdown takes the submit
        // lock, so in-flight jobs finish first.
        shutdown_pool();
        assert_eq!(spawned_workers(), 0);
        with_threads(2, || {
            let mut data = vec![0u8; 64];
            par_chunks_mut(&mut data, 2, |_, c| c.fill(3));
            assert!(data.iter().all(|&v| v == 3));
        });
        assert!(spawned_workers() >= 1);
    }
}
