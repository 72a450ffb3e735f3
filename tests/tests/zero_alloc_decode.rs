//! Counting-allocator proof that steady-state decode allocates nothing.
//!
//! A `#[global_allocator]` wrapper around `System` counts every
//! `alloc`/`alloc_zeroed`/`realloc` while armed. The test prepares an
//! AxCore decode engine, runs a few warmup calls so the per-thread
//! scratch arena and the prepared-LUT cache are populated, then arms
//! the counter and asserts that repeated `m = 1` decode calls perform
//! **zero** heap allocations — on the LUT gather tier
//! (`LutPolicy::Always`, packed planes + SWAR/AVX2 gather), on the
//! direct per-MAC tier (`LutPolicy::Never`), and on the W4A8
//! integer-activation tier (`ActPolicy::Always`, the call's Q8 codes,
//! scales and compensation sums in arena-recycled buffers) at m = 1, 8
//! and 64.
//!
//! Two dispatch regimes are covered:
//!
//! * **serial** (`threads = 1`) — how decode runs below the 32Ki-MAC
//!   parallel threshold;
//! * **sharded** (`threads = 4`, pooled) — the column-shard fan-out.
//!   The shard plan is pure arithmetic, the indexed pool dispatch
//!   installs one borrowed job pointer (no per-call queue), and each
//!   worker's LUT table comes back out of its own thread-local arena
//!   slot — so once the pool and every participant's arena are warm,
//!   multi-worker decode must also be allocation-free.
//!
//! The whole test binary is one `#[test]` so no other test can race
//! the global armed flag.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use axcore::engines::{ActPolicy, AxCoreEngine, GemmEngine, LutPolicy};
use axcore_parallel::{current_exec, with_exec, ExecConfig};
use axcore_quant::GroupQuantizer;
use axcore_softfloat::FP16;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with the counter armed and return how many allocations it made.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_decode_allocates_nothing() {
    let (k, n) = (512usize, 512usize);
    let w: Vec<f32> = (0..k * n)
        .map(|i| ((i as u64 * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.4)
        .collect();
    let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, k, n);
    let a: Vec<f32> = (0..k)
        .map(|i| (i as u64 * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();

    let engine = AxCoreEngine::new(FP16);
    let prepared = engine.prepare(&q);
    let mut out = vec![0f32; n];

    for policy in [LutPolicy::Always, LutPolicy::Never] {
        with_exec(ExecConfig { threads: 1, lut: policy, ..current_exec() }, || {
            // Warmup: populate the prepared-LUT cache and grow the
            // per-thread scratch arena to steady-state size.
            for _ in 0..3 {
                prepared.try_gemm(&a, 1, &mut out).expect("gemm");
            }
            let count = allocations_during(|| {
                for _ in 0..50 {
                    prepared.try_gemm(&a, 1, &mut out).expect("gemm");
                }
            });
            assert_eq!(
                count, 0,
                "steady-state decode under {policy:?} made {count} heap \
                 allocations across 50 calls; expected zero"
            );
        });
    }

    // Sharded decode: four pool workers, each owning a column shard with
    // its own arena-recycled LUT table. Warmup spawns the workers and
    // fills every participant's arena slot; stable slot→thread affinity
    // then keeps each worker reusing its own warm table, so the armed
    // window must see zero allocations from any thread.
    with_exec(ExecConfig { threads: 4, lut: LutPolicy::Always, ..current_exec() }, || {
        for _ in 0..3 {
            prepared.try_gemm(&a, 1, &mut out).expect("gemm");
        }
        let count = allocations_during(|| {
            for _ in 0..50 {
                prepared.try_gemm(&a, 1, &mut out).expect("gemm");
            }
        });
        assert_eq!(
            count, 0,
            "steady-state sharded decode at 4 workers made {count} heap \
             allocations across 50 calls; expected zero"
        );
    });

    // W4A8 integer-activation tier: the per-call Q8 quantization of every
    // row lands in arena-recycled buffers on the calling thread and the
    // column tiles keep their partial sums in registers, so once warm
    // the integer tier must be just as allocation-free as the LUT tiers —
    // at single-row decode (m = 1), stacked decode (m = 8) and a prefill
    // panel (m = 64), serially and across a 4-worker column-shard fan-out.
    let rows: Vec<f32> = (0..64 * k)
        .map(|i| (i as u64 * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    let mut out_rows = vec![0f32; 64 * n];
    for m in [1usize, 8, 64] {
        let (a, out) = (&rows[..m * k], &mut out_rows[..m * n]);
        for threads in [1usize, 4] {
            with_exec(ExecConfig { threads, act: ActPolicy::Always, ..current_exec() }, || {
                for _ in 0..3 {
                    prepared.try_gemm(a, m, out).expect("gemm");
                }
                let count = allocations_during(|| {
                    for _ in 0..50 {
                        prepared.try_gemm(a, m, out).expect("gemm");
                    }
                });
                assert_eq!(
                    count, 0,
                    "steady-state W4A8 at m = {m}, {threads} worker(s) made {count} \
                     heap allocations across 50 calls; expected zero"
                );
            });
        }
    }
}
