//! The W4A8 tier quantizes each activation row once per call
//! (DESIGN.md §10): the kmetrics row counter advances by exactly `m`
//! per call at 1 and 4 workers, so no column shard re-quantizes a row.
//! The tile kernel's bit-exactness against the per-column path it
//! replaced is a proptest in `crates/core/src/engines/w4a8.rs`.

use axcore::engines::{ActPolicy, AxCoreEngine, GemmEngine};
use axcore_parallel::{current_exec, with_exec, ExecConfig};
use axcore_quant::GroupQuantizer;
use axcore_softfloat::FP16;

fn values(seed: u64, len: usize, scale: f32) -> Vec<f32> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
        })
        .collect()
}

/// Each call quantizes each activation row exactly once, at any worker
/// count: the column shards share the call's Q8 buffers instead of
/// re-quantizing their row panels tile by tile.
#[test]
fn each_row_is_quantized_once_per_call() {
    let (k, n) = (256usize, 512usize);
    let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&values(3, k * n, 0.4), k, n);
    let prepared = AxCoreEngine::new(FP16).prepare(&q);
    for m in [1usize, 8, 64] {
        let a = values(m as u64, m * k, 1.0);
        let mut out = vec![0f32; m * n];
        for workers in [1usize, 4] {
            let ((), t) = axcore::kmetrics::with_kernel_timing(|| {
                let cfg = ExecConfig { threads: workers, act: ActPolicy::Always, ..current_exec() };
                with_exec(cfg, || {
                    for _ in 0..3 {
                        prepared.try_gemm(&a, m, &mut out).expect("gemm");
                    }
                });
            });
            assert_eq!(
                t.act_quant_rows,
                3 * m as u64,
                "3 calls at m = {m}, {workers} workers quantized {} rows",
                t.act_quant_rows
            );
        }
    }
}
