//! Extension experiment (the paper's §7 future work): MX-style
//! shared-microexponent blocks vs the baseline FP16-scaled groups —
//! storage, reconstruction error, end-to-end GEMM SNR, and the AxScale
//! simplification (power-of-two scales make the dequantization exact with
//! no compensation).

use axcore::engines::{reference_gemm, AxCoreEngine, GemmEngine};
use axcore_bench::report::{f, Table};
use axcore_fpma::error::snr_db;
use axcore_quant::mx::MxQuantizer;
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::FP16;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(31337);
    let (m, k, n) = (16usize, 256usize, 32usize);
    let w: Vec<f32> = (0..k * n)
        .map(|_| {
            (0..6).map(|_| rng.random_range(-0.5..0.5f32)).sum::<f32>() * 0.25
        })
        .collect();
    let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0f32)).collect();
    let mut reference = vec![0f64; m * n];
    reference_gemm(&a, m, &w, k, n, &mut reference);

    let engine = AxCoreEngine::new(FP16);
    let snr_of = |q: &axcore_quant::QuantizedMatrix| {
        let mut out = vec![0f32; m * n];
        engine.try_gemm(&a, m, q, &mut out).expect("gemm");
        let o: Vec<f64> = out.iter().map(|&x| x as f64).collect();
        snr_db(&reference, &o)
    };

    let mut t = Table::new(
        "Extension: MX shared-microexponent blocks vs FP16-scaled groups (AxCore engine)",
        &["scheme", "bits/weight", "weight MSE", "GEMM SNR dB", "AxScale needs C2?"],
    );
    for (name, q, bits) in [
        (
            "groups/32 + FP16 scales",
            GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n),
            None,
        ),
        (
            "MXFP4 (blocks/32, 8-bit shared exp)",
            MxQuantizer::mxfp4().quantize(&w, k, n),
            Some(MxQuantizer::mxfp4().storage_bits(k, n)),
        ),
        (
            "MX E1M2 (blocks/16)",
            MxQuantizer::new(QuantFormat::E1M2, 16).quantize(&w, k, n),
            Some(MxQuantizer::new(QuantFormat::E1M2, 16).storage_bits(k, n)),
        ),
    ] {
        let total_bits = bits.unwrap_or_else(|| q.storage_bits());
        t.row(vec![
            name.to_string(),
            f(total_bits as f64 / (k * n) as f64, 3),
            format!("{:.3e}", q.mse(&w)),
            f(snr_of(&q), 2),
            if axcore_quant::mx::scales_are_power_of_two(&q) {
                "no (exact)".into()
            } else {
                "yes".into()
            },
        ]);
    }
    t.emit("extension_mx");
    println!(
        "shape: MX trades a little SNR (coarser power-of-two scales) for smaller scale\n\
         storage and an exactly-dequantizing AxScale with no compensation constant."
    );
}
