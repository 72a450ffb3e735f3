//! Quickstart: quantize a weight matrix with AxCore's adaptive
//! format-aware quantizer, multiply it through the bit-accurate
//! multiplier-free datapath, and compare against exact arithmetic.
//!
//! Run with: `cargo run --release -p axcore --example quickstart`

use axcore::engines::{reference_gemm, AxCoreConfig, AxCoreEngine, ExactEngine, GemmEngine};
use axcore_fpma::error::snr_db;
use axcore_quant::GroupQuantizer;
use axcore_softfloat::FP16;

fn main() {
    // A Gaussian-ish weight matrix (sum of uniforms) and some activations.
    let (m, k, n) = (8usize, 256usize, 32usize);
    let weights: Vec<f32> = (0..k * n)
        .map(|i| {
            (0..6)
                .map(|j| (((i * 31 + j * 7919) * 2654435761) % 1000) as f32 / 1000.0 - 0.5)
                .sum::<f32>()
                * 0.2
        })
        .collect();
    let acts: Vec<f32> = (0..m * k)
        .map(|i| ((i * 48271 % 65521) as f32 / 32760.5 - 1.0) * 1.5)
        .collect();

    // 1. Weight-only quantization: 4-bit FP codes, FP16 group scales,
    //    per-block adaptive format selection (E3M0 / E2M1 / E1M2).
    let quantizer = GroupQuantizer::adaptive_fp4(64, 16, None);
    let q = quantizer.quantize(&weights, k, n);
    println!(
        "quantized {}x{} weights: {} bits total ({:.2} bits/weight incl. scales)",
        k,
        n,
        q.storage_bits(),
        q.storage_bits() as f64 / (k * n) as f64
    );
    let formats: Vec<String> = q.formats.iter().take(8).map(|f| f.name()).collect();
    println!("first blocks selected: {}", formats.join(", "));

    // 2. Multiply through AxCore: no multipliers, only integer adds —
    //    SNC, correction advancing, deferred normalization, AxScale.
    let axcore = AxCoreEngine::new(FP16);
    let mut out_ax = vec![0f32; m * n];
    axcore.try_gemm(&acts, m, &q, &mut out_ax).expect("gemm");

    // 3. Compare against an exact FP16 core on the same quantized weights,
    //    and against the f64 reference.
    let exact = ExactEngine::new(FP16);
    let mut out_exact = vec![0f32; m * n];
    exact.try_gemm(&acts, m, &q, &mut out_exact).expect("gemm");

    let wq = q.dequant_all();
    let mut reference = vec![0f64; m * n];
    reference_gemm(&acts, m, &wq, k, n, &mut reference);
    let ax64: Vec<f64> = out_ax.iter().map(|&x| x as f64).collect();
    let ex64: Vec<f64> = out_exact.iter().map(|&x| x as f64).collect();

    println!("\nfirst output row:");
    for j in 0..6 {
        println!(
            "  reference {:+9.4}   exact-FP16 {:+9.4}   AxCore {:+9.4}",
            reference[j], out_exact[j], out_ax[j]
        );
    }
    println!(
        "\nSNR vs f64 reference: exact core {:5.1} dB | AxCore {:5.1} dB",
        snr_db(&reference, &ex64),
        snr_db(&reference, &ax64),
    );

    // 4. The ablation ladder in one line each.
    println!("\nablation ladder (same weights, SNR dB):");
    for (name, cfg) in [
        ("mpFPMA (no SNC, no comp)", AxCoreConfig::mp_fpma_base()),
        ("mpFPMA+S", AxCoreConfig::with_snc_only()),
        ("mpFPMA+S+C (AxCore)", AxCoreConfig::default()),
    ] {
        let e = AxCoreEngine::with_config(FP16, cfg);
        let mut out = vec![0f32; m * n];
        e.try_gemm(&acts, m, &q, &mut out).expect("gemm");
        let o64: Vec<f64> = out.iter().map(|&x| x as f64).collect();
        println!("  {name:28} {:5.1} dB", snr_db(&reference, &o64));
    }
}
