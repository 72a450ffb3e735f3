//! Fig. 18 — signal-to-noise ratio (dB) of the AxCore datapath against
//! exact matrix multiplication, across fan-in sizes 128–32768 with
//! uniformly-distributed inputs, for the ablation ladder:
//! mpFPMA / +S / +S(−SR)+C / +S+C.

use axcore::engines::{AxCoreConfig, AxCoreEngine, GemmEngine};
use axcore_bench::report::{f, Table};
use axcore_fpma::error::snr_db;
use axcore_quant::{GroupQuantizer, QuantFormat};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);
    let n = 8usize;
    let m = 8usize;
    let mut t = Table::new(
        "Figure 18: SNR (dB) vs fan-in, uniform inputs, E1M2 weights, FP16 activations",
        &["fan-in", "mpFPMA", "mpFPMA+S", "mpFPMA+S(-SR)+C", "mpFPMA+S+C"],
    );
    for k in [128usize, 512, 2048, 8192, 32_768] {
        // Uniform data as in the paper's SNR experiment.
        let w: Vec<f32> = (0..k * n).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let q = GroupQuantizer::fixed(QuantFormat::E1M2, 64).quantize(&w, k, n);
        let wq = q.dequant_all();
        let mut exact = vec![0f64; m * n];
        axcore::engines::reference_gemm(&a, m, &wq, k, n, &mut exact);
        let snr_of = |cfg: AxCoreConfig| {
            let mut out = vec![0f32; m * n];
            AxCoreEngine::with_config(axcore_softfloat::FP16, cfg).try_gemm(&a, m, &q, &mut out).expect("gemm");
            let approx: Vec<f64> = out.iter().map(|&x| x as f64).collect();
            snr_db(&exact, &approx)
        };
        t.row(vec![
            k.to_string(),
            f(snr_of(AxCoreConfig::mp_fpma_base()), 2),
            f(snr_of(AxCoreConfig::with_snc_only()), 2),
            f(snr_of(AxCoreConfig::without_stochastic_rounding()), 2),
            f(snr_of(AxCoreConfig::default()), 2),
        ]);
    }
    t.emit("fig18_snr");

    // E2M1 control: its subnormals convert exactly, so stochastic rounding
    // is a no-op (paper: "ineffective for E2M1").
    let mut c = Table::new(
        "Fig. 18 control: E2M1 (exact subnormal mapping → SR has no effect)",
        &["fan-in", "mpFPMA+S(-SR)+C", "mpFPMA+S+C"],
    );
    for k in [512usize, 8192] {
        let w: Vec<f32> = (0..k * n).map(|_| rng.random_range(0.0..1.0f32)).collect();
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(0.0..1.0f32)).collect();
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 64).quantize(&w, k, n);
        let wq = q.dequant_all();
        let mut exact = vec![0f64; m * n];
        axcore::engines::reference_gemm(&a, m, &wq, k, n, &mut exact);
        let snr_of = |cfg: AxCoreConfig| {
            let mut out = vec![0f32; m * n];
            AxCoreEngine::with_config(axcore_softfloat::FP16, cfg).try_gemm(&a, m, &q, &mut out).expect("gemm");
            let approx: Vec<f64> = out.iter().map(|&x| x as f64).collect();
            snr_db(&exact, &approx)
        };
        c.row(vec![
            k.to_string(),
            f(snr_of(AxCoreConfig::without_stochastic_rounding()), 2),
            f(snr_of(AxCoreConfig::default()), 2),
        ]);
    }
    c.emit("fig18_snr_e2m1_control");
    println!(
        "paper shape: SNC raises SNR at every size; compensation adds a further gain;\n\
         stochastic rounding gives a modest extra improvement except on E2M1."
    );
}
