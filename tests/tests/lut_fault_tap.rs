//! The accumulator fault tap on the vector LUT rung.
//!
//! The vector kernel finishes group partials in its lanes, past
//! `NormUnit::normalize` and its accumulator tap. While a fault plan is
//! armed the rung must keep the scalar finish, so a planned accumulator
//! upset fires at the same event indices as on the SWAR rung. The tap
//! state is process-global, so this file holds one test.

use axcore::engines::{ActPolicy, AxCoreEngine, GemmEngine, LutPolicy};
use axcore::reliability::faults::{self, FaultPlan, TransientSite};
use axcore::VerifyPolicy;
use axcore_parallel::{health, with_exec, ExecConfig, Tier};
use axcore_quant::GroupQuantizer;
use axcore_softfloat::FP16;

#[test]
fn armed_accumulator_tap_fires_on_the_vector_lut_rung() {
    let (m, k, n, gs) = (3usize, 256usize, 48usize, 64usize);
    let w: Vec<f32> =
        (0..k * n).map(|i| ((i as u64 * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.4).collect();
    let q = GroupQuantizer::adaptive_fp4(gs, 4, None).quantize(&w, k, n);
    let a: Vec<f32> = (0..m * k).map(|i| (i as u64 * 48271 % 65521) as f32 / 32760.5 - 1.0).collect();
    let prepared = AxCoreEngine::new(FP16).prepare(&q);
    // One tap per (row, group, column) finish.
    let taps = (m * n * k / gs) as u64;
    let cfg = ExecConfig { threads: 1, lut: LutPolicy::Always, act: ActPolicy::Never, verify: VerifyPolicy::Off };
    let run = |out: &mut [f32]| with_exec(cfg, || prepared.try_gemm(&a, m, out).expect("gemm"));

    faults::disarm();
    health::reset();
    let mut clean = vec![0f32; m * n];
    let full = ExecConfig { verify: VerifyPolicy::Full, ..cfg };
    let ((), report) = health::capture_report(|| {
        with_exec(full, || prepared.try_gemm(&a, m, &mut clean).expect("gemm"))
    });
    let vector_tier = report.map(|r| r.tier);
    if axcore_simd::lut_body() != axcore_simd::LutBody::Scalar {
        assert_eq!(vector_tier, Some(Tier::Avx2Lut), "the vector rung must run");
    }

    // The vector rung, then the SWAR rung (the vector one quarantined):
    // the same events fire, and a fired upset reaches the output.
    for tier in [Tier::Avx2Lut, Tier::SwarLut] {
        if tier == Tier::SwarLut {
            health::quarantine(Tier::Avx2Lut);
        }
        for (event, should_fire) in [(0, true), (taps / 2, true), (taps - 1, true), (taps, false)] {
            faults::arm(FaultPlan { site: TransientSite::Accumulator, event, bit: 40 });
            let mut out = vec![0f32; m * n];
            run(&mut out);
            let fired = faults::disarm();
            assert_eq!(fired, should_fire, "{tier:?}: event {event} of {taps} taps");
            let changed = out.iter().zip(&clean).any(|(o, c)| o.to_bits() != c.to_bits());
            assert_eq!(changed, should_fire, "{tier:?}: event {event} output changed = {changed}");
        }
    }
    health::reset();
}
