//! Acceptance tests for the reliability layer: forced tier-state
//! corruption must degrade gracefully (AVX2-LUT → SWAR-LUT → direct, or
//! a pristine-state recovery), the final output must stay bit-identical
//! to a fault-free run, and the downgrade must be recorded in the
//! published [`ExecReport`].
//!
//! Tier quarantine and the downgrade counter are process-global, so
//! every test here serializes on one mutex and resets health state on
//! both sides.

use axcore::engines::{
    AxCoreEngine, ExactEngine, FiglutEngine, FignaEngine, FpmaEngine, GemmEngine, LutPolicy,
    TenderEngine,
};
use axcore::VerifyPolicy;
use axcore_faults::{run_campaign, CampaignConfig};
use axcore_parallel::{current_exec, health, with_exec, ExecConfig, ExecReport, FailReason, Tier};
use axcore_quant::{GroupQuantizer, QuantFormat};
use axcore_softfloat::FP16;
use std::sync::{Mutex, MutexGuard, PoisonError};

static HEALTH_LOCK: Mutex<()> = Mutex::new(());

/// Serialize the test and start from clean global health state.
fn health_guard() -> MutexGuard<'static, ()> {
    let g = HEALTH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    health::reset();
    let _ = health::take_report();
    g
}

const M: usize = 4;
const K: usize = 64;
const N: usize = 32;

/// A packed-plane adaptive-FP4 matrix (the layout with a real LUT
/// ladder) plus activations.
fn setup(seed: u64) -> (Vec<f32>, axcore_quant::QuantizedMatrix) {
    let w: Vec<f32> = (0..K * N)
        .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.4)
        .collect();
    let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, K, N);
    let a: Vec<f32> = (0..M * K)
        .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    (a, q)
}

/// Run one prepared GEMM serially under the given pins; returns the
/// published report (if any).
fn run_full(
    p: &dyn axcore::engines::PreparedGemm,
    a: &[f32],
    out: &mut [f32],
    policy: LutPolicy,
) -> Option<ExecReport> {
    let _ = health::take_report();
    with_exec(pinned(1, policy, VerifyPolicy::Full), || p.try_gemm(a, M, out).expect("gemm"));
    health::take_report()
}

/// The current execution config with `threads`, `lut` and `verify`
/// pinned.
fn pinned(threads: usize, lut: LutPolicy, verify: VerifyPolicy) -> ExecConfig {
    ExecConfig { threads, lut, verify, ..current_exec() }
}

/// Forced LUT-region corruption at `Full`: every LUT rung fails its
/// integrity pre-check, the ladder walks down to the pristine direct
/// tier, the output is bit-identical, and the walk is recorded.
#[test]
fn corrupted_lut_state_degrades_to_direct_with_report() {
    let _g = health_guard();
    let (a, q) = setup(5);
    let engine = AxCoreEngine::new(FP16);

    let pristine = engine.prepare(&q);
    let mut reference = vec![0f32; M * N];
    let serial = ExecConfig { threads: 1, lut: LutPolicy::Always, ..current_exec() };
    with_exec(serial, || pristine.try_gemm(&a, M, &mut reference).expect("gemm"));

    let mut p = engine.prepare(&q);
    assert!(p.inject_fault("planes", 3, 5));
    let mut out = vec![f32::NAN; M * N];
    let report = run_full(p.as_ref(), &a, &mut out, LutPolicy::Always)
        .expect("degraded call must publish a report");

    assert_eq!(report.tier, Tier::Direct, "must land on the direct tier");
    assert!(report.n_downgrades() >= 1, "downgrade walk must be recorded");
    assert!(!report.recovered, "direct tier state is pristine; no recovery needed");
    for d in report.downgrades() {
        assert_eq!(d.reason, FailReason::ChecksumMismatch, "{d:?}");
        assert_ne!(d.from, Tier::Direct, "only LUT rungs may fail here");
    }
    for (j, (r, o)) in reference.iter().zip(&out).enumerate() {
        assert_eq!(r.to_bits(), o.to_bits(), "elem {j}: {r} != {o}");
    }

    // The failing tiers are quarantined: the next call skips them
    // silently (no new downgrade walk) and stays correct.
    assert!(
        health::is_quarantined(Tier::SwarLut),
        "corrupt LUT tier must be quarantined"
    );
    let mut again = vec![f32::NAN; M * N];
    let report2 = run_full(p.as_ref(), &a, &mut again, LutPolicy::Always);
    assert_eq!(report2.map(|r| r.n_downgrades()), Some(0), "quarantined rungs are skipped");
    for (r, o) in reference.iter().zip(&again) {
        assert_eq!(r.to_bits(), o.to_bits());
    }
    health::reset();
}

/// Forced direct-tier corruption with the LUT tiers pinned off, on
/// every engine through its direct-state fault site: the ladder exhausts
/// and the call recovers by re-preparing from the pristine quantized
/// matrix — still bit-identical, `recovered` set, answered on `Direct`.
#[test]
fn corrupted_direct_lanes_recover_from_pristine() {
    let _g = health_guard();
    let (a, fp_q) = setup(9);
    let w: Vec<f32> = (0..K * N).map(|i| ((i * 37 % 101) as f32 / 50.0 - 1.0) * 0.3).collect();
    let int_q = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&w, K, N);
    let cases: [(Box<dyn GemmEngine>, &str, &axcore_quant::QuantizedMatrix); 6] = [
        (Box::new(AxCoreEngine::new(FP16)), "lanes", &fp_q),
        (Box::new(FpmaEngine::new(FP16)), "weights", &fp_q),
        (Box::new(ExactEngine::new(FP16)), "weights", &fp_q),
        (Box::new(FignaEngine::new(FP16)), "dec", &int_q),
        (Box::new(FiglutEngine::new(FP16)), "dec", &int_q),
        (Box::new(TenderEngine::new(8, 4)), "dec", &int_q),
    ];
    for (engine, site, q) in cases {
        let name = engine.name();
        health::reset();
        let pristine = engine.prepare(q);
        let mut reference = vec![0f32; M * N];
        let serial = ExecConfig { threads: 1, lut: LutPolicy::Never, ..current_exec() };
        with_exec(serial, || pristine.try_gemm(&a, M, &mut reference).expect("gemm"));

        let mut p = engine.prepare(q);
        assert!(p.inject_fault(site, 7, 13), "{name}: no {site} site");
        let mut out = vec![f32::NAN; M * N];
        let report = run_full(p.as_ref(), &a, &mut out, LutPolicy::Never)
            .unwrap_or_else(|| panic!("{name}: recovered call must publish a report"));

        assert!(report.recovered, "{name}: must re-execute from pristine state");
        assert_eq!(report.tier, Tier::Direct, "{name}");
        assert!(report.n_downgrades() >= 1, "{name}");
        for (j, (r, o)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(r.to_bits(), o.to_bits(), "{name} elem {j}: {r} != {o}");
        }
    }
    health::reset();
}

/// After a degraded call, the worker pool itself stays reusable: a
/// clean multi-threaded GEMM on fresh prepared state still matches the
/// serial reference bit-for-bit.
#[test]
fn pool_stays_usable_after_degradation() {
    let _g = health_guard();
    let (a, q) = setup(13);
    let engine = AxCoreEngine::new(FP16);

    let mut p = engine.prepare(&q);
    assert!(p.inject_fault("planes", 1, 2));
    let mut out = vec![f32::NAN; M * N];
    with_exec(pinned(4, LutPolicy::Always, VerifyPolicy::Full), || {
        p.try_gemm(&a, M, &mut out).expect("gemm")
    });
    health::reset();
    let _ = health::take_report();

    let clean = engine.prepare(&q);
    let mut serial = vec![0f32; M * N];
    axcore_parallel::with_threads(1, || clean.try_gemm(&a, M, &mut serial).expect("gemm"));
    let mut pooled = vec![f32::NAN; M * N];
    axcore_parallel::with_threads(4, || clean.try_gemm(&a, M, &mut pooled).expect("gemm"));
    for (j, (s, o)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(s.to_bits(), o.to_bits(), "elem {j} after degradation");
    }
    health::reset();
}

/// The reduced campaign sweep (the CI smoke gate): every injected
/// single-bit fault in a checksummed region, across all six engines,
/// must be detected-and-corrected or provably masked under `Full`.
#[test]
fn smoke_campaign_gate_holds() {
    let _g = health_guard();
    let report = run_campaign(&CampaignConfig::smoke(3));
    report.check().unwrap_or_else(|e| panic!("campaign gate failed: {e}"));
    assert!(report.at_rest_totals().injections > 0);
    health::reset();
}
