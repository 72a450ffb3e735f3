//! Serving-runtime benchmark: the deadline-aware runtime under nominal
//! load, sustained overload, and post-overload recovery.
//!
//! Three phases against one `axcore-serve` server over a small quantized
//! proxy model:
//!
//! * **nominal** — closed-loop sequential requests (one in flight).
//!   Nothing should shed and p99 must sit far under the deadline; this
//!   also calibrates the sustainable per-request service time.
//! * **overload** — several submitter threads blast roughly 4× the
//!   sustainable rate at a bounded queue. The runtime must answer every
//!   ticket (served, deadline-missed, or typed shed — never a hang), the
//!   queue must stay within its configured bound, and the overload
//!   controller is expected to escalate.
//! * **recovery** — load stops; the controller must walk the degradation
//!   ladder back to nominal (hysteretic restore) and a final burst of
//!   sequential requests must all complete bit-exactly.
//! * **mixed_budget** — requests with budgets 4–64 interleaved, all in
//!   flight at once. The continuous batcher decodes them as one ragged
//!   batch over the paged KV arena; throughput (generated tokens/s) is
//!   compared against an in-process **serial re-forward baseline**: the
//!   same cohort through `try_generate`, one request at a time, each
//!   token re-forwarding the full prefix — the per-sequence forwards a
//!   lockstep batcher issues (reported as `lockstep_tokens_per_s`). Also
//!   reports the KV page high-water, which the token-in-flight admission
//!   cap — not queue depth — must bound.
//!
//! Two idle-machine micro phases follow: KV checksum-verification
//! overhead (`Sample(16)` vs `Off`) and KV parity economics — the XOR
//! parity maintenance overhead on the mixed-budget cohort plus a
//! repair-latency comparison (in-place page reconstruction vs
//! reset-and-re-prefill recompute for a 64-token prefix).
//!
//! Results land in `BENCH_serve.json`. With `AXCORE_BENCH_STRICT=1` the
//! binary exits non-zero if any phase invariant fails (the CI gate):
//! nominal sheds nothing and stays under deadline, overload sheds with
//! types instead of collapsing, recovery restores level 0 and serves,
//! mixed-budget throughput beats the serial baseline ≥1.5x with zero
//! shed and a bounded page arena, parity maintenance stays under 5%, and
//! reconstruction repairs are faster than recompute repairs.

use axcore::reliability::VerifyPolicy;
use axcore_nn::eval::{quantize_model, QuantizedLm, Scheme};
use axcore_nn::generate::{try_generate, Decoding};
use axcore_nn::kvcache::{KvPageConfig, DEFAULT_KV_PARITY};
use axcore_nn::layers::ActKind;
use axcore_nn::model::{LmConfig, TransformerLm};
use axcore_nn::scheduler::DecodeScheduler;
use axcore_serve::{ServeConfig, ServeError, Server, SubmitError};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOMINAL_REQUESTS: usize = 24;
const OVERLOAD_SUBMITTERS: usize = 4;
const OVERLOAD_PER_THREAD: usize = 48;
const RECOVERY_REQUESTS: usize = 8;
const NEW_TOKENS: usize = 4;
/// Mixed-budget phase: token budgets interleaved round-robin, this many
/// requests per budget class.
const MIXED_BUDGETS: [usize; 5] = [4, 8, 16, 32, 64];
const MIXED_PER_BUDGET: usize = 4;

fn proxy_qlm() -> Arc<QuantizedLm> {
    let cfg = LmConfig {
        vocab: 32,
        d_model: 32,
        n_layers: 2,
        n_heads: 2,
        d_ff: 64,
        max_seq: 80,
        act: ActKind::Relu,
    };
    let model = TransformerLm::new(cfg, 23);
    Arc::new(quantize_model(&model, Scheme::AxCore, 8, None))
}

fn prompt_for(i: usize) -> Vec<usize> {
    vec![1 + (i % 29), 2 + (i % 7), 3]
}

struct Phase {
    name: &'static str,
    submitted: u64,
    completed: u64,
    shed: u64,
    deadline_missed: u64,
    errors: u64,
    p50_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
    seconds: f64,
}

impl Phase {
    fn json(&self) -> String {
        format!(
            "{{ \"submitted\": {}, \"completed\": {}, \"shed\": {}, \"deadline_missed\": {}, \"errors\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"throughput_rps\": {:.1}, \"seconds\": {:.3} }}",
            self.submitted,
            self.completed,
            self.shed,
            self.deadline_missed,
            self.errors,
            self.p50_ms,
            self.p99_ms,
            self.throughput_rps,
            self.seconds
        )
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// KV checksum-verification overhead: the same continuous-batch decode
/// cohort runs with arena verification pinned `Off` and `Sample(16)`
/// (the production sampling cadence), interleaved best-of-3, on the
/// otherwise idle machine. Returns the sampled-over-off overhead in
/// percent and the pages verified by one sampled run.
fn kv_verify_overhead(qlm: &QuantizedLm) -> (f64, u64) {
    let run = |verify: VerifyPolicy| -> (f64, u64) {
        let kv = KvPageConfig { verify: Some(verify), ..KvPageConfig::default() };
        let mut sched = DecodeScheduler::new(qlm, Decoding::Greedy, kv);
        for i in 0..6 {
            sched.admit(&prompt_for(3000 + i), 32).expect("kv-verify admit");
        }
        let t = Instant::now();
        while sched.live() > 0 {
            sched.step(|_| true);
        }
        (t.elapsed().as_secs_f64(), sched.kv_pages_verified())
    };
    run(VerifyPolicy::Off); // warm caches and the page slab
    let (mut best_off, mut best_sample, mut verified) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..3 {
        best_off = best_off.min(run(VerifyPolicy::Off).0);
        let (s, v) = run(VerifyPolicy::Sample(16));
        best_sample = best_sample.min(s);
        verified = v;
    }
    ((best_sample / best_off.max(1e-9) - 1.0) * 100.0, verified)
}

/// Parity maintenance overhead: a mixed-budget cohort decodes with
/// parity groups off vs the default group size, with verification `Off`
/// and the scrubber disabled so the incremental XOR fold at page
/// seal/free time is the *only* difference between the runs.
/// Returns the median over [`PARITY_PAIRS`] interleaved (off, on) pairs
/// of the per-pair on/off time ratio, as an overhead in percent: one
/// jittery run moves one ratio, not the result, which a best-of-N
/// minimum per side would let it decide.
fn kv_parity_overhead(qlm: &QuantizedLm) -> f64 {
    let run = |parity: Option<usize>| -> f64 {
        let kv = KvPageConfig {
            verify: Some(VerifyPolicy::Off),
            parity,
            scrub: 0,
            ..KvPageConfig::default()
        };
        let mut sched = DecodeScheduler::new(qlm, Decoding::Greedy, kv);
        for (i, &budget) in MIXED_BUDGETS.iter().enumerate() {
            sched.admit(&prompt_for(4000 + i), budget).expect("parity admit");
        }
        let t = Instant::now();
        while sched.live() > 0 {
            sched.step(|_| true);
        }
        t.elapsed().as_secs_f64()
    };
    run(None); // warm
    let mut ratios: Vec<f64> = (0..PARITY_PAIRS)
        .map(|i| {
            // Alternate which side of the pair runs first, so a host
            // load that drifts during the phase favours neither side.
            let (off, on) = if i % 2 == 0 {
                let off = run(None);
                (off, run(Some(DEFAULT_KV_PARITY)))
            } else {
                let on = run(Some(DEFAULT_KV_PARITY));
                (run(None), on)
            };
            on / off.max(1e-9)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[PARITY_PAIRS / 2] - 1.0) * 100.0
}

/// Interleaved (parity off, parity on) pairs behind the parity
/// overhead median; odd, so the median is one pair's ratio.
const PARITY_PAIRS: usize = 15;

/// Repair-latency microbenchmark: a sequence with a 64-token committed
/// prefix (block 16 → four sealed pages in one parity group) takes one
/// sealed-page bit flip, and the decode runs to completion. With parity
/// on the arena reconstructs the one poisoned page in place; with
/// parity off the scheduler resets and re-prefills the whole prefix.
/// Both runs do the same residual decode work, so the wall-clock gap is
/// the repair cost. Best-of-3 each, interleaved. Returns
/// `(reconstruct_ms, recompute_ms, reconstructions, recompute_repairs)`.
fn kv_repair_latency(qlm: &QuantizedLm) -> (f64, f64, u64, u64) {
    let prompt: Vec<usize> = (0..64).map(|i| 1 + (i * 7) % 31).collect();
    let run = |parity: Option<usize>| -> (f64, u64, u64) {
        let kv = KvPageConfig {
            verify: Some(VerifyPolicy::Full),
            parity,
            scrub: 0,
            block: 16,
            ..KvPageConfig::default()
        };
        let mut sched = DecodeScheduler::new(qlm, Decoding::Greedy, kv);
        sched.admit(&prompt, 4).expect("repair admit");
        // First step prefills and commits the prompt: four sealed pages.
        sched.step(|_| true);
        assert!(
            sched.inject_kv_fault("kv-k-sealed", 5, 11),
            "committed sealed surface exists after prefill"
        );
        let t = Instant::now();
        while sched.live() > 0 {
            sched.step(|_| true);
        }
        (
            t.elapsed().as_secs_f64(),
            sched.kv_repairs_reconstructed(),
            sched.kv_repairs_recomputed(),
        )
    };
    run(Some(DEFAULT_KV_PARITY)); // warm
    let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
    let (mut reconstructions, mut recompute_repairs) = (0u64, 0u64);
    for _ in 0..3 {
        let (s, r, _) = run(Some(DEFAULT_KV_PARITY));
        best_on = best_on.min(s);
        reconstructions = r;
        let (s, _, r) = run(None);
        best_off = best_off.min(s);
        recompute_repairs = r;
    }
    (best_on * 1e3, best_off * 1e3, reconstructions, recompute_repairs)
}

fn main() {
    let qlm = proxy_qlm();
    let cfg = ServeConfig {
        queue_depth: 32,
        max_batch: 8,
        batch_window: Duration::from_millis(1),
        default_deadline: Duration::from_millis(2000),
        watchdog_interval: Duration::from_millis(5),
        hysteresis_ticks: 3,
        ..ServeConfig::default()
    };
    let deadline_ms = cfg.default_deadline.as_secs_f64() * 1e3;
    let tokens_cap = cfg.max_tokens_in_flight;
    let max_batch_cfg = cfg.max_batch;
    let server = Arc::new(Server::start(Arc::clone(&qlm), cfg));

    // ---- Phase 1: nominal (closed loop, one in flight) ----
    let mut lat = Vec::with_capacity(NOMINAL_REQUESTS);
    let t0 = Instant::now();
    let mut nominal_completed = 0u64;
    for i in 0..NOMINAL_REQUESTS {
        let p = prompt_for(i);
        let s = Instant::now();
        match server.submit(&p, NEW_TOKENS, None) {
            Ok(t) => match t.wait() {
                Ok(c) => {
                    lat.push(s.elapsed().as_secs_f64() * 1e3);
                    nominal_completed += 1;
                    // Bit-exactness spot check against the serial path.
                    let want = try_generate(&qlm, &p, NEW_TOKENS, Decoding::Greedy)
                        .expect("serial reference");
                    assert_eq!(c.tokens, want, "served output diverged from serial");
                }
                Err(e) => panic!("nominal request failed: {e}"),
            },
            Err(e) => panic!("nominal request rejected: {e}"),
        }
    }
    let nominal_secs = t0.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.total_cmp(b));
    let svc_ms = percentile(&lat, 0.5).max(0.1);
    let nominal = Phase {
        name: "nominal",
        submitted: NOMINAL_REQUESTS as u64,
        completed: nominal_completed,
        shed: 0,
        deadline_missed: 0,
        errors: 0,
        p50_ms: percentile(&lat, 0.5),
        p99_ms: percentile(&lat, 0.99),
        throughput_rps: nominal_completed as f64 / nominal_secs.max(1e-9),
        seconds: nominal_secs,
    };

    // ---- Phase 2: overload at ~4x the sustainable rate ----
    // The nominal phase put the single-stream service time at ~svc_ms,
    // i.e. a sustainable rate of 1/svc per stream. Four open-loop
    // submitters each pacing at svc_ms offer 4x that aggregate —
    // tickets are collected and redeemed only after the burst, so the
    // queue actually backs up instead of the submitters self-throttling.
    let pace = Duration::from_secs_f64((svc_ms / 1e3).max(0.0005));
    let shed = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let missed = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let wedged = Arc::new(AtomicU64::new(0));
    let over_lat = Arc::new(std::sync::Mutex::new(Vec::new()));
    let t1 = Instant::now();
    let mut handles = Vec::new();
    for th in 0..OVERLOAD_SUBMITTERS {
        let server = Arc::clone(&server);
        let (shed, completed, missed, errors, wedged, over_lat) = (
            Arc::clone(&shed),
            Arc::clone(&completed),
            Arc::clone(&missed),
            Arc::clone(&errors),
            Arc::clone(&wedged),
            Arc::clone(&over_lat),
        );
        handles.push(std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for i in 0..OVERLOAD_PER_THREAD {
                let p = prompt_for(th * OVERLOAD_PER_THREAD + i);
                match server.submit(&p, NEW_TOKENS, Some(Duration::from_millis(500))) {
                    Ok(t) => tickets.push((Instant::now(), t)),
                    Err(SubmitError::QueueFull { .. }) | Err(SubmitError::Overloaded { .. }) => {
                        shed.fetch_add(1, Relaxed);
                    }
                    Err(SubmitError::Draining) => break,
                }
                std::thread::sleep(pace);
            }
            for (s, t) in tickets {
                match t.wait() {
                    Ok(_) => {
                        completed.fetch_add(1, Relaxed);
                        if let Ok(mut v) = over_lat.lock() {
                            v.push(s.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    Err(ServeError::DeadlineExceeded) => {
                        missed.fetch_add(1, Relaxed);
                    }
                    Err(ServeError::Wedged) => {
                        wedged.fetch_add(1, Relaxed);
                    }
                    Err(_) => {
                        errors.fetch_add(1, Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("submitter thread never panics");
    }
    let overload_secs = t1.elapsed().as_secs_f64();
    let mut ol = over_lat.lock().map(|v| v.clone()).unwrap_or_default();
    ol.sort_by(|a, b| a.total_cmp(b));
    let overload = Phase {
        name: "overload",
        submitted: (OVERLOAD_SUBMITTERS * OVERLOAD_PER_THREAD) as u64,
        completed: completed.load(Relaxed),
        shed: shed.load(Relaxed),
        deadline_missed: missed.load(Relaxed),
        errors: errors.load(Relaxed) + wedged.load(Relaxed),
        p50_ms: percentile(&ol, 0.5),
        p99_ms: percentile(&ol, 0.99),
        throughput_rps: completed.load(Relaxed) as f64 / overload_secs.max(1e-9),
        seconds: overload_secs,
    };
    let level_after_overload = server.report().level;

    // ---- Phase 3: recovery (hysteretic restore, then serve again) ----
    let t2 = Instant::now();
    let restore_timeout = Duration::from_secs(10);
    while server.report().level > 0 && t2.elapsed() < restore_timeout {
        std::thread::sleep(Duration::from_millis(10));
    }
    let restored_level = server.report().level;
    let mut rec_lat = Vec::new();
    let mut rec_completed = 0u64;
    for i in 0..RECOVERY_REQUESTS {
        let p = prompt_for(1000 + i);
        let s = Instant::now();
        if let Ok(t) = server.submit(&p, NEW_TOKENS, None) {
            if t.wait().is_ok() {
                rec_completed += 1;
                rec_lat.push(s.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let recovery_secs = t2.elapsed().as_secs_f64();
    rec_lat.sort_by(|a, b| a.total_cmp(b));
    let recovery = Phase {
        name: "recovery",
        submitted: RECOVERY_REQUESTS as u64,
        completed: rec_completed,
        shed: 0,
        deadline_missed: 0,
        errors: 0,
        p50_ms: percentile(&rec_lat, 0.5),
        p99_ms: percentile(&rec_lat, 0.99),
        throughput_rps: rec_completed as f64 / recovery_secs.max(1e-9),
        seconds: recovery_secs,
    };

    // ---- Phase 4: mixed budgets through the continuous batcher ----
    // Budgets 4..=64 interleaved round-robin, all submitted up front.
    // The continuous batcher decodes the cohort as one ragged batch over
    // the paged arena (short sequences retire and free their pages while
    // long ones keep running; admission refills at token granularity).
    let mixed_total = MIXED_BUDGETS.len() * MIXED_PER_BUDGET;
    let mixed_prompt = |round: usize, bi: usize| prompt_for(2000 + round * MIXED_BUDGETS.len() + bi);
    let t3 = Instant::now();
    let mut mixed_tickets = Vec::with_capacity(mixed_total);
    for round in 0..MIXED_PER_BUDGET {
        for (bi, &budget) in MIXED_BUDGETS.iter().enumerate() {
            let p = mixed_prompt(round, bi);
            match server.submit(&p, budget, Some(Duration::from_secs(60))) {
                Ok(t) => mixed_tickets.push((p, budget, Instant::now(), t)),
                Err(e) => panic!("mixed-budget submit rejected: {e}"),
            }
        }
    }
    let mut mixed_lat = Vec::new();
    let mut mixed_completed = 0u64;
    let mut mixed_tokens = 0usize;
    let mut mixed_outputs = Vec::with_capacity(mixed_total);
    for (p, budget, s, t) in mixed_tickets {
        match t.wait() {
            Ok(c) => {
                mixed_completed += 1;
                mixed_tokens += c.generated;
                mixed_lat.push(s.elapsed().as_secs_f64() * 1e3);
                mixed_outputs.push((p, budget, c.tokens));
            }
            Err(e) => panic!("mixed-budget request failed: {e}"),
        }
    }
    let mixed_secs = t3.elapsed().as_secs_f64();
    mixed_lat.sort_by(|a, b| a.total_cmp(b));
    let mixed_tokens_per_s = mixed_tokens as f64 / mixed_secs.max(1e-9);

    // Serial re-forward baseline, which doubles as the bit-exactness
    // reference: the same cohort through `try_generate`, one request at
    // a time. Every token re-forwards the full prefix with no KV cache —
    // the same per-sequence forwards a lockstep batcher issues, so its
    // throughput is the pre-continuous architecture's.
    let t4 = Instant::now();
    let serial: Vec<Vec<usize>> = mixed_outputs
        .iter()
        .map(|(p, budget, _)| {
            try_generate(&qlm, p, *budget, Decoding::Greedy).expect("serial reference")
        })
        .collect();
    let serial_secs = t4.elapsed().as_secs_f64();
    let mut serial_tokens = 0usize;
    for ((p, _, tokens), want) in mixed_outputs.iter().zip(&serial) {
        assert_eq!(tokens, want, "mixed-budget output diverged from serial");
        serial_tokens += want.len() - p.len();
    }
    let serial_tokens_per_s = serial_tokens as f64 / serial_secs.max(1e-9);
    let mixed_speedup = mixed_tokens_per_s / serial_tokens_per_s.max(1e-9);

    let server = Arc::try_unwrap(server).expect("all submitter threads joined");
    let report = server.shutdown();

    // ---- Phase 5: KV verification overhead, on the now-idle machine ----
    let (kv_verify_overhead_pct, kv_sample_pages_verified) = kv_verify_overhead(&qlm);

    // ---- Phase 6: parity maintenance overhead + repair latency ----
    let kv_parity_overhead_pct = kv_parity_overhead(&qlm);
    let (repair_reconstruct_ms, repair_recompute_ms, repair_reconstructions, repair_recomputes) =
        kv_repair_latency(&qlm);

    let mut json = String::from("{\n");
    for p in [&nominal, &overload, &recovery] {
        json.push_str(&format!("  \"{}\": {},\n", p.name, p.json()));
    }
    json.push_str(&format!(
        "  \"mixed_budget\": {{ \"submitted\": {}, \"completed\": {}, \"tokens\": {}, \"seconds\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"tokens_per_s\": {:.1}, \"lockstep_tokens_per_s\": {:.1}, \"speedup\": {:.3}, \"kv_pages_peak\": {}, \"kv_block\": {}, \"tokens_in_flight_peak\": {}, \"evictions\": {} }},\n",
        mixed_total,
        mixed_completed,
        mixed_tokens,
        mixed_secs,
        percentile(&mixed_lat, 0.5),
        percentile(&mixed_lat, 0.99),
        mixed_tokens_per_s,
        serial_tokens_per_s,
        mixed_speedup,
        report.kv_pages_peak,
        report.kv_block,
        report.tokens_in_flight_peak,
        report.evictions
    ));
    json.push_str(&format!(
        "  \"kv_integrity\": {{ \"kv_verify_overhead_pct\": {:.2}, \"sample_pages_verified\": {}, \"kv_pages_verified\": {}, \"kv_corruptions_detected\": {}, \"kv_repairs_reconstructed\": {}, \"kv_repairs_recomputed\": {}, \"kv_pages_scrubbed\": {}, \"kv_scrub_repairs\": {}, \"kv_capacity_stalls\": {} }},\n",
        kv_verify_overhead_pct,
        kv_sample_pages_verified,
        report.kv_pages_verified,
        report.kv_corruptions_detected,
        report.kv_repairs_reconstructed,
        report.kv_repairs_recomputed,
        report.kv_pages_scrubbed,
        report.kv_scrub_repairs,
        report.kv_capacity_stalls
    ));
    json.push_str(&format!(
        "  \"kv_parity\": {{ \"kv_parity_overhead_pct\": {:.2}, \"repair_reconstruct_ms\": {:.3}, \"repair_recompute_ms\": {:.3}, \"repair_reconstructions\": {}, \"repair_recompute_fallbacks\": {} }},\n",
        kv_parity_overhead_pct,
        repair_reconstruct_ms,
        repair_recompute_ms,
        repair_reconstructions,
        repair_recomputes
    ));
    json.push_str(&format!(
        "  \"controller\": {{ \"escalations\": {}, \"restores\": {}, \"peak_level\": {}, \"level_at_overload_end\": {}, \"final_level\": {}, \"restored_level_after_overload\": {} }},\n",
        report.escalations,
        report.restores,
        report.peak_level,
        level_after_overload,
        report.level,
        restored_level
    ));
    json.push_str(&format!(
        "  \"queue\": {{ \"depth\": 32, \"max_observed\": {} }},\n",
        report.max_queue_depth
    ));
    let threads_env = std::env::var("AXCORE_THREADS")
        .map(|v| format!("\"{v}\""))
        .unwrap_or_else(|_| "null".into());
    json.push_str(&format!(
        "  \"hardware\": {{ \"available_parallelism\": {}, \"axcore_threads_env\": {}, \"gemm_threads\": {} }},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        threads_env,
        report.gemm_threads
    ));
    json.push_str(&format!(
        "  \"totals\": {{ \"submitted\": {}, \"completed\": {}, \"shed_rate\": {:.4}, \"mean_batch\": {:.2}, \"batches\": {}, \"pool_restarts\": {}, \"incidents\": {} }}\n",
        report.submitted,
        report.completed,
        report.shed_rate(),
        report.mean_batch,
        report.batches,
        report.pool_restarts,
        report.incidents.len()
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    print!("{json}");
    println!(
        "nominal p50 {:.1} ms / p99 {:.1} ms; overload shed {} of {} (level peaked {}); recovery level {} with {}/{} served",
        nominal.p50_ms,
        nominal.p99_ms,
        overload.shed,
        overload.submitted,
        report.peak_level,
        restored_level,
        rec_completed,
        RECOVERY_REQUESTS
    );
    println!(
        "mixed budgets 4-64: {mixed_tokens} tokens in {mixed_secs:.2} s ({mixed_tokens_per_s:.0} tok/s) vs serial re-forward {serial_tokens_per_s:.0} tok/s = {mixed_speedup:.2}x; kv pages peak {} x block {} (tokens peak {})",
        report.kv_pages_peak, report.kv_block, report.tokens_in_flight_peak
    );
    println!(
        "kv verification: Sample(16) overhead {kv_verify_overhead_pct:.2}% over Off ({kv_sample_pages_verified} pages verified per sampled run)"
    );
    println!(
        "kv parity: maintenance overhead {kv_parity_overhead_pct:.2}% over parity-off; repair latency {repair_reconstruct_ms:.2} ms reconstruct vs {repair_recompute_ms:.2} ms recompute (64-token prefix)"
    );

    if std::env::var("AXCORE_BENCH_STRICT").as_deref() == Ok("1") {
        let fail = |msg: String| {
            eprintln!("FAIL: {msg}");
            std::process::exit(1);
        };
        if nominal.completed != nominal.submitted {
            fail(format!(
                "nominal phase dropped requests: {}/{}",
                nominal.completed, nominal.submitted
            ));
        }
        if nominal.p99_ms >= deadline_ms {
            fail(format!(
                "nominal p99 {:.1} ms not under the {deadline_ms:.0} ms deadline",
                nominal.p99_ms
            ));
        }
        let answered = overload.completed + overload.shed + overload.deadline_missed + overload.errors;
        if answered != overload.submitted {
            fail(format!(
                "overload phase lost tickets: {answered} answered of {} offered",
                overload.submitted
            ));
        }
        if overload.shed + overload.deadline_missed == 0 {
            fail("overload phase shed nothing at 4x load — backpressure not engaging".into());
        }
        if report.max_queue_depth > 32 {
            fail(format!(
                "queue exceeded its bound: {} > 32",
                report.max_queue_depth
            ));
        }
        if restored_level != 0 {
            fail(format!(
                "controller stuck at level {restored_level} after overload cleared"
            ));
        }
        if rec_completed != RECOVERY_REQUESTS as u64 {
            fail(format!(
                "recovery phase failed requests: {rec_completed}/{RECOVERY_REQUESTS}"
            ));
        }
        if mixed_completed != mixed_total as u64 {
            fail(format!(
                "mixed-budget phase shed or failed requests: {mixed_completed}/{mixed_total}"
            ));
        }
        if mixed_speedup < 1.5 {
            fail(format!(
                "mixed-budget continuous batching only {mixed_speedup:.2}x over the serial baseline (need >= 1.5x)"
            ));
        }
        // The page arena must be bounded by the tokens-in-flight cap,
        // not queue depth: every live sequence may waste at most one
        // partially filled block beyond its committed tokens.
        let page_bound = tokens_cap + max_batch_cfg * report.kv_block;
        if report.kv_pages_peak * report.kv_block > page_bound {
            fail(format!(
                "KV page high-water unbounded: {} pages x {} tokens/block > cap {} + slack",
                report.kv_pages_peak, report.kv_block, tokens_cap
            ));
        }
        if kv_sample_pages_verified == 0 {
            fail("sampled KV verification verified zero pages — the check never ran".into());
        }
        if kv_verify_overhead_pct >= 10.0 {
            fail(format!(
                "sampled KV verification overhead {kv_verify_overhead_pct:.2}% >= 10% over Off"
            ));
        }
        if report.kv_corruptions_detected != 0
            || report.kv_repairs_reconstructed != 0
            || report.kv_repairs_recomputed != 0
            || report.kv_scrub_repairs != 0
        {
            fail(format!(
                "fault-free serve run reported KV corruption: {} detected, {} reconstructed, {} recomputed, {} scrub repairs",
                report.kv_corruptions_detected,
                report.kv_repairs_reconstructed,
                report.kv_repairs_recomputed,
                report.kv_scrub_repairs
            ));
        }
        if kv_parity_overhead_pct >= 5.0 {
            fail(format!(
                "parity maintenance overhead {kv_parity_overhead_pct:.2}% >= 5% on the mixed-budget cohort"
            ));
        }
        if repair_reconstructions == 0 {
            fail("repair-latency micro: parity-on run never reconstructed".into());
        }
        if repair_recomputes == 0 {
            fail("repair-latency micro: parity-off run never took the recompute path".into());
        }
        if repair_reconstruct_ms >= repair_recompute_ms {
            fail(format!(
                "parity reconstruction ({repair_reconstruct_ms:.2} ms) not faster than recompute ({repair_recompute_ms:.2} ms) for a 64-token prefix"
            ));
        }
        println!("strict gate ok: nominal under deadline, overload shed typed, recovery restored, mixed budgets {mixed_speedup:.2}x over serial re-forward with a bounded arena, sampled KV verification {kv_verify_overhead_pct:.2}% overhead, parity {kv_parity_overhead_pct:.2}% overhead with reconstruction beating recompute");
    }
}
