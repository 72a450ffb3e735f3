//! End-to-end serving benchmark at d_model 512.
//!
//! Serves a random-init `Scheme::AxCore` model through the public
//! serving entry points on one of three workloads and prints every
//! metric by name and unit, then one JSON line:
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload chat|longprompt|offline|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! workload with spans around every call into `serve` and
//! `nn::scheduler`, then replays the step shapes it ran against the
//! lower layers and reports the per-layer metrics. See README.md.

mod drive;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use axcore::engines::ActPolicy;
use axcore_nn::generate::Decoding;
use axcore_nn::layers::ActKind;
use axcore_nn::profile::LlmArch;
use axcore_nn::{
    quantize_model, DecodeScheduler, LmConfig, QuantizedLm, Scheme, StepEvent, TransformerLm,
};
use axcore_serve::{ServeConfig, ServeReport, Server};
use drive::{LoopRun, Record};
use report::{Metric, Outcome, END_TO_END, PER_LAYER};
use stats::{mean, median, percentile};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Trace;
use workload::{Kind, Requests};

/// Weights are the same for every seed; the seed only picks requests.
const MODEL_SEED: u64 = 0xA8C0_2025;
/// Requests the warm-up draws from, apart from the measured stream.
const WARM_SEED: u64 = 0x5EED_0001;
/// Prompt length of the warm-up requests after the first.
const WARM_PROMPT: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Completions per run checked against decoding the request alone.
const CHECKS: usize = 2;
/// Requests submitted together per front-door round (`offline`).
const PER_ROUND: usize = 16;
/// Time slices of a closed-loop run; throughput is their median.
const SLICES: usize = 5;
/// Length of the scheduler run that gives `offline` its scheduler
/// figures (its own scheduler runs inside the server).
const SCHED_REPLAY_S: f64 = 4.0;

fn model_config() -> LmConfig {
    LmConfig {
        vocab: 512,
        d_model: 512,
        n_layers: 2,
        n_heads: 8,
        d_ff: 1024,
        max_seq: 256,
        act: ActKind::Relu,
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if args.workload == "all" {
        return run_all(&args);
    }
    let kind =
        Kind::parse(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    // The tier is resolved once per process from the environment, the
    // way a deployment selects it; it must be set before any GEMM runs.
    std::env::set_var("AXCORE_ACT", kind.act_policy());
    std::env::set_var("AXCORE_LUT", "auto");
    // One GEMM worker. On a 2-vCPU host, hypervisor steal on either vCPU
    // stalls every fork-join step of a two-worker pool (17% steal halved
    // `chat` throughput), while one worker keeps running on whichever
    // vCPU is free. Multi-core scaling is `bench_gemm`'s thread sweep.
    std::env::set_var("AXCORE_THREADS", "1");
    let bench = Bench {
        kind,
        args,
        cfg: model_config(),
        loadavg_start: loadavg(),
    };
    bench.run()
}

struct Bench {
    kind: Kind,
    args: Args,
    cfg: LmConfig,
    loadavg_start: f64,
}

/// What one process measured, before it is turned into metrics.
struct Measured {
    records: Vec<Record>,
    /// Requests sent by the traced run's replays, checked the same way.
    replay_records: Vec<Record>,
    /// Seconds of the measured run: the loop's window, or the rounds.
    window_s: f64,
    /// Front door: the second at which each round ended.
    round_ends: Vec<f64>,
    setup_s: Vec<f64>,
    layers: Vec<Metric>,
}

impl Bench {
    fn run(&self) -> Result<bool, String> {
        let kind = self.kind;
        let a = &self.args;
        let kv = if kind.kv().quant.is_some() {
            "q4-opt"
        } else {
            "fp32"
        };
        println!(
            "e2e_bench workload={} seed={} seconds={} trace={} act={} kv={kv}",
            kind.name(),
            a.seed,
            a.seconds,
            u8::from(a.trace),
            kind.act_policy(),
        );
        let mut m = match kind {
            Kind::Chat | Kind::LongPrompt => self.run_closed_loop()?,
            Kind::Offline => self.run_front_door()?,
        };
        let host = self.host_metrics();
        let metrics = if a.trace {
            m.layers.extend(host);
            std::mem::take(&mut m.layers)
        } else {
            // Recorded with every result, so a run beside a noisy
            // neighbour can be told apart.
            for h in &host {
                println!("{h}");
            }
            self.end_to_end(&m)
        };
        let all: Vec<&Record> = m.records.iter().chain(&m.replay_records).collect();
        let attempted = all.len();
        let failed = all.iter().filter(|r| r.failed()).count();
        println!(
            "requests attempted={attempted} succeeded={} failed={failed}",
            attempted - failed
        );
        for r in all.iter().filter(|r| r.failed()).take(5) {
            let why = r.error.as_deref().unwrap_or("no output");
            println!("failed request {}: {why}", r.index);
        }
        let metrics = report::order(metrics, if a.trace { &PER_LAYER } else { &END_TO_END })?;
        for metric in &metrics {
            println!("{metric}");
        }
        let correct = failed == 0 && attempted > 0;
        let outcome = Outcome {
            correct,
            attempted,
            failed,
            metrics,
        };
        println!("{}", outcome.json());
        Ok(correct)
    }

    fn build_model(&self) -> Arc<QuantizedLm> {
        let model = TransformerLm::new(self.cfg, MODEL_SEED);
        Arc::new(quantize_model(&model, Scheme::AxCore, replay::GROUP, None))
    }

    /// Warm-up requests: one per client, with budgets `1..=clients`, so
    /// every decode stack height runs once, and the first with the
    /// workload's shortest prompt, so its prefill shape runs too. The
    /// pool, arena buffers and LUT tables are then warm before timing.
    fn warm_requests(&self) -> impl Iterator<Item = workload::Request> {
        let shortest = self.kind.prompt_range().0;
        Requests::new(self.kind, WARM_SEED, self.cfg.vocab)
            .take(self.kind.clients())
            .enumerate()
            .map(move |(i, mut r)| {
                r.prompt
                    .truncate(if i == 0 { shortest } else { WARM_PROMPT });
                r.budget = i + 1;
                r
            })
    }

    /// A scheduler for this workload, warmed up.
    fn ready_scheduler<'a>(&self, qlm: &'a QuantizedLm) -> Result<DecodeScheduler<'a>, String> {
        let mut sched = DecodeScheduler::new(qlm, Decoding::Greedy, self.kind.kv());
        for r in self.warm_requests() {
            sched
                .admit(&r.prompt, r.budget)
                .map_err(|e| format!("warm-up admit: {e}"))?;
        }
        while sched.live() > 0 {
            for ev in sched.step(|_| true) {
                if let StepEvent::Failed { error, .. } = ev {
                    return Err(format!("warm-up: {error}"));
                }
            }
        }
        Ok(sched)
    }

    /// A server for this workload, warmed up through its front door.
    fn ready_server(&self, qlm: Arc<QuantizedLm>) -> Result<Server, String> {
        let cfg = ServeConfig {
            queue_depth: PER_ROUND.max(64),
            max_batch: self.kind.clients(),
            kv: self.kind.kv(),
            // Deadlines never bind and nothing is shed, so the overload
            // ladder never changes what is computed.
            default_deadline: Duration::from_secs(600),
            shed_enabled: false,
            ..ServeConfig::default()
        };
        let server = Server::start(qlm, cfg);
        let tickets = self
            .warm_requests()
            .map(|r| server.submit(&r.prompt, r.budget, None))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up submit: {e}"))?;
        for t in tickets {
            t.wait().map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(server)
    }

    fn requests(&self) -> Requests {
        Requests::new(self.kind, self.args.seed, self.cfg.vocab)
    }

    fn run_closed_loop(&self) -> Result<Measured, String> {
        let mut setup_s = Vec::new();
        for _ in 1..SETUPS {
            let t = Instant::now();
            let qlm = self.build_model();
            self.ready_scheduler(&qlm)?;
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let qlm = self.build_model();
        let mut sched = self.ready_scheduler(&qlm)?;
        setup_s.push(t.elapsed().as_secs_f64());

        let clients = self.kind.clients();
        let mut trace = Trace::new(self.args.trace);
        let t = Instant::now();
        let mut run = drive::closed_loop(
            &mut sched,
            clients,
            &mut self.requests(),
            self.args.seconds,
            &mut trace,
        );
        let wall_s = t.elapsed().as_secs_f64();
        drop(sched);
        println!("closed loop: clients={clients} most_live={}", run.max_live);
        let mut records = std::mem::take(&mut run.records);
        self.check_sample(&qlm, &mut records);
        let mut m = Measured {
            records,
            replay_records: Vec::new(),
            window_s: self.args.seconds,
            round_ends: Vec::new(),
            setup_s,
            layers: Vec::new(),
        };
        if self.args.trace {
            // The serve layer is not on this workload's path; replay the
            // workload's first requests through the front door for it.
            let server = self.ready_server(Arc::clone(&qlm))?;
            let mut serve_trace = Trace::new(true);
            let reqs = &mut self.requests().take(clients);
            let (recs, _) = drive::front_door(&server, clients, reqs, 0.0, &mut serve_trace);
            let report = server.shutdown();
            m.replay_records = recs;
            let source = "front-door replay of the first requests";
            m.layers
                .extend(serve_metrics(&serve_trace, &report, source));
            let overhead = overhead_pct(&trace, wall_s);
            m.layers
                .extend(self.layer_metrics(&qlm, &run, &trace, wall_s, "this run", overhead)?);
        }
        Ok(m)
    }

    fn run_front_door(&self) -> Result<Measured, String> {
        let mut setup_s = Vec::new();
        for _ in 1..SETUPS {
            let t = Instant::now();
            let server = self.ready_server(self.build_model())?;
            setup_s.push(t.elapsed().as_secs_f64());
            server.shutdown();
        }
        let t = Instant::now();
        let qlm = self.build_model();
        let server = self.ready_server(Arc::clone(&qlm))?;
        setup_s.push(t.elapsed().as_secs_f64());

        let mut trace = Trace::new(self.args.trace);
        let seconds = self.args.seconds;
        let (mut records, round_ends) = drive::front_door(
            &server,
            PER_ROUND,
            &mut self.requests(),
            seconds,
            &mut trace,
        );
        let window_s = round_ends.last().copied().unwrap_or(0.0);
        let report = server.shutdown();
        self.check_sample(&qlm, &mut records);
        let mut m = Measured {
            records,
            replay_records: Vec::new(),
            window_s,
            round_ends,
            setup_s,
            layers: Vec::new(),
        };
        if self.args.trace {
            m.layers.extend(serve_metrics(&trace, &report, "this run"));
            // The server runs its scheduler on its own thread; drive one
            // over the same requests and batch size for its figures.
            let mut sched = self.ready_scheduler(&qlm)?;
            let mut sched_trace = Trace::new(true);
            let t = Instant::now();
            let run = drive::closed_loop(
                &mut sched,
                self.kind.clients(),
                &mut self.requests(),
                SCHED_REPLAY_S,
                &mut sched_trace,
            );
            let sched_wall = t.elapsed().as_secs_f64();
            drop(sched);
            let overhead = overhead_pct(&trace, window_s);
            let source = "scheduler replay";
            m.layers.extend(self.layer_metrics(
                &qlm,
                &run,
                &sched_trace,
                sched_wall,
                source,
                overhead,
            )?);
            m.replay_records = run.records;
        }
        Ok(m)
    }

    /// Check a fixed sample of completions (stream positions 3 and 19)
    /// against the same request decoded alone through a fresh
    /// scheduler; a mismatch fails the request.
    fn check_sample(&self, qlm: &QuantizedLm, records: &mut [Record]) {
        let sample = records
            .iter_mut()
            .filter(|r| r.index % 16 == 3 && !r.failed())
            .take(CHECKS);
        let mut checked = 0;
        for r in sample {
            checked += 1;
            match drive::decode_alone(qlm, self.kind.kv(), &r.req) {
                Ok(alone) if Some(&alone) == r.tokens.as_ref() => {}
                Ok(_) => r.error = Some("output differs from decoding the request alone".into()),
                Err(e) => r.error = Some(format!("reference decode failed: {e}")),
            }
        }
        println!("output check: {checked} sampled completions compared with decoding alone");
    }

    fn end_to_end(&self, m: &Measured) -> Vec<Metric> {
        let ok: Vec<&Record> = m.records.iter().filter(|r| !r.failed()).collect();
        // Throughput is the median over parts of the run — time slices of
        // the closed loop, rounds of the front door — so a burst of
        // noise on the host moves one part, not the figure. Each part is
        // (tokens, requests, seconds).
        let (ttft, tpot, gaps, parts, how) = match self.kind {
            Kind::Chat | Kind::LongPrompt => {
                let measured: Vec<&&Record> = ok.iter().filter(|r| !r.ramp).collect();
                let ttft: Vec<f64> = measured.iter().map(|r| r.token_s[0] - r.sent_s).collect();
                // The median is taken over requests, of each one's mean
                // gap between successive tokens; the tail over single
                // gaps, where a decode waited behind another's prefill.
                let tpot: Vec<f64> = measured
                    .iter()
                    .filter(|r| r.token_s.len() > 1)
                    .map(|r| {
                        let n = r.token_s.len();
                        (r.token_s[n - 1] - r.token_s[0]) / (n - 1) as f64
                    })
                    .collect();
                let gaps: Vec<f64> = measured
                    .iter()
                    .flat_map(|r| r.token_s.windows(2).map(|w| w[1] - w[0]))
                    .collect();
                // Each token counts as 1/budget of its request, so a
                // request spanning a slice edge counts in both slices.
                let width = m.window_s / SLICES as f64;
                let mut parts = vec![(0.0, 0.0, width); SLICES];
                for r in &ok {
                    for &t in r.token_s.iter().filter(|&&t| t <= m.window_s) {
                        let part = &mut parts[((t / width) as usize).min(SLICES - 1)];
                        part.0 += 1.0;
                        part.1 += 1.0 / r.token_s.len() as f64;
                    }
                }
                (ttft, tpot, gaps, parts, "ramp excluded")
            }
            Kind::Offline => {
                // The ticket hands over the whole completion at once: the
                // first token reaches the caller on redemption, and the
                // per-token time is that latency over the tokens.
                let ttft: Vec<f64> = ok.iter().map(|r| r.token_s[0] - r.sent_s).collect();
                let tpot: Vec<f64> = ok
                    .iter()
                    .map(|r| (r.token_s[0] - r.sent_s) / r.req.budget as f64)
                    .collect();
                let mut start = 0.0;
                let mut parts: Vec<(f64, f64, f64)> = m
                    .round_ends
                    .iter()
                    .map(|&end| (0.0, 0.0, end - std::mem::replace(&mut start, end)))
                    .collect();
                for r in &ok {
                    let round = &mut parts[r.index / PER_ROUND];
                    round.0 += r.req.budget as f64;
                    round.1 += 1.0;
                }
                (ttft, tpot.clone(), tpot, parts, "ticket redemption")
            }
        };
        let pct = |name: &str, xs: &[f64], p: f64| {
            let q = percentile(xs, p);
            let note = format!("p{:.1} of {} ({how})", q.pct * 100.0, q.n);
            Metric::new(name, q.value * 1e3, "ms", note)
        };
        let tokens: Vec<f64> = parts.iter().map(|p| p.0 / p.2).collect();
        let requests: Vec<f64> = parts.iter().map(|p| p.1 / p.2).collect();
        let kind = if self.kind == Kind::Offline {
            "rounds"
        } else {
            "time slices"
        };
        let over = format!("median of {} {kind} over {:.2} s", parts.len(), m.window_s);
        let setups: Vec<String> = m.setup_s.iter().map(|s| format!("{s:.3}")).collect();
        vec![
            pct("ttft_p50_ms", &ttft, 0.5),
            pct("ttft_p90_ms", &ttft, 0.9),
            pct("tpot_p50_ms", &tpot, 0.5),
            pct("tpot_p99_ms", &gaps, 0.99),
            Metric::new("tokens_per_s", median(&tokens), "1/s", over.clone()),
            Metric::new(
                "requests_per_s",
                median(&requests),
                "1/s",
                format!("{over}; {} done", ok.len()),
            ),
            Metric::new(
                "setup_s",
                median(&m.setup_s),
                "s",
                format!("median of [{}]", setups.join(", ")),
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"),
        ]
    }

    /// Scheduler figures from a traced closed loop, then the layer
    /// replays at the shapes it ran.
    fn layer_metrics(
        &self,
        qlm: &QuantizedLm,
        run: &LoopRun,
        trace: &Trace,
        wall_s: f64,
        source: &str,
        overhead_pct: f64,
    ) -> Result<Vec<Metric>, String> {
        let mut m = sched_metrics(trace, run, wall_s, source);
        m.extend(self.replays(qlm, run)?);
        let how = "span records times their measured cost, over the measured run's wall time";
        m.push(Metric::new("trace.overhead_pct", overhead_pct, "%", how));
        Ok(m)
    }

    /// Time the lower layers at the shapes of `run`; see `replay`.
    fn replays(&self, qlm: &QuantizedLm, run: &LoopRun) -> Result<Vec<Metric>, String> {
        let cfg = &self.cfg;
        let kv = self.kind.kv();
        let seed = self.args.seed;
        let sum =
            replay::summarize(&run.shapes).ok_or("the traced run ran no decode or prefill")?;
        println!(
            "replay shapes: decode m={} ctx={:?}, prefill len={} ({} decode steps, {} prefills)",
            sum.decode_m, sum.decode_ctx, sum.prefill_len, sum.decode_steps, sum.prefills
        );
        let model = TransformerLm::new(self.cfg, MODEL_SEED);
        let gemms = replay::Gemms::new(&model);
        let (decode, prefill) = replay::forward_and_gemm(qlm, &gemms, kv, &sum, seed)?;
        let (f_d, g_d, f_p, g_p) = (decode.forward, decode.gemm, prefill.forward, prefill.gemm);
        let (lut_us, _) = gemms.kernel_us(sum.decode_m, ActPolicy::Never, seed)?;
        let (_, act_us) = gemms.kernel_us(sum.decode_m, ActPolicy::Always, seed)?;
        let (append, commit, gather) = replay::kv_decode(cfg, kv, &sum.decode_ctx, seed)?;
        let (kv_fill_p, _) = replay::kv_prefill(cfg, kv, sum.prefill_len, seed)?;
        let attn_rows: Vec<f64> = sum
            .decode_ctx
            .iter()
            .map(|&c| replay::attention(cfg, c - 1, 1, seed))
            .collect();
        let attn_row = mean(&attn_rows);
        let attn_p = replay::attention(cfg, 0, sum.prefill_len, seed);

        // Weight each shape's forward by how often the run ran it.
        let (md, layers) = (sum.decode_m as f64, cfg.n_layers as f64);
        let attributed_d = g_d + md * (append + gather) + md * layers * attn_row;
        let attributed_p = g_p + kv_fill_p + layers * attn_p;
        let (nd, np) = (sum.decode_steps as f64, sum.prefills as f64);
        let forward = nd * f_d + np * f_p;
        let arch = LlmArch {
            name: "e2e-d512",
            layers: cfg.n_layers,
            d_model: cfg.d_model,
            heads: cfg.n_heads,
            kv_heads: cfg.n_heads,
            d_ff: cfg.d_ff,
            gated_ffn: false,
        };
        let p = sum.prefill_len as f64;
        let op_note = format!("nn::profile at the mean context {:.1}", sum.mean_ctx);
        let bytes_note =
            "computed from tensor sizes: 4-bit codes, FP16 group scales, f32 activations";
        Ok(vec![
            Metric::new("eval.prefill_ms_per_token", f_p * 1e3 / p, "ms", "try_forward_paged, median prompt"),
            Metric::new("eval.decode_batch_ms", f_d * 1e3, "ms", "try_forward_paged_batch, median stack"),
            Metric::new(
                "eval.unattributed_frac",
                1.0 - (nd * attributed_d + np * attributed_p) / forward,
                "frac",
                "forward time not covered by the gemm, kv and attn replays, weighted by the run's steps",
            ),
            Metric::new("kv.append_us", append * 1e6, "us", "per token, all layers"),
            Metric::new("kv.commit_us", commit * 1e6, "us", "per token, sealing and parity included"),
            Metric::new("kv.gather_us", gather * 1e6, "us", "per token, all layers"),
            Metric::new("attn.us_per_row", attn_row * 1e6, "us", "one query row, one layer"),
            Metric::new("gemm.decode_us", g_d * 1e6, "us", "all linears of one decode step"),
            Metric::new("gemm.prefill_us_per_token", g_p * 1e6 / p, "us", "all linears, median prefill"),
            Metric::new(
                "gemm.decode_step_share",
                g_d / f_d,
                "frac",
                "gemm.decode_us over eval.decode_batch_ms",
            ),
            Metric::new("gemm.lut_build_us", lut_us, "us", "per decode step, FP-LUT tier (act never)"),
            Metric::new("gemm.act_quant_us", act_us, "us", "per decode step, W4A8 tier (act always)"),
            Metric::new("gemm.macs_per_step", gemms.macs(sum.decode_m), "count", "computed from tensor sizes"),
            Metric::new("gemm.bytes_per_step", gemms.bytes(sum.decode_m), "B", bytes_note),
            Metric::new(
                "fig2.linear_op_share",
                arch.linear_fraction(sum.mean_ctx.round() as usize),
                "frac",
                op_note,
            ),
            Metric::new(
                "fig2.linear_time_share",
                (nd * g_d + np * g_p) / forward,
                "frac",
                "gemm replay time over forward replay time",
            ),
        ])
    }

    fn host_metrics(&self) -> Vec<Metric> {
        let par = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = axcore_parallel::current_threads();
        vec![
            Metric::new("host.available_parallelism", par as f64, "count", ""),
            Metric::new("host.gemm_threads", threads as f64, "count", ""),
            Metric::new("host.loadavg_start", self.loadavg_start, "load", "1-minute"),
            Metric::new("host.loadavg_end", loadavg(), "load", "1-minute"),
        ]
    }
}

/// Tracing overhead of a run, in percent of its wall time: the spans it
/// recorded times the measured cost of recording one.
fn overhead_pct(trace: &Trace, wall_s: f64) -> f64 {
    100.0 * trace.spans.len() as f64 * trace::span_cost_s() / wall_s
}

fn serve_metrics(trace: &Trace, report: &ServeReport, source: &str) -> Vec<Metric> {
    let submit = percentile(&trace.durations("serve.submit", |_| true), 0.5);
    let submit_note = format!("p50 of {} ({source})", submit.n);
    vec![
        Metric::new("serve.submit_us_p50", submit.value * 1e6, "us", submit_note),
        Metric::new("serve.batches", report.batches as f64, "count", source),
        Metric::new("serve.mean_batch", report.mean_batch, "count", source),
        Metric::new(
            "serve.tokens_in_flight_peak",
            report.tokens_in_flight_peak as f64,
            "count",
            source,
        ),
    ]
}

/// Scheduler figures of a traced closed loop.
fn sched_metrics(trace: &Trace, run: &LoopRun, wall_s: f64, source: &str) -> Vec<Metric> {
    let rows: Vec<f64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "scheduler.step")
        .map(|s| s.rows as f64)
        .collect();
    let admit = percentile(&trace.durations("scheduler.admit", |_| true), 0.5);
    let decode = percentile(&trace.durations("scheduler.step", |s| s.prefills == 0), 0.5);
    let prefill_steps = trace.durations("scheduler.step", |s| s.prefills > 0);
    let p50 = percentile(&prefill_steps, 0.5);
    let p99 = percentile(&prefill_steps, 0.99);
    let c = &run.counters;
    let prefill_tokens = run.shapes.prefill_lens.iter().sum::<usize>();
    let count = |name: &str, v: f64| Metric::new(name, v, "count", source);
    vec![
        count("scheduler.steps", rows.len() as f64),
        count("scheduler.rows_per_step_mean", mean(&rows)),
        count("scheduler.prefill_tokens", prefill_tokens as f64),
        Metric::new(
            "scheduler.admit_us_p50",
            admit.value * 1e6,
            "us",
            format!("p50 of {} ({source})", admit.n),
        ),
        Metric::new(
            "scheduler.decode_step_ms_p50",
            decode.value * 1e3,
            "ms",
            format!("p50 of {} steps without prefill ({source})", decode.n),
        ),
        Metric::new(
            "scheduler.prefill_step_ms_p50",
            p50.value * 1e3,
            "ms",
            format!("p50 of {} steps with prefill ({source})", p50.n),
        ),
        Metric::new(
            "scheduler.prefill_step_ms_p99",
            p99.value * 1e3,
            "ms",
            format!(
                "p{:.1} of {} steps with prefill ({source})",
                p99.pct * 100.0,
                p99.n
            ),
        ),
        Metric::new(
            "scheduler.prefill_wall_share",
            prefill_steps.iter().sum::<f64>() / wall_s,
            "frac",
            format!("time in steps with prefill over the loop's wall time ({source})"),
        ),
        count("scheduler.kv_pages_peak", c.kv_pages_peak as f64),
        count("scheduler.kv_pages_verified", c.kv_pages_verified as f64),
        count("scheduler.kv_pages_scrubbed", c.kv_pages_scrubbed as f64),
        count("scheduler.kv_capacity_stalls", c.kv_capacity_stalls as f64),
    ]
}

/// The one-minute load average, or 0 where `/proc/loadavg` is missing.
fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set size in MB (`VmHWM`), or 0 where unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Run every workload, each in its own process (the tier policy is
/// process-wide), and print a combined result.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut total = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for kind in workload::ALL {
        let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
        let trace = if args.trace { "1" } else { "0" };
        let out = std::process::Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", trace])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let o = Outcome::parse(last)
            .ok_or_else(|| format!("{} printed no result (exit {})", kind.name(), out.status))?;
        println!(
            "{}: attempted={} succeeded={} failed={}",
            kind.name(),
            o.attempted,
            o.attempted - o.failed,
            o.failed
        );
        total.correct &= o.correct && out.status.success();
        total.attempted += o.attempted;
        total.failed += o.failed;
        total.metrics.extend(o.metrics.into_iter().map(|mut m| {
            m.name = format!("{}.{}", kind.name(), m.name);
            m
        }));
    }
    println!("{}", total.json());
    Ok(total.correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload chat --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("chat", 7, 3.0, true)
        );
        assert!(parse("--workload chat --trace 2").is_err());
        assert!(parse("--workload chat --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
