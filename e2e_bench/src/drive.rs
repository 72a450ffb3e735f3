//! The two ways the benchmark drives the program: a closed loop over
//! `DecodeScheduler::admit`/`step`, and batches of tickets through the
//! `Server` front door.

use crate::trace::Trace;
use crate::workload::Request;
use axcore_nn::generate::Decoding;
use axcore_nn::{DecodeScheduler, KvPageConfig, QuantizedLm, SeqHandle, StepEvent};
use axcore_serve::Server;
use std::time::Instant;

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Record {
    pub req: Request,
    /// Position in the workload's request stream.
    pub index: usize,
    /// Sent while the closed loop was still ramping up.
    pub ramp: bool,
    /// Seconds from the run's start until the request was sent.
    pub sent_s: f64,
    /// Closed loop: end of the step that produced each output token.
    /// Front door: the moment the ticket was redeemed, once.
    pub token_s: Vec<f64>,
    /// Prompt plus output, when the request finished.
    pub tokens: Option<Vec<usize>>,
    /// Why the request counts as failed, if it does.
    pub error: Option<String>,
}

impl Record {
    fn new(req: Request, index: usize, ramp: bool, sent_s: f64) -> Self {
        Record {
            req,
            index,
            ramp,
            sent_s,
            token_s: Vec::new(),
            tokens: None,
            error: None,
        }
    }

    pub fn failed(&self) -> bool {
        self.error.is_some() || self.tokens.is_none()
    }

    /// Accept a finished output after checking it against the request:
    /// the prompt is kept, the whole budget was generated, and
    /// `generated` agrees with the tokens returned and, when
    /// `timestamps` is set, with the token timestamps taken.
    fn finish(&mut self, tokens: Vec<usize>, generated: usize, completed: bool, timestamps: bool) {
        let p = self.req.prompt.len();
        let problem = if !completed {
            Some("retired before its budget".to_string())
        } else if generated != self.req.budget {
            Some(format!(
                "generated {generated} of a budget of {}",
                self.req.budget
            ))
        } else if tokens.len() != p + generated || tokens[..p] != self.req.prompt[..] {
            Some(format!(
                "{} tokens returned for {p} prompt + {generated} generated",
                tokens.len()
            ))
        } else if timestamps && self.token_s.len() != generated {
            Some(format!(
                "{} token timestamps for {generated} generated",
                self.token_s.len()
            ))
        } else {
            None
        };
        self.error = self.error.take().or(problem);
        self.tokens = Some(tokens);
    }
}

/// The step shapes a run produced, for the layer replays.
#[derive(Debug, Clone, Default)]
pub struct Shapes {
    /// Per step with decode rows: how many rows it stacked.
    pub decode_rows: Vec<usize>,
    /// Per decode row: the context length it attended over.
    pub decode_ctx: Vec<usize>,
    /// Per prefill: the prompt length.
    pub prefill_lens: Vec<usize>,
}

/// Scheduler counters read from its public accessors at the end of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedCounters {
    pub kv_pages_peak: usize,
    pub kv_pages_verified: u64,
    pub kv_pages_scrubbed: u64,
    pub kv_capacity_stalls: u64,
}

#[derive(Debug)]
pub struct LoopRun {
    pub records: Vec<Record>,
    /// Most sequences live in any one step.
    pub max_live: usize,
    pub counters: SchedCounters,
    pub shapes: Shapes,
}

/// Drive a closed loop of `clients` with zero think time for `seconds`:
/// whenever a request retires, the next one is admitted at the
/// following step boundary. While ramping up, one client joins per
/// step, so the first steps do not stack every prompt's prefill. After
/// `seconds` no request is sent and the live ones run to completion.
pub fn closed_loop(
    sched: &mut DecodeScheduler<'_>,
    clients: usize,
    requests: &mut impl Iterator<Item = Request>,
    seconds: f64,
    trace: &mut Trace,
) -> LoopRun {
    let (verified0, scrubbed0, stalls0) = (
        sched.kv_pages_verified(),
        sched.kv_pages_scrubbed(),
        sched.kv_capacity_stalls(),
    );
    let t0 = Instant::now();
    let mut records: Vec<Record> = Vec::new();
    let mut live: Vec<(SeqHandle, usize)> = Vec::new();
    let mut ramped = false;
    let mut max_live = 0;
    let mut shapes = Shapes::default();
    loop {
        let open = t0.elapsed().as_secs_f64() < seconds;
        let target = if ramped {
            clients
        } else {
            (live.len() + 1).min(clients)
        };
        let mut prefills = 0;
        let mut attempts = 0;
        while open && live.len() < target && attempts < clients {
            attempts += 1;
            let Some(req) = requests.next() else { break };
            let index = records.len();
            let mut rec = Record::new(req, index, !ramped, t0.elapsed().as_secs_f64());
            let admitted = trace.span("scheduler.admit", 0, 0, || {
                sched.admit(&rec.req.prompt, rec.req.budget)
            });
            match admitted {
                Ok(h) => {
                    live.push((h, index));
                    prefills += 1;
                    if trace.on() {
                        shapes.prefill_lens.push(rec.req.prompt.len());
                    }
                }
                Err(e) => rec.error = Some(format!("admit: {e}")),
            }
            records.push(rec);
        }
        ramped |= live.len() >= clients;
        if live.is_empty() {
            if open {
                continue;
            }
            break;
        }
        let rows = live.len();
        max_live = max_live.max(rows);
        if trace.on() && rows > prefills {
            shapes.decode_rows.push(rows - prefills);
            for &(_, idx) in &live[..rows - prefills] {
                let r = &records[idx];
                shapes.decode_ctx.push(r.req.prompt.len() + r.token_s.len());
            }
        }
        let events = trace.span("scheduler.step", rows, prefills, || sched.step(|_| true));
        let t = t0.elapsed().as_secs_f64();
        for &(_, idx) in &live {
            records[idx].token_s.push(t);
        }
        for ev in events {
            let (handle, result) = match ev {
                StepEvent::Finished { handle, outcome } => (handle, Ok(outcome)),
                StepEvent::Failed { handle, error } => (handle, Err(error)),
            };
            let Some(pos) = live.iter().position(|&(h, _)| h == handle) else {
                continue;
            };
            let (_, idx) = live.remove(pos);
            match result {
                Ok(o) => records[idx].finish(o.tokens, o.generated, o.completed, true),
                Err(e) => records[idx].error = Some(format!("step: {e}")),
            }
        }
    }
    let counters = SchedCounters {
        kv_pages_peak: sched.kv_pages_peak(),
        kv_pages_verified: sched.kv_pages_verified() - verified0,
        kv_pages_scrubbed: sched.kv_pages_scrubbed() - scrubbed0,
        kv_capacity_stalls: sched.kv_capacity_stalls() - stalls0,
    };
    LoopRun {
        records,
        max_live,
        counters,
        shapes,
    }
}

/// Submit rounds of `per_round` requests at once through `server` and
/// redeem every ticket, until `seconds` have passed at a round's end
/// (so at least one round runs). Returns the records and the second at
/// which each round ended.
pub fn front_door(
    server: &Server,
    per_round: usize,
    requests: &mut impl Iterator<Item = Request>,
    seconds: f64,
    trace: &mut Trace,
) -> (Vec<Record>, Vec<f64>) {
    let t0 = Instant::now();
    let mut records: Vec<Record> = Vec::new();
    let mut round_ends = Vec::new();
    loop {
        let mut tickets = Vec::new();
        for req in requests.by_ref().take(per_round) {
            let index = records.len();
            let mut rec = Record::new(req, index, false, t0.elapsed().as_secs_f64());
            let submitted = trace.span("serve.submit", 0, 0, || {
                server.submit(&rec.req.prompt, rec.req.budget, None)
            });
            match submitted {
                Ok(t) => tickets.push((index, t)),
                Err(e) => rec.error = Some(format!("submit: {e}")),
            }
            records.push(rec);
        }
        if tickets.is_empty() {
            break;
        }
        // One waiter per ticket, so each is timed when it resolves, not
        // when the ones before it do.
        let done: Vec<_> = std::thread::scope(|s| {
            let waiters: Vec<_> = tickets
                .into_iter()
                .map(|(idx, t)| s.spawn(move || (idx, t.wait(), t0.elapsed().as_secs_f64())))
                .collect();
            waiters.into_iter().map(|w| w.join()).collect()
        });
        for joined in done {
            let Ok((idx, result, at)) = joined else {
                continue;
            };
            let rec = &mut records[idx];
            rec.token_s.push(at);
            match result {
                Ok(c) => rec.finish(c.tokens, c.generated, true, false),
                Err(e) => rec.error = Some(format!("serve: {e}")),
            }
        }
        round_ends.push(t0.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (records, round_ends)
}

/// Decode `req` alone through a fresh scheduler: the reference each
/// checked completion must equal.
pub fn decode_alone(
    qlm: &QuantizedLm,
    kv: KvPageConfig,
    req: &Request,
) -> Result<Vec<usize>, String> {
    let mut sched = DecodeScheduler::new(qlm, Decoding::Greedy, kv);
    sched
        .admit(&req.prompt, req.budget)
        .map_err(|e| format!("admit: {e}"))?;
    while sched.live() > 0 {
        if let Some(ev) = sched.step(|_| true).into_iter().next() {
            return match ev {
                StepEvent::Finished { outcome, .. } => Ok(outcome.tokens),
                StepEvent::Failed { error, .. } => Err(format!("step: {error}")),
            };
        }
    }
    Err("retired without an event".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Requests};
    use axcore_nn::layers::ActKind;
    use axcore_nn::{quantize_model, LmConfig, Scheme, TransformerLm};

    fn tiny() -> QuantizedLm {
        let cfg = LmConfig {
            vocab: 512,
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 24,
            max_seq: 256,
            act: ActKind::Relu,
        };
        quantize_model(&TransformerLm::new(cfg, 5), Scheme::AxCore, 8, None)
    }

    #[test]
    fn closed_loop_keeps_to_its_clients_and_timestamps_match_outputs() {
        let qlm = tiny();
        for (kind, clients) in [(Kind::Chat, 3), (Kind::LongPrompt, 2)] {
            let mut reqs = Requests::new(kind, 11, 512);
            let mut trace = Trace::new(true);
            let mut sched = DecodeScheduler::new(&qlm, Decoding::Greedy, kind.kv());
            let run = closed_loop(&mut sched, clients, &mut reqs, 0.3, &mut trace);
            assert!(
                run.records.len() > clients,
                "the loop sent more after retirements"
            );
            assert!(
                run.max_live <= clients,
                "{} live with {clients} clients",
                run.max_live
            );
            let steps = trace.durations("scheduler.step", |_| true).len();
            assert!(trace.spans.iter().all(|s| s.rows <= clients));
            assert!(steps > 0);
            for r in &run.records {
                assert!(!r.failed(), "request {} failed: {:?}", r.index, r.error);
                assert_eq!(
                    r.token_s.len(),
                    r.req.budget,
                    "one timestamp per generated token"
                );
                assert!(r.token_s.windows(2).all(|w| w[0] <= w[1]));
            }
            // The ramp admits one client per step.
            let first: Vec<usize> = trace
                .spans
                .iter()
                .filter(|s| s.name == "scheduler.step")
                .take(clients)
                .map(|s| s.rows)
                .collect();
            assert_eq!(first, (1..=clients).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_miscounted_output_is_a_failure() {
        let req = Request {
            prompt: vec![1, 2],
            budget: 2,
        };
        let mut r = Record::new(req.clone(), 0, false, 0.0);
        r.token_s = vec![0.1];
        r.finish(vec![1, 2, 3, 4], 2, true, true);
        assert!(r.failed(), "one timestamp for two tokens");
        let mut r = Record::new(req.clone(), 0, false, 0.0);
        r.token_s = vec![0.1, 0.2];
        r.finish(vec![1, 2, 3, 4], 2, true, true);
        assert!(!r.failed());
        let mut r = Record::new(req, 0, false, 0.0);
        r.finish(vec![1, 2, 3], 2, true, false);
        assert!(r.failed(), "token count disagrees with generated");
    }

    #[test]
    fn closed_loop_outputs_equal_decoding_alone() {
        let qlm = tiny();
        let kind = Kind::Chat;
        let mut reqs = Requests::new(kind, 2, 512);
        let mut sched = DecodeScheduler::new(&qlm, Decoding::Greedy, kind.kv());
        let run = closed_loop(&mut sched, 4, &mut reqs, 0.2, &mut Trace::new(false));
        for r in run.records.iter().take(6) {
            let alone = decode_alone(&qlm, kind.kv(), &r.req).expect("reference decode");
            assert_eq!(r.tokens.as_ref(), Some(&alone));
        }
    }
}
