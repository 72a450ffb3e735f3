//! Spans the benchmark records around its own calls into the program.
//!
//! Spans live in memory and are read when the run ends. With tracing
//! off, [`Trace::span`] only calls through.

use std::time::Instant;

/// One call into the program: which entry point, how long, and the
/// shape of the work it was handed.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub dur_s: f64,
    /// Rows the call forwarded (scheduler steps).
    pub rows: usize,
    /// Of those, sequences prefilling their prompt this call.
    pub prefills: usize,
}

#[derive(Debug)]
pub struct Trace {
    on: bool,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, recording a span named `name` when tracing is on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        rows: usize,
        prefills: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let dur_s = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            dur_s,
            rows,
            prefills,
        });
        r
    }

    /// Durations (seconds) of the spans named `name` that satisfy `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .map(|s| s.dur_s)
            .collect()
    }
}

/// Seconds one span record costs, measured by recording spans around
/// empty calls — the tracing overhead per span.
pub fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let mut t = Trace::new(true);
    let start = Instant::now();
    for _ in 0..N {
        t.span("calibrate", 0, 0, || std::hint::black_box(()));
    }
    start.elapsed().as_secs_f64() / N as f64
}
