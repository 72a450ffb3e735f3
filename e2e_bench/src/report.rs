//! Reported figures: the metric lists `BENCHMARK.json` names, and the
//! JSON result line every run ends with.

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("tpot_p99_ms", "ms"),
    ("tokens_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.submit_us_p50", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.tokens_in_flight_peak", "count"),
    ("scheduler.steps", "count"),
    ("scheduler.rows_per_step_mean", "count"),
    ("scheduler.prefill_tokens", "count"),
    ("scheduler.admit_us_p50", "us"),
    ("scheduler.decode_step_ms_p50", "ms"),
    ("scheduler.prefill_step_ms_p50", "ms"),
    ("scheduler.prefill_step_ms_p99", "ms"),
    ("scheduler.prefill_wall_share", "frac"),
    ("scheduler.kv_pages_peak", "count"),
    ("scheduler.kv_pages_verified", "count"),
    ("scheduler.kv_pages_scrubbed", "count"),
    ("scheduler.kv_capacity_stalls", "count"),
    ("eval.prefill_ms_per_token", "ms"),
    ("eval.decode_batch_ms", "ms"),
    ("eval.unattributed_frac", "frac"),
    ("kv.append_us", "us"),
    ("kv.commit_us", "us"),
    ("kv.gather_us", "us"),
    ("attn.us_per_row", "us"),
    ("gemm.decode_us", "us"),
    ("gemm.prefill_us_per_token", "us"),
    ("gemm.decode_step_share", "frac"),
    ("gemm.lut_build_us", "us"),
    ("gemm.act_quant_us", "us"),
    ("gemm.macs_per_step", "count"),
    ("gemm.bytes_per_step", "B"),
    ("fig2.linear_op_share", "frac"),
    ("fig2.linear_time_share", "frac"),
    ("host.available_parallelism", "count"),
    ("host.gemm_threads", "count"),
    ("host.loadavg_start", "load"),
    ("host.loadavg_end", "load"),
    ("trace.overhead_pct", "%"),
];

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How it was taken: sample count, the percentile used, or its source.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, note: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            note: note.into(),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, value, unit) = (&self.name, self.value, &self.unit);
        write!(f, "{name:<32} {value:>14.4} {unit:<6} {}", self.note)
    }
}

/// Put `metrics` in the order of `expected`, failing if any is missing,
/// carries another unit, or is not a finite number.
pub fn order(metrics: Vec<Metric>, expected: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    expected
        .iter()
        .map(|&(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!(
                    "metric {name} has unit {}, expected {unit}",
                    m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            Ok(m.clone())
        })
        .collect()
}

/// What a run reports on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object, values with all their digits.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// Read back a line as [`Outcome::json`] writes it.
    pub fn parse(line: &str) -> Option<Outcome> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let mut metrics = Vec::new();
        let body = &line[line.find("\"metrics\": {")? + 12..];
        for entry in body.split("}, ").filter(|e| e.contains("\"value\"")) {
            let name = entry.trim_start_matches(['{', ' ']).split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
            metrics.push(Metric::new(name, value.parse().ok()?, unit, ""));
        }
        Some(Outcome {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let out = Outcome {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: vec![
                Metric::new("ttft_p50_ms", 1.25, "ms", ""),
                Metric::new("tokens_per_s", 200.5, "1/s", ""),
            ],
        };
        assert_eq!(Outcome::parse(&out.json()), Some(out));
    }

    #[test]
    fn order_rejects_missing_mislabelled_and_non_finite_metrics() {
        let want = [("a", "ms"), ("b", "s")];
        let ok = vec![
            Metric::new("b", 2.0, "s", ""),
            Metric::new("a", 1.0, "ms", ""),
        ];
        let names: Vec<String> = order(ok, &want)
            .expect("complete")
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, ["a", "b"]);
        assert!(order(vec![Metric::new("a", 1.0, "ms", "")], &want).is_err());
        let mislabelled = vec![
            Metric::new("a", 1.0, "s", ""),
            Metric::new("b", 2.0, "s", ""),
        ];
        assert!(order(mislabelled, &want).is_err());
        let nan = vec![
            Metric::new("a", f64::NAN, "ms", ""),
            Metric::new("b", 2.0, "s", ""),
        ];
        assert!(order(nan, &want).is_err());
    }

    #[test]
    fn benchmark_json_names_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..start + text[start..].find(']').expect("list closes")];
            let field = |key: &str| -> Vec<String> {
                body.split(&format!("\"{key}\": \""))
                    .skip(1)
                    .map(|s| s.split('"').next().unwrap_or("").to_string())
                    .collect()
            };
            let names: Vec<&str> = list.iter().map(|m| m.0).collect();
            let units: Vec<&str> = list.iter().map(|m| m.1).collect();
            assert_eq!(field("name"), names, "{section} names");
            assert_eq!(field("unit"), units, "{section} units");
        }
    }
}
