//! The metric registry (names, units, directions — mirrored by
//! `BENCHMARK.json`) and the result line the benchmark ends with.

use std::collections::BTreeMap;

/// Whether a larger value of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, hit ratios).
    Higher,
    /// Smaller is better (latency, bytes, failures).
    Lower,
}

/// One named metric with its unit.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

impl Metric {
    /// `name value unit (direction)`; `None` for a layer the workload
    /// never ran.
    fn line(&self, value: Option<f64>) -> String {
        let shown = match value {
            Some(v) => format!("{v:.6}"),
            None => "0 (layer not run by this workload)".to_string(),
        };
        let dir = match self.better {
            Better::Higher => "higher is better",
            Better::Lower => "lower is better",
        };
        format!("{:<34} {shown} {} ({dir})", self.name, self.unit)
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run (`--trace 0`), reported by every workload.
pub const END_TO_END: &[Metric] = &[
    m("ops_per_s", "1/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("latency_p90_ms", "ms", Lower),
    m("setup_s", "s", Lower),
];

/// Metrics of a traced run (`--trace 1`). A metric whose layer a workload
/// never runs (e.g. `server.*` in the batch workloads) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Workload-specific end-to-end figures (every end-to-end metric must
    // exist on every workload, so these live here).
    m("set_p50_ms", "ms", Lower),
    m("latency_p99_ms", "ms", Lower),
    m("delta_p50_ms", "ms", Lower),
    m("failed_ratio", "ratio", Lower),
    m("peak_rss_mb", "MB", Lower),
    // rpq_core::batch_unit (Algorithm 2) and the clause union.
    m("core.post_ms", "ms/query", Lower),
    m("core.post_share", "ratio", Lower),
    m("core.pre_join_ms", "ms/query", Lower),
    m("core.union_ms", "ms/query", Lower),
    m("core.res9_tuples", "tuples/query", Lower),
    // rpq_eval: label joins, product evaluator, witness search.
    m("eval.label_seq_ms", "ms/query", Lower),
    m("serve.ends_p50_ms", "ms", Lower),
    m("serve.check_p50_ms", "ms", Lower),
    // rpq_reduction: RTC build, Theorem-2 expansion, maintenance.
    m("reduction.rtc_build_ms", "ms/query", Lower),
    m("reduction.rtc_expand_ms", "ms/query", Lower),
    m("reduction.shared_pairs", "pairs/rtc", Lower),
    m("reduction.sccs", "sccs/rtc", Lower),
    m("reduction.incremental_refreshes", "count", Higher),
    m("reduction.rebuild_refreshes", "count", Lower),
    m("reduction.incremental_ms", "ms/refresh", Lower),
    // The fixed replay of the known maintenance panic (`defect.rs`).
    m("defect.dynamic_rtc_panics", "count", Lower),
    // rpq_core caches and the engine's own three-part breakdown.
    m("core.cache.hit_ratio", "ratio", Higher),
    m("core.cache.stale_hits", "count", Higher),
    m("core.result_cache.hit_ratio", "ratio", Higher),
    m("core.result_cache.evictions", "count", Lower),
    m("core.structural_bytes", "bytes", Lower),
    m("core.breakdown.shared_data_ms", "ms/query", Lower),
    m("core.breakdown.pre_join_ms", "ms/query", Lower),
    m("core.breakdown.remainder_ms", "ms/query", Lower),
    // rpq_regex.
    m("regex.dnf_ms", "ms/query", Lower),
    // rpq_server: session, tcp, wire.
    m("server.eval_ms_p50", "ms", Lower),
    m("server.transport_ms_p50", "ms", Lower),
    m("server.transport_ms_p90", "ms", Lower),
    m("wire.bytes_per_query", "bytes", Lower),
    m("server.publish_mean_ms", "ms", Lower),
    // rpq_graph.
    m("graph.delta_apply_ms", "ms/delta", Lower),
    // The trace itself.
    m("trace.coverage", "ratio", Higher),
    m("trace.overhead_ratio", "ratio", Lower),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked output matched its oracle.
    pub correct: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed (ERR reply, dropped connection, wrong result).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report, correct until a check says otherwise.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric; the name must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            lookup(name).is_some(),
            "metric {name} is not in the registry"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a human-readable line printed before the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Notes a registered metric measured in an untraced run that only
    /// some workloads have, so it stays out of the result line (which
    /// holds the end-to-end metrics every workload reports).
    pub fn note_metric(&mut self, name: &'static str, value: f64) {
        let metric = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        self.notes
            .push(format!("also measured: {}", metric.line(Some(value))));
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn registry(trace: bool) -> &'static [Metric] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable lines: notes, then every reported metric with its
    /// unit and direction, then the correctness verdict.
    pub fn human(&self, trace: bool) -> Vec<String> {
        let mut out: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        for metric in Report::registry(trace) {
            out.push(metric.line(self.get(metric.name)));
        }
        out.push(format!(
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        ));
        out
    }

    /// The final JSON line. End-to-end metrics must all be recorded; a
    /// per-layer metric whose layer the workload never ran reads 0.
    pub fn json_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Report::registry(trace)
            .iter()
            .map(|metric| {
                let value = match self.get(metric.name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} was not measured", metric.name),
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    metric.name,
                    json_number(value),
                    metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The registered metric of this name.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        let mut names = std::collections::HashSet::new();
        for metric in &all {
            assert!(names.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            let ok_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
            assert!(metric.name.chars().all(ok_name), "{}", metric.name);
            assert!(metric.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            let ok_unit = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(metric.unit.chars().all(ok_unit), "{}", metric.unit);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn json_line_has_exactly_the_registered_metrics() {
        let mut r = Report::new();
        for metric in END_TO_END {
            r.set(metric.name, 1.25);
        }
        r.attempted = 3;
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for metric in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.25", metric.name)));
        }
        assert!(!line.contains("core.post_ms"));
        let traced = r.json_line(true);
        assert!(traced.contains("\"core.post_ms\": {\"value\": 0.0, \"unit\": \"ms/query\"}"));
        assert!(!traced.contains("ops_per_s"));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            panic!("BENCHMARK.json not found next to the benchmark");
        };
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let count = compact.matches("\"unit\":").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len());
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let better = match metric.better {
                Higher => "higher",
                Lower => "lower",
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                metric.name, metric.unit
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
