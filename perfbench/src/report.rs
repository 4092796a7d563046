//! The metric catalogue and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the names `BENCHMARK.json`
//! lists, with their units; an untraced run prints every end-to-end
//! metric and a traced run every per-layer one (a layer the workload
//! does not touch reads 0 there). A run is correct only when no
//! operation returned a wrong answer or an error, every check passed
//! and every end-to-end metric was measured. Requests the server
//! refused under load count as failed operations, not as wrong ones.

use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("ok_ops_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("bytes_per_live_byte", "ratio"),
];

/// Span names whose self time the traced run reports as a share of
/// wall time (`self.<name>`).
pub const SPANS: [&str; 20] = [
    "engine.search",
    "search.preprocess",
    "index.route",
    "search.bounds",
    "search.distance",
    "store.snapshot",
    "store.search",
    "store.insert",
    "store.seal",
    "store.delete",
    "store.compact",
    "exec.search_batch",
    "search.sq8_scan",
    "search.rerank",
    "kernels.pdx_scan",
    "kernels.sq8_scan",
    "cache.fetch",
    "serve.request",
    "serve.send",
    "bench.lag",
];

/// Per-layer metrics other than the span self-time shares.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("search.preprocess_us", "us"),
    ("search.bounds_us", "us"),
    ("search.distance_us", "us"),
    ("search.pruned_share", "ratio"),
    ("search.vectors_per_query", "count"),
    ("search.blocks_per_query", "count"),
    ("kernels.f32_ns_per_value", "ns"),
    ("kernels.sq8_ns_per_value", "ns"),
    ("search.sq8_scan_us", "us"),
    ("search.rerank_us", "us"),
    ("search.rerank_candidates_per_query", "count"),
    ("index.route_us", "us"),
    ("index.build_s", "s"),
    ("engine.open_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses_per_query", "count"),
    ("cache.evictions_per_query", "count"),
    ("cache.miss_load_us", "us"),
    ("cache.resident_mb", "MiB"),
    ("store.insert_us", "us"),
    ("store.delete_us", "us"),
    ("store.snapshot_us", "us"),
    ("store.seal_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.seals", "count"),
    ("store.compactions", "count"),
    ("store.wal_fsyncs", "count"),
    ("store.write_amp", "ratio"),
    ("store.segments_per_search", "count"),
    ("store.buffer_rows_per_search", "count"),
    ("store.tombstone_share", "ratio"),
    ("store.write_p50_us", "us"),
    ("store.write_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.busy_share", "ratio"),
    ("serve.deadline_share", "ratio"),
    ("serve.generator_lag_us", "us"),
    ("serve.slo_qps", "1/s"),
    ("exec.scaling", "ratio"),
    ("obs.trace_overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Every metric a run of the given mode prints: `(name, unit)`.
pub fn catalogue(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(SPANS.iter().map(|s| (format!("self.{s}"), "ratio")))
        .collect()
}

/// Errors kept verbatim; the rest are only counted.
const KEPT_ERRORS: usize = 8;

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    error_count: usize,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            ..Report::default()
        }
    }

    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Records a metric; names outside both catalogues are a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = catalogue(false)
            .into_iter()
            .chain(catalogue(true))
            .any(|(n, _)| n == name);
        assert!(known, "metric {name:?} is not in the catalogue");
        if value.is_finite() {
            self.metrics.insert(name.to_string(), value);
        } else {
            self.error(format!("{name} is not a finite number ({value})"));
        }
    }

    /// A failed check (not tied to one operation).
    pub fn error(&mut self, msg: impl Into<String>) {
        self.error_count += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(msg.into());
        }
    }

    /// One operation that failed or returned a wrong answer.
    pub fn fail_op(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.error(msg);
    }

    /// One request the server refused (`Busy`) or shed at its deadline:
    /// it counts in `failed` and `ok_ops_share` but is a slow result,
    /// not a wrong one.
    pub fn refuse_op(&mut self) {
        self.failed += 1;
    }

    /// Summarizes a latency sample into the two named metrics; an empty
    /// or too-small sample is an error and sets neither.
    pub fn latency(&mut self, p50: &str, p99: &str, micros: &[f64]) -> Option<Summary> {
        match summarize(micros) {
            Ok(s) => {
                self.set(p50, s.p50);
                self.set(p99, s.p99);
                eprintln!(
                    "  {p50} / {p99}: {:.1} / {:.1} µs (n = {})",
                    s.p50, s.p99, s.n
                );
                Some(s)
            }
            Err(e) => {
                self.error(format!("{p50}/{p99}: {e}"));
                None
            }
        }
    }

    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    pub fn correct(&self) -> bool {
        self.error_count == 0
            && self.attempted > 0
            && (self.trace
                || END_TO_END
                    .iter()
                    .all(|(n, _)| self.metrics.contains_key(*n)))
    }

    /// The result line. Per-layer metrics the workload never set read
    /// 0 (the layer did no work); missing end-to-end metrics are left
    /// out and make the run incorrect.
    pub fn to_json(&self) -> String {
        let mut fields = Vec::new();
        for (name, unit) in catalogue(self.trace) {
            let value = match self.metrics.get(&name) {
                Some(&v) => v,
                None if self.trace => 0.0,
                None => continue,
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_failed_reports_failure_never_a_latency() {
        let mut r = Report::new(false);
        r.attempted = 50;
        for i in 0..50 {
            r.fail_op(format!("request {i} was refused"));
        }
        assert!(r.latency("query_p50_us", "query_p99_us", &[]).is_none());
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 50, \"failed\": 50,"));
        assert!(!json.contains("query_p50_us") && !json.contains("query_p99_us"));
        assert_eq!(r.errors().len(), KEPT_ERRORS);
    }

    #[test]
    fn refused_requests_count_as_failed_but_not_as_wrong() {
        let mut r = Report::new(false);
        r.attempted = 1000;
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.refuse_op();
        r.refuse_op();
        assert_eq!(r.failed, 2);
        assert!(r.correct(), "shedding under load is not a wrong answer");
        assert!(r.to_json().contains("\"failed\": 2,"));
        r.fail_op("request 7 differs from the resident search");
        assert_eq!(r.failed, 3);
        assert!(!r.correct(), "a mismatch is");
    }

    #[test]
    fn complete_run_is_correct_and_lists_every_metric() {
        let mut r = Report::new(false);
        r.attempted = 1;
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        assert!(r.correct());
        let json = r.to_json();
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        r.set("qps", f64::NAN);
        assert!(!r.correct(), "a non-finite value is an error");
    }

    #[test]
    fn traced_run_prints_every_per_layer_metric() {
        let mut r = Report::new(true);
        r.attempted = 3;
        r.set("exec.scaling", 1.9);
        let json = r.to_json();
        assert!(json.contains("\"exec.scaling\": {\"value\": 1.9"));
        assert!(json.contains("\"self.bench.lag\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(!json.contains("\"qps\""));
        assert!(r.correct());
    }

    #[test]
    fn benchmark_json_names_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in catalogue(false).into_iter().chain(catalogue(true)) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::args::Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
