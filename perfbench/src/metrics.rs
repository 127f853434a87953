//! The workloads, the metric names the benchmark reports for them, and the
//! statistics and JSON rendering of a run's result.

use crate::check::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, each a different path through the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanFullE,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PlanFullE, Workload::ServeZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanFullE => "plan-full-e",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the planner runs on one lane (the process is pinned to one
    /// CPU). The daemon workload keeps every CPU for its clients and
    /// workers.
    pub fn single_lane(self) -> bool {
        self == Workload::PlanFullE
    }

    /// The per-layer metrics this workload measures. Every other
    /// per-layer metric is reported as 0 in its traced run.
    pub fn layers(self) -> &'static [&'static str] {
        match self {
            Workload::PlanFullE => &PLAN_LAYERS,
            Workload::ServeZipf => &SERVE_LAYERS,
        }
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with tracing on.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("npd.parse_ms", "ms"),
    ("npd.digest_ms", "ms"),
    ("npd.attach_encode_ms", "ms"),
    ("topology.region_build_ms", "ms"),
    ("core.spec_build_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.states_visited", "count"),
    ("core.sat_checks", "count"),
    ("core.full_evaluations", "count"),
    ("core.esc_hit_ratio", "ratio"),
    ("core.satcheck_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.audit_ms", "ms"),
    ("routing.route_origin_ms", "ms"),
    ("routing.check_origin_ms", "ms"),
    ("routing.incremental_dirty", "count"),
    ("routing.incremental_clean", "count"),
    ("routing.replay_ratio", "ratio"),
    ("routing.ensemble_matrix_checks", "count"),
    ("routing.ensemble_short_circuits", "count"),
    ("routing.check_k8_over_k1", "ratio"),
    ("controller.steps", "count"),
    ("controller.live_audits", "count"),
    ("controller.replans", "count"),
    ("controller.pauses", "count"),
    ("controller.audit_full_evaluations", "count"),
    ("controller.replan_ms", "ms"),
    ("controller.initial_plan_ms", "ms"),
    ("controller.audit_ms_per_step", "ms"),
    ("service.http_floor_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesce_follower_ratio", "ratio"),
    ("service.shed_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.pipeline_executions", "count"),
    ("service.journal_records", "count"),
    ("service.journal_bytes", "bytes"),
    ("service.journal_compactions", "count"),
    ("service.server_plan_mean_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// Layers of plan-full-e: its own stages and counters, then the probes
/// its traced run makes (origin routing on E, the K=8 ensemble suite on C,
/// one controller run of the storm scenario).
const PLAN_LAYERS: [&str; 31] = [
    "npd.parse_ms",
    "npd.digest_ms",
    "npd.attach_encode_ms",
    "topology.region_build_ms",
    "core.spec_build_ms",
    "core.search_ms",
    "core.states_visited",
    "core.sat_checks",
    "core.full_evaluations",
    "core.esc_hit_ratio",
    "core.satcheck_ms",
    "core.validate_ms",
    "core.audit_ms",
    "routing.route_origin_ms",
    "routing.check_origin_ms",
    "routing.incremental_dirty",
    "routing.incremental_clean",
    "routing.replay_ratio",
    "routing.ensemble_matrix_checks",
    "routing.ensemble_short_circuits",
    "routing.check_k8_over_k1",
    "controller.steps",
    "controller.live_audits",
    "controller.replans",
    "controller.pauses",
    "controller.audit_full_evaluations",
    "controller.replan_ms",
    "controller.initial_plan_ms",
    "controller.audit_ms_per_step",
    "telemetry.overhead_pct",
    "unattributed_pct",
];

const SERVE_LAYERS: [&str; 16] = [
    "npd.parse_ms",
    "npd.digest_ms",
    "service.http_floor_ms",
    "service.hit_p50_ms",
    "service.miss_p50_ms",
    "service.cache_hit_ratio",
    "service.coalesce_follower_ratio",
    "service.shed_ratio",
    "service.cache_evictions",
    "service.pipeline_executions",
    "service.journal_records",
    "service.journal_bytes",
    "service.journal_compactions",
    "service.server_plan_mean_ms",
    "telemetry.overhead_pct",
    "unattributed_pct",
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Observations the value summarizes.
    pub samples: usize,
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1]; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The timed window of a run: one latency per successful op.
#[derive(Debug, Default)]
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub tally: Tally,
    pub wall_s: f64,
    pub cpu_ms: f64,
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order.
pub fn end_to_end(setup_s: &[f64], w: &Window, peak_rss_mb: f64) -> Vec<Metric> {
    let Tally { attempted, failed } = w.tally;
    let ok = attempted - failed;
    let n = w.latencies_ms.len();
    let values = [
        (median(setup_s), setup_s.len()),
        (median(&w.latencies_ms), n),
        (percentile(&w.latencies_ms, 0.99), n),
        (ratio(ok as f64, w.wall_s), ok as usize),
        (ratio(w.cpu_ms, attempted as f64), attempted as usize),
        (peak_rss_mb, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
}

/// Collects the per-layer metrics a workload measures.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Records the median of `xs`.
    pub fn median(&mut self, name: &'static str, xs: &[f64]) {
        self.set(name, median(xs), xs.len());
    }

    /// Every per-layer metric in [`PER_LAYER`] order, 0 for the layers
    /// `workload` does not exercise. Fails unless exactly the workload's
    /// own layers were recorded.
    pub fn finish(self, workload: Workload) -> Result<Vec<Metric>, String> {
        let mut got: Vec<&str> = self.values.keys().copied().collect();
        let mut want = workload.layers().to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "{} recorded layers {got:?}, expected {want:?}",
                workload.name()
            ));
        }
        Ok(PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect())
    }
}

/// What a run prints as its last line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Renders a finite number as JSON (non-finite values become 0).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The result object the benchmark prints as its last line of output.
pub fn result_line(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn names_in(json: &str, key: &str) -> Vec<String> {
        let doc: serde_json::Value = serde_json::from_str(json).unwrap();
        let items = doc
            .as_object()
            .and_then(|o| o.get(key))
            .and_then(|v| v.as_array());
        items
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
            .iter()
            .map(|item| {
                let name = item.as_object().and_then(|m| m.get("name"));
                name.and_then(|n| n.as_str()).unwrap().to_string()
            })
            .collect()
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are used once");
    }

    #[test]
    fn tables_agree_with_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        assert_eq!(names_in(json, "per_layer"), layers);
        assert_eq!(names_in(json, "workloads"), workloads);
    }

    #[test]
    fn workload_layers_are_known_and_cover_every_per_layer_metric() {
        let known: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        let mut covered = Vec::new();
        for w in Workload::ALL {
            for name in w.layers() {
                assert!(known.contains(name), "{}: {name}", w.name());
                covered.push(*name);
            }
            assert!(w.layers().contains(&"unattributed_pct"));
            assert!(w.layers().contains(&"telemetry.overhead_pct"));
        }
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), known.len(), "every layer metric is measured");
    }

    #[test]
    fn layers_must_be_exactly_the_workloads_own() {
        let mut layers = Layers::default();
        for name in Workload::ServeZipf.layers() {
            layers.set(name, 1.0, 1);
        }
        let metrics = layers.finish(Workload::ServeZipf).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let measured = metrics.iter().filter(|m| m.samples > 0).count();
        assert_eq!(measured, Workload::ServeZipf.layers().len());

        let mut missing = Layers::default();
        missing.set("service.shed_ratio", 0.0, 1);
        assert!(missing.finish(Workload::ServeZipf).is_err());

        let mut extra = Layers::default();
        for name in Workload::ServeZipf.layers() {
            extra.set(name, 1.0, 1);
        }
        extra.set("controller.steps", 1.0, 1);
        assert!(extra.finish(Workload::ServeZipf).is_err());
    }

    #[test]
    fn end_to_end_reports_each_metric_once_in_order() {
        let w = Window {
            latencies_ms: vec![3.0, 1.0, 2.0, 10.0],
            tally: Tally {
                attempted: 4,
                failed: 0,
            },
            wall_s: 2.0,
            cpu_ms: 8.0,
        };
        let m = end_to_end(&[0.5, 0.7, 0.6], &w, 12.0);
        let names: Vec<&str> = m.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert_eq!(m[0].value, 0.6);
        assert_eq!(m[1].value, 2.5);
        assert_eq!(m[2].value, 10.0);
        assert_eq!(m[3].value, 2.0);
        assert_eq!(m[4].value, 2.0);
        assert_eq!(m[5].value, 12.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "latency_p50_ms",
                unit: "ms",
                value: 1.25,
                samples: 3,
            }],
        };
        let line = result_line(&o);
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        let top = doc.as_object().unwrap();
        assert_eq!(top.len(), 4);
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(top.contains_key(key), "{key}");
        }
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[]), 0.0);
    }
}
