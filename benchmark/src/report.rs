//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the only metrics the benchmark
//! prints, in this order; `BENCHMARK.json` at the repository root declares
//! the same names and units (a unit test holds the two together).

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported for every workload by an
/// untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_fns_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("allocs_per_fn", "count"),
    ("remaining_copies", "count"),
    ("weighted_copies", "ratio"),
    ("code_insts", "count"),
    ("exec_steps", "ratio"),
];

/// Per-layer metrics `(layer, name, unit)`, reported for every workload by
/// a traced run. A layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("ssa", "ssa.construct_ms", "ms"),
    ("ssa", "ssa.copyprop_ms", "ms"),
    ("ssa", "ssa.dce_ms", "ms"),
    ("ssa", "ssa.cssa_check_ms", "ms"),
    ("ssa", "ssa.phis_inserted", "count"),
    ("liveness", "liveness.ms", "ms"),
    ("liveness", "liveness.sets_computed", "count"),
    ("liveness", "liveness.fast_computed", "count"),
    ("liveness", "liveness.incremental_repairs", "count"),
    ("liveness", "liveness.fallbacks", "count"),
    ("core.insertion", "insertion.ms", "ms"),
    ("core.insertion", "insertion.moves_inserted", "count"),
    ("core.insertion", "insertion.edges_split", "count"),
    ("core.coalesce", "coalesce.ms", "ms"),
    ("core.coalesce", "coalesce.setup_ms", "ms"),
    ("core.coalesce", "coalesce.affinity_ms", "ms"),
    ("core.coalesce", "coalesce.decide_ms", "ms"),
    ("core.coalesce", "coalesce.sharing_ms", "ms"),
    ("core.coalesce", "coalesce.snapshot_ms", "ms"),
    ("core.coalesce", "coalesce.rewrite_ms", "ms"),
    ("core.coalesce", "coalesce.queries", "count"),
    ("core.coalesce", "coalesce.moves_coalesced", "count"),
    ("core.coalesce", "coalesce.coalesced_ratio", "ratio"),
    ("core.coalesce", "coalesce.queries_per_coalesced", "ratio"),
    ("core.parallel_copy", "sequentialize.ms", "ms"),
    ("core.parallel_copy", "sequentialize.copies_out", "count"),
    ("core.validate", "validate.ms", "ms"),
    ("regalloc", "regalloc.ms", "ms"),
    ("regalloc", "regalloc.spills", "count"),
    ("regalloc", "regalloc.registers_used", "count"),
    ("ir.fnpool", "pool.checkouts", "count"),
    ("ir.fnpool", "pool.recycle_ratio", "ratio"),
    ("ir.fnpool", "allocs.translate_per_fn", "count"),
    ("service", "service.admission_us", "us"),
    ("service", "service.queue_wait_p50_us", "us"),
    ("service", "service.queue_wait_p99_us", "us"),
    ("service", "service.translate_p50_us", "us"),
    ("service", "service.overhead_p50_us", "us"),
    ("service", "service.run_p99_ms", "ms"),
    ("service", "service.gen_late_p99_us", "us"),
    ("service", "service.refused", "count"),
    ("interp", "oracle.ms", "ms"),
    ("interp", "oracle.mismatches", "count"),
    ("trace", "trace.accounted_share", "ratio"),
    ("trace", "trace.overhead_share", "ratio"),
];

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` for the catalogued metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.1 == name),
            "{name} is not a catalogued metric"
        );
        assert!(value.is_finite(), "{name} = {value} is not finite");
        self.values.insert(name, value);
    }

    /// The recorded value of `name` (0 when the workload does not exercise
    /// it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Outcome counts of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted (compilations or requests).
    pub attempted: u64,
    /// Operations that failed: a wrong output, a typed error, a refusal.
    pub failed: u64,
}

fn catalogue(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|&(_, name, unit)| (name, unit)).collect()
    } else {
        END_TO_END.to_vec()
    }
}

/// Human-readable table of the run's metrics (per layer when traced).
pub fn table(metrics: &Metrics, traced: bool) -> String {
    let mut out = String::new();
    if traced {
        for &(layer, name, unit) in PER_LAYER {
            out += &format!("{layer:<20} {name:<34} {:>16.6} {unit}\n", metrics.get(name));
        }
    } else {
        for &(name, unit) in END_TO_END {
            out += &format!("{name:<22} {:>18.6} {unit}\n", metrics.get(name));
        }
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every catalogued metric of the mode.
pub fn json(metrics: &Metrics, outcome: Outcome, traced: bool) -> String {
    let body: Vec<String> = catalogue(traced)
        .into_iter()
        .map(|(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", metrics.get(name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let _serial = crate::tests::serial();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit) in catalogue(false).into_iter().chain(catalogue(true)) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "undeclared metrics in BENCHMARK.json"
        );
    }

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let _serial = crate::tests::serial();
        let mut metrics = Metrics::default();
        metrics.set("latency_p50_ms", 1.25);
        let line = json(&metrics, Outcome { attempted: 3, failed: 0 }, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
