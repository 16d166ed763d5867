//! CI bench regression gate.
//!
//! Compares the serial-translation seconds of a freshly produced
//! `BENCH_fig6.json` against the committed `BENCH_baseline.json` and exits
//! non-zero when the current numbers regress beyond a tolerance, failing the
//! CI job. Every numeric check is one row `(report, key, reference, bound)`
//! of a single table, evaluated by one loop: the bound is at most
//! `ref × (1 + tol) + floor`, at least `ref × (1 − tol)`, or exactly `ref`,
//! where `ref` is the baseline's value of the key or another key of the
//! current report. Checked:
//!
//! 1. `batch_serial_seconds`, `seed_style_serial_seconds`,
//!    `streaming_serial_seconds` and `batch_serial_validated_seconds` (the
//!    self-checking engine: serial batch under Structural output validation)
//!    each within `(1 + tolerance)` of the committed baseline (absolute
//!    trajectory);
//! 2. `batch_serial_seconds ≤ seed_style_serial_seconds × 1.10` (the batch
//!    engine must not fall behind the naive per-function loop — the
//!    regression an earlier PR fixed);
//! 3. `streaming_serial_seconds ≤ batch_serial_seconds × 1.10` (draining an
//!    iterator must stay within noise of draining a slice — the streaming
//!    front end adds a queue pull and an output move per function, nothing
//!    that may grow with function size);
//! 4. the per-phase seconds (`liveness`/`coalesce`/`sequentialize`) each
//!    within tolerance of the baseline, with a 1 ms absolute floor so the
//!    sub-millisecond phases do not flap on scheduler jitter — a phase-local
//!    regression can no longer hide behind an improvement elsewhere;
//! 5. the serial allocation counts (`seed_style`/`batch`/`streaming`) and
//!    the serial interference-query count
//!    (`batch_serial_interference_queries`) within their own tight
//!    tolerance (`BENCH_GATE_ALLOC_TOLERANCE`, default 2%) of the baseline
//!    — both counters are deterministic and machine-independent, so the
//!    wide timing tolerance of hosted runners must not apply: steady-state
//!    allocation-freedom and the coalescer's batched-query reduction cannot
//!    silently regress even when timing jitter masks them;
//! 6. the pooled streaming engine's steady-state allocations per translated
//!    function (`streaming_steady_state_allocations`) within the allocation
//!    tolerance of the baseline, and — machine-independently, within the
//!    current report alone — *flat across corpus scale*: the per-function
//!    count measured over 2× the corpus
//!    (`streaming_steady_state_allocations_2x`) must match the 1× count
//!    within the allocation tolerance plus a half-allocation floor. A
//!    steady-state cost that grows with how many functions have already
//!    streamed through (a leaked cache, storage that is not recycled)
//!    fails here even on a noisy runner;
//! 7. the per-phase timing, allocation-count and Figure 5 static-copy
//!    fields are present, so the perf trajectory never silently loses
//!    instrumentation.
//!
//! 8. the translation *service* report (`service_bench --json`):
//!    `service_throughput_fns_per_sec` as a **lower** bound (the saturated
//!    service must not lose throughput) and `service_p99_seconds` as an
//!    upper bound (per-request translate tail latency stays bounded), both
//!    under the timing tolerance, plus the deterministic scripted-overload
//!    counters (shed / queue-expiry / degradation transitions) to *exact*
//!    equality — the overload model's behaviour is machine-independent, so
//!    any drift is a semantic change, not noise.
//!
//! Usage: `bench_gate [current.json] [baseline.json] [service.json]
//! [service_baseline.json]`, defaulting to `BENCH_fig6.json`,
//! `BENCH_baseline.json`, `BENCH_service.json` and
//! `BENCH_service_baseline.json`. The service comparison runs whenever
//! either service file exists (CI always produces one); a missing
//! counterpart is then a failure, not a skip. The tolerance defaults to
//! 0.15 and can be overridden with `BENCH_GATE_TOLERANCE` (a fraction, e.g.
//! `0.25`) for noisier machines.

use std::process::ExitCode;

/// Extracts the number following `"key":` in `json`. Whitespace-tolerant,
/// no external dependencies (the build environment is offline).
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Collects every `"key": <number>` field name of `json`, in order of
/// appearance (the same dependency-free scanning discipline as
/// [`extract_number`]).
fn numeric_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        let key = &after[..end];
        let tail = after[end + 1..].trim_start();
        if let Some(value) = tail.strip_prefix(':') {
            let value = value.trim_start();
            if value.starts_with(|c: char| c.is_ascii_digit() || c == '-')
                && !keys.iter().any(|k| k == key)
            {
                keys.push(key.to_string());
            }
        }
        rest = &after[end + 1..];
    }
    keys
}

/// Prints a field-by-field comparison of every numeric field of the two
/// reports — run when a *gated* field is missing, so the CI log shows at a
/// glance which side lost which instrumentation (a renamed field shows up as
/// one MISSING on each side) instead of a bare per-key error.
fn print_field_diff(reports: &Reports) {
    let Reports { current, current_path, baseline, baseline_path } = reports;
    eprintln!("numeric-field diff ({current_path} vs {baseline_path}):");
    let mut keys = numeric_keys(current);
    for key in numeric_keys(baseline) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for key in &keys {
        match (extract_number(current, key), extract_number(baseline, key)) {
            (Some(cur), Some(base)) => eprintln!("  {key}: {cur} vs {base}"),
            (Some(cur), None) => eprintln!("  {key}: {cur} vs MISSING from {baseline_path}"),
            (None, Some(base)) => eprintln!("  {key}: MISSING from {current_path} vs {base}"),
            (None, None) => {}
        }
    }
}

/// One side-by-side pair of reports: a freshly produced one and its
/// committed baseline.
struct Reports {
    current: String,
    current_path: String,
    baseline: String,
    baseline_path: String,
}

impl Reports {
    /// The seconds comparisons are meaningless across different corpus
    /// scales: a report regenerated at a smaller scale would pass trivially.
    fn scale_matches(&self) -> bool {
        match (extract_number(&self.current, "scale"), extract_number(&self.baseline, "scale")) {
            (Some(cur), Some(base)) if cur == base => true,
            (cur, base) => {
                eprintln!(
                    "scale mismatch: current {cur:?} vs baseline {base:?} — regenerate {} at the \
                     baseline's scale",
                    self.current_path
                );
                false
            }
        }
    }
}

/// The report a gate row reads.
#[derive(Clone, Copy)]
enum Report {
    Fig6 = 0,
    Service = 1,
}

/// How a gated value is bounded by its reference value `ref`.
#[derive(Clone, Copy)]
enum Bound {
    /// At most `ref × (1 + tol) + floor`; `floor` is an absolute slack.
    AtMost { tol: f64, floor: f64 },
    /// At least `ref × (1 − tol)`.
    AtLeast { tol: f64 },
    /// Exactly `ref`.
    Exact,
}

impl Bound {
    fn limit(self, reference: f64) -> f64 {
        match self {
            Bound::AtMost { tol, floor } => reference * (1.0 + tol) + floor,
            Bound::AtLeast { tol } => reference * (1.0 - tol),
            Bound::Exact => reference,
        }
    }

    fn holds(self, value: f64, limit: f64) -> bool {
        match self {
            Bound::AtMost { .. } => value <= limit,
            Bound::AtLeast { .. } => value >= limit,
            Bound::Exact => value == limit,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bound::AtMost { .. } => "limit",
            Bound::AtLeast { .. } => "floor",
            Bound::Exact => "exact",
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).cloned().unwrap_or_else(|| default.to_string());
    let current_path = arg(0, "BENCH_fig6.json");
    let baseline_path = arg(1, "BENCH_baseline.json");
    let service_path = arg(2, "BENCH_service.json");
    let service_baseline_path = arg(3, "BENCH_service_baseline.json");
    let tolerance: f64 =
        std::env::var("BENCH_GATE_TOLERANCE").ok().and_then(|t| t.parse().ok()).unwrap_or(0.15);
    // Allocation counts are deterministic and machine-independent, so they
    // get their own tight tolerance (`BENCH_GATE_ALLOC_TOLERANCE`, default
    // 2%) instead of the timing tolerance — on hosted runners the timing
    // tolerance is widened to 35%, which would let a sizeable allocation
    // regression land silently.
    let alloc_tolerance: f64 = std::env::var("BENCH_GATE_ALLOC_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.02);

    let read = |path: &str| -> Option<String> {
        match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(err) => {
                eprintln!("bench_gate: cannot read {path}: {err}");
                None
            }
        }
    };
    let load = |current_path: String, baseline_path: String| {
        let (current, baseline) = (read(&current_path), read(&baseline_path));
        Some(Reports { current: current?, current_path, baseline: baseline?, baseline_path })
    };
    let Some(fig6) = load(current_path, baseline_path) else {
        return ExitCode::FAILURE;
    };
    // The translation-service gate runs whenever either service report
    // exists (the explicit-skip alternative would let CI silently drop the
    // overload-model trajectory by failing to produce the report).
    let service_requested = args.len() > 2
        || std::path::Path::new(&service_path).exists()
        || std::path::Path::new(&service_baseline_path).exists();
    let service = if service_requested {
        let Some(service) = load(service_path, service_baseline_path) else {
            return ExitCode::FAILURE;
        };
        Some(service)
    } else {
        None
    };

    let mut failures = 0u32;
    for reports in std::iter::once(&fig6).chain(&service) {
        if !reports.scale_matches() {
            failures += 1;
        }
    }

    use Report::{Fig6, Service};
    // Totals and counts: relative slack only.
    let timing = Bound::AtMost { tol: tolerance, floor: 0.0 };
    let count = Bound::AtMost { tol: alloc_tolerance, floor: 0.0 };
    // Per-phase seconds: their baselines are sub-millisecond and would
    // otherwise flap on scheduler jitter, hence the 1 ms floor.
    let phase = Bound::AtMost { tol: tolerance, floor: 0.001 };
    // Per-function steady state: the half-allocation floor keeps a near-zero
    // reference from turning sub-allocation jitter into a failure while
    // still catching any real per-function cost.
    let per_function = Bound::AtMost { tol: alloc_tolerance, floor: 0.5 };
    // Two keys of the *current* report, sampled interleaved (min-of-5), so a
    // systematic gap is well above shared-runner noise at 10% slack.
    let relative = Bound::AtMost { tol: 0.10, floor: 0.0 };

    // Every gate: (report, key, reference, bound). The reference is the
    // baseline's value of the same key (`None`) or another key of the
    // current report.
    let rows: [(Report, &str, Option<&str>, Bound); 21] = [
        (Fig6, "batch_serial_seconds", None, timing),
        (Fig6, "seed_style_serial_seconds", None, timing),
        (Fig6, "streaming_serial_seconds", None, timing),
        // The self-checking engine (serial batch under Structural output
        // validation): tracked so the cost of "always validate" stays on the
        // trajectory — a validator that quietly turns quadratic fails here,
        // not in a user's JIT.
        (Fig6, "batch_serial_validated_seconds", None, timing),
        // Per-phase bounds: a regression localized to one phase must fail
        // even when another phase's improvement hides it in the total.
        (Fig6, "liveness", None, phase),
        (Fig6, "coalesce", None, phase),
        (Fig6, "sequentialize", None, phase),
        (Fig6, "seed_style_serial_allocations", None, count),
        (Fig6, "batch_serial_allocations", None, count),
        (Fig6, "streaming_serial_allocations", None, count),
        // Interference queries are as deterministic as allocation counts:
        // the decide() loop issues them in a fixed order, so a lost batching
        // optimisation (e.g. the merge-sweep falling back to per-pair tests)
        // fails here even when the timing gate's jitter headroom would hide
        // it.
        (Fig6, "batch_serial_interference_queries", None, count),
        (Fig6, "streaming_steady_state_allocations", None, per_function),
        // Steady-state flatness across corpus scale: per-function
        // allocations over 2× the corpus must match the 1× measurement of
        // the same run. If translating function N+1 costs more because N
        // functions already streamed through, the 2× number exceeds the 1×.
        (
            Fig6,
            "streaming_steady_state_allocations_2x",
            Some("streaming_steady_state_allocations"),
            per_function,
        ),
        // The batch engine must not fall behind the seed-style per-function
        // loop (the regression an earlier PR fixed), and the streaming front
        // end must not fall behind the batch engine (an iterator adds a
        // queue pull and an output move per function, nothing that may grow
        // with function size).
        (Fig6, "batch_serial_seconds", Some("seed_style_serial_seconds"), relative),
        (Fig6, "streaming_serial_seconds", Some("batch_serial_seconds"), relative),
        // Throughput is the one lower-bounded gate: the saturated service
        // must keep up with the baseline within the timing tolerance.
        (Service, "service_throughput_fns_per_sec", None, Bound::AtLeast { tol: tolerance }),
        // Tail latency. The 2 ms floor covers one scheduler preemption
        // landing inside the timed window on a shared runner (the baseline
        // p99 is tens of microseconds); a real tail regression — a lock
        // convoy, serialized workers — is well above it.
        (Service, "service_p99_seconds", None, Bound::AtMost { tol: tolerance, floor: 0.002 }),
        // The scripted-overload counters are deterministic functions of the
        // corpus scale: any drift is a semantic change, not noise.
        (Service, "service_overload_shed", None, Bound::Exact),
        (Service, "service_overload_expired_in_queue", None, Bound::Exact),
        (Service, "service_overload_degraded_transitions", None, Bound::Exact),
        (Service, "service_overload_recovered_transitions", None, Bound::Exact),
    ];

    let mut missing_fields = [false; 2];
    for (report, key, reference, bound) in rows {
        let reports = match report {
            Fig6 => &fig6,
            Service => match &service {
                Some(service) => service,
                None => continue,
            },
        };
        let (ref_name, ref_key, ref_doc, ref_path) = match reference {
            None => ("baseline", key, &reports.baseline, &reports.baseline_path),
            Some(other) => (other, other, &reports.current, &reports.current_path),
        };
        match (extract_number(&reports.current, key), extract_number(ref_doc, ref_key)) {
            (Some(cur), Some(reference)) => {
                let limit = bound.limit(reference);
                let holds = bound.holds(cur, limit);
                let verdict = if holds { "ok" } else { "REGRESSION" };
                println!(
                    "{key}: current {cur:.6} vs {ref_name} {reference:.6} ({} {limit:.6}) — \
                     {verdict}",
                    bound.name()
                );
                if !holds {
                    failures += 1;
                }
            }
            (cur, _) => {
                let (key, path) =
                    if cur.is_none() { (key, &reports.current_path) } else { (ref_key, ref_path) };
                eprintln!("{key}: missing from {path}");
                failures += 1;
                missing_fields[report as usize] = true;
            }
        }
    }

    // Instrumentation presence: the Figure 5 static-copy counts (the
    // ROADMAP quality check tracks the Sreedhar III vs Sharing ordering
    // across PRs through them). The timing and allocation fields are
    // already exercised by the rows above.
    if !fig6.current.contains("\"figure5_static_copies\"") {
        eprintln!(
            "figure5_static_copies: instrumentation field missing from {}",
            fig6.current_path
        );
        failures += 1;
    }

    // A gated field went missing: show the full numeric-field diff so the
    // CI log localizes the lost (or renamed) instrumentation immediately.
    for (reports, missing) in std::iter::once(&fig6).chain(&service).zip(missing_fields) {
        if missing {
            print_field_diff(reports);
        }
    }
    if service.is_none() {
        println!("service report absent on both sides — service gate skipped");
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} check(s) failed (tolerance {tolerance})");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all checks passed (tolerance {tolerance})");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCH_fig6.json`-shaped report: a nested `phase_seconds` object,
    /// the `streaming_pass_allocations` array and the nested `pool` object.
    const FIG6: &str = r#"{
  "scale": 1,
  "engines": [
    {"name": "Sreedhar III", "seconds": 0.047136}
  ],
  "batch_serial_seconds": 0.018711,
  "phase_seconds": {
    "liveness": 0.003442,
    "coalesce": 0.012868,
    "sequentialize": 0.000460
  },
  "batch_serial_allocations": 5364,
  "streaming_pass_allocations": [1807, 335, 333],
  "streaming_steady_state_allocations": 1.6750,
  "batch_serial_interference_queries": 32621,
  "liveness_fallbacks": 7,
  "pool": {
    "checkouts": 600,
    "discarded": 0
  }
}
"#;

    #[test]
    fn extracts_top_level_and_nested_fields_of_a_fig6_report() {
        assert_eq!(extract_number(FIG6, "scale"), Some(1.0));
        assert_eq!(extract_number(FIG6, "batch_serial_seconds"), Some(0.018711));
        assert_eq!(extract_number(FIG6, "coalesce"), Some(0.012868));
        assert_eq!(extract_number(FIG6, "sequentialize"), Some(0.000460));
        assert_eq!(extract_number(FIG6, "batch_serial_allocations"), Some(5364.0));
        assert_eq!(extract_number(FIG6, "streaming_steady_state_allocations"), Some(1.675));
        assert_eq!(extract_number(FIG6, "batch_serial_interference_queries"), Some(32621.0));
        assert_eq!(extract_number(FIG6, "checkouts"), Some(600.0));
        // An array value is not a number.
        assert_eq!(extract_number(FIG6, "streaming_pass_allocations"), None);
        assert_eq!(extract_number(FIG6, "phase_seconds"), None);
    }

    #[test]
    fn a_key_never_matches_a_longer_key_it_prefixes() {
        // `liveness_fallbacks` appears after `liveness` here; the scanner
        // must stop at the closing quote of the exact key either way.
        assert_eq!(extract_number(FIG6, "liveness"), Some(0.003442));
        assert_eq!(extract_number(FIG6, "liveness_fallbacks"), Some(7.0));
        let fallbacks_first = r#"{"liveness_fallbacks": 7, "liveness": 0.5}"#;
        assert_eq!(extract_number(fallbacks_first, "liveness"), Some(0.5));
    }

    #[test]
    fn parses_exponent_and_negative_numbers() {
        let json = r#"{"a": 1.5e-3, "b": -2, "c": -4.25E+2, "d":3e2}"#;
        assert_eq!(extract_number(json, "a"), Some(0.0015));
        assert_eq!(extract_number(json, "b"), Some(-2.0));
        assert_eq!(extract_number(json, "c"), Some(-425.0));
        assert_eq!(extract_number(json, "d"), Some(300.0));
        assert_eq!(numeric_keys(json), ["a", "b", "c", "d"]);
    }

    #[test]
    fn a_missing_key_is_none() {
        assert_eq!(extract_number(FIG6, "service_overload_shed"), None);
        assert_eq!(extract_number("", "scale"), None);
        // A key with no `:` after it (here: a string value) is not a field.
        assert_eq!(extract_number(r#"{"name": "scale"}"#, "scale"), None);
    }

    #[test]
    fn numeric_keys_lists_every_numeric_field_once_in_order() {
        assert_eq!(
            numeric_keys(FIG6),
            [
                "scale",
                "seconds",
                "batch_serial_seconds",
                "liveness",
                "coalesce",
                "sequentialize",
                "batch_serial_allocations",
                "streaming_steady_state_allocations",
                "batch_serial_interference_queries",
                "liveness_fallbacks",
                "checkouts",
                "discarded",
            ]
        );
    }

    #[test]
    fn bounds_compute_their_limits_and_verdicts() {
        let at_most = Bound::AtMost { tol: 0.10, floor: 0.5 };
        assert_eq!(at_most.limit(10.0), 11.5);
        assert!(at_most.holds(11.5, 11.5) && !at_most.holds(11.6, 11.5));
        let at_least = Bound::AtLeast { tol: 0.25 };
        assert_eq!(at_least.limit(100.0), 75.0);
        assert!(at_least.holds(75.0, 75.0) && !at_least.holds(74.9, 75.0));
        assert_eq!(Bound::Exact.limit(2.0), 2.0);
        assert!(Bound::Exact.holds(2.0, 2.0) && !Bound::Exact.holds(3.0, 2.0));
        // A relative bound reproduces the old `num ≤ den × 1.10` limit.
        assert_eq!(Bound::AtMost { tol: 0.10, floor: 0.0 }.limit(3.0), 3.0 * 1.10);
    }
}
