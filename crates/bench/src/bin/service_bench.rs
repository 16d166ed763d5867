//! Throughput and tail-latency report of the overload-resilient translation
//! service ([`ossa_service`]), plus its CI smoke check.
//!
//! Default mode measures three things over the simulated SPEC corpus and
//! writes a flat JSON report (default `BENCH_service.json`):
//!
//! 1. **Serial capacity** — the direct batch engine over the corpus, the
//!    calibration figure the service throughput is compared against;
//! 2. **Saturated service throughput and tail latency** — a closed-loop run
//!    (the whole corpus admitted at once, persistent workers draining it):
//!    `service_throughput_fns_per_sec` (gated by `bench_gate` as a *lower*
//!    bound) and per-request translate-latency quantiles
//!    `service_p50_seconds` / `service_p95_seconds` / `service_p99_seconds`
//!    (p99 gated as an *upper* bound). Min-of-N across samples, like the
//!    other timing reports;
//! 3. **Scripted overload counters** — the deterministic pause-script of
//!    [`ossa_bench::service_load::scripted_overload_stats`]: shed, queue
//!    expiry and degradation-ladder transitions, machine-independent and
//!    gated to exact equality, plus the (ungated) deadline-expiry count.
//!    This report is the only place the overload counters are measured.
//!
//! `--smoke` instead runs a small corpus with assertions on: every
//! submission admitted, every accepted request resolved exactly once with a
//! typed outcome, every output bit-identical to the direct isolated engine,
//! and the scripted overload producing exactly its predicted counters. Any
//! violation exits non-zero (the CI `service` job runs this).
//!
//! Usage: `service_bench [scale] [--smoke] [--workers N] [--samples N]
//! [--json PATH]` (defaults: the shared corpus scale, 2 workers, 3 samples).

use std::time::Instant;

use ossa_bench::service_load::scripted_overload_stats;
use ossa_bench::{corpus, DEFAULT_SCALE};
use ossa_destruct::{
    translate_corpus, EnginePolicy, EngineWorker, Limits, OutOfSsaOptions, ValidationMode,
};
use ossa_ir::Function;
use ossa_service::{ServiceConfig, ServiceResponse, ServiceStats, TranslationService};

fn flatten(scale: f64) -> Vec<Function> {
    corpus(scale).into_iter().flat_map(|w| w.functions).collect()
}

/// Warm-up requests per worker that [`service_pass`] pushes through the
/// service before the timed window (they count toward the final
/// [`ServiceStats`], not toward the returned responses).
const WARMUP_PER_WORKER: usize = 4;

/// Minimum serial batch-engine seconds over `samples` runs (after one
/// warm-up), the capacity calibration.
fn serial_seconds(functions: &[Function], options: &OutOfSsaOptions, samples: usize) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..=samples.max(1) {
        let mut work = functions.to_vec();
        let start = Instant::now();
        let _ = translate_corpus(&mut work, options, 1);
        let elapsed = start.elapsed().as_secs_f64();
        if i > 0 {
            best = best.min(elapsed);
        }
    }
    best
}

/// One closed-loop saturated pass: the whole corpus admitted up front,
/// `workers` persistent workers draining it. The workers are warmed with a
/// few requests before the timed window, so the measured quantiles reflect
/// the steady state of a persistent service rather than the one-off pool
/// and cache growth of a cold engine (which would otherwise own the p99 of
/// a small corpus). Returns the wall-clock of the submit-to-last-reply
/// window, the timed responses in submission order, and the final service
/// statistics.
fn service_pass(
    functions: &[Function],
    workers: usize,
    validation: ValidationMode,
) -> (f64, Vec<ServiceResponse>, ServiceStats) {
    let service = TranslationService::start(ServiceConfig {
        workers,
        queue_capacity: functions.len().max(1),
        validation,
        ..ServiceConfig::default()
    });
    let warmups: Vec<_> = functions
        .iter()
        .take(WARMUP_PER_WORKER * workers)
        .map(|func| service.submit(func.clone()).expect("queue sized to the whole corpus"))
        .collect();
    for ticket in warmups {
        let _ = ticket.wait();
    }
    let work = functions.to_vec();
    let start = Instant::now();
    let tickets: Vec<_> = work
        .into_iter()
        .map(|func| service.submit(func).expect("queue sized to the whole corpus"))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let wall = start.elapsed().as_secs_f64();
    (wall, responses, service.shutdown())
}

/// Upper-bound quantile of a sorted sample set (the value at the ceiling
/// rank, conservative like the service histograms).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The direct isolated-engine reference outputs (rung-0 configuration) the
/// smoke check holds the service to, bit for bit.
fn references(functions: &[Function], validation: ValidationMode) -> Vec<Function> {
    let options = OutOfSsaOptions::default();
    let policy = EnginePolicy::validating(validation);
    let mut worker = EngineWorker::new();
    functions
        .iter()
        .map(|func| {
            let mut func = func.clone();
            worker
                .translate_isolated(&mut func, &options, &Limits::default(), &policy)
                .expect("healthy corpus function translates");
            func
        })
        .collect()
}

fn smoke(scale: f64, workers: usize) {
    let functions = flatten(scale);
    let validation = ValidationMode::Structural;
    let expected = references(&functions, validation);

    let (_, responses, stats) = service_pass(&functions, workers, validation);
    assert_eq!(responses.len(), functions.len(), "one reply per accepted request");
    let mut ids = std::collections::BTreeSet::new();
    for (i, response) in responses.iter().enumerate() {
        assert!(ids.insert(response.id), "duplicate reply for request {}", response.id);
        let completed = response
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed on a healthy corpus: {e}"));
        assert_eq!(completed.rung, 0, "request {i}: no overload, full fidelity");
        assert_eq!(
            completed.func, expected[i],
            "request {i} ({}): service output diverged from the direct engine",
            expected[i].name
        );
    }
    let warmup = functions.len().min(WARMUP_PER_WORKER * workers) as u64;
    assert_eq!(stats.completed, functions.len() as u64 + warmup);
    assert_eq!(stats.failed + stats.shed + stats.expired_in_queue + stats.deadline_exceeded, 0);
    assert_eq!(stats.resolved(), stats.accepted);

    let segment: Vec<Function> = functions.iter().take(16).cloned().collect();
    let capacity = segment.len() / 2;
    let overload = scripted_overload_stats(&segment);
    assert_eq!(overload.shed, (segment.len() + 2 - capacity) as u64);
    assert_eq!(overload.expired_in_queue, 2);
    assert_eq!(overload.degraded_transitions, 2);
    assert_eq!(overload.recovered_transitions, 2);
    assert_eq!(overload.resolved(), overload.accepted);
    assert_eq!(overload.level, 0, "the drain recovers the degradation level");

    println!(
        "service_bench --smoke: all checks passed ({} functions, {workers} workers, \
         {} scripted-overload requests)",
        functions.len(),
        overload.accepted
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<f64> = None;
    let mut workers = 2usize;
    let mut samples = 3usize;
    let mut json_path = "BENCH_service.json".to_string();
    let mut smoke_mode = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke_mode = true;
                i += 1;
            }
            "--workers" => {
                workers = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(workers);
                i += 2;
            }
            "--samples" => {
                samples = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(samples);
                i += 2;
            }
            "--json" => {
                json_path = args.get(i + 1).cloned().unwrap_or(json_path);
                i += 2;
            }
            other => {
                if let Ok(s) = other.parse::<f64>() {
                    scale = Some(s);
                } else {
                    eprintln!("unknown argument: {other}");
                    eprintln!(
                        "usage: service_bench [scale] [--smoke] [--workers N] [--samples N] \
                         [--json PATH]"
                    );
                    std::process::exit(2);
                }
                i += 1;
            }
        }
    }

    if smoke_mode {
        // The smoke check is correctness, not timing: a small corpus keeps
        // the CI job fast unless a scale was given explicitly.
        smoke(scale.unwrap_or(0.1), workers);
        return;
    }
    let scale = scale.unwrap_or(DEFAULT_SCALE);
    let functions = flatten(scale);
    let options = OutOfSsaOptions::default();

    let serial = serial_seconds(&functions, &options, samples);
    let capacity = functions.len() as f64 / serial;
    println!(
        "serial capacity at scale {scale}: {} functions in {serial:.4}s ({capacity:.0} fns/s)",
        functions.len()
    );

    // Warm-up pass, then min-of-N: best throughput and best quantiles
    // across the samples (per-request translate latency, not queue wait —
    // a saturated closed loop makes queue wait proportional to corpus
    // size, which would gate the corpus, not the service).
    let _ = service_pass(&functions, workers, ValidationMode::Off);
    let mut throughput = 0.0f64;
    let mut p50 = f64::INFINITY;
    let mut p95 = f64::INFINITY;
    let mut p99 = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let (wall, responses, stats) = service_pass(&functions, workers, ValidationMode::Off);
        assert_eq!(
            stats.failed, 0,
            "a healthy corpus function failed through the service — not a perf regression, a bug"
        );
        throughput = throughput.max(functions.len() as f64 / wall);
        let mut latencies: Vec<f64> = responses
            .iter()
            .map(|r| r.outcome.as_ref().expect("healthy corpus").translate_seconds)
            .collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        p50 = p50.min(quantile(&latencies, 0.50));
        p95 = p95.min(quantile(&latencies, 0.95));
        p99 = p99.min(quantile(&latencies, 0.99));
    }
    println!(
        "service ({workers} workers, saturated): {throughput:.0} fns/s, translate latency \
         p50 {p50:.6}s  p95 {p95:.6}s  p99 {p99:.6}s"
    );

    let segment: Vec<Function> = functions.iter().take(16).cloned().collect();
    let overload = scripted_overload_stats(&segment);
    println!(
        "scripted overload: {} accepted, {} shed, {} expired in queue, {} deadline expiries, \
         {} degraded / {} recovered transitions",
        overload.accepted,
        overload.shed,
        overload.expired_in_queue,
        overload.deadline_exceeded,
        overload.degraded_transitions,
        overload.recovered_transitions
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"functions\": {},\n", functions.len()));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"serial_capacity_fns_per_sec\": {capacity:.2},\n"));
    json.push_str(&format!("  \"service_throughput_fns_per_sec\": {throughput:.2},\n"));
    json.push_str(&format!("  \"service_p50_seconds\": {p50:.6},\n"));
    json.push_str(&format!("  \"service_p95_seconds\": {p95:.6},\n"));
    json.push_str(&format!("  \"service_p99_seconds\": {p99:.6},\n"));
    json.push_str(&format!("  \"service_overload_accepted\": {},\n", overload.accepted));
    json.push_str(&format!("  \"service_overload_completed\": {},\n", overload.completed));
    json.push_str(&format!("  \"service_overload_shed\": {},\n", overload.shed));
    json.push_str(&format!(
        "  \"service_overload_expired_in_queue\": {},\n",
        overload.expired_in_queue
    ));
    json.push_str(&format!(
        "  \"service_overload_deadline_exceeded\": {},\n",
        overload.deadline_exceeded
    ));
    json.push_str(&format!(
        "  \"service_overload_degraded_transitions\": {},\n",
        overload.degraded_transitions
    ));
    json.push_str(&format!(
        "  \"service_overload_recovered_transitions\": {}\n",
        overload.recovered_transitions
    ));
    json.push_str("}\n");
    std::fs::write(&json_path, json).expect("write service report JSON");
    println!("wrote {json_path}");
}
