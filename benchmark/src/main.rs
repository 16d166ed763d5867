//! End-to-end and per-layer benchmark of the out-of-SSA pipeline and the
//! translation service.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload spec_jit|large_fn|service_open --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. Any failed operation
//! (a wrong output, a typed error, a refused request) makes the exit code
//! non-zero. See `benchmark/README.md` for the workloads and the metrics.

mod calib;
mod compile;
mod inputs;
mod probe;
mod report;
mod service;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::{Calibrator, Kernel};
use report::{Metrics, Outcome};

#[global_allocator]
static ALLOCATOR: probe::CountingAllocator = probe::CountingAllocator;

/// Set-up is repeated this often per run and its median reported: one
/// set-up alone moved by 7% between identical runs.
const SETUPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SpecJit,
    LargeFn,
    ServiceOpen,
}

/// Input sizes of the workloads.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    /// Seed-shifted copies of the 200 SPEC-shaped functions.
    spec_copies: usize,
    /// Large functions.
    large_fns: usize,
    /// Distinct small functions the service requests cycle through.
    service_fns: usize,
}

/// The benchmark's sizes. Sums over random functions move with the seed;
/// these populations keep every count within a few percent across seeds,
/// and give the compile tails ten functions beyond p99.58 and p93.75.
const FULL: Sizes = Sizes { spec_copies: 12, large_fns: 160, service_fns: 8192 };

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "spec_jit" => Workload::SpecJit,
                    "large_fn" => Workload::LargeFn,
                    "service_open" => Workload::ServiceOpen,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {value} is outside (0, 60]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs `make` [`SETUPS`] times, keeping the last result; returns it with
/// the median set-up time, each scaled to the reference host speed by a
/// calibration right after it. Set-up is generation and interpretation,
/// small-structure work, so every workload scales it with the mixed kernel.
/// Earlier results are handed to `discard`.
fn timed_setup<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut calibrator = Calibrator::new(Kernel::Mixed);
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = Instant::now();
        kept = Some(make()?);
        let seconds = start.elapsed().as_secs_f64();
        times.push(seconds * calibrator.factor());
    }
    stats::sort(&mut times);
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// What a run produced besides its metrics.
struct Run {
    outcome: Outcome,
    /// Hash of the workload's inputs.
    input_hash: u64,
    /// Hash of the verified translated outputs.
    output_hash: u64,
}

/// Runs one workload and fills `metrics`.
fn run(args: &Args, sizes: Sizes, metrics: &mut Metrics) -> Result<Run, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let seed = args.seed;
    let calibrator = &mut Calibrator::new(match args.workload {
        Workload::LargeFn => Kernel::Dataflow,
        Workload::SpecJit | Workload::ServiceOpen => Kernel::Mixed,
    });
    match args.workload {
        Workload::SpecJit | Workload::LargeFn => {
            let generate = || match args.workload {
                Workload::SpecJit => inputs::spec_jit_inputs(seed, sizes.spec_copies),
                _ => inputs::large_fn_inputs(seed, sizes.large_fns),
            };
            let (mut setup, setup_s) =
                timed_setup(|| compile::CompileSetup::new(seed, generate()), drop)?;
            let input_hash = inputs::hash_functions(&setup.inputs);
            let (outcome, outputs) = if args.trace {
                compile::run_traced(&mut setup, calibrator, budget, metrics)
            } else {
                let run = compile::run_untraced(&mut setup, calibrator, budget);
                let checked = compile::check_outputs(&setup.oracle, &run.outputs);
                metrics.set("setup_s", setup_s);
                (compile::end_to_end(&setup, &run, &checked, metrics), run.outputs)
            };
            Ok(Run { outcome, input_hash, output_hash: inputs::hash_functions(&outputs) })
        }
        Workload::ServiceOpen => {
            let (mut setup, setup_s) = timed_setup(
                || {
                    service::ServiceSetup::new(
                        seed,
                        inputs::service_inputs(seed, sizes.service_fns),
                    )
                },
                |old| {
                    old.finish();
                },
            )?;
            let input_hash = inputs::hash_functions(setup.inputs());
            let output_hash = inputs::hash_functions(setup.expected());
            let outcome = if args.trace {
                let allocs = service::allocations_per_request(&mut setup)?;
                service::run_traced(setup, calibrator, args.seconds, allocs, metrics)
            } else {
                let run = service::run_open_loop(&mut setup, calibrator, args.seconds, false);
                let allocs = service::allocations_per_request(&mut setup)?;
                metrics.set("setup_s", setup_s);
                let outcome = service::end_to_end(&setup, &run, allocs, metrics);
                setup.finish();
                outcome
            };
            Ok(Run { outcome, input_hash, output_hash })
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("usage: --workload spec_jit|large_fn|service_open --seed N --seconds S --trace 0|1\n{why}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    let Run { outcome, input_hash, output_hash } = match run(&args, FULL, &mut metrics) {
        Ok(run) => run,
        Err(why) => {
            eprintln!("benchmark failed: {why}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("input hash {input_hash:016x}, output hash {output_hash:016x}");
    if !args.trace {
        metrics.set("peak_rss_mb", probe::peak_rss_mb().unwrap_or(0.0));
    }
    print!("{}", report::table(&metrics, args.trace));
    println!("{}", report::json(&metrics, outcome, args.trace));
    if outcome.failed > 0 {
        eprintln!("{} of {} operations failed", outcome.failed, outcome.attempted);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small inputs and short budgets: the properties checked here do not
    /// depend on size.
    const SMALL: Sizes = Sizes { spec_copies: 1, large_fns: 2, service_fns: 24 };

    const COUNTS: [&str; 5] =
        ["allocs_per_fn", "remaining_copies", "weighted_copies", "code_insts", "exec_steps"];

    fn small_run(workload: Workload, seed: u64, trace: bool) -> (Run, Metrics) {
        let args = Args { workload, seed, seconds: 0.2, trace };
        let mut metrics = Metrics::default();
        let run = run(&args, SMALL, &mut metrics).expect("the workload runs");
        assert_eq!(run.outcome.failed, 0, "{workload:?} seed {seed} trace {trace}");
        assert!(run.outcome.attempted > 0);
        (run, metrics)
    }

    /// Allocations are counted process-wide, so no test may allocate while a
    /// workload test counts: every test holds this lock.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn steadiness(workload: Workload) {
        let _serial = serial();
        let (first, first_metrics) = small_run(workload, 7, false);
        let (again, again_metrics) = small_run(workload, 7, false);
        assert_eq!(first.input_hash, again.input_hash);
        assert_eq!(first.output_hash, again.output_hash);
        for name in COUNTS {
            assert_eq!(first_metrics.get(name), again_metrics.get(name), "{workload:?} {name}");
            assert!(first_metrics.get(name) > 0.0, "{workload:?} {name} is 0");
        }
        let (traced, _) = small_run(workload, 7, true);
        assert_eq!(traced.output_hash, first.output_hash, "{workload:?} traced outputs differ");
        let (other, _) = small_run(workload, 8, false);
        assert_ne!(other.input_hash, first.input_hash, "{workload:?} ignores the seed");
    }

    #[test]
    fn spec_jit_is_steady() {
        steadiness(Workload::SpecJit);
    }

    #[test]
    fn large_fn_is_steady() {
        steadiness(Workload::LargeFn);
    }

    #[test]
    fn service_open_is_steady() {
        steadiness(Workload::ServiceOpen);
    }
}
