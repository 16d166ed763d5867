//! The open-loop `service_open` workload: the main thread offers requests to
//! a one-worker [`TranslationService`] on a fixed schedule, whether or not
//! earlier ones have been answered.
//!
//! The generator sleeps until each request's due time (with a 1 ns timer
//! slack; the default slack made sleeps overshoot by ~60 µs, more than the
//! service's own p50) and submits it. A collector thread blocks on each
//! ticket in turn and timestamps the reply the moment it arrives, so a
//! latency runs from the request's *due* time to its reply: a late
//! generator adds to the latency of the requests it delayed instead of
//! hiding it. A busy-waiting generator was tried and rejected: with two
//! vCPUs it keeps a CPU runnable and the scheduler then delays the woken
//! worker by a whole time slice.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use out_of_ssa::cfggen::to_optimized_ssa;
use out_of_ssa::destruct::{validate_structural, OutOfSsaOptions, ValidationMode};
use out_of_ssa::ir::Function;
use out_of_ssa::service::{AdmissionPolicy, ServiceConfig, Ticket, TranslationService};

use crate::calib::Calibrator;
use crate::compile::count_copies;
use crate::inputs::{weighted_size, Oracle};
use crate::probe::{self, allocations};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, quantile, sort, windowed_p99_lower_quartile};

/// Offered load, requests per second: well below one worker's capacity
/// (about 20k/s for these inputs), where the tail is steady; at 15k/s it
/// was not.
pub const RATE_PER_S: f64 = 10_000.0;

/// Length of the windows of the windowed tail. Host stalls of a
/// millisecond or more arrive about once a second; with 0.2 s windows most
/// windows are free of them.
const WINDOW_S: f64 = 0.2;

/// Length of the open-loop stretches between two calibrations.
const SUB_WINDOW_S: f64 = 1.0;

/// CPUs of the generator side and of the service worker when pinned.
const GENERATOR_CPU: usize = 0;
const WORKER_CPU: usize = 1;

/// Queue bound: large enough that admission never refuses at the offered
/// rate short of a multi-second stall.
const QUEUE_CAPACITY: usize = 1 << 16;

/// Requests of the closed-loop pass that counts steady-state allocations.
const COUNTED_REQUESTS: usize = 512;

/// Deterministic counts from the warm-up pass over the distinct inputs.
#[derive(Default)]
struct WarmPass {
    failures: u64,
    remaining_copies: f64,
    weighted_copies: f64,
    code_insts: u64,
    exec_steps: f64,
    moves_inserted: u64,
    edges_split: u64,
    queries: u64,
    moves_coalesced: u64,
    fallbacks: u64,
    copies_out: u64,
    oracle_seconds: f64,
}

/// A running service, its inputs in the submitted (SSA) form, and each
/// input's verified translation.
pub struct ServiceSetup {
    inputs: Vec<Function>,
    expected: Vec<Function>,
    oracle: Oracle,
    service: TranslationService,
    /// Whether the worker runs on `WORKER_CPU` and the caller on
    /// `GENERATOR_CPU`.
    pinned: bool,
    warm: WarmPass,
    spare: Vec<Function>,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: QUEUE_CAPACITY,
        admission: AdmissionPolicy::Reject,
        validation: ValidationMode::Structural,
        ..ServiceConfig::default()
    }
}

/// Starts the service with its worker on CPU 1 and leaves the calling
/// thread (and the collector it spawns later) on CPU 0. Fixed placement
/// makes both wake-ups of a request cross-CPU every time; left to the
/// scheduler, the placement changed between runs and moved the p50 by 20%.
fn start_service() -> (TranslationService, bool) {
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = cpus >= 2 && probe::pin_current_thread(WORKER_CPU);
    let service = TranslationService::start(config());
    if pinned {
        probe::pin_current_thread(GENERATOR_CPU);
    }
    (service, pinned)
}

impl ServiceSetup {
    /// Interprets the pre-SSA `inputs` for the reference, converts them to
    /// SSA, starts the service and sends every input through it once
    /// (closed loop), checking each reply with the oracle.
    pub fn new(seed: u64, pre_ssa: Vec<Function>) -> Result<Self, String> {
        let oracle = Oracle::new(seed, &pre_ssa)?;
        let weighted_size = weighted_size(&pre_ssa);
        let inputs: Vec<Function> = pre_ssa
            .into_iter()
            .map(|mut func| {
                to_optimized_ssa(&mut func);
                func
            })
            .collect();
        let (service, pinned) = start_service();
        let mut warm = WarmPass::default();
        let mut expected = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let response = match service.submit(input.clone()) {
                Ok(ticket) => ticket.wait(),
                Err(refused) => {
                    service.shutdown();
                    return Err(format!("warm-up request {i} refused: {refused}"));
                }
            };
            let output = match response.outcome {
                Ok(completed) => {
                    let stats = completed.stats;
                    warm.remaining_copies += stats.remaining_copies as f64;
                    warm.weighted_copies += stats.remaining_weighted;
                    warm.moves_inserted += stats.moves_inserted as u64;
                    warm.edges_split += stats.edges_split as u64;
                    warm.queries += stats.interference_queries;
                    warm.moves_coalesced += stats.moves_coalesced as u64;
                    warm.fallbacks += stats.liveness_fallbacks as u64;
                    completed.func
                }
                Err(error) => {
                    eprintln!("warm-up request {i}: {error}");
                    warm.failures += 1;
                    response.returned.expect("a failed request hands its input back")
                }
            };
            let check_start = Instant::now();
            match oracle.check(i, &output) {
                Ok(steps) => warm.exec_steps += steps as f64,
                Err(why) => {
                    eprintln!("oracle: {why}");
                    warm.failures += 1;
                }
            }
            warm.oracle_seconds += check_start.elapsed().as_secs_f64();
            warm.code_insts += output.num_attached_insts() as u64;
            warm.copies_out += count_copies(&output);
            expected.push(output);
        }
        warm.weighted_copies /= weighted_size;
        warm.exec_steps /= oracle.reference_steps() as f64;
        Ok(Self { inputs, expected, oracle, service, pinned, warm, spare: Vec::new() })
    }

    /// Shuts the service down (draining nothing: every request has been
    /// answered) and returns its final statistics.
    pub fn finish(self) -> out_of_ssa::service::ServiceStats {
        self.service.shutdown()
    }

    /// The inputs in their submitted (SSA) form.
    pub fn inputs(&self) -> &[Function] {
        &self.inputs
    }

    /// The verified translation of each input.
    pub fn expected(&self) -> &[Function] {
        &self.expected
    }

    /// A submission-ready copy of input `index`, built in recycled storage.
    fn request(&mut self, index: usize) -> Function {
        let mut func = self.spare.pop().unwrap_or_else(|| Function::new("", 0));
        func.clone_from(&self.inputs[index]);
        func
    }
}

/// What one open-loop window measured.
#[derive(Default)]
pub struct OpenLoop {
    /// `(due offset, latency)` in seconds, per answered request.
    latencies: Vec<(f64, f64)>,
    /// Seconds from the first due time to the last reply, summed over the
    /// sub-windows.
    span: f64,
    /// Median calibration factor.
    factor: f64,
    completed: u64,
    requests: u64,
    failed: u64,
    refused: u64,
    /// Seconds the generator submitted after the due time.
    late: Vec<f64>,
    /// Seconds spent inside `submit`.
    admission: Vec<f64>,
    /// Service-side timings per answered request, when traced.
    breakdown: Vec<Breakdown>,
}

#[derive(Clone, Copy)]
struct Breakdown {
    input: usize,
    queue: f64,
    translate: f64,
    total: f64,
    validate: f64,
    liveness: f64,
    coalesce: f64,
    sequentialize: f64,
}

impl Breakdown {
    fn scaled(&self, factor: f64) -> Self {
        Self {
            input: self.input,
            queue: self.queue * factor,
            translate: self.translate * factor,
            total: self.total * factor,
            validate: self.validate * factor,
            liveness: self.liveness * factor,
            coalesce: self.coalesce * factor,
            sequentialize: self.sequentialize * factor,
        }
    }
}

/// A submitted request on its way to the collector.
struct Sent {
    ticket: Ticket,
    due: Instant,
    input: usize,
}

/// Keeps `cpu` busy at the lowest priority while `warm` holds. An idle
/// vCPU halts, and waking a halted vCPU takes the host's scheduler, whose
/// delay follows the host's load; every benchmark and service thread that
/// wakes on `cpu` preempts this one at once.
fn keep_warm(cpu: usize, warm: &AtomicBool) {
    if !(probe::pin_current_thread(cpu) && probe::make_current_thread_idle_class()) {
        return;
    }
    while warm.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

/// Clears its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        thread::sleep(due - now);
    }
}

/// Offers `RATE_PER_S` requests per second for `seconds`, cycling through
/// the inputs, in sub-windows of `SUB_WINDOW_S`. After each sub-window the
/// load pauses while the calibration kernel runs on the worker's CPU, and
/// every time measured in the sub-window is scaled by its factor (see
/// `calib`). When `traced`, each reply's service-side timings are kept and
/// the benchmark replays `validate_structural` on it.
pub fn run_open_loop(
    setup: &mut ServiceSetup,
    calibrator: &mut Calibrator,
    seconds: f64,
    traced: bool,
) -> OpenLoop {
    let per_sub = (SUB_WINDOW_S * RATE_PER_S).round() as u64;
    let subs = ((seconds / SUB_WINDOW_S).round() as u64).max(1);
    let mut run = OpenLoop::default();
    let mut factors = Vec::with_capacity(subs as usize);
    probe::set_timer_slack(1);
    for sub in 0..subs {
        let window = run_window(setup, sub * per_sub, per_sub, traced);
        let factor = calibrate(calibrator, setup.pinned);
        factors.push(factor);
        let offset = sub as f64 * SUB_WINDOW_S;
        run.latencies.extend(window.latencies.iter().map(|&(at, l)| (offset + at, l * factor)));
        run.late.extend(window.late.iter().map(|l| l * factor));
        run.admission.extend(window.admission.iter().map(|a| a * factor));
        run.breakdown.extend(window.breakdown.iter().map(|b| b.scaled(factor)));
        run.span += window.span;
        run.completed += window.completed;
        run.requests += window.requests;
        run.failed += window.failed;
        run.refused += window.refused;
    }
    sort(&mut factors);
    run.factor = median(&factors);
    run
}

/// Median calibration factor of three kernel runs on the worker's CPU.
fn calibrate(calibrator: &mut Calibrator, pinned: bool) -> f64 {
    let mut factors = thread::scope(|scope| {
        scope
            .spawn(|| {
                if pinned {
                    probe::pin_current_thread(WORKER_CPU);
                }
                [calibrator.factor(), calibrator.factor(), calibrator.factor()]
            })
            .join()
            .expect("the calibration thread does not panic")
    });
    sort(&mut factors);
    factors[1]
}

/// One open-loop sub-window of `count` requests, starting with request
/// number `first`. The main thread generates; a collector thread blocks on
/// each ticket in turn and timestamps its reply the moment it arrives.
fn run_window(setup: &mut ServiceSetup, first: u64, count: u64, traced: bool) -> OpenLoop {
    let interval_ns = 1e9 / RATE_PER_S;
    let m = setup.inputs.len() as u64;
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (spare_tx, spare_rx) = mpsc::channel::<Function>();
    let mut next = Some(setup.request((first % m) as usize));
    let start = Instant::now() + Duration::from_millis(1);
    let ServiceSetup { inputs, expected, service, spare, oracle, pinned, .. } = setup;
    let expected = &expected[..];
    let warm = AtomicBool::new(true);
    let (collected, late, admission, refused) = thread::scope(|scope| {
        // Stops the spinners however this closure ends, so the scope can
        // join them even when a panic unwinds through it.
        let _stop = StopOnDrop(&warm);
        if *pinned {
            for cpu in [GENERATOR_CPU, WORKER_CPU] {
                let warm = &warm;
                scope.spawn(move || keep_warm(cpu, warm));
            }
        }
        let collector =
            scope.spawn(move || collect(sent_rx, spare_tx, expected, start, count, traced));
        let mut late = Vec::with_capacity(count as usize);
        let mut admission = Vec::with_capacity(count as usize);
        let mut refused = 0;
        for i in 0..count {
            let k = first + i;
            let due = start + Duration::from_nanos((i as f64 * interval_ns) as u64);
            sleep_until(due);
            let func = next.take().expect("the next request is prepared");
            let now = Instant::now();
            match service.submit(func) {
                Ok(ticket) => {
                    let admitted = Instant::now();
                    late.push((now - due).as_secs_f64());
                    admission.push((admitted - now).as_secs_f64());
                    let input = (k % m) as usize;
                    sent_tx
                        .send(Sent { ticket, due, input })
                        .expect("the collector outlives the generator");
                }
                Err(error) => {
                    eprintln!("request {k} refused: {error}");
                    refused += 1;
                    spare.push(error.into_function());
                }
            }
            spare.extend(spare_rx.try_iter());
            let mut func = spare.pop().unwrap_or_else(|| Function::new("", 0));
            func.clone_from(&inputs[((k + 1) % m) as usize]);
            next = Some(func);
        }
        drop(sent_tx);
        let collected = collector.join().expect("the collector thread does not panic");
        (collected, late, admission, refused)
    });
    let Collected { mut run, unmatched } = collected;
    spare.extend(spare_rx.try_iter());
    spare.extend(next);
    run.late = late;
    run.admission = admission;
    run.refused = refused;
    run.requests = count;
    // Outputs that differ from the verified translation of their input are
    // judged by the oracle (the service is deterministic, so none should).
    for (input, output) in unmatched {
        if let Err(why) = oracle.check(input, &output) {
            eprintln!("oracle: {why}");
            run.failed += 1;
        }
    }
    run
}

/// The collector's half of an open-loop window.
struct Collected {
    run: OpenLoop,
    unmatched: Vec<(usize, Function)>,
}

fn collect(
    sent: mpsc::Receiver<Sent>,
    spare: mpsc::Sender<Function>,
    expected: &[Function],
    start: Instant,
    total: u64,
    traced: bool,
) -> Collected {
    let options = OutOfSsaOptions::default();
    let mut run = OpenLoop {
        latencies: Vec::with_capacity(total as usize),
        breakdown: Vec::with_capacity(if traced { total as usize } else { 0 }),
        ..OpenLoop::default()
    };
    let mut unmatched = Vec::new();
    let mut last_reply = start;
    for Sent { ticket, due, input } in sent {
        let response = ticket.wait();
        let noticed = Instant::now();
        last_reply = noticed;
        run.latencies.push(((due - start).as_secs_f64(), (noticed - due).as_secs_f64()));
        let completed = match response.outcome {
            Ok(completed) => completed,
            Err(error) => {
                eprintln!("request for input {input}: {error}");
                run.failed += 1;
                if let Some(func) = response.returned {
                    let _ = spare.send(func);
                }
                continue;
            }
        };
        run.completed += 1;
        if traced {
            let validate_start = Instant::now();
            if let Err(error) = validate_structural(&completed.func, &options) {
                eprintln!("replayed validation: {error}");
                run.failed += 1;
            }
            let phases = completed.stats.phase_seconds;
            run.breakdown.push(Breakdown {
                input,
                queue: response.queue_seconds,
                translate: completed.translate_seconds,
                total: response.total_seconds,
                validate: validate_start.elapsed().as_secs_f64(),
                liveness: phases.liveness,
                coalesce: phases.coalesce,
                sequentialize: phases.sequentialize,
            });
        }
        if completed.func == expected[input] {
            let _ = spare.send(completed.func);
        } else {
            unmatched.push((input, completed.func));
        }
    }
    run.span = (last_reply - start).as_secs_f64();
    Collected { run, unmatched }
}

/// Steady-state heap allocations per request, process-wide (the worker
/// thread included), over a closed-loop pass on a warm service: each count
/// spans `submit` to the reply, after which the worker has nothing left to
/// do.
pub fn allocations_per_request(setup: &mut ServiceSetup) -> Result<f64, String> {
    let count = COUNTED_REQUESTS.min(setup.inputs.len());
    let mut total = 0u64;
    for i in 0..count {
        // A fresh copy, as a client would submit it: a recycled shell's
        // capacity depends on which reply it last held, which the open
        // loop's timing decides, and the translation grows it in place.
        let func = setup.inputs[i].clone();
        let before = allocations();
        let ticket = setup.service.submit(func).map_err(|e| e.to_string())?;
        // Polled, not waited for: a blocking receive allocates when it has
        // to park, which would make the count depend on timing.
        let response = loop {
            if let Some(response) = ticket.try_wait() {
                break response;
            }
            std::hint::spin_loop();
        };
        total += allocations() - before;
        match response.outcome {
            Ok(completed) => setup.spare.push(completed.func),
            Err(error) => return Err(format!("counted request {i}: {error}")),
        }
    }
    Ok(total as f64 / count as f64)
}

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    sort(&mut v);
    v
}

fn p50_latency(run: &OpenLoop) -> f64 {
    median(&sorted(run.latencies.iter().map(|l| l.1)))
}

/// End-to-end metrics of an untraced window.
pub fn end_to_end(
    setup: &ServiceSetup,
    run: &OpenLoop,
    allocs_per_fn: f64,
    metrics: &mut Metrics,
) -> Outcome {
    let (tail, windows) = windowed_p99_lower_quartile(&run.latencies, WINDOW_S);
    let late = sorted(run.late.iter().copied());
    eprintln!(
        "{} requests at {RATE_PER_S}/s, {} answered, host speed factor {:.3}; tail = lower \
         quartile of {windows} per-{WINDOW_S}s-window p99s; generator late p99 {:.1} us",
        run.requests,
        run.completed,
        run.factor,
        quantile(&late, 0.99) * 1e6
    );
    metrics.set("throughput_fns_per_s", run.completed as f64 / run.span);
    metrics.set("latency_p50_ms", p50_latency(run) * 1e3);
    metrics.set("latency_tail_ms", tail * 1e3);
    metrics.set("allocs_per_fn", allocs_per_fn);
    metrics.set("remaining_copies", setup.warm.remaining_copies);
    metrics.set("weighted_copies", setup.warm.weighted_copies);
    metrics.set("code_insts", setup.warm.code_insts as f64);
    metrics.set("exec_steps", setup.warm.exec_steps);
    Outcome {
        attempted: setup.inputs.len() as u64 + run.requests,
        failed: setup.warm.failures + run.failed + run.refused,
    }
}

/// Per-layer metrics: an untraced window for half of `seconds`, then a
/// traced one for the other half, on the same service.
pub fn run_traced(
    mut setup: ServiceSetup,
    calibrator: &mut Calibrator,
    seconds: f64,
    allocs_per_fn: f64,
    metrics: &mut Metrics,
) -> Outcome {
    let untraced = run_open_loop(&mut setup, calibrator, seconds / 2.0, false);
    let traced = run_open_loop(&mut setup, calibrator, seconds / 2.0, true);
    let warm = &setup.warm;

    // Per distinct input, the reply with the median service-side total,
    // summed over one pass of the inputs (as the compile workloads do).
    let mut per_input: Vec<Vec<Breakdown>> = vec![Vec::new(); setup.inputs.len()];
    for b in &traced.breakdown {
        per_input[b.input].push(*b);
    }
    let typical: Vec<Breakdown> = per_input
        .iter_mut()
        .filter(|replies| !replies.is_empty())
        .map(|replies| {
            replies.sort_by(|a, b| a.total.total_cmp(&b.total));
            replies[replies.len() / 2]
        })
        .collect();
    let sum_ms = |f: fn(&Breakdown) -> f64| typical.iter().map(f).sum::<f64>() * 1e3;
    metrics.set("liveness.ms", sum_ms(|b| b.liveness));
    metrics.set("liveness.fallbacks", warm.fallbacks as f64);
    metrics.set("insertion.moves_inserted", warm.moves_inserted as f64);
    metrics.set("insertion.edges_split", warm.edges_split as f64);
    metrics.set("coalesce.ms", sum_ms(|b| b.coalesce));
    metrics.set("coalesce.queries", warm.queries as f64);
    metrics.set("coalesce.moves_coalesced", warm.moves_coalesced as f64);
    metrics.set(
        "coalesce.coalesced_ratio",
        warm.moves_coalesced as f64 / warm.moves_inserted.max(1) as f64,
    );
    metrics.set(
        "coalesce.queries_per_coalesced",
        warm.queries as f64 / warm.moves_coalesced.max(1) as f64,
    );
    metrics.set("sequentialize.ms", sum_ms(|b| b.sequentialize));
    metrics.set("sequentialize.copies_out", warm.copies_out as f64);
    metrics.set("validate.ms", sum_ms(|b| b.validate));
    metrics.set("allocs.translate_per_fn", allocs_per_fn);

    let admission = sorted(traced.admission.iter().copied());
    let queue = sorted(traced.breakdown.iter().map(|b| b.queue));
    let translate = sorted(traced.breakdown.iter().map(|b| b.translate));
    // What the service's own clocks do not cover: the part of `submit`
    // before enqueueing, the reply hand-off and the collector's wake-up.
    let overhead = sorted(
        traced
            .breakdown
            .iter()
            .zip(&traced.late)
            .zip(&traced.latencies)
            .map(|((b, late), &(_, latency))| latency - late - b.queue - b.translate),
    );
    let whole_run = sorted(traced.latencies.iter().map(|l| l.1));
    let late = sorted(traced.late.iter().copied());
    metrics.set("service.admission_us", median(&admission) * 1e6);
    metrics.set("service.queue_wait_p50_us", median(&queue) * 1e6);
    metrics.set("service.queue_wait_p99_us", quantile(&queue, 0.99) * 1e6);
    metrics.set("service.translate_p50_us", median(&translate) * 1e6);
    metrics.set("service.overhead_p50_us", median(&overhead) * 1e6);
    metrics.set("service.run_p99_ms", quantile(&whole_run, 0.99) * 1e3);
    metrics.set("service.gen_late_p99_us", quantile(&late, 0.99) * 1e6);
    metrics.set("service.refused", (untraced.refused + traced.refused) as f64);
    metrics.set("oracle.ms", warm.oracle_seconds * 1e3);
    metrics.set("oracle.mismatches", warm.failures as f64);

    // The generator's lateness plus the service-side span (admission to
    // reply) of a request, against its untraced due-to-reply latency.
    let accounted = sorted(traced.breakdown.iter().zip(&traced.late).map(|(b, l)| b.total + l));
    metrics.set("trace.accounted_share", median(&accounted) / p50_latency(&untraced));
    metrics.set("trace.overhead_share", p50_latency(&traced) / p50_latency(&untraced) - 1.0);

    let outcome = Outcome {
        attempted: setup.inputs.len() as u64 + untraced.requests + traced.requests,
        failed: warm.failures + untraced.failed + untraced.refused + traced.failed + traced.refused,
    };
    let stats = setup.finish();
    metrics.set("pool.checkouts", stats.pool.checkouts as f64);
    metrics
        .set("pool.recycle_ratio", stats.pool.recycled as f64 / stats.pool.checkouts.max(1) as f64);
    outcome
}
