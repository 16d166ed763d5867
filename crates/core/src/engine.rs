//! Batch and streaming out-of-SSA translation over a corpus of functions,
//! and the one attempt ladder every fault-isolated translation climbs.
//!
//! A JIT (or an AOT compiler doing whole-program work) does not translate
//! one function: it drains a queue of them. Four entry points cover input
//! shape × fault isolation:
//!
//! | input                       | plain                | fault-isolated                |
//! |-----------------------------|----------------------|-------------------------------|
//! | slice, translated in place  | [`translate_corpus`] | [`translate_corpus_isolated`] |
//! | iterator of owned functions | [`translate_stream`] | [`translate_stream_isolated`] |
//!
//! All four run on one corpus driver: `threads` workers (`0` = one per
//! available core, `1` = serially on the calling thread) pull items one at a
//! time — a worker stuck on a large function does not starve the others —
//! and each owns an [`EngineWorker`] whose caches and scratch are
//! invalidated, never reallocated, between functions. Results are collected
//! by input index, so parallel, serial, batch and streaming runs produce
//! bit-identical functions and statistics, and a stream's iterator is pulled
//! lazily rather than collected up front.
//!
//! Two [`EngineWorker`] methods serve a caller-owned, warm worker:
//! [`EngineWorker::translate_isolated`] translates one function, and
//! [`EngineWorker::drain`] serially drains a [`PooledSource`], which builds
//! each incoming function *into* storage checked out of the worker's
//! [`FunctionPool`]; the engine retires that storage once the consumer has
//! seen the result. After warm-up, translating one more function touches the
//! heap a bounded number of times, however long the stream.
//!
//! Every fault-isolated translation — the engine's, the pass pipeline's and
//! the translation service's degradation rungs — climbs
//! [`EngineWorker::climb`], the single attempt ladder.

use std::sync::{Mutex, PoisonError};

use ossa_ir::{Function, FunctionPool};
use ossa_liveness::FunctionAnalyses;

use crate::coalesce::{
    translate_out_of_ssa_scratch, OutOfSsaOptions, OutOfSsaStats, RecoveryOutcome, TranslateScratch,
};
use crate::fault::{self, Limits, TranslateError, TranslatePhase};
use crate::validate::{validate_translation, ValidationMode};

/// Self-checking configuration of an isolated engine: what to validate on
/// each translated function and how hard to try to recover failures. The
/// default (`Off`, no retries) is a pure pass-through — one attempt, no
/// pristine snapshot.
///
/// The recovery ladder (attempt 0 = the caller's options; attempts 1.. =
/// [`OutOfSsaOptions::conservative_fallback`] on a fresh, quarantined
/// worker) fires on *any* [`TranslateError`] — panic, resource blowup or
/// validation failure alike — restoring the function from a pristine
/// pre-translation snapshot between attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnginePolicy {
    /// Post-translation output validation mode.
    pub validation: ValidationMode,
    /// Conservative retries after the first failed attempt (`0`, the
    /// default, reports the first error).
    pub max_retries: u32,
}

impl EnginePolicy {
    /// A policy that validates at `mode` without retrying.
    pub fn validating(mode: ValidationMode) -> Self {
        Self { validation: mode, ..Self::default() }
    }

    /// Adds a recovery ladder of `max_retries` conservative retries.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// `true` when the policy changes nothing — no validation, no retries —
    /// letting the ladder skip the pristine snapshot entirely.
    pub fn is_passthrough(&self) -> bool {
        self.validation == ValidationMode::Off && self.max_retries == 0
    }

    /// The policy's rung schedule for [`EngineWorker::climb`], computed on
    /// the fly: rung 0 runs `options`, every retry rung runs
    /// [`OutOfSsaOptions::conservative_fallback`], all validated at the
    /// policy's mode.
    pub fn rungs<'a>(
        &self,
        options: &'a OutOfSsaOptions,
    ) -> impl Iterator<Item = (u32, OutOfSsaOptions, ValidationMode)> + 'a {
        let validation = self.validation;
        (0..=self.max_retries).map(move |rung| {
            let options = if rung == 0 { options.clone() } else { options.conservative_fallback() };
            (rung, options, validation)
        })
    }
}

/// The complete recycled state of one engine worker: the analysis caches and
/// translation scratch hoisted out of the per-function loop, plus the
/// [`FunctionPool`] free list that recycles *function storage itself* (for
/// pooled sources and the ladder's pristine snapshots).
///
/// A worker is the unit of steady-state allocation freedom: once every
/// buffer in it has grown to the high-water mark of the functions it has
/// seen, translating one more function of comparable size allocates nothing.
/// A caller that keeps one (the pass pipeline, a service worker, a benchmark
/// harness) keeps it warm across calls.
#[derive(Debug, Default)]
pub struct EngineWorker {
    /// Cached per-function analyses; invalidated, never reallocated, between
    /// functions.
    pub analyses: FunctionAnalyses,
    /// Translation scratch buffers, reused as-is between functions.
    pub scratch: TranslateScratch,
    /// Free list of retired `Function` storage.
    pub pool: FunctionPool,
}

/// A pool-aware stream of input functions.
///
/// Where a plain `Iterator<Item = Function>` source must allocate fresh
/// function storage for every item it yields, a `PooledSource` is handed the
/// worker's [`FunctionPool`] and is expected to build each incoming function
/// *into* a checked-out slot (via
/// [`FunctionBuilder::reuse`](ossa_ir::builder::FunctionBuilder::reuse) or a
/// generator's `*_into` entry point), closing the recycling loop: the
/// engine retires each translated function back to the pool once the
/// consumer is done with it, and the source checks the same storage out
/// again for the next item.
///
/// The trait is implemented for any `FnMut(&mut FunctionPool) ->
/// Option<Function>` closure, so ad-hoc sources need no named type.
pub trait PooledSource {
    /// Produces the next function of the stream, preferably built into
    /// storage checked out of `pool`. `None` ends the stream.
    fn next_into(&mut self, pool: &mut FunctionPool) -> Option<Function>;
}

impl<F: FnMut(&mut FunctionPool) -> Option<Function>> PooledSource for F {
    fn next_into(&mut self, pool: &mut FunctionPool) -> Option<Function> {
        self(pool)
    }
}

/// Statistics of one plain corpus translation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CorpusStats {
    /// Per-function statistics, in input order.
    pub per_function: Vec<OutOfSsaStats>,
    /// Number of worker threads actually used.
    pub threads: usize,
}

impl CorpusStats {
    /// Aggregates the per-function statistics into one total.
    pub fn total(&self) -> OutOfSsaStats {
        let mut total = OutOfSsaStats::default();
        for stats in &self.per_function {
            total.absorb(stats);
        }
        total
    }
}

/// Statistics of one fault-isolated corpus translation: one
/// [`Result`] per input function, in input order. A function that failed
/// carries its typed [`TranslateError`]; every other function's translation
/// is bit-identical to a fault-free run (the failed worker's caches are
/// quarantined and rebuilt, never shared into a healthy function).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IsolatedCorpusStats {
    /// Per-function outcome, in input order.
    pub results: Vec<Result<OutOfSsaStats, TranslateError>>,
    /// Number of worker threads actually used.
    pub threads: usize,
}

impl IsolatedCorpusStats {
    /// Aggregates the statistics of the *successful* functions.
    pub fn total(&self) -> OutOfSsaStats {
        let mut total = OutOfSsaStats::default();
        for stats in self.results.iter().flatten() {
            total.absorb(stats);
        }
        total
    }

    /// Number of failed functions.
    pub fn num_errors(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// The failed functions, as `(input index, error)` pairs.
    pub fn errors(&self) -> impl Iterator<Item = (usize, &TranslateError)> {
        self.results.iter().enumerate().filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }

    /// Number of functions the recovery ladder healed (their first attempt
    /// failed, a conservative retry succeeded). Always 0 when
    /// [`EnginePolicy::max_retries`] is 0.
    pub fn recovered_functions(&self) -> usize {
        self.results
            .iter()
            .flatten()
            .filter(|s| matches!(s.recovery, RecoveryOutcome::Recovered { .. }))
            .count()
    }

    /// Validation failures visible in the outcome records: rejected attempts
    /// of functions that eventually succeeded, plus one per function whose
    /// *final* error is a validation failure.
    pub fn validation_failures(&self) -> usize {
        self.results
            .iter()
            .map(|r| match r {
                Ok(stats) => stats.validation_failures,
                Err(TranslateError::ValidationFailed { .. }) => 1,
                Err(_) => 0,
            })
            .sum()
    }
}

/// The outcome of one [`EngineWorker::climb`].
#[derive(Debug)]
pub struct Climb<R> {
    /// The output of the first rung that succeeded — its statistics tagged
    /// with the ladder's validation failures and [`RecoveryOutcome`] — or
    /// the error of the last rung.
    pub result: Result<R, TranslateError>,
    /// The absolute rung that produced `result`.
    pub rung: u32,
    /// Rungs whose output validation rejected, across the whole climb.
    pub validation_failures: usize,
}

/// Resets the failpoint attempt to 0 when a climb ends, on every exit path.
#[cfg(feature = "failpoints")]
struct AttemptReset;

#[cfg(feature = "failpoints")]
impl Drop for AttemptReset {
    fn drop(&mut self) {
        fault::failpoints::set_attempt(0);
    }
}

impl EngineWorker {
    /// Creates a cold worker; every buffer grows on first use and is
    /// recycled afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The attempt ladder: climbs `rungs` — `(absolute rung, options,
    /// validation)` triples, computed on the fly — until one succeeds. On
    /// each rung it
    ///
    /// 1. records the rung as the failpoint attempt (injection arms on rung
    ///    0 only; a guard resets it when the climb ends);
    /// 2. from the second rung on, runs `between_rungs` (e.g. a backoff)
    ///    and restores `func` from the pristine snapshot;
    /// 3. checks `limits`, then runs `body` under a panic boundary with the
    ///    fixpoint-fuel budget installed, and validates the output against
    ///    the snapshot at the rung's mode;
    /// 4. on failure, counts validation rejections and quarantines the
    ///    worker's caches and scratch (an unwind or a rejected output leaves
    ///    them suspect) — the one place the engine deliberately allocates.
    ///
    /// The first successful rung's statistics carry the validation failures
    /// and, above the first rung, [`RecoveryOutcome::Recovered`].
    ///
    /// With `snapshot`, the pristine copy is checked out of (and retired
    /// back to) the worker's pool, so warm steady-state snapshotting
    /// allocates nothing, and a function that fails every rung is handed
    /// back restored. Without it the schedule must be one unvalidated rung
    /// (the pass-through case), and a failed `func` may be partially
    /// rewritten.
    pub fn climb<R: AsMut<OutOfSsaStats>>(
        &mut self,
        func: &mut Function,
        limits: &Limits,
        snapshot: bool,
        rungs: impl IntoIterator<Item = (u32, OutOfSsaOptions, ValidationMode)>,
        mut between_rungs: impl FnMut(u32),
        mut body: impl FnMut(&mut Self, &mut Function, &OutOfSsaOptions) -> Result<R, TranslateError>,
    ) -> Climb<R> {
        let pristine = snapshot.then(|| self.pool.checkout_clone_of(func));
        #[cfg(feature = "failpoints")]
        let _reset = AttemptReset;
        let mut first = None;
        let mut validation_failures = 0;
        let mut outcome = None;
        for (rung, options, validation) in rungs {
            let first = *first.get_or_insert(rung);
            if rung != first {
                between_rungs(rung);
                func.clone_from(pristine.as_ref().expect("a retry rung needs a snapshot"));
            }
            #[cfg(feature = "failpoints")]
            fault::failpoints::set_attempt(rung);
            ossa_liveness::fuel::set_fixpoint_fuel(limits.max_fixpoint_iters);
            let result = fault::catch_translate(|| {
                fault::enter_phase(&func.name, TranslatePhase::Verify);
                limits.check_function(func)?;
                let output = body(self, func, &options)?;
                if validation != ValidationMode::Off {
                    fault::enter_phase(&func.name, TranslatePhase::Validate);
                    let reference = pristine.as_ref().expect("validation needs a snapshot");
                    validate_translation(reference, func, &options, validation)?;
                }
                Ok(output)
            })
            .unwrap_or_else(Err);
            ossa_liveness::fuel::set_fixpoint_fuel(None);
            match result {
                Ok(mut output) => {
                    let stats = output.as_mut();
                    stats.validation_failures = validation_failures;
                    if rung != first {
                        stats.recovery = RecoveryOutcome::Recovered { attempt: rung - first + 1 };
                    }
                    outcome = Some((Ok(output), rung));
                    break;
                }
                Err(error) => {
                    if matches!(error, TranslateError::ValidationFailed { .. }) {
                        validation_failures += 1;
                    }
                    self.analyses = FunctionAnalyses::new();
                    self.scratch = TranslateScratch::new();
                    outcome = Some((Err(error), rung));
                }
            }
        }
        let (result, rung) = outcome.expect("a ladder has at least one rung");
        if let Some(pristine) = pristine {
            if result.is_err() {
                func.clone_from(&pristine);
            }
            self.pool.retire(pristine);
        }
        Climb { result, rung, validation_failures }
    }

    /// The attempt body of the isolated engine, for callers climbing their
    /// own rung schedule: rejects input that is not in SSA form as
    /// [`TranslateError::Malformed`], then translates it on this worker.
    pub fn ssa_attempt(
        &mut self,
        func: &mut Function,
        options: &OutOfSsaOptions,
    ) -> Result<OutOfSsaStats, TranslateError> {
        if let Err(errors) = ossa_ir::verify_ssa(func) {
            return Err(TranslateError::Malformed {
                phase: TranslatePhase::Verify,
                detail: errors.to_string(),
            });
        }
        Ok(self.translate(func, options))
    }

    /// Translates one function out of SSA with full fault isolation under
    /// `policy`: the input is checked against `limits` and the SSA verifier
    /// up front, the translation runs under a panic boundary with the
    /// fixpoint-fuel budget installed, and the output is validated at the
    /// policy's [`ValidationMode`]. *Any* failure — panic, limit, validation
    /// — is retried up to `policy.max_retries` times on the
    /// conservative configuration, and the last one is returned as a typed
    /// [`TranslateError`] instead of unwinding into the caller. See
    /// [`EngineWorker::climb`] for the quarantine and snapshot contract.
    pub fn translate_isolated(
        &mut self,
        func: &mut Function,
        options: &OutOfSsaOptions,
        limits: &Limits,
        policy: &EnginePolicy,
    ) -> Result<OutOfSsaStats, TranslateError> {
        let snapshot = !policy.is_passthrough();
        self.climb(func, limits, snapshot, policy.rungs(options), |_| {}, Self::ssa_attempt).result
    }

    /// Serially drains `source` on this caller-owned worker, which stays
    /// warm across calls: translate one stream to warm it up, and later
    /// streams run (almost) allocation-free.
    ///
    /// Each function is built into storage checked out of the worker's
    /// pool, translated — plainly, or with `isolation = Some((limits,
    /// policy))` through [`EngineWorker::translate_isolated`] — handed to
    /// `consumer` with its input index, and then retired back to the pool.
    /// A function that failed is *discarded* instead, never recycled, so a
    /// partially rewritten body can never leak into a later function.
    pub fn drain<S: PooledSource + ?Sized>(
        &mut self,
        source: &mut S,
        options: &OutOfSsaOptions,
        isolation: Option<(&Limits, &EnginePolicy)>,
        mut consumer: impl FnMut(usize, Result<&Function, &TranslateError>),
    ) -> IsolatedCorpusStats {
        let mut results = Vec::new();
        while let Some(mut func) = source.next_into(&mut self.pool) {
            let result = match isolation {
                None => Ok(self.translate(&mut func, options)),
                Some((limits, policy)) => {
                    self.translate_isolated(&mut func, options, limits, policy)
                }
            };
            match &result {
                Ok(_) => {
                    consumer(results.len(), Ok(&func));
                    self.pool.retire(func);
                }
                Err(error) => {
                    consumer(results.len(), Err(error));
                    self.pool.discard(func);
                }
            }
            results.push(result);
        }
        IsolatedCorpusStats { results, threads: 1 }
    }

    /// Plain translation of one more function on the recycled state.
    fn translate(&mut self, func: &mut Function, options: &OutOfSsaOptions) -> OutOfSsaStats {
        self.analyses.invalidate_cfg();
        translate_out_of_ssa_scratch(func, options, &mut self.analyses, &mut self.scratch)
    }
}

/// The corpus driver behind every batch and streaming entry point: runs
/// `work` on each item of `items` with per-worker recycled state, feeding
/// the results to `sink` in input order, and returns the number of worker
/// threads used.
///
/// `threads == 0` means one per available core; the count is capped by the
/// iterator's upper size bound. One thread runs serially on the calling
/// thread. Otherwise scoped workers pull items one at a time under a lock
/// and deposit each result by index; poisoned locks are recovered so that a
/// panic in one worker propagates as itself, not as a secondary lock error.
fn drive<I, R>(
    threads: usize,
    items: I,
    work: impl Fn(&mut EngineWorker, I::Item) -> R + Sync,
    mut sink: impl FnMut(R),
) -> usize
where
    I: Iterator + Send,
    R: Send,
{
    let requested = match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    };
    let threads = requested.clamp(1, items.size_hint().1.unwrap_or(usize::MAX).max(1));
    if threads == 1 {
        let mut worker = EngineWorker::new();
        for item in items {
            sink(work(&mut worker, item));
        }
        return 1;
    }

    let source = Mutex::new(items.enumerate());
    let deposits: Mutex<Vec<Option<R>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut worker = EngineWorker::new();
                loop {
                    let next = source.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((index, item)) = next else { return };
                    let result = work(&mut worker, item);
                    let mut deposits = deposits.lock().unwrap_or_else(PoisonError::into_inner);
                    if deposits.len() <= index {
                        deposits.resize_with(index + 1, || None);
                    }
                    deposits[index] = Some(result);
                }
            });
        }
    });
    for result in deposits.into_inner().unwrap_or_else(PoisonError::into_inner) {
        sink(result.expect("every item translated"));
    }
    threads
}

/// Translates every function of `funcs` out of SSA in place, on `threads`
/// workers (`0` = one per available core; `1` = serially on the calling
/// thread). Results are identical to calling
/// [`translate_out_of_ssa`](crate::translate_out_of_ssa) on each function in
/// order.
pub fn translate_corpus(
    funcs: &mut [Function],
    options: &OutOfSsaOptions,
    threads: usize,
) -> CorpusStats {
    let mut per_function = Vec::with_capacity(funcs.len());
    let threads = drive(
        threads,
        funcs.iter_mut(),
        |worker, func| worker.translate(func, options),
        |stats| per_function.push(stats),
    );
    CorpusStats { per_function, threads }
}

/// Fault-isolated [`translate_corpus`]: each function runs through
/// [`EngineWorker::translate_isolated`] under `limits` and `policy`, so a
/// malformed, oversized or panicking function yields an error record
/// instead of tearing down the corpus run.
pub fn translate_corpus_isolated(
    funcs: &mut [Function],
    options: &OutOfSsaOptions,
    limits: &Limits,
    policy: &EnginePolicy,
    threads: usize,
) -> IsolatedCorpusStats {
    let mut results = Vec::with_capacity(funcs.len());
    let threads = drive(
        threads,
        funcs.iter_mut(),
        |worker, func| worker.translate_isolated(func, options, limits, policy),
        |result| results.push(result),
    );
    IsolatedCorpusStats { results, threads }
}

/// Translates every function yielded by `funcs` out of SSA on `threads`
/// workers, returning the translated functions in input order.
///
/// The input is an iterator (a JIT queue, a channel receiver's `into_iter`,
/// a generator), pulled one function at a time as workers free up, so the
/// corpus is never materialized on the input side. Results are
/// bit-identical to [`translate_corpus`] on the collected input.
pub fn translate_stream<I>(
    funcs: I,
    options: &OutOfSsaOptions,
    threads: usize,
) -> (Vec<Function>, CorpusStats)
where
    I: IntoIterator<Item = Function>,
    I::IntoIter: Send,
{
    let iter = funcs.into_iter();
    let mut out = Vec::with_capacity(iter.size_hint().0);
    let mut per_function = Vec::with_capacity(iter.size_hint().0);
    let threads = drive(
        threads,
        iter,
        |worker, mut func| {
            let stats = worker.translate(&mut func, options);
            (func, stats)
        },
        |(func, stats)| {
            out.push(func);
            per_function.push(stats);
        },
    );
    (out, CorpusStats { per_function, threads })
}

/// Fault-isolated [`translate_stream`]: a poisoned function yields `Err` in
/// the output (its body is discarded) while the rest of the stream keeps
/// flowing, bit-identical to a fault-free run. The outcome slots of the
/// returned [`IsolatedCorpusStats`] line up with the output vector.
pub fn translate_stream_isolated<I>(
    funcs: I,
    options: &OutOfSsaOptions,
    limits: &Limits,
    policy: &EnginePolicy,
    threads: usize,
) -> (Vec<Result<Function, TranslateError>>, IsolatedCorpusStats)
where
    I: IntoIterator<Item = Function>,
    I::IntoIter: Send,
{
    let iter = funcs.into_iter();
    let mut out = Vec::with_capacity(iter.size_hint().0);
    let mut results = Vec::with_capacity(iter.size_hint().0);
    let threads = drive(
        threads,
        iter,
        |worker, mut func| {
            let result = worker.translate_isolated(&mut func, options, limits, policy);
            (result.as_ref().map(|_| func).map_err(Clone::clone), result)
        },
        |(output, result)| {
            out.push(output);
            results.push(result);
        },
    );
    (out, IsolatedCorpusStats { results, threads })
}

impl AsMut<OutOfSsaStats> for OutOfSsaStats {
    fn as_mut(&mut self) -> &mut OutOfSsaStats {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::translate_out_of_ssa;
    use ossa_cfggen::{generate_ssa_function, GenConfig};

    fn small_corpus(count: u64) -> Vec<Function> {
        (0..count)
            .map(|seed| generate_ssa_function(format!("c{seed}"), &GenConfig::small(), seed).0)
            .collect()
    }

    #[test]
    fn batch_matches_serial_per_function_translation() {
        let options = OutOfSsaOptions::default();
        let mut serial = small_corpus(12);
        let mut batch = serial.clone();

        let serial_stats: Vec<_> =
            serial.iter_mut().map(|f| translate_out_of_ssa(f, &options)).collect();
        let batch_stats = translate_corpus(&mut batch, &options, 0);

        assert_eq!(serial_stats, batch_stats.per_function);
        for (a, b) in serial.iter().zip(&batch) {
            assert_eq!(a, b, "translated function differs: {}", a.name);
        }
    }

    #[test]
    fn warm_worker_matches_fresh_workers_and_recycles_pristine() {
        let options = OutOfSsaOptions::default();
        let limits = Limits::default();
        let policy = EnginePolicy::validating(ValidationMode::Structural).with_retries(1);
        let corpus = small_corpus(6);

        let mut worker = EngineWorker::new();
        for func in &corpus {
            let mut via_fresh = func.clone();
            let a =
                EngineWorker::new().translate_isolated(&mut via_fresh, &options, &limits, &policy);
            let mut via_warm = func.clone();
            let b = worker.translate_isolated(&mut via_warm, &options, &limits, &policy);
            assert_eq!(a, b);
            assert_eq!(via_fresh, via_warm, "warm worker changed output: {}", func.name);
        }
        // The pristine snapshot slot is retired back every request: after the
        // first checkout miss, every later snapshot recycles it.
        let pool = worker.pool.stats();
        assert_eq!(pool.checkouts, corpus.len() as u64);
        assert_eq!(pool.retired, corpus.len() as u64);
        assert_eq!(pool.recycled, corpus.len() as u64 - 1);
        assert_eq!(worker.pool.free_len(), 1);
    }

    #[test]
    fn ladder_recovers_above_its_first_rung_and_restores_on_exhaustion() {
        let options = OutOfSsaOptions::default();
        let (input, _) = generate_ssa_function("ladder", &GenConfig::small(), 4);
        let rungs = |first: u32, last: u32| {
            (first..=last).map(|rung| (rung, OutOfSsaOptions::default(), ValidationMode::Off))
        };
        let mut worker = EngineWorker::new();

        // Rung 1 fails, rung 2 heals: the outcome counts attempts from the
        // first rung climbed, and the between-rungs hook ran once.
        let mut hooks = Vec::new();
        let mut attempts = 0;
        let mut func = input.clone();
        let climb = worker.climb(
            &mut func,
            &Limits::UNBOUNDED,
            true,
            rungs(1, 2),
            |rung| hooks.push(rung),
            |worker, func, options| {
                attempts += 1;
                if attempts == 1 {
                    panic!("first rung fails");
                }
                worker.ssa_attempt(func, options)
            },
        );
        assert_eq!(climb.rung, 2);
        assert_eq!(hooks, vec![2]);
        let stats = climb.result.expect("second rung heals");
        assert_eq!(stats.recovery, RecoveryOutcome::Recovered { attempt: 2 });
        let mut expected = input.clone();
        translate_out_of_ssa(&mut expected, &options);
        assert_eq!(func, expected);

        // Every rung fails: the last error comes back and `func` is the
        // pristine input again. One snapshot per climb, retired both times.
        let mut func = input.clone();
        let climb = worker.climb(
            &mut func,
            &Limits::UNBOUNDED,
            true,
            rungs(0, 1),
            |_| {},
            |_, _, _| {
                Err::<OutOfSsaStats, _>(TranslateError::ValidationFailed {
                    phase: TranslatePhase::Validate,
                    detail: "rejected".to_string(),
                })
            },
        );
        assert_eq!(climb.rung, 1);
        assert_eq!(climb.validation_failures, 2);
        assert!(climb.result.is_err());
        assert_eq!(func, input);
        assert_eq!(worker.pool.stats().checkouts, 2);
        assert_eq!(worker.pool.stats().retired, 2);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let options = OutOfSsaOptions::sharing();
        let mut one = small_corpus(8);
        let mut four = one.clone();
        let a = translate_corpus(&mut one, &options, 1);
        let b = translate_corpus(&mut four, &options, 4);
        assert_eq!(a.per_function, b.per_function);
        assert_eq!(one, four);
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn empty_corpus_is_fine() {
        let stats = translate_corpus(&mut [], &OutOfSsaOptions::default(), 0);
        assert!(stats.per_function.is_empty());
        assert_eq!(stats.total(), OutOfSsaStats::default());
    }

    #[test]
    fn streaming_matches_batch_translation() {
        let options = OutOfSsaOptions::default();
        let corpus = small_corpus(10);

        let mut batch = corpus.clone();
        let batch_stats = translate_corpus(&mut batch, &options, 0);

        // The streaming input is an iterator — the engine never sees the
        // collection.
        let (streamed, stream_stats) = translate_stream(corpus.iter().cloned(), &options, 0);
        assert_eq!(streamed, batch);
        assert_eq!(stream_stats.per_function, batch_stats.per_function);
    }

    #[test]
    fn streaming_thread_counts_agree() {
        let options = OutOfSsaOptions::sharing();
        let corpus = small_corpus(9);
        let (one, a) = translate_stream(corpus.iter().cloned(), &options, 1);
        let (four, b) = translate_stream(corpus.iter().cloned(), &options, 4);
        assert_eq!(one, four);
        assert_eq!(a.per_function, b.per_function);
        assert_eq!(b.threads, 4);
    }

    #[test]
    fn empty_stream_is_fine() {
        let (funcs, stats) = translate_stream(std::iter::empty(), &OutOfSsaOptions::default(), 0);
        assert!(funcs.is_empty());
        assert!(stats.per_function.is_empty());
        let (funcs, stats) = translate_stream(std::iter::empty(), &OutOfSsaOptions::default(), 3);
        assert!(funcs.is_empty());
        assert!(stats.per_function.is_empty());
    }

    #[test]
    fn streaming_consumes_the_source_lazily() {
        // A serial stream pulls one function at a time: the source iterator
        // is drained exactly as far as the engine has translated, never
        // collected up front.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let options = OutOfSsaOptions::default();
        let pulled = AtomicUsize::new(0);
        let corpus = small_corpus(5);
        let source = corpus.iter().cloned().inspect(|_| {
            pulled.fetch_add(1, Ordering::Relaxed);
        });
        let (funcs, _) = translate_stream(source, &options, 1);
        assert_eq!(funcs.len(), 5);
        assert_eq!(pulled.load(Ordering::Relaxed), 5);
    }

    /// A pool-aware source regenerating `small_corpus(count)` into recycled
    /// slots: the same functions the iterator sources stream, but built with
    /// `generate_ssa_function_into` on checked-out pool storage.
    fn pooled_small_source(count: u64) -> impl FnMut(&mut FunctionPool) -> Option<Function> + Send {
        let mut next = 0u64;
        move |pool: &mut FunctionPool| {
            if next >= count {
                return None;
            }
            let seed = next;
            next += 1;
            let slot = pool.checkout();
            let (func, _) = ossa_cfggen::generate_ssa_function_into(
                slot,
                format!("c{seed}"),
                &GenConfig::small(),
                seed,
            );
            Some(func)
        }
    }

    fn stats_of(results: IsolatedCorpusStats) -> Vec<OutOfSsaStats> {
        results.results.into_iter().map(Result::unwrap).collect()
    }

    #[test]
    fn pooled_stream_matches_batch_translation() {
        let options = OutOfSsaOptions::default();
        let mut batch = small_corpus(10);
        let batch_stats = translate_corpus(&mut batch, &options, 0);

        let mut collected = Vec::new();
        let stats = EngineWorker::new().drain(
            &mut pooled_small_source(10),
            &options,
            None,
            |index, func| {
                assert_eq!(index, collected.len());
                collected.push(func.unwrap().clone());
            },
        );

        assert_eq!(collected, batch);
        assert_eq!(stats_of(stats), batch_stats.per_function);
    }

    #[test]
    fn pooled_serial_recycles_storage_across_passes() {
        let options = OutOfSsaOptions::default();
        let mut worker = EngineWorker::new();

        let first = worker.drain(&mut pooled_small_source(6), &options, None, |_, _| {});
        assert_eq!(first.results.len(), 6);
        // Cold pool: every checkout allocated a fresh function.
        assert_eq!(worker.pool.stats().checkouts, 6);
        assert_eq!(worker.pool.stats().recycled, 5);
        assert_eq!(worker.pool.stats().retired, 6);
        assert_eq!(worker.pool.free_len(), 1);

        // Second pass over the same stream with the warm worker: every
        // checkout is a recycled slot, and the results are bit-identical.
        let second = worker.drain(&mut pooled_small_source(6), &options, None, |_, _| {});
        assert_eq!(second.results, first.results);
        assert_eq!(worker.pool.stats().checkouts, 12);
        assert_eq!(worker.pool.stats().recycled, 11);
    }

    #[test]
    fn pooled_thread_counts_agree() {
        let options = OutOfSsaOptions::sharing();
        let a = EngineWorker::new().drain(&mut pooled_small_source(9), &options, None, |_, _| {});
        let (_, b) = translate_stream(small_corpus(9), &options, 4);
        assert_eq!(stats_of(a), b.per_function);
        assert_eq!(b.threads, 4);
    }

    #[test]
    fn pooled_isolated_matches_plain_pooled_on_healthy_input() {
        let options = OutOfSsaOptions::default();
        let isolation = (&Limits::default(), &EnginePolicy::default());
        let plain =
            EngineWorker::new().drain(&mut pooled_small_source(7), &options, None, |_, _| {});
        let isolated = EngineWorker::new().drain(
            &mut pooled_small_source(7),
            &options,
            Some(isolation),
            |_, result| assert!(result.is_ok()),
        );
        assert_eq!(isolated.num_errors(), 0);
        assert_eq!(isolated.results, plain.results);
    }

    #[test]
    fn total_aggregates_counters() {
        let options = OutOfSsaOptions::default();
        let mut funcs = small_corpus(4);
        let stats = translate_corpus(&mut funcs, &options, 0);
        let total = stats.total();
        assert_eq!(
            total.phis_removed,
            stats.per_function.iter().map(|s| s.phis_removed).sum::<usize>()
        );
        assert_eq!(
            total.remaining_copies,
            stats.per_function.iter().map(|s| s.remaining_copies).sum::<usize>()
        );
    }
}
