//! # ossa-bench — the evaluation harness
//!
//! Reproduces the paper's evaluation on the simulated SPEC CINT2000 corpus:
//!
//! * **Figure 5** ([`quality_report`]) — remaining copies per coalescing
//!   variant, normalized to the `Intersect` baseline;
//! * **Figure 6** ([`speed_report`]) — out-of-SSA translation time per
//!   engine configuration, normalized to `Sreedhar III`;
//! * **Figure 7** ([`memory_report`]) — measured and evaluated memory
//!   footprints of the interference/liveness structures.
//!
//! The binaries `fig5_quality`, `fig6_speed`, `fig7_memory` and
//! `table_corner_cases` print the rows; `fig6_speed`, `service_bench` and
//! `alloc_profile` each own a disjoint set of the perf-trajectory numbers.
//! The one bench, `seq_copies`, times the parallel-copy sequentialization
//! (Algorithm 1) on its own.

#![warn(missing_docs)]
// `deny` instead of `forbid`: the counting allocator is the one audited
// exception (a `GlobalAlloc` impl is an unsafe trait by definition).
#![deny(unsafe_code)]

use std::time::Instant;

#[allow(unsafe_code)]
pub mod alloc;
pub mod service_load;

use ossa_cfggen::{
    generate_ssa_function_into_cached, pin_call_conventions, spec_config, spec_like_corpus,
    spec_num_functions, GenScratch, Workload, SPEC_BENCHMARKS,
};
use ossa_destruct::{
    translate_corpus, translate_out_of_ssa, translate_stream, ClassCheck, EngineWorker,
    InterferenceMode, OutOfSsaOptions, OutOfSsaStats, PooledSource,
};
use ossa_ir::{Function, FunctionPool, PoolStats};
use ossa_liveness::FunctionAnalyses;

/// The Figure 5 coalescing variants, in the paper's order.
///
/// Delegates to [`OutOfSsaOptions::figure5_variants`], the single source of
/// truth also consumed by the oracle test suites — a variant added there is
/// automatically benchmarked *and* covered.
pub fn quality_variants() -> Vec<(&'static str, OutOfSsaOptions)> {
    OutOfSsaOptions::figure5_variants().into_iter().collect()
}

/// The Figure 6 / Figure 7 engine configurations, in the paper's order.
pub fn engine_variants() -> Vec<(&'static str, OutOfSsaOptions)> {
    vec![
        ("Sreedhar III", OutOfSsaOptions::sreedhar_iii()),
        ("Us III", OutOfSsaOptions::us_iii()),
        (
            "Us III + InterCheck",
            OutOfSsaOptions::us_iii().with_interference(InterferenceMode::InterCheck),
        ),
        (
            "Us III + InterCheck + LiveCheck",
            OutOfSsaOptions::us_iii().with_interference(InterferenceMode::InterCheckLiveCheck),
        ),
        (
            "Us III + Linear + InterCheck + LiveCheck",
            OutOfSsaOptions::us_iii()
                .with_interference(InterferenceMode::InterCheckLiveCheck)
                .with_class_check(ClassCheck::Linear),
        ),
        ("Us I", OutOfSsaOptions::us_i()),
        (
            "Us I + Linear + InterCheck + LiveCheck",
            OutOfSsaOptions::us_i()
                .with_interference(InterferenceMode::InterCheckLiveCheck)
                .with_class_check(ClassCheck::Linear),
        ),
    ]
}

/// Default corpus scale used by the report binaries.
pub const DEFAULT_SCALE: f64 = 0.35;

/// Builds the simulated corpus at `scale`.
pub fn corpus(scale: f64) -> Vec<Workload> {
    spec_like_corpus(scale, true)
}

/// A pool-aware streaming source regenerating the simulated SPEC corpus
/// function by function.
///
/// Enumerates exactly the functions of [`corpus`] / `spec_like_corpus` in
/// the same order with the same seeds and configs (shared through
/// [`spec_config`] / [`spec_num_functions`]), but builds each one *into* a
/// slot checked out of the engine's [`FunctionPool`] instead of fresh heap
/// storage — and converts it to optimized SSA through its own recycled
/// analyses and generator scratch. Once the source and the engine worker are
/// warm, producing and translating one more function allocates (almost)
/// nothing: this is the input half of the engine's O(1) steady-state heap
/// traffic story, and the measurement vehicle of the streaming allocation
/// gate.
#[derive(Debug)]
pub struct CorpusSource {
    scale: f64,
    pin_calls: bool,
    bench: usize,
    index: usize,
    analyses: FunctionAnalyses,
    scratch: GenScratch,
    name: String,
}

impl CorpusSource {
    /// Creates a source streaming the corpus at `scale` from its beginning.
    pub fn new(scale: f64, pin_calls: bool) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Self {
            scale,
            pin_calls,
            bench: 0,
            index: 0,
            analyses: FunctionAnalyses::new(),
            scratch: GenScratch::new(),
            name: String::new(),
        }
    }

    /// Rewinds the stream to the first function of the first benchmark,
    /// keeping all recycled generator state warm — streaming the corpus
    /// `k` times through a rewound source is the "k× corpus" of the
    /// steady-state flatness gate.
    pub fn rewind(&mut self) {
        self.bench = 0;
        self.index = 0;
    }

    /// Total number of functions one full pass over the stream yields.
    pub fn functions_per_pass(&self) -> usize {
        SPEC_BENCHMARKS.iter().map(|spec| spec_num_functions(spec, self.scale)).sum()
    }
}

impl PooledSource for CorpusSource {
    fn next_into(&mut self, pool: &mut FunctionPool) -> Option<Function> {
        use std::fmt::Write as _;
        loop {
            let spec = SPEC_BENCHMARKS.get(self.bench)?;
            let num_functions = spec_num_functions(spec, self.scale);
            if self.index >= num_functions {
                self.bench += 1;
                self.index = 0;
                continue;
            }
            let config = spec_config(spec, self.scale);
            let i = self.index;
            self.index += 1;
            self.name.clear();
            let _ = write!(self.name, "{}::fn{}", spec.name, i);
            let slot = pool.checkout();
            let (mut func, _) = generate_ssa_function_into_cached(
                slot,
                &self.name,
                &config,
                spec.seed + i as u64,
                &mut self.analyses,
                &mut self.scratch,
            );
            if self.pin_calls {
                pin_call_conventions(&mut func);
            }
            return Some(func);
        }
    }
}

/// Result of [`streaming_allocation_passes`]: the allocation trajectory of
/// the pooled streaming engine across repeated passes over the corpus.
#[derive(Clone, Debug)]
pub struct StreamingProfile {
    /// Functions translated per pass (one full corpus).
    pub functions_per_pass: usize,
    /// Thread-local allocation count of each pass, in order. Pass 0 is the
    /// warm-up (cold pools and caches); later passes are steady state.
    pub pass_allocations: Vec<u64>,
    /// Pool traffic accumulated over all passes.
    pub pool: PoolStats,
}

impl StreamingProfile {
    /// Steady-state allocations per translated function over the first
    /// `passes` post-warm-up passes (the "k× corpus" metric: the corpus is
    /// streamed `k` times through the warm worker and the per-function cost
    /// must not grow with `k`).
    pub fn steady_state_per_function(&self, passes: usize) -> f64 {
        let passes = passes.min(self.pass_allocations.len().saturating_sub(1));
        if passes == 0 || self.functions_per_pass == 0 {
            return 0.0;
        }
        let total: u64 = self.pass_allocations[1..1 + passes].iter().sum();
        total as f64 / (passes * self.functions_per_pass) as f64
    }
}

/// Streams the corpus at `scale` through the pooled serial engine `passes`
/// times over one persistent [`EngineWorker`] and one persistent
/// [`CorpusSource`], sampling the thread-local allocation counter around
/// each pass.
///
/// Pass 0 is the warm-up: pools, caches and scratch grow to their high-water
/// marks. Every later pass reuses that storage, so its allocation count is
/// the steady-state heap traffic of streaming one more corpus through a
/// long-running translator. The counts are only meaningful in a binary that
/// registers [`alloc::CountingAllocator`] as the global allocator (they are
/// zero otherwise), and the run is strictly single-threaded because the
/// counter is thread-local.
pub fn streaming_allocation_passes(
    scale: f64,
    options: &OutOfSsaOptions,
    passes: usize,
) -> StreamingProfile {
    let mut source = CorpusSource::new(scale, true);
    let mut worker = EngineWorker::new();
    let functions_per_pass = source.functions_per_pass();
    let mut pass_allocations = Vec::with_capacity(passes);
    for _ in 0..passes.max(1) {
        source.rewind();
        let before = alloc::allocation_count();
        let stats = worker.drain(&mut source, options, None, |_, _| {});
        pass_allocations.push(alloc::allocation_count() - before);
        debug_assert_eq!(stats.results.len(), functions_per_pass);
    }
    StreamingProfile { functions_per_pass, pass_allocations, pool: worker.pool.stats() }
}

/// Runs one translation variant over one workload through the serial batch
/// engine; the clone of the workload's functions is *not* timed (the seed
/// harness included it, which diluted the engine comparison).
pub fn run_variant(workload: &Workload, options: &OutOfSsaOptions) -> (OutOfSsaStats, f64) {
    let mut funcs = workload.functions.clone();
    let start = Instant::now();
    let stats = translate_corpus(&mut funcs, options, 1);
    (stats.total(), start.elapsed().as_secs_f64())
}

/// Runs one translation variant over one workload through the serial
/// *streaming* engine (`translate_stream`, one worker). The input
/// functions are cloned into a queue before the timer starts, so the timed
/// region is exactly the engine draining an iterator — comparable with
/// [`run_variant`]'s batch-serial timing.
pub fn run_variant_streaming(
    workload: &Workload,
    options: &OutOfSsaOptions,
) -> (OutOfSsaStats, f64) {
    let queue = workload.functions.clone();
    let start = Instant::now();
    let (_funcs, stats) = translate_stream(queue, options, 1);
    (stats.total(), start.elapsed().as_secs_f64())
}

/// The seed harness's serial loop, kept as the baseline the batch engine is
/// measured against: one [`translate_out_of_ssa`] call per function, fresh
/// analyses inside every call. The clone is excluded from the timed region
/// (unlike the seed's `run_variant`) so that the batch-vs-seed-style speedup
/// measures the engine, not a timing-harness difference.
pub fn run_variant_seed_style(
    workload: &Workload,
    options: &OutOfSsaOptions,
) -> (OutOfSsaStats, f64) {
    let mut funcs = workload.functions.clone();
    let mut total = OutOfSsaStats::default();
    let start = Instant::now();
    for func in &mut funcs {
        let stats = translate_out_of_ssa(func, options);
        total.absorb(&stats);
    }
    (total, start.elapsed().as_secs_f64())
}

/// Minimal timing harness used by the `harness = false` `seq_copies` bench
/// (no Criterion in the offline build environment): runs `f` once for warm-up,
/// then `samples` times, and returns the minimum wall-clock seconds together
/// with the last result.
pub fn time_min<R>(samples: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut result = f();
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        result = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}

/// One row of the Figure 5 report: remaining copies per benchmark and the
/// ratio against the `Intersect` baseline.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Variant label.
    pub variant: &'static str,
    /// Remaining static copies per benchmark, in corpus order.
    pub copies: Vec<usize>,
    /// Remaining weighted copies per benchmark.
    pub weighted: Vec<f64>,
}

/// Computes the Figure 5 data over `corpus`.
pub fn quality_report(corpus: &[Workload]) -> Vec<QualityRow> {
    quality_variants()
        .into_iter()
        .map(|(variant, options)| {
            let mut copies = Vec::new();
            let mut weighted = Vec::new();
            for workload in corpus {
                let (stats, _) = run_variant(workload, &options);
                copies.push(stats.remaining_copies);
                weighted.push(stats.remaining_weighted);
            }
            QualityRow { variant, copies, weighted }
        })
        .collect()
}

/// One row of the Figure 6 report: time per benchmark.
#[derive(Clone, Debug)]
pub struct SpeedRow {
    /// Engine label.
    pub engine: &'static str,
    /// Seconds spent translating each benchmark.
    pub seconds: Vec<f64>,
}

/// Computes the Figure 6 data over `corpus`.
pub fn speed_report(corpus: &[Workload]) -> Vec<SpeedRow> {
    engine_variants()
        .into_iter()
        .map(|(engine, options)| {
            let seconds = corpus.iter().map(|w| run_variant(w, &options).1).collect();
            SpeedRow { engine, seconds }
        })
        .collect()
}

/// One row of the Figure 7 report: memory footprint per engine, summed over
/// the corpus.
#[derive(Clone, Debug)]
pub struct MemoryRow {
    /// Engine label.
    pub engine: &'static str,
    /// Measured footprint in bytes (graph + liveness/livecheck structures).
    pub measured_bytes: usize,
    /// Evaluated footprint using ordered-set liveness formulas.
    pub evaluated_ordered_bytes: usize,
    /// Evaluated footprint using bit-set liveness formulas.
    pub evaluated_bitset_bytes: usize,
}

/// Computes the Figure 7 data over `corpus`.
pub fn memory_report(corpus: &[Workload]) -> Vec<MemoryRow> {
    engine_variants()
        .into_iter()
        .map(|(engine, options)| {
            let mut measured = 0usize;
            let mut ordered = 0usize;
            let mut bitset = 0usize;
            for workload in corpus {
                let (stats, _) = run_variant(workload, &options);
                measured += stats.memory.total_bytes();
                ordered += stats.memory.interference_graph_evaluated
                    + stats.memory.liveness_ordered_bytes
                    + stats.memory.livecheck_evaluated;
                bitset += stats.memory.interference_graph_evaluated
                    + stats.memory.liveness_bitset_bytes
                    + stats.memory.livecheck_evaluated;
            }
            MemoryRow {
                engine,
                measured_bytes: measured,
                evaluated_ordered_bytes: ordered,
                evaluated_bitset_bytes: bitset,
            }
        })
        .collect()
}

/// Formats a ratio table normalized to the first row, one column per
/// benchmark plus a final `sum` column.
pub fn format_normalized(names: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<44}", "variant");
    for name in names {
        let _ = write!(out, "{:>12}", name.split('.').next_back().unwrap_or(name));
    }
    let _ = writeln!(out, "{:>12}", "sum");
    let baseline: Vec<f64> = rows[0].1.clone();
    let baseline_sum: f64 = baseline.iter().sum();
    for (label, values) in rows {
        let _ = write!(out, "{label:<44}");
        for (value, base) in values.iter().zip(&baseline) {
            let ratio = if *base > 0.0 { value / base } else { 1.0 };
            let _ = write!(out, "{ratio:>12.3}");
        }
        let sum: f64 = values.iter().sum();
        let ratio = if baseline_sum > 0.0 { sum / baseline_sum } else { 1.0 };
        let _ = writeln!(out, "{ratio:>12.3}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_report_has_expected_shape() {
        let corpus = corpus(0.05);
        let report = quality_report(&corpus);
        assert_eq!(report.len(), 7);
        assert!(report.iter().all(|row| row.copies.len() == corpus.len()));
        // The Intersect baseline never removes more copies than Sharing.
        let intersect: usize = report[0].copies.iter().sum();
        let sharing: usize = report[6].copies.iter().sum();
        assert!(sharing <= intersect);
    }

    #[test]
    fn corpus_source_matches_spec_like_corpus() {
        let expected: Vec<Function> = corpus(0.1).into_iter().flat_map(|w| w.functions).collect();

        // First pass: cold pool, every checkout allocates.
        let mut source = CorpusSource::new(0.1, true);
        let mut pool = FunctionPool::new();
        let mut got = Vec::new();
        while let Some(func) = source.next_into(&mut pool) {
            got.push(func);
        }
        assert_eq!(got, expected);

        // Second pass after a rewind, retiring each slot as it is checked:
        // the whole stream is rebuilt through recycled storage and must stay
        // bit-identical.
        source.rewind();
        for expected_func in &expected {
            let func = source.next_into(&mut pool).expect("rewound stream is full length");
            assert_eq!(&func, expected_func);
            pool.retire(func);
        }
        assert!(source.next_into(&mut pool).is_none());
        assert!(pool.stats().recycled >= expected.len() as u64 - 1);
    }

    #[test]
    fn streaming_profile_math() {
        let profile = StreamingProfile {
            functions_per_pass: 10,
            pass_allocations: vec![1000, 20, 30],
            pool: PoolStats::default(),
        };
        assert!((profile.steady_state_per_function(1) - 2.0).abs() < 1e-9);
        assert!((profile.steady_state_per_function(2) - 2.5).abs() < 1e-9);
        // Requesting more passes than measured clamps to what exists.
        assert!((profile.steady_state_per_function(5) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn engine_variants_cover_the_paper_configurations() {
        assert_eq!(engine_variants().len(), 7);
        assert_eq!(quality_variants().len(), 7);
    }

    #[test]
    fn normalized_table_starts_at_one() {
        let rows = vec![("base".to_string(), vec![2.0, 4.0]), ("half".to_string(), vec![1.0, 2.0])];
        let table = format_normalized(&["a", "b"], &rows);
        assert!(table.contains("1.000"));
        assert!(table.contains("0.500"));
    }
}
