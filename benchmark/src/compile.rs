//! The closed-loop compile workloads (`spec_jit`, `large_fn`): one thread
//! compiles each pre-SSA input through the JIT pipeline of
//! `examples/jit_pipeline.rs`, pass after pass, until the time budget is
//! spent.
//!
//! Each compilation is timed with the compile thread's CPU clock (wall time
//! on a shared 2-vCPU host moved by a third between identical runs), scaled
//! to the reference host speed by the calibration kernel run after every
//! `BLOCK_S` of compile time (see `calib`), and a function's time is the
//! median over its repeats.

use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use out_of_ssa::cfggen::pin_call_conventions;
use out_of_ssa::destruct::{
    set_coalesce_probe, translate_out_of_ssa_scratch, CoalesceStage, OutOfSsaOptions,
    TranslateScratch,
};
use out_of_ssa::ir::{Function, FunctionPool, InstData};
use out_of_ssa::liveness::FunctionAnalyses;
use out_of_ssa::regalloc::allocate_cached;
use out_of_ssa::ssa::{
    construct_ssa_cached, eliminate_dead_code_cached, is_conventional_cached,
    propagate_copies_keeping_cached,
};
use out_of_ssa::{Pipeline, PipelineReport};

use crate::calib::{Calibrator, Scaled};
use crate::inputs::{weighted_size, Oracle};
use crate::probe::{allocations, thread_cpu};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, sort, tail};

/// Architectural registers of the register-allocation pass.
const REGISTERS: u32 = 8;

/// Every compilation of a run is repeated at least this often, so the
/// steady-state allocation count always comes from a second pass.
const MIN_PASSES: usize = 2;

/// Functions compiled once by the warm-up before timing starts.
const WARMUP_FUNCTIONS: usize = 16;

/// Compile CPU seconds between two calibrations: short enough to follow
/// the host's speed changes, long enough that calibrating costs about 5%.
const BLOCK_S: f64 = 0.04;

/// Inputs and long-lived compiler state of one compile workload.
pub struct CompileSetup {
    pub inputs: Vec<Function>,
    pub oracle: Oracle,
    pipeline: Pipeline,
    pool: FunctionPool,
}

fn compile(pipeline: &mut Pipeline, func: &mut Function) -> PipelineReport {
    pipeline.run_with(func, |f| {
        pin_call_conventions(f);
    })
}

impl CompileSetup {
    /// Builds the reference behaviour of `inputs` and warms a pipeline up
    /// on the first few of them.
    pub fn new(seed: u64, inputs: Vec<Function>) -> Result<Self, String> {
        let oracle = Oracle::new(seed, &inputs)?;
        let mut pipeline = Pipeline::new(OutOfSsaOptions::default()).with_registers(REGISTERS);
        let mut pool = FunctionPool::new();
        for input in inputs.iter().take(WARMUP_FUNCTIONS) {
            let mut func = pool.checkout_clone_of(input);
            black_box(compile(&mut pipeline, &mut func));
            pool.retire(func);
        }
        Ok(Self { inputs, oracle, pipeline, pool })
    }
}

/// Result of the untraced closed loop.
pub struct Untraced {
    /// Per-function scaled CPU seconds, the median over the repeats.
    pub times: Vec<f64>,
    /// Median calibration factor of the run.
    pub factor: f64,
    /// The first pass's outputs, which later passes and the traced run must
    /// reproduce exactly.
    pub outputs: Vec<Function>,
    pub compilations: u64,
    pub diverged: u64,
    steady_allocations: u64,
    remaining_copies: f64,
    weighted_copies: f64,
}

/// Runs whole passes over the inputs until `budget` would be exceeded (at
/// least [`MIN_PASSES`]).
pub fn run_untraced(
    setup: &mut CompileSetup,
    calibrator: &mut Calibrator,
    budget: Duration,
) -> Untraced {
    let n = setup.inputs.len();
    let mut outputs = Vec::with_capacity(n);
    let (mut compilations, mut diverged, mut steady_allocations) = (0, 0, 0);
    let (mut remaining_copies, mut weighted_copies) = (0.0, 0.0);
    let mut scaled = Scaled::<1>::new(calibrator, n, BLOCK_S);
    let start = Instant::now();
    let mut pass = 0;
    let mut pass_time = Duration::ZERO;
    while pass < MIN_PASSES || start.elapsed() + pass_time <= budget {
        let pass_start = Instant::now();
        for (i, input) in setup.inputs.iter().enumerate() {
            let mut func = setup.pool.checkout_clone_of(input);
            let allocs_before = allocations();
            let cpu_before = thread_cpu();
            let report = compile(&mut setup.pipeline, &mut func);
            let cpu = (thread_cpu() - cpu_before).as_secs_f64();
            let allocs = allocations() - allocs_before;
            let report = black_box(report);
            scaled.record(i, [cpu], cpu);
            if pass == 0 {
                remaining_copies += report.translation.remaining_copies as f64;
                weighted_copies += report.translation.remaining_weighted;
                outputs.push(func.clone());
            } else if func != outputs[i] {
                diverged += 1;
            }
            if pass == 1 {
                steady_allocations += allocs;
            }
            drop(report);
            setup.pool.retire(func);
        }
        compilations += n as u64;
        pass += 1;
        pass_time = pass_start.elapsed();
    }
    let times = scaled.medians().into_iter().map(|m| m[0]).collect();
    let factor = median_of(&scaled.factors);
    Untraced {
        times,
        factor,
        outputs,
        compilations,
        diverged,
        steady_allocations,
        remaining_copies,
        weighted_copies,
    }
}

fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    median(&sorted)
}

/// Oracle verdict over a run's outputs.
pub struct Checked {
    pub failures: u64,
    pub exec_steps: u64,
    pub code_insts: u64,
    pub seconds: f64,
}

/// Compares every output with its input's reference behaviour.
pub fn check_outputs(oracle: &Oracle, outputs: &[Function]) -> Checked {
    let start = Instant::now();
    let mut checked = Checked { failures: 0, exec_steps: 0, code_insts: 0, seconds: 0.0 };
    for (i, output) in outputs.iter().enumerate() {
        checked.code_insts += output.num_attached_insts() as u64;
        match oracle.check(i, output) {
            Ok(steps) => checked.exec_steps += steps,
            Err(why) => {
                eprintln!("oracle: {why}");
                checked.failures += 1;
            }
        }
    }
    checked.seconds = start.elapsed().as_secs_f64();
    checked
}

/// End-to-end metrics of an untraced compile run.
pub fn end_to_end(
    setup: &CompileSetup,
    run: &Untraced,
    checked: &Checked,
    metrics: &mut Metrics,
) -> Outcome {
    let n = run.times.len();
    let mut times_ms: Vec<f64> = run.times.iter().map(|&t| t * 1e3).collect();
    sort(&mut times_ms);
    let total_s: f64 = run.times.iter().sum();
    let (tail_ms, percentile) = tail(&times_ms, 10);
    eprintln!(
        "{n} distinct functions, {} compilations, host speed factor {:.3}; tail = p{:.2} of \
         {n} per-function medians",
        run.compilations,
        run.factor,
        percentile * 100.0
    );
    metrics.set("throughput_fns_per_s", n as f64 / total_s);
    metrics.set("latency_p50_ms", median(&times_ms));
    metrics.set("latency_tail_ms", tail_ms);
    metrics.set("allocs_per_fn", run.steady_allocations as f64 / n as f64);
    metrics.set("remaining_copies", run.remaining_copies);
    metrics.set("weighted_copies", run.weighted_copies / weighted_size(&setup.inputs));
    metrics.set("code_insts", checked.code_insts as f64);
    metrics.set("exec_steps", checked.exec_steps as f64 / setup.oracle.reference_steps() as f64);
    Outcome { attempted: run.compilations, failed: run.diverged + checked.failures }
}

/// Indices of the per-function layer spans of a traced compilation.
#[derive(Clone, Copy)]
enum Span {
    Construct,
    CopyProp,
    Dce,
    CssaCheck,
    Translate,
    Liveness,
    Coalesce,
    Sequentialize,
    Regalloc,
    Setup,
    Affinity,
    Decide,
    Sharing,
    Snapshot,
    Rewrite,
}
const SPANS: usize = 15;

/// The spans of the coalesce sub-stages, in [`CoalesceStage`] order.
const STAGE_SPANS: [Span; 6] =
    [Span::Setup, Span::Affinity, Span::Decide, Span::Sharing, Span::Snapshot, Span::Rewrite];

/// Coalesce sub-stage clock, fed by the translation's profiling probe.
struct StageClock {
    open: Cell<Option<(usize, Instant)>>,
    totals: Cell<[Duration; 6]>,
}

thread_local! {
    static STAGES: StageClock = const {
        StageClock { open: Cell::new(None), totals: Cell::new([Duration::ZERO; 6]) }
    };
}

fn stage_probe(stage: CoalesceStage) {
    let now = Instant::now();
    STAGES.with(|clock| {
        if let Some((index, since)) = clock.open.get() {
            let mut totals = clock.totals.get();
            totals[index] += now - since;
            clock.totals.set(totals);
        }
        let next = match stage {
            CoalesceStage::Setup => Some(0),
            CoalesceStage::AffinityBuild => Some(1),
            CoalesceStage::Decide => Some(2),
            CoalesceStage::Sharing => Some(3),
            CoalesceStage::Snapshot => Some(4),
            CoalesceStage::Rewrite => Some(5),
            CoalesceStage::Done => None,
        };
        clock.open.set(next.map(|index| (index, now)));
    });
}

fn take_stage_totals() -> [Duration; 6] {
    STAGES.with(|clock| {
        clock.open.set(None);
        clock.totals.replace([Duration::ZERO; 6])
    })
}

/// Counters of one traced pass.
#[derive(Default)]
struct TracedCounts {
    phis_inserted: u64,
    moves_inserted: u64,
    edges_split: u64,
    queries: u64,
    moves_coalesced: u64,
    fallbacks: u64,
    copies_out: u64,
    spills: u64,
    registers_used: u64,
}

/// The layers of [`Pipeline::run_with`], called one by one in the same
/// order, over the same kind of long-lived cache and scratch.
struct Layers {
    analyses: FunctionAnalyses,
    scratch: TranslateScratch,
    options: OutOfSsaOptions,
}

/// One traced compilation: wall seconds per [`Span`], and the allocations
/// of the translate span.
struct Traced {
    spans: [f64; SPANS],
    translate_allocs: u64,
}

impl Layers {
    fn compile(&mut self, func: &mut Function, counts: &mut TracedCounts) -> Traced {
        let analyses = &mut self.analyses;
        analyses.invalidate_cfg();
        let t0 = Instant::now();
        let construction = construct_ssa_cached(func, analyses);
        let t1 = Instant::now();
        black_box(propagate_copies_keeping_cached(func, 0, analyses));
        let t2 = Instant::now();
        black_box(eliminate_dead_code_cached(func, analyses));
        let t3 = Instant::now();
        black_box(is_conventional_cached(func, analyses));
        let t4 = Instant::now();
        pin_call_conventions(func);
        analyses.invalidate_instructions();
        take_stage_totals();
        let allocs_before = allocations();
        let t5 = Instant::now();
        let translation =
            translate_out_of_ssa_scratch(func, &self.options, analyses, &mut self.scratch);
        let t6 = Instant::now();
        let translate_allocs = allocations() - allocs_before;
        let allocation = allocate_cached(func, REGISTERS, analyses);
        let t7 = Instant::now();

        let stages = take_stage_totals();
        let phases = translation.phase_seconds;
        let mut spans = [0.0; SPANS];
        let mut set = |span: Span, seconds: f64| spans[span as usize] = seconds;
        set(Span::Construct, (t1 - t0).as_secs_f64());
        set(Span::CopyProp, (t2 - t1).as_secs_f64());
        set(Span::Dce, (t3 - t2).as_secs_f64());
        set(Span::CssaCheck, (t4 - t3).as_secs_f64());
        set(Span::Translate, (t6 - t5).as_secs_f64());
        set(Span::Liveness, phases.liveness);
        set(Span::Coalesce, phases.coalesce);
        set(Span::Sequentialize, phases.sequentialize);
        set(Span::Regalloc, (t7 - t6).as_secs_f64());
        for (stage, span) in stages.into_iter().zip(STAGE_SPANS) {
            set(span, stage.as_secs_f64());
        }

        counts.phis_inserted += construction.phis_inserted as u64;
        counts.moves_inserted += translation.moves_inserted as u64;
        counts.edges_split += translation.edges_split as u64;
        counts.queries += translation.interference_queries;
        counts.moves_coalesced += translation.moves_coalesced as u64;
        counts.fallbacks += translation.liveness_fallbacks as u64;
        counts.spills += allocation.spills as u64;
        counts.registers_used += allocation.registers_used() as u64;
        counts.copies_out += count_copies(func);
        Traced { spans, translate_allocs }
    }
}

/// Sequential copies in `func`.
pub fn count_copies(func: &Function) -> u64 {
    func.layout()
        .iter()
        .flat_map(|&b| func.block_insts(b))
        .filter(|&&inst| matches!(func.inst(inst), InstData::Copy { .. }))
        .count() as u64
}

/// Traced run: an untraced measurement for half the budget, then the same
/// inputs driven layer by layer for the other half, every output compared
/// with the untraced one. Returns the outcome and the traced first pass's
/// outputs; fills the per-layer metrics.
pub fn run_traced(
    setup: &mut CompileSetup,
    calibrator: &mut Calibrator,
    budget: Duration,
    metrics: &mut Metrics,
) -> (Outcome, Vec<Function>) {
    let untraced = run_untraced(setup, calibrator, budget / 2);
    let n = setup.inputs.len();
    let mut layers = Layers {
        analyses: FunctionAnalyses::new(),
        scratch: TranslateScratch::new(),
        options: OutOfSsaOptions::default(),
    };
    let mut pool = FunctionPool::new();
    let mut counts = TracedCounts::default();
    let mut later_counts = TracedCounts::default();
    let mut steady_translate_allocs = 0u64;
    let mut first_pass = None;
    let mut outputs = Vec::with_capacity(n);
    let (mut diverged, mut compilations) = (0u64, 0u64);
    // Component 0 is the compilation's CPU time, then the spans.
    let mut scaled = Scaled::<{ SPANS + 1 }>::new(calibrator, n, BLOCK_S);

    set_coalesce_probe(Some(stage_probe));
    let start = Instant::now();
    let mut pass = 0;
    let mut pass_time = Duration::ZERO;
    while pass < MIN_PASSES || start.elapsed() + pass_time <= budget / 2 {
        let pass_start = Instant::now();
        let analyses_before = layers.analyses.counts();
        let pool_before = pool.stats();
        for (i, input) in setup.inputs.iter().enumerate() {
            let mut func = pool.checkout_clone_of(input);
            let pass_counts = if pass == 0 { &mut counts } else { &mut later_counts };
            let cpu_before = thread_cpu();
            let traced = layers.compile(&mut func, pass_counts);
            let cpu = (thread_cpu() - cpu_before).as_secs_f64();
            let mut sample = [cpu; SPANS + 1];
            sample[1..].copy_from_slice(&traced.spans);
            scaled.record(i, sample, cpu);
            if pass == 1 {
                steady_translate_allocs += traced.translate_allocs;
            }
            if func != untraced.outputs[i] {
                diverged += 1;
            }
            if pass == 0 {
                outputs.push(func.clone());
            }
            pool.retire(func);
        }
        if pass == 0 {
            let after = layers.analyses.counts();
            let pool_after = pool.stats();
            first_pass = Some((
                after.liveness_sets - analyses_before.liveness_sets,
                after.fast_liveness - analyses_before.fast_liveness,
                after.liveness_incremental_repairs - analyses_before.liveness_incremental_repairs,
                pool_after.checkouts - pool_before.checkouts,
                pool_after.recycled - pool_before.recycled,
            ));
        }
        compilations += n as u64;
        pass += 1;
        pass_time = pass_start.elapsed();
    }
    set_coalesce_probe(None);
    let medians = scaled.medians();

    let checked = check_outputs(&setup.oracle, &untraced.outputs);
    let span_ms = |span: Span| medians.iter().map(|m| m[1 + span as usize]).sum::<f64>() * 1e3;
    let (sets, fast, repairs, checkouts, recycled) = first_pass.expect("at least one traced pass");
    metrics.set("ssa.construct_ms", span_ms(Span::Construct));
    metrics.set("ssa.copyprop_ms", span_ms(Span::CopyProp));
    metrics.set("ssa.dce_ms", span_ms(Span::Dce));
    metrics.set("ssa.cssa_check_ms", span_ms(Span::CssaCheck));
    metrics.set("ssa.phis_inserted", counts.phis_inserted as f64);
    metrics.set("liveness.ms", span_ms(Span::Liveness));
    metrics.set("liveness.sets_computed", sets as f64);
    metrics.set("liveness.fast_computed", fast as f64);
    metrics.set("liveness.incremental_repairs", repairs as f64);
    metrics.set("liveness.fallbacks", counts.fallbacks as f64);
    metrics.set(
        "insertion.ms",
        span_ms(Span::Translate)
            - span_ms(Span::Liveness)
            - span_ms(Span::Coalesce)
            - span_ms(Span::Sequentialize),
    );
    metrics.set("insertion.moves_inserted", counts.moves_inserted as f64);
    metrics.set("insertion.edges_split", counts.edges_split as f64);
    metrics.set("coalesce.ms", span_ms(Span::Coalesce));
    metrics.set("coalesce.setup_ms", span_ms(Span::Setup));
    metrics.set("coalesce.affinity_ms", span_ms(Span::Affinity));
    metrics.set("coalesce.decide_ms", span_ms(Span::Decide));
    metrics.set("coalesce.sharing_ms", span_ms(Span::Sharing));
    metrics.set("coalesce.snapshot_ms", span_ms(Span::Snapshot));
    metrics.set("coalesce.rewrite_ms", span_ms(Span::Rewrite));
    metrics.set("coalesce.queries", counts.queries as f64);
    metrics.set("coalesce.moves_coalesced", counts.moves_coalesced as f64);
    metrics.set(
        "coalesce.coalesced_ratio",
        counts.moves_coalesced as f64 / counts.moves_inserted.max(1) as f64,
    );
    metrics.set(
        "coalesce.queries_per_coalesced",
        counts.queries as f64 / counts.moves_coalesced.max(1) as f64,
    );
    metrics.set("sequentialize.ms", span_ms(Span::Sequentialize));
    metrics.set("sequentialize.copies_out", counts.copies_out as f64);
    metrics.set("regalloc.ms", span_ms(Span::Regalloc));
    metrics.set("regalloc.spills", counts.spills as f64);
    metrics.set("regalloc.registers_used", counts.registers_used as f64 / n as f64);
    metrics.set("pool.checkouts", checkouts as f64);
    metrics.set("pool.recycle_ratio", recycled as f64 / checkouts.max(1) as f64);
    metrics.set("allocs.translate_per_fn", steady_translate_allocs as f64 / n as f64);
    metrics.set("oracle.ms", checked.seconds * 1e3);
    metrics.set("oracle.mismatches", checked.failures as f64);

    // Self times of the layers (the pin hook between the CSSA check and the
    // translation is the caller's code and stays unaccounted).
    let accounted_ms = span_ms(Span::Construct)
        + span_ms(Span::CopyProp)
        + span_ms(Span::Dce)
        + span_ms(Span::CssaCheck)
        + span_ms(Span::Translate)
        + span_ms(Span::Regalloc);
    let untraced_ms = untraced.times.iter().sum::<f64>() * 1e3;
    let traced_ms = medians.iter().map(|m| m[0]).sum::<f64>() * 1e3;
    metrics.set("trace.accounted_share", accounted_ms / untraced_ms);
    metrics.set("trace.overhead_share", traced_ms / untraced_ms - 1.0);
    if diverged > 0 {
        eprintln!("{diverged} traced compilations differ from the untraced outputs");
    }
    let outcome = Outcome {
        attempted: untraced.compilations + compilations,
        failed: untraced.diverged + diverged + checked.failures,
    };
    (outcome, outputs)
}
