//! Exact per-stage allocation and time profile of the serial batch engine.
//!
//! Runs the batch engine's per-function body (`invalidate_cfg` +
//! [`translate_out_of_ssa_scratch`] on one recycled [`FunctionAnalyses`]
//! and [`TranslateScratch`], as `EngineWorker` does) over the corpus once to
//! warm that state, then once more measured: the allocation counter and the
//! clock are sampled around every call and, through the
//! [`ossa_destruct::set_coalesce_probe`] hook, at every coalesce sub-stage
//! boundary. Every allocation and every nanosecond of the measured pass
//! lands in exactly one row:
//!
//! * `pre_coalesce` — call start to `Setup`: copy insertion and the
//!   liveness phase (CFG, dominators, liveness backend, def/use index);
//! * the six coalesce sub-stages `setup`, `affinity_build`, `decide`,
//!   `sharing`, `snapshot` and `rewrite`;
//! * `post_coalesce` — `Done` to call end: sequentialization and the copy
//!   count.
//!
//! The rows are printed beside the batch-serial total, one
//! `translate_corpus(…, 1)` call over the same corpus (the
//! `batch_serial_allocations` figure of `fig6_speed`). The remainder,
//! total minus the row sum, is the `driver` row: the batch driver itself
//! plus the growth of its cold worker, which the warmed rows do not pay.
//! The rows therefore add up exactly to the total.
//!
//! Usage: `alloc_profile [scale] [--json PATH]` (default scale 1.0).
//! `--json PATH` writes the rows as a JSON report (archived by CI next to
//! `BENCH_fig6.json`).

use std::cell::RefCell;
use std::time::Instant;

use ossa_bench::alloc::allocation_count;
use ossa_destruct::{
    set_coalesce_probe, translate_corpus, translate_out_of_ssa_scratch, CoalesceStage,
    OutOfSsaOptions, TranslateScratch,
};
use ossa_liveness::FunctionAnalyses;

#[global_allocator]
static ALLOC: ossa_bench::alloc::CountingAllocator = ossa_bench::alloc::CountingAllocator;

/// The measured rows, in pipeline order.
const ROWS: [&str; 8] = [
    "pre_coalesce",
    "setup",
    "affinity_build",
    "decide",
    "sharing",
    "snapshot",
    "rewrite",
    "post_coalesce",
];

/// Per-row accumulators of the measured pass. Each mark closes the open row
/// (attributing the allocation and time deltas since it opened) and opens
/// the next one; the marks themselves allocate nothing.
struct Profile {
    open: Option<(usize, u64, Instant)>,
    allocs: [u64; ROWS.len()],
    nanos: [u64; ROWS.len()],
}

thread_local! {
    static PROFILE: RefCell<Profile> = const {
        RefCell::new(Profile { open: None, allocs: [0; ROWS.len()], nanos: [0; ROWS.len()] })
    };
}

fn mark(next: Option<usize>) {
    let allocs_now = allocation_count();
    let now = Instant::now();
    PROFILE.with(|profile| {
        let mut profile = profile.borrow_mut();
        if let Some((row, allocs_then, then)) = profile.open {
            profile.allocs[row] += allocs_now - allocs_then;
            profile.nanos[row] += now.duration_since(then).as_nanos() as u64;
        }
        profile.open = next.map(|row| (row, allocs_now, now));
    });
}

fn coalesce_probe(stage: CoalesceStage) {
    mark(Some(match stage {
        CoalesceStage::Setup => 1,
        CoalesceStage::AffinityBuild => 2,
        CoalesceStage::Decide => 3,
        CoalesceStage::Sharing => 4,
        CoalesceStage::Snapshot => 5,
        CoalesceStage::Rewrite => 6,
        CoalesceStage::Done => 7,
    }));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            json_path = args.get(i + 1).cloned();
            i += 2;
        } else if let Ok(s) = args[i].parse::<f64>() {
            scale = s;
            i += 1;
        } else {
            eprintln!("unknown argument: {}", args[i]);
            eprintln!("usage: alloc_profile [scale] [--json PATH]");
            std::process::exit(2);
        }
    }
    let options = OutOfSsaOptions::default();
    let corpus = ossa_cfggen::spec_like_corpus(scale, true);
    let functions: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();

    // Warm the recycled state on the whole corpus, so the measured pass
    // sees every cache and scratch buffer at its high-water mark.
    let mut analyses = FunctionAnalyses::new();
    let mut scratch = TranslateScratch::new();
    for func in &mut functions.clone() {
        analyses.invalidate_cfg();
        let _ = translate_out_of_ssa_scratch(func, &options, &mut analyses, &mut scratch);
    }

    // The measured pass.
    let mut work = functions.clone();
    set_coalesce_probe(Some(coalesce_probe));
    for func in &mut work {
        mark(Some(0));
        analyses.invalidate_cfg();
        let _ = translate_out_of_ssa_scratch(func, &options, &mut analyses, &mut scratch);
        mark(None);
    }
    set_coalesce_probe(None);
    let (allocs, nanos) = PROFILE.with(|profile| {
        let profile = profile.borrow();
        (profile.allocs, profile.nanos)
    });

    // The batch-serial total the rows split.
    let (total_allocs, total_nanos) = {
        let mut work = functions.clone();
        let before = allocation_count();
        let start = Instant::now();
        let _ = translate_corpus(&mut work, &options, 1);
        let nanos = start.elapsed().as_nanos() as i64;
        ((allocation_count() - before) as i64, nanos)
    };
    let driver_allocs = total_allocs - allocs.iter().sum::<u64>() as i64;
    let driver_nanos = total_nanos - nanos.iter().sum::<u64>() as i64;

    println!("allocation profile at scale {scale} over {} functions", functions.len());
    for (i, name) in ROWS.iter().enumerate() {
        println!("  {name:<15} {:>7} allocations  {:>9.3} ms", allocs[i], nanos[i] as f64 / 1e6);
    }
    println!(
        "  {:<15} {driver_allocs:>7} allocations  {:>9.3} ms",
        "driver",
        driver_nanos as f64 / 1e6
    );
    println!(
        "  {:<15} {total_allocs:>7} allocations  {:>9.3} ms",
        "batch serial",
        total_nanos as f64 / 1e6
    );

    if let Some(path) = json_path {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str(&format!("  \"scale\": {scale},\n"));
        json.push_str(&format!("  \"functions\": {},\n", functions.len()));
        json.push_str("  \"rows\": {\n");
        for (i, name) in ROWS.iter().enumerate() {
            json.push_str(&format!(
                "    \"{name}\": {{ \"allocations\": {}, \"seconds\": {:.6} }},\n",
                allocs[i],
                nanos[i] as f64 / 1e9
            ));
        }
        json.push_str(&format!(
            "    \"driver\": {{ \"allocations\": {driver_allocs}, \"seconds\": {:.6} }}\n",
            driver_nanos as f64 / 1e9
        ));
        json.push_str("  },\n");
        json.push_str(&format!("  \"batch_serial_allocations\": {total_allocs},\n"));
        json.push_str(&format!("  \"batch_serial_seconds\": {:.6}\n", total_nanos as f64 / 1e9));
        json.push_str("}\n");
        std::fs::write(&path, json).expect("write allocation profile JSON");
        println!("wrote {path}");
    }
}
