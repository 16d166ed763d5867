//! Timing wrapper for the Figure 6 reproduction: time to go out of SSA for
//! each engine configuration over the simulated corpus, plus the batch
//! (parallel) corpus engine against the serial baseline.

use ossa_bench::{corpus, engine_variants, run_variant, time_min};

fn main() {
    let corpus = corpus(0.08);
    println!("fig6_speed — min of 10 samples per engine");
    for (name, options) in engine_variants() {
        let (seconds, copies) = time_min(10, || {
            let mut copies = 0usize;
            for workload in &corpus {
                copies += run_variant(workload, &options).0.remaining_copies;
            }
            copies
        });
        println!("  {name:<44} {seconds:>10.4}s   ({copies} copies)");
    }

    // Batch engine: serial vs parallel, one translate_corpus call over the
    // flattened corpus so the worker pool is spawned once and sized by the
    // whole corpus.
    let options = ossa_destruct::OutOfSsaOptions::default();
    let flat: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();
    let (serial, _) = time_min(10, || {
        let mut work = flat.clone();
        ossa_destruct::translate_corpus(&mut work, &options, 1).total().remaining_copies
    });
    let (parallel, _) = time_min(10, || {
        let mut work = flat.clone();
        ossa_destruct::translate_corpus(&mut work, &options, 0).total().remaining_copies
    });
    println!("  {:<44} {serial:>10.4}s", "batch engine (serial)");
    println!(
        "  {:<44} {parallel:>10.4}s   ({:.2}x)",
        "batch engine (parallel)",
        serial / parallel.max(1e-12)
    );
}
