//! [`FunctionPool::prewarm`] at the streaming-engine level: pre-reserving
//! function shells must cut the warm-up allocations of the *first* streaming
//! pass (the pass every later one recycles from) without changing a single
//! translated byte.

use out_of_ssa::cfggen::{generate_ssa_function_into, GenConfig};
use out_of_ssa::destruct::{EngineWorker, OutOfSsaOptions};
use out_of_ssa::ir::{Function, FunctionPool};

/// Counting allocator for the warm-up assertions below. Registered per test
/// binary; only this file's tests see it.
#[global_allocator]
static ALLOC: ossa_bench::alloc::CountingAllocator = ossa_bench::alloc::CountingAllocator;

const STREAM_LEN: u64 = 8;

/// A pool-aware source regenerating the same small corpus into checked-out
/// slots.
fn source() -> impl FnMut(&mut FunctionPool) -> Option<Function> {
    let mut next = 0u64;
    move |pool: &mut FunctionPool| {
        if next >= STREAM_LEN {
            return None;
        }
        let seed = next;
        next += 1;
        let slot = pool.checkout();
        Some(generate_ssa_function_into(slot, format!("pw{seed}"), &GenConfig::small(), seed).0)
    }
}

/// One full first pass through a fresh engine worker, returning the
/// allocation count of the pass and the translated functions.
fn first_pass(worker: &mut EngineWorker) -> (u64, Vec<Function>) {
    let options = OutOfSsaOptions::default();
    let mut outputs = Vec::new();
    let mut src = source();
    let before = ossa_bench::alloc::allocation_count();
    worker.drain(&mut src, &options, None, |_, func| {
        outputs.push(func.expect("plain translation cannot fail").clone());
    });
    let allocations = ossa_bench::alloc::allocation_count() - before;
    (allocations, outputs)
}

#[test]
fn prewarmed_pool_cuts_first_pass_allocations() {
    // Cold worker: every checkout allocates a fresh shell that then grows
    // its arenas from nothing while the generator builds into it.
    let mut cold_worker = EngineWorker::new();
    let (cold_allocs, cold_outputs) = first_pass(&mut cold_worker);
    assert_eq!(cold_worker.pool.stats().recycled, STREAM_LEN - 1);

    // Prewarmed worker: the free list starts with shells whose instruction
    // and value arenas are reserved at a generous estimate, so the first
    // pass skips the cold pass's incremental arena growth. The prewarm
    // itself is *outside* the measured window — it is start-up cost, paid
    // before the stream arrives (that is its point).
    let mut warm_worker = EngineWorker::new();
    warm_worker.pool.prewarm(2, 512);
    let (warm_allocs, warm_outputs) = first_pass(&mut warm_worker);

    // Every checkout of the prewarmed pass was served from the free list...
    assert_eq!(warm_worker.pool.stats().recycled, STREAM_LEN);
    // ...the translated functions are bit-identical to the cold pass...
    assert_eq!(warm_outputs, cold_outputs);
    // ...and the warm-up allocation count dropped.
    assert!(
        warm_allocs < cold_allocs,
        "prewarmed first pass must allocate less: {warm_allocs} vs cold {cold_allocs}"
    );
}
