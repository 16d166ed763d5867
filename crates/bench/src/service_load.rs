//! Deterministic scripted-overload segment of `service_bench` (its measured
//! report and its `--smoke` check).
//!
//! Drives a [`TranslationService`] through every gate of its overload model
//! with the workers *paused*, so queue depth is scripted rather than
//! scheduled: shed-oldest eviction, a deadline expiring in the queue, and
//! the global degradation ladder stepping up under depth and back down
//! during the drain. Because no translation races the submissions, every
//! resulting counter is a fixed function of the submission count —
//! machine-independent, so `bench_gate` can hold the report fields derived
//! from it to *exact* equality with the committed baseline:
//!
//! * `shed` = submissions − capacity (everything past the bounded queue
//!   evicts the oldest entry),
//! * `expired_in_queue` = 2 (the two already-expired requests submitted
//!   last, where the oldest-first shed cannot reach them),
//! * `degraded_transitions` = 2 and `recovered_transitions` = 2 (the level
//!   walks 0 → 1 → 2 as the scripted depth crosses the thresholds, and
//!   2 → 1 → 0 as the drain empties the queue).

use std::time::Duration;

use ossa_ir::Function;
use ossa_service::{
    AdmissionPolicy, DegradationConfig, ServiceConfig, ServiceStats, TranslationService,
};

/// Runs the scripted overload over `functions` (at least 8) and returns the
/// final service statistics. See the module docs for the exact counter
/// values the script guarantees.
pub fn scripted_overload_stats(functions: &[Function]) -> ServiceStats {
    assert!(functions.len() >= 8, "the scripted overload needs at least 8 functions");
    let capacity = functions.len() / 2;
    let service = TranslationService::start(ServiceConfig {
        workers: 1,
        queue_capacity: capacity,
        admission: AdmissionPolicy::ShedOldest,
        degradation: DegradationConfig {
            degrade_depth: capacity / 2,
            severe_depth: capacity - 1,
            recover_depth: 1,
        },
        ..ServiceConfig::default()
    });
    service.pause();
    let mut tickets: Vec<_> = functions
        .iter()
        .map(|func| service.submit(func.clone()).expect("shed-oldest admission never refuses"))
        .collect();
    // Two requests whose deadline has already passed, submitted last so the
    // shed policy (oldest first) cannot evict them: they deterministically
    // expire at dequeue instead of translating.
    for func in functions.iter().take(2) {
        tickets.push(
            service
                .submit_with_deadline(func.clone(), Some(Duration::ZERO))
                .expect("shed-oldest admission never refuses"),
        );
    }
    service.resume();
    for ticket in tickets {
        let _ = ticket.wait();
    }
    service.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_overload_counters_are_exactly_predicted() {
        let functions: Vec<Function> =
            crate::corpus(0.05).into_iter().flat_map(|w| w.functions).take(12).collect();
        assert!(functions.len() >= 8);
        let capacity = functions.len() / 2;
        let stats = scripted_overload_stats(&functions);
        assert_eq!(stats.accepted, functions.len() as u64 + 2);
        assert_eq!(stats.shed, (functions.len() + 2 - capacity) as u64);
        assert_eq!(stats.expired_in_queue, 2);
        assert_eq!(stats.degraded_transitions, 2);
        assert_eq!(stats.recovered_transitions, 2);
        assert_eq!(stats.completed, capacity as u64 - 2);
        assert_eq!(stats.resolved(), stats.accepted);
        assert_eq!(stats.level, 0, "the drain recovers the level fully");
    }
}
