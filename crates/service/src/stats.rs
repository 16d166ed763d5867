//! Service observability: latency histograms and the [`ServiceStats`]
//! counter block every overload decision is recorded in.
//!
//! Counters are deliberately coarse-grained and monotonic — each one counts
//! a *decision* the service made (accepted, shed, expired, degraded…), so a
//! scripted overload test can assert the exact sequence of decisions and a
//! production dashboard can alert on their rates. Latency is recorded in
//! log₂-bucketed histograms: constant memory, no per-request allocation, and
//! deterministic quantile reads (the upper bound of the bucket holding the
//! requested rank).

use std::time::Duration;

use ossa_ir::PoolStats;

/// Number of log₂ buckets: bucket `i` holds durations whose microsecond
/// count needs `i` bits, i.e. `[2^(i-1), 2^i)` µs (bucket 0: sub-µs). 40
/// buckets cover up to ~2^39 µs ≈ 6.4 days.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram with deterministic quantiles.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], count: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(duration: Duration) -> usize {
        let micros = duration.as_micros().min(u64::MAX as u128) as u64;
        let bits = (u64::BITS - micros.leading_zeros()) as usize;
        bits.min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, duration: Duration) {
        self.buckets[Self::bucket_of(duration)] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in seconds: the upper bound of the
    /// bucket holding the sample of that rank, so the estimate always
    /// *over*-reports within one bucket (a conservative p99 for an SLO
    /// check). Returns 0.0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i covers durations below 2^i microseconds.
                return (1u64 << i) as f64 / 1e6;
            }
        }
        (1u64 << (BUCKETS - 1)) as f64 / 1e6
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// A point-in-time snapshot of every counter, gauge and histogram the
/// service maintains. Returned by `TranslationService::stats` (live, worker
/// pools not yet merged) and `TranslationService::shutdown` (final, pools
/// merged).
///
/// See the README's "Overload model & degradation ladder" section for the
/// meaning of each counter in the admission/deadline/ladder state machine.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests presented to `submit` (accepted or not).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests refused with `SubmitError::QueueFull` (Reject admission).
    pub rejected_queue_full: u64,
    /// Requests refused with `SubmitError::AdmissionTimeout` (Block
    /// admission wait exhausted before space opened).
    pub admission_timeouts: u64,
    /// Requests refused because the service was shutting down.
    pub rejected_shutdown: u64,
    /// Previously *accepted* requests evicted by ShedOldest admission; each
    /// received `ServiceError::Shed`.
    pub shed: u64,
    /// Accepted requests whose deadline had already passed at dequeue; each
    /// received `ServiceError::ExpiredInQueue` without translating.
    pub expired_in_queue: u64,
    /// Requests whose translation completed and was delivered.
    pub completed: u64,
    /// Requests whose every ladder rung failed; each received
    /// `ServiceError::Translate` with the final rung's error.
    pub failed: u64,
    /// Requests whose *final* error was `TranslateError::DeadlineExceeded`
    /// (the cancellation token tripped mid-translation on the last rung).
    pub deadline_exceeded: u64,
    /// Requests healed by a later ladder rung after an earlier rung failed.
    pub recovered: u64,
    /// Validation rejections observed across all rungs (including rungs
    /// that were subsequently healed).
    pub validation_failures: u64,
    /// Ladder transitions to a *more* degraded level.
    pub degraded_transitions: u64,
    /// Ladder transitions back toward the full-fidelity level.
    pub recovered_transitions: u64,
    /// Requests started at each degradation level (index = level).
    pub per_level: [u64; 3],
    /// The degradation level at snapshot time.
    pub level: u8,
    /// High-water mark of the queue depth.
    pub max_queue_depth: u64,
    /// Queue-wait latency (enqueue → dequeue), per accepted request.
    pub queue_wait: LatencyHistogram,
    /// Translation latency (ladder start → final outcome), per translated
    /// request.
    pub translate: LatencyHistogram,
    /// End-to-end latency (enqueue → reply), per accepted request.
    pub total: LatencyHistogram,
    /// Aggregated worker pool traffic (pristine snapshots + engine slots).
    /// Merged at worker exit, so live snapshots report only exited workers.
    pub pool: PoolStats,
}

impl ServiceStats {
    /// Accepted requests that have reached a terminal outcome so far.
    pub fn resolved(&self) -> u64 {
        self.completed + self.failed + self.expired_in_queue + self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0.0);
        for micros in [1u64, 1, 1, 1000, 1000, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 6);
        // 4 of 6 samples at or below the 1µs/1ms buckets: the median lands
        // in the 1µs bucket (upper bound 2^1 µs), p99 in the 100ms range.
        let p50 = h.quantile(0.5);
        assert!(p50 <= 4e-6, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((0.1..0.27).contains(&p99), "p99 {p99}");
        // Quantiles never under-report: every sample ≤ its bucket's bound.
        assert!(h.quantile(1.0) >= 0.1);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_millis(10));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) >= 0.01);
    }
}
