//! The bounded submission queue and the service's whole overload state: a
//! `Mutex` + two `Condvar`s over a `VecDeque`, the degradation level and the
//! [`ServiceStats`], with the three admission policies and the pause/close
//! lifecycle.
//!
//! One lock, taken once per request event: a push admits or refuses, a pop
//! dequeues or expires, a completion records the outcome. Each event changes
//! the queue, steps the level on the depth it leaves and counts itself in
//! that one critical section, so a live snapshot always balances (every
//! resolved request was accepted, every accepted one submitted), a level
//! step is made on exactly the depth it reads, and no two producers can
//! both shed one victim or both squeeze past the bound. Replies are sent by
//! the caller, outside the lock.

use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ossa_destruct::TranslateError;
use ossa_ir::{Function, PoolStats};

use crate::{
    AdmissionPolicy, Completed, DegradationConfig, ServiceError, ServiceResponse, ServiceStats,
};

/// One accepted request parked in the queue.
pub(crate) struct QueueEntry {
    /// Service-assigned request id, echoed in the response.
    pub id: u64,
    /// The function to translate; ownership round-trips back to the client
    /// in the response, so a rejected or shed request loses nothing.
    pub func: Function,
    /// Absolute deadline spanning queue wait *and* translation.
    pub deadline: Option<Instant>,
    /// When the request was accepted; anchors the latency histograms.
    pub enqueued: Instant,
    /// One-shot reply channel (capacity 1, so the send never blocks).
    pub reply: SyncSender<ServiceResponse>,
}

impl QueueEntry {
    /// Replies to a request that was never translated (shed, or expired in
    /// the queue) after `waited`, handing its input back.
    pub fn refuse(self, error: ServiceError, waited: Duration) {
        let _ = self.reply.send(ServiceResponse {
            id: self.id,
            outcome: Err(error),
            returned: Some(self.func),
            queue_seconds: waited.as_secs_f64(),
            total_seconds: waited.as_secs_f64(),
        });
    }
}

struct Inner {
    entries: VecDeque<QueueEntry>,
    /// Closed queues accept nothing; pops drain the backlog then return
    /// `None`.
    closed: bool,
    /// Paused queues accept pushes but park consumers — the deterministic
    /// overload throttle the queue-edge tests script depth with.
    paused: bool,
    /// Global degradation level (0, 1 or 2).
    level: u8,
    stats: ServiceStats,
}

impl Inner {
    /// Moves the degradation level one step toward the target the current
    /// queue depth calls for, recording the transition.
    fn step_level(&mut self, deg: &DegradationConfig) {
        if !deg.enabled() {
            return;
        }
        let depth = self.entries.len();
        let current = self.level;
        let target = if depth >= deg.severe_depth {
            2
        } else if depth >= deg.degrade_depth {
            current.max(1)
        } else if depth <= deg.recover_depth {
            0
        } else {
            current
        };
        let next = match target.cmp(&current) {
            std::cmp::Ordering::Greater => current + 1,
            std::cmp::Ordering::Less => current - 1,
            std::cmp::Ordering::Equal => return,
        };
        self.level = next;
        if next > current {
            self.stats.degraded_transitions += 1;
        } else {
            self.stats.recovered_transitions += 1;
        }
    }
}

/// Why a push was refused. The entry comes back so the caller can return
/// the function to the client.
pub(crate) enum PushRefusal {
    /// The queue was at capacity (Reject admission, or a Block admission
    /// wait that expired).
    Full(QueueEntry),
    /// The queue was closed.
    Closed(QueueEntry),
}

/// An entry handed to a worker by [`SharedQueue::pop`].
pub(crate) enum Dequeued {
    /// The deadline passed while the entry waited; it was counted as
    /// expired and must be replied to without translating.
    Expired { entry: QueueEntry, waited: Duration },
    /// The entry is to be translated, starting at degradation `level`.
    Ready { entry: QueueEntry, level: u8, dequeued: Instant, waited: Duration },
}

/// Every critical section is counter arithmetic and deque edits; none can
/// panic, so the lock is never poisoned.
const POISONED: &str = "a service thread panicked while holding the queue lock";

pub(crate) struct SharedQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    degradation: DegradationConfig,
}

impl SharedQueue {
    pub fn new(capacity: usize, degradation: DegradationConfig) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                paused: false,
                level: 0,
                stats: ServiceStats::default(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            degradation,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect(POISONED)
    }

    /// Counts a submission and admits `entry` under `admission`: at
    /// capacity, Reject refuses with `Full`, ShedOldest evicts the oldest
    /// queued entry, and Block waits for space until `wait_until` (forever
    /// if `None`) before refusing with `Full`. A closed queue refuses with
    /// `Closed`. On admission, returns the shed victim (if any) with the
    /// time it waited, for the caller to reply to.
    // The refused submission is handed back by value so the caller keeps
    // ownership of the function; the variants are as large as `Function`
    // by design and the path is cold.
    #[allow(clippy::result_large_err)]
    pub fn push(
        &self,
        entry: QueueEntry,
        admission: AdmissionPolicy,
        wait_until: Option<Instant>,
    ) -> Result<Option<(QueueEntry, Duration)>, PushRefusal> {
        let mut inner = self.lock();
        inner.stats.submitted += 1;
        loop {
            if inner.closed {
                inner.stats.rejected_shutdown += 1;
                return Err(PushRefusal::Closed(entry));
            }
            if inner.entries.len() < self.capacity {
                break;
            }
            match (admission, wait_until) {
                (AdmissionPolicy::Reject, _) => {
                    inner.stats.rejected_queue_full += 1;
                    return Err(PushRefusal::Full(entry));
                }
                (AdmissionPolicy::ShedOldest, _) => break,
                (AdmissionPolicy::Block, None) => {
                    inner = self.not_full.wait(inner).expect(POISONED)
                }
                (AdmissionPolicy::Block, Some(limit)) => {
                    let now = Instant::now();
                    if now >= limit {
                        inner.stats.admission_timeouts += 1;
                        return Err(PushRefusal::Full(entry));
                    }
                    inner = self.not_full.wait_timeout(inner, limit - now).expect(POISONED).0;
                }
            }
        }

        let inner = &mut *inner;
        let shed = if inner.entries.len() >= self.capacity {
            inner.entries.pop_front().map(|victim| {
                let waited = victim.enqueued.elapsed();
                inner.stats.shed += 1;
                inner.stats.total.record(waited);
                (victim, waited)
            })
        } else {
            None
        };
        inner.entries.push_back(entry);
        inner.stats.accepted += 1;
        inner.stats.max_queue_depth = inner.stats.max_queue_depth.max(inner.entries.len() as u64);
        inner.step_level(&self.degradation);
        if !inner.paused {
            self.not_empty.notify_one();
        }
        Ok(shed)
    }

    /// Blocks until an entry is available (and the queue is unpaused) or
    /// the queue is closed *and* drained. Steps the degradation level on
    /// the depth the pop leaves, then either counts the entry as expired in
    /// the queue or counts it as started at the current level.
    pub fn pop(&self) -> Option<Dequeued> {
        let mut inner = self.lock();
        loop {
            if !inner.paused {
                if let Some(entry) = inner.entries.pop_front() {
                    self.not_full.notify_one();
                    inner.step_level(&self.degradation);
                    let dequeued = Instant::now();
                    let waited = dequeued.saturating_duration_since(entry.enqueued);
                    let stats = &mut inner.stats;
                    stats.queue_wait.record(waited);
                    if entry.deadline.is_some_and(|d| dequeued >= d) {
                        stats.expired_in_queue += 1;
                        stats.total.record(waited);
                        return Some(Dequeued::Expired { entry, waited });
                    }
                    let level = inner.level;
                    inner.stats.per_level[level as usize] += 1;
                    return Some(Dequeued::Ready { entry, level, dequeued, waited });
                }
                if inner.closed {
                    return None;
                }
            }
            inner = self.not_empty.wait(inner).expect(POISONED);
        }
    }

    /// Records the outcome of a translated request: the outcome counters,
    /// the ladder's validation failures and the `translate` / `total`
    /// latencies.
    pub fn complete(
        &self,
        outcome: &Result<Completed, ServiceError>,
        validation_failures: usize,
        translate: Duration,
        total: Duration,
    ) {
        let stats = &mut self.lock().stats;
        stats.validation_failures += validation_failures as u64;
        stats.translate.record(translate);
        stats.total.record(total);
        match outcome {
            Ok(done) => {
                stats.completed += 1;
                // A request is recovered when a rung above its start healed it.
                if done.rung > done.level {
                    stats.recovered += 1;
                }
            }
            Err(error) => {
                stats.failed += 1;
                if matches!(error, ServiceError::Translate(TranslateError::DeadlineExceeded { .. }))
                {
                    stats.deadline_exceeded += 1;
                }
            }
        }
    }

    /// Merges an exiting worker's pool traffic into the stats.
    pub fn merge_pool(&self, pool: PoolStats) {
        let stats = &mut self.lock().stats;
        stats.pool.checkouts += pool.checkouts;
        stats.pool.recycled += pool.recycled;
        stats.pool.retired += pool.retired;
        stats.pool.discarded += pool.discarded;
    }

    /// A snapshot of the stats, with the level current at the snapshot.
    pub fn stats(&self) -> ServiceStats {
        let inner = self.lock();
        ServiceStats { level: inner.level, ..inner.stats.clone() }
    }

    /// Parks (or releases) consumers without affecting producers.
    pub fn set_paused(&self, paused: bool) {
        let mut inner = self.lock();
        inner.paused = paused;
        if !paused {
            drop(inner);
            self.not_empty.notify_all();
        }
    }

    /// Closes the queue: future pushes refuse, consumers drain the backlog
    /// then observe end-of-stream. Also unpauses, so a paused service shuts
    /// down cleanly.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.paused = false;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}
