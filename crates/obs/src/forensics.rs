//! Slow-query forensics: the top-N-by-latency log and the last-K
//! flight recorder.
//!
//! Both sinks store [`Arc<QueryTrace>`] so one assembled trace can
//! sit in both without copying, and both recover from lock poisoning:
//! a worker thread that panics mid-query can never make the evidence
//! unreadable afterwards — which is exactly when it is wanted.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use crate::trace::QueryTrace;

fn relock<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keeps the `cap` slowest query traces seen so far, sorted slowest
/// first.
pub struct SlowQueryLog {
    cap: usize,
    entries: Mutex<Vec<Arc<QueryTrace>>>,
}

impl SlowQueryLog {
    /// An empty log keeping at most `cap` traces.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offers a trace; it is kept iff it ranks among the `cap`
    /// slowest.
    pub fn offer(&self, trace: Arc<QueryTrace>) {
        let mut entries = relock(&self.entries);
        let at = entries.partition_point(|existing| existing.total >= trace.total);
        if at < self.cap {
            entries.insert(at, trace);
            entries.truncate(self.cap);
        }
    }

    /// The slowest trace seen, if any.
    pub fn slowest(&self) -> Option<Arc<QueryTrace>> {
        relock(&self.entries).first().cloned()
    }
}

/// A ring buffer of the last `cap` query traces — the always-on
/// flight recorder. Recording overwrites the oldest entry; reading
/// never blocks recording for long (one short lock).
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<VecDeque<Arc<QueryTrace>>>,
}

impl FlightRecorder {
    /// An empty recorder keeping the last `cap` traces.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Records a trace, evicting the oldest past `cap`.
    pub fn record(&self, trace: Arc<QueryTrace>) {
        let mut ring = relock(&self.ring);
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The recorded traces, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<QueryTrace>> {
        relock(&self.ring).iter().cloned().collect()
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        relock(&self.ring).len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanRecord, TraceId};
    use std::time::Duration;

    fn trace(id: u64, total_ms: u64) -> Arc<QueryTrace> {
        Arc::new(QueryTrace {
            id: TraceId(id),
            label: format!("q{id}"),
            total: Duration::from_millis(total_ms),
            root: SpanRecord::new("query", Duration::ZERO, Duration::from_millis(total_ms)),
        })
    }

    #[test]
    fn slow_log_keeps_the_slowest_n() {
        let log = SlowQueryLog::new(3);
        for (id, ms) in [(1, 5), (2, 50), (3, 1), (4, 20), (5, 30)] {
            log.offer(trace(id, ms));
        }
        let kept: Vec<u64> = relock(&log.entries).iter().map(|t| t.id.0).collect();
        assert_eq!(kept, vec![2, 5, 4]);
        assert_eq!(log.slowest().unwrap().id.0, 2);
    }

    #[test]
    fn flight_recorder_keeps_the_last_k() {
        let recorder = FlightRecorder::new(2);
        assert!(recorder.is_empty());
        for id in 1..=5 {
            recorder.record(trace(id, id));
        }
        let ids: Vec<u64> = recorder.snapshot().iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![4, 5]);
    }

    #[test]
    fn sinks_survive_a_panicking_recorder() {
        let log = Arc::new(SlowQueryLog::new(2));
        let poisoner = Arc::clone(&log);
        // Poison the lock by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.entries.lock().unwrap();
            panic!("worker died mid-query");
        })
        .join();
        log.offer(trace(9, 9));
        assert_eq!(log.slowest().unwrap().id.0, 9);
    }
}
