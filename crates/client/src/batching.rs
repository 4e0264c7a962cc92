//! Owner-side update batching (Section 5.4.1).
//!
//! "Index updates in Zerber can be performed in batches that insert or
//! delete posting elements for multiple documents. Batching can reduce
//! index freshness, but also reduces the average network and disk
//! overhead per update. … If Alice has compromised an index server,
//! then batching also reduces the information she gets by watching
//! updates" — elements of different documents arrive interleaved, so
//! she cannot tell which terms co-occur. The correlation attack in
//! `zerber-attacks` quantifies this.

use zerber_core::PlId;
use zerber_net::StoredShare;

/// When to flush queued updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once this many *elements* are queued (per server).
    /// `1` means immediate, per-element updates (maximal freshness,
    /// minimal privacy against update watching).
    pub max_elements: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { max_elements: 1 }
    }
}

impl BatchPolicy {
    /// Batch up to `max_elements` elements before flushing.
    pub fn batched(max_elements: usize) -> Self {
        assert!(max_elements >= 1, "batch size must be at least 1");
        Self { max_elements }
    }
}

/// Per-server queues of pending insert entries.
#[derive(Debug, Clone)]
pub(crate) struct UpdateQueue {
    per_server: Vec<Vec<(PlId, StoredShare)>>,
    queued_elements: usize,
}

impl UpdateQueue {
    /// A queue for `n` servers.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            per_server: vec![Vec::new(); n],
            queued_elements: 0,
        }
    }

    /// Queues the n shares of one element (one per server, aligned
    /// with server order).
    ///
    /// # Panics
    /// Panics if `shares.len()` differs from the server count.
    pub(crate) fn push(&mut self, pl: PlId, shares: &[StoredShare]) {
        assert_eq!(
            shares.len(),
            self.per_server.len(),
            "one share per server required"
        );
        for (queue, &share) in self.per_server.iter_mut().zip(shares) {
            queue.push((pl, share));
        }
        self.queued_elements += 1;
    }

    /// Number of queued elements (not shares).
    pub(crate) fn len(&self) -> usize {
        self.queued_elements
    }

    /// True iff nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.queued_elements == 0
    }

    /// Whether the policy says it is time to flush.
    pub(crate) fn should_flush(&self, policy: BatchPolicy) -> bool {
        self.queued_elements >= policy.max_elements
    }

    /// Drains all queues, returning one entry vector per server.
    pub(crate) fn drain(&mut self) -> Vec<Vec<(PlId, StoredShare)>> {
        self.queued_elements = 0;
        self.per_server.iter_mut().map(std::mem::take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_core::ElementId;
    use zerber_field::Fp;
    use zerber_index::GroupId;

    fn shares(n: usize, element: u64) -> Vec<StoredShare> {
        (0..n)
            .map(|i| StoredShare {
                element: ElementId(element),
                group: GroupId(0),
                share: Fp::new(element * 10 + i as u64),
            })
            .collect()
    }

    #[test]
    fn push_fans_out_to_all_servers() {
        let mut queue = UpdateQueue::new(3);
        queue.push(PlId(5), &shares(3, 1));
        assert_eq!(queue.len(), 1);
        let drained = queue.drain();
        assert_eq!(drained.len(), 3);
        for (i, entries) in drained.iter().enumerate() {
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].0, PlId(5));
            assert_eq!(entries[0].1.share, Fp::new(10 + i as u64));
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn should_flush_respects_policy() {
        let mut queue = UpdateQueue::new(2);
        let policy = BatchPolicy::batched(3);
        queue.push(PlId(0), &shares(2, 1));
        assert!(!queue.should_flush(policy));
        queue.push(PlId(0), &shares(2, 2));
        queue.push(PlId(0), &shares(2, 3));
        assert!(queue.should_flush(policy));
    }

    #[test]
    fn immediate_policy_flushes_every_element() {
        let mut queue = UpdateQueue::new(1);
        queue.push(PlId(0), &shares(1, 1));
        assert!(queue.should_flush(BatchPolicy::default()));
    }

    #[test]
    #[should_panic(expected = "one share per server")]
    fn wrong_share_count_panics() {
        let mut queue = UpdateQueue::new(3);
        queue.push(PlId(0), &shares(2, 1));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_size_panics() {
        let _ = BatchPolicy::batched(0);
    }
}
