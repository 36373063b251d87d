//! Proposer batching: coalescing queued client commands into one consensus
//! instance.
//!
//! `BENCH_net_clients.json` showed throughput going flat as client
//! concurrency grows because every client command was its own consensus
//! instance — one quorum round-trip, one set of wire frames and one WAL
//! fsync each. The [`Batcher`] amortizes all three: when a runtime's core
//! loop turns and finds several client commands queued, it folds them into a
//! single [`Command::batch`] unit whose conflict footprint is the union of
//! the inner commands' accesses ([`Command::accesses`]). The protocols order
//! the *unit*; the runtime unpacks it at apply time — applying, replying and
//! deduplicating **per inner command** — so client-visible semantics,
//! recovery and state transfer are unchanged.
//!
//! Batch ids live in the [`BATCH_LANE`] of the id space (`sequence` high bit
//! set), disjoint from every client session's densely allocated ids. A
//! restarted durable replica reseeds its lane counter from the recovered
//! unit-id summary ([`Batcher::reseed`]) so a new incarnation never reuses a
//! previous life's batch ids.
//!
//! Knob ([`BatchConfig`]): `max_batch` bounds how many commands one unit
//! carries. The batcher never holds a command back to wait for company: a
//! batch is whatever is already queued when the loop turns, so there is no
//! added latency, and batches emerge exactly when load queues commands
//! faster than consensus turns them around. A single queued command passes
//! through untouched: with `max_batch = 1` (or idle traffic) the system
//! behaves byte-for-byte as it did before batching existed.

use consensus_types::{AppliedSummary, Command, CommandId, NodeId, BATCH_LANE};

/// Tuning knob of the proposer batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum number of client commands folded into one consensus unit.
    /// `1` disables batching entirely (every command is its own instance).
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 64 }
    }
}

impl BatchConfig {
    /// A config that disables batching (`max_batch = 1`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { max_batch: 1 }
    }

    /// Whether batching is enabled at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }
}

/// Allocates batch-lane ids and folds queued commands into consensus units.
///
/// One per replica core loop; the id lane is `(replica, BATCH_LANE | n)` for
/// the n-th batch, so batchers never coordinate.
#[derive(Debug)]
pub struct Batcher {
    node: NodeId,
    next: u64,
}

impl Batcher {
    /// Creates a batcher for `node`'s core loop, numbering batches from 1.
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        Self { node, next: 0 }
    }

    /// Fast-forwards the lane counter past every batch id `ordered` (the
    /// recovered unit-id summary) records for this node, so a restarted
    /// replica never reuses a previous incarnation's batch ids.
    pub fn reseed(&mut self, ordered: &AppliedSummary) {
        if let Some(max) = ordered.max_sequence(self.node) {
            if max & BATCH_LANE != 0 {
                self.next = self.next.max(max & !BATCH_LANE);
            }
        }
    }

    /// Folds queued client commands into one proposable unit. A single
    /// command passes through unchanged (zero overhead, identical ids and
    /// wire bytes to the pre-batching system); two or more become a
    /// [`Command::batch`] with a fresh batch-lane id.
    ///
    /// # Panics
    ///
    /// Panics if `queued` is empty.
    #[must_use]
    pub fn coalesce(&mut self, mut queued: Vec<Command>) -> Command {
        assert!(!queued.is_empty(), "coalesce requires at least one command");
        if queued.len() == 1 {
            return queued.pop().expect("one queued command");
        }
        self.next += 1;
        Command::batch(CommandId::new(self.node, BATCH_LANE | self.next), queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(node: u32, seq: u64, key: u64) -> Command {
        Command::put(CommandId::new(NodeId(node), seq), key, seq)
    }

    #[test]
    fn single_commands_pass_through_unchanged() {
        let mut batcher = Batcher::new(NodeId(0));
        let cmd = put(1, 7, 42);
        assert_eq!(batcher.coalesce(vec![cmd.clone()]), cmd);
    }

    #[test]
    fn multiple_commands_fold_into_a_batch_lane_unit() {
        let mut batcher = Batcher::new(NodeId(2));
        let unit = batcher.coalesce(vec![put(1, 1, 10), put(1, 2, 11)]);
        assert!(unit.is_batch());
        assert_eq!(unit.id(), CommandId::new(NodeId(2), BATCH_LANE | 1));
        assert_eq!(unit.leaves().len(), 2);
        let next = batcher.coalesce(vec![put(1, 3, 10), put(1, 4, 11)]);
        assert_eq!(next.id().sequence(), BATCH_LANE | 2);
    }

    #[test]
    fn reseed_skips_past_recovered_batch_ids() {
        let mut ordered = AppliedSummary::new();
        ordered.insert(CommandId::new(NodeId(0), 5)); // a plain unit id
        ordered.insert(CommandId::new(NodeId(0), BATCH_LANE | 9));
        let mut batcher = Batcher::new(NodeId(0));
        batcher.reseed(&ordered);
        let unit = batcher.coalesce(vec![put(1, 1, 1), put(1, 2, 2)]);
        assert_eq!(unit.id().sequence(), BATCH_LANE | 10);
    }

    #[test]
    fn reseed_ignores_plain_ids() {
        let ordered: AppliedSummary = (1..=40).map(|seq| CommandId::new(NodeId(1), seq)).collect();
        let mut batcher = Batcher::new(NodeId(1));
        batcher.reseed(&ordered);
        let unit = batcher.coalesce(vec![put(0, 1, 1), put(0, 2, 2)]);
        assert_eq!(unit.id().sequence(), BATCH_LANE | 1);
    }
}
