//! The delivery engine: break-loop and predecessor-gated execution.
//!
//! Once a command is stable, a replica may execute it only after every
//! command in its predecessor set has been executed (`DELIVERABLE`, Figure 3
//! lines 16–17). Because a command can be retried to a larger timestamp,
//! predecessor sets can contain "loops" (an earlier-timestamped command
//! listing a later one); `BREAKLOOP` (Figure 3 lines 9–15) removes those by
//! always trusting the timestamp order.

use std::collections::{BTreeSet, HashMap, HashSet};

use consensus_types::{AppliedSummary, CommandId, Timestamp};

/// Tracks stable-but-not-yet-executed commands and decides when they can run.
#[derive(Debug, Default)]
pub struct DeliveryEngine {
    /// Every command whose effect is reflected locally — executed here or
    /// absorbed through snapshot-based state transfer. Run-length compacted:
    /// sessions allocate ids densely, so a long history collapses to a few
    /// `(start, end)` runs per origin instead of one `HashSet` entry per
    /// command ever executed.
    executed: AppliedSummary,
    /// Commands executed locally by this engine (excludes ids that only
    /// arrived through a transfer), for progress accounting.
    executed_count: u64,
    /// Stable commands waiting for predecessors: remaining predecessor ids.
    waiting: HashMap<CommandId, HashSet<CommandId>>,
    /// Timestamps of stable commands (needed for loop breaking).
    stable_ts: HashMap<CommandId, Timestamp>,
    /// Reverse index: predecessor id → stable commands waiting on it.
    waiters: HashMap<CommandId, HashSet<CommandId>>,
}

impl DeliveryEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `id` has been executed locally (or its effect arrived
    /// through a state transfer).
    #[must_use]
    pub fn is_executed(&self, id: CommandId) -> bool {
        self.executed.contains(id)
    }

    /// Number of commands executed locally so far.
    #[must_use]
    pub fn executed_count(&self) -> usize {
        self.executed_count as usize
    }

    /// Number of `(start, end)` runs backing the executed-id summary — the
    /// actual memory footprint of the execution history, surfaced so tests
    /// can assert it stays compact while `executed_count` grows.
    #[must_use]
    pub fn executed_runs(&self) -> usize {
        self.executed.run_count()
    }

    /// Number of stable commands still waiting for predecessors.
    #[must_use]
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Number of stable commands whose timestamps the engine still holds —
    /// only those not yet executed, since nothing reads an executed
    /// command's timestamp.
    #[must_use]
    pub fn stable_count(&self) -> usize {
        self.stable_ts.len()
    }

    /// Registers a stable command with its final timestamp and predecessor
    /// set, applies the break-loop rule against other stable commands, and
    /// returns the commands that became executable as a result (in execution
    /// order, starting with this command if it is ready).
    ///
    /// The returned commands are already marked as executed; the caller is
    /// responsible for applying them to the state machine and for telling the
    /// history about the execution.
    pub fn on_stable(
        &mut self,
        id: CommandId,
        ts: Timestamp,
        pred: &BTreeSet<CommandId>,
    ) -> Vec<CommandId> {
        if self.is_executed(id) || self.waiting.contains_key(&id) {
            // Duplicate STABLE (e.g. re-sent by a recovery leader): ignore.
            return Vec::new();
        }
        self.stable_ts.insert(id, ts);

        // BREAKLOOP, part 1: for every predecessor that is already stable with
        // a *smaller* timestamp, drop `id` from its remaining set (it must not
        // wait for us).
        let mut newly_ready = Vec::new();
        for &p in pred {
            if let Some(&p_ts) = self.stable_ts.get(&p) {
                if p_ts < ts {
                    if let Some(remaining) = self.waiting.get_mut(&p) {
                        if remaining.remove(&id) && remaining.is_empty() {
                            newly_ready.push(p);
                        }
                    }
                }
            }
        }

        // BREAKLOOP, part 2: drop predecessors that are already stable with a
        // *larger* timestamp — they execute after us.
        let mut remaining: HashSet<CommandId> = pred
            .iter()
            .copied()
            .filter(|p| {
                if self.executed.contains(*p) {
                    return false;
                }
                match self.stable_ts.get(p) {
                    Some(&p_ts) => p_ts < ts,
                    None => true,
                }
            })
            .collect();
        // A command never waits for itself.
        remaining.remove(&id);

        let mut out = Vec::new();
        if remaining.is_empty() {
            self.execute(id, &mut out);
        } else {
            for &p in &remaining {
                self.waiters.entry(p).or_default().insert(id);
            }
            self.waiting.insert(id, remaining);
        }
        for p in newly_ready {
            self.execute(p, &mut out);
        }
        out
    }

    /// Marks `id` as executed and cascades to commands that were waiting on it.
    fn execute(&mut self, id: CommandId, out: &mut Vec<CommandId>) {
        if !self.executed.insert(id) {
            return;
        }
        self.executed_count += 1;
        self.waiting.remove(&id);
        // Only waiting commands read a stable timestamp (loop breaking); an
        // executed predecessor is skipped before its timestamp is consulted.
        self.stable_ts.remove(&id);
        out.push(id);
        let Some(waiters) = self.waiters.remove(&id) else { return };
        for w in waiters {
            let done = match self.waiting.get_mut(&w) {
                Some(remaining) => {
                    remaining.remove(&id);
                    remaining.is_empty()
                }
                None => false,
            };
            if done {
                self.execute(w, out);
            }
        }
    }

    /// Absorbs a snapshot-based state transfer: every id in `applied`
    /// counts as executed from now on — consulted through the
    /// floor-compacted summary rather than enumerated one id at a time —
    /// and stable commands that were blocked only on transferred
    /// predecessors become deliverable. Like [`DeliveryEngine::on_stable`],
    /// the returned commands are already marked executed and the caller
    /// applies them (the runtime deduplicates any the transfer itself
    /// covered).
    pub fn absorb_transfer(&mut self, applied: &AppliedSummary) -> Vec<CommandId> {
        self.executed.merge(applied);
        let executed = &self.executed;
        // A waiting command the transfer itself covers is done — its effect
        // arrived with the snapshot — so drop it rather than re-deliver it.
        self.waiting.retain(|id, _| !executed.contains(*id));
        self.stable_ts.retain(|id, _| !executed.contains(*id));
        let mut newly_ready: Vec<CommandId> = Vec::new();
        for (&id, remaining) in self.waiting.iter_mut() {
            remaining.retain(|p| !executed.contains(*p));
            if remaining.is_empty() {
                newly_ready.push(id);
            }
        }
        // Covered predecessors will never pass through `execute`, so their
        // reverse-index entries would otherwise linger forever.
        self.waiters.retain(|p, _| !executed.contains(*p));
        // Deterministic delivery order for commands released in one batch.
        newly_ready.sort_by_key(|id| (self.stable_ts.get(id).copied(), *id));
        let mut out = Vec::new();
        for id in newly_ready {
            self.execute(id, &mut out);
        }
        out
    }

    /// The ids of stable commands still blocked, with the predecessors they
    /// are waiting for. Useful for debugging stuck deliveries in tests.
    #[must_use]
    pub fn blocked(&self) -> Vec<(CommandId, Vec<CommandId>)> {
        self.waiting
            .iter()
            .map(|(id, remaining)| (*id, remaining.iter().copied().collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_types::NodeId;

    fn id(node: u32, seq: u64) -> CommandId {
        CommandId::new(NodeId(node), seq)
    }

    fn ts(counter: u64) -> Timestamp {
        Timestamp::new(counter, NodeId(0))
    }

    fn set(ids: &[CommandId]) -> BTreeSet<CommandId> {
        ids.iter().copied().collect()
    }

    #[test]
    fn command_without_predecessors_executes_immediately() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1);
        assert_eq!(d.on_stable(a, ts(1), &set(&[])), vec![a]);
        assert!(d.is_executed(a));
        assert_eq!(d.executed_count(), 1);
    }

    #[test]
    fn command_waits_for_predecessors() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1);
        let b = id(1, 1);
        assert!(d.on_stable(b, ts(2), &set(&[a])).is_empty());
        assert_eq!(d.waiting_count(), 1);
        // When a becomes stable (earlier timestamp), both run: a then b.
        assert_eq!(d.on_stable(a, ts(1), &set(&[])), vec![a, b]);
        assert_eq!(d.waiting_count(), 0);
        assert_eq!(d.stable_count(), 0, "executed commands drop their timestamps");
    }

    #[test]
    fn executed_predecessors_are_not_waited_for() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1);
        let b = id(1, 1);
        d.on_stable(a, ts(1), &set(&[]));
        assert_eq!(d.on_stable(b, ts(2), &set(&[a])), vec![b]);
    }

    #[test]
    fn break_loop_removes_later_predecessor_from_earlier_command() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1); // ts 1, pred {b}: loop entry
        let b = id(1, 1); // ts 2, pred {a}
                          // b stable first: waits for a.
        assert!(d.on_stable(b, ts(2), &set(&[a])).is_empty());
        // a stable with smaller ts and pred {b}: the loop is broken — a runs
        // first (its pred b is stable with larger ts, dropped), then b.
        assert_eq!(d.on_stable(a, ts(1), &set(&[b])), vec![a, b]);
    }

    #[test]
    fn break_loop_unblocks_earlier_stable_command() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1); // ts 1, pred {b}
        let b = id(1, 1); // ts 2, pred {a}
                          // a stable first, waiting for b (b not stable yet, so no loop known).
        assert!(d.on_stable(a, ts(1), &set(&[b])).is_empty());
        // b becomes stable with larger ts and pred {a}: part 1 of break-loop
        // removes b from a's waiting set, so a executes, then b.
        let order = d.on_stable(b, ts(2), &set(&[a]));
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn duplicate_stable_is_ignored() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1);
        assert_eq!(d.on_stable(a, ts(1), &set(&[])), vec![a]);
        assert!(d.on_stable(a, ts(1), &set(&[])).is_empty());
        assert_eq!(d.executed_count(), 1);
    }

    #[test]
    fn long_chain_executes_in_order() {
        let mut d = DeliveryEngine::new();
        let ids: Vec<_> = (0..10).map(|i| id(0, i)).collect();
        // Deliver stables in reverse order; each waits for the previous one.
        for i in (1..10).rev() {
            assert!(d.on_stable(ids[i], ts(i as u64 + 1), &set(&[ids[i - 1]])).is_empty());
        }
        let order = d.on_stable(ids[0], ts(1), &set(&[]));
        assert_eq!(order, ids);
    }

    #[test]
    fn blocked_lists_missing_predecessors() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1);
        let b = id(1, 1);
        d.on_stable(b, ts(2), &set(&[a]));
        let blocked = d.blocked();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].0, b);
        assert_eq!(blocked[0].1, vec![a]);
    }

    #[test]
    fn executed_history_compacts_to_a_few_runs() {
        let mut d = DeliveryEngine::new();
        // Two origins, densely allocated sequences, interleaved delivery.
        for seq in 1..=500u64 {
            for node in 0..2 {
                d.on_stable(id(node, seq), ts(seq * 2 + u64::from(node)), &set(&[]));
            }
        }
        assert_eq!(d.executed_count(), 1000);
        assert!(
            d.executed_runs() <= 2,
            "dense history must collapse to one run per origin, got {}",
            d.executed_runs()
        );
    }

    #[test]
    fn transfer_covering_a_waiting_command_retires_it() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1);
        let b = id(0, 2);
        assert!(d.on_stable(b, ts(2), &set(&[a])).is_empty());
        let transfer: AppliedSummary = [a, b].into_iter().collect();
        // Both ids arrived with the snapshot: nothing to re-deliver, nothing
        // left waiting.
        assert!(d.absorb_transfer(&transfer).is_empty());
        assert_eq!(d.waiting_count(), 0);
        assert_eq!(d.stable_count(), 0, "a retired command's timestamp is dropped");
        assert!(d.is_executed(a) && d.is_executed(b));
    }

    #[test]
    fn diamond_dependencies_execute_each_command_once() {
        let mut d = DeliveryEngine::new();
        let a = id(0, 1);
        let b = id(1, 1);
        let c = id(2, 1);
        let e = id(3, 1);
        assert!(d.on_stable(e, ts(4), &set(&[b, c])).is_empty());
        assert!(d.on_stable(b, ts(2), &set(&[a])).is_empty());
        assert!(d.on_stable(c, ts(3), &set(&[a])).is_empty());
        let order = d.on_stable(a, ts(1), &set(&[]));
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], a);
        assert_eq!(*order.last().unwrap(), e);
        assert_eq!(d.executed_count(), 4);
    }
}
