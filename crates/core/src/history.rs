//! The per-replica history `H_i` and the predecessor/wait predicates.
//!
//! `H_i` (Section V-A of the paper) maps every command the replica has heard
//! of to its latest known timestamp, predecessor set, status, ballot and
//! whether that information was forced by a recovery whitelist. On top of the
//! map this module maintains a per-key conflict index ordered by timestamp —
//! the Red-Black-tree structure the paper's implementation section describes —
//! so that `COMPUTEPREDECESSORS`, the wait condition and the NACK predicate
//! are range queries instead of full scans.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use consensus_types::{Ballot, Command, CommandId, Timestamp};
use serde::{Deserialize, Serialize};

/// Status of a command in the history, mirroring the paper's
/// `{fast-pending, slow-pending, accepted, rejected, stable}` set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmdStatus {
    /// Seen in a fast proposal; its timestamp is not yet confirmed.
    FastPending,
    /// Seen in a slow proposal; its timestamp is not yet confirmed.
    SlowPending,
    /// Accepted in a retry phase; the timestamp can no longer be rejected.
    Accepted,
    /// The locally proposed timestamp was rejected (a NACK was sent).
    Rejected,
    /// The final timestamp and predecessor set are known.
    Stable,
}

impl CmdStatus {
    /// Whether this status means the command's timestamp can no longer
    /// change (it is `accepted` or `stable`).
    #[must_use]
    pub fn is_settled(self) -> bool {
        matches!(self, CmdStatus::Accepted | CmdStatus::Stable)
    }
}

/// The tuple `⟨c, T, Pred, status, B, forced⟩` stored in `H_i`.
#[derive(Debug, Clone)]
pub struct CmdInfo {
    /// The command payload.
    pub cmd: Command,
    /// Latest known timestamp of the command.
    pub ts: Timestamp,
    /// Commands that must be executed before this one.
    pub pred: BTreeSet<CommandId>,
    /// Current status.
    pub status: CmdStatus,
    /// Ballot of the leader that produced this information.
    pub ballot: Ballot,
    /// Whether the predecessor set was forced by a recovery whitelist.
    pub forced: bool,
    /// Whether the command has been executed locally (not part of the
    /// paper's tuple; used to bound the conflict index).
    pub executed: bool,
}

/// The history `H_i` plus the per-key conflict index.
#[derive(Debug, Default)]
pub struct History {
    entries: HashMap<CommandId, CmdInfo>,
    /// Per conflict key: non-executed commands ordered by (timestamp, id).
    active: HashMap<u64, BTreeMap<(Timestamp, CommandId), ()>>,
    /// Per conflict key: recently executed commands ordered by (timestamp, id),
    /// trimmed to `executed_retention` entries.
    executed: HashMap<u64, BTreeMap<(Timestamp, CommandId), ()>>,
    /// How many executed commands to retain per key (at least 1).
    executed_retention: usize,
}

impl History {
    /// Creates an empty history that retains `executed_retention` executed
    /// commands per key in the conflict index.
    #[must_use]
    pub fn new(executed_retention: usize) -> Self {
        Self { executed_retention: executed_retention.max(1), ..Default::default() }
    }

    /// Number of commands tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the history tracks no command.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the tuple for `id`.
    #[must_use]
    pub fn get(&self, id: CommandId) -> Option<&CmdInfo> {
        self.entries.get(&id)
    }

    /// Whether the history contains `id`.
    #[must_use]
    pub fn contains(&self, id: CommandId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Inserts or replaces the tuple for `cmd` (the paper's `H.UPDATE`).
    ///
    /// The conflict index is kept in sync when the timestamp changes. A
    /// batch unit is indexed under **every** key of its merged footprint, so
    /// range queries see it wherever any of its inner commands could
    /// conflict.
    pub fn update(
        &mut self,
        cmd: &Command,
        ts: Timestamp,
        pred: BTreeSet<CommandId>,
        status: CmdStatus,
        ballot: Ballot,
        forced: bool,
    ) {
        let id = cmd.id();
        let keys = distinct_keys(cmd);
        let executed = match self.entries.get(&id) {
            Some(existing) => {
                if existing.ts != ts {
                    let index =
                        if existing.executed { &mut self.executed } else { &mut self.active };
                    for key in &keys {
                        if let Some(per_key) = index.get_mut(key) {
                            per_key.remove(&(existing.ts, id));
                        }
                    }
                }
                existing.executed
            }
            None => false,
        };
        {
            let index = if executed { &mut self.executed } else { &mut self.active };
            for key in &keys {
                index.entry(*key).or_default().insert((ts, id), ());
            }
        }
        self.entries
            .insert(id, CmdInfo { cmd: cmd.clone(), ts, pred, status, ballot, forced, executed });
    }

    /// Updates only the status of an existing entry.
    pub fn set_status(&mut self, id: CommandId, status: CmdStatus) {
        if let Some(info) = self.entries.get_mut(&id) {
            info.status = status;
        }
    }

    /// Updates only the ballot of an existing entry.
    pub fn set_ballot(&mut self, id: CommandId, ballot: Ballot) {
        if let Some(info) = self.entries.get_mut(&id) {
            info.ballot = ballot;
        }
    }

    /// Removes `removed` from the predecessor set of `id` (used by the
    /// break-loop procedure). Returns `true` if it was present.
    pub fn remove_predecessor(&mut self, id: CommandId, removed: CommandId) -> bool {
        self.entries.get_mut(&id).map(|info| info.pred.remove(&removed)).unwrap_or(false)
    }

    /// Marks `id` as executed locally and moves it from the active part of
    /// the conflict index to the bounded executed part (under every key of
    /// its footprint).
    pub fn mark_executed(&mut self, id: CommandId) {
        let Some(info) = self.entries.get_mut(&id) else { return };
        if info.executed {
            return;
        }
        info.executed = true;
        let ts = info.ts;
        let keys = distinct_keys(&info.cmd);
        for key in keys {
            if let Some(per_key) = self.active.get_mut(&key) {
                per_key.remove(&(ts, id));
                // A key nobody is proposing on any more costs nothing: with
                // ever-fresh keys, empty maps would otherwise pile up.
                if per_key.is_empty() {
                    self.active.remove(&key);
                }
            }
            let executed = self.executed.entry(key).or_default();
            executed.insert((ts, id), ());
            while executed.len() > self.executed_retention {
                let oldest = *executed.keys().next().expect("non-empty");
                executed.remove(&oldest);
            }
        }
    }

    /// The paper's `COMPUTEPREDECESSORS(c, Time, Whitelist)` (Figure 3,
    /// lines 1–3), with one practical refinement: conflicting commands that
    /// have already been **executed locally** are represented by the most
    /// recent executed command per key only. Predecessor relations are
    /// transitive (Theorem 1), so delivery order is preserved while
    /// predecessor sets stay bounded by the number of in-flight commands.
    #[must_use]
    pub fn compute_predecessors(
        &self,
        cmd: &Command,
        ts: Timestamp,
        whitelist: Option<&BTreeSet<CommandId>>,
    ) -> BTreeSet<CommandId> {
        let mut pred = BTreeSet::new();
        let id = cmd.id();

        for key in distinct_keys(cmd) {
            if let Some(per_key) = self.active.get(&key) {
                for &(other_ts, other_id) in
                    per_key.range(..(ts, CommandId::default())).map(|(k, ())| k)
                {
                    debug_assert!(other_ts < ts);
                    if other_id == id {
                        continue;
                    }
                    let info = &self.entries[&other_id];
                    if !info.cmd.conflicts_with(cmd) {
                        continue;
                    }
                    let allowed = match whitelist {
                        None => true,
                        Some(list) => {
                            list.contains(&other_id)
                                || matches!(
                                    info.status,
                                    CmdStatus::SlowPending
                                        | CmdStatus::Accepted
                                        | CmdStatus::Stable
                                )
                        }
                    };
                    if allowed {
                        pred.insert(other_id);
                    }
                }
            }

            // Most recent executed conflicting command with a smaller
            // timestamp; it transitively covers all older executed ones on
            // this key.
            if let Some(per_key) = self.executed.get(&key) {
                if let Some(&(_, other_id)) = per_key
                    .range(..(ts, CommandId::default()))
                    .map(|(k, ())| k)
                    .rfind(|(_, other_id)| {
                        *other_id != id && self.entries[other_id].cmd.conflicts_with(cmd)
                    })
                {
                    pred.insert(other_id);
                }
            }
        }

        pred
    }

    /// Commands that *block* `cmd` at timestamp `ts` under the wait condition
    /// (Figure 3, line 5): conflicting commands with a greater timestamp whose
    /// predecessor set does not contain `cmd` and whose status is not yet
    /// `accepted`/`stable`.
    #[must_use]
    pub fn wait_blockers(&self, cmd: &Command, ts: Timestamp) -> Vec<CommandId> {
        self.higher_conflicting(cmd, ts, |info| !info.status.is_settled())
    }

    /// Whether `cmd` at timestamp `ts` must be rejected (Figure 3, lines 6–8):
    /// there exists a conflicting command with a greater timestamp, already
    /// `accepted` or `stable`, whose predecessor set does not contain `cmd`.
    #[must_use]
    pub fn must_reject(&self, cmd: &Command, ts: Timestamp) -> bool {
        !self.higher_conflicting(cmd, ts, |info| info.status.is_settled()).is_empty()
    }

    /// Conflicting commands with timestamp greater than `ts` that do not list
    /// `cmd` among their predecessors and satisfy `filter`.
    fn higher_conflicting(
        &self,
        cmd: &Command,
        ts: Timestamp,
        filter: impl Fn(&CmdInfo) -> bool,
    ) -> Vec<CommandId> {
        let mut out = BTreeSet::new();
        let id = cmd.id();
        let lower_bound = (ts, CommandId::new(consensus_types::NodeId(u32::MAX), u64::MAX));
        for key in distinct_keys(cmd) {
            for index in [&self.active, &self.executed] {
                if let Some(per_key) = index.get(&key) {
                    for &(_, other_id) in per_key.range(lower_bound..).map(|(k, ())| k) {
                        if other_id == id {
                            continue;
                        }
                        let info = &self.entries[&other_id];
                        if info.cmd.conflicts_with(cmd) && !info.pred.contains(&id) && filter(info)
                        {
                            out.insert(other_id);
                        }
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// Iterates over all tracked commands (used by tests and recovery).
    pub fn iter(&self) -> impl Iterator<Item = (&CommandId, &CmdInfo)> {
        self.entries.iter()
    }
}

/// The distinct conflict keys of a command's footprint: one for a plain
/// keyed command, the union of inner keys for a batch, empty for a no-op.
fn distinct_keys(cmd: &Command) -> Vec<u64> {
    let mut keys: Vec<u64> = cmd.accesses().map(|(key, _)| key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_types::NodeId;

    fn put(node: u32, seq: u64, key: u64) -> Command {
        Command::put(CommandId::new(NodeId(node), seq), key, 0)
    }

    fn ts(counter: u64, node: u32) -> Timestamp {
        Timestamp::new(counter, NodeId(node))
    }

    fn b0() -> Ballot {
        Ballot::initial(NodeId(0))
    }

    #[test]
    fn update_and_get_round_trip() {
        let mut h = History::new(4);
        let c = put(0, 1, 7);
        h.update(&c, ts(1, 0), BTreeSet::new(), CmdStatus::FastPending, b0(), false);
        let info = h.get(c.id()).unwrap();
        assert_eq!(info.ts, ts(1, 0));
        assert_eq!(info.status, CmdStatus::FastPending);
        assert!(!info.forced);
        assert!(h.contains(c.id()));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn predecessors_are_conflicting_commands_with_smaller_timestamps() {
        let mut h = History::new(4);
        let a = put(0, 1, 7);
        let b = put(1, 1, 7);
        let c = put(2, 1, 8); // different key: never a predecessor
        h.update(&a, ts(1, 0), BTreeSet::new(), CmdStatus::FastPending, b0(), false);
        h.update(&b, ts(5, 1), BTreeSet::new(), CmdStatus::FastPending, b0(), false);
        h.update(&c, ts(2, 2), BTreeSet::new(), CmdStatus::FastPending, b0(), false);

        let newcmd = put(3, 1, 7);
        let pred = h.compute_predecessors(&newcmd, ts(3, 3), None);
        assert!(pred.contains(&a.id()));
        assert!(!pred.contains(&b.id()), "higher timestamp is not a predecessor");
        assert!(!pred.contains(&c.id()), "different key is not a predecessor");
    }

    #[test]
    fn whitelist_restricts_fast_pending_predecessors() {
        let mut h = History::new(4);
        let a = put(0, 1, 7); // fast-pending, not whitelisted -> excluded
        let b = put(1, 1, 7); // stable -> always included
        h.update(&a, ts(1, 0), BTreeSet::new(), CmdStatus::FastPending, b0(), false);
        h.update(&b, ts(2, 1), BTreeSet::new(), CmdStatus::Stable, b0(), false);

        let newcmd = put(3, 1, 7);
        let whitelist = BTreeSet::new();
        let pred = h.compute_predecessors(&newcmd, ts(5, 3), Some(&whitelist));
        assert!(!pred.contains(&a.id()));
        assert!(pred.contains(&b.id()));

        let mut whitelist = BTreeSet::new();
        whitelist.insert(a.id());
        let pred = h.compute_predecessors(&newcmd, ts(5, 3), Some(&whitelist));
        assert!(pred.contains(&a.id()), "whitelisted fast-pending commands are included");
    }

    #[test]
    fn wait_blockers_require_higher_timestamp_and_missing_pred() {
        let mut h = History::new(4);
        let blocker = put(1, 1, 7);
        h.update(&blocker, ts(10, 1), BTreeSet::new(), CmdStatus::FastPending, b0(), false);

        let c = put(0, 1, 7);
        // blocker has higher ts, does not contain c in pred, is pending -> blocks.
        assert_eq!(h.wait_blockers(&c, ts(5, 0)), vec![blocker.id()]);
        // Not yet settled, so no rejection either.
        assert!(!h.must_reject(&c, ts(5, 0)));

        // Once the blocker is accepted, the wait is over and c must be rejected.
        h.set_status(blocker.id(), CmdStatus::Accepted);
        assert!(h.wait_blockers(&c, ts(5, 0)).is_empty());
        assert!(h.must_reject(&c, ts(5, 0)));
    }

    #[test]
    fn mark_executed_leaves_no_empty_active_map() {
        let mut h = History::new(4);
        let a = put(0, 1, 7);
        let b = put(1, 1, 7);
        let c = put(2, 1, 8);
        for (cmd, t) in [(&a, 1), (&b, 2), (&c, 3)] {
            h.update(cmd, ts(t, 0), BTreeSet::new(), CmdStatus::Stable, b0(), false);
        }
        h.mark_executed(c.id());
        h.mark_executed(a.id());
        // Key 8 has nothing in flight; key 7 still has `b`.
        assert_eq!(h.active.keys().copied().collect::<Vec<_>>(), vec![7]);
        h.mark_executed(b.id());
        assert!(h.active.is_empty(), "every per-key active map emptied and was dropped");
        // Executed commands still anchor predecessor computation.
        let pred = h.compute_predecessors(&put(3, 1, 7), ts(9, 3), None);
        assert_eq!(pred.into_iter().collect::<Vec<_>>(), vec![b.id()]);
    }

    #[test]
    fn no_rejection_when_command_is_in_predecessor_set() {
        let mut h = History::new(4);
        let c = put(0, 1, 7);
        let other = put(1, 1, 7);
        let mut pred = BTreeSet::new();
        pred.insert(c.id());
        h.update(&other, ts(10, 1), pred, CmdStatus::Stable, b0(), false);
        assert!(h.wait_blockers(&c, ts(5, 0)).is_empty());
        assert!(!h.must_reject(&c, ts(5, 0)));
    }

    #[test]
    fn executed_commands_collapse_to_most_recent_per_key() {
        let mut h = History::new(8);
        let mut last = None;
        for i in 0..5 {
            let c = put(0, i, 7);
            h.update(&c, ts(i + 1, 0), BTreeSet::new(), CmdStatus::Stable, b0(), false);
            h.mark_executed(c.id());
            last = Some(c.id());
        }
        let newcmd = put(1, 99, 7);
        let pred = h.compute_predecessors(&newcmd, ts(100, 1), None);
        assert_eq!(pred.len(), 1);
        assert!(pred.contains(&last.unwrap()));
    }

    #[test]
    fn executed_retention_is_bounded() {
        let mut h = History::new(2);
        for i in 0..10 {
            let c = put(0, i, 7);
            h.update(&c, ts(i + 1, 0), BTreeSet::new(), CmdStatus::Stable, b0(), false);
            h.mark_executed(c.id());
        }
        assert!(h.executed.get(&7).unwrap().len() <= 2);
    }

    #[test]
    fn executed_command_with_higher_timestamp_still_causes_rejection() {
        let mut h = History::new(4);
        let other = put(1, 1, 7);
        h.update(&other, ts(10, 1), BTreeSet::new(), CmdStatus::Stable, b0(), false);
        h.mark_executed(other.id());

        let c = put(0, 1, 7);
        assert!(h.must_reject(&c, ts(5, 0)), "executed conflicting command with higher ts rejects");
    }

    #[test]
    fn timestamp_update_moves_index_entry() {
        let mut h = History::new(4);
        let c = put(0, 1, 7);
        h.update(&c, ts(1, 0), BTreeSet::new(), CmdStatus::FastPending, b0(), false);
        // Retry moved the command to a later timestamp.
        h.update(&c, ts(20, 0), BTreeSet::new(), CmdStatus::Accepted, b0(), false);

        let probe = put(1, 1, 7);
        let pred = h.compute_predecessors(&probe, ts(10, 1), None);
        assert!(pred.is_empty(), "old timestamp must have been removed from the index");
        let pred = h.compute_predecessors(&probe, ts(30, 1), None);
        assert!(pred.contains(&c.id()));
    }

    #[test]
    fn remove_predecessor_reports_presence() {
        let mut h = History::new(4);
        let a = put(0, 1, 7);
        let b = put(1, 1, 7);
        let mut pred = BTreeSet::new();
        pred.insert(b.id());
        h.update(&a, ts(2, 0), pred, CmdStatus::Stable, b0(), false);
        assert!(h.remove_predecessor(a.id(), b.id()));
        assert!(!h.remove_predecessor(a.id(), b.id()));
        assert!(!h.remove_predecessor(b.id(), a.id()));
    }

    #[test]
    fn batch_units_are_indexed_under_every_footprint_key() {
        let mut h = History::new(4);
        let unit = Command::batch(
            CommandId::new(NodeId(0), (1 << 63) | 1),
            vec![put(1, 1, 7), put(1, 2, 9)],
        );
        h.update(&unit, ts(1, 0), BTreeSet::new(), CmdStatus::FastPending, b0(), false);

        // A later command on either key sees the batch as a predecessor.
        for key in [7, 9] {
            let probe = put(2, 1, key);
            let pred = h.compute_predecessors(&probe, ts(5, 2), None);
            assert!(pred.contains(&unit.id()), "key {key} missed the batch");
        }
        // An earlier command on either key is blocked by the pending batch,
        // and the batch appears once even though both its keys match.
        let probe = put(3, 1, 9);
        assert_eq!(h.wait_blockers(&probe, ts(0, 3)), vec![unit.id()]);

        // Executing the batch moves it to the executed index for both keys.
        h.mark_executed(unit.id());
        let probe = put(4, 1, 7);
        let pred = h.compute_predecessors(&probe, ts(5, 0), None);
        assert!(pred.contains(&unit.id()));
    }

    #[test]
    fn noop_commands_have_no_predecessors_and_never_block() {
        let mut h = History::new(4);
        let noop = Command::noop(CommandId::new(NodeId(0), 1));
        h.update(&noop, ts(1, 0), BTreeSet::new(), CmdStatus::FastPending, b0(), false);
        let c = put(1, 1, 7);
        assert!(h.compute_predecessors(&c, ts(5, 1), None).is_empty());
        assert!(h.wait_blockers(&noop, ts(0, 0)).is_empty());
    }
}
