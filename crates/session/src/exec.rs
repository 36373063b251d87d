//! Application of decided commands to replica state.
//!
//! The [`Executor`] wraps a replica's one [`StateMachine`] and applies every
//! execution round on the calling thread — the runtime's core loop — in
//! delivery order. Rounds are small (one flush of decided units, a handful
//! of leaves) and an apply is a map update, so handing a round to worker
//! threads would cost far more than applying it; `docs/THROUGHPUT.md` has
//! the measurements.
//!
//! Besides applying, the executor owns the whole-state surface recovery
//! needs — snapshot, two-phase restore, watermark, fingerprint — behind a
//! lock, so orchestrator threads can read the watermark and fingerprint of
//! a live replica while its core loop applies.

use std::sync::{Mutex, MutexGuard};

use consensus_types::{Command, NodeId};
use telemetry::{Counter, Registry};

use crate::state_machine::{RestoreError, StateMachine, StateMachineFactory};

/// A machine decoded by [`Executor::prepare_restore`], waiting for
/// [`Executor::install`].
pub struct PreparedRestore(Box<dyn StateMachine>);

/// Applies decided command units to replica state.
///
/// The runtime hands [`Executor::apply_round`] the units of one execution
/// flush (batches and plain commands alike, in delivery order) and receives
/// per-leaf outputs in matching shape. Snapshot, restore, watermark and
/// fingerprint are the wrapped [`StateMachine`]'s own.
pub struct Executor {
    machine: Mutex<Box<dyn StateMachine>>,
    factory: StateMachineFactory,
    node: NodeId,
    rounds: Counter,
    leaves: Counter,
}

impl Executor {
    /// Builds an executor for `node`'s replica. Metrics land in `registry`
    /// under `exec.*`.
    ///
    /// `workers` is ignored: every round applies on the caller's thread.
    /// The parameter stays only because the `perfbench/` benchmark still
    /// passes a worker count; it goes with that benchmark's next revision.
    #[must_use]
    pub fn new(
        factory: StateMachineFactory,
        node: NodeId,
        workers: usize,
        registry: &Registry,
    ) -> Self {
        let _ = workers;
        Self {
            machine: Mutex::new(factory(node)),
            factory,
            node,
            rounds: registry.counter("exec.rounds"),
            leaves: registry.counter("exec.leaves"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Box<dyn StateMachine>> {
        self.machine.lock().expect("executor machine lock")
    }

    /// Applies one flush of decided units in delivery order and returns the
    /// per-leaf outputs, shaped `outputs[unit][leaf]`.
    pub fn apply_round(&self, units: &[Command]) -> Vec<Vec<Option<u64>>> {
        self.rounds.inc();
        self.leaves.add(units.iter().map(|u| u.leaves().len() as u64).sum());
        let mut machine = self.lock();
        units
            .iter()
            .map(|unit| unit.leaves().iter().map(|leaf| machine.apply(leaf)).collect())
            .collect()
    }

    /// Total commands applied so far.
    #[must_use]
    pub fn applied_through(&self) -> u64 {
        self.lock().applied_through()
    }

    /// State digest for cross-replica comparison.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.lock().fingerprint()
    }

    /// Serializes the complete state.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.lock().snapshot()
    }

    /// Replaces the entire state from a snapshot.
    pub fn restore(&self, snapshot: &[u8]) -> Result<(), RestoreError> {
        self.install(self.prepare_restore(snapshot)?, &[]);
        Ok(())
    }

    /// First half of [`Executor::restore`]: decodes `snapshot` into a fresh
    /// machine without touching the live state. A caller that publishes
    /// "restore complete" elsewhere does so between this and
    /// [`Executor::install`], so no reader sees the restored watermark or
    /// fingerprint before that signal.
    pub fn prepare_restore(&self, snapshot: &[u8]) -> Result<PreparedRestore, RestoreError> {
        let mut fresh = (self.factory)(self.node);
        fresh.restore(snapshot)?;
        Ok(PreparedRestore(fresh))
    }

    /// Second half of [`Executor::restore`]: applies `suffix` (units decided
    /// after the snapshot, in delivery order) to the prepared machine, then
    /// swaps it in. Readers see the old state or snapshot plus suffix,
    /// never the bare snapshot, which may sit behind the old watermark.
    pub fn install(&self, prepared: PreparedRestore, suffix: &[Command]) {
        let PreparedRestore(mut fresh) = prepared;
        if !suffix.is_empty() {
            self.rounds.inc();
        }
        for leaf in suffix.iter().flat_map(Command::leaves) {
            self.leaves.inc();
            fresh.apply(leaf);
        }
        *self.lock() = fresh;
    }

    /// The underlying state machine's short name for logs and tables.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.lock().kind()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::state_machine::EventLog;
    use consensus_types::CommandId;

    fn put(seq: u64, key: u64, value: u64) -> Command {
        Command::put(CommandId::new(NodeId(0), seq), key, value)
    }

    fn log_factory() -> StateMachineFactory {
        Arc::new(|_| Box::new(EventLog::new()))
    }

    #[test]
    fn rounds_apply_in_delivery_order_and_count_leaves() {
        let registry = Registry::new();
        let exec = Executor::new(log_factory(), NodeId(0), 8, &registry);
        let outs = exec.apply_round(&[put(1, 1, 10), put(2, 2, 20)]);
        assert_eq!(outs, vec![vec![Some(1)], vec![Some(2)]]);
        assert_eq!(exec.applied_through(), 2);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("exec.rounds"), 1);
        assert_eq!(snapshot.counter("exec.leaves"), 2);
    }

    #[test]
    fn batch_outputs_are_shaped_per_leaf() {
        let registry = Registry::new();
        let exec = Executor::new(log_factory(), NodeId(0), 1, &registry);
        let unit =
            Command::batch(CommandId::new(NodeId(0), 1 << 63), vec![put(1, 1, 10), put(2, 2, 20)]);
        let outs = exec.apply_round(&[unit]);
        assert_eq!(outs, vec![vec![Some(1), Some(2)]]);
        assert_eq!(exec.kind(), "event-log");
    }

    #[test]
    fn install_swaps_in_snapshot_plus_suffix() {
        let registry = Registry::new();
        let donor = Executor::new(log_factory(), NodeId(0), 1, &registry);
        donor.apply_round(&[put(1, 1, 10), put(2, 2, 20)]);
        let snapshot = donor.snapshot();
        donor.apply_round(&[put(3, 3, 30)]);

        let fresh = Executor::new(log_factory(), NodeId(1), 1, &registry);
        fresh.apply_round(&[put(9, 9, 90)]);
        let prepared = fresh.prepare_restore(&snapshot).expect("snapshot decodes");
        assert_eq!(fresh.applied_through(), 1, "prepare leaves the live state alone");
        fresh.install(prepared, &[put(3, 3, 30)]);
        assert_eq!(fresh.applied_through(), 3);
        assert_eq!(fresh.fingerprint(), donor.fingerprint());
    }
}
