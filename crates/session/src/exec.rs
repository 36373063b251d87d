//! Sharded parallel execution of non-conflicting commands.
//!
//! Generalized consensus (CAESAR, EPaxos, M²Paxos) only orders *conflicting*
//! commands relative to each other — yet every runtime used to drain its
//! execution queue through one serial `StateMachine::apply` loop, giving
//! back the very parallelism the protocols fought to preserve. The
//! [`Executor`] recovers it: commands are routed to a fixed set of worker
//! shards by conflict key ([`shard_of_key`]), so two commands on different
//! keys apply concurrently while commands on the same key — the only ones
//! whose relative order the protocol guarantees — land on the same shard and
//! apply in delivery order.
//!
//! Correctness leans on one observation: the conflict relation is keyed, so
//! *any* deterministic key → shard map serializes exactly the pairs the
//! protocol serialized. Cross-shard order is unconstrained by the protocol
//! and therefore free to race. State machines opt in via
//! [`StateMachine::partitionable`]; a machine whose identity is its total
//! order (e.g. [`crate::state_machine::EventLog`]) keeps the default `false`
//! and the executor transparently falls back to one serial machine, as does
//! a `workers ≤ 1` configuration. Snapshots cross the shard boundary in
//! canonical form — [`Executor::snapshot`] merges the shards back into one
//! whole-machine image and [`Executor::restore`] splits one — so sharded and
//! serial replicas interoperate freely during state transfer, and the
//! fingerprint/watermark a sharded replica reports is bit-identical to a
//! serial replica that applied the same commands.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use consensus_types::{Command, NodeId};
use telemetry::{Counter, Registry};

use crate::state_machine::{RestoreError, StateMachine, StateMachineFactory};

/// Deterministic conflict-key → shard routing shared by the executor and by
/// partitionable state machines ([`StateMachine::split_snapshot`]).
/// Key-less commands (no-ops) ride shard 0; they conflict with nothing, so
/// their placement is arbitrary but must be stable.
#[must_use]
pub fn shard_of_key(key: Option<u64>, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let Some(key) = key else { return 0 };
    // splitmix64 finalizer: decorrelates sequential benchmark keys so hot
    // keyspaces spread over all shards instead of striding into a few.
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// One shard's slice of an apply round: leaf commands in delivery order,
/// tagged with their (unit, leaf) slot so the round can reassemble outputs.
struct Job {
    items: Vec<(usize, usize, Command)>,
    done: Sender<Vec<(usize, usize, Option<u64>)>>,
}

struct Worker {
    jobs: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

enum Inner {
    /// One machine, applied on the caller's thread — non-partitionable
    /// machines and `workers ≤ 1` configurations.
    Serial(Mutex<Box<dyn StateMachine>>),
    /// One machine per shard, each owned (via lock) by a persistent worker
    /// thread; rounds fan leaf commands out by [`shard_of_key`].
    Sharded { shards: Vec<Arc<Mutex<Box<dyn StateMachine>>>>, workers: Vec<Worker> },
}

/// A snapshot decoded by [`Executor::prepare_restore`] (one machine per
/// shard), waiting for [`Executor::install`].
pub struct PreparedRestore(Vec<Box<dyn StateMachine>>);

/// Applies decided command units to replica state, in parallel where the
/// conflict relation allows it.
///
/// The runtime hands [`Executor::apply_round`] the units of one execution
/// flush (batches and plain commands alike, in delivery order) and receives
/// per-leaf outputs in matching shape. All other [`StateMachine`] surface —
/// snapshot, restore, watermark, fingerprint — is reproduced here with
/// identical semantics to a single serial machine, so runtimes swap a
/// `Box<dyn StateMachine>` for an `Executor` without touching recovery or
/// state-transfer logic.
pub struct Executor {
    inner: Inner,
    factory: StateMachineFactory,
    node: NodeId,
    kind: &'static str,
    rounds: Counter,
    parallel_rounds: Counter,
    leaves: Counter,
}

impl Executor {
    /// Builds an executor for `node`'s replica. Probes the factory machine:
    /// partitionable machines with `workers ≥ 2` run sharded, everything
    /// else runs serial on the caller's thread. Metrics land in `registry`
    /// under `exec.*`.
    #[must_use]
    pub fn new(
        factory: StateMachineFactory,
        node: NodeId,
        workers: usize,
        registry: &Registry,
    ) -> Self {
        let probe = factory(node);
        let kind = probe.kind();
        let sharded = workers >= 2 && probe.partitionable();
        registry.gauge("exec.workers").set(if sharded { workers as u64 } else { 1 });
        let inner = if sharded {
            let mut first = Some(probe);
            let shards: Vec<_> = (0..workers)
                .map(|_| {
                    let machine = first.take().unwrap_or_else(|| factory(node));
                    Arc::new(Mutex::new(machine))
                })
                .collect();
            let workers = shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    let shard = Arc::clone(shard);
                    let (tx, rx) = channel::<Job>();
                    let handle = std::thread::Builder::new()
                        .name(format!("exec-{}-shard-{i}", node.0))
                        .spawn(move || worker_loop(&shard, &rx))
                        .expect("spawn executor shard worker");
                    Worker { jobs: tx, handle: Some(handle) }
                })
                .collect();
            Inner::Sharded { shards, workers }
        } else {
            Inner::Serial(Mutex::new(probe))
        };
        Self {
            inner,
            factory,
            node,
            kind,
            rounds: registry.counter("exec.rounds"),
            parallel_rounds: registry.counter("exec.parallel_rounds"),
            leaves: registry.counter("exec.leaves"),
        }
    }

    /// Number of execution shards (`1` when running serially).
    #[must_use]
    pub fn shards(&self) -> usize {
        match &self.inner {
            Inner::Serial(_) => 1,
            Inner::Sharded { shards, .. } => shards.len(),
        }
    }

    /// Applies one flush of decided units in delivery order and returns the
    /// per-leaf outputs, shaped `outputs[unit][leaf]`. Leaves on the same
    /// conflict key apply in delivery order on one shard; leaves on
    /// different keys apply concurrently across shards. The round is a
    /// barrier: every leaf has applied when this returns.
    pub fn apply_round(&self, units: &[Command]) -> Vec<Vec<Option<u64>>> {
        self.rounds.inc();
        self.leaves.add(units.iter().map(|u| u.leaves().len() as u64).sum());
        match &self.inner {
            Inner::Serial(machine) => {
                let mut machine = machine.lock().expect("executor machine lock");
                units
                    .iter()
                    .map(|unit| unit.leaves().iter().map(|leaf| machine.apply(leaf)).collect())
                    .collect()
            }
            Inner::Sharded { shards, workers } => {
                let mut buckets: Vec<Vec<(usize, usize, Command)>> = vec![Vec::new(); shards.len()];
                let mut outputs: Vec<Vec<Option<u64>>> =
                    units.iter().map(|u| vec![None; u.leaves().len()]).collect();
                for (u, unit) in units.iter().enumerate() {
                    for (l, leaf) in unit.leaves().iter().enumerate() {
                        buckets[shard_of_key(leaf.key(), shards.len())].push((u, l, leaf.clone()));
                    }
                }
                let busy: Vec<usize> =
                    (0..buckets.len()).filter(|&s| !buckets[s].is_empty()).collect();
                if busy.len() <= 1 {
                    // Everything landed on one shard: apply inline, skip the
                    // round-trip through the worker.
                    if let Some(&s) = busy.first() {
                        let mut machine = shards[s].lock().expect("shard lock");
                        for (u, l, leaf) in &buckets[s] {
                            outputs[*u][*l] = machine.apply(leaf);
                        }
                    }
                    return outputs;
                }
                self.parallel_rounds.inc();
                let (done_tx, done_rx) = channel();
                for &s in &busy {
                    let job = Job { items: std::mem::take(&mut buckets[s]), done: done_tx.clone() };
                    workers[s].jobs.send(job).expect("executor worker alive");
                }
                drop(done_tx);
                while let Ok(results) = done_rx.recv() {
                    for (u, l, out) in results {
                        outputs[u][l] = out;
                    }
                }
                outputs
            }
        }
    }

    /// Total commands applied so far — the sum over shards, equal to what a
    /// serial machine would report after the same rounds.
    #[must_use]
    pub fn applied_through(&self) -> u64 {
        match &self.inner {
            Inner::Serial(machine) => machine.lock().expect("lock").applied_through(),
            Inner::Sharded { shards, .. } => {
                lock_all(shards).iter().map(|machine| machine.applied_through()).sum()
            }
        }
    }

    /// State digest for cross-replica comparison — XOR over shards, which a
    /// partitionable machine guarantees equals the whole-state fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        match &self.inner {
            Inner::Serial(machine) => machine.lock().expect("lock").fingerprint(),
            Inner::Sharded { shards, .. } => {
                lock_all(shards).iter().fold(0, |acc, machine| acc ^ machine.fingerprint())
            }
        }
    }

    /// Serializes the complete state in *canonical* (whole-machine) form, so
    /// sharded and serial replicas exchange snapshots freely.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        match &self.inner {
            Inner::Serial(machine) => machine.lock().expect("lock").snapshot(),
            Inner::Sharded { shards, .. } => {
                let mut whole = (self.factory)(self.node);
                for shard in shards {
                    let part = shard.lock().expect("lock").snapshot();
                    whole.merge_snapshot(&part).expect("partitionable machine merges its shards");
                }
                whole.snapshot()
            }
        }
    }

    /// Replaces the entire state from a canonical snapshot (produced by any
    /// replica, sharded or serial), redistributing entries across shards.
    pub fn restore(&self, snapshot: &[u8]) -> Result<(), RestoreError> {
        self.install(self.prepare_restore(snapshot)?, &[]);
        Ok(())
    }

    /// First half of [`Executor::restore`]: decodes `snapshot` into fresh
    /// machines, one per shard, without touching the live state. A caller
    /// that publishes "restore complete" elsewhere does so between this and
    /// [`Executor::install`], so no reader sees the restored watermark or
    /// fingerprint before that signal.
    pub fn prepare_restore(&self, snapshot: &[u8]) -> Result<PreparedRestore, RestoreError> {
        let mut whole = (self.factory)(self.node);
        whole.restore(snapshot)?;
        let Inner::Sharded { shards, .. } = &self.inner else {
            return Ok(PreparedRestore(vec![whole]));
        };
        let parts = whole
            .split_snapshot(shards.len())
            .ok_or_else(|| RestoreError::new("machine stopped being partitionable"))?;
        let machines = parts
            .iter()
            .map(|part| {
                let mut fresh = (self.factory)(self.node);
                fresh.restore(part)?;
                Ok(fresh)
            })
            .collect::<Result<_, RestoreError>>()?;
        Ok(PreparedRestore(machines))
    }

    /// Second half of [`Executor::restore`]: applies `suffix` (units decided
    /// after the snapshot, in delivery order) to the prepared machines, then
    /// swaps them in. Readers see the old state or snapshot plus suffix,
    /// never the bare snapshot, which may sit behind the old watermark.
    pub fn install(&self, mut prepared: PreparedRestore, suffix: &[Command]) {
        if !suffix.is_empty() {
            self.rounds.inc();
        }
        let shards = prepared.0.len();
        for leaf in suffix.iter().flat_map(Command::leaves) {
            self.leaves.inc();
            prepared.0[shard_of_key(leaf.key(), shards)].apply(leaf);
        }
        let mut machines = prepared.0.into_iter();
        match &self.inner {
            Inner::Serial(machine) => {
                *machine.lock().expect("lock") = machines.next().expect("one serial machine");
            }
            Inner::Sharded { shards, .. } => {
                for (machine, fresh) in lock_all(shards).iter_mut().zip(machines) {
                    **machine = fresh;
                }
            }
        }
    }

    /// The underlying state machine's short name for logs and tables.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// How this executor applies commands: `"sharded"` (conflict-keyed
    /// worker pool) or `"serial"` (caller's thread).
    #[must_use]
    pub fn mode(&self) -> &'static str {
        match &self.inner {
            Inner::Serial(_) => "serial",
            Inner::Sharded { .. } => "sharded",
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if let Inner::Sharded { workers, .. } = &mut self.inner {
            for worker in workers.iter_mut() {
                // Replace the sender with a dead channel so the worker's
                // `recv` errors out and its loop exits.
                let (dead, _) = channel();
                worker.jobs = dead;
            }
            for worker in workers.iter_mut() {
                if let Some(handle) = worker.handle.take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

/// Locks every shard in index order. Whole-state reads and the restore swap
/// take all the locks, so a reader never sums or XORs shards from both
/// sides of a restore; workers hold one lock at a time, so the fixed order
/// cannot deadlock.
fn lock_all(
    shards: &[Arc<Mutex<Box<dyn StateMachine>>>],
) -> Vec<MutexGuard<'_, Box<dyn StateMachine>>> {
    shards.iter().map(|shard| shard.lock().expect("shard lock")).collect()
}

fn worker_loop(shard: &Mutex<Box<dyn StateMachine>>, jobs: &Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        let outputs = {
            let mut machine = shard.lock().expect("shard lock");
            job.items.iter().map(|(u, l, leaf)| (*u, *l, machine.apply(leaf))).collect()
        };
        // A dropped round receiver just means the executor is shutting down.
        let _ = job.done.send(outputs);
    }
}

#[cfg(test)]
mod tests {
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
    fn shard_routing_is_deterministic_and_in_range() {
        for shards in 1..=8 {
            assert_eq!(shard_of_key(None, shards), 0);
            for key in 0..256 {
                let s = shard_of_key(Some(key), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_key(Some(key), shards));
            }
        }
    }

    #[test]
    fn sequential_keys_spread_over_shards() {
        let shards = 4;
        let mut hits = vec![0usize; shards];
        for key in 0..1000 {
            hits[shard_of_key(Some(key), shards)] += 1;
        }
        for (shard, &count) in hits.iter().enumerate() {
            assert!(count > 100, "shard {shard} starved: {hits:?}");
        }
    }

    #[test]
    fn non_partitionable_machines_fall_back_to_serial() {
        let registry = Registry::new();
        let exec = Executor::new(log_factory(), NodeId(0), 8, &registry);
        assert_eq!(exec.shards(), 1);
        let outs = exec.apply_round(&[put(1, 1, 10), put(2, 2, 20)]);
        assert_eq!(outs, vec![vec![Some(1)], vec![Some(2)]]);
        assert_eq!(exec.applied_through(), 2);
        assert_eq!(registry.snapshot().counter("exec.leaves"), 2);
    }

    #[test]
    fn serial_executor_matches_machine_semantics_for_batches() {
        let registry = Registry::new();
        let exec = Executor::new(log_factory(), NodeId(0), 1, &registry);
        let unit =
            Command::batch(CommandId::new(NodeId(0), 1 << 63), vec![put(1, 1, 10), put(2, 2, 20)]);
        let outs = exec.apply_round(&[unit]);
        assert_eq!(outs, vec![vec![Some(1), Some(2)]]);
        assert_eq!(exec.kind(), "event-log");
    }
}
