//! [`ReplicaDriver`]: one replica's protocol host, shared by both runtimes.
//!
//! The driver is sans-IO: it takes events in (`on_start`, `on_client`,
//! `on_message`, `on_timer`, `on_snapshot_request`, `on_chunk`) and hands
//! [`Action`]s out of [`ReplicaDriver::poll`] (and, for sends that need not
//! wait on a WAL commit, [`ReplicaDriver::poll_transmit`]). It never touches a socket, a
//! clock or a thread. The `simnet` simulator drives it with virtual time and
//! its event heap; the `net` runtime drives it with wall-clock microseconds
//! from a mailbox, a timer wheel and frame encoding. Everything between the
//! process and those transports lives here, once:
//!
//! * **batching** — the co-queued client commands a runtime drained fold
//!   into one consensus unit through the [`Batcher`];
//! * **dedup** — every execution is checked against the `ordered`
//!   (consensus-unit ids) and `applied` (command ids) summaries, so a
//!   redelivered decision never applies twice; a client waiting on a
//!   deduplicated id gets an [`Action::Abort`];
//! * **apply** — one [`Executor`] round per poll, log-before-apply into the
//!   optional [`Wal`], per-leaf [`Action::Reply`] fan-out, and a WAL commit
//!   that closes the round before `poll` returns (so no reply leaves
//!   before its round is durable);
//! * **checkpoints** — a snapshot plus the floor-compacted summaries and
//!   the protocol's [`ExecutionCursor`], cut by [`checkpoint_due`], with the
//!   suffix of units applied since;
//! * **restore** — disk-first recovery at [`ReplicaDriver::on_start`], then
//!   snapshot transfer from the first donor whose chunks complete, with the
//!   executions produced meanwhile buffered and applied after `install`.
//!
//! Time is [`SimTime`] microseconds in whatever frame the runtime uses
//! (simulated time, or time since the cluster epoch); span timestamps get
//! [`DriverConfig::span_offset`] added so `net` traces land on the wall
//! clock. The `replica.state` gauge reads [`ReplicaState`]: booting until
//! disk recovery is done, restoring while a catch-up is pending, serving
//! after.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::Arc;

use consensus_types::{
    AppliedSummary, Command, CommandId, Decision, DecisionPath, Execution, ExecutionCursor,
    LatencyBreakdown, NodeId, SimTime, StateTransfer, Timestamp,
};
use telemetry::{Counter, Gauge, Registry, SpanEvent, TracePhase};
use wal::{Recovery, Wal, WalConfig};

use crate::batch::Batcher;
use crate::exec::Executor;
use crate::process::{Context, Process};
use crate::session::Reply;
use crate::state_machine::StateMachineFactory;

/// Bytes of checkpoint payload per transfer chunk. A runtime splits each
/// donation into chunks of this size, so a large state machine never
/// produces one giant frame that monopolizes a donor's write buffer.
pub const SNAPSHOT_CHUNK: usize = 256 * 1024;

/// Suffix bytes past which a checkpoint is due however large the state is:
/// a quarter of the `net` wire's 64 MiB frame limit, so the suffix riding on
/// a donation's last chunk (beside at most one chunk of payload) always fits
/// in one frame.
pub const SUFFIX_CAP: u64 = 16 * 1024 * 1024;

/// Default minimum number of applied units between two checkpoints.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 64;

const RESTORING: &str = "replica is restoring from a peer snapshot; retry shortly";
const DUPLICATE: &str = "command id was already applied here (duplicate submission or reused \
                         sequence); resubmit with a fresh id";

/// Whether the driver cuts a checkpoint now, given the suffix logged since
/// the last cut (`units`, encoded `bytes`) and that cut's payload length.
/// At least `interval` units must separate cuts. Past that, a payload under
/// one [`SNAPSHOT_CHUNK`] is cut at once, so small states keep the plain
/// unit cadence; a larger one waits until the suffix has logged as many
/// bytes as the payload holds (at most [`SUFFIX_CAP`]), so a cut never
/// writes much more than the work it retires.
#[must_use]
pub fn checkpoint_due(units: usize, bytes: u64, interval: u64, last_payload: usize) -> bool {
    units as u64 >= interval
        && (last_payload < SNAPSHOT_CHUNK || bytes >= (last_payload as u64).min(SUFFIX_CAP))
}

/// The lifecycle phase published on the `replica.state` gauge. Each value
/// is set only once the state it names is in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Built, disk recovery not yet done.
    Booting = 0,
    /// Waiting for a snapshot transfer; client commands are refused.
    Restoring = 1,
    /// Applying and answering client commands.
    Serving = 2,
}

/// What the driver builds a replica from. The knobs mirror the runtime
/// configs that set them.
#[derive(Clone)]
pub struct DriverConfig {
    /// This replica's identity.
    pub id: NodeId,
    /// Total number of replicas in the cluster.
    pub nodes: usize,
    /// Builds this replica's state machine.
    pub state_machine: StateMachineFactory,
    /// Minimum units between checkpoint cuts (see [`checkpoint_due`]).
    pub checkpoint_interval: u64,
    /// `Some(budget)` starts the replica restoring: it asks its peers for a
    /// snapshot and serves once a transfer completes or `budget`
    /// microseconds pass. Ignored in a one-node cluster.
    pub catch_up_timeout: Option<SimTime>,
    /// Added to every span timestamp before it is recorded (the wall-clock
    /// microseconds at the runtime's time origin; 0 under `simnet`).
    pub span_offset: u64,
}

impl DriverConfig {
    /// A memory-only replica that serves at once, with the default
    /// checkpoint interval.
    #[must_use]
    pub fn new(id: NodeId, nodes: usize, state_machine: StateMachineFactory) -> Self {
        Self {
            id,
            nodes,
            state_machine,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            catch_up_timeout: None,
            span_offset: 0,
        }
    }
}

/// One thing the runtime must do on the driver's behalf.
#[derive(Debug)]
pub enum Action<M> {
    /// Deliver `msg` to replica `to` (possibly this one: loopback).
    Send {
        /// The destination replica.
        to: NodeId,
        /// The protocol message.
        msg: M,
    },
    /// Hand `msg` back through [`ReplicaDriver::on_timer`] after `delay`
    /// microseconds.
    Timer {
        /// Delay in the process's microseconds.
        delay: SimTime,
        /// The timeout payload.
        msg: M,
    },
    /// A command submitted to this replica executed here: answer it.
    Reply(Reply),
    /// A command submitted to this replica will never be answered.
    Abort {
        /// The command whose reply will never come.
        command: CommandId,
        /// Why.
        reason: &'static str,
    },
    /// Units executed in one round (or covered by a restore), in order, for
    /// decision-stream subscribers.
    Decisions(Vec<Decision>),
    /// Ship this replica's state to a catching-up peer.
    Donate(Donation),
    /// Ask every peer for a snapshot transfer.
    RequestSnapshots,
}

/// A donor's state, as sent to one catching-up peer.
#[derive(Debug)]
pub struct Donation {
    /// The catching-up replica.
    pub to: NodeId,
    /// Commands the checkpoint covers.
    pub applied_through: u64,
    /// The serialized checkpoint, shared with the donor's own copy.
    pub payload: Arc<Vec<u8>>,
    /// Units applied since the checkpoint, in execution order.
    pub suffix: Vec<Command>,
    /// The protocol's cursor at donation time, covering the suffix.
    pub cursor: ExecutionCursor,
}

/// One chunk of a donation, as it travels between replicas: chunks
/// `0..total` carry the payload in order, and the last one also carries
/// the suffix and the donation-time cursor.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SnapshotChunk {
    /// The donating replica.
    pub from: NodeId,
    /// Commands covered by the checkpoint (where the suffix starts).
    pub applied_through: u64,
    /// Index of this chunk, `0..total`.
    pub seq: u32,
    /// Total number of chunks in this transfer.
    pub total: u32,
    /// This chunk's slice of the payload.
    pub bytes: Vec<u8>,
    /// On the last chunk only: units applied after the checkpoint.
    pub suffix: Vec<Command>,
    /// On the last chunk only: the donor's cursor at donation time;
    /// earlier chunks carry [`ExecutionCursor::Ids`].
    pub cursor: ExecutionCursor,
}

/// The latest checkpoint: the serialized [`CheckpointPayload`] plus the
/// watermark it covers. `payload` is reference-counted so donating never
/// copies it.
///
/// The summaries inside exist because applying a command twice forks a
/// replica's state machine away from its peers, and after a crash/restart
/// duplicates are real: the snapshot a restarted replica installs covers
/// commands that surviving peers *also* redeliver once their links
/// reconnect. Shipping the full floor-compacted summaries hands the
/// receiver complete dedup (and dependency-satisfaction) knowledge in
/// O(replicas + clients) bytes.
struct Checkpoint {
    applied_through: u64,
    payload: Arc<Vec<u8>>,
}

/// What a [`Checkpoint`]'s payload decodes to, both from the write-ahead
/// log and from a donor's snapshot transfer. The fields encode in order,
/// with no framing, so the bytes match the tuple
/// `(snapshot, applied, ordered, cursor)` older logs hold.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct CheckpointPayload {
    /// The state machine's `snapshot()` bytes.
    snapshot: Vec<u8>,
    /// Every command id the snapshot covers.
    applied: AppliedSummary,
    /// Every consensus-unit id the snapshot covers.
    ordered: AppliedSummary,
    /// The protocol's resume point for exactly that state.
    cursor: ExecutionCursor,
}

/// One donor's in-flight transfer, assembled chunk by chunk.
struct DonorTransfer {
    applied_through: u64,
    total: u32,
    received: u32,
    chunks: Vec<Option<Vec<u8>>>,
    suffix: Vec<Command>,
    cursor: ExecutionCursor,
}

/// The catching-up phase: requests are out, chunks are being assembled per
/// donor, and local executions are buffered until the restore resolves.
struct RestoreState {
    deadline: SimTime,
    donors: HashMap<NodeId, DonorTransfer>,
    pending: Vec<Execution>,
}

/// The driver's registry handles. Names are shared with the runtimes'
/// own views (`net.*` counters are also fields of `NetReplicaStats`).
struct Metrics {
    batch_assembled: Counter,
    batch_commands: Counter,
    snapshots_served: Counter,
    /// Bumped before the restored state is installed, so whoever observes
    /// the restored watermark or fingerprint also observes the count.
    catch_ups_completed: Counter,
    catch_up_replayed: Counter,
    /// Write-ahead-log failures the replica survives: each is printed to
    /// stderr, counted, and the replica keeps serving.
    wal_append_errors: Counter,
    wal_commit_errors: Counter,
    wal_checkpoint_errors: Counter,
    state: Gauge,
}

impl Metrics {
    fn register(registry: &Registry) -> Self {
        Self {
            batch_assembled: registry.counter("batch.assembled"),
            batch_commands: registry.counter("batch.commands"),
            snapshots_served: registry.counter("net.snapshots_served"),
            catch_ups_completed: registry.counter("net.catch_ups_completed"),
            catch_up_replayed: registry.counter("net.catch_up_replayed"),
            wal_append_errors: registry.counter("wal.errors.append"),
            wal_commit_errors: registry.counter("wal.errors.commit"),
            wal_checkpoint_errors: registry.counter("wal.errors.checkpoint"),
            state: registry.gauge("replica.state"),
        }
    }
}

/// One replica's process plus everything that turns its deliveries into
/// applied, deduplicated, durable, answered commands. See the module docs.
pub struct ReplicaDriver<P: Process> {
    id: NodeId,
    nodes: usize,
    process: P,
    batcher: Batcher,
    /// Shared so a runtime's handle can read the watermark and fingerprint
    /// while the driver applies.
    executor: Arc<Executor>,
    registry: Arc<Registry>,
    /// Every command id applied here (batch units count each inner command).
    applied: AppliedSummary,
    /// Every consensus-unit id executed here: plain command ids plus batch
    /// ids. Protocols name units, so transfers ship it beside `applied`; it
    /// also reseeds the batcher so a new incarnation never reuses a unit id.
    ordered: AppliedSummary,
    /// Commands submitted to this replica: the only ones that get replies.
    reply_wanted: HashSet<CommandId>,
    /// The highest state-machine watermark observed; it must never regress.
    watermark: u64,
    checkpoint: Option<Checkpoint>,
    checkpoint_interval: u64,
    /// Units applied since the checkpoint, in execution order: the suffix a
    /// donor sends beside its snapshot.
    suffix_log: Vec<Command>,
    /// Encoded size of `suffix_log`, in bytes.
    suffix_bytes: u64,
    catch_up_timeout: Option<SimTime>,
    restore: Option<RestoreState>,
    wal: Option<Wal>,
    /// What the log's startup scan recovered; replayed by `on_start`.
    disk_recovery: Option<Recovery>,
    span_offset: u64,
    outbox: Vec<(NodeId, P::Message)>,
    timers: Vec<(SimTime, P::Message)>,
    executions: Vec<Execution>,
    spans: Vec<SpanEvent>,
    actions: Vec<Action<P::Message>>,
    metrics: Metrics,
}

impl<P: Process> ReplicaDriver<P> {
    /// Hosts `process` as a memory-only replica. Metrics land in the
    /// process's own registry, or a fresh one if it keeps none.
    #[must_use]
    pub fn new(config: DriverConfig, process: P) -> Self {
        let registry = process.telemetry().unwrap_or_else(|| Arc::new(Registry::new()));
        let executor = Arc::new(Executor::new(config.state_machine, config.id, 1, &registry));
        let metrics = Metrics::register(&registry);
        metrics.state.set(ReplicaState::Booting as u64);
        Self {
            id: config.id,
            nodes: config.nodes,
            process,
            batcher: Batcher::new(config.id),
            executor,
            registry,
            applied: AppliedSummary::default(),
            ordered: AppliedSummary::default(),
            reply_wanted: HashSet::new(),
            watermark: 0,
            checkpoint: None,
            checkpoint_interval: config.checkpoint_interval.max(1),
            suffix_log: Vec::new(),
            suffix_bytes: 0,
            catch_up_timeout: config.catch_up_timeout.filter(|_| config.nodes > 1),
            restore: None,
            wal: None,
            disk_recovery: None,
            span_offset: config.span_offset,
            outbox: Vec::new(),
            timers: Vec::new(),
            executions: Vec::new(),
            spans: Vec::new(),
            actions: Vec::new(),
            metrics,
        }
    }

    /// Makes the replica durable: opens (and scans) the write-ahead log in
    /// `config`'s directory. Every unit is then logged before it applies,
    /// each round commits before its replies leave, checkpoints become log
    /// records, and [`ReplicaDriver::on_start`] replays what the scan found.
    pub fn with_wal(mut self, config: WalConfig) -> io::Result<Self> {
        let (wal, recovery) = Wal::open(config, &self.registry)?;
        self.wal = Some(wal);
        self.disk_recovery = Some(recovery);
        Ok(self)
    }

    /// The hosted process.
    #[must_use]
    pub fn process(&self) -> &P {
        &self.process
    }

    /// Mutable access to the hosted process.
    pub fn process_mut(&mut self) -> &mut P {
        &mut self.process
    }

    /// The replica's execution engine.
    #[must_use]
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// The registry the driver and the process record into.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// When a pending restore gives up, if one is pending.
    #[must_use]
    pub fn restore_deadline(&self) -> Option<SimTime> {
        self.restore.as_ref().map(|restore| restore.deadline)
    }

    /// The executions the process delivered since the last
    /// [`ReplicaDriver::poll`], before dedup.
    #[must_use]
    pub fn delivered(&self) -> &[Execution] {
        &self.executions
    }

    /// Runs `f` against the process with a context over the driver's
    /// buffers.
    fn step(&mut self, now: SimTime, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        let mut ctx = Context::for_runtime(
            self.id,
            self.nodes,
            now,
            &mut self.outbox,
            &mut self.timers,
            &mut self.executions,
        )
        .with_spans(&mut self.spans);
        f(&mut self.process, &mut ctx);
    }

    /// Starts the process, replays the disk recovery (if a WAL is open),
    /// and either serves or, when catching up, requests snapshots.
    pub fn on_start(&mut self, now: SimTime) {
        if let Some(timeout) = self.catch_up_timeout {
            self.restore = Some(RestoreState {
                deadline: now + timeout,
                donors: HashMap::new(),
                pending: Vec::new(),
            });
        }
        self.step(now, |process, ctx| process.on_start(ctx));
        if let Some(recovery) = self.disk_recovery.take() {
            self.recover_from_disk(recovery, now);
        }
        if self.restore.is_some() {
            self.metrics.state.set(ReplicaState::Restoring as u64);
            self.actions.push(Action::RequestSnapshots);
        } else {
            self.metrics.state.set(ReplicaState::Serving as u64);
        }
    }

    /// Client commands submitted here, drained together by the runtime:
    /// they fold into one consensus unit, and each gets a reply when it
    /// executes. While restoring, every one is aborted at once instead.
    pub fn on_client(&mut self, queued: Vec<Command>, now: SimTime) {
        if self.restore.is_some() {
            for cmd in &queued {
                self.actions.push(Action::Abort { command: cmd.id(), reason: RESTORING });
            }
            return;
        }
        if queued.len() > 1 {
            self.metrics.batch_assembled.inc();
            self.metrics.batch_commands.add(queued.len() as u64);
        }
        let unit = self.batcher.coalesce(queued);
        self.reply_wanted.extend(unit.leaves().iter().map(Command::id));
        self.step(now, |process, ctx| {
            for leaf in unit.leaves() {
                ctx.trace(TracePhase::Submit, leaf.id());
            }
            process.on_client_command(unit, ctx);
        });
    }

    /// A protocol message from replica `from`.
    pub fn on_message(&mut self, from: NodeId, msg: P::Message, now: SimTime) {
        self.step(now, |process, ctx| process.on_message(from, msg, ctx));
    }

    /// A timer (or loopback send) the runtime held for this replica.
    pub fn on_timer(&mut self, msg: P::Message, now: SimTime) {
        let me = self.id;
        self.step(now, |process, ctx| process.on_message(me, msg, ctx));
    }

    /// Hands out the sends and timers the callbacks buffered, plus any other
    /// pending action, without applying anything. None of them waits on a
    /// WAL commit, so a durable runtime calls this before
    /// [`ReplicaDriver::poll`]: protocol traffic then never waits for this
    /// replica's disk.
    pub fn poll_transmit(&mut self) -> std::vec::Drain<'_, Action<P::Message>> {
        self.queue_transmit();
        self.actions.drain(..)
    }

    fn queue_transmit(&mut self) {
        self.actions.extend(self.outbox.drain(..).map(|(to, msg)| Action::Send { to, msg }));
        self.actions.extend(self.timers.drain(..).map(|(delay, msg)| Action::Timer { delay, msg }));
    }

    /// Ends a step: gives up an expired restore, applies the executions
    /// delivered since the last poll as one round (or buffers them while
    /// restoring), records spans, and hands out every pending action. WAL
    /// commits happen inside, so replies are durable when they come out.
    pub fn poll(&mut self, now: SimTime) -> std::vec::Drain<'_, Action<P::Message>> {
        if self.restore.as_ref().is_some_and(|restore| now >= restore.deadline) {
            // Serve with whatever state we have, starting with the buffered
            // local executions.
            let mut restore = self.restore.take().expect("restore present");
            self.metrics.state.set(ReplicaState::Serving as u64);
            self.apply_executions(&mut restore.pending, now);
        }
        self.queue_transmit();
        if !self.executions.is_empty() {
            let mut executions = std::mem::take(&mut self.executions);
            match &mut self.restore {
                Some(restore) => restore.pending.append(&mut executions),
                None => self.apply_executions(&mut executions, now),
            }
            self.executions = executions;
        }
        for span in &mut self.spans {
            span.at += self.span_offset;
        }
        self.registry.record_spans(&mut self.spans);
        self.actions.drain(..)
    }

    /// Applies one round. Dedup first: a unit already executed (catch-up
    /// replay, or a decision redelivered after a reconnect) is dropped, and
    /// a unit some of whose inner commands a transfer covered is repacked
    /// to the survivors; a client waiting on a dropped id gets an abort.
    /// Then log before apply (recovery can only ever see a
    /// logged-but-unapplied unit, never an applied-but-unlogged one), apply
    /// through the executor, fan replies out per leaf, and close the round
    /// on disk: a cursor mark plus the commit (fsync) under the WAL's
    /// policy.
    fn apply_executions(&mut self, executions: &mut Vec<Execution>, now: SimTime) {
        if executions.is_empty() {
            return;
        }
        let mut decisions: Vec<Decision> = Vec::with_capacity(executions.len());
        let mut units: Vec<Command> = Vec::with_capacity(executions.len());
        for Execution { command, decision } in executions.drain(..) {
            let unit_id = command.id();
            if self.ordered.contains(unit_id) {
                for leaf in command.leaves() {
                    self.abort_duplicate(leaf.id());
                }
                continue;
            }
            self.ordered.insert(unit_id);
            let unit = if command.leaves().iter().all(|leaf| !self.applied.contains(leaf.id())) {
                command
            } else {
                let mut surviving = Vec::new();
                for leaf in command.leaves() {
                    if self.applied.contains(leaf.id()) {
                        self.abort_duplicate(leaf.id());
                    } else {
                        surviving.push(leaf.clone());
                    }
                }
                if surviving.is_empty() {
                    continue;
                }
                if command.is_batch() {
                    Command::batch(unit_id, surviving)
                } else {
                    surviving.pop().expect("one surviving plain command")
                }
            };
            decisions.push(decision);
            units.push(unit);
        }
        if let Some(wal) = &mut self.wal {
            for unit in &units {
                if let Err(err) = wal.append_command(unit) {
                    self.metrics.wal_append_errors.inc();
                    eprintln!("replica {} wal append failed: {err}", self.id);
                }
            }
        }
        let outputs = self.executor.apply_round(&units);
        for ((decision, unit), leaf_outputs) in decisions.iter().zip(units).zip(outputs) {
            for (leaf, output) in unit.leaves().iter().zip(leaf_outputs) {
                let id = leaf.id();
                self.applied.insert(id);
                let span =
                    SpanEvent { command: id, phase: TracePhase::Execute, at: now, node: self.id };
                self.spans.push(span);
                if self.reply_wanted.remove(&id) {
                    self.spans.push(SpanEvent { phase: TracePhase::Reply, ..span });
                    let mut decision = decision.clone();
                    decision.command = id;
                    let reply = Reply { command: id, node: self.id, output, decision };
                    self.actions.push(Action::Reply(reply));
                }
            }
            self.suffix_bytes += bincode::serialized_size(&unit).expect("unit encodes");
            self.suffix_log.push(unit);
        }
        self.observe_watermark(self.executor.applied_through());
        if let Some(wal) = &mut self.wal {
            let cursor = self.process.execution_cursor();
            let result = if matches!(cursor, ExecutionCursor::Ids) {
                // Dependency-tracked protocols carry no slot cursor; the
                // logged command ids are the whole resume point.
                wal.commit()
            } else {
                wal.append_cursor(&cursor).and_then(|()| wal.commit())
            };
            if let Err(err) = result {
                self.metrics.wal_commit_errors.inc();
                eprintln!("replica {} wal commit failed: {err}", self.id);
            }
        }
        if !decisions.is_empty() {
            self.actions.push(Action::Decisions(decisions));
        }
        let last_payload = self.checkpoint.as_ref().map_or(0, |cut| cut.payload.len());
        if checkpoint_due(
            self.suffix_log.len(),
            self.suffix_bytes,
            self.checkpoint_interval,
            last_payload,
        ) {
            self.cut_checkpoint();
        }
    }

    /// Aborts the client waiting on `id`, if any: the command was
    /// deduplicated, so the reply it expects will never be produced.
    fn abort_duplicate(&mut self, id: CommandId) {
        if self.reply_wanted.remove(&id) {
            self.actions.push(Action::Abort { command: id, reason: DUPLICATE });
        }
    }

    /// Asserts that the state machine's watermark never moves backwards:
    /// a regression means a restore or a replay mis-ordered against live
    /// applies, which would let a reply observe a cursor ahead of
    /// `applied_through`.
    fn observe_watermark(&mut self, watermark: u64) {
        assert!(
            watermark >= self.watermark,
            "replica {} state-machine watermark regressed: {} -> {}",
            self.id,
            self.watermark,
            watermark
        );
        self.watermark = watermark;
    }

    /// Snapshots the state machine, the summaries it covers and the
    /// protocol's cursor as the new checkpoint, writes it to the log (which
    /// rotates and compacts every older segment away), and resets the
    /// suffix.
    fn cut_checkpoint(&mut self) {
        let snapshot = self.executor.snapshot();
        let applied_through = self.executor.applied_through();
        self.observe_watermark(applied_through);
        let payload = bincode::serialize(&CheckpointPayload {
            snapshot,
            applied: self.applied.clone(),
            ordered: self.ordered.clone(),
            cursor: self.process.execution_cursor(),
        })
        .expect("checkpoint payload serializes");
        if let Some(wal) = &mut self.wal {
            if let Err(err) = wal.append_checkpoint(applied_through, &payload) {
                self.metrics.wal_checkpoint_errors.inc();
                eprintln!("replica {} wal checkpoint failed: {err}", self.id);
            }
        }
        self.checkpoint = Some(Checkpoint { applied_through, payload: Arc::new(payload) });
        self.suffix_log.clear();
        self.suffix_bytes = 0;
    }

    /// Replays what the write-ahead log recovered: restore the latest
    /// durable checkpoint, apply the logged suffix, then hand the protocol
    /// a [`StateTransfer`] whose cursor merges the checkpoint's with the
    /// last logged mark. Ends by cutting a fresh checkpoint, which also
    /// compacts the log down to one segment.
    fn recover_from_disk(&mut self, recovery: Recovery, now: SimTime) {
        if recovery.is_empty() {
            return;
        }
        let mut covered = AppliedSummary::default();
        let mut covered_units = AppliedSummary::default();
        let mut checkpoint_cursor = ExecutionCursor::Ids;
        if let Some(image) = &recovery.checkpoint {
            let Ok(checkpoint) = bincode::deserialize::<CheckpointPayload>(&image.payload) else {
                // A CRC-valid but undecodable checkpoint means a format
                // change or writer bug, not disk damage; starting empty
                // (and falling back to snapshot transfer if catching up)
                // beats serving half-restored state.
                self.metrics.wal_checkpoint_errors.inc();
                eprintln!("replica {} wal checkpoint undecodable; starting empty", self.id);
                return;
            };
            if self.executor.restore(&checkpoint.snapshot).is_err() {
                self.metrics.wal_checkpoint_errors.inc();
                eprintln!(
                    "replica {} wal checkpoint rejected by state machine; starting empty",
                    self.id
                );
                return;
            }
            covered = checkpoint.applied;
            covered_units = checkpoint.ordered;
            checkpoint_cursor = checkpoint.cursor;
        }
        // Suffix records are units filtered to the inner commands that
        // applied, so replaying them reproduces exactly the pre-crash state.
        self.executor.apply_round(&recovery.suffix);
        self.observe_watermark(self.executor.applied_through());
        let transfer = StateTransfer {
            applied: covered,
            ordered: covered_units,
            cursor: checkpoint_cursor.merge(recovery.cursor),
        };
        self.adopt_transfer(transfer, &recovery.suffix, now);
        // The recovered state is the new baseline: one durable record.
        self.cut_checkpoint();
    }

    /// Adds `suffix`'s ids to a transfer, merges the result into the dedup
    /// summaries (reseeding the batch lane past every recovered unit id),
    /// tells the process what is covered — dependency tracking stops
    /// waiting on it, slot cursors fast-forward past it — and reports the
    /// covered units to decision-stream subscribers.
    fn adopt_transfer(&mut self, mut transfer: StateTransfer, suffix: &[Command], now: SimTime) {
        transfer
            .applied
            .extend(suffix.iter().flat_map(|unit| unit.leaves().iter().map(Command::id)));
        transfer.ordered.extend(suffix.iter().map(Command::id));
        self.applied.merge(&transfer.applied);
        self.ordered.merge(&transfer.ordered);
        self.batcher.reseed(&self.ordered);
        self.step(now, |process, ctx| process.on_state_transfer(&transfer, ctx));
        self.publish_transfer_decisions(&transfer, now);
    }

    /// Reports a transfer's units on the decision stream. The protocol will
    /// never re-deliver a command the transfer covers, so without this a
    /// subscriber counting on a gap-free stream waits forever for
    /// executions that already happened. The records carry the completion
    /// time and no protocol timestamps; batches of 4096 keep every frame far
    /// from the wire's limit.
    fn publish_transfer_decisions(&mut self, transfer: &StateTransfer, now: SimTime) {
        for window in transfer.unit_summary().ids().chunks(4096) {
            let batch = window
                .iter()
                .map(|&id| Decision {
                    command: id,
                    timestamp: Timestamp::ZERO,
                    path: DecisionPath::Ordered,
                    proposed_at: now,
                    executed_at: now,
                    breakdown: LatencyBreakdown::default(),
                })
                .collect();
            self.actions.push(Action::Decisions(batch));
        }
    }

    /// A catching-up peer asks for this replica's state: donate the latest
    /// checkpoint (cut fresh if none exists yet) with the suffix since and
    /// a donation-time cursor. A replica that is itself restoring cannot
    /// donate.
    pub fn on_snapshot_request(&mut self, from: NodeId) {
        if from == self.id || self.restore.is_some() {
            return;
        }
        if self.checkpoint.is_none() {
            self.cut_checkpoint();
        }
        let checkpoint = self.checkpoint.as_ref().expect("checkpoint just cut");
        self.metrics.snapshots_served.inc();
        self.actions.push(Action::Donate(Donation {
            to: from,
            applied_through: checkpoint.applied_through,
            payload: Arc::clone(&checkpoint.payload),
            suffix: self.suffix_log.clone(),
            cursor: self.process.execution_cursor(),
        }));
    }

    /// Assembles one donor's transfer; the first donor to complete wins.
    /// Chunks that arrive when no restore is pending are ignored.
    pub fn on_chunk(&mut self, chunk: SnapshotChunk, now: SimTime) {
        let SnapshotChunk { from, applied_through, seq, total, bytes, suffix, cursor } = chunk;
        let Some(restore) = &mut self.restore else {
            return;
        };
        if total == 0 || seq >= total {
            return;
        }
        let donor = restore.donors.entry(from).or_insert_with(|| DonorTransfer {
            applied_through,
            total,
            received: 0,
            chunks: vec![None; total as usize],
            suffix: Vec::new(),
            cursor: ExecutionCursor::Ids,
        });
        if donor.total != total || donor.applied_through != applied_through {
            return; // frames from two different transfers of one donor
        }
        if donor.chunks[seq as usize].is_none() {
            donor.received += 1;
        }
        donor.chunks[seq as usize] = Some(bytes);
        if seq + 1 == total {
            donor.suffix = suffix;
            donor.cursor = cursor;
        }
        if donor.received == donor.total {
            self.finish_restore(from, now);
        }
    }

    /// Installs a completed donor transfer: restore the snapshot, replay
    /// the suffix, adopt the donor's dedup knowledge, then apply what the
    /// local process executed meanwhile (minus what the transfer covered).
    fn finish_restore(&mut self, donor_id: NodeId, now: SimTime) {
        let Some(mut restore) = self.restore.take() else { return };
        let Some(donor) = restore.donors.remove(&donor_id) else {
            self.restore = Some(restore);
            return;
        };
        // A replica that replayed its own log may be *ahead* of this donor;
        // installing the donation would regress the state machine. Keep
        // waiting for a donor that adds something (the deadline serves
        // from disk state if none can).
        let suffix_commands: u64 = donor.suffix.iter().map(|unit| unit.leaves().len() as u64).sum();
        if donor.applied_through + suffix_commands < self.watermark {
            self.restore = Some(restore);
            return;
        }
        let mut payload = Vec::new();
        for chunk in donor.chunks {
            payload.extend_from_slice(&chunk.expect("transfer complete"));
        }
        let Ok(checkpoint) = bincode::deserialize::<CheckpointPayload>(&payload) else {
            self.restore = Some(restore); // broken donor: wait for another
            return;
        };
        let Ok(prepared) = self.executor.prepare_restore(&checkpoint.snapshot) else {
            self.restore = Some(restore);
            return;
        };
        // Nothing below can fail: publish "restore complete" before the
        // restored watermark and fingerprint become visible. The counter
        // and gauge are relaxed atomics; the executor's machine lock orders
        // them (released by `install`, acquired by every watermark or
        // fingerprint read). `install` replays the suffix before the swap,
        // so observers never see the bare snapshot.
        self.metrics.catch_ups_completed.inc();
        self.metrics.state.set(ReplicaState::Serving as u64);
        self.metrics.catch_up_replayed.add(donor.suffix.len() as u64);
        self.executor.install(prepared, &donor.suffix);
        let watermark = self.executor.applied_through();
        self.observe_watermark(watermark);
        assert!(
            watermark >= donor.applied_through,
            "replica {} restored watermark {watermark} behind the donated checkpoint {}",
            self.id,
            donor.applied_through
        );
        // The donation-time cursor covers the suffix the checkpoint-time
        // cursor predates; merging keeps whichever claim is further along.
        let transfer = StateTransfer {
            applied: checkpoint.applied,
            ordered: checkpoint.ordered,
            cursor: checkpoint.cursor.merge(donor.cursor),
        };
        self.adopt_transfer(transfer, &donor.suffix, now);
        // The restored state is the new baseline: checkpoint it so this
        // replica can donate in turn, then catch up on local executions.
        self.cut_checkpoint();
        self.apply_executions(&mut restore.pending, now);
    }
}

#[cfg(test)]
mod tests {
    use consensus_types::BATCH_LANE;
    use wal::{FsyncPolicy, TempDir};

    use super::*;
    use crate::state_machine::EventLog;

    #[test]
    fn small_payload_cuts_on_the_unit_interval() {
        // No checkpoint yet, or one under a chunk: the interval alone rules.
        for payload in [0, 4_096, SNAPSHOT_CHUNK - 1] {
            assert!(!checkpoint_due(63, 0, 64, payload));
            assert!(checkpoint_due(64, 1, 64, payload));
        }
    }

    #[test]
    fn large_payload_waits_for_suffix_bytes() {
        let payload = 4 * SNAPSHOT_CHUNK;
        assert!(!checkpoint_due(64, 0, 64, payload));
        assert!(!checkpoint_due(100_000, payload as u64 - 1, 64, payload));
        assert!(checkpoint_due(100_000, payload as u64, 64, payload));
        // The interval still separates cuts, however many bytes piled up.
        assert!(!checkpoint_due(63, 10 * payload as u64, 64, payload));
    }

    #[test]
    fn capped_suffix_bounds_the_cut() {
        // However large the state, the cap bounds the suffix; `net` checks
        // that the capped suffix plus one chunk fits one frame.
        let payload = 8 * SUFFIX_CAP as usize;
        assert!(!checkpoint_due(1_000_000, SUFFIX_CAP - 1, 64, payload));
        assert!(checkpoint_due(1_000_000, SUFFIX_CAP, 64, payload));
    }

    #[test]
    fn checkpoint_payload_decodes_tuple_encoded_checkpoints() {
        // Logs written before the payload had a name hold this tuple.
        let applied: AppliedSummary = (1..=40).map(|seq| CommandId::new(NodeId(2), seq)).collect();
        let ordered: AppliedSummary =
            [CommandId::new(NodeId(0), BATCH_LANE | 3)].into_iter().collect();
        let backlog = vec![(42, Command::put(CommandId::new(NodeId(1), 9), 5, 6))];
        let cursor = ExecutionCursor::Log { next_execute: 41, next_free: 44, backlog };
        let tuple = (vec![7_u8, 0, 255], applied.clone(), ordered.clone(), cursor.clone());
        let bytes = bincode::serialize(&tuple).expect("tuple encodes");

        let decoded: CheckpointPayload = bincode::deserialize(&bytes).expect("tuple bytes decode");
        let payload = CheckpointPayload { snapshot: vec![7, 0, 255], applied, ordered, cursor };
        assert_eq!(decoded, payload);
        assert_eq!(bincode::serialize(&payload).expect("payload encodes"), bytes);
    }

    /// A process that executes client commands on submission and any
    /// command a peer hands it, so tests choose exactly what gets
    /// delivered.
    struct Deliverer;

    fn deliver(cmd: Command, ctx: &mut Context<'_, Command>) {
        let decision = Decision {
            command: cmd.id(),
            timestamp: Timestamp::ZERO,
            path: DecisionPath::Ordered,
            proposed_at: ctx.now(),
            executed_at: ctx.now(),
            breakdown: LatencyBreakdown::default(),
        };
        ctx.deliver(cmd, decision);
    }

    impl Process for Deliverer {
        type Message = Command;

        fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, Command>) {
            deliver(cmd, ctx);
        }

        fn on_message(&mut self, _: NodeId, cmd: Command, ctx: &mut Context<'_, Command>) {
            deliver(cmd, ctx);
        }
    }

    fn put(origin: u32, seq: u64) -> Command {
        Command::put(CommandId::new(NodeId(origin), seq), seq, seq * 10)
    }

    fn config(id: u32) -> DriverConfig {
        DriverConfig::new(NodeId(id), 3, Arc::new(|_| Box::new(EventLog::new())))
    }

    fn driver(config: DriverConfig) -> ReplicaDriver<Deliverer> {
        let mut driver = ReplicaDriver::new(config, Deliverer);
        driver.on_start(0);
        driver
    }

    fn durable(dir: &TempDir, config: DriverConfig) -> ReplicaDriver<Deliverer> {
        let wal = WalConfig::new(dir.path().to_path_buf()).with_fsync(FsyncPolicy::PerBatch);
        let mut driver =
            ReplicaDriver::new(config, Deliverer).with_wal(wal).expect("wal opens in a temp dir");
        driver.on_start(0);
        driver
    }

    fn poll(driver: &mut ReplicaDriver<Deliverer>, now: SimTime) -> Vec<Action<Command>> {
        driver.poll(now).collect()
    }

    fn replies(actions: &[Action<Command>]) -> Vec<CommandId> {
        actions
            .iter()
            .filter_map(|action| match action {
                Action::Reply(reply) => Some(reply.command),
                _ => None,
            })
            .collect()
    }

    fn aborts(actions: &[Action<Command>]) -> Vec<CommandId> {
        actions
            .iter()
            .filter_map(|action| match action {
                Action::Abort { command, .. } => Some(*command),
                _ => None,
            })
            .collect()
    }

    fn state(driver: &ReplicaDriver<Deliverer>) -> u64 {
        driver.registry().snapshot().gauge("replica.state")
    }

    /// Chunks of `donor`'s answer to a snapshot request from `to`, the
    /// payload split in `parts` pieces.
    fn donation(donor: &mut ReplicaDriver<Deliverer>, to: u32, parts: u32) -> Vec<SnapshotChunk> {
        donor.on_snapshot_request(NodeId(to));
        let donation = donor
            .poll(0)
            .find_map(|action| match action {
                Action::Donate(donation) => Some(donation),
                _ => None,
            })
            .expect("a serving replica donates");
        let size = donation.payload.len().div_ceil(parts as usize);
        (0..parts)
            .map(|seq| {
                let start = (seq as usize * size).min(donation.payload.len());
                let end = (start + size).min(donation.payload.len());
                let last = seq + 1 == parts;
                SnapshotChunk {
                    from: donor.id,
                    applied_through: donation.applied_through,
                    seq,
                    total: parts,
                    bytes: donation.payload[start..end].to_vec(),
                    suffix: if last { donation.suffix.clone() } else { Vec::new() },
                    cursor: if last { donation.cursor.clone() } else { ExecutionCursor::Ids },
                }
            })
            .collect()
    }

    #[test]
    fn redelivered_units_are_dropped_and_their_waiters_aborted() {
        let mut driver = driver(config(0));
        driver.on_client(vec![put(0, 1)], 1);
        assert_eq!(replies(&poll(&mut driver, 1)), vec![CommandId::new(NodeId(0), 1)]);
        // A peer redelivers the same unit: nothing applies, nobody waits.
        driver.on_message(NodeId(1), put(0, 1), 2);
        let actions = poll(&mut driver, 2);
        assert!(replies(&actions).is_empty() && aborts(&actions).is_empty());
        assert_eq!(driver.executor().applied_through(), 1);
        // A client reuses an applied id: its ticket is aborted, not hung.
        driver.on_message(NodeId(1), put(1, 7), 3);
        poll(&mut driver, 3);
        driver.on_client(vec![put(1, 7)], 4);
        let actions = poll(&mut driver, 4);
        assert_eq!(aborts(&actions), vec![CommandId::new(NodeId(1), 7)]);
        assert!(replies(&actions).is_empty());
        assert_eq!(driver.executor().applied_through(), 2);
    }

    #[test]
    fn partly_applied_batches_repack_to_survivors_in_the_log() {
        let dir = TempDir::new("driver-repack").expect("temp dir");
        {
            let mut driver = durable(&dir, config(0));
            driver.on_message(NodeId(1), put(1, 1), 1);
            poll(&mut driver, 1);
            let batch = Command::batch(
                CommandId::new(NodeId(2), BATCH_LANE | 1),
                vec![put(1, 1), put(1, 2)],
            );
            driver.on_message(NodeId(2), batch, 2);
            poll(&mut driver, 2);
            assert_eq!(driver.executor().applied_through(), 2);
        }
        let (_, recovery) = Wal::open(WalConfig::new(dir.path().to_path_buf()), &Registry::new())
            .expect("wal reopens");
        let logged: Vec<Vec<CommandId>> = recovery
            .suffix
            .iter()
            .map(|unit| unit.leaves().iter().map(Command::id).collect())
            .collect();
        assert_eq!(
            logged,
            vec![vec![CommandId::new(NodeId(1), 1)], vec![CommandId::new(NodeId(1), 2)]]
        );
        assert!(recovery.suffix[1].is_batch(), "the survivor keeps its batch unit id");
    }

    #[test]
    fn first_complete_transfer_wins_and_buffered_executions_follow() {
        let mut slow = driver(config(1));
        let mut fast = driver(config(2));
        for donor in [&mut slow, &mut fast] {
            for seq in 1..=3 {
                donor.on_message(NodeId(0), put(0, seq), seq);
                donor.poll(seq).for_each(drop);
            }
        }
        let from_slow = donation(&mut slow, 0, 2);
        let from_fast = donation(&mut fast, 0, 1);

        let mut restarted = driver(DriverConfig { catch_up_timeout: Some(1_000_000), ..config(0) });
        assert!(matches!(poll(&mut restarted, 0).as_slice(), [Action::RequestSnapshots]));
        assert_eq!(state(&restarted), ReplicaState::Restoring as u64);
        // Local executions while restoring: one the transfer covers, one new.
        restarted.on_message(NodeId(1), put(0, 2), 1);
        restarted.on_message(NodeId(1), put(0, 4), 1);
        poll(&mut restarted, 1);
        assert_eq!(restarted.executor().applied_through(), 0, "buffered while restoring");

        restarted.on_chunk(from_slow[0].clone(), 2);
        restarted.on_chunk(from_fast[0].clone(), 2);
        assert_eq!(state(&restarted), ReplicaState::Serving as u64);
        assert_eq!(restarted.registry().snapshot().counter("net.catch_ups_completed"), 1);
        // The late donor's last chunk finds no restore pending.
        restarted.on_chunk(from_slow[1].clone(), 3);
        poll(&mut restarted, 3);
        assert_eq!(restarted.executor().applied_through(), 4, "three donated plus one new");
        assert_eq!(restarted.registry().snapshot().counter("net.catch_ups_completed"), 1);
    }

    #[test]
    fn a_donor_behind_the_disk_watermark_is_refused() {
        let dir = TempDir::new("driver-behind").expect("temp dir");
        {
            let mut before = durable(&dir, config(0));
            for seq in 1..=3 {
                before.on_message(NodeId(1), put(1, seq), seq);
                poll(&mut before, seq);
            }
        }
        let mut donor = driver(config(1));
        donor.on_message(NodeId(0), put(1, 1), 1);
        poll(&mut donor, 1);
        let chunks = donation(&mut donor, 0, 1);

        let mut restarted =
            durable(&dir, DriverConfig { catch_up_timeout: Some(1_000_000), ..config(0) });
        assert_eq!(restarted.executor().applied_through(), 3, "disk first");
        restarted.on_chunk(chunks[0].clone(), 5);
        assert_eq!(restarted.executor().applied_through(), 3);
        assert_eq!(state(&restarted), ReplicaState::Restoring as u64);
        assert_eq!(restarted.registry().snapshot().counter("net.catch_ups_completed"), 0);
    }

    #[test]
    fn an_expired_restore_serves_and_applies_what_it_buffered() {
        let mut restarted = driver(DriverConfig { catch_up_timeout: Some(1_000), ..config(0) });
        restarted.on_message(NodeId(1), put(1, 1), 10);
        poll(&mut restarted, 10);
        restarted.on_client(vec![put(0, 1)], 20);
        assert_eq!(aborts(&poll(&mut restarted, 20)), vec![CommandId::new(NodeId(0), 1)]);
        assert_eq!(restarted.restore_deadline(), Some(1_000));
        poll(&mut restarted, 999);
        assert_eq!(restarted.executor().applied_through(), 0);
        poll(&mut restarted, 1_000);
        assert_eq!(restarted.executor().applied_through(), 1);
        assert_eq!(state(&restarted), ReplicaState::Serving as u64);
        assert_eq!(restarted.restore_deadline(), None);
    }

    #[test]
    fn no_reply_leaves_before_its_round_commits() {
        let dir = TempDir::new("driver-commit").expect("temp dir");
        let mut driver = durable(&dir, config(0));
        let fsyncs = driver.registry().counter("wal.fsyncs");
        let before = fsyncs.get();
        driver.on_client(vec![put(0, 1), put(0, 2)], 1);
        assert_eq!(fsyncs.get(), before, "nothing commits before the poll");
        // Protocol traffic leaves without waiting for the disk.
        let early: Vec<Action<Command>> = driver.poll_transmit().collect();
        assert!(replies(&early).is_empty(), "no reply before the round is applied");
        assert_eq!(fsyncs.get(), before);
        let drained = driver.poll(1);
        // The replies are only reachable through `poll`'s return value, and
        // by then the round is on disk.
        let committed = fsyncs.get();
        let actions: Vec<Action<Command>> = drained.collect();
        assert_eq!(replies(&actions).len(), 2);
        assert!(committed > before, "the round commits before its replies come out");
    }
}
