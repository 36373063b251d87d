//! A real-time, multi-threaded in-process cluster.
//!
//! The discrete-event simulator (`simnet`) measures protocol behaviour in
//! *simulated* time. This crate complements it with a wall-clock runtime: one
//! OS thread per replica, crossbeam channels as links, and per-message delays
//! that inject the configured WAN latency. It exercises the exact same
//! [`simnet::Process`] implementations (CAESAR, EPaxos, …) without any code
//! change, applies every execution to a per-replica key-value store, and
//! serves clients through the runtime-agnostic
//! [`consensus_core::session::ClusterHandle`] API.
//!
//! Latencies are scaled down by a configurable factor so a five-site WAN
//! round trip does not make tests take minutes of wall-clock time.
//!
//! # Example
//!
//! ```
//! use caesar::{CaesarConfig, CaesarReplica};
//! use cluster::{Cluster, ClusterConfig};
//! use consensus_core::session::{ClusterHandle, Op};
//! use consensus_types::NodeId;
//! use simnet::LatencyMatrix;
//!
//! let config = ClusterConfig::new(LatencyMatrix::ec2_five_sites()).with_latency_scale(0.01);
//! let caesar = CaesarConfig::new(5);
//! let cluster = Cluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()));
//! let client = cluster.client(NodeId(0));
//! let reply = client.submit(Op::put(7, 1)).unwrap().wait().unwrap();
//! assert_eq!(reply.node, NodeId(0));
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use consensus_core::batch::{BatchConfig, Batcher};
use consensus_core::exec::Executor;
use consensus_core::session::{
    ClientHandle, ClusterHandle, ParkDrive, Reply, SessionCore, SessionError, SubmitTransport,
    DEFAULT_IN_FLIGHT,
};
use consensus_core::state_machine::StateMachineFactory;
use consensus_types::{Command, Decision, Execution, NodeId, SimTime};
use crossbeam_channel::{unbounded, Receiver, Sender};
use kvstore::KvStore;
use parking_lot::Mutex;
use simnet::{Context, LatencyMatrix, Process};
use telemetry::{Registry, SpanEvent, TracePhase};

/// Configuration of a real-time cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    /// WAN latency matrix (same format as the simulator's).
    pub latency: LatencyMatrix,
    /// Multiplier applied to every latency before sleeping (e.g. `0.01` turns
    /// a 93 ms one-way delay into 0.93 ms so tests stay fast).
    pub latency_scale: f64,
    /// Bound on client-session commands in flight before `submit` pushes
    /// back.
    pub max_in_flight: usize,
    /// Builds each replica's state machine (the `kvstore` reference
    /// implementation by default).
    pub state_machine: StateMachineFactory,
    /// Proposer batching: client commands queued at the same replica
    /// coalesce into one consensus unit. Disabled by default so existing
    /// tests observe one instance per command.
    pub batch: BatchConfig,
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("latency", &self.latency)
            .field("latency_scale", &self.latency_scale)
            .field("max_in_flight", &self.max_in_flight)
            .field("batch", &self.batch)
            .finish_non_exhaustive()
    }
}

impl ClusterConfig {
    /// Creates a configuration with real (unscaled) latencies.
    #[must_use]
    pub fn new(latency: LatencyMatrix) -> Self {
        Self {
            latency,
            latency_scale: 1.0,
            max_in_flight: DEFAULT_IN_FLIGHT,
            state_machine: KvStore::factory(),
            batch: BatchConfig::disabled(),
        }
    }

    /// Enables proposer batching with the given maximum batch size.
    #[must_use]
    pub fn with_batch(mut self, max_batch: usize) -> Self {
        self.batch = BatchConfig { max_batch: max_batch.max(1), ..BatchConfig::default() };
        self
    }

    /// Sets the latency scale factor.
    #[must_use]
    pub fn with_latency_scale(mut self, scale: f64) -> Self {
        self.latency_scale = scale;
        self
    }

    /// Sets the client-session in-flight bound.
    #[must_use]
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = max;
        self
    }

    /// Replaces the per-replica state-machine factory (defaults to the
    /// `kvstore` reference implementation).
    #[must_use]
    pub fn with_state_machine(mut self, factory: StateMachineFactory) -> Self {
        self.state_machine = factory;
        self
    }
}

enum Envelope<M> {
    Message { from: NodeId, msg: M, deliver_at: Instant },
    Client { cmd: Command },
    Shutdown,
}

/// A running cluster of replica threads.
pub struct Cluster<P: Process> {
    senders: Arc<Vec<Sender<Envelope<P::Message>>>>,
    handles: Vec<JoinHandle<()>>,
    decisions: Arc<Mutex<HashMap<NodeId, Vec<Decision>>>>,
    /// One executor per replica, shared with its replica thread so callers
    /// can inspect fingerprints/watermarks.
    executors: Arc<Vec<Executor>>,
    /// Each replica's telemetry registry (`None` for processes that do not
    /// expose one), captured before the process moved into its thread.
    registries: Vec<Option<Arc<Registry>>>,
    session: Arc<SessionCore>,
    started_at: Instant,
}

impl<P> Cluster<P>
where
    P: Process + Send + 'static,
    P::Message: Send + 'static,
{
    /// Spawns one replica thread per node in the latency matrix.
    #[must_use]
    pub fn start(config: ClusterConfig, mut make: impl FnMut(NodeId) -> P) -> Self {
        let nodes = config.latency.nodes();
        let started_at = Instant::now();
        let decisions: Arc<Mutex<HashMap<NodeId, Vec<Decision>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let session = SessionCore::new(config.max_in_flight);
        // Build the processes first so each replica's executor can register
        // its `exec.*` metrics in that replica's own telemetry registry.
        let mut processes = Vec::with_capacity(nodes);
        let mut registries = Vec::with_capacity(nodes);
        for index in 0..nodes {
            let process = make(NodeId::from_index(index));
            registries.push(process.telemetry());
            processes.push(process);
        }
        let executors: Arc<Vec<Executor>> = Arc::new(
            (0..nodes)
                .map(|i| {
                    let registry =
                        registries[i].clone().unwrap_or_else(|| Arc::new(Registry::new()));
                    Executor::new(config.state_machine.clone(), NodeId::from_index(i), 1, &registry)
                })
                .collect(),
        );
        let mut senders = Vec::with_capacity(nodes);
        let mut receivers: Vec<Receiver<Envelope<P::Message>>> = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        let mut handles = Vec::with_capacity(nodes);
        // Span timestamps are recorded against `started_at`; this offset
        // rebases them onto the wall clock when they are drained.
        let wall0 =
            telemetry::wall_clock_us().saturating_sub(started_at.elapsed().as_micros() as u64);
        for (index, (rx, mut process)) in receivers.into_iter().zip(processes).enumerate() {
            let id = NodeId::from_index(index);
            let registry = registries[index].clone();
            let peers = Arc::clone(&senders);
            let latency = config.latency.clone();
            let scale = config.latency_scale;
            let decisions = Arc::clone(&decisions);
            let session = Arc::clone(&session);
            let executors = Arc::clone(&executors);
            let batch = config.batch;
            let started = started_at;
            handles.push(std::thread::spawn(move || {
                let mut replica = ReplicaLoop {
                    id,
                    nodes,
                    rx,
                    peers,
                    latency,
                    scale,
                    decisions,
                    session,
                    started,
                    executors,
                    batch,
                    batcher: Batcher::new(id),
                    stash: VecDeque::new(),
                    timers: Vec::new(),
                    registry,
                    wall0,
                };
                replica.run(&mut process);
            }));
        }
        Self { senders, handles, decisions, executors, registries, session, started_at }
    }

    /// Submits a client command to `node` without waiting for a reply.
    /// Session clients obtained through [`ClusterHandle::client`] additionally
    /// route the reply back when the command executes at `node`.
    pub fn submit(&self, node: NodeId, cmd: Command) {
        let _ = self.senders[node.index()].send(Envelope::Client { cmd });
    }

    /// Decisions executed so far at `node`.
    #[must_use]
    pub fn decisions(&self, node: NodeId) -> Vec<Decision> {
        self.decisions.lock().get(&node).cloned().unwrap_or_default()
    }

    /// Blocks until `node` has executed at least `count` commands or the
    /// timeout elapses; returns whatever has been executed by then.
    #[must_use]
    pub fn wait_for_decisions(
        &self,
        node: NodeId,
        count: usize,
        timeout: Duration,
    ) -> Vec<Decision> {
        let deadline = Instant::now() + timeout;
        loop {
            let current = self.decisions(node);
            if current.len() >= count || Instant::now() >= deadline {
                return current;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The state-machine digest of `node` (see
    /// [`consensus_core::StateMachine::fingerprint`]).
    #[must_use]
    pub fn state_fingerprint(&self, node: NodeId) -> u64 {
        self.executors[node.index()].fingerprint()
    }

    /// Number of commands `node`'s state machine has applied so far.
    #[must_use]
    pub fn applied_through(&self, node: NodeId) -> u64 {
        self.executors[node.index()].applied_through()
    }

    /// The telemetry registry of `node`'s process, if it exposes one
    /// (see [`simnet::Process::telemetry`]). Live — counters advance while
    /// the replica thread runs.
    #[must_use]
    pub fn registry(&self, node: NodeId) -> Option<&Arc<Registry>> {
        self.registries[node.index()].as_ref()
    }

    /// Wall-clock time since the cluster started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// Stops every replica thread, waits for them to exit, and fails any
    /// session tickets still waiting for a reply.
    pub fn shutdown(self) {
        for tx in self.senders.iter() {
            let _ = tx.send(Envelope::Shutdown);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
        self.session.close("cluster shut down");
    }
}

struct ClusterTransport<M> {
    senders: Arc<Vec<Sender<Envelope<M>>>>,
}

impl<M: Send> SubmitTransport for ClusterTransport<M> {
    fn submit(&self, node: NodeId, cmd: Command, _delay_us: u64) -> Result<(), SessionError> {
        self.senders
            .get(node.index())
            .ok_or_else(|| SessionError::Rejected(format!("no replica {node}")))?
            .send(Envelope::Client { cmd })
            .map_err(|_| SessionError::Disconnected(format!("replica {node} is gone")))
    }
}

impl<P> ClusterHandle for Cluster<P>
where
    P: Process + Send + 'static,
    P::Message: Send + 'static,
{
    fn nodes(&self) -> usize {
        self.senders.len()
    }

    fn client(&self, node: NodeId) -> ClientHandle {
        ClientHandle::new(
            node,
            Arc::clone(&self.session),
            Arc::new(ClusterTransport { senders: Arc::clone(&self.senders) }),
            Arc::new(ParkDrive),
        )
    }
}

/// Per-thread replica state: channel plumbing, timer queue, state machine.
struct ReplicaLoop<M> {
    id: NodeId,
    nodes: usize,
    rx: Receiver<Envelope<M>>,
    peers: Arc<Vec<Sender<Envelope<M>>>>,
    latency: LatencyMatrix,
    scale: f64,
    decisions: Arc<Mutex<HashMap<NodeId, Vec<Decision>>>>,
    session: Arc<SessionCore>,
    started: Instant,
    executors: Arc<Vec<Executor>>,
    /// Proposer batching knobs (disabled ⇒ the drain loop never runs).
    batch: BatchConfig,
    /// Allocates this replica's batch-lane unit ids.
    batcher: Batcher,
    /// Non-client envelopes pulled off the channel while draining a batch;
    /// processed before the channel is consulted again.
    stash: VecDeque<Envelope<M>>,
    timers: Vec<(Instant, M)>,
    /// Where drained lifecycle spans land; `None` when the process exposes
    /// no registry (tracing is then skipped entirely).
    registry: Option<Arc<Registry>>,
    /// Wall-clock µs at `started`: rebases span timestamps onto the wall
    /// clock (see [`telemetry::wall_clock_us`]).
    wall0: u64,
}

impl<M: Send> ReplicaLoop<M> {
    fn now_us(&self) -> SimTime {
        self.started.elapsed().as_micros() as SimTime
    }

    fn run<P: Process<Message = M>>(&mut self, process: &mut P) {
        let mut outbox: Vec<(NodeId, M)> = Vec::new();
        let mut new_timers: Vec<(SimTime, M)> = Vec::new();
        let mut executions: Vec<Execution> = Vec::new();
        let mut spans: Vec<SpanEvent> = Vec::new();

        {
            let mut ctx = Context::for_runtime(
                self.id,
                self.nodes,
                self.now_us(),
                &mut outbox,
                &mut new_timers,
                &mut executions,
            )
            .with_spans(&mut spans);
            process.on_start(&mut ctx);
        }
        self.flush(process, &mut outbox, &mut new_timers, &mut executions, &mut spans);

        loop {
            let envelope = match self.stash.pop_front() {
                Some(envelope) => Ok(envelope),
                None => self.rx.recv_timeout(Duration::from_millis(1)),
            };
            match envelope {
                Ok(Envelope::Shutdown) => return,
                Ok(Envelope::Message { from, msg, deliver_at }) => {
                    let wait = deliver_at.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    let mut ctx = Context::for_runtime(
                        self.id,
                        self.nodes,
                        self.now_us(),
                        &mut outbox,
                        &mut new_timers,
                        &mut executions,
                    )
                    .with_spans(&mut spans);
                    process.on_message(from, msg, &mut ctx);
                }
                Ok(Envelope::Client { cmd }) => {
                    // Group commit: fold every client command already queued
                    // on the channel into one consensus unit, amortising the
                    // ordering round trips across the whole batch.
                    let mut queued = vec![cmd];
                    while self.batch.enabled() && queued.len() < self.batch.max_batch {
                        match self.rx.try_recv() {
                            Ok(Envelope::Client { cmd }) => queued.push(cmd),
                            Ok(other) => {
                                self.stash.push_back(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    if queued.len() > 1 {
                        if let Some(registry) = &self.registry {
                            registry.counter("batch.assembled").inc();
                            registry.counter("batch.commands").add(queued.len() as u64);
                        }
                    }
                    let mut ctx = Context::for_runtime(
                        self.id,
                        self.nodes,
                        self.now_us(),
                        &mut outbox,
                        &mut new_timers,
                        &mut executions,
                    )
                    .with_spans(&mut spans);
                    for cmd in &queued {
                        ctx.trace(TracePhase::Submit, cmd.id());
                    }
                    let unit = self.batcher.coalesce(queued);
                    process.on_client_command(unit, &mut ctx);
                }
                Err(_) => {}
            }
            self.flush(process, &mut outbox, &mut new_timers, &mut executions, &mut spans);
        }
    }

    /// Routes buffered sends/timers, fires due timers, and publishes the
    /// executions the callbacks produced.
    fn flush<P: Process<Message = M>>(
        &mut self,
        process: &mut P,
        outbox: &mut Vec<(NodeId, M)>,
        new_timers: &mut Vec<(SimTime, M)>,
        executions: &mut Vec<Execution>,
        spans: &mut Vec<SpanEvent>,
    ) {
        for (to, msg) in outbox.drain(..) {
            let delay_us = (self.latency.one_way(self.id, to) as f64 * self.scale) as u64;
            let deliver_at = Instant::now() + Duration::from_micros(delay_us);
            let _ =
                self.peers[to.index()].send(Envelope::Message { from: self.id, msg, deliver_at });
        }
        for (delay, msg) in new_timers.drain(..) {
            let scaled = Duration::from_micros((delay as f64 * self.scale) as u64);
            self.timers.push((Instant::now() + scaled, msg));
        }
        // Deliver any due timers synchronously (cheap polling model).
        let now = Instant::now();
        let (due, later): (Vec<_>, Vec<_>) = self.timers.drain(..).partition(|(at, _)| *at <= now);
        self.timers = later;
        for (_, msg) in due {
            let mut outbox2 = Vec::new();
            let mut new_timers2 = Vec::new();
            {
                let mut ctx = Context::for_runtime(
                    self.id,
                    self.nodes,
                    self.now_us(),
                    &mut outbox2,
                    &mut new_timers2,
                    executions,
                )
                .with_spans(spans);
                process.on_message(self.id, msg, &mut ctx);
            }
            for (to, msg) in outbox2 {
                let delay_us = (self.latency.one_way(self.id, to) as f64 * self.scale) as u64;
                let deliver_at = Instant::now() + Duration::from_micros(delay_us);
                let _ = self.peers[to.index()].send(Envelope::Message {
                    from: self.id,
                    msg,
                    deliver_at,
                });
            }
            for (delay, msg) in new_timers2 {
                let scaled = Duration::from_micros((delay as f64 * self.scale) as u64);
                self.timers.push((Instant::now() + scaled, msg));
            }
        }
        match &self.registry {
            Some(registry) => {
                for span in spans.iter_mut() {
                    span.at += self.wall0;
                }
                registry.record_spans(spans);
            }
            None => spans.clear(),
        }
        self.publish(executions);
    }

    /// Applies executions to the replica's store, records their decisions,
    /// and answers session clients whose commands were submitted here.
    /// The whole round goes through the executor at once; batched units
    /// unpack here, with each inner command answered individually.
    fn publish(&mut self, executions: &mut Vec<Execution>) {
        if executions.is_empty() {
            return;
        }
        let (units, decisions): (Vec<Command>, Vec<Decision>) =
            executions.drain(..).map(|e| (e.command, e.decision)).unzip();
        let outputs = self.executors[self.id.index()].apply_round(&units);
        let mut runtime_spans: Vec<SpanEvent> = Vec::new();
        let wall_now = telemetry::wall_clock_us();
        for ((unit, decision), leaf_outputs) in units.iter().zip(&decisions).zip(outputs) {
            for (leaf, output) in unit.leaves().iter().zip(leaf_outputs) {
                let id = leaf.id();
                if self.registry.is_some() {
                    runtime_spans.push(SpanEvent {
                        command: id,
                        phase: TracePhase::Execute,
                        at: wall_now,
                        node: self.id,
                    });
                }
                if id.origin() == self.id {
                    if self.registry.is_some() {
                        runtime_spans.push(SpanEvent {
                            command: id,
                            phase: TracePhase::Reply,
                            at: wall_now,
                            node: self.id,
                        });
                    }
                    let mut decision = decision.clone();
                    decision.command = id;
                    self.session.complete(Reply { command: id, node: self.id, output, decision });
                }
            }
        }
        if let Some(registry) = &self.registry {
            registry.record_spans(&mut runtime_spans);
        }
        self.decisions.lock().entry(self.id).or_default().extend(decisions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar::{CaesarConfig, CaesarReplica};
    use consensus_core::session::Op;
    use consensus_types::CommandId;
    use epaxos::{EpaxosConfig, EpaxosReplica};

    #[test]
    fn caesar_cluster_executes_commands_on_real_threads() {
        let config = ClusterConfig::new(LatencyMatrix::ec2_five_sites()).with_latency_scale(0.005);
        let caesar = CaesarConfig::new(5).with_recovery_timeout(None);
        let cluster = Cluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()));
        for i in 0..3u64 {
            cluster.submit(NodeId(0), Command::put(CommandId::new(NodeId(0), i + 1), 7, i));
        }
        let decisions = cluster.wait_for_decisions(NodeId(0), 3, Duration::from_secs(10));
        assert_eq!(decisions.len(), 3);
        cluster.shutdown();
    }

    #[test]
    fn epaxos_cluster_executes_conflicting_commands_consistently() {
        let config = ClusterConfig::new(LatencyMatrix::ec2_five_sites()).with_latency_scale(0.005);
        let epaxos = EpaxosConfig::new(5).with_recovery_timeout(None);
        let cluster = Cluster::start(config, move |id| EpaxosReplica::new(id, epaxos.clone()));
        cluster.submit(NodeId(0), Command::put(CommandId::new(NodeId(0), 1), 7, 1));
        cluster.submit(NodeId(1), Command::put(CommandId::new(NodeId(1), 1), 7, 2));
        let d0 = cluster.wait_for_decisions(NodeId(0), 2, Duration::from_secs(10));
        let d1 = cluster.wait_for_decisions(NodeId(1), 2, Duration::from_secs(10));
        assert_eq!(d0.len(), 2);
        assert_eq!(d1.len(), 2);
        let order0: Vec<CommandId> = d0.iter().map(|d| d.command).collect();
        let order1: Vec<CommandId> = d1.iter().map(|d| d.command).collect();
        assert_eq!(order0, order1, "conflicting commands must execute in the same order");
        cluster.shutdown();
    }

    #[test]
    fn session_clients_submit_and_await_replies() {
        let config = ClusterConfig::new(LatencyMatrix::ec2_five_sites()).with_latency_scale(0.002);
        let caesar = CaesarConfig::new(5).with_recovery_timeout(None);
        let cluster = Cluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()));
        let client = cluster.client(NodeId(2));
        let write = client.submit(Op::put(9, 77)).expect("submits");
        let reply = write.wait().expect("replies");
        assert_eq!(reply.node, NodeId(2));
        // Read-your-writes at the submitting replica.
        let read = client.submit(Op::get(9)).expect("submits").wait().expect("replies");
        assert_eq!(read.output, Some(77));
        cluster.shutdown();
    }

    #[test]
    fn shutdown_fails_outstanding_tickets_instead_of_hanging() {
        // Single-node "cluster" of a 5-replica protocol: no quorum can ever
        // form, so the submitted command cannot complete.
        let config = ClusterConfig::new(LatencyMatrix::uniform(1, 1.0));
        let caesar = CaesarConfig::new(5).with_recovery_timeout(None);
        let cluster = Cluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()));
        let ticket = cluster.client(NodeId(0)).submit(Op::put(1, 1)).expect("submits");
        let waiter = std::thread::spawn(move || ticket.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        cluster.shutdown();
        match waiter.join().expect("waiter thread") {
            Err(SessionError::Disconnected(_)) => {}
            other => panic!("expected a disconnect error, got {other:?}"),
        }
    }
}
