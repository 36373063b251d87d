//! Orchestration of an N-replica cluster over loopback TCP.
//!
//! [`NetCluster`] is the socket-runtime analogue of `cluster::Cluster` and
//! the simulator: it spawns one [`NetReplica`] per node on an OS-assigned
//! loopback port, distributes the address book, opens one *client*
//! connection per replica, and subscribes to every replica's decision stream
//! so tests and examples can assert on delivery orders observed **over the
//! wire** — not through shared memory.
//!
//! It also implements the runtime-agnostic
//! [`consensus_core::session::ClusterHandle`]: session clients submit
//! [`WireMessage::ClientRequest`] frames and receive
//! [`Event::ClientReply`] frames on the same connection, exactly like a
//! fully external process would (see [`crate::ReplicaClient`]).

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use consensus_core::batch::BatchConfig;
use consensus_core::session::{
    ClientHandle, ClusterHandle, ParkDrive, Reply, SessionCore, SessionError, SubmitTransport,
    DEFAULT_IN_FLIGHT,
};
use consensus_core::state_machine::StateMachineFactory;
use consensus_types::{Command, Decision, NodeId};
use kvstore::KvStore;
use simnet::Process;
use wal::FsyncPolicy;

use crate::replica::{DelayShim, NetReplica, NetReplicaConfig, NetReplicaStats};
use crate::wire::{send_msg, Event, FrameReader, WireMessage};

/// Configuration of a socket-backed cluster.
#[derive(Clone)]
pub struct NetConfig {
    /// Number of replicas to spawn.
    pub nodes: usize,
    /// Optional artificial WAN delay applied to every replica's outbound
    /// frames (and self-deliveries), emulating the paper's EC2 matrix.
    pub delay: Option<DelayShim>,
    /// Multiplier mapping `SimTime` protocol timeouts onto wall-clock time.
    pub timer_scale: f64,
    /// Bound on client-session commands in flight before `submit` pushes
    /// back.
    pub max_in_flight: usize,
    /// Builds each replica's state machine (the `kvstore` reference
    /// implementation by default). A restarted replica gets a **fresh**
    /// machine from this factory and fills it through snapshot catch-up.
    pub state_machine: StateMachineFactory,
    /// Per-replica minimum checkpoint cadence (applied units between
    /// snapshot cuts); see `NetReplicaConfig::checkpoint_interval`.
    pub checkpoint_interval: u64,
    /// How long a restarted replica waits for a complete snapshot transfer
    /// before serving with empty state.
    pub catch_up_timeout: Duration,
    /// Root directory for per-replica write-ahead logs: replica *i* logs
    /// into `<root>/replica-<i>`. When set, every replica appends decided
    /// commands durably and recovers disk-first on restart — which is what
    /// makes [`NetCluster::power_cycle`] (stop *everything*, restart from
    /// data dirs, zero live donors) possible. `None` keeps the cluster
    /// memory-only.
    pub data_dir: Option<PathBuf>,
    /// Fsync policy for the write-ahead logs (per-record, per-batch, or
    /// interval); only consulted when [`NetConfig::data_dir`] is set.
    pub fsync: FsyncPolicy,
    /// Proposer batching knobs, forwarded to every replica (see
    /// [`NetReplicaConfig::batch`]). Disabled by default.
    pub batch: BatchConfig,
}

impl std::fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetConfig")
            .field("nodes", &self.nodes)
            .field("delay", &self.delay)
            .field("timer_scale", &self.timer_scale)
            .field("max_in_flight", &self.max_in_flight)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("catch_up_timeout", &self.catch_up_timeout)
            .field("data_dir", &self.data_dir)
            .field("fsync", &self.fsync)
            .field("batch", &self.batch)
            .finish_non_exhaustive()
    }
}

impl NetConfig {
    /// A loopback cluster with no artificial delay and real-time timers.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            delay: None,
            timer_scale: 1.0,
            max_in_flight: DEFAULT_IN_FLIGHT,
            state_machine: KvStore::factory(),
            checkpoint_interval: 64,
            catch_up_timeout: Duration::from_secs(10),
            data_dir: None,
            fsync: FsyncPolicy::PerBatch,
            batch: BatchConfig::disabled(),
        }
    }

    /// Enables proposer batching with the given maximum batch size.
    #[must_use]
    pub fn with_batch(mut self, max_batch: usize) -> Self {
        self.batch = BatchConfig { max_batch: max_batch.max(1), ..BatchConfig::default() };
        self
    }

    /// Installs an artificial-delay shim.
    #[must_use]
    pub fn with_delay(mut self, delay: DelayShim) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Sets the timer scale factor.
    #[must_use]
    pub fn with_timer_scale(mut self, scale: f64) -> Self {
        self.timer_scale = scale;
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

    /// Sets the minimum checkpoint cadence (applied units between snapshot
    /// cuts; large states also wait for the suffix to catch up in bytes).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Gives every replica a durable write-ahead log under
    /// `<root>/replica-<i>` (see [`NetConfig::data_dir`]).
    #[must_use]
    pub fn with_data_dir(mut self, root: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(root.into());
        self
    }

    /// Sets the write-ahead-log fsync policy (per-batch by default).
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// The write-ahead-log directory of replica `node`, if the cluster is
    /// durable.
    #[must_use]
    pub fn replica_data_dir(&self, node: NodeId) -> Option<PathBuf> {
        self.data_dir.as_ref().map(|root| root.join(format!("replica-{}", node.index())))
    }
}

/// A per-replica client connection: the write half submits commands, a
/// background reader collects decision events and routes client replies.
struct ClientLink {
    writer: Mutex<TcpStream>,
}

/// A running cluster of socket-backed replicas.
pub struct NetCluster<P: Process> {
    replicas: Vec<NetReplica<P>>,
    links: Arc<Vec<ClientLink>>,
    decisions: Arc<Mutex<HashMap<NodeId, Vec<Decision>>>>,
    session: Arc<SessionCore>,
    /// One decision-stream reader thread per node (slot replaced on
    /// restart, after the previous incarnation's reader was joined).
    readers: Vec<Option<JoinHandle<()>>>,
    reader_stop: Arc<AtomicBool>,
    /// Per-replica down markers: set by [`NetCluster::stop_replica`],
    /// cleared by [`NetCluster::restart_replica`]. Session submissions to a
    /// marked replica fail immediately instead of writing into a dead
    /// socket's buffer and hanging until the ticket timeout.
    down: Arc<Vec<AtomicBool>>,
    started_at: Instant,
    config: NetConfig,
}

impl<P> NetCluster<P>
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
{
    /// Spawns `config.nodes` replicas on loopback, links them, and connects
    /// a submission/subscription client to each.
    pub fn start(config: NetConfig, mut make: impl FnMut(NodeId) -> P) -> io::Result<Self> {
        let epoch = Instant::now();
        // Phase 1: bind every listener so the address book is complete.
        let mut replicas = Vec::with_capacity(config.nodes);
        for index in 0..config.nodes {
            let id = NodeId::from_index(index);
            let mut replica_config = NetReplicaConfig::loopback(id, config.nodes);
            replica_config.delay = config.delay.clone();
            replica_config.timer_scale = config.timer_scale;
            replica_config.epoch = epoch;
            replica_config.state_machine = Arc::clone(&config.state_machine);
            replica_config.checkpoint_interval = config.checkpoint_interval;
            replica_config.catch_up_timeout = config.catch_up_timeout;
            replica_config.data_dir =
                config.data_dir.as_ref().map(|root| root.join(format!("replica-{index}")));
            replica_config.fsync = config.fsync.clone();
            replica_config.batch = config.batch;
            replicas.push(NetReplica::spawn(replica_config, make(id))?);
        }
        let addrs: Vec<SocketAddr> = replicas.iter().map(NetReplica::local_addr).collect();
        // Phase 2: hand out the address book; peer links dial lazily.
        for replica in &mut replicas {
            replica.start(addrs.clone());
        }
        // Phase 3: one client connection per replica, subscribed before
        // `start` returns so no decision can precede registration.
        let decisions: Arc<Mutex<HashMap<NodeId, Vec<Decision>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let session = SessionCore::new(config.max_in_flight);
        let reader_stop = Arc::new(AtomicBool::new(false));
        let down = Arc::new((0..config.nodes).map(|_| AtomicBool::new(false)).collect::<Vec<_>>());
        let mut links = Vec::with_capacity(config.nodes);
        let mut readers = Vec::with_capacity(config.nodes);
        for (index, replica) in replicas.iter().enumerate() {
            let node = NodeId::from_index(index);
            let writer = subscribe(replica)?;
            let read_half = writer.try_clone()?;
            let sink = Arc::clone(&decisions);
            let stop = Arc::clone(&reader_stop);
            let session = Arc::clone(&session);
            readers.push(Some(std::thread::spawn(move || {
                client_reader(read_half, node, &sink, &session, &stop);
            })));
            links.push(ClientLink { writer: Mutex::new(writer) });
        }
        Ok(Self {
            replicas,
            links: Arc::new(links),
            decisions,
            session,
            readers,
            reader_stop,
            down,
            started_at: epoch,
            config,
        })
    }

    /// Submits a client command to `node` over its TCP client connection,
    /// without waiting for a reply. Session clients obtained through
    /// [`ClusterHandle::client`] additionally route the reply back.
    pub fn submit(&self, node: NodeId, cmd: Command) -> io::Result<()> {
        let link = &self.links[node.index()];
        let mut writer = link.writer.lock().expect("client writer lock");
        send_msg(&mut *writer, &WireMessage::<P::Message>::Client { cmd })
    }

    /// Decisions received from `node`'s decision stream so far, in the order
    /// that replica executed them.
    #[must_use]
    pub fn decisions(&self, node: NodeId) -> Vec<Decision> {
        self.decisions.lock().expect("decision map lock").get(&node).cloned().unwrap_or_default()
    }

    /// Blocks until `node` has reported at least `count` executed commands or
    /// the timeout elapses; returns whatever has been reported by then.
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

    /// Waits until **every** replica has reported at least `count` executed
    /// commands (or the timeout elapses) and returns the per-node decision
    /// vectors indexed by node.
    #[must_use]
    pub fn wait_for_all(&self, count: usize, timeout: Duration) -> Vec<Vec<Decision>> {
        let deadline = Instant::now() + timeout;
        (0..self.replicas.len())
            .map(|index| {
                let node = NodeId::from_index(index);
                let remaining = deadline.saturating_duration_since(Instant::now());
                self.wait_for_decisions(node, count, remaining)
            })
            .collect()
    }

    /// Number of replicas in the cluster.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.replicas.len()
    }

    /// The listen address of `node` (loopback, OS-assigned port). External
    /// clients ([`crate::ReplicaClient`]) connect here.
    #[must_use]
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.replicas[node.index()].local_addr()
    }

    /// Requests shutdown of a single replica without stopping the cluster —
    /// for tests that take a node down mid-run. The replica aborts its
    /// pending client requests as it exits.
    pub fn stop_replica(&self, node: NodeId) {
        self.down[node.index()].store(true, Ordering::SeqCst);
        self.replicas[node.index()].request_shutdown();
    }

    /// Restarts a stopped replica **on its original address** with a fresh
    /// process instance, re-links it into the cluster, and re-establishes
    /// the orchestrator's client connection and decision subscription.
    ///
    /// The listener binds with `SO_REUSEADDR`, so lingering `TIME_WAIT`
    /// connections from the replica's previous life do not block the
    /// rebind; surviving peers re-dial the address automatically through
    /// their event loops' reconnect backoff. Decisions the replica reports
    /// after the restart append to the same per-node decision stream.
    pub fn restart_replica(&mut self, node: NodeId, process: P) -> io::Result<()> {
        let index = node.index();
        // Make sure the previous incarnation is fully down (port released),
        // **including its decision-stream reader**: the old reader fails
        // this node's pending session tickets when its connection dies, and
        // joining it here guarantees that happens before any ticket is
        // submitted against the restarted replica — a late `fail_node`
        // must not shoot down fresh, healthy submissions.
        self.replicas[index].stop();
        if let Some(reader) = self.readers[index].take() {
            let _ = reader.join();
        }
        // The new incarnation re-reports everything its snapshot transfer
        // covers on the decision stream (restore completion publishes a
        // synthesized batch); reset this node's sink so the stream shows
        // the new incarnation's history exactly once instead of appending
        // duplicates of the decisions the previous life already streamed.
        self.decisions.lock().expect("decision map lock").insert(node, Vec::new());
        let addrs: Vec<SocketAddr> = self.replicas.iter().map(NetReplica::local_addr).collect();

        let mut replica_config = NetReplicaConfig::loopback(node, self.replicas.len());
        replica_config.bind = addrs[index];
        replica_config.delay = self.config.delay.clone();
        replica_config.timer_scale = self.config.timer_scale;
        replica_config.epoch = self.started_at;
        replica_config.state_machine = Arc::clone(&self.config.state_machine);
        replica_config.checkpoint_interval = self.config.checkpoint_interval;
        replica_config.catch_up_timeout = self.config.catch_up_timeout;
        // With a data dir the incarnation replays its own write-ahead log
        // first (disk-first recovery); without one it starts empty. Either
        // way it also requests snapshot transfer from live peers — the
        // hybrid path: disk provides the pre-crash prefix, a donor provides
        // whatever was decided during the downtime (a donor offering less
        // than disk already recovered is ignored).
        replica_config.data_dir = self.config.replica_data_dir(node);
        replica_config.fsync = self.config.fsync.clone();
        replica_config.batch = self.config.batch;
        replica_config.catch_up = true;
        let mut replica = NetReplica::spawn(replica_config, process)?;

        // Fresh client connection + subscription, registered **before** the
        // core loop starts: the restore's synthesized decision batch is
        // published the moment a snapshot transfer completes.
        let writer = subscribe(&replica)?;
        replica.start(addrs.clone());
        self.replicas[index] = replica;

        // A new reader resumes the decision stream into this node's sink.
        let read_half = writer.try_clone()?;
        let sink = Arc::clone(&self.decisions);
        let stop = Arc::clone(&self.reader_stop);
        let session = Arc::clone(&self.session);
        self.readers[index] = Some(std::thread::spawn(move || {
            client_reader(read_half, node, &sink, &session, &stop);
        }));
        *self.links[index].writer.lock().expect("client writer lock") = writer;
        self.down[index].store(false, Ordering::SeqCst);
        Ok(())
    }

    /// Stops **every** replica, then restarts the whole cluster from its
    /// write-ahead logs — a full power cycle with zero live donors.
    ///
    /// Unlike [`NetCluster::restart_replica`], the fresh incarnations do
    /// *not* request snapshot transfer: while all replicas restart together
    /// there is nobody to donate, so each one serves straight from its own
    /// disk-first recovery (latest durable checkpoint + logged suffix +
    /// cursor marks). Pre-crash reads work again as soon as the protocols
    /// re-form a quorum. The cluster should be quiesced (every replica at
    /// the same watermark) before cycling: a command some replicas executed
    /// and others never saw has no live donor to close the gap afterwards —
    /// see `docs/DURABILITY.md`.
    ///
    /// Session sequence counters survive the cycle, so clients keep
    /// submitting fresh command ids. Decision sinks are reset the same way
    /// a single restart resets them: each recovered replica re-reports its
    /// disk-covered history once, as a synthesized batch.
    pub fn power_cycle(&mut self, mut make: impl FnMut(NodeId) -> P) -> io::Result<()> {
        let addrs: Vec<SocketAddr> = self.replicas.iter().map(NetReplica::local_addr).collect();
        // Take everything down: mark nodes down (fail-fast submissions),
        // stop every replica, and join every reader so stale `fail_node`
        // calls land before any new ticket exists.
        for index in 0..self.replicas.len() {
            self.down[index].store(true, Ordering::SeqCst);
            self.replicas[index].stop();
        }
        for reader in self.readers.iter_mut() {
            if let Some(handle) = reader.take() {
                let _ = handle.join();
            }
        }
        {
            let mut sinks = self.decisions.lock().expect("decision map lock");
            for index in 0..addrs.len() {
                sinks.insert(NodeId::from_index(index), Vec::new());
            }
        }
        // Bind every listener first (original addresses; SO_REUSEADDR
        // clears TIME_WAIT), so the address book is valid before any core
        // loop starts dialing.
        let mut fresh = Vec::with_capacity(addrs.len());
        for (index, &addr) in addrs.iter().enumerate() {
            let node = NodeId::from_index(index);
            let mut replica_config = NetReplicaConfig::loopback(node, addrs.len());
            replica_config.bind = addr;
            replica_config.delay = self.config.delay.clone();
            replica_config.timer_scale = self.config.timer_scale;
            replica_config.epoch = self.started_at;
            replica_config.state_machine = Arc::clone(&self.config.state_machine);
            replica_config.checkpoint_interval = self.config.checkpoint_interval;
            replica_config.catch_up_timeout = self.config.catch_up_timeout;
            replica_config.data_dir = self.config.replica_data_dir(node);
            replica_config.fsync = self.config.fsync.clone();
            replica_config.batch = self.config.batch;
            replica_config.catch_up = false; // no live donor exists
            fresh.push(NetReplica::spawn(replica_config, make(node))?);
        }
        // Subscribe before starting each core loop: disk recovery publishes
        // its synthesized decision batch immediately.
        let writers = fresh.iter().map(subscribe).collect::<io::Result<Vec<_>>>()?;
        for replica in &mut fresh {
            replica.start(addrs.clone());
        }
        self.replicas = fresh;
        for (index, writer) in writers.into_iter().enumerate() {
            let node = NodeId::from_index(index);
            let read_half = writer.try_clone()?;
            let sink = Arc::clone(&self.decisions);
            let stop = Arc::clone(&self.reader_stop);
            let session = Arc::clone(&self.session);
            self.readers[index] = Some(std::thread::spawn(move || {
                client_reader(read_half, node, &sink, &session, &stop);
            }));
            *self.links[index].writer.lock().expect("client writer lock") = writer;
            self.down[index].store(false, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Total OS threads across all replicas — constant (two per replica:
    /// event loop + core loop) no matter how many clients are connected.
    #[must_use]
    pub fn replica_threads(&self) -> usize {
        self.replicas.iter().map(NetReplica::thread_count).sum()
    }

    /// Total frames sent/received/dropped across all replicas.
    #[must_use]
    pub fn transport_totals(&self) -> (u64, u64, u64) {
        let mut sent = 0;
        let mut received = 0;
        let mut dropped = 0;
        for replica in &self.replicas {
            let stats = replica.stats();
            sent += stats.frames_sent.get();
            received += stats.frames_received.get();
            dropped += stats.frames_dropped.get();
        }
        (sent, received, dropped)
    }

    /// Total batched peer writes across all replicas (each flushes every
    /// frame due at one writer wakeup with a single write call).
    #[must_use]
    pub fn batches_flushed(&self) -> u64 {
        self.replicas.iter().map(|replica| replica.stats().batches_flushed.get()).sum()
    }

    /// The live transport counters of `node`'s current incarnation (reset
    /// on restart).
    #[must_use]
    pub fn replica_stats(&self, node: NodeId) -> &Arc<NetReplicaStats> {
        self.replicas[node.index()].stats()
    }

    /// The telemetry registry of `node`'s current incarnation: protocol
    /// counters, `net.*` transport counters, and the span ring — the same
    /// data a live [`crate::scrape_stats`] of that replica returns.
    #[must_use]
    pub fn replica_registry(&self, node: NodeId) -> &Arc<telemetry::Registry> {
        self.replicas[node.index()].registry()
    }

    /// Total `writev` scatter-gather flushes (two or more frames leaving in
    /// one syscall) across all replicas.
    #[must_use]
    pub fn writev_flushes(&self) -> u64 {
        self.replicas.iter().map(|replica| replica.stats().writev_flushes.get()).sum()
    }

    /// The state-machine digest of `node` (see
    /// [`consensus_core::StateMachine::fingerprint`]).
    #[must_use]
    pub fn state_fingerprint(&self, node: NodeId) -> u64 {
        self.replicas[node.index()].state_fingerprint()
    }

    /// Number of commands `node`'s state machine has applied so far
    /// (including commands replayed through snapshot catch-up).
    #[must_use]
    pub fn applied_through(&self, node: NodeId) -> u64 {
        self.replicas[node.index()].applied_through()
    }

    /// Blocks until `node`'s state machine has applied at least `target`
    /// commands or the timeout elapses; returns the watermark reached.
    pub fn wait_for_applied(&self, node: NodeId, target: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        loop {
            let applied = self.applied_through(node);
            if applied >= target || Instant::now() >= deadline {
                return applied;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wall-clock time since the cluster started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// Stops every replica, joins all cluster threads, and fails any session
    /// tickets still waiting for a reply.
    pub fn shutdown(self) {
        for link in self.links.iter() {
            let mut writer = link.writer.lock().expect("client writer lock");
            let _ = send_msg(&mut *writer, &WireMessage::<P::Message>::Shutdown);
        }
        for replica in self.replicas {
            replica.shutdown();
        }
        self.reader_stop.store(true, Ordering::SeqCst);
        drop(self.links); // closes client sockets; readers see EOF
        for reader in self.readers.into_iter().flatten() {
            let _ = reader.join();
        }
        self.session.close("cluster shut down");
    }
}

/// Session transport: submissions travel as `ClientRequest` frames over the
/// per-replica client connection, exactly like an external TCP client.
struct NetTransport<M> {
    links: Arc<Vec<ClientLink>>,
    down: Arc<Vec<AtomicBool>>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M> SubmitTransport for NetTransport<M>
where
    M: serde::Serialize + Send + 'static,
{
    fn submit(&self, node: NodeId, cmd: Command, _delay_us: u64) -> Result<(), SessionError> {
        let link = self
            .links
            .get(node.index())
            .ok_or_else(|| SessionError::Rejected(format!("no replica {node}")))?;
        // Fail fast on a replica the orchestrator took down: a write into
        // the dead connection's kernel buffer would "succeed" and leave the
        // ticket hanging until its timeout.
        if self.down.get(node.index()).is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            return Err(SessionError::Disconnected(format!(
                "replica {node} is down (stopped by the orchestrator)"
            )));
        }
        let mut writer = link.writer.lock().expect("client writer lock");
        send_msg(&mut *writer, &WireMessage::<M>::ClientRequest { cmd })
            .map_err(|err| SessionError::Disconnected(format!("submit to {node} failed: {err}")))
    }
}

impl<P> ClusterHandle for NetCluster<P>
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
{
    fn nodes(&self) -> usize {
        self.replicas.len()
    }

    fn client(&self, node: NodeId) -> ClientHandle {
        ClientHandle::new(
            node,
            Arc::clone(&self.session),
            Arc::new(NetTransport::<P::Message> {
                links: Arc::clone(&self.links),
                down: Arc::clone(&self.down),
                _marker: std::marker::PhantomData,
            }),
            Arc::new(ParkDrive),
        )
    }
}

/// Opens a client connection to `replica` and subscribes it to the decision
/// stream, returning only once the replica's event loop has registered the
/// subscription. A replica publishes decisions only while it has
/// subscribers, so a command executed before registration would never
/// reach the stream and a waiter on it would time out.
fn subscribe<P>(replica: &NetReplica<P>) -> io::Result<TcpStream>
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
{
    let mut writer = connect_with_retry(replica.local_addr(), Duration::from_secs(5))?;
    writer.set_nodelay(true)?;
    let before = replica.subscribers();
    send_msg(&mut writer, &WireMessage::<P::Message>::Subscribe)?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while replica.subscribers() <= before {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "replica did not register the decision subscription",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(writer)
}

/// Dials `addr` until it accepts or `timeout` elapses (a restarted replica's
/// listener is bound before `spawn` returns, but the dial can still race the
/// kernel's accept queue under load).
fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(err) if Instant::now() >= deadline => return Err(err),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn client_reader(
    mut stream: TcpStream,
    node: NodeId,
    sink: &Arc<Mutex<HashMap<NodeId, Vec<Decision>>>>,
    session: &Arc<SessionCore>,
    stop: &Arc<AtomicBool>,
) {
    // Timeout-tolerant decoding: a read timeout mid-frame must not lose the
    // partial bytes (see wire::FrameReader).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut decoder = FrameReader::new();
    loop {
        match decoder.read_msg::<_, Event>(&mut stream) {
            Ok(Some(Event::Decisions { from, batch })) => {
                sink.lock().expect("decision map lock").entry(from).or_default().extend(batch);
            }
            Ok(Some(Event::ClientReply { from, command, output, decision })) => {
                session.complete(Reply { command, node: from, output, decision });
            }
            Ok(Some(Event::ClientAbort { command, reason, .. })) => {
                session.fail(command, SessionError::Disconnected(reason));
            }
            // Stats scrapes run over their own connections; a reply here
            // is unsolicited and carries nothing this reader needs.
            Ok(Some(Event::StatsReply { .. })) => {}
            Ok(None) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => {
                // The link died: every command submitted to this replica and
                // still pending will never be answered over it.
                session.fail_node(node, "client connection to the replica was lost");
                return;
            }
        }
    }
}
