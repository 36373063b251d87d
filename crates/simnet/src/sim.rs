//! The discrete-event simulation engine.
//!
//! The simulator owns one [`ReplicaDriver`] per node and an event heap. The
//! heap carries what the runtime owns — link latency and jitter, FIFO link
//! clocks, per-node CPU occupancy, crash drops and timers — and the drivers
//! do everything else: batching, dedup, apply with per-leaf replies, and
//! checkpoints, the same code the `net` runtime runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use consensus_core::batch::BatchConfig;
use consensus_core::driver::{Action, DriverConfig, ReplicaDriver};
use consensus_core::session::{Reply, SessionCore, SessionError};
use consensus_core::state_machine::StateMachineFactory;
use consensus_types::{Command, Decision, NodeId, SimTime};
use kvstore::KvStore;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use telemetry::{Counter, Gauge, Registry};

use crate::latency::LatencyMatrix;
use crate::Process;

/// Configuration of a simulation run.
#[derive(Clone)]
pub struct SimConfig {
    /// One-way latencies between replicas.
    pub latency: LatencyMatrix,
    /// Maximum uniformly distributed jitter added to every message delivery,
    /// in microseconds (0 disables jitter).
    pub jitter_us: SimTime,
    /// Whether each (src, dst) link delivers messages in FIFO order, as a TCP
    /// connection would. When disabled messages may reorder under jitter.
    pub fifo_links: bool,
    /// Seed for the simulation's random number generator (jitter).
    pub seed: u64,
    /// Hard stop: events scheduled after this time are discarded and `run`
    /// returns. `None` runs until the event queue drains.
    pub horizon: Option<SimTime>,
    /// Proposer batching: client commands queued for the same replica at
    /// the same instant coalesce into one consensus unit. **Disabled by
    /// default** (`max_batch = 1`) so protocol-level tests observe one
    /// instance per command; the session layer and cross-runtime tests opt
    /// in via [`SimConfig::with_batch`].
    pub batch: BatchConfig,
    /// Builds each replica's state machine (the `kvstore` reference
    /// implementation by default); replies carry whatever its `apply`
    /// produces.
    pub state_machine: StateMachineFactory,
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("latency", &self.latency)
            .field("jitter_us", &self.jitter_us)
            .field("fifo_links", &self.fifo_links)
            .field("seed", &self.seed)
            .field("horizon", &self.horizon)
            .field("batch", &self.batch)
            .finish_non_exhaustive()
    }
}

impl SimConfig {
    /// Creates a configuration with the given latency matrix, no jitter,
    /// FIFO links, a fixed default seed, batching disabled and the
    /// `kvstore` state machine.
    #[must_use]
    pub fn new(latency: LatencyMatrix) -> Self {
        Self {
            latency,
            jitter_us: 0,
            fifo_links: true,
            seed: 0xCAE5A7,
            horizon: None,
            batch: BatchConfig::disabled(),
            state_machine: KvStore::factory(),
        }
    }

    /// Enables proposer batching with the given maximum batch size.
    #[must_use]
    pub fn with_batch(mut self, max_batch: usize) -> Self {
        self.batch = BatchConfig { max_batch: max_batch.max(1) };
        self
    }

    /// Installs a custom per-replica state machine: `factory` is called
    /// once per node.
    #[must_use]
    pub fn with_state_machine(mut self, factory: StateMachineFactory) -> Self {
        self.state_machine = factory;
        self
    }

    /// Sets the per-message jitter bound in microseconds.
    #[must_use]
    pub fn with_jitter_us(mut self, jitter: SimTime) -> Self {
        self.jitter_us = jitter;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulation horizon (microseconds).
    #[must_use]
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Disables FIFO ordering on links.
    #[must_use]
    pub fn with_reordering(mut self) -> Self {
        self.fifo_links = false;
        self
    }
}

/// A point-in-time copy of the simulator's run counters.
///
/// The live values are [`telemetry::Registry`] metrics under `sim.*` (see
/// [`Simulator::registry`]); this struct is the plain snapshot
/// [`Simulator::stats`] builds from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total number of protocol messages delivered (excluding self-timers).
    pub messages_delivered: u64,
    /// Total number of self-scheduled timer events fired.
    pub timers_fired: u64,
    /// Total number of client commands injected.
    pub commands_injected: u64,
    /// Number of messages dropped because the destination had crashed.
    pub messages_dropped: u64,
    /// Simulated time of the last processed event.
    pub end_time: SimTime,
}

/// The simulator's registry handles behind [`SimStats`].
#[derive(Debug)]
struct SimCounters {
    messages_delivered: Counter,
    timers_fired: Counter,
    commands_injected: Counter,
    messages_dropped: Counter,
    end_time: Gauge,
}

impl SimCounters {
    fn register(registry: &Registry) -> Self {
        Self {
            messages_delivered: registry.counter("sim.messages_delivered"),
            timers_fired: registry.counter("sim.timers_fired"),
            commands_injected: registry.counter("sim.commands_injected"),
            messages_dropped: registry.counter("sim.messages_dropped"),
            end_time: registry.gauge("sim.end_time_us"),
        }
    }

    fn snapshot(&self) -> SimStats {
        SimStats {
            messages_delivered: self.messages_delivered.get(),
            timers_fired: self.timers_fired.get(),
            commands_injected: self.commands_injected.get(),
            messages_dropped: self.messages_dropped.get(),
            end_time: self.end_time.get(),
        }
    }
}

enum Payload<M> {
    Message { from: NodeId, msg: M },
    Timer { msg: M },
    Client { cmd: Command },
    Crash,
    Recover,
}

struct Event<M> {
    node: NodeId,
    payload: Payload<M>,
}

/// The discrete-event simulator.
///
/// Owns one [`ReplicaDriver`] per replica, an event queue, and the fault
/// state. See the crate-level documentation for an end-to-end example.
pub struct Simulator<P: Process> {
    config: SimConfig,
    drivers: Vec<ReplicaDriver<P>>,
    crashed: Vec<bool>,
    /// CPU availability time per node, used to model processing costs.
    busy_until: Vec<SimTime>,
    /// Last delivery time per (src, dst) link, for FIFO enforcement.
    link_clock: Vec<Vec<SimTime>>,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    events: Vec<Option<Event<P::Message>>>,
    seq: u64,
    now: SimTime,
    rng: ChaCha12Rng,
    /// Every execution each process delivered, recorded *before* the
    /// driver's dedup, so exactly-once checks see a duplicate delivery.
    decisions: Vec<Vec<Decision>>,
    /// The client session replies complete, once a `SimSession` wraps the
    /// simulator; without one, replies are dropped.
    pub(crate) session: Option<Arc<SessionCore>>,
    /// Replies completed through `session`, for closed-loop drivers.
    pub(crate) replies: Vec<Reply>,
    /// Scratch for one step's driver actions.
    actions: Vec<Action<P::Message>>,
    registry: Arc<Registry>,
    stats: SimCounters,
    started: bool,
}

impl<P: Process> Simulator<P> {
    /// Creates a simulator with one replica per node in the latency matrix,
    /// built by the `make` closure.
    pub fn new(config: SimConfig, mut make: impl FnMut(NodeId) -> P) -> Self {
        let n = config.latency.nodes();
        let rng = ChaCha12Rng::seed_from_u64(config.seed);
        let registry = Arc::new(Registry::new());
        let stats = SimCounters::register(&registry);
        let drivers = NodeId::all(n)
            .map(|id| {
                ReplicaDriver::new(DriverConfig::new(id, n, config.state_machine.clone()), make(id))
            })
            .collect();
        Self {
            drivers,
            crashed: vec![false; n],
            busy_until: vec![0; n],
            link_clock: vec![vec![0; n]; n],
            queue: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
            now: 0,
            rng,
            decisions: vec![Vec::new(); n],
            session: None,
            replies: Vec::new(),
            actions: Vec::new(),
            registry,
            stats,
            config,
            started: false,
        }
    }

    /// Number of replicas.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.drivers.len()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to a replica (for inspecting protocol state in tests).
    #[must_use]
    pub fn process(&self, node: NodeId) -> &P {
        self.drivers[node.index()].process()
    }

    /// Mutable access to a replica.
    pub fn process_mut(&mut self, node: NodeId) -> &mut P {
        self.drivers[node.index()].process_mut()
    }

    /// The driver hosting `node`'s replica: its executor (state-machine
    /// watermark, fingerprint, snapshot) and its registry (protocol,
    /// `batch.*`, `exec.*` metrics and the span ring).
    #[must_use]
    pub fn driver(&self, node: NodeId) -> &ReplicaDriver<P> {
        &self.drivers[node.index()]
    }

    /// Whether `node` has crashed.
    #[must_use]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    /// Statistics about the run so far, snapshotted from the registry.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats.snapshot()
    }

    /// The simulator's own telemetry registry (`sim.*` metrics). Each
    /// replica's metrics live in its own registry, reachable through
    /// [`Simulator::driver`].
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The decisions (executed commands) recorded so far at `node`, in
    /// execution order, as the process delivered them (before dedup).
    #[must_use]
    pub fn decisions(&self, node: NodeId) -> &[Decision] {
        &self.decisions[node.index()]
    }

    /// Removes and returns the decisions recorded so far at `node`. Useful
    /// for closed-loop client drivers that react to completions.
    pub fn take_decisions(&mut self, node: NodeId) -> Vec<Decision> {
        std::mem::take(&mut self.decisions[node.index()])
    }

    /// Schedules a client command to be proposed at `node` at simulated time
    /// `at` (microseconds).
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: Command) {
        self.push(at, Event { node, payload: Payload::Client { cmd } });
    }

    /// Schedules a crash of `node` at time `at`. A crashed node stops
    /// processing and emitting messages; in-flight messages to it are dropped.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.push(at, Event { node, payload: Payload::Crash });
    }

    /// Schedules a recovery (restart with retained state) of `node` at `at`.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.push(at, Event { node, payload: Payload::Recover });
    }

    fn push(&mut self, at: SimTime, event: Event<P::Message>) {
        let idx = self.events.len();
        self.events.push(Some(event));
        self.queue.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    fn dispatch_start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in NodeId::all(self.drivers.len()) {
            self.drivers[node.index()].on_start(0);
            self.finish_step(node, 0);
        }
    }

    /// Records what `node`'s process delivered during the step, then polls
    /// its driver and routes the actions: sends and timers become events,
    /// replies and aborts resolve session tickets.
    fn finish_step(&mut self, node: NodeId, at: SimTime) {
        let driver = &mut self.drivers[node.index()];
        let delivered = driver.delivered().iter().map(|execution| execution.decision.clone());
        self.decisions[node.index()].extend(delivered);
        let mut actions = std::mem::take(&mut self.actions);
        actions.extend(driver.poll(at));
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let base = self.config.latency.one_way(node, to);
                    let jitter = if self.config.jitter_us > 0 {
                        self.rng.gen_range(0..=self.config.jitter_us)
                    } else {
                        0
                    };
                    let mut deliver_at = at + base + jitter;
                    if self.config.fifo_links {
                        let clock = &mut self.link_clock[node.index()][to.index()];
                        deliver_at = deliver_at.max(*clock);
                        *clock = deliver_at;
                    }
                    let payload = Payload::Message { from: node, msg };
                    self.push(deliver_at, Event { node: to, payload });
                }
                Action::Timer { delay, msg } => {
                    self.push(at + delay, Event { node, payload: Payload::Timer { msg } });
                }
                Action::Reply(reply) => {
                    if let Some(session) = &self.session {
                        session.complete(reply.clone());
                        self.replies.push(reply);
                    }
                }
                Action::Abort { command, reason } => {
                    if let Some(session) = &self.session {
                        session.fail(command, SessionError::Rejected(reason.to_string()));
                    }
                }
                // Decisions are recorded above, before dedup; simulated
                // replicas never start catching up, so no transfer runs.
                Action::Decisions(_) | Action::Donate(_) | Action::RequestSnapshots => {}
            }
        }
        self.actions = actions;
    }

    /// Runs a single event; returns the time of the processed event, or
    /// `None` when the queue is empty or the horizon has been reached.
    pub fn step(&mut self) -> Option<SimTime> {
        self.dispatch_start();
        loop {
            let Reverse((at, _, idx)) = self.queue.pop()?;
            if let Some(h) = self.config.horizon {
                if at > h {
                    self.queue.clear();
                    return None;
                }
            }
            let event = self.events[idx].take().expect("event consumed twice");
            let node_idx = event.node.index();

            // Crash/recover events are handled immediately regardless of CPU
            // occupancy.
            match &event.payload {
                Payload::Crash => {
                    self.now = at;
                    self.crashed[node_idx] = true;
                    self.stats.end_time.set(at);
                    return Some(at);
                }
                Payload::Recover => {
                    self.now = at;
                    self.crashed[node_idx] = false;
                    self.stats.end_time.set(at);
                    return Some(at);
                }
                _ => {}
            }

            if self.crashed[node_idx] {
                self.stats.messages_dropped.inc();
                continue;
            }

            // Model CPU occupancy: if the node is still busy processing a
            // previous event, push this one back to when it frees up.
            if at < self.busy_until[node_idx] {
                let resume = self.busy_until[node_idx];
                self.events[idx] = Some(event);
                self.queue.push(Reverse((resume, self.seq, idx)));
                self.seq += 1;
                continue;
            }

            self.now = at;
            self.stats.end_time.set(at);

            let driver = &mut self.drivers[node_idx];
            let cost = match event.payload {
                Payload::Message { from, msg } => {
                    self.stats.messages_delivered.inc();
                    let cost = driver.process().processing_cost(&msg);
                    driver.on_message(from, msg, at);
                    cost
                }
                Payload::Timer { msg } => {
                    self.stats.timers_fired.inc();
                    let cost = driver.process().processing_cost(&msg);
                    driver.on_timer(msg, at);
                    cost
                }
                Payload::Client { cmd } => {
                    // Proposer batching: client commands queued for the
                    // same replica at the same instant join this one. Only
                    // exact co-queued commands join (the drain never skips
                    // an event), so simulation determinism is untouched.
                    let mut queued = vec![cmd];
                    while queued.len() < self.config.batch.max_batch {
                        let Some(&Reverse((next_at, _, next_idx))) = self.queue.peek() else {
                            break;
                        };
                        let co_queued = next_at == at
                            && matches!(
                                self.events[next_idx].as_ref(),
                                Some(Event { node, payload: Payload::Client { .. } })
                                    if *node == event.node
                            );
                        if !co_queued {
                            break;
                        }
                        self.queue.pop();
                        let Some(Event { payload: Payload::Client { cmd }, .. }) =
                            self.events[next_idx].take()
                        else {
                            unreachable!("co-queued client event vanished");
                        };
                        queued.push(cmd);
                    }
                    self.stats.commands_injected.add(queued.len() as u64);
                    let cost = driver.process().client_processing_cost(&queued[0]);
                    driver.on_client(queued, at);
                    cost
                }
                Payload::Crash | Payload::Recover => unreachable!("handled above"),
            };
            self.busy_until[node_idx] = at + cost;
            self.finish_step(event.node, at);
            return Some(at);
        }
    }

    /// Runs until the event queue is empty or the horizon is reached, and
    /// returns the statistics of the run.
    pub fn run(&mut self) -> SimStats {
        while self.step().is_some() {}
        self.stats.snapshot()
    }

    /// Runs until simulated time reaches `until` (or the queue drains).
    pub fn run_until(&mut self, until: SimTime) -> SimStats {
        self.dispatch_start();
        while let Some(&Reverse((at, _, _))) = self.queue.peek() {
            if at > until {
                break;
            }
            if self.step().is_none() {
                break;
            }
        }
        self.now = self.now.max(until.min(self.config.horizon.unwrap_or(until)));
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Context;
    use consensus_types::{CommandId, DecisionPath, LatencyBreakdown, Timestamp};

    /// A protocol where node 0 pings every other node and counts replies; any
    /// node "executes" a command as soon as it receives it.
    #[derive(Debug, Default)]
    struct PingPong {
        pings_seen: u32,
        pongs_seen: u32,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Msg {
        Ping,
        Pong,
        Tick,
    }

    impl Process for PingPong {
        type Message = Msg;

        fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, Msg>) {
            ctx.broadcast_others(Msg::Ping);
            ctx.schedule_self(1_000, Msg::Tick);
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

        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => self.pongs_seen += 1,
                Msg::Tick => {}
            }
        }
    }

    fn cmd(seq: u64) -> Command {
        Command::put(CommandId::new(NodeId(0), seq), seq, 0)
    }

    #[test]
    fn messages_are_delivered_after_one_way_latency() {
        let config = SimConfig::new(LatencyMatrix::uniform(3, 20.0));
        let mut sim = Simulator::new(config, |_| PingPong::default());
        sim.schedule_command(0, NodeId(0), cmd(1));
        sim.run();

        // Node 0 broadcast a ping to 1 and 2; both replied.
        assert_eq!(sim.process(NodeId(1)).pings_seen, 1);
        assert_eq!(sim.process(NodeId(2)).pings_seen, 1);
        assert_eq!(sim.process(NodeId(0)).pongs_seen, 2);
        // Ping takes 10 ms, pong takes 10 ms; plus processing costs.
        assert!(sim.stats().end_time >= 20_000);
        assert!(sim.stats().end_time < 25_000);
    }

    #[test]
    fn decisions_are_recorded_per_node() {
        let config = SimConfig::new(LatencyMatrix::uniform(2, 10.0));
        let mut sim = Simulator::new(config, |_| PingPong::default());
        sim.schedule_command(0, NodeId(0), cmd(1));
        sim.schedule_command(5, NodeId(1), cmd(2));
        sim.run();
        assert_eq!(sim.decisions(NodeId(0)).len(), 1);
        assert_eq!(sim.decisions(NodeId(1)).len(), 1);
        assert_eq!(sim.take_decisions(NodeId(0)).len(), 1);
        assert!(sim.decisions(NodeId(0)).is_empty());
    }

    #[test]
    fn crashed_nodes_drop_incoming_messages() {
        let config = SimConfig::new(LatencyMatrix::uniform(3, 20.0));
        let mut sim = Simulator::new(config, |_| PingPong::default());
        sim.schedule_crash(0, NodeId(2));
        sim.schedule_command(10, NodeId(0), cmd(1));
        sim.run();
        assert_eq!(sim.process(NodeId(2)).pings_seen, 0);
        assert_eq!(sim.process(NodeId(0)).pongs_seen, 1);
        assert!(sim.stats().messages_dropped >= 1);
        assert!(sim.is_crashed(NodeId(2)));
    }

    #[test]
    fn horizon_stops_the_run() {
        let config = SimConfig::new(LatencyMatrix::uniform(2, 50.0)).with_horizon(10_000);
        let mut sim = Simulator::new(config, |_| PingPong::default());
        sim.schedule_command(0, NodeId(0), cmd(1));
        sim.run();
        assert!(sim.stats().end_time <= 10_000);
        // The ping (25 ms away) was never delivered.
        assert_eq!(sim.process(NodeId(1)).pings_seen, 0);
    }

    #[test]
    fn fifo_links_preserve_order_under_jitter() {
        #[derive(Debug, Default)]
        struct Recorder {
            seen: Vec<u64>,
        }
        impl Process for Recorder {
            type Message = u64;
            fn on_client_command(&mut self, _: Command, ctx: &mut Context<'_, u64>) {
                for i in 0..50 {
                    ctx.send(NodeId(1), i);
                }
            }
            fn on_message(&mut self, _: NodeId, msg: u64, _: &mut Context<'_, u64>) {
                self.seen.push(msg);
            }
        }

        let config = SimConfig::new(LatencyMatrix::uniform(2, 10.0)).with_jitter_us(5_000);
        let mut sim = Simulator::new(config, |_| Recorder::default());
        sim.schedule_command(0, NodeId(0), cmd(1));
        sim.run();
        let seen = &sim.process(NodeId(1)).seen;
        assert_eq!(seen.len(), 50);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "FIFO link must preserve send order");
    }

    #[test]
    fn jitter_is_deterministic_for_a_fixed_seed() {
        let run = |seed: u64| {
            let config = SimConfig::new(LatencyMatrix::uniform(3, 20.0))
                .with_jitter_us(3_000)
                .with_seed(seed);
            let mut sim = Simulator::new(config, |_| PingPong::default());
            sim.schedule_command(0, NodeId(0), cmd(1));
            sim.run().end_time
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn processing_cost_serializes_a_node() {
        #[derive(Debug, Default)]
        struct Slow {
            handled: Vec<SimTime>,
        }
        impl Process for Slow {
            type Message = u8;
            fn on_client_command(&mut self, _: Command, ctx: &mut Context<'_, u8>) {
                for _ in 0..3 {
                    ctx.send(NodeId(1), 0);
                }
            }
            fn on_message(&mut self, _: NodeId, _: u8, ctx: &mut Context<'_, u8>) {
                self.handled.push(ctx.now());
            }
            fn processing_cost(&self, _: &u8) -> SimTime {
                1_000
            }
        }

        let config = SimConfig::new(LatencyMatrix::uniform(2, 10.0));
        let mut sim = Simulator::new(config, |_| Slow::default());
        sim.schedule_command(0, NodeId(0), cmd(1));
        sim.run();
        let times = &sim.process(NodeId(1)).handled;
        assert_eq!(times.len(), 3);
        assert!(times[1] >= times[0] + 1_000);
        assert!(times[2] >= times[1] + 1_000);
    }

    #[test]
    fn co_queued_client_commands_coalesce_into_one_batch() {
        let config = SimConfig::new(LatencyMatrix::uniform(2, 10.0)).with_batch(8);
        let mut sim = Simulator::new(config, |_| PingPong::default());
        for seq in 1..=3 {
            sim.schedule_command(0, NodeId(0), cmd(seq));
        }
        sim.run();

        // One decision for the batch unit, but all three submissions counted.
        assert_eq!(sim.decisions(NodeId(0)).len(), 1);
        assert_eq!(sim.stats().commands_injected, 3);
        // Batching is the replica's: its driver counts into its registry.
        let snapshot = sim.driver(NodeId(0)).registry().snapshot();
        assert_eq!(snapshot.counter("batch.assembled"), 1);
        assert_eq!(snapshot.counter("batch.commands"), 3);
    }

    #[test]
    fn batching_disabled_keeps_commands_separate() {
        let config = SimConfig::new(LatencyMatrix::uniform(2, 10.0));
        let mut sim = Simulator::new(config, |_| PingPong::default());
        for seq in 1..=3 {
            sim.schedule_command(0, NodeId(0), cmd(seq));
        }
        sim.run();
        assert_eq!(sim.decisions(NodeId(0)).len(), 3);
        assert_eq!(sim.driver(NodeId(0)).registry().snapshot().counter("batch.assembled"), 0);
    }

    #[test]
    fn run_until_advances_to_requested_time() {
        let config = SimConfig::new(LatencyMatrix::uniform(2, 10.0));
        let mut sim = Simulator::new(config, |_| PingPong::default());
        sim.schedule_command(0, NodeId(0), cmd(1));
        sim.schedule_command(100_000, NodeId(0), cmd(2));
        sim.run_until(50_000);
        assert_eq!(sim.decisions(NodeId(0)).len(), 1);
        sim.run_until(200_000);
        assert_eq!(sim.decisions(NodeId(0)).len(), 2);
    }
}
