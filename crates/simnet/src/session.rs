//! [`SimSession`]: the simulator behind the runtime-agnostic client session
//! API.
//!
//! A `SimSession` wraps a [`Simulator`] and implements [`ClusterHandle`] so
//! the same submit/await client code drives the discrete-event simulator
//! and the TCP runtime. Each replica's driver applies what it executes to
//! its own state machine (built by [`crate::SimConfig::state_machine`]) and
//! answers the commands submitted to it; the simulator hands those replies
//! to the session's waiter table.
//! Submissions are scheduled at the current simulated time;
//! [`consensus_core::session::Ticket::wait`] advances simulated time until
//! the command executes at the submitting replica and then returns the
//! [`Reply`] (including the state-machine output, so reads observe the
//! submitting replica's state).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use consensus_core::session::{
    ClientHandle, ClusterHandle, Drive, Reply, SessionCore, SessionError, SubmitTransport, Waiter,
    DEFAULT_IN_FLIGHT,
};
use consensus_types::{Command, CommandId, Decision, NodeId, SimTime};

use crate::sim::{SimStats, Simulator};
use crate::Process;

struct Shared<P: Process> {
    sim: Mutex<Simulator<P>>,
    core: Arc<SessionCore>,
}

/// A [`Simulator`] wrapped for client sessions. See the module docs.
pub struct SimSession<P: Process> {
    shared: Arc<Shared<P>>,
}

impl<P> Clone for SimSession<P>
where
    P: Process,
{
    fn clone(&self) -> Self {
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<P> SimSession<P>
where
    P: Process + Send + 'static,
    P::Message: Send,
{
    /// Wraps `sim` with the default in-flight bound.
    #[must_use]
    pub fn new(sim: Simulator<P>) -> Self {
        Self::with_capacity(sim, DEFAULT_IN_FLIGHT)
    }

    /// Wraps `sim`, allowing at most `capacity` commands in flight.
    #[must_use]
    pub fn with_capacity(mut sim: Simulator<P>, capacity: usize) -> Self {
        let core = SessionCore::new(capacity);
        sim.session = Some(Arc::clone(&core));
        Self { shared: Arc::new(Shared { sim: Mutex::new(sim), core }) }
    }

    /// The session's waiter table (shared with every [`ClientHandle`]).
    #[must_use]
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.shared.core
    }

    fn lock(&self) -> MutexGuard<'_, Simulator<P>> {
        self.shared.sim.lock().expect("simulation lock")
    }

    /// Runs one simulation event; returns its simulated time, or `None`
    /// when the queue drained.
    pub fn step(&self) -> Option<SimTime> {
        self.lock().step()
    }

    /// Runs until the event queue is empty (all submitted work finished).
    pub fn run(&self) -> SimStats {
        self.lock().run()
    }

    /// Runs until simulated time reaches `until` (or the queue drains).
    pub fn run_until(&self, until: SimTime) -> SimStats {
        self.lock().run_until(until)
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.lock().now()
    }

    /// Whether `node` has crashed.
    #[must_use]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.lock().is_crashed(node)
    }

    /// Drains the replies produced at submitting replicas since the last
    /// call (in production order). Closed-loop drivers use this instead of
    /// holding one ticket per in-flight command.
    #[must_use]
    pub fn take_replies(&self) -> Vec<Reply> {
        std::mem::take(&mut self.lock().replies)
    }

    /// The decisions executed at `node` so far, in execution order.
    #[must_use]
    pub fn decisions(&self, node: NodeId) -> Vec<Decision> {
        self.lock().decisions(node).to_vec()
    }

    /// The state-machine digest of `node` (see
    /// [`consensus_core::StateMachine::fingerprint`]); replicas that applied
    /// the same command history report equal fingerprints.
    #[must_use]
    pub fn state_fingerprint(&self, node: NodeId) -> u64 {
        self.lock().driver(node).executor().fingerprint()
    }

    /// Number of commands `node`'s state machine has applied so far.
    #[must_use]
    pub fn applied_through(&self, node: NodeId) -> u64 {
        self.lock().driver(node).executor().applied_through()
    }

    /// A serialized snapshot of `node`'s state machine (see
    /// [`consensus_core::StateMachine::snapshot`]).
    #[must_use]
    pub fn state_snapshot(&self, node: NodeId) -> Vec<u8> {
        self.lock().driver(node).executor().snapshot()
    }

    /// Runs `f` against the wrapped simulator (metrics inspection, crash
    /// scheduling, raw command injection).
    pub fn with_sim<R>(&self, f: impl FnOnce(&mut Simulator<P>) -> R) -> R {
        f(&mut self.lock())
    }
}

struct SimTransport<P: Process> {
    shared: Arc<Shared<P>>,
}

impl<P> SubmitTransport for SimTransport<P>
where
    P: Process + Send + 'static,
    P::Message: Send,
{
    fn submit(&self, node: NodeId, cmd: Command, delay_us: u64) -> Result<(), SessionError> {
        let mut sim = self.shared.sim.lock().expect("simulation lock");
        if sim.is_crashed(node) {
            return Err(SessionError::Disconnected(format!("replica {node} has crashed")));
        }
        let at = sim.now() + delay_us;
        sim.schedule_command(at, node, cmd);
        Ok(())
    }
}

struct SimDrive<P: Process> {
    shared: Arc<Shared<P>>,
}

impl<P> Drive for SimDrive<P>
where
    P: Process + Send + 'static,
    P::Message: Send,
{
    fn drive(&self, command: CommandId, waiter: &Waiter, slice: Duration) {
        // Honour the wall-clock slice so `Ticket::wait_timeout` can expire:
        // a command stuck forever (e.g. quorum lost while recovery timers
        // keep re-arming) would otherwise spin here holding the simulation
        // lock and make `SessionError::Timeout` unreachable.
        let deadline = std::time::Instant::now() + slice;
        let mut sim = self.shared.sim.lock().expect("simulation lock");
        loop {
            if waiter.is_resolved() {
                return;
            }
            if sim.step().is_none() {
                drop(sim);
                self.shared.core.fail(
                    command,
                    SessionError::Disconnected(
                        "simulation event queue drained before the reply".to_string(),
                    ),
                );
                return;
            }
            if std::time::Instant::now() >= deadline {
                return;
            }
        }
    }
}

impl<P> ClusterHandle for SimSession<P>
where
    P: Process + Send + 'static,
    P::Message: Send,
{
    fn nodes(&self) -> usize {
        self.lock().node_count()
    }

    fn client(&self, node: NodeId) -> ClientHandle {
        ClientHandle::new(
            node,
            Arc::clone(&self.shared.core),
            Arc::new(SimTransport { shared: Arc::clone(&self.shared) }),
            Arc::new(SimDrive { shared: Arc::clone(&self.shared) }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyMatrix;
    use crate::sim::SimConfig;
    use crate::Context;
    use consensus_core::session::Op;
    use consensus_types::{DecisionPath, LatencyBreakdown, Timestamp};

    /// Echo "protocol": executes every command locally as soon as the
    /// loopback broadcast returns to the proposer, then tells the others.
    #[derive(Debug, Default)]
    struct Echo;

    #[derive(Debug, Clone)]
    enum EchoMsg {
        Execute(Command, SimTime),
    }

    impl Process for Echo {
        type Message = EchoMsg;

        fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, EchoMsg>) {
            ctx.broadcast(EchoMsg::Execute(cmd, ctx.now()));
        }

        fn on_message(&mut self, _: NodeId, msg: EchoMsg, ctx: &mut Context<'_, EchoMsg>) {
            let EchoMsg::Execute(cmd, proposed_at) = msg;
            let decision = Decision {
                command: cmd.id(),
                timestamp: Timestamp::ZERO,
                path: DecisionPath::Ordered,
                proposed_at,
                executed_at: ctx.now(),
                breakdown: LatencyBreakdown::default(),
            };
            ctx.deliver(cmd, decision);
        }
    }

    fn session() -> SimSession<Echo> {
        let config = SimConfig::new(LatencyMatrix::uniform(3, 10.0));
        SimSession::new(Simulator::new(config, |_| Echo))
    }

    #[test]
    fn ticket_wait_advances_simulated_time_to_the_reply() {
        let session = session();
        let client = session.client(NodeId(0));
        let ticket = client.submit(Op::put(7, 41)).expect("submits");
        let reply = ticket.wait().expect("replies");
        assert_eq!(reply.node, NodeId(0));
        assert_eq!(reply.output, None, "first write of the key");
        assert!(session.now() > 0, "the loopback latency must have elapsed");
        // Read-your-writes at the submitting replica.
        let read = client.submit(Op::get(7)).expect("submits").wait().expect("replies");
        assert_eq!(read.output, Some(41));
    }

    #[test]
    fn replies_resolve_to_an_error_when_the_simulation_drains() {
        let session = session();
        session.with_sim(|sim| sim.schedule_crash(0, NodeId(1)));
        let ticket = session.client(NodeId(1)).submit(Op::put(1, 1));
        // The submission may be refused up front (crash already processed) or
        // fail once the queue drains — either way, no hang.
        match ticket {
            Err(SessionError::Disconnected(_)) => {}
            Ok(ticket) => match ticket.wait_timeout(Duration::from_secs(5)) {
                Err(SessionError::Disconnected(_)) => {}
                other => panic!("expected disconnect, got {other:?}"),
            },
            Err(other) => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn stores_stay_identical_across_replicas() {
        let session = session();
        let client = session.client(NodeId(2));
        for i in 0..5 {
            client.submit(Op::put(i, i * 10)).expect("submits").wait().expect("replies");
        }
        session.run();
        let reference = session.state_fingerprint(NodeId(0));
        for node in NodeId::all(3) {
            assert_eq!(session.state_fingerprint(node), reference);
            assert_eq!(session.applied_through(node), 5);
        }
    }

    #[test]
    fn custom_state_machines_plug_into_the_session() {
        use consensus_core::state_machine::EventLog;
        let config = SimConfig::new(LatencyMatrix::uniform(3, 10.0))
            .with_state_machine(Arc::new(|_| Box::new(EventLog::new())));
        let session = SimSession::new(Simulator::new(config, |_| Echo));
        let client = session.client(NodeId(0));
        // The event log answers every command with its 1-based log position,
        // not the key-value semantics — proof the runtime is generic.
        for expected in 1..=3u64 {
            let reply = client.submit(Op::put(7, expected)).expect("submits").wait().expect("ok");
            assert_eq!(reply.output, Some(expected));
        }
        assert_eq!(session.applied_through(NodeId(0)), 3);
    }
}
