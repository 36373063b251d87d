//! The [`Process`] trait implemented by every replica, and the [`Context`]
//! handle it uses to act on its runtime.
//!
//! Every protocol crate implements [`Process`] once; the
//! [`ReplicaDriver`](crate::driver::ReplicaDriver) hosts it and builds the
//! contexts, for the `simnet` simulator and the `net` TCP runtime alike
//! (`simnet` re-exports both names).

use std::sync::Arc;

use consensus_types::{
    Command, Decision, Execution, ExecutionCursor, NodeId, SimTime, StateTransfer,
};
use telemetry::{Registry, SpanEvent, TracePhase};

/// Actions a process can take while handling an event. The driver hands a
/// fresh `Context` to every callback and turns the buffered actions into
/// runtime actions when the step ends; executed commands pushed through
/// [`Context::deliver`] are applied to the replica's state machine and
/// answer the clients waiting on them.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) me: NodeId,
    pub(crate) nodes: usize,
    pub(crate) now: SimTime,
    pub(crate) outbox: &'a mut Vec<(NodeId, M)>,
    pub(crate) timers: &'a mut Vec<(SimTime, M)>,
    pub(crate) executions: &'a mut Vec<Execution>,
    /// Scratch buffer for command-lifecycle span events, when the caller
    /// collects traces. `None` means [`Context::trace`] is a no-op.
    pub(crate) spans: Option<&'a mut Vec<SpanEvent>>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context over caller-owned buffers. The
    /// [`ReplicaDriver`](crate::driver::ReplicaDriver) builds the contexts
    /// both runtimes use, so this is for protocol unit tests that call a
    /// process directly. Tracing is off; chain [`Context::with_spans`] to
    /// collect span events.
    pub fn for_runtime(
        me: NodeId,
        nodes: usize,
        now: SimTime,
        outbox: &'a mut Vec<(NodeId, M)>,
        timers: &'a mut Vec<(SimTime, M)>,
        executions: &'a mut Vec<Execution>,
    ) -> Self {
        Self { me, nodes, now, outbox, timers, executions, spans: None }
    }

    /// Routes [`Context::trace`] calls into `spans`. The driver drains the
    /// buffer into the replica's [`telemetry::Registry`] span ring when the
    /// step ends (normalizing timestamps onto its cluster clock).
    #[must_use]
    pub fn with_spans(mut self, spans: &'a mut Vec<SpanEvent>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The id of the replica handling the current event.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Total number of replicas in the cluster.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Current time in microseconds: simulated time under `simnet`, time
    /// since the cluster epoch under `net`.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`; it will be delivered after the configured one-way
    /// latency (plus jitter).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends `msg` to every replica, **including the sender** (the paper's
    /// leaders broadcast to all `p_j ∈ Π`; the local copy is delivered after
    /// the loopback latency).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.nodes {
            self.outbox.push((NodeId::from_index(i), msg.clone()));
        }
    }

    /// Sends `msg` to every replica except the sender.
    pub fn broadcast_others(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.nodes {
            let to = NodeId::from_index(i);
            if to != self.me {
                self.outbox.push((to, msg.clone()));
            }
        }
    }

    /// Delivers `msg` back to this replica after `delay` microseconds.
    /// Protocols use this for timeouts (fast-quorum timeouts, failure
    /// detection, batching windows).
    pub fn schedule_self(&mut self, delay: SimTime, msg: M) {
        self.timers.push((delay, msg));
    }

    /// Pushes an executed command to the runtime, in execution order.
    ///
    /// Protocols call this at the moment a command runs against the state
    /// machine; the runtime applies the payload to its key-value store,
    /// answers any client session waiting on the command, and records the
    /// decision. This replaces the old poll-based `drain_decisions`.
    pub fn deliver(&mut self, command: Command, decision: Decision) {
        self.executions.push(Execution { command, decision });
    }

    /// Records a command-lifecycle span event at the current time.
    ///
    /// Protocols call this at their consensus milestones (propose, quorum,
    /// commit, retry, recovery); it is a buffered push when the runtime is
    /// tracing and free otherwise.
    pub fn trace(&mut self, phase: TracePhase, command: consensus_types::CommandId) {
        let (me, now) = (self.me, self.now);
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.push(SpanEvent { command, phase, at: now, node: me });
        }
    }
}

/// A replica's protocol logic.
///
/// Protocol crates implement this trait once per protocol; a
/// [`ReplicaDriver`](crate::driver::ReplicaDriver) owns one value per node
/// and drives it with messages, timers and client commands. Executed
/// commands are pushed through [`Context::deliver`].
pub trait Process {
    /// The protocol's message type. Timer payloads use the same type
    /// (timeouts are modelled as messages a replica schedules to itself).
    type Message: Clone + std::fmt::Debug;

    /// Called once before the replica handles its first event.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when a client submits a command to this replica, making it the
    /// command's leader.
    fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, Self::Message>);

    /// Called when a message from `from` is delivered (also used for
    /// self-scheduled timeouts, in which case `from == ctx.me()`).
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// The protocol's execution resume point, captured by the runtime when
    /// it cuts a checkpoint (and again when it donates one): everything a
    /// restarted peer needs to fast-forward its execution gate past the
    /// state the snapshot covers. Dependency-tracked protocols (CAESAR,
    /// EPaxos) keep the default — their applied-id summary is the whole
    /// resume point — while slot-based protocols (Multi-Paxos, Mencius,
    /// M²Paxos) return their slot cursors plus the decided-but-unexecuted
    /// backlog.
    fn execution_cursor(&self) -> ExecutionCursor {
        ExecutionCursor::Ids
    }

    /// Called after the runtime installed a state-machine snapshot (state
    /// transfer into a restarted replica). `transfer.applied` is the
    /// (floor-compacted) set of command ids whose effects the restored
    /// state already covers, and `transfer.cursor` is the donor's
    /// [`Process::execution_cursor`].
    ///
    /// Protocols that gate execution on per-command dependencies (CAESAR's
    /// predecessor sets, EPaxos's dependency graph) must count the covered
    /// ids as executed, or later commands that list them as dependencies
    /// wait forever. Slot-based protocols (Multi-Paxos, Mencius, M²Paxos)
    /// must fast-forward their execution cursor to the transferred one and
    /// install the decided backlog, or they stall at their slot gap
    /// forever. Commands that become deliverable as a result flow through
    /// [`Context::deliver`] like any other execution (the runtime
    /// deduplicates anything the transfer already covered).
    fn on_state_transfer(
        &mut self,
        transfer: &StateTransfer,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        let _ = (transfer, ctx);
    }

    /// Simulated CPU cost, in microseconds, of handling `msg`. The simulator
    /// serializes message handling per node using this cost, which is what
    /// makes throughput saturate as offered load grows (Figures 8 and 9).
    fn processing_cost(&self, msg: &Self::Message) -> SimTime {
        let _ = msg;
        5
    }

    /// Simulated CPU cost of handling a client command submission.
    fn client_processing_cost(&self, cmd: &Command) -> SimTime {
        let _ = cmd;
        5
    }

    /// The replica's telemetry registry, if it keeps one.
    ///
    /// Protocols that register their metrics in a [`telemetry::Registry`]
    /// expose it here so the runtime hosting the replica can route span
    /// events into its ring and serve stats scrapes (the `net` runtime's
    /// `StatsRequest`). The default is `None`: an uninstrumented process
    /// still runs everywhere, it just has nothing to report.
    fn telemetry(&self) -> Option<Arc<Registry>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_types::{CommandId, DecisionPath, LatencyBreakdown, Timestamp};

    #[test]
    fn context_buffers_sends_timers_and_executions() {
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut executions = Vec::new();
        let mut ctx: Context<'_, u32> = Context {
            me: NodeId(1),
            nodes: 3,
            now: 42,
            outbox: &mut outbox,
            timers: &mut timers,
            executions: &mut executions,
            spans: None,
        };

        assert_eq!(ctx.me(), NodeId(1));
        assert_eq!(ctx.nodes(), 3);
        assert_eq!(ctx.now(), 42);

        ctx.send(NodeId(2), 7);
        ctx.broadcast(9);
        ctx.broadcast_others(11);
        ctx.schedule_self(100, 13);
        let cmd = Command::put(CommandId::new(NodeId(1), 1), 7, 1);
        ctx.deliver(
            cmd.clone(),
            Decision {
                command: cmd.id(),
                timestamp: Timestamp::ZERO,
                path: DecisionPath::Ordered,
                proposed_at: 0,
                executed_at: 42,
                breakdown: LatencyBreakdown::default(),
            },
        );

        assert_eq!(outbox.len(), 1 + 3 + 2);
        assert_eq!(outbox[0], (NodeId(2), 7));
        assert!(outbox[1..4].iter().all(|(_, m)| *m == 9));
        assert!(outbox[4..].iter().all(|(to, m)| *m == 11 && *to != NodeId(1)));
        assert_eq!(timers, vec![(100, 13)]);
        assert_eq!(executions.len(), 1);
        assert_eq!(executions[0].command, cmd);
        assert_eq!(executions[0].decision.executed_at, 42);
    }

    #[test]
    fn trace_is_a_noop_without_spans_and_buffers_with_them() {
        let mut outbox: Vec<(NodeId, u32)> = Vec::new();
        let mut timers = Vec::new();
        let mut executions = Vec::new();
        let id = CommandId::new(NodeId(1), 9);

        {
            let mut quiet =
                Context::for_runtime(NodeId(1), 3, 42, &mut outbox, &mut timers, &mut executions);
            quiet.trace(TracePhase::Propose, id);
        }

        let mut spans = Vec::new();
        {
            let mut traced =
                Context::for_runtime(NodeId(1), 3, 42, &mut outbox, &mut timers, &mut executions)
                    .with_spans(&mut spans);
            traced.trace(TracePhase::Propose, id);
            traced.trace(TracePhase::Commit, id);
        }
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0],
            SpanEvent { command: id, phase: TracePhase::Propose, at: 42, node: NodeId(1) }
        );
        assert_eq!(spans[1].phase, TracePhase::Commit);
    }
}
