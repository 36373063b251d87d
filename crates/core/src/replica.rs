//! The CAESAR replica: command leader, acceptor and recovery logic.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use consensus_types::{
    Ballot, Command, CommandId, Decision, DecisionPath, LatencyBreakdown, NodeId, SimTime,
    StateTransfer, Timestamp,
};
use simnet::{Context, Process};
use telemetry::{Registry, TracePhase};

use crate::clock::LogicalClock;
use crate::config::CaesarConfig;
use crate::delivery::DeliveryEngine;
use crate::history::{CmdStatus, History};
use crate::messages::{CaesarMessage, ProposalKind, RecoveryInfo};
use crate::metrics::{CaesarCounters, CaesarMetrics};

type Pred = BTreeSet<CommandId>;

/// Phases of the command-leader state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaderPhase {
    FastProposal,
    SlowProposal,
    Retry,
}

/// State a replica keeps for every command it is currently leading; dropped
/// once the command is stable (see `CaesarReplica::finish_stable`).
#[derive(Debug)]
struct LeaderState {
    cmd: Command,
    ballot: Ballot,
    time: Timestamp,
    phase: LeaderPhase,
    /// One reply per acceptor for the current phase: (timestamp, pred, ok).
    replies: HashMap<NodeId, (Timestamp, Pred, bool)>,
    /// Predecessors accumulated across phases.
    pred: Pred,
    proposed_at: SimTime,
    phase_started_at: SimTime,
    propose_time: SimTime,
    retry_time: SimTime,
    timeout_fired: bool,
    from_recovery: bool,
}

/// Bookkeeping about commands this replica led, used to fill [`Decision`]s.
#[derive(Debug, Clone)]
struct LedRecord {
    proposed_at: SimTime,
    path: DecisionPath,
    propose_time: SimTime,
    retry_time: SimTime,
}

/// A proposal reply held back by the wait condition.
#[derive(Debug)]
struct ParkedProposal {
    cmd: Command,
    ballot: Ballot,
    time: Timestamp,
    kind: ProposalKind,
    leader: NodeId,
    whitelist: Option<Pred>,
    leader_pred: Pred,
    parked_at: SimTime,
}

/// In-flight recovery this replica is coordinating for a command.
#[derive(Debug)]
struct RecoveryState {
    ballot: Ballot,
    replies: HashMap<NodeId, Option<RecoveryInfo>>,
}

/// A CAESAR replica. Implements [`simnet::Process`]; one instance per node.
///
/// See the crate-level documentation for an end-to-end example.
pub struct CaesarReplica {
    id: NodeId,
    config: CaesarConfig,
    clock: LogicalClock,
    history: History,
    delivery: DeliveryEngine,
    leading: HashMap<CommandId, LeaderState>,
    led: HashMap<CommandId, LedRecord>,
    parked: HashMap<CommandId, ParkedProposal>,
    parked_by_blocker: HashMap<CommandId, HashSet<CommandId>>,
    ballots: HashMap<CommandId, Ballot>,
    recovery_timer_set: HashSet<CommandId>,
    recovery_attempts: HashMap<CommandId, u32>,
    recovering: HashMap<CommandId, RecoveryState>,
    stable_seen_at: HashMap<CommandId, SimTime>,
    registry: Arc<Registry>,
    metrics: CaesarCounters,
}

impl std::fmt::Debug for CaesarReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaesarReplica")
            .field("id", &self.id)
            .field("history_len", &self.history.len())
            .field("leading", &self.leading.len())
            .field("parked", &self.parked.len())
            .field("executed", &self.delivery.executed_count())
            .finish()
    }
}

impl CaesarReplica {
    /// Creates a replica with the given node id and configuration.
    #[must_use]
    pub fn new(id: NodeId, config: CaesarConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = CaesarCounters::register(&registry);
        Self {
            id,
            clock: LogicalClock::new(id),
            history: History::new(config.executed_retention_per_key),
            delivery: DeliveryEngine::new(),
            leading: HashMap::new(),
            led: HashMap::new(),
            parked: HashMap::new(),
            parked_by_blocker: HashMap::new(),
            ballots: HashMap::new(),
            recovery_timer_set: HashSet::new(),
            recovery_attempts: HashMap::new(),
            recovering: HashMap::new(),
            stable_seen_at: HashMap::new(),
            registry,
            metrics,
            config,
        }
    }

    /// This replica's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// A snapshot of the protocol counters collected so far. The live
    /// values are registry metrics, reachable by name through
    /// [`Process::telemetry`].
    #[must_use]
    pub fn metrics(&self) -> CaesarMetrics {
        self.metrics.snapshot()
    }

    /// The replica's history `H_i` (for tests and debugging).
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Number of commands executed locally.
    #[must_use]
    pub fn executed_count(&self) -> usize {
        self.delivery.executed_count()
    }

    /// Number of proposals currently parked by the wait condition.
    #[must_use]
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    // ------------------------------------------------------------------
    // Ballot bookkeeping
    // ------------------------------------------------------------------

    fn current_ballot(&self, cmd_id: CommandId) -> Ballot {
        self.ballots.get(&cmd_id).copied().unwrap_or_else(|| Ballot::initial(cmd_id.origin()))
    }

    /// Acceptor-side ballot gate: accept messages carrying a ballot at least
    /// as recent as the one promised, and remember the ballot.
    fn admit_ballot(&mut self, cmd_id: CommandId, ballot: Ballot) -> bool {
        let current = self.ballots.get(&cmd_id).copied();
        match current {
            Some(b) if ballot < b => false,
            _ => {
                self.ballots.insert(cmd_id, ballot);
                true
            }
        }
    }

    fn is_stable_locally(&self, cmd_id: CommandId) -> bool {
        self.history.get(cmd_id).is_some_and(|info| info.status == CmdStatus::Stable)
    }

    fn maybe_schedule_recovery_timer(
        &mut self,
        cmd_id: CommandId,
        leader: NodeId,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let Some(timeout) = self.config.recovery_timeout else { return };
        if leader == self.id || self.recovery_timer_set.contains(&cmd_id) {
            return;
        }
        self.recovery_timer_set.insert(cmd_id);
        // Stagger takeovers by node id so that replicas do not duel.
        let stagger = (self.id.index() as SimTime) * (timeout / 10).max(10_000);
        ctx.schedule_self(timeout + stagger, CaesarMessage::RecoveryTimeout { cmd_id });
    }

    // ------------------------------------------------------------------
    // Leader side
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn start_fast_proposal(
        &mut self,
        cmd: Command,
        ballot: Ballot,
        time: Timestamp,
        whitelist: Option<Pred>,
        from_recovery: bool,
        proposed_at: SimTime,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let cmd_id = cmd.id();
        self.ballots.insert(cmd_id, ballot);
        self.leading.insert(
            cmd_id,
            LeaderState {
                cmd: cmd.clone(),
                ballot,
                time,
                phase: LeaderPhase::FastProposal,
                replies: HashMap::new(),
                pred: Pred::new(),
                proposed_at,
                phase_started_at: ctx.now(),
                propose_time: 0,
                retry_time: 0,
                timeout_fired: false,
                from_recovery,
            },
        );
        ctx.trace(TracePhase::Propose, cmd_id);
        ctx.broadcast(CaesarMessage::FastPropose { ballot, cmd, time, whitelist });
        ctx.schedule_self(
            self.config.fast_quorum_timeout,
            CaesarMessage::FastQuorumTimeout { cmd_id, ballot },
        );
    }

    fn start_slow_proposal(&mut self, cmd_id: CommandId, ctx: &mut Context<'_, CaesarMessage>) {
        let Some(state) = self.leading.get_mut(&cmd_id) else { return };
        state.phase = LeaderPhase::SlowProposal;
        state.replies.clear();
        // Slow proposals are counted at stability (decisions.slow).
        let msg = CaesarMessage::SlowPropose {
            ballot: state.ballot,
            cmd: state.cmd.clone(),
            time: state.time,
            pred: state.pred.clone(),
        };
        ctx.broadcast(msg);
    }

    fn start_retry(&mut self, cmd_id: CommandId, ctx: &mut Context<'_, CaesarMessage>) {
        let now = ctx.now();
        let Some(state) = self.leading.get_mut(&cmd_id) else { return };
        state.propose_time += now.saturating_sub(state.phase_started_at);
        state.phase_started_at = now;
        state.phase = LeaderPhase::Retry;
        state.replies.clear();
        ctx.trace(TracePhase::Retry, cmd_id);
        self.clock.observe(state.time);
        let msg = CaesarMessage::Retry {
            ballot: state.ballot,
            cmd: state.cmd.clone(),
            time: state.time,
            pred: state.pred.clone(),
        };
        ctx.broadcast(msg);
    }

    fn finish_stable(
        &mut self,
        cmd_id: CommandId,
        path: DecisionPath,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let now = ctx.now();
        // The decision is final: nothing reads the leader state (quorum
        // replies, their predecessor sets, the command) after this, so it
        // leaves `leading` here instead of lingering for the replica's life.
        let Some(mut state) = self.leading.remove(&cmd_id) else { return };
        ctx.trace(TracePhase::QuorumReached, cmd_id);
        match state.phase {
            LeaderPhase::Retry => state.retry_time += now.saturating_sub(state.phase_started_at),
            _ => state.propose_time += now.saturating_sub(state.phase_started_at),
        }
        let path = if state.from_recovery { DecisionPath::Recovery } else { path };
        match path {
            DecisionPath::Fast => self.metrics.fast_decisions.inc(),
            DecisionPath::SlowRetry => {
                self.metrics.slow_decisions.inc();
                self.metrics.slow_decisions_retry.inc();
            }
            DecisionPath::SlowProposal => {
                self.metrics.slow_decisions.inc();
                self.metrics.slow_decisions_proposal.inc();
            }
            DecisionPath::Recovery => {
                self.metrics.slow_decisions.inc();
                self.metrics.recovered_decisions.inc();
            }
            DecisionPath::Ordered => {}
        }
        self.metrics.propose_time_total.add(state.propose_time);
        self.metrics.retry_time_total.add(state.retry_time);
        self.led.insert(
            cmd_id,
            LedRecord {
                proposed_at: state.proposed_at,
                path,
                propose_time: state.propose_time,
                retry_time: state.retry_time,
            },
        );
        let msg = CaesarMessage::Stable {
            ballot: state.ballot,
            cmd: state.cmd,
            time: state.time,
            pred: state.pred,
        };
        ctx.broadcast(msg);
    }

    fn evaluate_fast_proposal(&mut self, cmd_id: CommandId, ctx: &mut Context<'_, CaesarMessage>) {
        let fast_quorum = self.config.quorums.fast();
        let classic_quorum = self.config.quorums.classic();
        let Some(state) = self.leading.get_mut(&cmd_id) else { return };
        if state.phase != LeaderPhase::FastProposal {
            return;
        }
        let replies = state.replies.len();
        let any_nack = state.replies.values().any(|(_, _, ok)| !ok);

        let enough_fast = replies >= fast_quorum;
        let enough_classic_after_timeout = state.timeout_fired && replies >= classic_quorum;
        if !enough_fast && !enough_classic_after_timeout {
            return;
        }

        // Accumulate the maximum timestamp and the union of predecessor sets.
        let max_time =
            state.replies.values().map(|(t, _, _)| *t).max().unwrap_or(state.time).max(state.time);
        let union: Pred =
            state.replies.values().flat_map(|(_, pred, _)| pred.iter().copied()).collect();
        state.pred.extend(union);

        if enough_fast && !any_nack {
            self.finish_stable(cmd_id, DecisionPath::Fast, ctx);
        } else if any_nack {
            state.time = max_time;
            self.start_retry(cmd_id, ctx);
        } else {
            // Classic quorum, no rejection, fast quorum timed out.
            self.start_slow_proposal(cmd_id, ctx);
        }
    }

    fn evaluate_slow_proposal(&mut self, cmd_id: CommandId, ctx: &mut Context<'_, CaesarMessage>) {
        let classic_quorum = self.config.quorums.classic();
        let Some(state) = self.leading.get_mut(&cmd_id) else { return };
        if state.phase != LeaderPhase::SlowProposal || state.replies.len() < classic_quorum {
            return;
        }
        let any_nack = state.replies.values().any(|(_, _, ok)| !ok);
        let max_time =
            state.replies.values().map(|(t, _, _)| *t).max().unwrap_or(state.time).max(state.time);
        let union: Pred =
            state.replies.values().flat_map(|(_, pred, _)| pred.iter().copied()).collect();
        state.pred.extend(union);
        if any_nack {
            state.time = max_time;
            self.start_retry(cmd_id, ctx);
        } else {
            self.finish_stable(cmd_id, DecisionPath::SlowProposal, ctx);
        }
    }

    fn evaluate_retry(&mut self, cmd_id: CommandId, ctx: &mut Context<'_, CaesarMessage>) {
        let classic_quorum = self.config.quorums.classic();
        let Some(state) = self.leading.get_mut(&cmd_id) else { return };
        if state.phase != LeaderPhase::Retry || state.replies.len() < classic_quorum {
            return;
        }
        let union: Pred =
            state.replies.values().flat_map(|(_, pred, _)| pred.iter().copied()).collect();
        state.pred.extend(union);
        self.finish_stable(cmd_id, DecisionPath::SlowRetry, ctx);
    }

    // ------------------------------------------------------------------
    // Acceptor side
    // ------------------------------------------------------------------

    fn on_fast_propose(
        &mut self,
        leader: NodeId,
        ballot: Ballot,
        cmd: Command,
        time: Timestamp,
        whitelist: Option<Pred>,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let cmd_id = cmd.id();
        if !self.admit_ballot(cmd_id, ballot) || self.is_stable_locally(cmd_id) {
            return;
        }
        self.clock.observe(time);
        let forced = whitelist.is_some();
        let pred = self.history.compute_predecessors(&cmd, time, whitelist.as_ref());
        self.history.update(&cmd, time, pred, CmdStatus::FastPending, ballot, forced);
        self.maybe_schedule_recovery_timer(cmd_id, leader, ctx);
        self.notify_history_change(cmd_id, ctx);

        let blockers = self.history.wait_blockers(&cmd, time);
        if self.config.wait_condition && !blockers.is_empty() {
            self.park(
                ParkedProposal {
                    cmd,
                    ballot,
                    time,
                    kind: ProposalKind::Fast,
                    leader,
                    whitelist,
                    leader_pred: Pred::new(),
                    parked_at: ctx.now(),
                },
                &blockers,
            );
            return;
        }
        let force_reject = !self.config.wait_condition && !blockers.is_empty();
        self.reply_to_proposal(
            cmd,
            ballot,
            time,
            ProposalKind::Fast,
            leader,
            whitelist,
            Pred::new(),
            force_reject,
            ctx,
        );
    }

    fn on_slow_propose(
        &mut self,
        leader: NodeId,
        ballot: Ballot,
        cmd: Command,
        time: Timestamp,
        leader_pred: Pred,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let cmd_id = cmd.id();
        if !self.admit_ballot(cmd_id, ballot) || self.is_stable_locally(cmd_id) {
            return;
        }
        self.clock.observe(time);
        self.history.update(&cmd, time, leader_pred.clone(), CmdStatus::SlowPending, ballot, false);
        self.maybe_schedule_recovery_timer(cmd_id, leader, ctx);
        self.notify_history_change(cmd_id, ctx);

        let blockers = self.history.wait_blockers(&cmd, time);
        if self.config.wait_condition && !blockers.is_empty() {
            self.park(
                ParkedProposal {
                    cmd,
                    ballot,
                    time,
                    kind: ProposalKind::Slow,
                    leader,
                    whitelist: None,
                    leader_pred,
                    parked_at: ctx.now(),
                },
                &blockers,
            );
            return;
        }
        let force_reject = !self.config.wait_condition && !blockers.is_empty();
        self.reply_to_proposal(
            cmd,
            ballot,
            time,
            ProposalKind::Slow,
            leader,
            None,
            leader_pred,
            force_reject,
            ctx,
        );
    }

    /// Sends the (possibly delayed) reply for a fast or slow proposal once the
    /// wait condition no longer holds the command back.
    #[allow(clippy::too_many_arguments)]
    fn reply_to_proposal(
        &mut self,
        cmd: Command,
        ballot: Ballot,
        time: Timestamp,
        kind: ProposalKind,
        leader: NodeId,
        whitelist: Option<Pred>,
        leader_pred: Pred,
        force_reject: bool,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let cmd_id = cmd.id();
        // The ballot may have moved on (e.g. a recovery started) while the
        // proposal was parked; in that case stay silent.
        if self.current_ballot(cmd_id) != ballot || self.is_stable_locally(cmd_id) {
            return;
        }
        let reject = force_reject || self.history.must_reject(&cmd, time);
        if reject {
            let new_time = self.clock.next();
            let new_pred = self.history.compute_predecessors(&cmd, new_time, whitelist.as_ref());
            self.history.update(
                &cmd,
                new_time,
                new_pred.clone(),
                CmdStatus::Rejected,
                ballot,
                whitelist.is_some(),
            );
            self.notify_history_change(cmd_id, ctx);
            self.metrics.nacks_sent.inc();
            let reply = match kind {
                ProposalKind::Fast => CaesarMessage::FastProposeReply {
                    ballot,
                    cmd_id,
                    time: new_time,
                    pred: new_pred,
                    ok: false,
                },
                ProposalKind::Slow => CaesarMessage::SlowProposeReply {
                    ballot,
                    cmd_id,
                    time: new_time,
                    pred: new_pred,
                    ok: false,
                },
            };
            ctx.send(leader, reply);
        } else {
            // Recompute predecessors after the wait so commands that became
            // known meanwhile are included (mirrors the TLA+ specification,
            // where the reply deps are computed when the action fires).
            let (pred, status) = match kind {
                ProposalKind::Fast => (
                    self.history.compute_predecessors(&cmd, time, whitelist.as_ref()),
                    CmdStatus::FastPending,
                ),
                ProposalKind::Slow => (leader_pred, CmdStatus::SlowPending),
            };
            self.history.update(&cmd, time, pred.clone(), status, ballot, whitelist.is_some());
            self.notify_history_change(cmd_id, ctx);
            let reply = match kind {
                ProposalKind::Fast => {
                    CaesarMessage::FastProposeReply { ballot, cmd_id, time, pred, ok: true }
                }
                ProposalKind::Slow => {
                    CaesarMessage::SlowProposeReply { ballot, cmd_id, time, pred, ok: true }
                }
            };
            ctx.send(leader, reply);
        }
    }

    fn on_retry(
        &mut self,
        leader: NodeId,
        ballot: Ballot,
        cmd: Command,
        time: Timestamp,
        leader_pred: Pred,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let cmd_id = cmd.id();
        if !self.admit_ballot(cmd_id, ballot) || self.is_stable_locally(cmd_id) {
            return;
        }
        self.clock.observe(time);
        let mut merged = self.history.compute_predecessors(&cmd, time, None);
        merged.extend(leader_pred.iter().copied());
        merged.remove(&cmd_id);
        self.history.update(&cmd, time, merged.clone(), CmdStatus::Accepted, ballot, false);
        self.maybe_schedule_recovery_timer(cmd_id, leader, ctx);
        self.notify_history_change(cmd_id, ctx);
        ctx.send(leader, CaesarMessage::RetryReply { ballot, cmd_id, time, pred: merged });
    }

    fn on_stable(
        &mut self,
        ballot: Ballot,
        cmd: Command,
        time: Timestamp,
        pred: Pred,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let cmd_id = cmd.id();
        if !self.admit_ballot(cmd_id, ballot) {
            return;
        }
        if self.delivery.is_executed(cmd_id) {
            return;
        }
        self.clock.observe(time);
        let mut pred = pred;
        pred.remove(&cmd_id);
        self.history.update(&cmd, time, pred.clone(), CmdStatus::Stable, ballot, false);
        if let std::collections::hash_map::Entry::Vacant(entry) = self.stable_seen_at.entry(cmd_id)
        {
            entry.insert(ctx.now());
            ctx.trace(TracePhase::Commit, cmd_id);
        }
        self.notify_history_change(cmd_id, ctx);
        let executed = self.delivery.on_stable(cmd_id, time, &pred);
        self.apply_executions(executed, ctx);
    }

    fn apply_executions(&mut self, executed: Vec<CommandId>, ctx: &mut Context<'_, CaesarMessage>) {
        let now = ctx.now();
        for id in executed {
            self.history.mark_executed(id);
            self.metrics.commands_executed.inc();
            let info = self.history.get(id).expect("executed command is in the history");
            // Executed commands never come back (`on_stable` ignores them),
            // so their latency bookkeeping is taken out, not copied.
            let stable_at = self.stable_seen_at.remove(&id).unwrap_or(now);
            let (proposed_at, path, breakdown) = match self.led.remove(&id) {
                Some(led) => {
                    let deliver = now.saturating_sub(stable_at);
                    self.metrics.deliver_time_total.add(deliver);
                    (
                        led.proposed_at,
                        led.path,
                        LatencyBreakdown {
                            propose: led.propose_time,
                            retry: led.retry_time,
                            deliver,
                            wait: 0,
                        },
                    )
                }
                None => (now, DecisionPath::Ordered, LatencyBreakdown::default()),
            };
            let decision = Decision {
                command: id,
                timestamp: info.ts,
                path,
                proposed_at,
                executed_at: now,
                breakdown,
            };
            ctx.deliver(info.cmd.clone(), decision);
        }
    }

    // ------------------------------------------------------------------
    // Wait-condition parking
    // ------------------------------------------------------------------

    fn park(&mut self, parked: ParkedProposal, blockers: &[CommandId]) {
        let cmd_id = parked.cmd.id();
        self.metrics.wait_events.inc();
        for b in blockers {
            self.parked_by_blocker.entry(*b).or_default().insert(cmd_id);
        }
        self.parked.insert(cmd_id, parked);
    }

    /// Re-evaluates parked proposals whose blocker `changed` made progress.
    fn notify_history_change(&mut self, changed: CommandId, ctx: &mut Context<'_, CaesarMessage>) {
        let Some(waiting) = self.parked_by_blocker.remove(&changed) else { return };
        for cmd_id in waiting {
            let Some(parked) = self.parked.get(&cmd_id) else { continue };
            let blockers = self.history.wait_blockers(&parked.cmd, parked.time);
            if blockers.is_empty() {
                let parked = self.parked.remove(&cmd_id).expect("present");
                self.metrics.wait_time_total.add(ctx.now().saturating_sub(parked.parked_at));
                self.reply_to_proposal(
                    parked.cmd,
                    parked.ballot,
                    parked.time,
                    parked.kind,
                    parked.leader,
                    parked.whitelist,
                    parked.leader_pred,
                    false,
                    ctx,
                );
            } else {
                for b in blockers {
                    self.parked_by_blocker.entry(b).or_default().insert(cmd_id);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    fn on_recovery_timeout(&mut self, cmd_id: CommandId, ctx: &mut Context<'_, CaesarMessage>) {
        let Some(timeout) = self.config.recovery_timeout else { return };
        let Some(info) = self.history.get(cmd_id) else { return };
        if info.status == CmdStatus::Stable || self.delivery.is_executed(cmd_id) {
            return;
        }
        // The command is still not stable: suspect its leader and take over.
        self.metrics.recoveries_started.inc();
        ctx.trace(TracePhase::Recovery, cmd_id);
        let ballot = self.current_ballot(cmd_id).next_for(self.id);
        self.ballots.insert(cmd_id, ballot);
        self.recovering.insert(cmd_id, RecoveryState { ballot, replies: HashMap::new() });
        ctx.broadcast(CaesarMessage::Recovery { ballot, cmd_id });
        // Re-arm the timer in case this takeover stalls too, backing off
        // exponentially and spreading replicas apart so that concurrent
        // recoveries do not livelock by continually bumping each other's
        // ballots.
        let attempts = self.recovery_attempts.entry(cmd_id).or_insert(0);
        *attempts = attempts.saturating_add(1);
        let backoff = timeout.saturating_mul(1 << (*attempts).min(5))
            + (self.id.index() as SimTime + 1) * timeout;
        ctx.schedule_self(backoff, CaesarMessage::RecoveryTimeout { cmd_id });
    }

    fn on_recovery(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        cmd_id: CommandId,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        // Only promise strictly greater ballots (Figure 5, line 28).
        if ballot <= self.current_ballot(cmd_id) && self.ballots.contains_key(&cmd_id) {
            return;
        }
        self.ballots.insert(cmd_id, ballot);
        let info = self.history.get(cmd_id).map(|info| RecoveryInfo {
            cmd: info.cmd.clone(),
            ts: info.ts,
            pred: info.pred.clone(),
            status: info.status,
            ballot: info.ballot,
            forced: info.forced,
        });
        ctx.send(from, CaesarMessage::RecoveryReply { ballot, cmd_id, info });
    }

    fn on_recovery_reply(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        cmd_id: CommandId,
        info: Option<RecoveryInfo>,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let classic_quorum = self.config.quorums.classic();
        let Some(state) = self.recovering.get_mut(&cmd_id) else { return };
        if state.ballot != ballot {
            return;
        }
        state.replies.insert(from, info);
        if state.replies.len() < classic_quorum {
            return;
        }
        let state = self.recovering.remove(&cmd_id).expect("present");
        self.finish_recovery(cmd_id, state, ctx);
    }

    fn finish_recovery(
        &mut self,
        cmd_id: CommandId,
        state: RecoveryState,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        let ballot = state.ballot;
        let infos: Vec<&RecoveryInfo> = state.replies.values().flatten().collect();
        // Keep only the tuples from the highest ballot seen (Figure 5, lines 5–6).
        let max_ballot = infos.iter().map(|i| i.ballot).max();
        let recovery_set: Vec<&RecoveryInfo> = match max_ballot {
            Some(b) => infos.iter().copied().filter(|i| i.ballot == b).collect(),
            None => Vec::new(),
        };

        // The command payload: from any reply, falling back to local history.
        let cmd = recovery_set
            .first()
            .map(|i| i.cmd.clone())
            .or_else(|| self.history.get(cmd_id).map(|i| i.cmd.clone()));
        let Some(cmd) = cmd else { return };
        let now = ctx.now();

        if let Some(stable) = recovery_set.iter().find(|i| i.status == CmdStatus::Stable) {
            // (i) Someone already knows the decision: just re-broadcast it.
            self.metrics.recovered_decisions.inc();
            ctx.broadcast(CaesarMessage::Stable {
                ballot,
                cmd,
                time: stable.ts,
                pred: stable.pred.clone(),
            });
            return;
        }
        if let Some(accepted) = recovery_set.iter().find(|i| i.status == CmdStatus::Accepted) {
            // (ii) Restart from the retry phase with the accepted tuple.
            let time = accepted.ts;
            let pred = accepted.pred.clone();
            self.leading.insert(
                cmd_id,
                LeaderState {
                    cmd: cmd.clone(),
                    ballot,
                    time,
                    phase: LeaderPhase::Retry,
                    replies: HashMap::new(),
                    pred: pred.clone(),
                    proposed_at: now,
                    phase_started_at: now,
                    propose_time: 0,
                    retry_time: 0,
                    timeout_fired: false,
                    from_recovery: true,
                },
            );
            ctx.broadcast(CaesarMessage::Retry { ballot, cmd, time, pred });
            return;
        }
        if recovery_set.is_empty() || recovery_set.iter().any(|i| i.status == CmdStatus::Rejected) {
            // (iii) The command was certainly not decided: start from scratch.
            let time = self.clock.next();
            self.start_fast_proposal(cmd, ballot, time, None, true, now, ctx);
            return;
        }
        if let Some(slow) = recovery_set.iter().find(|i| i.status == CmdStatus::SlowPending) {
            // (iv) Restart from the slow proposal phase.
            let time = slow.ts;
            let pred = slow.pred.clone();
            self.leading.insert(
                cmd_id,
                LeaderState {
                    cmd: cmd.clone(),
                    ballot,
                    time,
                    phase: LeaderPhase::SlowProposal,
                    replies: HashMap::new(),
                    pred: pred.clone(),
                    proposed_at: now,
                    phase_started_at: now,
                    propose_time: 0,
                    retry_time: 0,
                    timeout_fired: false,
                    from_recovery: true,
                },
            );
            ctx.broadcast(CaesarMessage::SlowPropose { ballot, cmd, time, pred });
            return;
        }
        // (v) Every tuple is fast-pending at the same timestamp: the command
        // may have been decided fast, so re-propose with a whitelist that
        // preserves that possible decision (Figure 5, lines 16–25).
        let time = recovery_set[0].ts;
        let union: Pred = recovery_set.iter().flat_map(|i| i.pred.iter().copied()).collect();
        let whitelist = if let Some(forced) = recovery_set.iter().find(|i| i.forced) {
            let _ = forced;
            Some(union.clone())
        } else if recovery_set.len() >= self.config.quorums.recovery_majority() {
            let majority = self.config.quorums.recovery_majority();
            let filtered: Pred = union
                .iter()
                .copied()
                .filter(|c| {
                    let missing = recovery_set.iter().filter(|i| !i.pred.contains(c)).count();
                    missing < majority
                })
                .collect();
            Some(filtered)
        } else {
            None
        };
        self.start_fast_proposal(cmd, ballot, time, whitelist, true, now, ctx);
    }
}

impl Process for CaesarReplica {
    type Message = CaesarMessage;

    fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, CaesarMessage>) {
        let time = self.clock.next();
        let ballot = Ballot::initial(self.id);
        self.start_fast_proposal(cmd, ballot, time, None, false, ctx.now(), ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: CaesarMessage,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        match msg {
            CaesarMessage::FastPropose { ballot, cmd, time, whitelist } => {
                self.on_fast_propose(from, ballot, cmd, time, whitelist, ctx);
            }
            CaesarMessage::FastProposeReply { ballot, cmd_id, time, pred, ok } => {
                self.clock.observe(time);
                let accepted = match self.leading.get_mut(&cmd_id) {
                    Some(state)
                        if state.ballot == ballot && state.phase == LeaderPhase::FastProposal =>
                    {
                        state.replies.insert(from, (time, pred, ok));
                        true
                    }
                    _ => false,
                };
                if accepted {
                    self.evaluate_fast_proposal(cmd_id, ctx);
                }
            }
            CaesarMessage::SlowPropose { ballot, cmd, time, pred } => {
                self.on_slow_propose(from, ballot, cmd, time, pred, ctx);
            }
            CaesarMessage::SlowProposeReply { ballot, cmd_id, time, pred, ok } => {
                self.clock.observe(time);
                let accepted = match self.leading.get_mut(&cmd_id) {
                    Some(state)
                        if state.ballot == ballot && state.phase == LeaderPhase::SlowProposal =>
                    {
                        state.replies.insert(from, (time, pred, ok));
                        true
                    }
                    _ => false,
                };
                if accepted {
                    self.evaluate_slow_proposal(cmd_id, ctx);
                }
            }
            CaesarMessage::Retry { ballot, cmd, time, pred } => {
                self.on_retry(from, ballot, cmd, time, pred, ctx);
            }
            CaesarMessage::RetryReply { ballot, cmd_id, time, pred } => {
                self.clock.observe(time);
                let accepted = match self.leading.get_mut(&cmd_id) {
                    Some(state) if state.ballot == ballot && state.phase == LeaderPhase::Retry => {
                        state.replies.insert(from, (time, pred, true));
                        true
                    }
                    _ => false,
                };
                if accepted {
                    self.evaluate_retry(cmd_id, ctx);
                }
            }
            CaesarMessage::Stable { ballot, cmd, time, pred } => {
                self.on_stable(ballot, cmd, time, pred, ctx);
            }
            CaesarMessage::Recovery { ballot, cmd_id } => {
                self.on_recovery(from, ballot, cmd_id, ctx);
            }
            CaesarMessage::RecoveryReply { ballot, cmd_id, info } => {
                self.on_recovery_reply(from, ballot, cmd_id, info, ctx);
            }
            CaesarMessage::FastQuorumTimeout { cmd_id, ballot } => {
                let fired = match self.leading.get_mut(&cmd_id) {
                    Some(state)
                        if state.ballot == ballot && state.phase == LeaderPhase::FastProposal =>
                    {
                        state.timeout_fired = true;
                        true
                    }
                    _ => false,
                };
                if fired {
                    self.evaluate_fast_proposal(cmd_id, ctx);
                }
            }
            CaesarMessage::RecoveryTimeout { cmd_id } => {
                self.on_recovery_timeout(cmd_id, ctx);
            }
        }
    }

    fn on_state_transfer(
        &mut self,
        transfer: &StateTransfer,
        ctx: &mut Context<'_, CaesarMessage>,
    ) {
        // Commands covered by an installed snapshot count as executed:
        // without this, any later command whose predecessor set names one
        // of them would wait forever on this fresh replica. The delivery
        // engine absorbs the run-compacted summary (so it never materializes
        // the O(history) id set) and releases any stable commands that were
        // blocked only on transferred predecessors. Predecessor sets name
        // consensus *units* — batch ids included — so absorb the unit-level
        // view, not just the per-leaf `applied` summary.
        let ready = self.delivery.absorb_transfer(&transfer.unit_summary());
        self.apply_executions(ready, ctx);
    }

    fn processing_cost(&self, msg: &CaesarMessage) -> SimTime {
        let base = self.config.message_cost_us;
        match msg {
            CaesarMessage::FastPropose { .. }
            | CaesarMessage::SlowPropose { .. }
            | CaesarMessage::Retry { .. } => base,
            CaesarMessage::Stable { pred, .. } => {
                base + (pred.len() as u64 * self.config.per_dependency_cost_ns) / 1_000
            }
            CaesarMessage::FastProposeReply { .. }
            | CaesarMessage::SlowProposeReply { .. }
            | CaesarMessage::RetryReply { .. }
            | CaesarMessage::RecoveryReply { .. } => base / 2 + 1,
            CaesarMessage::Recovery { .. } => base / 2 + 1,
            CaesarMessage::FastQuorumTimeout { .. } | CaesarMessage::RecoveryTimeout { .. } => 1,
        }
    }

    fn client_processing_cost(&self, _cmd: &Command) -> SimTime {
        self.config.message_cost_us
    }

    fn telemetry(&self) -> Option<Arc<Registry>> {
        Some(self.registry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_types::QuorumSpec;
    use simnet::{LatencyMatrix, SimConfig, Simulator};

    fn five_site_sim(config: CaesarConfig) -> Simulator<CaesarReplica> {
        let latency = LatencyMatrix::ec2_five_sites();
        Simulator::new(SimConfig::new(latency), move |id| CaesarReplica::new(id, config.clone()))
    }

    fn put(node: u32, seq: u64, key: u64) -> Command {
        Command::put(CommandId::new(NodeId(node), seq), key, seq)
    }

    #[test]
    fn single_command_is_decided_fast_everywhere() {
        let mut sim = five_site_sim(CaesarConfig::new(5));
        sim.schedule_command(0, NodeId(0), put(0, 1, 7));
        sim.run();
        for node in NodeId::all(5) {
            assert_eq!(sim.decisions(node).len(), 1, "{node} must execute the command");
        }
        let metrics = sim.process(NodeId(0)).metrics();
        assert_eq!(metrics.fast_decisions, 1);
        assert_eq!(metrics.led_decisions(), 1);
        let d = &sim.decisions(NodeId(0))[0];
        assert_eq!(d.path, DecisionPath::Fast);
        assert!(d.latency() > 0);
    }

    #[test]
    fn non_conflicting_commands_all_decide_fast() {
        let mut sim = five_site_sim(CaesarConfig::new(5));
        for i in 0..5u32 {
            sim.schedule_command(1_000 * u64::from(i), NodeId(i), put(i, 1, u64::from(i) + 100));
        }
        sim.run();
        for node in NodeId::all(5) {
            assert_eq!(sim.decisions(node).len(), 5);
            assert_eq!(sim.process(node).metrics().fast_decisions, 1);
            assert_eq!(sim.process(node).metrics().led_decisions(), 1);
        }
    }

    #[test]
    fn conflicting_commands_execute_in_timestamp_order_everywhere() {
        let mut sim = five_site_sim(CaesarConfig::new(5));
        // Concurrent conflicting commands from every site on the same key.
        for i in 0..5u32 {
            sim.schedule_command(u64::from(i) * 100, NodeId(i), put(i, 1, 7));
        }
        sim.run();
        let reference: Vec<CommandId> =
            sim.decisions(NodeId(0)).iter().map(|d| d.command).collect();
        assert_eq!(reference.len(), 5);
        for node in NodeId::all(5) {
            let order: Vec<CommandId> = sim.decisions(node).iter().map(|d| d.command).collect();
            assert_eq!(order, reference, "execution order must match on {node}");
        }
        // Timestamps must be increasing along the execution order.
        let ts: Vec<Timestamp> = sim.decisions(NodeId(0)).iter().map(|d| d.timestamp).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn conflicting_commands_mostly_take_the_fast_path() {
        let mut sim = five_site_sim(CaesarConfig::new(5));
        for round in 0..10u64 {
            for i in 0..5u32 {
                sim.schedule_command(
                    round * 400_000 + u64::from(i) * 1_000,
                    NodeId(i),
                    put(i, round, 7),
                );
            }
        }
        sim.run();
        let mut fast = 0;
        let mut total = 0;
        for node in NodeId::all(5) {
            let m = sim.process(node).metrics();
            fast += m.fast_decisions;
            total += m.led_decisions();
        }
        assert_eq!(total, 50);
        assert!(fast * 10 >= total * 7, "most decisions should be fast, got {fast}/{total}");
        // All replicas executed everything and agree on the conflicting order.
        let reference: Vec<CommandId> =
            sim.decisions(NodeId(0)).iter().map(|d| d.command).collect();
        for node in NodeId::all(5) {
            assert_eq!(sim.decisions(node).len(), 50);
            let order: Vec<CommandId> = sim.decisions(node).iter().map(|d| d.command).collect();
            assert_eq!(order, reference);
        }
    }

    #[test]
    fn disabling_wait_condition_causes_more_slow_decisions() {
        let run = |wait: bool| {
            let config = CaesarConfig::new(5).with_wait_condition(wait);
            let mut sim = five_site_sim(config);
            for round in 0..20u64 {
                for i in 0..5u32 {
                    sim.schedule_command(
                        round * 120_000 + u64::from(i) * 7_000,
                        NodeId(i),
                        put(i, round, 7),
                    );
                }
            }
            sim.run();
            let mut slow = 0u64;
            for node in NodeId::all(5) {
                let m = sim.process(node).metrics();
                slow += m.led_decisions() - m.fast_decisions;
            }
            slow
        };
        let with_wait = run(true);
        let without_wait = run(false);
        assert!(
            without_wait >= with_wait,
            "wait condition should not increase slow decisions: {with_wait} vs {without_wait}"
        );
    }

    #[test]
    fn leader_crash_is_recovered_by_other_replicas() {
        let mut config = CaesarConfig::new(5);
        config.recovery_timeout = Some(1_000_000);
        let mut sim = five_site_sim(config);
        // Node 0 proposes and crashes 1 ms later — before it can send STABLE
        // (the fastest quorum round trip is ~12 ms).
        sim.schedule_command(0, NodeId(0), put(0, 1, 7));
        sim.schedule_crash(1_000, NodeId(0));
        sim.run();
        for node in NodeId::all(5).skip(1) {
            assert_eq!(
                sim.decisions(node).len(),
                1,
                "{node} must execute the command after recovery"
            );
        }
        let recoveries: u64 =
            NodeId::all(5).skip(1).map(|n| sim.process(n).metrics().recoveries_started).sum();
        assert!(recoveries >= 1, "at least one replica must have started a recovery");
    }

    #[test]
    fn five_node_cluster_survives_one_straggler_via_slow_proposal() {
        // Make node 4 unreachable: with only 4 live nodes a fast quorum (4) is
        // still possible, so crash node 3 as well leaving 3 = CQ.
        let config =
            CaesarConfig::new(5).with_fast_quorum_timeout(100_000).with_recovery_timeout(None);
        let mut sim = five_site_sim(config);
        sim.schedule_crash(0, NodeId(3));
        sim.schedule_crash(0, NodeId(4));
        sim.schedule_command(1_000, NodeId(0), put(0, 1, 7));
        sim.run();
        assert_eq!(sim.decisions(NodeId(0)).len(), 1);
        let m = sim.process(NodeId(0)).metrics();
        assert_eq!(m.slow_decisions_proposal, 1, "decision must have used the slow proposal path");
        let d = &sim.decisions(NodeId(0))[0];
        assert_eq!(d.path, DecisionPath::SlowProposal);
    }

    #[test]
    fn full_fast_quorum_requirement_forces_slow_path_when_one_node_is_down() {
        // Ablation: with FQ = N, losing any node forces the slow-proposal path.
        let config = CaesarConfig::new(5)
            .with_quorums(QuorumSpec::with_fast_quorum(5, 5))
            .with_fast_quorum_timeout(100_000)
            .with_recovery_timeout(None);
        let mut sim = five_site_sim(config);
        sim.schedule_crash(0, NodeId(4));
        sim.schedule_command(1_000, NodeId(0), put(0, 1, 7));
        sim.run();
        let m = sim.process(NodeId(0)).metrics();
        assert_eq!(m.fast_decisions, 0);
        assert_eq!(m.slow_decisions_proposal, 1);
    }

    #[test]
    fn rejected_timestamp_is_retried_and_ordered_after_the_conflict() {
        // Force a rejection: node 4 proposes a conflicting command much later
        // in logical time by first observing many commands.
        let mut sim = five_site_sim(CaesarConfig::new(5));
        // A burst of conflicting commands from node 0 advances everyone's clocks.
        for i in 0..3u64 {
            sim.schedule_command(i * 200_000, NodeId(0), put(0, i + 10, 7));
        }
        // Now two nearly simultaneous conflicting proposals from distant sites.
        sim.schedule_command(650_000, NodeId(4), put(4, 1, 7));
        sim.schedule_command(650_100, NodeId(1), put(1, 1, 7));
        sim.run();
        let reference: Vec<CommandId> =
            sim.decisions(NodeId(0)).iter().map(|d| d.command).collect();
        assert_eq!(reference.len(), 5);
        for node in NodeId::all(5) {
            let order: Vec<CommandId> = sim.decisions(node).iter().map(|d| d.command).collect();
            assert_eq!(order, reference, "order must be identical at {node}");
        }
    }

    #[test]
    fn finished_commands_leave_no_leader_or_latency_bookkeeping() {
        // A fast-quorum timeout between the sites' third and fourth closest
        // replies makes Mumbai's proposals go slow while the rest can go
        // fast; 30% of the commands share one key, so NACKs force retries.
        let config = CaesarConfig::new(5).with_fast_quorum_timeout(100_000);
        let sim_config =
            SimConfig::new(LatencyMatrix::ec2_five_sites()).with_seed(11).with_jitter_us(4_000);
        let mut sim = Simulator::new(sim_config, move |id| CaesarReplica::new(id, config.clone()));
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for seq in 1..=40u64 {
            for node in 0..5u32 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let key = if rng % 100 < 30 { 7 } else { 1_000 + seq * 5 + u64::from(node) };
                let at = seq * 15_000 + u64::from(node) * 2_000 + rng % 4_000;
                sim.schedule_command(at, NodeId(node), put(node, seq, key));
            }
        }
        sim.run();
        let (mut fast, mut slow, mut retry) = (0, 0, 0);
        for node in NodeId::all(5) {
            let replica = sim.process(node);
            let m = replica.metrics();
            fast += m.fast_decisions;
            slow += m.slow_decisions_proposal;
            retry += m.slow_decisions_retry;
            assert_eq!(replica.executed_count(), 200, "{node} executes every command");
            assert!(replica.leading.is_empty(), "{node} keeps leader state after stability");
            assert!(replica.led.is_empty(), "{node} keeps led records after execution");
            assert!(replica.stable_seen_at.is_empty(), "{node} keeps stable times after execution");
        }
        assert!(fast > 0 && slow > 0 && retry > 0, "paths: fast {fast} slow {slow} retry {retry}");
    }

    #[test]
    fn metrics_track_wait_condition_activity_under_contention() {
        let mut sim = five_site_sim(CaesarConfig::new(5));
        for round in 0..10u64 {
            for i in 0..5u32 {
                sim.schedule_command(
                    round * 50_000 + u64::from(i) * 2_000,
                    NodeId(i),
                    put(i, round, 9),
                );
            }
        }
        sim.run();
        let wait_events: u64 = NodeId::all(5).map(|n| sim.process(n).metrics().wait_events).sum();
        let executed: u64 =
            NodeId::all(5).map(|n| sim.process(n).metrics().commands_executed).sum();
        assert_eq!(executed, 250, "all 50 commands executed on all 5 nodes");
        assert!(wait_events > 0, "contention at this rate must trigger the wait condition");
    }
}
