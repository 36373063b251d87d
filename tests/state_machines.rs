//! Pluggability of the `consensus_core::StateMachine` API, end to end:
//! the same workload, driven through every runtime's `ClusterHandle`, runs
//! against the **`EventLog`** state machine — a wholly different
//! application than the `KvStore` the runtimes used to hard-code — and the
//! replies prove it: each command's output is its 1-based log position at
//! the submitting replica, not a key-value result.
//!
//! (`tests/cross_runtime.rs` pins the same property for the `KvStore`
//! reference implementation; together they satisfy "both state machines
//! work through both runtimes".)

use std::sync::Arc;
use std::time::Duration;

use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::{ClusterHandle, Op};
use consensus_core::state_machine::{EventLog, StateMachineFactory};
use consensus_types::NodeId;
use net::{NetCluster, NetConfig};
use simnet::{LatencyMatrix, SimConfig, SimSession, Simulator};

const NODES: usize = 3;
const COMMANDS: u64 = 9;

fn event_log_factory() -> StateMachineFactory {
    Arc::new(|_| Box::new(EventLog::new()))
}

/// Drives a serial chain through one replica's session client and asserts
/// the event-log contract: command `i` answers with log position `i`.
/// `wait_all(count)` blocks until every replica executed `count` commands,
/// so the submitting replica's log length is exact at each step.
fn assert_log_positions<H: ClusterHandle>(runtime: &str, handle: &H, wait_all: impl Fn(u64)) {
    let client = handle.client(NodeId(0));
    for i in 1..=COMMANDS {
        let reply = client
            .submit(Op::put(7, i))
            .unwrap_or_else(|err| panic!("{runtime}: submit {i} failed: {err}"))
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|err| panic!("{runtime}: reply {i} failed: {err}"));
        assert_eq!(
            reply.output,
            Some(i),
            "{runtime}: the event log must answer command {i} with its log position"
        );
        wait_all(i);
    }
}

#[test]
fn event_log_state_machine_runs_through_both_runtimes() {
    // --- discrete-event simulator ------------------------------------
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let sim_config = SimConfig::new(LatencyMatrix::uniform(NODES, 500.0))
        .with_state_machine(event_log_factory());
    let session = SimSession::new(Simulator::new(sim_config, {
        let caesar = caesar.clone();
        move |id| CaesarReplica::new(id, caesar.clone())
    }));
    assert_log_positions("simnet", &session, |count| loop {
        let done = NodeId::all(NODES).all(|node| session.decisions(node).len() >= count as usize);
        if done {
            return;
        }
        assert!(session.step().is_some(), "simnet: queue drained at {count} commands");
    });
    let sim_digest = session.state_fingerprint(NodeId(0));
    for node in NodeId::all(NODES) {
        assert_eq!(session.applied_through(node), COMMANDS);
        assert_eq!(session.state_fingerprint(node), sim_digest, "simnet: {node} diverged");
    }

    // --- TCP sockets --------------------------------------------------
    let sockets =
        NetCluster::start(NetConfig::new(NODES).with_state_machine(event_log_factory()), {
            let caesar = caesar.clone();
            move |id| CaesarReplica::new(id, caesar.clone())
        })
        .expect("net cluster starts");
    assert_log_positions("net", &sockets, |count| {
        let per_node = sockets.wait_for_all(count as usize, Duration::from_secs(30));
        for (index, decisions) in per_node.iter().enumerate() {
            assert!(decisions.len() >= count as usize, "net: p{index} stuck");
        }
    });
    for node in NodeId::all(NODES) {
        assert_eq!(sockets.applied_through(node), COMMANDS);
        assert_eq!(
            sockets.state_fingerprint(node),
            sim_digest,
            "net: {node} diverged from the simulator's log digest"
        );
    }
    sockets.shutdown();
}
