//! Cross-runtime agreement: the same seeded workload, driven through the
//! runtime-agnostic session API (`ClusterHandle::client` → `submit` →
//! `Ticket::wait`), produces identical *replies* and the identical
//! per-replica delivery order whether CAESAR runs in the discrete-event
//! simulator (`simnet::SimSession`), on in-process threads
//! (`cluster::Cluster`), or over real TCP sockets (`net::NetCluster`).
//!
//! The workload is a fully conflicting chain (every command touches the same
//! key) whose proposers are drawn from a seeded generator, submitted
//! serially: each command's reply is awaited, and the command is only
//! followed by the next one once every replica has executed it. Under those
//! conditions CAESAR must deliver the chain in the identical total order at
//! every replica of every runtime — and because each `Put` returns the
//! previous value of the key, the reply stream doubles as a check that all
//! three runtimes drive the identical state-machine history.

use std::time::Duration;

use caesar::{CaesarConfig, CaesarReplica};
use cluster::{Cluster, ClusterConfig};
use consensus_core::session::{ClusterHandle, Op};
use consensus_types::{CommandId, NodeId};
use net::{NetCluster, NetConfig};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use simnet::{LatencyMatrix, SimConfig, SimSession, Simulator};

const NODES: usize = 5;
const COMMANDS: usize = 25;
const KEY: u64 = 7;
const SEED: u64 = 2024;

/// One command's client-visible outcome: its id and the previous value of
/// the contended key, as reported by the `Put` reply.
type ReplyRecord = (CommandId, Option<u64>);

/// Drives the seeded conflicting chain through the session API of any
/// runtime. `wait_all(count)` blocks until every replica executed `count`
/// commands, keeping the chain strictly serial across the whole cluster.
fn drive_chain<H: ClusterHandle>(
    runtime: &str,
    handle: &H,
    wait_all: impl Fn(usize),
) -> Vec<ReplyRecord> {
    let mut rng = ChaCha12Rng::seed_from_u64(SEED);
    let mut records = Vec::with_capacity(COMMANDS);
    for i in 0..COMMANDS as u64 {
        let origin = NodeId::from_index(rng.gen_range(0..NODES));
        let ticket = handle
            .client(origin)
            .submit(Op::put(KEY, i))
            .unwrap_or_else(|err| panic!("{runtime}: submit {i} failed: {err}"));
        let reply = ticket
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|err| panic!("{runtime}: reply {i} failed: {err}"));
        assert_eq!(reply.node, origin, "{runtime}: reply must come from the submitting replica");
        records.push((reply.command, reply.output));
        wait_all(i as usize + 1);
    }
    records
}

fn assert_uniform_order(runtime: &str, orders: &[Vec<CommandId>]) -> Vec<CommandId> {
    assert_eq!(orders.len(), NODES);
    for (index, order) in orders.iter().enumerate() {
        assert_eq!(
            order.len(),
            COMMANDS,
            "{runtime}: replica p{index} executed {} of {COMMANDS} commands",
            order.len()
        );
        assert_eq!(
            order, &orders[0],
            "{runtime}: replica p{index} delivered a different order than p0"
        );
    }
    orders[0].clone()
}

struct RuntimeOutcome {
    replies: Vec<ReplyRecord>,
    order: Vec<CommandId>,
}

fn simnet_outcome() -> RuntimeOutcome {
    let config = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let sim_config = SimConfig::new(LatencyMatrix::ec2_five_sites()).with_seed(SEED);
    let session = SimSession::new(Simulator::new(sim_config, move |id| {
        CaesarReplica::new(id, config.clone())
    }));
    let replies = drive_chain("simnet", &session, |count| {
        // Step simulated time until every replica caught up.
        loop {
            let done = NodeId::all(NODES).all(|node| session.decisions(node).len() >= count);
            if done {
                return;
            }
            assert!(session.step().is_some(), "simnet: queue drained at {count} commands");
        }
    });
    let orders: Vec<Vec<CommandId>> = NodeId::all(NODES)
        .map(|node| session.decisions(node).iter().map(|d| d.command).collect())
        .collect();
    RuntimeOutcome { replies, order: assert_uniform_order("simnet", &orders) }
}

fn cluster_outcome() -> RuntimeOutcome {
    let config = ClusterConfig::new(LatencyMatrix::ec2_five_sites()).with_latency_scale(0.005);
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let threads = Cluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()));
    let replies = drive_chain("cluster", &threads, |count| {
        for node in NodeId::all(NODES) {
            let got = threads.wait_for_decisions(node, count, Duration::from_secs(30));
            assert!(got.len() >= count, "cluster: {node} stuck at {} of {count}", got.len());
        }
    });
    let orders: Vec<Vec<CommandId>> = NodeId::all(NODES)
        .map(|node| threads.decisions(node).iter().map(|d| d.command).collect())
        .collect();
    let order = assert_uniform_order("cluster", &orders);
    threads.shutdown();
    RuntimeOutcome { replies, order }
}

fn net_outcome() -> RuntimeOutcome {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let sockets =
        NetCluster::start(NetConfig::new(NODES), move |id| CaesarReplica::new(id, caesar.clone()))
            .expect("net cluster starts");
    let replies = drive_chain("net", &sockets, |count| {
        let per_node = sockets.wait_for_all(count, Duration::from_secs(30));
        for (index, decisions) in per_node.iter().enumerate() {
            assert!(
                decisions.len() >= count,
                "net: p{index} stuck at {} of {count}",
                decisions.len()
            );
        }
    });
    let orders: Vec<Vec<CommandId>> = NodeId::all(NODES)
        .map(|node| sockets.decisions(node).iter().map(|d| d.command).collect())
        .collect();
    let order = assert_uniform_order("net", &orders);
    sockets.shutdown();
    RuntimeOutcome { replies, order }
}

// ---- proposer batching: concurrent submissions, all three runtimes ------

const BATCHED_COMMANDS: usize = 24;
const BATCH_MAX: usize = 8;

/// Submits `BATCHED_COMMANDS` independent writes (distinct keys) to replica
/// p0 *concurrently* — every ticket in flight before the first wait — so an
/// enabled proposer batcher can coalesce them, then awaits every reply.
/// Each key is fresh, so every `Put` must report `None` regardless of how
/// the commands were grouped into consensus units.
fn submit_batched<H: ClusterHandle>(runtime: &str, handle: &H) {
    let client = handle.client(NodeId(0));
    let tickets: Vec<_> = (0..BATCHED_COMMANDS as u64)
        .map(|i| {
            client
                .submit(Op::put(100 + i, i))
                .unwrap_or_else(|err| panic!("{runtime}: submit {i} failed: {err}"))
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let reply = ticket
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|err| panic!("{runtime}: reply {i} failed: {err}"));
        assert_eq!(reply.node, NodeId(0), "{runtime}: reply must come from p0");
        assert_eq!(reply.output, None, "{runtime}: key 10{i} was fresh, Put must return None");
    }
}

/// Cross-runtime agreement under batching: the same concurrent workload,
/// driven with proposer batching enabled, answers every individual ticket
/// and converges every replica of every runtime onto the identical
/// state-machine fingerprint.
#[test]
fn batched_submissions_reply_per_command_and_converge_across_runtimes() {
    // Simulator: all submissions land at the same simulated instant, so
    // coalescing is guaranteed and the batch counters must move.
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let sim_config =
        SimConfig::new(LatencyMatrix::ec2_five_sites()).with_seed(SEED).with_batch(BATCH_MAX);
    let session = SimSession::new(Simulator::new(sim_config, move |id| {
        CaesarReplica::new(id, caesar.clone())
    }));
    submit_batched("simnet", &session);
    let _ = session.run();
    let sim_fp = session.state_fingerprint(NodeId(0));
    for node in NodeId::all(NODES) {
        assert_eq!(
            session.applied_through(node),
            BATCHED_COMMANDS as u64,
            "simnet: {node} must apply every inner command"
        );
        assert_eq!(session.state_fingerprint(node), sim_fp, "simnet: {node} fingerprint differs");
    }
    let assembled = session.with_sim(|sim| sim.registry().snapshot().counter("batch.assembled"));
    assert!(assembled > 0, "simnet: concurrent submissions must have coalesced");

    // Thread cluster: opportunistic mailbox batching.
    let config = ClusterConfig::new(LatencyMatrix::ec2_five_sites())
        .with_latency_scale(0.005)
        .with_batch(BATCH_MAX);
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let threads = Cluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()));
    submit_batched("cluster", &threads);
    wait_applied("cluster", NODES, BATCHED_COMMANDS as u64, |node| threads.applied_through(node));
    let cluster_fp = threads.state_fingerprint(NodeId(0));
    for node in NodeId::all(NODES) {
        assert_eq!(threads.state_fingerprint(node), cluster_fp, "cluster: {node} differs");
    }
    threads.shutdown();

    // TCP runtime: batching on every replica.
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let net_config = NetConfig::new(NODES).with_batch(BATCH_MAX);
    let sockets = NetCluster::start(net_config, move |id| CaesarReplica::new(id, caesar.clone()))
        .expect("net cluster starts");
    submit_batched("net", &sockets);
    wait_applied("net", NODES, BATCHED_COMMANDS as u64, |node| sockets.applied_through(node));
    let net_fp = sockets.state_fingerprint(NodeId(0));
    for node in NodeId::all(NODES) {
        assert_eq!(sockets.state_fingerprint(node), net_fp, "net: {node} differs");
    }
    sockets.shutdown();

    // The workload is deterministic in its effects (independent writes), so
    // all fifteen replicas, simulated or real, end on one fingerprint.
    assert_eq!(sim_fp, cluster_fp, "simnet and thread cluster diverged");
    assert_eq!(sim_fp, net_fp, "simnet and TCP runtime diverged");
}

/// Polls `applied_through` for every node until it reaches `target` (every
/// replica has applied every inner command) or a 30 s deadline passes.
fn wait_applied(runtime: &str, nodes: usize, target: u64, applied: impl Fn(NodeId) -> u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for node in NodeId::all(nodes) {
        loop {
            if applied(node) >= target {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{runtime}: {node} stuck at {} of {target} applied",
                applied(node)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn caesar_replies_and_delivery_order_are_identical_across_all_three_runtimes() {
    let from_sim = simnet_outcome();
    let from_threads = cluster_outcome();
    let from_sockets = net_outcome();

    // The session clients of every runtime saw the identical reply stream:
    // same command ids (same allocation order), same read-back values (the
    // serial conflicting chain makes output i the value written by i−1).
    assert_eq!(
        from_sim.replies, from_threads.replies,
        "simnet and the thread cluster replied differently"
    );
    assert_eq!(
        from_sim.replies, from_sockets.replies,
        "simnet and the TCP runtime replied differently"
    );
    for (i, (_, output)) in from_sim.replies.iter().enumerate() {
        let expected = if i == 0 { None } else { Some(i as u64 - 1) };
        assert_eq!(*output, expected, "reply {i} must return the previously written value");
    }

    // And every replica of every runtime delivered the same order.
    assert_eq!(
        from_sim.order, from_threads.order,
        "simnet and the thread cluster delivered different orders"
    );
    assert_eq!(
        from_sim.order, from_sockets.order,
        "simnet and the TCP runtime delivered different orders"
    );
}
