//! Crash → restart → catch-up, for **every** protocol: a killed `net`
//! replica comes back with a fresh, empty state machine and a fresh process,
//! and fills both by snapshot-based state transfer — it requests
//! `SnapshotRequest`/`SnapshotChunk` frames from a live peer, restores the
//! donated snapshot, replays the decided suffix, installs the transferred
//! `StateTransfer` (applied-id floors for the dependency-tracked protocols,
//! slot cursors for the slot-based ones), and then serves reads that
//! reflect **pre-crash** writes.
//!
//! The matrix runs the identical lifecycle over CAESAR, EPaxos, Multi-Paxos,
//! Mencius and M²Paxos. The pinning assertions per protocol:
//!
//! * the restarted replica's `applied_through` watermark reaches the full
//!   workload, and every sample observed while it caught up is monotone
//!   (the core loop asserts the same internally — a reply must never
//!   observe an execution cursor ahead of the state machine);
//! * its state-machine *fingerprint* equals a never-crashed peer's;
//! * an external `ReplicaClient` connected to the restarted replica itself
//!   reads a pre-crash write back.
//!
//! Protocol quirks the matrix encodes: Mencius has no revocation, so while
//! the crashed node is down the survivors keep *committing* but cannot
//! *execute* past its first unused slot — downtime traffic is submitted
//! fire-and-forget there, and the restarted node's post-transfer skip
//! announcement is what drains the whole cluster's backlog. Multi-Paxos
//! keeps its (stable) leader on a surviving node; leader election is out of
//! scope.
//!
//! A second, **durability** matrix runs the same five protocols with data
//! directories (`NetConfig::with_data_dir`): each replica keeps a durable
//! write-ahead log, and recovery becomes disk-first with snapshot transfer
//! as the fallback. Per protocol it drives one lifecycle through three
//! recovery shapes — hybrid (own log prefix + donor delta for the downtime
//! traffic), full-cluster power cycle (every replica restarts from its own
//! log, zero live donors), and a lone replica brought up from its data dir
//! after the whole cluster is gone (no quorum, no donors — pure disk). See
//! `docs/DURABILITY.md` for the recovery decision tree these paths walk.

use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::{ClusterHandle, Op, SessionError};
use consensus_core::ReplicaState;
use consensus_types::{Command, CommandId, NodeId};
use epaxos::{EpaxosConfig, EpaxosReplica};
use kvstore::KvStore;
use m2paxos::{M2PaxosConfig, M2PaxosReplica};
use mencius::{MenciusConfig, MenciusReplica};
use multipaxos::{MultiPaxosConfig, MultiPaxosReplica};
use net::{FsyncPolicy, NetCluster, NetConfig, NetReplica, NetReplicaConfig, ReplicaClient};
use simnet::Process;
use wal::TempDir;

const NODES: usize = 5;
const CRASH: NodeId = NodeId(4);
const SURVIVOR: NodeId = NodeId(0);
/// The replica downtime traffic is submitted to.
const DOWNTIME_AT: NodeId = NodeId(1);

/// Commands submitted before the crash: distinct keys, values offset so a
/// read can never confuse "missing" with "value 0".
fn pre_crash_commands() -> Vec<(u64, u64)> {
    (0..20u64).map(|i| (100 + i, 1_000 + i)).collect()
}

/// Commands submitted while the crashed replica is down.
fn downtime_commands() -> Vec<(u64, u64)> {
    (0..12u64).map(|i| (200 + i, 2_000 + i)).collect()
}

/// How downtime traffic is driven.
enum Downtime {
    /// Submit through the session API and await each execution — for
    /// protocols that keep executing with one replica down.
    Awaited,
    /// Submit fire-and-forget — for Mencius, where execution stalls at the
    /// crashed node's slot gap until it returns (commits still happen; the
    /// restarted node's skip announcement drains the backlog).
    FireAndForget,
}

/// Polls the restarted replica's watermark until it reaches `target` (or
/// the deadline passes), asserting every observed sample is monotone —
/// catch-up must never make `applied_through` move backwards.
fn wait_monotone_applied<P>(
    cluster: &NetCluster<P>,
    node: NodeId,
    target: u64,
    timeout: Duration,
) -> u64
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
{
    let deadline = Instant::now() + timeout;
    let mut last = 0u64;
    let mut samples = 0u64;
    loop {
        let applied = cluster.applied_through(node);
        assert!(
            applied >= last,
            "watermark regressed during catch-up: {last} -> {applied} after {samples} samples"
        );
        last = applied;
        samples += 1;
        if applied >= target || Instant::now() >= deadline {
            return applied;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The full lifecycle, identical for every protocol: pre-crash writes →
/// crash → downtime traffic → restart with a fresh process and empty state
/// machine → snapshot catch-up → parity checks → a pre-crash read served by
/// the restarted replica itself.
fn run_restart_matrix<P, F>(label: &str, mut make: F, downtime: Downtime)
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnMut(NodeId) -> P,
{
    // A small checkpoint interval forces the donor to serve checkpoint
    // bytes *plus* a non-empty decided suffix, so the replay path is
    // exercised, not just the snapshot restore.
    let mut cluster =
        NetCluster::start(NetConfig::new(NODES).with_checkpoint_interval(8), &mut make)
            .unwrap_or_else(|err| panic!("[{label}] cluster starts: {err}"));
    let crash_addr = cluster.addr(CRASH);

    // Pre-crash writes, each awaited so all are committed before the kill.
    for (key, value) in pre_crash_commands() {
        cluster
            .client(SURVIVOR)
            .submit(Op::put(key, value))
            .expect("submits")
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|err| panic!("[{label}] pre-crash write: {err:?}"));
    }

    cluster.stop_replica(CRASH);
    std::thread::sleep(Duration::from_millis(100));

    // Traffic the downed replica never sees — it must come back through the
    // snapshot transfer, not through post-restart execution.
    let total = (pre_crash_commands().len() + downtime_commands().len()) as u64;
    match downtime {
        Downtime::Awaited => {
            for (key, value) in downtime_commands() {
                cluster
                    .client(DOWNTIME_AT)
                    .submit(Op::put(key, value))
                    .expect("submits during downtime")
                    .wait_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|err| panic!("[{label}] downtime write: {err:?}"));
            }
            let survivor_applied =
                cluster.wait_for_applied(SURVIVOR, total, Duration::from_secs(30));
            assert_eq!(survivor_applied, total, "[{label}] survivor applies the whole workload");
        }
        Downtime::FireAndForget => {
            // Execution is stalled cluster-wide at the crashed node's slot
            // gap; submit without awaiting and give the commits a moment to
            // replicate. Manual ids stay disjoint from the session's
            // (sequences 1..) and the external client's (500_000..).
            for (i, (key, value)) in downtime_commands().into_iter().enumerate() {
                let id = CommandId::new(DOWNTIME_AT, 10_000 + i as u64);
                cluster
                    .submit(DOWNTIME_AT, Command::put(id, key, value))
                    .unwrap_or_else(|err| panic!("[{label}] fire-and-forget write: {err}"));
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    }

    // Restart with a fresh process *and* a fresh (empty) state machine; the
    // only way it can reach the survivors' watermark without new commands
    // is the snapshot transfer + suffix replay + cursor fast-forward.
    cluster
        .restart_replica(CRASH, make(CRASH))
        .unwrap_or_else(|err| panic!("[{label}] replica restarts on its old address: {err}"));
    let caught_up = wait_monotone_applied(&cluster, CRASH, total, Duration::from_secs(30));
    assert_eq!(caught_up, total, "[{label}] restarted replica catches up to the full history");

    // Every replica drains the whole workload (for Mencius this is
    // unblocked *by* the restarted node's skip announcement).
    for index in 0..NODES {
        let node = NodeId::from_index(index);
        let applied = cluster.wait_for_applied(node, total, Duration::from_secs(30));
        assert_eq!(applied, total, "[{label}] {node} applies the whole workload");
    }
    assert_eq!(
        cluster.state_fingerprint(CRASH),
        cluster.state_fingerprint(SURVIVOR),
        "[{label}] restarted replica's state-machine digest equals a never-crashed peer's"
    );
    let stats = cluster.replica_stats(CRASH);
    assert_eq!(
        stats.catch_ups_completed.get(),
        1,
        "[{label}] the restart completes exactly one snapshot catch-up"
    );
    assert_eq!(
        cluster.replica_registry(CRASH).snapshot().gauge("replica.state"),
        ReplicaState::Serving as u64,
        "[{label}] the caught-up replica reports itself serving"
    );

    // The acceptance criterion: an external client reads a PRE-crash write
    // through the restarted replica itself.
    let client = ReplicaClient::connect(crash_addr, CRASH, 500_000)
        .unwrap_or_else(|err| panic!("[{label}] client connects to the restarted replica: {err}"));
    let (key, value) = pre_crash_commands()[3];
    let read = client
        .get(key)
        .unwrap_or_else(|err| panic!("[{label}] read through the restarted replica: {err:?}"));
    assert_eq!(
        read.output,
        Some(value),
        "[{label}] a read at the restarted replica reflects the pre-crash write"
    );
    client.shutdown();
    cluster.shutdown();
}

#[test]
fn caesar_restart_catches_up() {
    let config = CaesarConfig::new(NODES).with_recovery_timeout(None);
    run_restart_matrix(
        "caesar",
        move |id| CaesarReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

#[test]
fn epaxos_restart_catches_up() {
    let config = EpaxosConfig::new(NODES).with_recovery_timeout(None);
    run_restart_matrix(
        "epaxos",
        move |id| EpaxosReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

#[test]
fn multipaxos_restart_catches_up() {
    // The stable leader sits on a surviving node; electing a new one is out
    // of scope (the crashed follower still recovers its slot cursor).
    let config = MultiPaxosConfig::new(NODES, SURVIVOR);
    run_restart_matrix(
        "multipaxos",
        move |id| MultiPaxosReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

#[test]
fn mencius_restart_catches_up() {
    let config = MenciusConfig::new(NODES);
    run_restart_matrix(
        "mencius",
        move |id| MenciusReplica::new(id, config.clone()),
        Downtime::FireAndForget,
    );
}

#[test]
fn m2paxos_restart_catches_up() {
    let config = M2PaxosConfig::new(NODES);
    run_restart_matrix(
        "m2paxos",
        move |id| M2PaxosReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

/// The CAESAR-specific deep checks kept from the original single-protocol
/// test: transfer statistics and an offline replay of the identical command
/// history landing on the identical digest.
#[test]
fn restarted_replica_serves_pre_crash_reads_via_snapshot_transfer() {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let make = {
        let caesar = caesar.clone();
        move |id| CaesarReplica::new(id, caesar.clone())
    };
    let mut cluster = NetCluster::start(NetConfig::new(NODES).with_checkpoint_interval(8), make)
        .expect("cluster starts");
    let crash_addr = cluster.addr(CRASH);

    for (key, value) in pre_crash_commands() {
        cluster
            .client(SURVIVOR)
            .submit(Op::put(key, value))
            .expect("submits")
            .wait_timeout(Duration::from_secs(30))
            .expect("replies before the crash");
    }

    cluster.stop_replica(CRASH);
    std::thread::sleep(Duration::from_millis(100));

    for (key, value) in downtime_commands() {
        cluster
            .client(DOWNTIME_AT)
            .submit(Op::put(key, value))
            .expect("submits during downtime")
            .wait_timeout(Duration::from_secs(30))
            .expect("quorum of four still decides");
    }
    let total = (pre_crash_commands().len() + downtime_commands().len()) as u64;
    let survivor_applied = cluster.wait_for_applied(SURVIVOR, total, Duration::from_secs(30));
    assert_eq!(survivor_applied, total, "survivor must have applied the whole workload");

    cluster
        .restart_replica(CRASH, CaesarReplica::new(CRASH, caesar.clone()))
        .expect("replica restarts on its old address");
    let caught_up = cluster.wait_for_applied(CRASH, total, Duration::from_secs(30));
    assert_eq!(caught_up, total, "restarted replica must catch up to the full pre-restart history");
    assert_eq!(
        cluster.state_fingerprint(CRASH),
        cluster.state_fingerprint(SURVIVOR),
        "restarted replica's state-machine digest must equal a never-crashed peer's"
    );
    let stats = cluster.replica_stats(CRASH);
    assert_eq!(
        stats.catch_ups_completed.get(),
        1,
        "the restart must have completed exactly one snapshot catch-up"
    );
    assert_eq!(
        cluster.replica_registry(CRASH).snapshot().gauge("replica.state"),
        ReplicaState::Serving as u64,
        "the caught-up replica must report itself serving"
    );

    let client = ReplicaClient::connect(crash_addr, CRASH, 500_000).expect("client connects");
    let (key, value) = pre_crash_commands()[3];
    let read = client.get(key).expect("read through the restarted replica");
    assert_eq!(
        read.output,
        Some(value),
        "a read at the restarted replica must reflect the pre-crash write"
    );
    client.shutdown();

    // Cross-runtime pin: the simulator applying the identical command
    // history lands on the identical digest.
    let mut reference = KvStore::new();
    let mut seq = 0u64;
    for (key, value) in pre_crash_commands().into_iter().chain(downtime_commands()) {
        seq += 1;
        reference.apply(&Command::put(CommandId::new(SURVIVOR, seq), key, value));
    }
    assert_eq!(
        consensus_core::StateMachine::fingerprint(&reference),
        cluster.state_fingerprint(CRASH),
        "the recovered state must match an offline replay of the same history"
    );

    cluster.shutdown();
}

/// Writes submitted after the full-cluster power cycle — the cycled cluster
/// must still decide and execute fresh commands, not merely serve history.
/// Nine of them, so the total leaves a non-empty suffix after the last
/// checkpoint and the lone-replica phase exercises suffix replay too.
fn post_cycle_commands() -> Vec<(u64, u64)> {
    (0..9u64).map(|i| (300 + i, 3_000 + i)).collect()
}

/// The durability lifecycle, identical for every protocol. One cluster with
/// per-replica write-ahead logs runs through the three disk-recovery shapes
/// in sequence:
///
/// 1. **Hybrid** — one replica crashes after the pre-crash writes and
///    restarts while traffic flowed in its absence: its own log provides the
///    prefix (asserted via `wal.replayed`), a live donor the delta.
/// 2. **Power cycle** — the *whole* cluster stops (quiesced first) and
///    restarts from its data dirs with zero live donors, then serves a
///    pre-crash read to an external client and decides new commands.
/// 3. **Lone replica** — the cluster shuts down for good and a single
///    replica is spawned from one data dir with nobody to talk to: it must
///    reach the final watermark and fingerprint from disk alone, completing
///    zero snapshot catch-ups.
fn run_durability_matrix<P, F>(label: &str, mut make: F, downtime: Downtime)
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnMut(NodeId) -> P,
{
    let root = TempDir::new(&format!("durability-{label}")).expect("tempdir");
    let net_config = NetConfig::new(NODES)
        .with_checkpoint_interval(8)
        .with_data_dir(root.path())
        .with_fsync(FsyncPolicy::PerBatch);
    let crash_dir = net_config.replica_data_dir(CRASH).expect("data dir is configured");
    let mut cluster = NetCluster::start(net_config, &mut make)
        .unwrap_or_else(|err| panic!("[{label}] cluster starts: {err}"));
    let crash_addr = cluster.addr(CRASH);
    let addrs: Vec<_> = (0..NODES).map(|i| cluster.addr(NodeId::from_index(i))).collect();

    for (key, value) in pre_crash_commands() {
        cluster
            .client(SURVIVOR)
            .submit(Op::put(key, value))
            .expect("submits")
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|err| panic!("[{label}] pre-crash write: {err:?}"));
    }
    // The replies come from the survivor; the replica about to crash may
    // still be applying the tail. Wait for the whole prefix (20 commands,
    // checkpoints every 8) so its log ends in a non-empty suffix.
    let prefix = pre_crash_commands().len() as u64;
    let crash_applied = cluster.wait_for_applied(CRASH, prefix, Duration::from_secs(30));
    assert_eq!(crash_applied, prefix, "[{label}] {CRASH} applies the pre-crash prefix");

    // Phase 1: hybrid recovery. The crashed replica's log holds the
    // pre-crash prefix; the downtime traffic only exists at the donors.
    cluster.stop_replica(CRASH);
    std::thread::sleep(Duration::from_millis(100));
    let total = (pre_crash_commands().len() + downtime_commands().len()) as u64;
    match downtime {
        Downtime::Awaited => {
            for (key, value) in downtime_commands() {
                cluster
                    .client(DOWNTIME_AT)
                    .submit(Op::put(key, value))
                    .expect("submits during downtime")
                    .wait_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|err| panic!("[{label}] downtime write: {err:?}"));
            }
        }
        Downtime::FireAndForget => {
            for (i, (key, value)) in downtime_commands().into_iter().enumerate() {
                let id = CommandId::new(DOWNTIME_AT, 10_000 + i as u64);
                cluster
                    .submit(DOWNTIME_AT, Command::put(id, key, value))
                    .unwrap_or_else(|err| panic!("[{label}] fire-and-forget write: {err}"));
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    }
    cluster
        .restart_replica(CRASH, make(CRASH))
        .unwrap_or_else(|err| panic!("[{label}] replica restarts on its old address: {err}"));
    let caught_up = wait_monotone_applied(&cluster, CRASH, total, Duration::from_secs(30));
    assert_eq!(caught_up, total, "[{label}] hybrid recovery reaches the full history");
    let replayed = cluster.replica_registry(CRASH).snapshot().counter("wal.replayed");
    assert!(
        replayed > 0,
        "[{label}] disk contributed to the hybrid recovery (wal.replayed = {replayed})"
    );
    for index in 0..NODES {
        let node = NodeId::from_index(index);
        let applied = cluster.wait_for_applied(node, total, Duration::from_secs(30));
        assert_eq!(applied, total, "[{label}] {node} applies the whole workload");
    }
    assert_eq!(
        cluster.state_fingerprint(CRASH),
        cluster.state_fingerprint(SURVIVOR),
        "[{label}] hybrid-recovered replica matches a never-crashed peer"
    );

    // Phase 2: full-cluster power cycle. Quiesced above (every replica at
    // `total`), so every log is complete; nobody survives to donate.
    let pre_cycle_fingerprint = cluster.state_fingerprint(SURVIVOR);
    cluster.power_cycle(&mut make).unwrap_or_else(|err| panic!("[{label}] power cycle: {err}"));
    for index in 0..NODES {
        let node = NodeId::from_index(index);
        let applied = cluster.wait_for_applied(node, total, Duration::from_secs(30));
        assert_eq!(applied, total, "[{label}] {node} recovers the whole workload from disk");
        assert_eq!(
            cluster.state_fingerprint(node),
            pre_cycle_fingerprint,
            "[{label}] {node} power-cycles back to the pre-cycle state"
        );
    }

    // An external client reads a PRE-cycle write through a replica that has
    // now died twice, and the cycled cluster still decides new commands.
    // Each `get` is itself a consensus command, so it counts toward the
    // applied watermark at every replica.
    let client = ReplicaClient::connect(crash_addr, CRASH, 500_000)
        .unwrap_or_else(|err| panic!("[{label}] client connects after the power cycle: {err}"));
    let (key, value) = pre_crash_commands()[3];
    let read = client
        .get(key)
        .unwrap_or_else(|err| panic!("[{label}] read after the power cycle: {err:?}"));
    assert_eq!(read.output, Some(value), "[{label}] pre-cycle write survives the power cycle");
    let mut total = total + 1;
    for (key, value) in post_cycle_commands() {
        cluster
            .client(SURVIVOR)
            .submit(Op::put(key, value))
            .expect("submits after the power cycle")
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|err| panic!("[{label}] post-cycle write: {err:?}"));
    }
    total += post_cycle_commands().len() as u64;
    for index in 0..NODES {
        let node = NodeId::from_index(index);
        let applied = cluster.wait_for_applied(node, total, Duration::from_secs(30));
        assert_eq!(applied, total, "[{label}] {node} executes the post-cycle commands");
    }
    let (key, value) = post_cycle_commands()[0];
    let read = client.get(key).unwrap_or_else(|err| panic!("[{label}] post-cycle read: {err:?}"));
    assert_eq!(read.output, Some(value), "[{label}] the cycled cluster serves new writes");
    client.shutdown();
    total += 1;
    // Quiesce at the final count (the last read is a command too) so every
    // log — CRASH's in particular — is complete before the cluster goes away.
    let quiesced = cluster.wait_for_applied(CRASH, total, Duration::from_secs(30));
    assert_eq!(quiesced, total, "[{label}] the final read reaches the crash replica's log");

    // Phase 3: lone replica from its data dir — the cluster is gone, so
    // there is no donor and no quorum; disk is the only source of state.
    let final_fingerprint = cluster.state_fingerprint(CRASH);
    cluster.shutdown();
    let mut lone_config = NetReplicaConfig::loopback(CRASH, NODES);
    lone_config.data_dir = Some(crash_dir);
    let mut lone = NetReplica::spawn(lone_config, make(CRASH))
        .unwrap_or_else(|err| panic!("[{label}] lone replica spawns: {err}"));
    lone.start(addrs);
    let deadline = Instant::now() + Duration::from_secs(10);
    while lone.applied_through() < total && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        lone.applied_through(),
        total,
        "[{label}] the lone replica recovers the full watermark from disk alone"
    );
    assert_eq!(
        lone.state_fingerprint(),
        final_fingerprint,
        "[{label}] the lone replica's state matches the cluster's final state"
    );
    assert_eq!(
        lone.stats().catch_ups_completed.get(),
        0,
        "[{label}] no snapshot transfer was involved — recovery came from the log"
    );
    lone.shutdown();
}

#[test]
fn caesar_durable_recovery_matrix() {
    let config = CaesarConfig::new(NODES).with_recovery_timeout(None);
    run_durability_matrix(
        "caesar",
        move |id| CaesarReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

#[test]
fn epaxos_durable_recovery_matrix() {
    let config = EpaxosConfig::new(NODES).with_recovery_timeout(None);
    run_durability_matrix(
        "epaxos",
        move |id| EpaxosReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

#[test]
fn multipaxos_durable_recovery_matrix() {
    let config = MultiPaxosConfig::new(NODES, SURVIVOR);
    run_durability_matrix(
        "multipaxos",
        move |id| MultiPaxosReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

#[test]
fn mencius_durable_recovery_matrix() {
    let config = MenciusConfig::new(NODES);
    run_durability_matrix(
        "mencius",
        move |id| MenciusReplica::new(id, config.clone()),
        Downtime::FireAndForget,
    );
}

#[test]
fn m2paxos_durable_recovery_matrix() {
    let config = M2PaxosConfig::new(NODES);
    run_durability_matrix(
        "m2paxos",
        move |id| M2PaxosReplica::new(id, config.clone()),
        Downtime::Awaited,
    );
}

#[test]
fn submissions_to_a_down_replica_fail_fast() {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let cluster =
        NetCluster::start(NetConfig::new(NODES), move |id| CaesarReplica::new(id, caesar.clone()))
            .expect("cluster starts");
    cluster.stop_replica(NodeId(2));

    // The submission must be refused at submit time (or its ticket must
    // fail immediately) — never hang until the 60 s session timeout.
    let started = Instant::now();
    let outcome = match cluster.client(NodeId(2)).submit(Op::put(7, 1)) {
        Err(err) => Err(err),
        Ok(ticket) => ticket.wait_timeout(Duration::from_secs(30)),
    };
    let elapsed = started.elapsed();
    match outcome {
        Err(SessionError::Disconnected(reason)) => {
            assert!(
                reason.contains("down") || reason.contains("lost"),
                "unexpected disconnect reason: {reason}"
            );
        }
        other => panic!("expected a fast disconnect error, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "down-replica submission took {elapsed:?} — it must fail fast, not ride a timeout"
    );
    cluster.shutdown();
}
