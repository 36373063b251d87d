//! Transport-level integration tests: reconnect to late-starting peers, WAN
//! emulation through the delay shim, outbox batching, the external
//! TCP client protocol (`ClientRequest`/`ClientReply` framing, reconnect,
//! and abort-on-shutdown), frame-corruption and stray-shutdown teardown,
//! and crash/restart of a live replica on its original address.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::{ClusterHandle, Op, SessionError};
use consensus_types::{
    Command, CommandId, Decision, DecisionPath, LatencyBreakdown, NodeId, Timestamp,
};
use net::{DelayShim, NetCluster, NetConfig, NetReplica, NetReplicaConfig, ReplicaClient};
use simnet::{Context, LatencyMatrix, Process};

/// A minimal process: broadcasts each client command's value to the other
/// replicas and records every peer message it receives.
struct Relay {
    seen: Arc<Mutex<Vec<(NodeId, u64)>>>,
}

impl Process for Relay {
    type Message = u64;

    fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, u64>) {
        ctx.broadcast_others(cmd.value());
    }

    fn on_message(&mut self, from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
        self.seen.lock().expect("seen lock").push((from, msg));
    }
}

/// A one-node "protocol": every client command executes on submission.
struct Echo;

impl Process for Echo {
    type Message = u64;

    fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, u64>) {
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

    fn on_message(&mut self, _: NodeId, _: u64, _: &mut Context<'_, u64>) {}
}

/// Grabs an OS-assigned loopback port and releases it, so a replica can be
/// started on a *known* address later than its peers.
fn reserve_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    listener.local_addr().expect("reserved addr")
}

#[test]
fn writer_reconnects_to_a_late_starting_peer() {
    let late_addr = reserve_addr();

    // Replica 0 comes up immediately with an address book that points at a
    // port nobody is listening on yet.
    let seen0 = Arc::new(Mutex::new(Vec::new()));
    let mut early = NetReplica::spawn(
        NetReplicaConfig::loopback(NodeId(0), 2),
        Relay { seen: Arc::clone(&seen0) },
    )
    .expect("early replica binds");
    let early_addr = early.local_addr();
    early.start(vec![early_addr, late_addr]);

    // A client command makes replica 0 broadcast while its only peer is still
    // down; the writer thread must retry until the peer appears.
    early
        .mailbox()
        .send(net::WireMessage::ClientRequest {
            cmd: Command::put(CommandId::new(NodeId(0), 1), 1, 42),
        })
        .expect("local submit");
    std::thread::sleep(Duration::from_millis(150));

    // Now the late replica binds the reserved address and joins.
    let seen1 = Arc::new(Mutex::new(Vec::new()));
    let mut config = NetReplicaConfig::loopback(NodeId(1), 2);
    config.bind = late_addr;
    let mut late =
        NetReplica::spawn(config, Relay { seen: Arc::clone(&seen1) }).expect("late replica binds");
    late.start(vec![early_addr, late_addr]);

    // A second command proves the link; the first may or may not have been
    // queued long enough — both are fine, reconnect just has to deliver one.
    early
        .mailbox()
        .send(net::WireMessage::ClientRequest {
            cmd: Command::put(CommandId::new(NodeId(0), 2), 1, 43),
        })
        .expect("local submit");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let seen = seen1.lock().expect("seen lock").clone();
        if seen.iter().any(|&(from, value)| from == NodeId(0) && value >= 42) {
            break;
        }
        assert!(Instant::now() < deadline, "late replica never heard from the early one: {seen:?}");
        std::thread::sleep(Duration::from_millis(5));
    }

    assert!(early.stats().connects.get() >= 1, "early replica never established the outbound link");
    early.shutdown();
    late.shutdown();
}

#[test]
fn delay_shim_emulates_wan_latency_on_loopback() {
    // 40 ms RTT everywhere → 20 ms one-way; a fast decision needs two
    // communication delays, so no command can finish in under ~40 ms even
    // though the sockets are loopback.
    let shim = DelayShim::new(LatencyMatrix::uniform(3, 40.0), 1.0);
    let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
    let cluster = NetCluster::start(NetConfig::new(3).with_delay(shim), move |id| {
        CaesarReplica::new(id, caesar.clone())
    })
    .expect("cluster starts");

    cluster
        .submit(NodeId(0), Command::put(CommandId::new(NodeId(0), 1), 5, 1))
        .expect("submit over TCP");
    let decisions = cluster.wait_for_decisions(NodeId(0), 1, Duration::from_secs(20));
    assert_eq!(decisions.len(), 1);
    let latency_us = decisions[0].latency();
    assert!(
        latency_us >= 35_000,
        "decision latency {latency_us} µs is below the emulated 2×20 ms WAN floor"
    );
    assert!(
        latency_us < 2_000_000,
        "decision latency {latency_us} µs is wildly above the emulated WAN"
    );
    cluster.shutdown();
}

#[test]
fn external_client_gets_read_your_writes_and_survives_reconnect() {
    let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
    let cluster =
        NetCluster::start(NetConfig::new(3), move |id| CaesarReplica::new(id, caesar.clone()))
            .expect("cluster starts");
    let addr = cluster.addr(NodeId(1));

    // An "external" client: a fresh TCP connection speaking only the wire
    // protocol (ClientRequest frames out, ClientReply events back).
    let client = ReplicaClient::connect(addr, NodeId(1), 10_000).expect("client connects");
    let write = client.put(7, 42).expect("write replies");
    assert_eq!(write.node, NodeId(1));
    let read = client.get(7).expect("read replies");
    assert_eq!(read.output, Some(42), "the read must observe the write");
    let resume_from = client.last_seq();
    client.shutdown();

    // Reconnect (same replica, disjoint sequence range) and read again: the
    // replica's state machine survived the client connection.
    let client = ReplicaClient::connect(addr, NodeId(1), resume_from).expect("client reconnects");
    let read = client.get(7).expect("read after reconnect replies");
    assert_eq!(read.output, Some(42), "state must survive a client reconnect");
    client.shutdown();
    cluster.shutdown();
}

#[test]
fn session_clients_submit_through_the_cluster_handle_over_tcp() {
    let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
    let cluster =
        NetCluster::start(NetConfig::new(3), move |id| CaesarReplica::new(id, caesar.clone()))
            .expect("cluster starts");
    let client = cluster.client(NodeId(0));
    let write = client.submit(Op::put(5, 9)).expect("submits").wait().expect("replies");
    assert_eq!(write.node, NodeId(0));
    let read = client.submit(Op::get(5)).expect("submits").wait().expect("replies");
    assert_eq!(read.output, Some(9));
    cluster.shutdown();
}

#[test]
fn tickets_fail_instead_of_hanging_when_the_cluster_shuts_down_mid_run() {
    let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
    let cluster =
        NetCluster::start(NetConfig::new(3), move |id| CaesarReplica::new(id, caesar.clone()))
            .expect("cluster starts");
    // Take down a quorum so new commands can never commit, then submit.
    cluster.stop_replica(NodeId(1));
    cluster.stop_replica(NodeId(2));
    std::thread::sleep(Duration::from_millis(100));
    let ticket = cluster.client(NodeId(0)).submit(Op::put(1, 1)).expect("submits");
    let waiter = std::thread::spawn(move || ticket.wait_timeout(Duration::from_secs(30)));
    std::thread::sleep(Duration::from_millis(100));
    cluster.shutdown();
    match waiter.join().expect("waiter thread") {
        Err(SessionError::Disconnected(_)) => {}
        other => panic!("expected a disconnect error, got {other:?}"),
    }
}

#[test]
fn corrupt_frames_tear_down_the_connection_and_are_counted() {
    use std::io::{Read as _, Write as _};

    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut replica = NetReplica::spawn(
        NetReplicaConfig::loopback(NodeId(0), 1),
        Relay { seen: Arc::clone(&seen) },
    )
    .expect("replica binds");
    let addr = replica.local_addr();
    replica.start(vec![addr]);

    // A raw socket sends a frame whose length prefix is valid but whose
    // payload was flipped in flight: only the CRC-32 can catch it.
    let mut framed = net::wire::frame_bytes(&net::WireMessage::<u64>::Hello { from: NodeId(9) })
        .expect("frame encodes");
    let last = framed.len() - 1;
    framed[last] ^= 0x40;
    let mut sock = std::net::TcpStream::connect(addr).expect("client connects");
    sock.write_all(&framed).expect("corrupt frame sent");

    // The replica must sever the connection (EOF on our side) …
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
    let mut buf = [0u8; 16];
    match sock.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("replica kept talking on a poisoned stream ({n} bytes)"),
        Err(err) => panic!("expected clean EOF, got {err}"),
    }
    // … and account the corruption.
    assert_eq!(replica.stats().corrupt_frames.get(), 1);

    // A healthy connection afterwards still works: the replica survived.
    let mut sock = std::net::TcpStream::connect(addr).expect("reconnect");
    let clean = net::wire::frame_bytes(&net::WireMessage::<u64>::Hello { from: NodeId(9) })
        .expect("frame encodes");
    sock.write_all(&clean).expect("clean frame sent");
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.stats().frames_received.get() == 0 {
        assert!(Instant::now() < deadline, "replica never decoded the clean frame");
        std::thread::sleep(Duration::from_millis(5));
    }
    replica.shutdown();
}

#[test]
fn a_shutdown_frame_from_a_connection_does_not_stop_the_replica() {
    use std::io::{Read as _, Write as _};

    let mut replica =
        NetReplica::spawn(NetReplicaConfig::loopback(NodeId(0), 1), Echo).expect("replica binds");
    let addr = replica.local_addr();
    replica.start(vec![addr]);
    let client = ReplicaClient::connect(addr, NodeId(0), 0).expect("client connects");
    assert_eq!(client.put(1, 5).expect("write replies").node, NodeId(0));

    // `Shutdown` belongs to the replica's own mailbox; a raw connection that
    // sends it gets torn down instead of stopping the replica.
    let mut sock = std::net::TcpStream::connect(addr).expect("raw socket connects");
    let frame = net::wire::frame_bytes(&net::WireMessage::<u64>::Shutdown).expect("encodes");
    sock.write_all(&frame).expect("shutdown frame sent");
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
    let mut buf = [0u8; 16];
    match sock.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("replica kept talking after a stray shutdown frame ({n} bytes)"),
        Err(err) => panic!("expected clean EOF, got {err}"),
    }

    // The replica still serves the existing client and accepts new ones.
    let read = client.get(1).expect("the existing client still gets replies");
    assert_eq!(read.output, Some(5));
    let fresh = ReplicaClient::connect(addr, NodeId(0), 1_000).expect("new connections accepted");
    assert_eq!(fresh.get(1).expect("a new client gets replies").output, Some(5));
    fresh.shutdown();
    client.shutdown();
    replica.shutdown();
}

#[test]
fn killed_replica_restarts_on_its_address_and_rejoins() {
    const NODES: usize = 5;
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let make = {
        let caesar = caesar.clone();
        move |id| CaesarReplica::new(id, caesar.clone())
    };
    let mut cluster = NetCluster::start(NetConfig::new(NODES), make).expect("cluster starts");
    let crash_node = NodeId(4);
    let crash_addr = cluster.addr(crash_node);

    // Pre-crash traffic: every reply awaited, so all of it is committed
    // before the crash (distinct keys keep dependencies empty, which lets
    // the fresh post-restart replica execute later commands immediately).
    for i in 0..5u64 {
        let reply = cluster
            .client(NodeId(0))
            .submit(Op::put(100 + i, i))
            .expect("submits")
            .wait_timeout(Duration::from_secs(30))
            .expect("replies before the crash");
        assert_eq!(reply.node, NodeId(0));
    }

    // Crash: the replica goes away mid-run; the remaining four keep quorum.
    cluster.stop_replica(crash_node);
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..5u64 {
        cluster
            .client(NodeId(1))
            .submit(Op::put(200 + i, i))
            .expect("submits during downtime")
            .wait_timeout(Duration::from_secs(30))
            .expect("quorum of four still decides");
    }

    // Restart on the **same address** with a fresh process; surviving peers
    // re-dial it through their reconnect backoff.
    let executed_before_restart = cluster.decisions(crash_node).len();
    cluster
        .restart_replica(crash_node, CaesarReplica::new(crash_node, caesar.clone()))
        .expect("replica restarts on its old address");
    assert_eq!(cluster.addr(crash_node), crash_addr, "restart must reuse the address");

    // Replies resume for commands submitted at a survivor …
    for i in 0..5u64 {
        cluster
            .client(NodeId(0))
            .submit(Op::put(300 + i, i))
            .expect("submits after restart")
            .wait_timeout(Duration::from_secs(30))
            .expect("replies resume after restart");
    }
    // … the restarted replica rejoins execution (its decision stream grows
    // with the post-restart commands) …
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let executed = cluster.decisions(crash_node).len();
        if executed >= executed_before_restart + 5 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "restarted replica stuck at {executed} of {} executions",
            executed_before_restart + 5
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // … and it serves external clients again, end to end through itself.
    let client =
        ReplicaClient::connect(crash_addr, crash_node, 900_000).expect("client reaches restart");
    let write = client.put(400, 7).expect("write through the restarted replica");
    assert_eq!(write.node, crash_node);
    let read = client.get(400).expect("read through the restarted replica");
    assert_eq!(read.output, Some(7), "read-your-writes at the restarted replica");
    client.shutdown();
    cluster.shutdown();
}

#[test]
fn requests_during_restore_fail_fast_with_an_abort() {
    // A replica started in catch-up mode whose peers are all unreachable
    // stays in the *restoring* state until its catch-up timeout. Client
    // requests submitted meanwhile must be answered with an immediate
    // Reply-level error — not parked until the 60 s session timeout.
    let dead_peer_a = reserve_addr();
    let dead_peer_b = reserve_addr();
    let mut config = NetReplicaConfig::loopback(NodeId(0), 3);
    config.catch_up = true;
    config.catch_up_timeout = Duration::from_secs(30);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut replica =
        NetReplica::spawn(config, Relay { seen: Arc::clone(&seen) }).expect("replica binds");
    let addr = replica.local_addr();
    replica.start(vec![addr, dead_peer_a, dead_peer_b]);

    let client = ReplicaClient::connect(addr, NodeId(0), 0).expect("client connects");
    let started = Instant::now();
    match client.put(1, 1) {
        Err(SessionError::Disconnected(reason)) => {
            assert!(reason.contains("restoring"), "unexpected abort reason: {reason}");
        }
        other => panic!("expected a restoring abort, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the abort took {:?} — restoring replicas must fail requests immediately",
        started.elapsed()
    );
    client.shutdown();
    replica.shutdown();
}

#[test]
fn peer_writers_batch_bursts_into_fewer_flushes() {
    let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
    let cluster =
        NetCluster::start(NetConfig::new(3), move |id| CaesarReplica::new(id, caesar.clone()))
            .expect("cluster starts");
    // A burst of non-conflicting commands: many frames per link, queued
    // back-to-back, so writers get the chance to flush several per wakeup.
    for i in 0..60u64 {
        let origin = NodeId::from_index((i % 3) as usize);
        cluster
            .submit(origin, Command::put(CommandId::new(origin, i + 1), 1_000 + i, i))
            .expect("submit over TCP");
    }
    let per_node = cluster.wait_for_all(60, Duration::from_secs(30));
    for decisions in &per_node {
        assert_eq!(decisions.len(), 60);
    }
    let (sent, _, dropped) = cluster.transport_totals();
    let batches = cluster.batches_flushed();
    assert_eq!(dropped, 0);
    assert!(batches > 0, "writers must account their flushes");
    assert!(batches <= sent, "a flush writes at least one frame (sent {sent}, batches {batches})");
    assert!(
        cluster.writev_flushes() > 0,
        "a burst of {sent} frames across {batches} flushes must have gathered \
         at least one multi-frame writev"
    );
    cluster.shutdown();
}
