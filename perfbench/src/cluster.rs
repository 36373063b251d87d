//! Brings a CAESAR cluster up the way `consensus_node` deploys it — one
//! `NetReplica` per replica, spawned then started with the address book,
//! no decision-stream subscriber — and connects one `ReplicaClient` to each
//! replica.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::Op;
use consensus_core::BatchConfig;
use consensus_types::NodeId;
use net::{DelayShim, FsyncPolicy, NetReplica, NetReplicaConfig, ReplicaClient};
use simnet::LatencyMatrix;

use crate::workloads::Spec;

pub struct Cluster {
    pub replicas: Vec<NetReplica<CaesarReplica>>,
    pub clients: Vec<ReplicaClient>,
    data_dir: Option<PathBuf>,
}

/// Replica configuration for `spec`. CAESAR's recovery timeout is off, as
/// in `consensus_node`: no replica fails during a run.
fn replica_config(
    spec: &Spec,
    index: usize,
    epoch: Instant,
    data: Option<&Path>,
) -> NetReplicaConfig {
    let id = NodeId::from_index(index);
    let mut config = NetReplicaConfig::loopback(id, spec.nodes);
    config.epoch = epoch;
    config.delay =
        spec.wan_scale.map(|scale| DelayShim::new(LatencyMatrix::ec2_five_sites(), scale));
    config.batch = BatchConfig { max_batch: spec.max_batch, ..BatchConfig::disabled() };
    config.exec_workers = spec.exec_workers;
    config.data_dir = data.map(|root| root.join(format!("replica-{index}")));
    config.fsync = FsyncPolicy::PerBatch;
    config
}

impl Cluster {
    /// Spawns and starts every replica, connects the clients, and sends
    /// one no-op through each replica. Returns the cluster and the
    /// seconds from the first spawn until the last of those replies.
    pub fn start(spec: &Spec, data_root: &Path, attempt: usize) -> Result<(Self, f64), String> {
        let started = Instant::now();
        let data_dir = spec.durable.then(|| data_root.join(format!("cluster-{attempt}")));
        let caesar = CaesarConfig::new(spec.nodes).with_recovery_timeout(None);
        let epoch = Instant::now();
        let mut replicas = Vec::with_capacity(spec.nodes);
        for index in 0..spec.nodes {
            let config = replica_config(spec, index, epoch, data_dir.as_deref());
            let process = CaesarReplica::new(NodeId::from_index(index), caesar.clone());
            let replica = NetReplica::spawn(config, process)
                .map_err(|err| format!("replica {index} failed to spawn: {err}"))?;
            replicas.push(replica);
        }
        let addrs: Vec<SocketAddr> = replicas.iter().map(NetReplica::local_addr).collect();
        for replica in &mut replicas {
            replica.start(addrs.clone());
        }
        let mut cluster = Self { replicas, clients: Vec::new(), data_dir };
        for (index, &addr) in addrs.iter().enumerate() {
            let client = ReplicaClient::connect(addr, NodeId::from_index(index), 0)
                .map_err(|err| format!("client of replica {index} failed to connect: {err}"))?;
            cluster.clients.push(client);
        }
        let tickets = cluster
            .clients
            .iter()
            .map(|client| client.submit(Op::noop()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|err| format!("first command refused: {err}"))?;
        for ticket in tickets {
            ticket
                .wait_timeout(Duration::from_secs(30))
                .map_err(|err| format!("first command of {} failed: {err}", ticket.node()))?;
        }
        Ok((cluster, started.elapsed().as_secs_f64()))
    }

    /// Waits until every replica has applied the same number of commands
    /// and holds the same state. Returns how many replicas disagree with
    /// replica 0 at the deadline (0 when the cluster converged).
    pub fn converge(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            let states: Vec<(u64, u64)> = self
                .replicas
                .iter()
                .map(|r| (r.applied_through(), r.state_fingerprint()))
                .collect();
            let disagree = states.iter().filter(|&&s| s != states[0]).count();
            if disagree == 0 || Instant::now() >= deadline {
                if disagree > 0 {
                    eprintln!("replica states at the deadline (applied, fingerprint): {states:?}");
                }
                return disagree;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Closes every client, stops every replica and joins all their
    /// threads, then deletes the cluster's data directory.
    pub fn stop(self) {
        for client in self.clients {
            client.shutdown();
        }
        for replica in self.replicas {
            replica.shutdown();
        }
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
