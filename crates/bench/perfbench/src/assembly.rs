//! World assembly from the public constructors, and the `Probe` host
//! wrapper the traced run times every host call with.
//!
//! `kv_world` and `broker_world` repeat the assembly of `ClusterSim::new`
//! and `BrokerClusterSim::new` step for step (seed streams, topology
//! extension, per-node `RaftConfig`), so a world built here evolves
//! exactly like the one `ScenarioBuilder::build_sim` /
//! `build_broker_sim` returns; `tests::*_assembly_matches_*` pin that. Owning
//! the `World` gives the benchmark the client hosts (outstanding requests,
//! timeouts) and a hook on every call into a host.

use dynatune_broker::{shard_of_partition, BrokerCommand};
use dynatune_cluster::app::{App, BrokerApp, KvApp};
use dynatune_cluster::broker::BrokerHost;
use dynatune_cluster::{
    BrokerClient, BrokerConfig, ClientHost, ClusterConfig, ClusterHost, ClusterMsg, ReadStrategy,
    ServerHost,
};
use dynatune_kv::WorkloadGen;
use dynatune_raft::{NodeId, Payload, RaftConfig};
use dynatune_simnet::{Host, HostCtx, LinkSchedule, Network, Rng, SimTime, World};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Where a host call's wall time is booked. Server calls are keyed by the
/// message variant that arrived; every call into a client host is one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AppendEntries` at a follower: log append plus state-machine apply.
    Append,
    /// `AppendResp` at the leader: progress, commit, apply, replies.
    AppendResp,
    /// Heartbeats and their replies (the tuner's input).
    Heartbeat,
    /// `InstallSnapshot` at a lagging follower.
    Snapshot,
    /// Pre-vote and vote requests and replies.
    Vote,
    /// Client requests and batches arriving at a server.
    ClientReq,
    /// Forwarded ReadIndex requests and grants.
    ReadIndex,
    /// Server wake-ups: timers, group-commit flush, compaction.
    Wake,
    /// Any call into a client host.
    Client,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Append,
        Layer::AppendResp,
        Layer::Heartbeat,
        Layer::Snapshot,
        Layer::Vote,
        Layer::ClientReq,
        Layer::ReadIndex,
        Layer::Wake,
        Layer::Client,
    ];

    fn of<A: App>(msg: &ClusterMsg<A>) -> Layer {
        match msg {
            ClusterMsg::Raft(p) => match p {
                Payload::AppendEntries(_) => Layer::Append,
                Payload::AppendResp(_) => Layer::AppendResp,
                Payload::Heartbeat(_) | Payload::HeartbeatResp(_) => Layer::Heartbeat,
                Payload::InstallSnapshot(_) => Layer::Snapshot,
                Payload::RequestVote(_) | Payload::RequestVoteResp(_) => Layer::Vote,
            },
            ClusterMsg::ClientReq { .. } | ClusterMsg::ClientBatch { .. } => Layer::ClientReq,
            ClusterMsg::ReadIndexReq { .. } | ClusterMsg::ReadIndexResp { .. } => Layer::ReadIndex,
            // Servers never receive client-bound traffic; book it with the
            // client requests if a test injects some.
            ClusterMsg::ClientResp { .. } | ClusterMsg::ClientRedirect { .. } => Layer::ClientReq,
        }
    }
}

/// Wall time and call count per layer, plus the replication counters the
/// traced run reads off the messages it dispatches.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Nanoseconds per layer, indexed like [`Layer::ALL`].
    pub nanos: [u64; Layer::ALL.len()],
    /// Calls per layer, indexed like [`Layer::ALL`].
    pub calls: [u64; Layer::ALL.len()],
    /// `AppendEntries` messages delivered.
    pub appends: u64,
    /// Log entries those messages carried.
    pub entries: u64,
    /// Raft protocol messages delivered (any payload).
    pub raft_msgs: u64,
}

impl Tally {
    fn book(&mut self, layer: Layer, started: Instant) {
        let i = layer as usize;
        self.nanos[i] += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls[i] += 1;
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &Tally) {
        for i in 0..Layer::ALL.len() {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
        self.appends += other.appends;
        self.entries += other.entries;
        self.raft_msgs += other.raft_msgs;
    }

    /// Seconds booked to `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.nanos[layer as usize] as f64 * 1e-9
    }

    /// Calls booked to `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Seconds booked to every layer together.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// Produce requests seen leaving the broker client: first send instant
/// and shard per request id, and the instant each was acknowledged.
#[derive(Debug, Default)]
pub struct ProduceLog {
    shards: usize,
    open: BTreeMap<u64, (SimTime, usize)>,
    /// `(sent, acked, shard)` per acknowledged produce request.
    pub acked: Vec<(SimTime, SimTime, usize)>,
}

/// Request id of a successful client response.
fn ok_response<A: App>(msg: &ClusterMsg<A>) -> Option<u64> {
    match msg {
        ClusterMsg::ClientResp {
            req_id,
            result: Some(_),
        } => Some(*req_id),
        _ => None,
    }
}

/// Entries carried, if `msg` is an `AppendEntries`.
fn append_entries<A: App>(msg: &ClusterMsg<A>) -> Option<usize> {
    match msg {
        ClusterMsg::Raft(Payload::AppendEntries(ae)) => Some(ae.entries.len()),
        _ => None,
    }
}

/// Commands that may be produce requests.
pub trait ProduceTarget {
    /// The shard a produce command writes to; `None` for anything else.
    fn produce_shard(&self, shards: usize) -> Option<usize>;
}

impl ProduceTarget for dynatune_kv::KvCommand {
    fn produce_shard(&self, _shards: usize) -> Option<usize> {
        None
    }
}

impl ProduceTarget for BrokerCommand {
    fn produce_shard(&self, shards: usize) -> Option<usize> {
        match self {
            BrokerCommand::Produce {
                topic, partition, ..
            } => Some(shard_of_partition(topic, *partition, shards)),
            _ => None,
        }
    }
}

/// A host plus the benchmark's instruments. With both instruments off a
/// call goes straight through.
pub struct Probe<H> {
    /// The wrapped host.
    pub host: H,
    client: bool,
    /// Per-layer timing (traced run only).
    pub tally: Option<Box<Tally>>,
    /// Produce-request latency log (broker client only, both runs).
    pub produce: Option<Box<ProduceLog>>,
}

impl<H> Probe<H> {
    fn new(host: H, client: bool, traced: bool) -> Self {
        Self {
            host,
            client,
            tally: traced.then(Box::default),
            produce: None,
        }
    }
}

impl<A, H> Host for Probe<H>
where
    A: App,
    A::Command: ProduceTarget,
    H: Host<Msg = ClusterMsg<A>>,
{
    type Msg = ClusterMsg<A>;

    fn on_message(&mut self, ctx: &mut HostCtx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        let started = self.tally.as_mut().map(|tally| {
            if let Some(n) = append_entries(&msg) {
                tally.appends += 1;
                tally.entries += n as u64;
            }
            if matches!(msg, ClusterMsg::Raft(_)) {
                tally.raft_msgs += 1;
            }
            let layer = if self.client {
                Layer::Client
            } else {
                Layer::of(&msg)
            };
            (layer, Instant::now())
        });
        match self.produce.as_mut() {
            None => self.host.on_message(ctx, from, msg),
            Some(log) => {
                if let Some(id) = ok_response(&msg) {
                    if let Some((sent, shard)) = log.open.remove(&id) {
                        log.acked.push((sent, ctx.now, shard));
                    }
                }
                tap_sends(ctx, log, |sub| self.host.on_message(sub, from, msg));
            }
        }
        if let (Some(tally), Some((layer, t0))) = (self.tally.as_mut(), started) {
            tally.book(layer, t0);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_, Self::Msg>) {
        let t0 = Instant::now();
        match self.produce.as_mut() {
            None => self.host.on_wake(ctx),
            Some(log) => tap_sends(ctx, log, |sub| self.host.on_wake(sub)),
        }
        if let Some(tally) = self.tally.as_mut() {
            tally.book(
                if self.client {
                    Layer::Client
                } else {
                    Layer::Wake
                },
                t0,
            );
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.host.next_wake()
    }
}

/// Run `call` against a private outbox, note the produce requests in it,
/// then forward every message in order — the world sees the same sends.
fn tap_sends<A: App>(
    ctx: &mut HostCtx<'_, ClusterMsg<A>>,
    log: &mut ProduceLog,
    call: impl FnOnce(&mut HostCtx<'_, ClusterMsg<A>>),
) where
    A::Command: ProduceTarget,
{
    let mut out = Vec::new();
    call(&mut HostCtx::test_ctx(ctx.now, ctx.node, &mut out));
    for (to, channel, msg) in out {
        if let ClusterMsg::ClientReq { req_id, cmd } = &msg {
            if let Some(shard) = cmd.produce_shard(log.shards) {
                log.open.entry(*req_id).or_insert((ctx.now, shard));
            }
        }
        ctx.send(to, channel, msg);
    }
}

/// Server access common to the KV and broker host enums.
pub trait Node {
    /// The app the servers run.
    type App: App;
    /// The server inside, if this host is one.
    fn server(&self) -> Option<&ServerHost<Self::App>>;
    /// Mutable server access.
    fn server_mut(&mut self) -> Option<&mut ServerHost<Self::App>>;
}

impl Node for ClusterHost {
    type App = KvApp;
    fn server(&self) -> Option<&ServerHost<KvApp>> {
        match self {
            ClusterHost::Server(s) => Some(s),
            _ => None,
        }
    }
    fn server_mut(&mut self) -> Option<&mut ServerHost<KvApp>> {
        match self {
            ClusterHost::Server(s) => Some(s),
            _ => None,
        }
    }
}

impl Node for BrokerHost {
    type App = BrokerApp;
    fn server(&self) -> Option<&ServerHost<BrokerApp>> {
        match self {
            BrokerHost::Server(s) => Some(s),
            BrokerHost::Client(_) => None,
        }
    }
    fn server_mut(&mut self) -> Option<&mut ServerHost<BrokerApp>> {
        match self {
            BrokerHost::Server(s) => Some(s),
            BrokerHost::Client(_) => None,
        }
    }
}

/// A single-group KV world.
pub type KvWorld = World<Probe<ClusterHost>>;
/// A broker world.
pub type BrokerWorld = World<Probe<BrokerHost>>;

/// What the per-node `RaftConfig` takes from the cluster config.
struct NodeKnobs<'a> {
    tuning: dynatune_core::TuningConfig,
    pre_vote: bool,
    check_quorum: bool,
    quantization: dynatune_raft::TimerQuantization,
    udp_heartbeats: bool,
    read_strategy: ReadStrategy,
    pipeline_window: usize,
    max_batch_bytes: usize,
    max_batch_delay: Duration,
    max_entries_per_append: usize,
    seed_root: &'a Rng,
}

/// The knobs of a `ClusterConfig` or `BrokerConfig`: two types with the
/// same field names.
macro_rules! node_knobs {
    ($config:expr, $seed_root:expr) => {
        NodeKnobs {
            tuning: $config.tuning,
            pre_vote: $config.pre_vote,
            check_quorum: $config.check_quorum,
            quantization: $config.quantization,
            udp_heartbeats: $config.udp_heartbeats,
            read_strategy: $config.read_strategy,
            pipeline_window: $config.pipeline_window,
            max_batch_bytes: $config.max_batch_bytes,
            max_batch_delay: $config.max_batch_delay,
            max_entries_per_append: $config.max_entries_per_append,
            seed_root: $seed_root,
        }
    };
}

impl NodeKnobs<'_> {
    /// The per-node `RaftConfig` both sims derive, seeded from host `id`.
    fn raft_config(&self, mut rc: RaftConfig, id: NodeId) -> RaftConfig {
        rc.pre_vote = self.pre_vote;
        rc.check_quorum = self.check_quorum;
        rc.quantization = self.quantization;
        rc.udp_heartbeats = self.udp_heartbeats;
        rc.lease_reads = self.read_strategy == ReadStrategy::Lease;
        rc.pipeline_window = self.pipeline_window;
        rc.max_batch_bytes = self.max_batch_bytes;
        rc.max_batch_delay = self.max_batch_delay;
        rc.max_entries_per_append = self.max_entries_per_append;
        rc.seed = self.seed_root.child(id as u64).next_u64();
        rc
    }
}

/// Assemble the world `ClusterSim::new(config)` would, hosts wrapped.
///
/// # Panics
/// Panics without a workload (every benchmark world has a client) or
/// with spare servers (no workload here uses them).
pub fn kv_world(config: &ClusterConfig, traced: bool) -> KvWorld {
    assert_eq!(config.spare_servers, 0, "benchmark worlds have no spares");
    let spec = config
        .workload
        .as_ref()
        .expect("every KV workload has a client");
    let n = config.n;
    let master = Rng::new(config.seed);
    let topology = config
        .topology
        .extend_with(1, LinkSchedule::constant(config.client_link));
    let net = Network::new(n + 1, &master.child(1), config.congestion, |f, t| {
        topology.schedule(f, t)
    });
    let seed_root = master.child(2);
    let knobs = node_knobs!(config, &seed_root);
    let mut hosts: Vec<Probe<ClusterHost>> = (0..n)
        .map(|id| {
            let rc = knobs.raft_config(
                RaftConfig::with_peers(id, (0..n).collect(), knobs.tuning),
                id,
            );
            let server = ServerHost::new(rc, config.cost, config.cores, config.cpu_window)
                .with_compaction(config.compaction)
                .with_reads(config.read_strategy, config.follower_reads);
            Probe::new(ClusterHost::Server(Box::new(server)), false, traced)
        })
        .collect();
    let start = SimTime::ZERO + spec.start_offset;
    let gen = WorkloadGen::new(
        spec.steps.clone(),
        spec.mix,
        spec.key_space,
        spec.zipf_theta,
        spec.value_size,
        master.child(3),
        start,
    );
    let client = ClientHost::new(gen, n, start)
        .with_request_timeout(spec.request_timeout)
        .with_read_fanout(spec.read_fanout)
        .with_trace(spec.record_trace);
    hosts.push(Probe::new(
        ClusterHost::Client(Box::new(client)),
        true,
        traced,
    ));
    World::new(hosts, net)
}

/// Assemble the world `BrokerClusterSim::new(config)` would, hosts
/// wrapped and the client's produce requests logged.
///
/// # Panics
/// Panics without a workload.
pub fn broker_world(config: &BrokerConfig, traced: bool) -> BrokerWorld {
    let wl = config
        .workload
        .as_ref()
        .expect("the broker workload has a client");
    let map = config.map;
    let n = map.n_servers();
    let master = Rng::new(config.seed);
    let topology = config
        .topology
        .extend_with(1, LinkSchedule::constant(config.client_link));
    let net = Network::new(n + 1, &master.child(1), config.congestion, |f, t| {
        topology.schedule(f, t)
    });
    let seed_root = master.child(2);
    let knobs = node_knobs!(config, &seed_root);
    let mut hosts = Vec::with_capacity(n + 1);
    for shard in 0..map.shards() {
        for replica in 0..map.replicas() {
            let id = map.server(shard, replica);
            let rc = knobs.raft_config(RaftConfig::new(replica, map.replicas(), knobs.tuning), id);
            let server = ServerHost::new(rc, config.cost, config.cores, config.cpu_window)
                .with_peer_base(map.group_base(shard))
                .with_compaction(config.compaction)
                .with_reads(config.read_strategy, config.follower_reads);
            hosts.push(Probe::new(
                BrokerHost::Server(Box::new(server)),
                false,
                traced,
            ));
        }
    }
    let mut client = Probe::new(
        BrokerHost::Client(Box::new(BrokerClient::new(wl, map))),
        true,
        traced,
    );
    client.produce = Some(Box::new(ProduceLog {
        shards: map.shards(),
        ..ProduceLog::default()
    }));
    hosts.push(client);
    World::new(hosts, net)
}

/// The server behind host `id`.
///
/// # Panics
/// Panics when `id` is the client.
pub fn server<H: Node>(world: &World<Probe<H>>, id: NodeId) -> &ServerHost<H::App>
where
    Probe<H>: Host,
{
    world
        .host(id)
        .host
        .server()
        .expect("server ids precede the client")
}

/// Crash-restart server `id` the way the sims' `crash` does.
pub fn crash<H: Node>(world: &mut World<Probe<H>>, id: NodeId)
where
    Probe<H>: Host,
{
    world.clear_pause_buffer(id);
    let now = world.now();
    world
        .host_mut(id)
        .host
        .server_mut()
        .expect("faults target servers")
        .crash_restart(now);
    world.reschedule_wake(id);
}

/// Zero every host's timing, so a traced run books only its measured
/// window and not the set-up before it.
pub fn reset_tallies<H>(world: &mut World<Probe<H>>)
where
    Probe<H>: Host,
{
    for id in 0..world.len() {
        if let Some(t) = world.host_mut(id).tally.as_mut() {
            **t = Tally::default();
        }
    }
}
