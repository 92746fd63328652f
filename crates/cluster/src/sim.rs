//! Cluster assembly and simulation driver: the one [`Cluster`] type every
//! app and shard count runs on, and the single-group KV config.

use crate::app::{App, KvApp};
use crate::client::{ClientHost, OpRecord, StepRecord};
use crate::cpu::CostModel;
use crate::msg::ClusterMsg;
use crate::server::{CompactionPolicy, ReadCounters, ReadStrategy, ServerHost};
use crate::sharded::ShardedConfig;
use dynatune_core::{invariant_violated, TuningConfig, TuningSnapshot};
use dynatune_kv::{OpMix, RateStep, ShardId, ShardMap, WorkloadGen};
use dynatune_raft::{
    ConfChange, Membership, NodeId, RaftConfig, RaftEvent, Role, TimerQuantization,
};
use dynatune_simnet::{
    CongestionConfig, Host, HostCtx, LinkSchedule, NetParams, Network, Rng, SimTime, Topology,
    World,
};
use std::time::Duration;

/// Client workload specification.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Offered-load schedule.
    pub steps: Vec<RateStep>,
    /// Operation mix.
    pub mix: OpMix,
    /// Number of distinct keys.
    pub key_space: usize,
    /// Zipf skew (0 = uniform).
    pub zipf_theta: f64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Delay before the first arrival (lets the cluster elect a leader).
    pub start_offset: Duration,
    /// Client-side response timeout (`None` disables retries-on-silence).
    pub request_timeout: Option<Duration>,
    /// Spread reads round-robin over all servers (follower-read offload);
    /// writes still chase the leader.
    pub read_fanout: bool,
    /// Record completed `Get`/`Put` operations for linearizability checks
    /// (see [`Cluster::client_trace`]).
    pub record_trace: bool,
}

impl WorkloadSpec {
    /// A steady-rate workload.
    #[must_use]
    pub fn steady(rps: f64, hold: Duration) -> Self {
        Self {
            steps: vec![RateStep { rps, hold }],
            mix: OpMix::write_heavy(),
            key_space: 10_000,
            zipf_theta: 0.99,
            value_size: 128,
            start_offset: Duration::ZERO,
            request_timeout: Some(Duration::from_secs(1)),
            read_fanout: false,
            record_trace: false,
        }
    }

    /// Builder: delay the workload start.
    #[must_use]
    pub fn starting_at(mut self, offset: Duration) -> Self {
        self.start_offset = offset;
        self
    }

    /// Builder: set the operation mix.
    #[must_use]
    pub fn mix(mut self, mix: OpMix) -> Self {
        self.mix = mix;
        self
    }

    /// Builder: spread reads round-robin over all servers.
    #[must_use]
    pub fn fanout_reads(mut self) -> Self {
        self.read_fanout = true;
        self
    }

    /// Builder: record the client's operation trace.
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Builder: override (or disable) the response timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// The arrival generator this spec describes, drawing from `seed`.
    pub(crate) fn generator(&self, seed: Rng) -> WorkloadGen {
        WorkloadGen::new(
            self.steps.clone(),
            self.mix,
            self.key_space,
            self.zipf_theta,
            self.value_size,
            seed,
            SimTime::ZERO + self.start_offset,
        )
    }
}

/// Full description of one simulated cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of genesis Raft voters.
    pub n: usize,
    /// Extra outsider servers beyond the genesis voters. Spares share the
    /// fabric from t=0 but belong to no quorum and never campaign; they
    /// join live through replicated configuration changes
    /// ([`Cluster::propose_conf_change`]). The topology must cover
    /// `n + spare_servers` hosts.
    pub spare_servers: usize,
    /// Tuning mode + parameters (selects Raft / Raft-Low / Fix-K / Dynatune).
    pub tuning: TuningConfig,
    /// Server-to-server network topology (must have exactly `n` nodes).
    pub topology: Topology,
    /// Congestion-burst model applied per egress.
    pub congestion: CongestionConfig,
    /// Election-timer quantization.
    pub quantization: TimerQuantization,
    /// Heartbeats over UDP (the paper's hybrid transport) or TCP (ablation).
    pub udp_heartbeats: bool,
    /// Pre-vote enabled (etcd default: yes).
    pub pre_vote: bool,
    /// Check-quorum enabled (etcd default: yes).
    pub check_quorum: bool,
    /// §IV-E extension 1: suppress heartbeats while replicating.
    pub suppress_heartbeats: bool,
    /// §IV-E extension 2: single consolidated heartbeat timer.
    pub consolidated_timer: bool,
    /// CPU cost model.
    pub cost: CostModel,
    /// Log-compaction policy (threshold + retained tail).
    pub compaction: CompactionPolicy,
    /// How servers serve linearizable reads (log vs lease/ReadIndex).
    pub read_strategy: ReadStrategy,
    /// Followers answer forwarded reads locally (log-free strategies).
    pub follower_reads: bool,
    /// Max unacked appends in flight per follower (1 = ping-pong).
    pub pipeline_window: usize,
    /// Group-commit byte cap: buffered proposals flush once this many
    /// payload bytes accumulate.
    pub max_batch_bytes: usize,
    /// Group-commit latency cap: buffered proposals flush at most this
    /// long after the first one arrives.
    pub max_batch_delay: Duration,
    /// Hard cap on entries carried by a single `AppendEntries`.
    pub max_entries_per_append: usize,
    /// Cores per server (paper: 4 for Figs. 4–6, 2 for Fig. 7).
    pub cores: usize,
    /// Utilization sampling window (paper: 5 s).
    pub cpu_window: Duration,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Optional client workload (adds one client node to the fabric).
    pub workload: Option<WorkloadSpec>,
    /// Network parameters of client↔server links.
    pub client_link: NetParams,
}

impl ClusterConfig {
    /// A stable-network cluster matching the paper's §IV-A setup: `n`
    /// servers, uniform RTT, no loss, 4 cores each.
    #[must_use]
    pub fn stable(n: usize, tuning: TuningConfig, rtt: Duration, seed: u64) -> Self {
        // "Without intentionally introducing jitter" (§IV-B) — still a real
        // kernel/bridge, so a small residual jitter remains.
        let params = NetParams::clean(rtt).with_jitter(0.02);
        Self {
            n,
            spare_servers: 0,
            tuning,
            topology: Topology::uniform_constant(n, params),
            congestion: CongestionConfig::disabled(),
            quantization: TimerQuantization::Tick,
            udp_heartbeats: true,
            pre_vote: true,
            check_quorum: true,
            suppress_heartbeats: false,
            consolidated_timer: false,
            cost: CostModel::default(),
            compaction: CompactionPolicy::default(),
            read_strategy: ReadStrategy::default(),
            follower_reads: true,
            // Replication defaults mirror `RaftConfig::new` (etcd-style
            // pipelining on, generous batches).
            pipeline_window: 4,
            max_batch_bytes: 64 * 1024,
            max_batch_delay: Duration::from_millis(1),
            max_entries_per_append: 8192,
            cores: 4,
            cpu_window: Duration::from_secs(5),
            seed,
            workload: None,
            client_link: NetParams::lan(),
        }
    }

    /// Attach a client workload.
    #[must_use]
    pub fn with_workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// These knobs over the placement `map` plus `spares` (the shard each
    /// spare joins), with `workload` as the client workload.
    pub(crate) fn place<W>(
        &self,
        map: ShardMap,
        spares: Vec<ShardId>,
        workload: Option<W>,
    ) -> ShardedConfig<W> {
        ShardedConfig {
            map,
            spares,
            tuning: self.tuning,
            topology: self.topology.clone(),
            congestion: self.congestion,
            quantization: self.quantization,
            udp_heartbeats: self.udp_heartbeats,
            pre_vote: self.pre_vote,
            check_quorum: self.check_quorum,
            suppress_heartbeats: self.suppress_heartbeats,
            consolidated_timer: self.consolidated_timer,
            cost: self.cost,
            compaction: self.compaction,
            read_strategy: self.read_strategy,
            follower_reads: self.follower_reads,
            pipeline_window: self.pipeline_window,
            max_batch_bytes: self.max_batch_bytes,
            max_batch_delay: self.max_batch_delay,
            max_entries_per_append: self.max_entries_per_append,
            cores: self.cores,
            cpu_window: self.cpu_window,
            seed: self.seed,
            workload,
            client_link: self.client_link,
        }
    }
}

/// A node in the simulated world: server or benchmark client.
pub enum ClusterHost {
    /// A Raft/KV server.
    Server(Box<ServerHost>),
    /// An open-loop client.
    Client(Box<ClientHost>),
    /// A shard-aware open-loop client (multi-group worlds).
    ShardClient(Box<crate::shard_client::ShardClient>),
}

impl Host for ClusterHost {
    type Msg = ClusterMsg;

    fn on_message(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>, from: usize, msg: ClusterMsg) {
        match self {
            ClusterHost::Server(s) => s.handle_message(ctx, from, msg),
            ClusterHost::Client(c) => c.handle_message(ctx, from, msg),
            ClusterHost::ShardClient(c) => c.handle_message(ctx, from, msg),
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        match self {
            ClusterHost::Server(s) => s.handle_wake(ctx),
            ClusterHost::Client(c) => c.handle_wake(ctx),
            ClusterHost::ShardClient(c) => c.handle_wake(ctx),
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        match self {
            ClusterHost::Server(s) => s.wake_deadline(),
            ClusterHost::Client(c) => c.wake_deadline(),
            ClusterHost::ShardClient(c) => c.wake_deadline(),
        }
    }
}

impl AppHost for ClusterHost {
    type App = KvApp;

    fn server(&self) -> Option<&ServerHost> {
        match self {
            ClusterHost::Server(s) => Some(s),
            _ => None,
        }
    }

    fn server_mut(&mut self) -> Option<&mut ServerHost> {
        match self {
            ClusterHost::Server(s) => Some(s),
            _ => None,
        }
    }

    fn from_server(server: ServerHost) -> Self {
        ClusterHost::Server(Box::new(server))
    }
}

/// A world host serving one [`App`]: one of its servers or a client.
/// [`Cluster`] reaches its servers, and the assembly builds them, through
/// this.
pub trait AppHost: Host + Sized {
    /// The app the servers run.
    type App: App;
    /// The server inside, if this host is one.
    fn server(&self) -> Option<&ServerHost<Self::App>>;
    /// Mutable server access.
    fn server_mut(&mut self) -> Option<&mut ServerHost<Self::App>>;
    /// Wrap a freshly assembled server.
    fn from_server(server: ServerHost<Self::App>) -> Self;
}

/// A config [`Cluster::new`] can build from. The config type picks the
/// client: [`ClusterConfig`] attaches a [`ClientHost`], a sharded KV config
/// a [`ShardClient`](crate::ShardClient) and a
/// [`BrokerConfig`](crate::BrokerConfig) a
/// [`BrokerClient`](crate::BrokerClient).
pub trait ClusterSpec {
    /// The host type of the world it builds.
    type Host: AppHost;
    /// Build the cluster.
    fn assemble(&self) -> Cluster<Self::Host>;
}

impl ClusterSpec for ClusterConfig {
    type Host = ClusterHost;

    fn assemble(&self) -> Cluster<ClusterHost> {
        let n_servers = self.n + self.spare_servers;
        let map = ShardMap::new(1, self.n);
        let grouped = self.place(map, vec![0; self.spare_servers], self.workload.as_ref());
        grouped.assemble_with(|spec, seed| {
            let start = SimTime::ZERO + spec.start_offset;
            ClusterHost::Client(Box::new(
                ClientHost::new(spec.generator(seed), n_servers, start)
                    .with_request_timeout(spec.request_timeout)
                    .with_read_fanout(spec.read_fanout)
                    .with_trace(spec.record_trace),
            ))
        })
    }
}

impl<W> ShardedConfig<W> {
    /// The one assembly routine every cluster goes through. Server hosts
    /// come first: the mapped replica blocks, then the spares; the client
    /// built by `client` from the workload and its seed, if any, is last.
    /// Seeds: the net draws from `child(1)` of the master seed, server
    /// `id` from `child(2).child(id)` and the workload from `child(3)`.
    ///
    /// # Panics
    /// Panics when the topology does not cover exactly the servers.
    pub(crate) fn assemble_with<H: AppHost>(
        &self,
        client: impl FnOnce(&W, Rng) -> H,
    ) -> Cluster<H> {
        let map = self.map;
        let n_servers = map.n_servers() + self.spares.len();
        assert_eq!(
            self.topology.len(),
            n_servers,
            "topology must cover exactly the servers (mapped replicas + spares)"
        );
        let master = Rng::new(self.seed);
        let n_total = n_servers + usize::from(self.workload.is_some());
        let topology = if self.workload.is_some() {
            self.topology
                .extend_with(1, LinkSchedule::constant(self.client_link))
        } else {
            self.topology.clone()
        };
        let net = Network::new(n_total, &master.child(1), self.congestion, |f, t| {
            topology.schedule(f, t)
        });
        let seed_root = master.child(2);
        let mut hosts: Vec<H> = (0..n_servers)
            .map(|id| {
                // A spare speaks its shard's group-local protocol but is not
                // a genesis voter: it idles until a conf change admits it.
                let shard = map
                    .shard_of_server(id)
                    .unwrap_or_else(|| self.spares[id - map.n_servers()]);
                let base = map.group_base(shard);
                let voters = (0..map.replicas()).collect();
                let mut rc = RaftConfig::with_peers(id - base, voters, self.tuning);
                rc.pre_vote = self.pre_vote;
                rc.check_quorum = self.check_quorum;
                rc.quantization = self.quantization;
                rc.udp_heartbeats = self.udp_heartbeats;
                rc.suppress_heartbeats_when_replicating = self.suppress_heartbeats;
                rc.consolidated_heartbeat_timer = self.consolidated_timer;
                // The lease fast path only when the strategy asks for it;
                // under ReadIndex every read pays a confirmation round.
                rc.lease_reads = self.read_strategy == ReadStrategy::Lease;
                rc.pipeline_window = self.pipeline_window;
                rc.max_batch_bytes = self.max_batch_bytes;
                rc.max_batch_delay = self.max_batch_delay;
                rc.max_entries_per_append = self.max_entries_per_append;
                rc.seed = seed_root.child(id as u64).next_u64();
                H::from_server(
                    ServerHost::new(rc, self.cost, self.cores, self.cpu_window)
                        .with_peer_base(base)
                        .with_compaction(self.compaction)
                        .with_reads(self.read_strategy, self.follower_reads),
                )
            })
            .collect();
        if let Some(workload) = &self.workload {
            hosts.push(client(workload, master.child(3)));
        }
        Cluster {
            world: World::new(hosts, net),
            map,
            spares: self.spares.clone(),
        }
    }
}

/// A running simulated cluster: one or more Raft groups (shards) of one
/// app's servers, plus an optional client, in one simulated [`World`].
///
/// Host layout (world ids): replicas of shard `g` occupy the contiguous
/// block `[g·R, (g+1)·R)` per the [`ShardMap`], spare servers follow in
/// order, and the client is the last host. Raft node ids stay group-local
/// (`0..R`); [`ServerHost`] translates via its peer base. A single-group
/// cluster is shard 0 with host ids and node ids equal.
pub struct Cluster<H: AppHost> {
    world: World<H>,
    map: ShardMap,
    /// Shard each spare host (world id `map.n_servers() + k`) belongs to.
    spares: Vec<ShardId>,
}

/// The KV cluster: single-group or sharded.
pub type ClusterSim = Cluster<ClusterHost>;

impl<H: AppHost> Cluster<H> {
    /// Build the cluster a config describes.
    ///
    /// # Panics
    /// Panics when the topology does not cover exactly the servers.
    #[must_use]
    pub fn new(config: &impl ClusterSpec<Host = H>) -> Self {
        config.assemble()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The replica placement.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of server hosts, spares included (clients excluded).
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.map.n_servers() + self.spares.len()
    }

    /// World ids of every server belonging to `shard`: the mapped replica
    /// block plus any spares attached to the shard.
    #[must_use]
    pub fn members_of(&self, shard: ShardId) -> Vec<NodeId> {
        let spares = (self.map.n_servers()..).zip(&self.spares);
        let spares = spares.filter(|&(_, &s)| s == shard).map(|(id, _)| id);
        self.map.servers_of(shard).chain(spares).collect()
    }

    /// Advance the simulation to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.world.run_until(deadline);
    }

    /// Advance by `delta`.
    pub fn run_for(&mut self, delta: Duration) {
        let target = self.world.now() + delta;
        self.world.run_until(target);
    }

    fn server(&self, id: NodeId) -> &ServerHost<H::App> {
        match self.world.host(id).server() {
            Some(s) => s,
            None => invariant_violated!(
                "host {id} is a client — server ids are the first n_servers slots"
            ),
        }
    }

    /// Every server, in world-id order.
    fn servers(&self) -> impl Iterator<Item = &ServerHost<H::App>> {
        (0..self.n_servers()).map(|id| self.server(id))
    }

    /// The client host, if the world has one.
    pub(crate) fn client(&self) -> Option<&H> {
        (self.world.len() > self.n_servers()).then(|| self.world.host(self.world.len() - 1))
    }

    /// Mutable access to the client host, if the world has one.
    pub(crate) fn client_mut(&mut self) -> Option<&mut H> {
        let last = self.world.len() - 1;
        (last >= self.n_servers()).then(|| self.world.host_mut(last))
    }

    /// Run a closure against a server (by world id).
    pub fn with_server<T>(&self, id: NodeId, f: impl FnOnce(&ServerHost<H::App>) -> T) -> T {
        f(self.server(id))
    }

    /// The live leader of one shard's group (world id), if exactly one
    /// exists at the group's highest leading term; paused servers are
    /// skipped.
    #[must_use]
    pub fn leader_of(&self, shard: ShardId) -> Option<NodeId> {
        let mut best: Option<(u64, NodeId)> = None;
        for id in self.members_of(shard) {
            if self.world.is_paused(id) {
                continue;
            }
            let node = self.server(id).node();
            if node.role() == Role::Leader {
                let term = node.term();
                if best.is_none_or(|(t, _)| term > t) {
                    best = Some((term, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Shard 0's live leader — the leader of a single-group cluster.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        self.leader_of(0)
    }

    /// Leaders of all shards, indexed by shard id.
    #[must_use]
    pub fn leaders(&self) -> Vec<Option<NodeId>> {
        (0..self.map.shards()).map(|s| self.leader_of(s)).collect()
    }

    /// Pause a server (the paper's container-sleep failure).
    pub fn pause(&mut self, id: NodeId) {
        self.world.pause(id);
    }

    /// Resume a paused server.
    pub fn resume(&mut self, id: NodeId) {
        self.world.resume(id);
    }

    /// Whether a server is paused.
    #[must_use]
    pub fn is_paused(&self, id: NodeId) -> bool {
        self.world.is_paused(id)
    }

    /// Crash-restart a server: buffered traffic and volatile state are
    /// dropped (in that order — the pause buffer must not replay into the
    /// restarted node), the persistent log survives, and the wake is
    /// rescheduled for the fresh election timer.
    pub fn crash(&mut self, id: NodeId) {
        self.world.clear_pause_buffer(id);
        let now = self.world.now();
        match self.world.host_mut(id).server_mut() {
            Some(s) => s.crash_restart(now),
            None => invariant_violated!(
                "host {id} is not a server — fault schedules only target server ids"
            ),
        }
        self.world.reschedule_wake(id);
    }

    /// Recorded events of one shard's group, merged and sorted by time,
    /// with *group-local* node ids — the shape
    /// [`extract_failover`](crate::observers::extract_failover) and the
    /// safety checks expect.
    #[must_use]
    pub fn shard_events(&self, shard: ShardId) -> Vec<(SimTime, NodeId, RaftEvent)> {
        let base = self.map.group_base(shard);
        let mut out = Vec::new();
        for id in self.members_of(shard) {
            for &(t, e) in self.server(id).events() {
                out.push((t, id - base, e));
            }
        }
        out.sort_by_key(|&(t, id, _)| (t, id));
        out
    }

    /// Shard 0's events — every event of a single-group cluster.
    #[must_use]
    pub fn events(&self) -> Vec<(SimTime, NodeId, RaftEvent)> {
        self.shard_events(0)
    }

    /// Queue a configuration change on `shard`'s current leader (node ids
    /// inside the change are group-local). Returns `false` when the shard
    /// has no live leader (retry after the next election) — the queued
    /// change may still be dropped if leadership moves before the leader's
    /// next wake, so orchestrators re-submit until the membership they
    /// observe reflects the change.
    pub fn propose_conf_change(&mut self, shard: ShardId, change: ConfChange) -> bool {
        let Some(leader) = self.leader_of(shard) else {
            return false;
        };
        match self.world.host_mut(leader).server_mut() {
            Some(s) => s.enqueue_conf_change(change),
            None => invariant_violated!("leader {leader} is not a server host"),
        }
        self.world.reschedule_wake(leader);
        true
    }

    /// The membership one server currently acts under (its latest appended
    /// configuration — Raft configs take effect at append time).
    #[must_use]
    pub fn membership(&self, id: NodeId) -> Membership {
        self.server(id).node().membership().clone()
    }

    /// Conf changes dropped or rejected across all servers (stale-leader
    /// submissions the orchestrator had to re-issue).
    #[must_use]
    pub fn conf_rejections(&self) -> u64 {
        self.servers().map(ServerHost::conf_rejections).sum()
    }

    /// Randomized timeout of each live server (paused servers excluded →
    /// `None`), for the paper's Fig. 6 third-smallest metric.
    #[must_use]
    pub fn randomized_timeouts(&self) -> Vec<Option<Duration>> {
        self.servers()
            .enumerate()
            .map(|(id, s)| (!self.world.is_paused(id)).then(|| s.node().randomized_timeout()))
            .collect()
    }

    /// Tuning snapshot of one server.
    #[must_use]
    pub fn tuning_snapshot(&self, id: NodeId) -> TuningSnapshot {
        self.server(id).node().tuning_snapshot()
    }

    /// Mean heartbeat interval shard 0's leader currently applies across
    /// its followers (Fig. 7a metric). `None` when there is no leader.
    #[must_use]
    pub fn leader_mean_heartbeat_interval(&self) -> Option<Duration> {
        let leader = self.leader()?;
        let node = self.server(leader).node();
        // Shard 0's group base is 0, so its world ids are its node ids.
        let followers = self.members_of(0).into_iter().filter(|&id| id != leader);
        let intervals: Vec<Duration> = followers.filter_map(|id| node.pacer_interval(id)).collect();
        let count = u32::try_from(intervals.len()).ok()?;
        (count > 0).then(|| intervals.iter().sum::<Duration>() / count)
    }

    /// Current scheduled RTT of the 0→1 link (the uniform-topology probe
    /// used for Fig. 6's RTT trace).
    #[must_use]
    pub fn probe_rtt(&self) -> Duration {
        self.world.network().params_at(0, 1, self.world.now()).rtt
    }

    /// Current scheduled loss rate of the 0→1 link (Fig. 7's loss trace).
    #[must_use]
    pub fn probe_loss(&self) -> f64 {
        self.world.network().params_at(0, 1, self.world.now()).loss
    }

    /// Network counters (sent/delivered/dropped).
    #[must_use]
    pub fn net_counters(&self) -> dynatune_simnet::NetCounters {
        self.world.counters()
    }

    /// Largest live log across servers — the leader-memory-bound
    /// observable the compaction scenarios assert on.
    #[must_use]
    pub fn max_log_len(&self) -> usize {
        self.servers().map(ServerHost::log_len).max().unwrap_or(0)
    }

    /// Total `InstallSnapshot` transfers started across servers.
    #[must_use]
    pub fn total_snapshots_sent(&self) -> u64 {
        self.servers().map(ServerHost::snapshots_sent).sum()
    }

    /// Served-read counters aggregated over all servers (by path).
    #[must_use]
    pub fn read_counters(&self) -> ReadCounters {
        let reads = self.servers().map(ServerHost::reads_served);
        reads.fold(ReadCounters::default(), ReadCounters::merged)
    }

    /// Partition the network: `group` forms one side, the rest the other.
    pub fn partition(&mut self, group: &[NodeId]) {
        self.world.partition(group);
    }

    /// Partition only the *servers*: `group` vs the remaining servers,
    /// while client hosts keep reaching both sides. This models a
    /// replication-plane cut where clients still see every server — the
    /// dangerous window for lease reads (an isolated leader keeps serving
    /// clients while a new leader is elected behind its back).
    pub fn partition_servers(&mut self, group: &[NodeId]) {
        self.world.partition(group);
        for id in self.n_servers()..self.world.len() {
            self.world.exempt_from_partition(id);
        }
    }

    /// Heal all partitions.
    pub fn heal_partition(&mut self) {
        self.world.heal_partition();
    }
}

impl Cluster<ClusterHost> {
    /// The single-group client's per-step records (`None` without one).
    #[must_use]
    pub fn client_steps(&self) -> Option<Vec<StepRecord>> {
        match self.client()? {
            ClusterHost::Client(c) => Some(c.steps().to_vec()),
            _ => None,
        }
    }

    /// The single-group client's recorded operation trace (`None` without
    /// one; empty unless the workload set `record_trace`).
    #[must_use]
    pub fn client_trace(&self) -> Option<Vec<OpRecord>> {
        match self.client()? {
            ClusterHost::Client(c) => Some(c.trace().to_vec()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::election_safety_violations;
    use crate::scenario::{NetPlan, ScenarioBuilder};

    fn stable_cluster(tuning: TuningConfig, seed: u64) -> ClusterSim {
        let cfg = ClusterConfig::stable(5, tuning, Duration::from_millis(100), seed);
        ClusterSim::new(&cfg)
    }

    #[test]
    fn cluster_elects_a_leader() {
        let mut sim = stable_cluster(TuningConfig::raft_default(), 1);
        sim.run_until(SimTime::from_secs(10));
        let leader = sim.leader().expect("a leader must emerge");
        assert!(leader < 5);
        // Exactly one BecameLeader event chain; all servers agree.
        for id in 0..5 {
            let node_leader = sim.with_server(id, |s| s.node().leader_id());
            assert_eq!(node_leader, Some(leader), "server {id} agrees on leader");
        }
    }

    #[test]
    fn dynatune_cluster_warms_up_tuners() {
        let mut sim = stable_cluster(TuningConfig::dynatune(), 2);
        sim.run_until(SimTime::from_secs(30));
        let leader = sim.leader().expect("leader");
        for id in 0..5 {
            if id == leader {
                continue;
            }
            let snap = sim.tuning_snapshot(id);
            assert!(snap.warmed, "follower {id} tuner warmed: {snap:?}");
            // RTT 100ms, tiny jitter: Et close to 100ms, far below default.
            let et_ms = snap.election_timeout.as_secs_f64() * 1e3;
            assert!((90.0..200.0).contains(&et_ms), "follower {id} Et {et_ms}ms");
        }
        // The leader paces followers at the tuned interval (K=1 ⇒ h=Et).
        let h = sim.leader_mean_heartbeat_interval().unwrap();
        assert!(h >= Duration::from_millis(90), "tuned h = {h:?}");
    }

    #[test]
    fn static_raft_keeps_default_parameters() {
        let mut sim = stable_cluster(TuningConfig::raft_default(), 3);
        sim.run_until(SimTime::from_secs(20));
        for id in 0..5 {
            let snap = sim.tuning_snapshot(id);
            assert!(!snap.warmed);
            assert_eq!(snap.election_timeout, Duration::from_millis(1000));
        }
        let h = sim.leader_mean_heartbeat_interval().unwrap();
        assert_eq!(h, Duration::from_millis(100));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = stable_cluster(TuningConfig::dynatune(), seed);
            sim.run_until(SimTime::from_secs(15));
            (sim.leader(), sim.events().len(), sim.net_counters())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn pause_and_failover() {
        let mut sim = stable_cluster(TuningConfig::raft_default(), 4);
        sim.run_until(SimTime::from_secs(10));
        let old_leader = sim.leader().expect("initial leader");
        sim.pause(old_leader);
        sim.run_for(Duration::from_secs(10));
        let new_leader = sim.leader().expect("failover leader");
        assert_ne!(new_leader, old_leader);
        // Resume: the old leader rejoins as follower.
        sim.resume(old_leader);
        sim.run_for(Duration::from_secs(5));
        let role = sim.with_server(old_leader, |s| s.node().role());
        assert_eq!(role, Role::Follower);
    }

    #[test]
    fn spares_join_live_via_joint_consensus() {
        // 3 genesis voters + 2 spare outsiders; grow to 5 voters online.
        let mut sim = ScenarioBuilder::cluster(3)
            .spares(2)
            .net(NetPlan::stable(Duration::from_millis(50)))
            .seed(9)
            .build_sim();
        sim.run_until(SimTime::from_secs(10));
        let leader = sim.leader().expect("genesis voters elect");
        assert!(leader < 3, "spares cannot lead before joining");
        for id in 3..5 {
            assert_eq!(sim.with_server(id, |s| s.node().role()), Role::Follower);
            assert!(!sim.membership(leader).contains(id));
        }
        // Learners first (one conf change may be uncommitted at a time)...
        assert!(sim.propose_conf_change(0, ConfChange::AddLearner(3)));
        sim.run_for(Duration::from_secs(3));
        assert!(sim.propose_conf_change(0, ConfChange::AddLearner(4)));
        sim.run_for(Duration::from_secs(3));
        let leader = sim.leader().expect("leader");
        let m = sim.membership(leader);
        assert!(
            m.is_learner(3) && m.is_learner(4),
            "learners admitted: {m:?}"
        );
        // ...then promote both through one joint change.
        assert!(sim.propose_conf_change(
            0,
            ConfChange::Begin {
                add: vec![3, 4],
                remove: vec![],
            }
        ));
        sim.run_for(Duration::from_secs(3));
        assert!(sim.propose_conf_change(0, ConfChange::Finalize));
        sim.run_for(Duration::from_secs(5));
        for id in 0..5 {
            let m = sim.membership(id);
            assert!(!m.is_joint(), "server {id} still joint");
            assert_eq!(
                m.voting_members().len(),
                5,
                "server {id} sees the 5-voter config"
            );
        }
        assert_eq!(sim.conf_rejections(), 0, "stable run needs no re-issues");
        // The grown cluster survives two failures — impossible at n=3.
        sim.crash(0);
        sim.pause(1);
        sim.run_for(Duration::from_secs(15));
        assert!(sim.leader().is_some(), "5-voter cluster rides out 2 faults");
        assert_eq!(election_safety_violations(&sim.events()), 0);
    }

    #[test]
    fn workload_flows_end_to_end() {
        let cfg = ClusterConfig::stable(
            3,
            TuningConfig::raft_default(),
            Duration::from_millis(10),
            5,
        )
        .with_workload(WorkloadSpec::steady(200.0, Duration::from_secs(5)));
        let mut sim = ClusterSim::new(&cfg);
        // Schedule starts at t=0; leader takes ~1-2s to emerge, so early
        // requests are redirected/failed; later ones complete.
        sim.run_until(SimTime::from_secs(10));
        let steps = sim.client_steps().expect("client attached");
        assert_eq!(steps.len(), 1);
        let s = &steps[0];
        assert!(s.sent > 800, "sent {}", s.sent);
        assert!(s.completed > 500, "completed {}", s.completed);
        // Latency at 10ms RTT and light load: a few tens of ms tops.
        assert!(
            s.latency_ms.mean() < 100.0,
            "latency {}",
            s.latency_ms.mean()
        );
    }
}
