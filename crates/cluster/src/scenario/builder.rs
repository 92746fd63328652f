//! Fluent scenario construction: [`NetPlan`] (the network as data) and
//! [`ScenarioBuilder`] (typed assembly of a [`ClusterConfig`] or a
//! [`ShardedConfig`]). The builder composes topology, tuning, workload and
//! network plans explicitly, and is the single construction path used by
//! the experiment catalog, the figure binaries and the examples.

use crate::broker::{BrokerClusterSim, BrokerConfig, BrokerWorkload};
use crate::cpu::CostModel;
use crate::server::{CompactionPolicy, ReadStrategy};
use crate::sharded::ShardedConfig;
use crate::sim::{Cluster, ClusterConfig, ClusterSim, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_kv::ShardMap;
use dynatune_raft::TimerQuantization;
use dynatune_simnet::{geo_topology, CongestionConfig, LinkSchedule, NetParams, Region, Topology};
use std::time::Duration;

/// Declarative description of the server-to-server network.
///
/// A `NetPlan` resolves to a [`Topology`] once the cluster size is known;
/// until then it is pure data, so scenarios can be described, compared and
/// listed without building anything.
#[derive(Debug, Clone)]
pub enum NetPlan {
    /// Every pair shares one link schedule (the paper's single-host mesh).
    Uniform(LinkSchedule),
    /// One node per region with preset inter-region WAN RTTs (Fig. 8).
    Geo(Vec<Region>),
    /// Geo mesh with explicit per-pair overrides — asymmetric degradation
    /// the uniform plans cannot express. Each `(a, b, schedule)` replaces
    /// both directions of that pair.
    GeoDegraded {
        /// One node per region, as in [`NetPlan::Geo`].
        regions: Vec<Region>,
        /// Per-pair schedule overrides (applied to both directions).
        overrides: Vec<(usize, usize, LinkSchedule)>,
    },
    /// A fully custom topology (escape hatch).
    Custom(Topology),
}

impl NetPlan {
    /// The paper's §IV-A stable mesh: uniform constant RTT, no loss, and
    /// the small residual jitter a real kernel/bridge leaves behind.
    #[must_use]
    pub fn stable(rtt: Duration) -> Self {
        NetPlan::Uniform(LinkSchedule::constant(
            NetParams::clean(rtt).with_jitter(0.02),
        ))
    }

    /// Uniform mesh with explicit constant parameters.
    #[must_use]
    pub fn uniform(params: NetParams) -> Self {
        NetPlan::Uniform(LinkSchedule::constant(params))
    }

    /// Uniform mesh following a time-varying schedule (RTT ramps, loss
    /// staircases — see [`LinkSchedule`]).
    #[must_use]
    pub fn uniform_schedule(schedule: LinkSchedule) -> Self {
        NetPlan::Uniform(schedule)
    }

    /// The five-region geo deployment of Fig. 8.
    #[must_use]
    pub fn geo() -> Self {
        NetPlan::Geo(Region::ALL.to_vec())
    }

    /// Resolve to a topology for `n` servers.
    ///
    /// # Panics
    /// Panics when a geo plan's region count (or a custom topology's size)
    /// does not match `n`, or an override index is out of range.
    #[must_use]
    pub fn topology(&self, n: usize) -> Topology {
        match self {
            NetPlan::Uniform(schedule) => Topology::uniform(n, schedule.clone()),
            NetPlan::Geo(regions) => {
                assert_eq!(regions.len(), n, "geo plan must name one region per server");
                geo_topology(regions)
            }
            NetPlan::GeoDegraded { regions, overrides } => {
                assert_eq!(regions.len(), n, "geo plan must name one region per server");
                let mut topo = geo_topology(regions);
                for (a, b, schedule) in overrides {
                    topo.set_pair(*a, *b, schedule.clone());
                }
                topo
            }
            NetPlan::Custom(topology) => {
                assert_eq!(topology.len(), n, "custom topology must cover the servers");
                topology.clone()
            }
        }
    }

    /// The congestion model this network implies unless overridden: WAN
    /// bursts on geo plans, nothing on uniform meshes.
    #[must_use]
    pub fn default_congestion(&self) -> CongestionConfig {
        match self {
            NetPlan::Geo(_) | NetPlan::GeoDegraded { .. } => CongestionConfig::wan_default(),
            NetPlan::Uniform(_) | NetPlan::Custom(_) => CongestionConfig::disabled(),
        }
    }
}

/// Typed, fluent construction of a [`ClusterConfig`] (or, with a shard
/// dimension, a [`ShardedConfig`]).
///
/// Defaults are `ClusterConfig::stable(n, raft_default, 100ms, 0)`:
/// etcd-style tick quantization, pre-vote and check-quorum on, UDP
/// heartbeats, 4 cores, 5 s CPU windows.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Every knob but the network, which resolves at build time.
    config: ClusterConfig,
    shards: usize,
    shard_spares: Vec<usize>,
    net: NetPlan,
    congestion: Option<CongestionConfig>,
}

impl ScenarioBuilder {
    /// Start a scenario with `n` servers on the stable 100 ms mesh.
    #[must_use]
    pub fn cluster(n: usize) -> Self {
        let rtt = Duration::from_millis(100);
        Self {
            config: ClusterConfig::stable(n, TuningConfig::raft_default(), rtt, 0),
            shards: 1,
            shard_spares: Vec::new(),
            net: NetPlan::stable(rtt),
            congestion: None,
        }
    }

    /// Select the tuning mode (Raft / Raft-Low / Fix-K / Dynatune).
    #[must_use]
    pub fn tuning(mut self, tuning: TuningConfig) -> Self {
        self.config.tuning = tuning;
        self
    }

    /// The shard dimension: partition the keyspace across `shards`
    /// independent Raft groups of `n` replicas each (default 1 — the
    /// classic single group). Resolved by [`Self::build_sharded`]; the net
    /// plan then covers all `shards * n` servers.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Attach `spares` outsider servers to the single group: hosts on the
    /// fabric from t=0 that belong to no quorum until a configuration
    /// change admits them (elastic scale-out; see
    /// [`Cluster::propose_conf_change`]).
    /// The net plan must be uniform/custom — geo plans name one region per
    /// voter and cannot place spares.
    #[must_use]
    pub fn spares(mut self, spares: usize) -> Self {
        self.config.spare_servers = spares;
        self
    }

    /// Attach one spare outsider server to `shard` in a sharded scenario
    /// (rebalancing target). May be called repeatedly; spare hosts occupy
    /// world ids after every mapped replica, in call order.
    #[must_use]
    pub fn spare_for_shard(mut self, shard: usize) -> Self {
        self.shard_spares.push(shard);
        self
    }

    /// Set the network plan.
    #[must_use]
    pub fn net(mut self, net: NetPlan) -> Self {
        self.net = net;
        self
    }

    /// Override the congestion model (default: the net plan's choice).
    #[must_use]
    pub fn congestion(mut self, congestion: CongestionConfig) -> Self {
        self.congestion = Some(congestion);
        self
    }

    /// Election-timer quantization.
    #[must_use]
    pub fn quantization(mut self, quantization: TimerQuantization) -> Self {
        self.config.quantization = quantization;
        self
    }

    /// Heartbeats over UDP (paper hybrid transport) or TCP (ablation).
    #[must_use]
    pub fn udp_heartbeats(mut self, udp: bool) -> Self {
        self.config.udp_heartbeats = udp;
        self
    }

    /// Pre-vote on/off.
    #[must_use]
    pub fn pre_vote(mut self, pre_vote: bool) -> Self {
        self.config.pre_vote = pre_vote;
        self
    }

    /// Check-quorum on/off.
    #[must_use]
    pub fn check_quorum(mut self, check_quorum: bool) -> Self {
        self.config.check_quorum = check_quorum;
        self
    }

    /// §IV-E extensions: suppress heartbeats while replicating and/or the
    /// consolidated heartbeat timer.
    #[must_use]
    pub fn extensions(mut self, suppress: bool, consolidated: bool) -> Self {
        self.config.suppress_heartbeats = suppress;
        self.config.consolidated_timer = consolidated;
        self
    }

    /// CPU cost model.
    #[must_use]
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.config.cost = cost;
        self
    }

    /// Log-compaction policy: compact past `threshold` live entries, keep a
    /// `tail` of slack. Scenarios shrink both to exercise snapshot-based
    /// catch-up at simulation-friendly write volumes.
    #[must_use]
    pub fn compaction(mut self, threshold: usize, tail: u64) -> Self {
        self.config.compaction = CompactionPolicy { threshold, tail };
        self
    }

    /// Read-serving strategy: the log-replicated baseline, pure ReadIndex,
    /// or leader-lease reads with ReadIndex fallback (the default).
    #[must_use]
    pub fn reads(mut self, strategy: ReadStrategy) -> Self {
        self.config.read_strategy = strategy;
        self
    }

    /// Whether followers answer forwarded reads locally (default: yes,
    /// under any log-free read strategy).
    #[must_use]
    pub fn follower_reads(mut self, enabled: bool) -> Self {
        self.config.follower_reads = enabled;
        self
    }

    /// Max unacked appends in flight per follower (default 4; 1 recovers
    /// the pre-pipelining ping-pong for ablations).
    #[must_use]
    pub fn pipeline_window(mut self, window: usize) -> Self {
        self.config.pipeline_window = window;
        self
    }

    /// Group-commit thresholds: flush buffered proposals once `bytes` of
    /// payload accumulate or `delay` after the first buffered proposal,
    /// whichever comes first.
    #[must_use]
    pub fn group_commit(mut self, bytes: usize, delay: Duration) -> Self {
        self.config.max_batch_bytes = bytes;
        self.config.max_batch_delay = delay;
        self
    }

    /// Hard cap on entries per `AppendEntries` message. Scenarios shrink
    /// it so replication stays RTT-bound and the pipeline depth shows.
    #[must_use]
    pub fn max_entries_per_append(mut self, cap: usize) -> Self {
        self.config.max_entries_per_append = cap;
        self
    }

    /// Cores per server (paper: 4 for Figs. 4–6, 2 for Fig. 7).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Utilization sampling window.
    #[must_use]
    pub fn cpu_window(mut self, window: Duration) -> Self {
        self.config.cpu_window = window;
        self
    }

    /// Master seed; all randomness derives from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Attach an open-loop client workload.
    #[must_use]
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.config.workload = Some(spec);
        self
    }

    /// Network parameters of client↔server links.
    #[must_use]
    pub fn client_link(mut self, params: NetParams) -> Self {
        self.config.client_link = params;
        self
    }

    /// The knobs with the net plan resolved over `hosts` servers.
    fn resolved(self, hosts: usize) -> ClusterConfig {
        ClusterConfig {
            topology: self.net.topology(hosts),
            congestion: self
                .congestion
                .unwrap_or_else(|| self.net.default_congestion()),
            ..self.config
        }
    }

    /// Resolve into the flat [`ClusterConfig`].
    ///
    /// # Panics
    /// Panics when a shard dimension was set: a sharded scenario resolves
    /// through [`Self::build_sharded`], not the single-group config.
    #[must_use]
    pub fn build(self) -> ClusterConfig {
        assert_eq!(
            self.shards, 1,
            "a sharded builder resolves via build_sharded()"
        );
        assert!(
            self.shard_spares.is_empty(),
            "per-shard spares resolve via build_sharded()"
        );
        let hosts = self.config.n + self.config.spare_servers;
        self.resolved(hosts)
    }

    /// Build and instantiate the cluster.
    #[must_use]
    pub fn build_sim(self) -> ClusterSim {
        Cluster::new(&self.build())
    }

    /// Resolve the multi-group config the sharded and broker builds share:
    /// `shards` independent groups of `n` replicas each, plus the per-shard
    /// spares, the net plan resolved over all of them.
    fn grouped<W>(mut self, workload: Option<W>) -> ShardedConfig<W> {
        assert_eq!(
            self.config.spare_servers, 0,
            "single-group spares resolve via build()"
        );
        let map = ShardMap::new(self.shards, self.config.n);
        let spares = std::mem::take(&mut self.shard_spares);
        for &shard in &spares {
            assert!(shard < self.shards, "spare names a shard out of range");
        }
        self.resolved(map.n_servers() + spares.len())
            .place(map, spares, workload)
    }

    /// Resolve into a [`ShardedConfig`]: `shards` independent groups of
    /// `n` replicas each, the net plan resolved over all servers.
    ///
    /// # Panics
    /// Panics when single-group spares were set.
    #[must_use]
    pub fn build_sharded(mut self) -> ShardedConfig {
        let workload = self.config.workload.take();
        self.grouped(workload)
    }

    /// Build and instantiate the sharded cluster.
    #[must_use]
    pub fn build_sharded_sim(self) -> ClusterSim {
        Cluster::new(&self.build_sharded())
    }

    /// Resolve into a [`BrokerConfig`]: the same placement and replication
    /// knobs as [`Self::build_sharded`], serving the broker app with
    /// `workload` driving producers and consumer groups.
    ///
    /// # Panics
    /// Panics when a KV workload or single-group spares were set.
    #[must_use]
    pub fn build_broker(self, workload: BrokerWorkload) -> BrokerConfig {
        assert!(
            self.config.workload.is_none(),
            "a KV workload resolves via build() or build_sharded()"
        );
        self.grouped(Some(workload))
    }

    /// Build and instantiate the broker cluster.
    #[must_use]
    pub fn build_broker_sim(self, workload: BrokerWorkload) -> BrokerClusterSim {
        Cluster::new(&self.build_broker(workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynatune_simnet::SimTime;

    #[test]
    fn builder_defaults_match_stable_constructor() {
        let built = ScenarioBuilder::cluster(5)
            .tuning(TuningConfig::dynatune())
            .seed(7)
            .build();
        let stable =
            ClusterConfig::stable(5, TuningConfig::dynatune(), Duration::from_millis(100), 7);
        assert_eq!(built.n, stable.n);
        assert_eq!(built.cores, stable.cores);
        assert_eq!(built.pre_vote, stable.pre_vote);
        assert_eq!(built.check_quorum, stable.check_quorum);
        assert_eq!(built.udp_heartbeats, stable.udp_heartbeats);
        assert_eq!(built.seed, stable.seed);
        assert_eq!(
            built.topology.schedule(0, 1).params_at(SimTime::ZERO),
            stable.topology.schedule(0, 1).params_at(SimTime::ZERO)
        );
        assert!(!built.congestion.enabled());
    }

    #[test]
    fn geo_plan_enables_wan_congestion_by_default() {
        let cfg = ScenarioBuilder::cluster(5).net(NetPlan::geo()).build();
        assert!(cfg.congestion.enabled());
        assert_eq!(
            cfg.topology.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(210), // Tokyo–London
        );
    }

    #[test]
    fn geo_degraded_overrides_one_pair() {
        let slow = LinkSchedule::constant(NetParams::wan(Duration::from_millis(900)));
        let cfg = ScenarioBuilder::cluster(5)
            .net(NetPlan::GeoDegraded {
                regions: Region::ALL.to_vec(),
                overrides: vec![(0, 1, slow)],
            })
            .build();
        assert_eq!(
            cfg.topology.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(900)
        );
        assert_eq!(
            cfg.topology.schedule(1, 0).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(900)
        );
        // Other pairs keep the preset matrix.
        assert_eq!(
            cfg.topology.schedule(0, 2).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(110)
        );
    }

    #[test]
    #[should_panic(expected = "one region per server")]
    fn geo_plan_size_mismatch_panics() {
        let _ = ScenarioBuilder::cluster(3).net(NetPlan::geo()).build();
    }

    fn topic() -> BrokerWorkload {
        BrokerWorkload::steady(vec![("t".into(), 2)], 100.0)
    }

    /// Whether every server of `sim` runs both §IV-E extensions.
    fn extensions_on<H: crate::AppHost>(sim: &Cluster<H>) -> bool {
        (0..sim.n_servers()).all(|id| {
            sim.with_server(id, |s| {
                let config = s.node().config();
                config.suppress_heartbeats_when_replicating && config.consolidated_heartbeat_timer
            })
        })
    }

    #[test]
    fn sharded_and_broker_builds_keep_the_extensions() {
        let builder = ScenarioBuilder::cluster(3).shards(2).extensions(true, true);
        assert!(extensions_on(&builder.clone().build_sharded_sim()));
        assert!(extensions_on(&builder.build_broker_sim(topic())));
    }

    #[test]
    #[should_panic(expected = "a KV workload resolves via build()")]
    fn broker_build_rejects_a_kv_workload() {
        let _ = ScenarioBuilder::cluster(3)
            .workload(WorkloadSpec::steady(100.0, Duration::from_secs(1)))
            .build_broker(topic());
    }

    #[test]
    #[should_panic(expected = "single-group spares resolve via build()")]
    fn broker_build_rejects_single_group_spares() {
        let _ = ScenarioBuilder::cluster(3).spares(1).build_broker(topic());
    }
}
