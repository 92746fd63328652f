//! Multi-group (sharded) clusters: N independent Raft groups and a
//! shard-aware client inside one simulated [`World`](dynatune_simnet::World).
//!
//! A single group funnels every write through one leader, so its
//! throughput is capped by one machine's CPU no matter how many hosts the
//! fabric models. A [`ShardedConfig`] lifts that cap: the keyspace is
//! hash-partitioned by a [`ShardRouter`](dynatune_kv::ShardRouter), each
//! partition is replicated by its own Raft group (own leader, own tuner
//! state, own election timers), and a [`ShardClient`] routes and batches
//! requests per shard. Groups share nothing but the network fabric — a
//! fault in one group's leader leaves the other groups' commit pipelines
//! untouched, which the `shard_leader_failover` scenario measures.
//!
//! The same config, instantiated with the broker workload, is
//! [`BrokerConfig`](crate::BrokerConfig); both build a
//! [`Cluster`] through the one assembly routine.

use crate::cpu::CostModel;
use crate::server::{CompactionPolicy, ReadStrategy};
use crate::shard_client::{ShardClient, ShardStats};
use crate::sim::{Cluster, ClusterHost, ClusterSpec, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_kv::{ShardId, ShardMap};
use dynatune_raft::{NodeId, TimerQuantization};
use dynatune_simnet::{CongestionConfig, NetParams, Topology};
use std::time::Duration;

/// Full description of one multi-group cluster run, generic over the
/// client workload `W`: the KV [`WorkloadSpec`] by default, the broker's
/// workload in [`BrokerConfig`](crate::BrokerConfig).
#[derive(Debug, Clone)]
pub struct ShardedConfig<W = WorkloadSpec> {
    /// Shard count and replicas per shard (the genesis placement).
    pub map: ShardMap,
    /// Spare outsider servers, one entry per spare naming the shard it can
    /// join. Spare `k` occupies world id `map.n_servers() + k`, speaks its
    /// shard's group-local protocol, and belongs to no quorum until a
    /// configuration change admits it. The topology must cover
    /// `map.n_servers() + spares.len()` hosts.
    pub spares: Vec<ShardId>,
    /// Tuning mode, applied to every group independently.
    pub tuning: TuningConfig,
    /// Server-to-server topology over all server hosts.
    pub topology: Topology,
    /// Congestion-burst model applied per egress.
    pub congestion: CongestionConfig,
    /// Election-timer quantization.
    pub quantization: TimerQuantization,
    /// Heartbeats over UDP (paper hybrid transport) or TCP.
    pub udp_heartbeats: bool,
    /// Pre-vote enabled.
    pub pre_vote: bool,
    /// Check-quorum enabled.
    pub check_quorum: bool,
    /// §IV-E extension 1: suppress heartbeats while replicating.
    pub suppress_heartbeats: bool,
    /// §IV-E extension 2: single consolidated heartbeat timer.
    pub consolidated_timer: bool,
    /// CPU cost model (per server).
    pub cost: CostModel,
    /// Log-compaction policy (threshold + retained tail).
    pub compaction: CompactionPolicy,
    /// How servers serve linearizable reads (log vs lease/ReadIndex).
    pub read_strategy: ReadStrategy,
    /// Followers answer forwarded reads locally (log-free strategies).
    pub follower_reads: bool,
    /// Max unacked appends in flight per follower (1 = ping-pong).
    pub pipeline_window: usize,
    /// Group-commit byte cap per leader.
    pub max_batch_bytes: usize,
    /// Group-commit latency cap per leader.
    pub max_batch_delay: Duration,
    /// Hard cap on entries carried by a single `AppendEntries`.
    pub max_entries_per_append: usize,
    /// Cores per server.
    pub cores: usize,
    /// Utilization sampling window.
    pub cpu_window: Duration,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Optional client workload (adds one client host to the fabric).
    pub workload: Option<W>,
    /// Network parameters of client↔server links.
    pub client_link: NetParams,
}

impl ClusterSpec for ShardedConfig {
    type Host = ClusterHost;

    fn assemble(&self) -> Cluster<ClusterHost> {
        self.assemble_with(|spec, seed| {
            ClusterHost::ShardClient(Box::new(
                ShardClient::new(spec.generator(seed), self.map)
                    .with_request_timeout(spec.request_timeout)
                    .with_read_fanout(spec.read_fanout),
            ))
        })
    }
}

impl Cluster<ClusterHost> {
    fn shard_client(&self) -> Option<&ShardClient> {
        match self.client()? {
            ClusterHost::ShardClient(c) => Some(c),
            _ => None,
        }
    }

    /// Repoint the shard client's placement row for `shard`: replica `from`
    /// (world id) is replaced by `to`. Called by the rebalancer after the
    /// final configuration commits, so client traffic follows the data.
    /// No-op without a shard client.
    pub fn repoint_shard(&mut self, shard: ShardId, from: NodeId, to: NodeId) {
        if let Some(ClusterHost::ShardClient(c)) = self.client_mut() {
            c.repoint(shard, from, to);
        }
    }

    /// Take (and reset) one shard's windowed latency histogram (µs) from
    /// the shard client (`None` without one). Take once to discard
    /// warm-up, again after the window of interest.
    pub fn take_latency_window(&mut self, shard: ShardId) -> Option<dynatune_stats::Histogram> {
        match self.client_mut()? {
            ClusterHost::ShardClient(c) => Some(c.take_latency_window(shard)),
            _ => None,
        }
    }

    /// Per-shard client counters (`None` without a shard client).
    #[must_use]
    pub fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        self.shard_client().map(|c| c.shard_stats().to_vec())
    }

    /// Completed requests per shard (`None` without a shard client).
    #[must_use]
    pub fn completed_per_shard(&self) -> Option<Vec<u64>> {
        self.shard_client().map(ShardClient::completed_per_shard)
    }

    /// Total completed requests across shards (0 without a shard client).
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.shard_client().map_or(0, ShardClient::total_completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::election_safety_violations;
    use crate::scenario::builder::ScenarioBuilder;
    use crate::sim::ClusterSim;
    use dynatune_simnet::SimTime;

    fn sharded(shards: usize, seed: u64, rps: f64) -> ClusterSim {
        let mut builder = ScenarioBuilder::cluster(3)
            .tuning(TuningConfig::raft_default())
            .shards(shards)
            .seed(seed);
        if rps > 0.0 {
            builder = builder.workload(
                WorkloadSpec::steady(rps, Duration::from_secs(20))
                    .starting_at(Duration::from_secs(5)),
            );
        }
        builder.build_sharded_sim()
    }

    #[test]
    fn every_shard_elects_its_own_leader() {
        let mut sim = sharded(4, 1, 0.0);
        sim.run_until(SimTime::from_secs(10));
        let leaders = sim.leaders();
        for (shard, leader) in leaders.iter().enumerate() {
            let leader = leader.unwrap_or_else(|| panic!("shard {shard} must elect"));
            assert!(sim.map().servers_of(shard).contains(&leader));
        }
        // Leaders are distinct hosts and each group's log is safe.
        for shard in 0..4 {
            assert_eq!(election_safety_violations(&sim.shard_events(shard)), 0);
        }
    }

    #[test]
    fn workload_spreads_across_all_shards() {
        let mut sim = sharded(4, 2, 800.0);
        sim.run_until(SimTime::from_secs(15));
        let stats = sim.shard_stats().expect("client attached");
        assert_eq!(stats.len(), 4);
        for (shard, s) in stats.iter().enumerate() {
            assert!(s.sent > 500, "shard {shard} sent {}", s.sent);
            assert!(s.completed > 300, "shard {shard} completed {}", s.completed);
            assert!(s.batches > 0, "shard {shard} never batched");
            assert!(
                s.batches < s.sent,
                "shard {shard}: batching must coalesce ({} batches / {} sent)",
                s.batches,
                s.sent
            );
        }
    }

    #[test]
    fn crashing_one_leader_leaves_other_shards_serving() {
        let mut sim = sharded(2, 3, 600.0);
        sim.run_until(SimTime::from_secs(10));
        let victim = sim.leader_of(0).expect("shard 0 leader");
        let before = sim.completed_per_shard().unwrap();
        sim.crash(victim);
        sim.run_for(Duration::from_secs(5));
        let after = sim.completed_per_shard().unwrap();
        // Shard 1 kept committing throughout the shard-0 outage.
        assert!(
            after[1] - before[1] > 800,
            "shard 1 progressed only {} ops during shard 0's outage",
            after[1] - before[1]
        );
        // Shard 0 recovers: a leader re-emerges and commits resume.
        sim.run_for(Duration::from_secs(5));
        assert!(sim.leader_of(0).is_some(), "shard 0 re-elects");
        let healed = sim.completed_per_shard().unwrap();
        assert!(healed[0] > after[0], "shard 0 resumes committing");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = sharded(3, seed, 300.0);
            sim.run_until(SimTime::from_secs(12));
            (sim.leaders(), sim.completed_per_shard(), sim.net_counters())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2);
    }
}
