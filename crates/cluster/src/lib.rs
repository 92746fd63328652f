//! Simulation harness for the Dynatune reproduction.
//!
//! Assembles clusters of Raft/KV servers (plus optional open-loop clients)
//! on the `dynatune-simnet` fabric, injects the paper's failure modes
//! (container pause, crash), observes elections and tuning state, models
//! CPU cost, and implements every experiment of the paper's evaluation
//! (§IV): see [`experiments`] for the measurement procedures and
//! [`scenario`] for the declarative layer (builders, fault plans, the
//! generic driver, and the registry of runnable experiments). One
//! [`Cluster`] type runs every world: the KV app or the [`broker`], one
//! Raft group or — through the [`sharded`] config — N independent groups
//! (one per hash partition of the keyspace) served through a per-shard
//! batching client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod broker;
pub mod client;
pub mod cpu;
pub mod experiments;
pub mod msg;
pub mod observers;
pub mod rebalance;
pub mod scenario;
pub mod server;
pub mod sharded;
pub mod sim;

pub use app::{App, BrokerApp, KvApp};
pub use broker::{
    BrokerClient, BrokerClusterSim, BrokerConfig, BrokerHost, BrokerStats, BrokerWorkload,
    ConsumerStats,
};
pub use client::{ClientHost, OpRecord, ShardStats, StepRecord};
pub use cpu::{CostModel, CpuMeter};
pub use msg::ClusterMsg;
pub use observers::{
    count_events, election_safety_violations, extract_failover, kth_smallest_timeout_ms,
    leaderless_intervals, stale_read_violations, total_leaderless_secs, FailoverTimes,
};
pub use rebalance::{RebalancePhase, Rebalancer, CATCH_UP_SLACK};
pub use scenario::{
    Experiment, FaultAction, FaultEvent, FaultPlan, Horizon, NetPlan, PartitionSpec, Report,
    RunCtx, ScenarioBuilder, ScenarioDriver, Target,
};
pub use server::{CompactionPolicy, ReadCounters, ReadStrategy, ServerHost};
pub use sharded::ShardedConfig;
pub use sim::{
    AppHost, Cluster, ClusterConfig, ClusterHost, ClusterSim, ClusterSpec, WorkloadSpec,
};
