//! Broker cluster assembly: the replicated topic/partition broker served
//! by the generic cluster layer.
//!
//! The sharded KV cluster pairs its servers with a batching
//! [`ClientHost`](crate::client::ClientHost); this module is the
//! broker analogue, on the same [`Cluster`] type. Topics are split into
//! partitions, every partition is routed to one Raft group by
//! [`shard_of_partition`] (the broker's `ShardRouter`), and one
//! [`BrokerClient`] host drives producers and
//! consumer groups against the same [`ServerHost`] plumbing the KV app
//! uses — produces replicate with origin dedupe, fetches ride the log-free
//! read path.
//!
//! Client discipline, chosen for the exactly-once guarantee the
//! `consumer_lag_failover` scenario asserts:
//!
//! - **One in-flight produce per partition.** Two overlapping produce
//!   requests could commit in either order after a failover retry, breaking
//!   offset order; a closed loop per partition makes offsets follow arrival
//!   order by construction. Records still batch: everything that arrives
//!   during the in-flight request's round trip rides the next request.
//! - **Retries never give up and reuse the request id.** Abandoning a
//!   produce that may have committed is indistinguishable from losing it;
//!   retrying forever with the same `(client, req_id)` origin lets the
//!   replicated reply cache collapse duplicates, so at-least-once delivery
//!   plus dedupe yields exactly-once.
//! - **Record values embed a per-partition sequence number**, so a consumer
//!   can assert `seq == offset` for every record it fetches: a gap means a
//!   lost produce, a repeat means a duplicated one. The failover scenario
//!   hard-asserts both counters stay zero.

use crate::app::BrokerApp;
use crate::msg::ClusterMsg;
use crate::server::ServerHost;
use crate::sharded::ShardedConfig;
use crate::sim::{AppHost, Cluster, ClusterSpec};
use bytes::Bytes;
use dynatune_broker::{shard_of_partition, BrokerCommand, BrokerResponse, FetchResult, Record};
use dynatune_core::invariant_violated;
use dynatune_kv::{ShardId, ShardMap};
use dynatune_raft::NodeId;
use dynatune_simnet::{Channel, Host, HostCtx, SimTime};
use dynatune_stats::OnlineStats;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// The broker wire vocabulary: the shared cluster message enum instantiated
/// for the broker app.
pub type BrokerMsg = ClusterMsg<BrokerApp>;

/// How long a caught-up consumer waits before polling its partition again.
const POLL_IDLE: Duration = Duration::from_millis(10);

/// Broker client workload: which topics exist, how fast producers emit,
/// and how many consumer groups follow every partition.
#[derive(Debug, Clone)]
pub struct BrokerWorkload {
    /// Topics as `(name, partition_count)`.
    pub topics: Vec<(String, u32)>,
    /// Aggregate record arrival rate across all partitions (records/s);
    /// each partition produces at `produce_rps / total_partitions`, on a
    /// fixed deterministic interval.
    pub produce_rps: f64,
    /// Value bytes per record (min 8: the sequence number lives there).
    pub record_bytes: usize,
    /// Max records one produce batch may carry.
    pub batch_max: usize,
    /// Consumer groups following every partition (0: producers only).
    pub groups: usize,
    /// Max records per fetch.
    pub fetch_max: usize,
    /// Commit the group offset every this many consumed records.
    pub commit_every: u64,
    /// Consumers fetch from a fixed per-(group, partition) replica
    /// (follower fan-out) instead of chasing the partition leader.
    pub fanout_fetch: bool,
    /// Delay before the first arrival/fetch (lets leaders emerge).
    pub start_offset: Duration,
    /// Stop producing this long after the start (`None`: never). Failover
    /// scenarios use the quiet tail to drain in-flight produces and then
    /// assert zero loss.
    pub produce_for: Option<Duration>,
    /// Per-request silence timeout before a retry.
    pub request_timeout: Duration,
}

impl BrokerWorkload {
    /// A steady workload over `topics` at `produce_rps` records/s total,
    /// with one consumer group, 128-byte records and a 2 s warm-up.
    #[must_use]
    pub fn steady(topics: Vec<(String, u32)>, produce_rps: f64) -> Self {
        Self {
            topics,
            produce_rps,
            record_bytes: 128,
            batch_max: 512,
            groups: 1,
            fetch_max: 256,
            commit_every: 100,
            fanout_fetch: false,
            start_offset: Duration::from_secs(2),
            produce_for: None,
            request_timeout: Duration::from_secs(1),
        }
    }

    /// Builder: number of consumer groups.
    #[must_use]
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Builder: record value size in bytes (min 8).
    #[must_use]
    pub fn record_bytes(mut self, bytes: usize) -> Self {
        self.record_bytes = bytes;
        self
    }

    /// Builder: consumers fetch from fixed per-group replicas.
    #[must_use]
    pub fn fanout(mut self, fanout: bool) -> Self {
        self.fanout_fetch = fanout;
        self
    }

    /// Builder: stop producing after `d` (drain phase follows).
    #[must_use]
    pub fn produce_for(mut self, d: Duration) -> Self {
        self.produce_for = Some(d);
        self
    }

    /// Builder: delay the first arrival.
    #[must_use]
    pub fn starting_at(mut self, offset: Duration) -> Self {
        self.start_offset = offset;
        self
    }

    /// Total partitions across all topics.
    #[must_use]
    pub fn total_partitions(&self) -> usize {
        self.topics.iter().map(|(_, n)| *n as usize).sum()
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics when a knob is zero/empty where that cannot work.
    pub fn validate(&self) {
        assert!(self.total_partitions() > 0, "workload needs partitions");
        assert!(self.produce_rps > 0.0, "zero produce rate");
        assert!(self.batch_max > 0, "zero produce batch cap");
        assert!(self.fetch_max > 0, "zero fetch cap");
        assert!(self.commit_every > 0, "zero commit interval");
    }
}

/// Cumulative producer-side counters (plus request-level totals).
#[derive(Debug, Clone, Default)]
pub struct BrokerStats {
    /// Records generated by producer arrivals.
    pub produced: u64,
    /// Records acknowledged by the broker.
    pub acked_records: u64,
    /// Record bytes acknowledged (throughput numerator).
    pub acked_bytes: u64,
    /// Produce requests sent (each carries a batch).
    pub produce_batches: u64,
    /// Requests re-sent after a timeout or failure response.
    pub retries: u64,
    /// Redirects followed.
    pub redirects: u64,
    /// Produce batch latency, send → ack, in milliseconds.
    pub produce_latency_ms: OnlineStats,
    /// Fetch requests completed.
    pub fetches: u64,
    /// Offset commits acknowledged.
    pub commits: u64,
}

/// Per-consumer-group counters, including the exactly-once checker.
#[derive(Debug, Clone, Default)]
pub struct ConsumerStats {
    /// Records consumed across the group's partitions.
    pub consumed: u64,
    /// Records whose embedded sequence was ahead of their offset — a
    /// produce was lost. Must stay 0.
    pub lost: u64,
    /// Records whose embedded sequence lagged their offset — a produce was
    /// applied twice. Must stay 0.
    pub duplicated: u64,
    /// Records returned out of cursor order. Must stay 0.
    pub out_of_order: u64,
    /// Worst lag (high watermark − cursor) observed on any partition.
    pub max_lag: u64,
    /// Current lag summed over the group's partitions.
    pub current_lag: u64,
    /// Offset commits acknowledged for this group.
    pub commits: u64,
}

/// One (topic, partition) and the Raft group that replicates it.
#[derive(Debug, Clone)]
struct PartitionRef {
    topic: String,
    partition: u32,
    shard: ShardId,
}

#[derive(Debug)]
struct ProducerState {
    next_arrival: SimTime,
    next_seq: u64,
    pending: VecDeque<Record>,
    /// Flush deadline for the first pending record (idle path only; under
    /// load the previous ack triggers the next batch immediately).
    flush_at: Option<SimTime>,
    inflight: Option<u64>,
}

#[derive(Debug)]
struct ConsumerState {
    cursor: u64,
    next_poll: SimTime,
    inflight: Option<u64>,
    commit_inflight: Option<u64>,
    since_commit: u64,
    /// Fixed fan-out replica (used when `fanout_fetch`).
    fetch_target: NodeId,
}

#[derive(Debug, Clone)]
enum ReqKind {
    Produce {
        pidx: usize,
        records: u64,
        bytes: u64,
    },
    Fetch {
        cidx: usize,
    },
    Commit {
        cidx: usize,
    },
}

#[derive(Debug, Clone)]
struct Pending {
    attempt: u64,
    born_at: SimTime,
    shard: ShardId,
    target: NodeId,
    cmd: BrokerCommand,
    kind: ReqKind,
}

/// The broker benchmark client: deterministic fixed-interval producers and
/// closed-loop consumer groups over every partition, routed per shard.
pub struct BrokerClient {
    map: ShardMap,
    parts: Vec<PartitionRef>,
    /// Per-shard leader guess (global host id).
    leader_guess: Vec<NodeId>,
    producers: Vec<ProducerState>,
    /// Indexed `group * parts.len() + pidx`.
    consumers: Vec<ConsumerState>,
    interval: Duration,
    produce_until: Option<SimTime>,
    record_bytes: usize,
    batch_max: usize,
    batch_window: Duration,
    fetch_max: usize,
    commit_every: u64,
    fanout_fetch: bool,
    request_timeout: Duration,
    next_req_id: u64,
    outstanding: BTreeMap<u64, Pending>,
    /// `(deadline, req_id, attempt)`; constant timeout keeps it ordered.
    /// Stale attempts are skipped on expiry.
    timeout_queue: VecDeque<(SimTime, u64, u64)>,
    stats: BrokerStats,
    group_stats: Vec<ConsumerStats>,
    /// Last observed lag per consumer index.
    last_lag: Vec<u64>,
}

impl BrokerClient {
    /// Build the client for `workload` over the placement in `map`.
    ///
    /// # Panics
    /// Panics when the workload fails validation.
    #[must_use]
    pub fn new(workload: &BrokerWorkload, map: ShardMap) -> Self {
        workload.validate();
        let shards = map.shards();
        let mut parts = Vec::new();
        for (topic, n) in &workload.topics {
            for p in 0..*n {
                parts.push(PartitionRef {
                    topic: topic.clone(),
                    partition: p,
                    shard: shard_of_partition(topic, p, shards),
                });
            }
        }
        let n_parts = parts.len();
        let interval = Duration::from_secs_f64(n_parts as f64 / workload.produce_rps);
        let start = SimTime::ZERO + workload.start_offset;
        let producers = (0..n_parts)
            .map(|i| ProducerState {
                // Phase-stagger partitions so arrivals spread over the
                // interval instead of landing on one instant.
                next_arrival: start + interval.mul_f64((i + 1) as f64 / n_parts as f64),
                next_seq: 0,
                pending: VecDeque::new(),
                flush_at: None,
                inflight: None,
            })
            .collect();
        let mut consumers = Vec::new();
        for g in 0..workload.groups {
            for (pidx, part) in parts.iter().enumerate() {
                consumers.push(ConsumerState {
                    cursor: 0,
                    next_poll: start,
                    inflight: None,
                    commit_inflight: None,
                    since_commit: 0,
                    fetch_target: map.group_base(part.shard) + (g + pidx) % map.replicas(),
                });
            }
        }
        Self {
            map,
            parts,
            leader_guess: (0..shards).map(|s| map.server(s, 0)).collect(),
            producers,
            consumers,
            interval,
            produce_until: workload.produce_for.map(|d| start + d),
            record_bytes: workload.record_bytes.max(8),
            batch_max: workload.batch_max,
            batch_window: crate::client::DEFAULT_BATCH_WINDOW,
            fetch_max: workload.fetch_max,
            commit_every: workload.commit_every,
            fanout_fetch: workload.fanout_fetch,
            request_timeout: workload.request_timeout,
            next_req_id: 0,
            outstanding: BTreeMap::new(),
            timeout_queue: VecDeque::new(),
            stats: BrokerStats::default(),
            group_stats: vec![ConsumerStats::default(); workload.groups],
            last_lag: vec![0; workload.groups * n_parts],
        }
    }

    /// Producer-side counters.
    #[must_use]
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Per-group consumer counters, with current lag filled in.
    #[must_use]
    pub fn consumer_stats(&self) -> Vec<ConsumerStats> {
        let n_parts = self.parts.len();
        self.group_stats
            .iter()
            .enumerate()
            .map(|(g, gs)| {
                let mut s = gs.clone();
                s.current_lag = (0..n_parts).map(|p| self.last_lag[g * n_parts + p]).sum();
                s
            })
            .collect()
    }

    /// Requests currently in flight.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Records generated but not yet acknowledged (pending + in flight).
    #[must_use]
    pub fn unacked_records(&self) -> u64 {
        self.stats.produced - self.stats.acked_records
    }

    /// Arrival still due for partition `pidx`, if production continues.
    fn peek_arrival(&self, pidx: usize) -> Option<SimTime> {
        let at = self.producers[pidx].next_arrival;
        match self.produce_until {
            Some(until) if at >= until => None,
            _ => Some(at),
        }
    }

    fn rotate_in_group(&self, shard: ShardId, current: NodeId) -> NodeId {
        let base = self.map.group_base(shard);
        base + (current - base + 1) % self.map.replicas()
    }

    fn rotate_guess(&mut self, shard: ShardId) {
        self.leader_guess[shard] = self.rotate_in_group(shard, self.leader_guess[shard]);
    }

    /// Assign a fresh request id, register it and send the first attempt.
    fn dispatch(
        &mut self,
        ctx: &mut HostCtx<'_, BrokerMsg>,
        shard: ShardId,
        target: NodeId,
        cmd: BrokerCommand,
        kind: ReqKind,
    ) -> u64 {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.outstanding.insert(
            req_id,
            Pending {
                attempt: 0,
                born_at: ctx.now,
                shard,
                target,
                cmd: cmd.clone(),
                kind,
            },
        );
        self.timeout_queue
            .push_back((ctx.now + self.request_timeout, req_id, 0));
        ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
        req_id
    }

    /// Re-send a live request to `target`, bumping its attempt counter so
    /// timeouts armed for older attempts become inert.
    fn resend(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, req_id: u64, target: NodeId) {
        let Some(p) = self.outstanding.get_mut(&req_id) else {
            return; // the ack raced the rotation: nothing left to resend
        };
        p.attempt += 1;
        p.target = target;
        let cmd = p.cmd.clone();
        let attempt = p.attempt;
        self.timeout_queue
            .push_back((ctx.now + self.request_timeout, req_id, attempt));
        ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
    }

    /// Retry a request after a timeout or failure response. Retries are
    /// unbounded by design: a produce abandoned after it may have committed
    /// is indistinguishable from loss, and the same `req_id` keeps the
    /// reply cache collapsing duplicates, so retrying until acked is what
    /// makes delivery exactly-once.
    fn retry(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, req_id: u64, rotated: &mut [bool]) {
        let Some(p) = self.outstanding.get(&req_id) else {
            return;
        };
        let shard = p.shard;
        let kind = p.kind.clone();
        let target = match kind {
            ReqKind::Fetch { cidx } if self.fanout_fetch => {
                let t = self.rotate_in_group(shard, self.consumers[cidx].fetch_target);
                self.consumers[cidx].fetch_target = t;
                t
            }
            _ => {
                // Rotate the shared guess at most once per expiry wave, so
                // several partitions of one shard don't skip past the
                // actual leader together.
                if !rotated[shard] {
                    self.rotate_guess(shard);
                    rotated[shard] = true;
                }
                self.leader_guess[shard]
            }
        };
        self.stats.retries += 1;
        self.resend(ctx, req_id, target);
    }

    fn expire_timeouts(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>) {
        let mut rotated = vec![false; self.map.shards()];
        while let Some(&(deadline, req_id, attempt)) = self.timeout_queue.front() {
            if deadline > ctx.now {
                break;
            }
            self.timeout_queue.pop_front();
            let live = self
                .outstanding
                .get(&req_id)
                .is_some_and(|p| p.attempt == attempt);
            if live {
                self.retry(ctx, req_id, &mut rotated);
            }
        }
    }

    /// Send the next produce batch for a partition, if one can go.
    fn flush_partition(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, pidx: usize) {
        if self.producers[pidx].inflight.is_some() || self.producers[pidx].pending.is_empty() {
            return;
        }
        let n_take = self.batch_max.min(self.producers[pidx].pending.len());
        let p = &mut self.producers[pidx];
        let records: Vec<Record> = p.pending.drain(..n_take).collect();
        p.flush_at = None;
        let bytes: u64 = records.iter().map(|r| r.bytes() as u64).sum();
        let part = self.parts[pidx].clone();
        let cmd = BrokerCommand::Produce {
            topic: part.topic,
            partition: part.partition,
            records,
        };
        let target = self.leader_guess[part.shard];
        self.stats.produce_batches += 1;
        let req_id = self.dispatch(
            ctx,
            part.shard,
            target,
            cmd,
            ReqKind::Produce {
                pidx,
                records: n_take as u64,
                bytes,
            },
        );
        self.producers[pidx].inflight = Some(req_id);
    }

    fn issue_fetch(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, cidx: usize) {
        let pidx = cidx % self.parts.len();
        let part = self.parts[pidx].clone();
        let cmd = BrokerCommand::Fetch {
            topic: part.topic,
            partition: part.partition,
            offset: self.consumers[cidx].cursor,
            max_records: self.fetch_max,
        };
        let target = if self.fanout_fetch {
            self.consumers[cidx].fetch_target
        } else {
            self.leader_guess[part.shard]
        };
        let req_id = self.dispatch(ctx, part.shard, target, cmd, ReqKind::Fetch { cidx });
        self.consumers[cidx].inflight = Some(req_id);
    }

    fn issue_commit(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, cidx: usize) {
        if self.consumers[cidx].commit_inflight.is_some() {
            return;
        }
        let pidx = cidx % self.parts.len();
        let g = cidx / self.parts.len();
        let part = self.parts[pidx].clone();
        let cmd = BrokerCommand::CommitOffset {
            group: format!("g{g}"),
            topic: part.topic,
            partition: part.partition,
            offset: self.consumers[cidx].cursor,
        };
        let target = self.leader_guess[part.shard];
        let req_id = self.dispatch(ctx, part.shard, target, cmd, ReqKind::Commit { cidx });
        self.consumers[cidx].commit_inflight = Some(req_id);
        self.consumers[cidx].since_commit = 0;
    }

    fn on_fetch(
        &mut self,
        ctx: &mut HostCtx<'_, BrokerMsg>,
        req_id: u64,
        cidx: usize,
        fx: &FetchResult,
    ) {
        self.outstanding.remove(&req_id);
        let g = cidx / self.parts.len();
        let got = !fx.records.is_empty();
        let lag;
        {
            let c = &mut self.consumers[cidx];
            c.inflight = None;
            let gs = &mut self.group_stats[g];
            for (off, rec) in &fx.records {
                if *off != c.cursor {
                    gs.out_of_order += 1;
                }
                let Some(seq) = rec.value.get(..8).map(|h| {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(h);
                    u64::from_le_bytes(buf)
                }) else {
                    invariant_violated!(
                        "record at offset {off} lacks the 8-byte seq header \
                         every produced value starts with"
                    );
                };
                // seq == offset iff every produce applied exactly once in
                // arrival order; see the module docs.
                if seq > *off {
                    gs.lost += 1;
                } else if seq < *off {
                    gs.duplicated += 1;
                }
                gs.consumed += 1;
                c.cursor = off + 1;
                c.since_commit += 1;
            }
            lag = fx.high_watermark.saturating_sub(c.cursor);
            gs.max_lag = gs.max_lag.max(lag);
        }
        self.last_lag[cidx] = lag;
        self.stats.fetches += 1;
        if self.consumers[cidx].since_commit >= self.commit_every {
            self.issue_commit(ctx, cidx);
        }
        if got {
            // More may be waiting: chase the log immediately.
            self.issue_fetch(ctx, cidx);
        } else {
            self.consumers[cidx].next_poll = ctx.now + POLL_IDLE;
        }
    }

    fn on_response(
        &mut self,
        ctx: &mut HostCtx<'_, BrokerMsg>,
        req_id: u64,
        result: Option<BrokerResponse>,
    ) {
        let Some(p) = self.outstanding.get(&req_id) else {
            return; // late duplicate of an already-answered request
        };
        let kind = p.kind.clone();
        let born_at = p.born_at;
        let Some(resp) = result else {
            // The server failed the request (leadership change mid-flight):
            // retry, same id.
            let mut rotated = vec![false; self.map.shards()];
            self.retry(ctx, req_id, &mut rotated);
            return;
        };
        match (kind, resp) {
            (
                ReqKind::Produce {
                    pidx,
                    records,
                    bytes,
                },
                BrokerResponse::Produced { .. },
            ) => {
                self.outstanding.remove(&req_id);
                self.producers[pidx].inflight = None;
                self.stats.acked_records += records;
                self.stats.acked_bytes += bytes;
                self.stats
                    .produce_latency_ms
                    .push((ctx.now - born_at).as_secs_f64() * 1e3);
                // Everything that arrived during the round trip forms the
                // next batch right away.
                self.flush_partition(ctx, pidx);
            }
            (ReqKind::Fetch { cidx }, BrokerResponse::Records(fx)) => {
                self.on_fetch(ctx, req_id, cidx, &fx);
            }
            (ReqKind::Commit { cidx }, BrokerResponse::OffsetCommitted { .. }) => {
                self.outstanding.remove(&req_id);
                self.consumers[cidx].commit_inflight = None;
                self.group_stats[cidx / self.parts.len()].commits += 1;
                self.stats.commits += 1;
            }
            _ => {} // variant mismatch cannot happen; drop defensively
        }
    }

    fn on_redirect(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, req_id: u64, hint: Option<NodeId>) {
        let Some(p) = self.outstanding.get(&req_id) else {
            return;
        };
        let shard = p.shard;
        let kind = p.kind.clone();
        let current = p.target;
        self.stats.redirects += 1;
        let target = match hint {
            // Hints are global host ids; trust only in-group ones.
            Some(h) if self.map.shard_of_server(h) == Some(shard) => h,
            _ => self.rotate_in_group(shard, current),
        };
        match kind {
            ReqKind::Fetch { cidx } if self.fanout_fetch => {
                self.consumers[cidx].fetch_target = target;
            }
            _ => self.leader_guess[shard] = target,
        }
        self.resend(ctx, req_id, target);
    }

    /// Generate due arrivals, flush due batches, poll due consumers and
    /// expire overdue requests.
    pub fn handle_wake(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>) {
        self.expire_timeouts(ctx);
        for pidx in 0..self.parts.len() {
            while let Some(at) = self.peek_arrival(pidx) {
                if at > ctx.now {
                    break;
                }
                let record_bytes = self.record_bytes;
                let p = &mut self.producers[pidx];
                let mut value = vec![0u8; record_bytes];
                value[..8].copy_from_slice(&p.next_seq.to_le_bytes());
                p.next_seq += 1;
                p.next_arrival = at + self.interval;
                p.pending.push_back(Record::new(Bytes::new(), value));
                if p.inflight.is_none() && p.flush_at.is_none() {
                    p.flush_at = Some(at + self.batch_window);
                }
                self.stats.produced += 1;
            }
            if self.producers[pidx].flush_at.is_some_and(|t| t <= ctx.now) {
                self.flush_partition(ctx, pidx);
            }
        }
        for cidx in 0..self.consumers.len() {
            let c = &self.consumers[cidx];
            if c.inflight.is_none() && c.next_poll <= ctx.now {
                self.issue_fetch(ctx, cidx);
            }
        }
    }

    /// Process a server response.
    pub fn handle_message(
        &mut self,
        ctx: &mut HostCtx<'_, BrokerMsg>,
        _from: NodeId,
        msg: BrokerMsg,
    ) {
        match msg {
            ClusterMsg::ClientResp { req_id, result } => self.on_response(ctx, req_id, result),
            ClusterMsg::ClientRedirect { req_id, hint, .. } => self.on_redirect(ctx, req_id, hint),
            // Clients ignore protocol traffic.
            _ => {}
        }
    }

    /// Next arrival, batch flush, idle poll or timeout, whichever is
    /// sooner.
    #[must_use]
    pub fn wake_deadline(&self) -> Option<SimTime> {
        let arrival = (0..self.parts.len())
            .filter_map(|i| self.peek_arrival(i))
            .min();
        let flush = self.producers.iter().filter_map(|p| p.flush_at).min();
        let timeout = self.timeout_queue.front().map(|&(d, _, _)| d);
        let poll = self
            .consumers
            .iter()
            .filter(|c| c.inflight.is_none())
            .map(|c| c.next_poll)
            .min();
        [arrival, flush, timeout, poll].into_iter().flatten().min()
    }
}

/// A node in a broker world: server or benchmark client.
pub enum BrokerHost {
    /// A Raft/broker server.
    Server(Box<ServerHost<BrokerApp>>),
    /// The producer/consumer benchmark client.
    Client(Box<BrokerClient>),
}

impl Host for BrokerHost {
    type Msg = BrokerMsg;

    fn on_message(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, from: usize, msg: BrokerMsg) {
        match self {
            BrokerHost::Server(s) => s.handle_message(ctx, from, msg),
            BrokerHost::Client(c) => c.handle_message(ctx, from, msg),
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>) {
        match self {
            BrokerHost::Server(s) => s.handle_wake(ctx),
            BrokerHost::Client(c) => c.handle_wake(ctx),
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        match self {
            BrokerHost::Server(s) => s.wake_deadline(),
            BrokerHost::Client(c) => c.wake_deadline(),
        }
    }
}

impl AppHost for BrokerHost {
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

    fn from_server(server: ServerHost<BrokerApp>) -> Self {
        BrokerHost::Server(Box::new(server))
    }
}

/// Full description of one broker cluster run: the sharded config — same
/// placement, net, cost and replication knobs — with the broker workload
/// in place of the KV one.
pub type BrokerConfig = ShardedConfig<BrokerWorkload>;

impl ClusterSpec for BrokerConfig {
    type Host = BrokerHost;

    fn assemble(&self) -> Cluster<BrokerHost> {
        self.assemble_with(|wl, _| BrokerHost::Client(Box::new(BrokerClient::new(wl, self.map))))
    }
}

/// A running broker cluster.
pub type BrokerClusterSim = Cluster<BrokerHost>;

impl Cluster<BrokerHost> {
    fn broker_client(&self) -> Option<&BrokerClient> {
        match self.client()? {
            BrokerHost::Client(c) => Some(c),
            BrokerHost::Server(_) => None,
        }
    }

    /// Producer-side counters (`None` without a workload).
    #[must_use]
    pub fn stats(&self) -> Option<BrokerStats> {
        self.broker_client().map(|c| c.stats().clone())
    }

    /// Per-group consumer counters (`None` without a workload).
    #[must_use]
    pub fn consumer_stats(&self) -> Option<Vec<ConsumerStats>> {
        self.broker_client().map(BrokerClient::consumer_stats)
    }

    /// Records generated but not yet acknowledged (0 without a workload).
    #[must_use]
    pub fn unacked_records(&self) -> u64 {
        self.broker_client()
            .map_or(0, BrokerClient::unacked_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builder::{NetPlan, ScenarioBuilder};

    fn sim_with(shards: usize, wl: BrokerWorkload, seed: u64) -> BrokerClusterSim {
        ScenarioBuilder::cluster(3)
            .shards(shards)
            .net(NetPlan::stable(Duration::from_millis(20)))
            .seed(seed)
            .build_broker_sim(wl)
    }

    fn broker_sim(groups: usize, fanout: bool, seed: u64) -> BrokerClusterSim {
        let wl = BrokerWorkload::steady(vec![("orders".into(), 4)], 400.0)
            .groups(groups)
            .fanout(fanout);
        sim_with(2, wl, seed)
    }

    #[test]
    fn produces_and_consumes_with_zero_loss() {
        let mut sim = broker_sim(1, false, 1);
        sim.run_until(SimTime::from_secs(12));
        let stats = sim.stats().expect("client attached");
        assert!(stats.produced > 2000, "produced {}", stats.produced);
        assert!(
            stats.acked_records > stats.produced / 2,
            "acked {} of {}",
            stats.acked_records,
            stats.produced
        );
        assert!(
            stats.produce_batches < stats.acked_records,
            "batching must coalesce"
        );
        let groups = sim.consumer_stats().expect("client attached");
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert!(g.consumed > 1000, "consumed {}", g.consumed);
        assert_eq!(g.lost, 0);
        assert_eq!(g.duplicated, 0);
        assert_eq!(g.out_of_order, 0);
        assert!(g.commits > 0, "offsets must commit durably");
    }

    #[test]
    fn drain_phase_acks_every_record() {
        let wl = BrokerWorkload::steady(vec![("t".into(), 2)], 300.0)
            .produce_for(Duration::from_secs(6));
        let mut sim = sim_with(2, wl, 3);
        sim.run_until(SimTime::from_secs(15));
        let stats = sim.stats().expect("client attached");
        assert!(stats.produced > 1000);
        assert_eq!(
            stats.acked_records, stats.produced,
            "drain must ack every record"
        );
        assert_eq!(sim.unacked_records(), 0);
    }

    #[test]
    fn leader_crash_loses_and_duplicates_nothing() {
        let wl = BrokerWorkload::steady(vec![("t".into(), 2)], 300.0)
            .produce_for(Duration::from_secs(10));
        let mut sim = sim_with(1, wl, 5);
        sim.run_until(SimTime::from_secs(6));
        let victim = sim.leader_of(0).expect("group 0 leader");
        sim.crash(victim);
        sim.run_until(SimTime::from_secs(25));
        let stats = sim.stats().expect("client attached");
        assert_eq!(
            stats.acked_records, stats.produced,
            "failover must not strand produces"
        );
        let g = &sim.consumer_stats().unwrap()[0];
        assert_eq!(g.consumed, stats.produced, "consumer reads everything");
        assert_eq!(g.lost, 0, "no record lost across failover");
        assert_eq!(g.duplicated, 0, "no record duplicated across failover");
        assert_eq!(g.out_of_order, 0);
        assert_eq!(g.current_lag, 0, "lag fully recovered");
    }

    #[test]
    fn fanout_spreads_fetches_off_the_leader() {
        let mut sim = broker_sim(4, true, 7);
        sim.run_until(SimTime::from_secs(12));
        let reads = sim.read_counters();
        assert!(
            reads.follower > 0,
            "fan-out consumers must fetch from followers: {reads:?}"
        );
        for g in sim.consumer_stats().unwrap() {
            assert_eq!(g.lost, 0);
            assert_eq!(g.duplicated, 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = broker_sim(2, false, seed);
            sim.run_until(SimTime::from_secs(8));
            let stats = sim.stats().unwrap();
            (
                stats.produced,
                stats.acked_records,
                stats.fetches,
                sim.net_counters(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).3, run(12).3);
    }
}
