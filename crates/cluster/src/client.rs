//! Open-loop benchmark client host (§IV-B2 methodology), for one Raft
//! group or many.
//!
//! The client routes every command over a placement with one row per
//! shard: a single group is the one-row case (the row `0..n_servers`,
//! every arrival sent on its own), a sharded world hash-routes each
//! command to its owning group and coalesces the arrivals of each
//! [`DEFAULT_BATCH_WINDOW`] into one batch per shard. Leader guesses,
//! redirects, timeout rotation and read fan-out all stay inside the
//! owning row — a request must never leave its shard, the data is only
//! there.

use crate::msg::ClusterMsg;
use bytes::Bytes;
use dynatune_kv::{KvCommand, KvResponse, ShardId, ShardMap, ShardRouter, WorkloadGen};
use dynatune_raft::NodeId;
use dynatune_simnet::{Channel, HostCtx, SimTime};
use dynatune_stats::{Histogram, OnlineStats};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Default batching window: arrivals within this span of the first pending
/// arrival ride the same per-shard batch. Small against the 100 ms server
/// RTT (at most a ~2 ms latency tax) but wide enough to coalesce under
/// load, where inter-arrival gaps shrink below it.
pub const DEFAULT_BATCH_WINDOW: Duration = Duration::from_millis(2);

/// One completed operation in the client's linearizability trace:
/// invocation/response instants plus the revision the operation observed
/// (reads: the value's `mod_revision`, 0 for a miss) or produced (puts:
/// the write's own revision). The stale-read checker
/// ([`stale_read_violations`](crate::observers::stale_read_violations))
/// compares these against real-time order per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The key the operation touched.
    pub key: Bytes,
    /// True for writes (`Put`), false for reads (`Get`).
    pub write: bool,
    /// First send instant (retries keep it — it is the invocation time).
    pub invoked: SimTime,
    /// Response arrival instant.
    pub completed: SimTime,
    /// Observed / produced revision.
    pub revision: u64,
}

/// Outcome aggregation for one offered-load level.
#[derive(Debug, Clone, Default)]
pub struct StepRecord {
    /// Offered rate of the step (req/s).
    pub offered_rps: f64,
    /// Duration of the step in seconds.
    pub hold_secs: f64,
    /// Requests sent during the step.
    pub sent: u64,
    /// Requests completed successfully (whenever the response arrived).
    pub completed: u64,
    /// Requests that failed (leadership change, retry exhausted).
    pub failed: u64,
    /// Latency of completed requests in milliseconds.
    pub latency_ms: OnlineStats,
}

impl StepRecord {
    /// Completed throughput in req/s, attributing completions to the step
    /// in which their request was sent.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.hold_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.hold_secs
        }
    }
}

/// Cumulative per-shard outcome counters, so experiments can snapshot
/// them at any two instants and difference for a windowed throughput.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Requests routed to this shard.
    pub sent: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed (leadership change, retries exhausted).
    pub failed: u64,
    /// Batch messages sent to this shard's group.
    pub batches: u64,
}

#[derive(Debug, Clone)]
struct Outstanding {
    sent_at: SimTime,
    send_step: usize,
    shard: ShardId,
    retries: u8,
    cmd: KvCommand,
}

/// Maximum redirect/timeout-driven retries per request.
const MAX_RETRIES: u8 = 3;

/// An open-loop client: sends according to the workload schedule regardless
/// of completions, follows leader redirects, records per-step latency and
/// per-shard counters.
///
/// Step completions are bucketed by *completion* time, matching how an
/// open-loop benchmark measures throughput per offered-load level: work
/// that spills past a level's window must not be credited to it, otherwise
/// a saturated server that eventually drains its backlog would appear to
/// keep up.
pub struct ClientHost {
    workload: WorkloadGen,
    router: ShardRouter,
    /// Per-shard replica placement (global host ids). **Dynamic**:
    /// [`ClientHost::repoint`] rewrites a row when the rebalancer moves a
    /// replica, so routing, redirect validation and read fan-out never
    /// assume the contiguous genesis universe.
    placement: Vec<Vec<NodeId>>,
    /// Per-shard leader guess (a host of the shard's row).
    leader_guess: Vec<NodeId>,
    next_req_id: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    steps: Vec<StepRecord>,
    /// End instant of each step's window.
    step_ends: Vec<SimTime>,
    /// Completions after the last window closed.
    late: u64,
    stats: Vec<ShardStats>,
    /// Per-shard latency histogram (µs) since the last
    /// [`ClientHost::take_latency_window`] — windowed tail-latency
    /// measurements for before/after comparisons.
    window_hist: Vec<Histogram>,
    /// Per-request response timeout; expired requests retry on the next
    /// replica of their shard. `None` disables timeouts.
    request_timeout: Option<Duration>,
    /// FIFO of `(deadline, req_id)` for timeout checks (constant timeout ⇒
    /// deadlines are naturally ordered).
    timeout_queue: VecDeque<(SimTime, u64)>,
    /// Requests that exhausted their retry budget via timeouts.
    timed_out: u64,
    /// Spread reads round-robin over the owning shard's replicas instead
    /// of sending them to the leader guess (follower-read offload).
    /// Writes always chase the leader.
    read_fanout: bool,
    /// Per-shard round-robin cursor for `read_fanout`.
    read_rr: Vec<usize>,
    /// Record completed `Get`/`Put` operations for linearizability checks.
    record_trace: bool,
    /// The recorded trace (empty unless `record_trace`).
    trace: Vec<OpRecord>,
    /// Batching window; `None` sends every arrival as its own request.
    batch_window: Option<Duration>,
    /// Pending batch buffers, one per shard, flushed together at
    /// `flush_at`.
    batch_scratch: Vec<Vec<(u64, KvCommand)>>,
    /// Flush deadline: first pending arrival's nominal time plus the batch
    /// window (`None` when nothing is pending). Anchoring on the arrival
    /// time, not the wake time, keeps a late wake from deferring overdue
    /// work another window.
    flush_at: Option<SimTime>,
}

impl ClientHost {
    /// Create a single-group client over servers `0..n_servers` that
    /// initially guesses server 0 as leader and sends every arrival on its
    /// own; the workload's schedule starts at `start`.
    #[must_use]
    pub fn new(workload: WorkloadGen, n_servers: usize, start: SimTime) -> Self {
        Self::over(workload, vec![(0..n_servers).collect()], None, start)
    }

    /// Create a client over the placement in `map` that batches per shard
    /// with [`DEFAULT_BATCH_WINDOW`]; each shard's initial leader guess is
    /// its replica 0.
    #[must_use]
    pub fn sharded(workload: WorkloadGen, map: ShardMap, start: SimTime) -> Self {
        let placement = (0..map.shards())
            .map(|s| map.servers_of(s).collect())
            .collect();
        Self::over(workload, placement, Some(DEFAULT_BATCH_WINDOW), start)
    }

    fn over(
        workload: WorkloadGen,
        placement: Vec<Vec<NodeId>>,
        batch_window: Option<Duration>,
        start: SimTime,
    ) -> Self {
        let shards = placement.len();
        let steps: Vec<StepRecord> = workload
            .steps()
            .iter()
            .map(|s| StepRecord {
                offered_rps: s.rps,
                hold_secs: s.hold.as_secs_f64(),
                ..StepRecord::default()
            })
            .collect();
        let step_ends = workload
            .steps()
            .iter()
            .scan(start, |t, s| {
                *t += s.hold;
                Some(*t)
            })
            .collect();
        Self {
            workload,
            router: ShardRouter::new(shards),
            leader_guess: placement.iter().map(|row| row[0]).collect(),
            placement,
            next_req_id: 0,
            outstanding: BTreeMap::new(),
            steps,
            step_ends,
            late: 0,
            stats: vec![ShardStats::default(); shards],
            window_hist: vec![Histogram::new(); shards],
            request_timeout: Some(Duration::from_secs(1)),
            timeout_queue: VecDeque::new(),
            timed_out: 0,
            read_fanout: false,
            read_rr: vec![0; shards],
            record_trace: false,
            trace: Vec::new(),
            batch_window,
            batch_scratch: vec![Vec::new(); shards],
            flush_at: None,
        }
    }

    /// Override (or disable) the per-request response timeout.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Spread reads round-robin across each shard's replicas as single
    /// requests (writes still chase the leader). Pointless under
    /// [`ReadStrategy::Log`] (non-leaders redirect) — pair with follower
    /// reads.
    ///
    /// [`ReadStrategy::Log`]: crate::server::ReadStrategy::Log
    #[must_use]
    pub fn with_read_fanout(mut self, fanout: bool) -> Self {
        self.read_fanout = fanout;
        self
    }

    /// Record completed `Get`/`Put` operations for linearizability checks.
    #[must_use]
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// The recorded operation trace (empty unless tracing was enabled).
    #[must_use]
    pub fn trace(&self) -> &[OpRecord] {
        &self.trace
    }

    /// Requests abandoned after exhausting timeout retries.
    #[must_use]
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Per-step results (valid after the run).
    #[must_use]
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Per-shard cumulative counters.
    #[must_use]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Requests still in flight (unanswered at the end of a run).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Completions that landed after the schedule's last window.
    #[must_use]
    pub fn late_completions(&self) -> u64 {
        self.late
    }

    /// Take (and reset) the latency histogram one shard accumulated since
    /// the previous take: completed-request latencies in microseconds.
    /// Call once to discard warm-up, again after a window of interest.
    pub fn take_latency_window(&mut self, shard: ShardId) -> Histogram {
        std::mem::take(&mut self.window_hist[shard])
    }

    /// Rewrite the placement row of `shard`: replica `from` is replaced by
    /// `to` (the rebalancer's cut-over). A leader guess pointing at `from`
    /// moves to `to`; requests already sent to `from` resolve through the
    /// ordinary redirect/timeout paths.
    pub fn repoint(&mut self, shard: ShardId, from: NodeId, to: NodeId) {
        for slot in &mut self.placement[shard] {
            if *slot == from {
                *slot = to;
            }
        }
        if self.leader_guess[shard] == from {
            self.leader_guess[shard] = to;
        }
    }

    /// Rotate a shard's leader guess to the next replica in its placement
    /// row. A guess no longer in the row (just repointed away) restarts at
    /// the row's first replica.
    fn rotate_guess(&mut self, shard: ShardId) {
        let row = &self.placement[shard];
        let next = match row.iter().position(|&r| r == self.leader_guess[shard]) {
            Some(i) => (i + 1) % row.len(),
            None => 0,
        };
        self.leader_guess[shard] = row[next];
    }

    /// The step whose window covers `now`, if any.
    fn step_of(&self, now: SimTime) -> Option<usize> {
        let idx = self.step_ends.partition_point(|&end| end <= now);
        (idx < self.step_ends.len()).then_some(idx)
    }

    fn arm_timeout(&mut self, now: SimTime, req_id: u64) {
        if let Some(t) = self.request_timeout {
            self.timeout_queue.push_back((now + t, req_id));
        }
    }

    /// Count a request as failed in its send step and its shard.
    fn fail(&mut self, o: &Outstanding) {
        self.steps[o.send_step].failed += 1;
        self.stats[o.shard].failed += 1;
    }

    /// Retry (or abandon) requests whose responses are overdue. A paused
    /// leader never answers, so without this a client would keep feeding a
    /// dead node for the entire outage.
    fn expire_timeouts(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        // The silent server may be dead: rotate each shard's guess once per
        // expiry wave (not per request, or a burst would spray across the
        // group).
        let mut rotated: Vec<ShardId> = Vec::new();
        while let Some(&(deadline, req_id)) = self.timeout_queue.front() {
            if deadline > ctx.now {
                break;
            }
            self.timeout_queue.pop_front();
            let Some(o) = self.outstanding.get_mut(&req_id) else {
                continue; // already answered
            };
            if o.retries >= MAX_RETRIES {
                if let Some(o) = self.outstanding.remove(&req_id) {
                    self.fail(&o);
                }
                self.timed_out += 1;
                continue;
            }
            o.retries += 1;
            let (shard, cmd) = (o.shard, o.cmd.clone());
            if !rotated.contains(&shard) {
                self.rotate_guess(shard);
                rotated.push(shard);
            }
            let target = self.leader_guess[shard];
            ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
            self.arm_timeout(ctx.now, req_id);
        }
    }

    /// Send every arrival whose time has come — on its own, or into its
    /// shard's pending batch — flush the batches once their window closes,
    /// and expire overdue requests.
    pub fn handle_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        self.expire_timeouts(ctx);
        while let Some(at) = self.workload.peek_next() {
            if at > ctx.now {
                break;
            }
            let step = self.workload.step_index();
            let Some((_, cmd)) = self.workload.next_request() else {
                break;
            };
            let shard = self.router.shard_of_command(&cmd);
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            self.outstanding.insert(
                req_id,
                Outstanding {
                    sent_at: ctx.now,
                    send_step: step,
                    shard,
                    retries: 0,
                    cmd: cmd.clone(),
                },
            );
            self.steps[step].sent += 1;
            self.stats[shard].sent += 1;
            self.arm_timeout(ctx.now, req_id);
            let target = if self.read_fanout && cmd.is_read() {
                let row = &self.placement[shard];
                self.read_rr[shard] = (self.read_rr[shard] + 1) % row.len();
                row[self.read_rr[shard]]
            } else if let Some(window) = self.batch_window {
                self.flush_at.get_or_insert(at + window);
                self.batch_scratch[shard].push((req_id, cmd));
                continue;
            } else {
                self.leader_guess[shard]
            };
            ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
        }
        if self.flush_at.is_some_and(|t| t <= ctx.now) {
            self.flush_at = None;
            for shard in 0..self.placement.len() {
                if self.batch_scratch[shard].is_empty() {
                    continue;
                }
                let reqs = std::mem::take(&mut self.batch_scratch[shard]);
                self.stats[shard].batches += 1;
                ctx.send(
                    self.leader_guess[shard],
                    Channel::Tcp,
                    ClusterMsg::ClientBatch { reqs },
                );
            }
        }
    }

    /// Process a server response.
    pub fn handle_message(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg>,
        _from: NodeId,
        msg: ClusterMsg,
    ) {
        match msg {
            ClusterMsg::ClientResp { req_id, result } => {
                let Some(o) = self.outstanding.remove(&req_id) else {
                    return;
                };
                let Some(resp) = result else {
                    self.fail(&o);
                    return;
                };
                if self.record_trace {
                    if let Some(rec) = op_record(&o.cmd, &resp, o.sent_at, ctx.now) {
                        self.trace.push(rec);
                    }
                }
                let elapsed = ctx.now - o.sent_at;
                self.stats[o.shard].completed += 1;
                self.window_hist[o.shard].record(elapsed.as_micros() as u64);
                // Bucket by completion time; spill-over past the last
                // window is recorded separately.
                match self.step_of(ctx.now) {
                    Some(step) => {
                        let rec = &mut self.steps[step];
                        rec.completed += 1;
                        rec.latency_ms.push(elapsed.as_secs_f64() * 1e3);
                    }
                    None => self.late += 1,
                }
            }
            ClusterMsg::ClientRedirect { req_id, hint, cmd } => {
                let Some(o) = self.outstanding.get_mut(&req_id) else {
                    return;
                };
                let shard = o.shard;
                let exhausted = o.retries >= MAX_RETRIES;
                if !exhausted {
                    o.retries += 1;
                }
                match hint {
                    // Hints are global host ids (the server translates);
                    // trust only hints inside the shard's current placement
                    // row — which may name a spare the rebalancer admitted,
                    // never a host of a foreign group. Without a usable
                    // hint, probe the row round-robin.
                    Some(h) if self.placement[shard].contains(&h) => {
                        self.leader_guess[shard] = h;
                    }
                    _ => self.rotate_guess(shard),
                }
                if exhausted {
                    if let Some(o) = self.outstanding.remove(&req_id) {
                        self.fail(&o);
                    }
                    return;
                }
                let target = self.leader_guess[shard];
                ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
                self.arm_timeout(ctx.now, req_id);
            }
            // Clients ignore protocol traffic.
            ClusterMsg::Raft(_)
            | ClusterMsg::ClientReq { .. }
            | ClusterMsg::ClientBatch { .. }
            | ClusterMsg::ReadIndexReq { .. }
            | ClusterMsg::ReadIndexResp { .. } => {}
        }
    }

    /// Next workload arrival, batch flush or timeout check, whichever is
    /// sooner.
    #[must_use]
    pub fn wake_deadline(&self) -> Option<SimTime> {
        let arrival = self.workload.peek_next();
        let timeout = self.timeout_queue.front().map(|&(d, _)| d);
        [arrival, timeout, self.flush_at]
            .into_iter()
            .flatten()
            .min()
    }
}

/// Build a trace record for a completed operation; only `Get` and `Put`
/// participate in the linearizability check (they carry revisions —
/// which is also why checked workloads must be delete-free: an
/// unrecorded `Delete` would make a later legitimate miss look stale).
fn op_record(
    cmd: &KvCommand,
    resp: &KvResponse,
    invoked: SimTime,
    completed: SimTime,
) -> Option<OpRecord> {
    match (cmd, resp) {
        (KvCommand::Get { key }, KvResponse::Get { value }) => Some(OpRecord {
            key: key.clone(),
            write: false,
            invoked,
            completed,
            revision: value.as_ref().map_or(0, |v| v.mod_revision),
        }),
        (KvCommand::Put { key, .. }, KvResponse::Put { revision, .. }) => Some(OpRecord {
            key: key.clone(),
            write: true,
            invoked,
            completed,
            revision: *revision,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynatune_kv::{KvCommand, KvResponse, OpMix, RateStep};
    use dynatune_simnet::rng::Rng;
    use std::time::Duration;

    fn client(rps: f64, secs: u64) -> ClientHost {
        let wl = WorkloadGen::new(
            vec![RateStep {
                rps,
                hold: Duration::from_secs(secs),
            }],
            OpMix::write_heavy(),
            100,
            0.99,
            16,
            Rng::new(5),
            SimTime::ZERO,
        );
        ClientHost::new(wl, 3, SimTime::ZERO)
    }

    #[test]
    fn sends_requests_on_schedule() {
        let mut c = client(100.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_secs(1), 0, &mut out);
        c.handle_wake(&mut ctx);
        // All arrivals in [0, 1s) fire at once when woken late.
        assert!(out.len() > 50, "sent {}", out.len());
        assert_eq!(c.outstanding(), out.len());
        assert!(out.iter().all(|(to, _, _)| *to == 0), "initial guess is 0");
        assert_eq!(c.steps()[0].sent, out.len() as u64);
    }

    #[test]
    fn completion_records_latency() {
        let mut c = client(100.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let (_, _, first) = &out[0];
        let req_id = match first {
            ClusterMsg::ClientReq { req_id, .. } => *req_id,
            other => panic!("unexpected {other:?}"),
        };
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(150), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            0,
            ClusterMsg::ClientResp {
                req_id,
                result: Some(KvResponse::Put {
                    prev: None,
                    revision: 1,
                }),
            },
        );
        assert_eq!(c.steps()[0].completed, 1);
        assert!(c.steps()[0].latency_ms.mean() > 0.0);
        assert!(c.steps()[0].latency_ms.mean() <= 150.0);
    }

    #[test]
    fn redirect_retries_with_hint() {
        let mut c = client(50.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let req_id = match &out[0].2 {
            ClusterMsg::ClientReq { req_id, .. } => *req_id,
            other => panic!("unexpected {other:?}"),
        };
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(110), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            0,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(2),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, 2, "resent to the hinted leader");
        // Subsequent requests go to the new guess too.
        let mut out3 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(500), 0, &mut out3);
        c.handle_wake(&mut ctx);
        assert!(out3.iter().all(|(to, _, _)| *to == 2));
    }

    #[test]
    fn silent_server_triggers_timeout_retry() {
        let mut c = client(100.0, 1).with_request_timeout(Some(Duration::from_millis(200)));
        let mut out = Vec::new();
        // Deliver all arrivals of the first 100ms in one late wake.
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let sent_initially = out.len();
        assert!(
            sent_initially > 0,
            "100ms at 100rps should produce arrivals"
        );
        // Next wake must include the timeout deadline (t=300ms).
        let wake = c.wake_deadline().unwrap();
        assert!(wake <= SimTime::from_millis(300), "wake {wake}");
        // Nothing answered; by 350ms those requests retry on server 1.
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(350), 0, &mut out2);
        c.handle_wake(&mut ctx);
        let retries = out2
            .iter()
            .filter(|(to, _, m)| matches!(m, ClusterMsg::ClientReq { .. }) && *to == 1)
            .count();
        assert!(
            retries >= sent_initially,
            "timed-out requests retry on the next server: {retries} < {sent_initially}"
        );
    }

    #[test]
    fn timeout_budget_exhausts_to_failure() {
        let mut c = client(100.0, 1).with_request_timeout(Some(Duration::from_millis(100)));
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        assert!(c.outstanding() > 0);
        // Walk time forward through all retry budgets without any response.
        for secs in 1..=10u64 {
            let mut o = Vec::new();
            let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100 + secs * 200), 0, &mut o);
            c.expire_timeouts(&mut ctx);
        }
        assert!(c.timed_out() > 0, "requests should give up eventually");
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.steps()[0].failed, c.timed_out());
    }

    #[test]
    fn retry_budget_exhausts_to_failure() {
        let mut c = client(50.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let req_id = match &out[0].2 {
            ClusterMsg::ClientReq { req_id, .. } => *req_id,
            other => panic!("unexpected {other:?}"),
        };
        for i in 0..=u64::from(MAX_RETRIES) {
            let mut o = Vec::new();
            let mut ctx = HostCtx::test_ctx(SimTime::from_millis(110 + i), 0, &mut o);
            c.handle_message(
                &mut ctx,
                0,
                ClusterMsg::ClientRedirect {
                    req_id,
                    hint: None,
                    cmd: KvCommand::Get {
                        key: bytes::Bytes::from_static(b"k"),
                    },
                },
            );
        }
        assert_eq!(c.steps()[0].failed, 1);
        assert!(!c.outstanding.contains_key(&req_id));
    }

    fn sharded(shards: usize, replicas: usize, rps: f64) -> ClientHost {
        let wl = WorkloadGen::new(
            vec![RateStep {
                rps,
                hold: Duration::from_secs(1),
            }],
            OpMix::write_heavy(),
            1000,
            0.0,
            16,
            Rng::new(5),
            SimTime::ZERO,
        );
        ClientHost::sharded(wl, ShardMap::new(shards, replicas), SimTime::ZERO)
    }

    #[test]
    fn wake_batches_per_shard() {
        let mut c = sharded(4, 3, 400.0);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(500), 0, &mut out);
        c.handle_wake(&mut ctx);
        // All arrivals of [0, 500ms) coalesce into at most one batch per
        // shard, addressed to each shard's replica 0.
        assert!(!out.is_empty() && out.len() <= 4, "batches: {}", out.len());
        let map = ShardMap::new(4, 3);
        let mut items = 0;
        for (to, _, msg) in &out {
            let ClusterMsg::ClientBatch { reqs } = msg else {
                panic!("expected batch, got {msg:?}");
            };
            let shard = map.shard_of_server(*to).expect("batch sent to a server");
            assert_eq!(*to, map.server(shard, 0), "initial guess is replica 0");
            items += reqs.len();
        }
        assert_eq!(items as u64, c.shard_stats().iter().map(|s| s.sent).sum());
        assert_eq!(c.outstanding(), items);
    }

    #[test]
    fn completion_lands_in_the_owning_shard() {
        let mut c = sharded(2, 3, 100.0);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(200), 0, &mut out);
        c.handle_wake(&mut ctx);
        let (to, _, first) = &out[0];
        let shard = ShardMap::new(2, 3).shard_of_server(*to).unwrap();
        let ClusterMsg::ClientBatch { reqs } = first else {
            panic!("unexpected {first:?}");
        };
        let req_id = reqs[0].0;
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(250), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            *to,
            ClusterMsg::ClientResp {
                req_id,
                result: Some(KvResponse::Put {
                    prev: None,
                    revision: 1,
                }),
            },
        );
        assert_eq!(c.shard_stats()[shard].completed, 1);
        assert_eq!(c.take_latency_window(shard).count(), 1);
        let other = 1 - shard;
        assert_eq!(c.shard_stats()[other].completed, 0);
    }

    #[test]
    fn redirect_stays_inside_the_group() {
        let mut c = sharded(2, 3, 100.0);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(200), 0, &mut out);
        c.handle_wake(&mut ctx);
        let (to, _, first) = &out[0];
        let map = ShardMap::new(2, 3);
        let shard = map.shard_of_server(*to).unwrap();
        let ClusterMsg::ClientBatch { reqs } = first else {
            panic!("unexpected {first:?}");
        };
        let (req_id, _) = reqs[0].clone();
        // A valid in-group hint is adopted.
        let hint = map.server(shard, 2);
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(210), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            *to,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(hint),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, hint, "resent to the hinted replica");
        // A hint pointing outside the group is ignored: rotate instead.
        let foreign = map.server(1 - shard, 0);
        let mut out3 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(220), 0, &mut out3);
        c.handle_message(
            &mut ctx,
            hint,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(foreign),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out3.len(), 1);
        assert_eq!(
            map.shard_of_server(out3[0].0),
            Some(shard),
            "retry must stay in the owning group"
        );
    }

    #[test]
    fn repoint_breaks_the_static_universe_assumption() {
        // Regression: routing used to be pure ShardMap arithmetic
        // (base + (local+1) % replicas), which cannot address a replica
        // outside the contiguous genesis block. After a repoint the row
        // names a spare host beyond map.n_servers(), and every routing
        // path — guess, rotation, hints, fan-out — must follow it.
        let mut c = sharded(2, 3, 100.0);
        let map = ShardMap::new(2, 3);
        let spare = map.n_servers() + 1; // outside the static universe
        let retired = map.server(0, 1);
        c.repoint(0, retired, spare);
        assert_eq!(c.placement[0], [map.server(0, 0), spare, map.server(0, 2)]);
        assert!(map.shard_of_server(spare).is_none(), "spare is unmapped");
        // Rotation cycles through the spare instead of the retired host.
        c.leader_guess[0] = map.server(0, 0);
        c.rotate_guess(0);
        assert_eq!(c.leader_guess[0], spare);
        c.rotate_guess(0);
        assert_eq!(c.leader_guess[0], map.server(0, 2));
        c.leader_guess[0] = map.server(0, 0);
        // A redirect hint naming the spare is now trusted...
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(500), 0, &mut out);
        c.handle_wake(&mut ctx);
        let mut shard0_req = None;
        for (to, _, m) in &out {
            if let ClusterMsg::ClientBatch { reqs } = m {
                if c.placement[0].contains(to) {
                    shard0_req = Some(reqs[0].clone());
                    break;
                }
            }
        }
        let (req_id, cmd) = shard0_req.expect("some request routed to shard 0");
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(210), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            map.server(0, 0),
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(spare),
                cmd,
            },
        );
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, spare, "hint to the admitted spare is adopted");
        // ...while a hint to the retired host is rejected (rotate instead).
        let mut out3 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(220), 0, &mut out3);
        c.handle_message(
            &mut ctx,
            spare,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(retired),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out3.len(), 1);
        assert_ne!(out3[0].0, retired, "retired replica is never re-targeted");
        assert!(c.placement[0].contains(&out3[0].0));
    }

    #[test]
    fn timeouts_rotate_within_the_group_and_eventually_fail() {
        let mut c = sharded(2, 3, 200.0).with_request_timeout(Some(Duration::from_millis(100)));
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        assert!(c.outstanding() > 0);
        let map = ShardMap::new(2, 3);
        // First expiry wave: retries go out as singles, still in-group.
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(300), 0, &mut out2);
        c.handle_wake(&mut ctx);
        let retries: Vec<_> = out2
            .iter()
            .filter(|(_, _, m)| matches!(m, ClusterMsg::ClientReq { .. }))
            .collect();
        assert!(!retries.is_empty());
        for (to, _, _) in &retries {
            assert!(map.shard_of_server(*to).is_some());
        }
        // Exhaust every retry budget without a single response.
        for wave in 1..=10u64 {
            let mut o = Vec::new();
            let mut ctx = HostCtx::test_ctx(SimTime::from_millis(300 + wave * 200), 0, &mut o);
            c.expire_timeouts(&mut ctx);
        }
        assert!(c.timed_out() > 0);
        assert_eq!(c.outstanding(), 0);
        let failed: u64 = c.shard_stats().iter().map(|s| s.failed).sum();
        assert_eq!(failed, c.timed_out());
    }
}
