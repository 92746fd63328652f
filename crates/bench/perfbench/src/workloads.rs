//! The four workloads, the fault driver they share, and the measurements
//! and correctness gates taken from each run.
//!
//! Every workload runs on simulated time, so everything it reports except
//! `cpu_s`, `setup_s` and `peak_rss_mb` is a modelled number: identical
//! for a seed on any machine. The package README says why each workload
//! exists and what it injects.

use crate::assembly::{self, broker_world, kv_world, KvWorld, Node, Probe, Tally};
use crate::cputime::process_cpu;
use crate::meter::{Meter, Yardstick, REF_PASS_S};
use dynatune_cluster::broker::BrokerHost;
use dynatune_cluster::{
    election_safety_violations, extract_failover, stale_read_violations, BrokerWorkload,
    ClientHost, ClusterHost, NetPlan, ReadCounters, ScenarioBuilder, StepRecord, WorkloadSpec,
};
use dynatune_core::TuningConfig;
use dynatune_kv::{OpMix, RateStep};
use dynatune_raft::{NodeId, RaftEvent, Role};
use dynatune_simnet::{Host, LinkSchedule, NetCounters, NetParams, Rng, SimTime, World};
use dynatune_stats::quantile_rank;
use std::ops::Range;
use std::time::Duration;

/// The workloads, by name.
pub const NAMES: [&str; 4] = ["failover", "write_ramp", "read_mostly", "broker_stream"];

/// How much of each workload a run simulates.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Share of every fault count, ramp-step hold and broker window (1 for
    /// the benchmark).
    pub fraction: f64,
    /// Set-ups made per trial; the median is reported.
    pub setup_reps: usize,
    /// Run the costly trace checks (stale reads). Repetitions of a run
    /// that only re-measure time skip them.
    pub checks: bool,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        fraction: 1.0,
        setup_reps: 15,
        checks: true,
    };

    fn faults(&self, full: usize) -> usize {
        ((full as f64 * self.fraction).round() as usize).max(2)
    }
}

/// Everything one run of a workload modelled. Equal seeds give equal
/// values, traced or not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Modelled {
    /// Requests (KV) or records (broker) the clients issued.
    pub attempted: u64,
    /// Of those: failed, timed out, or still unanswered at the end.
    pub failed: u64,
    /// Latency samples at the reference rate (ms).
    pub lat_ms: Vec<f64>,
    /// Completed rate: the best step of a ramp, else the whole window
    /// (ops/s, or records/s for the broker).
    pub goodput: f64,
    /// Leader CPU over the reference window (% of one core).
    pub leader_cpu_pct: f64,
    /// Mean CPU of the other servers over the same window.
    pub follower_cpu_pct: f64,
    /// Per fault: failure → first election timeout on a live server (ms).
    pub detect_ms: Vec<f64>,
    /// Per fault: failure → new leader (ms).
    pub ots_ms: Vec<f64>,
    /// Per fault: failure → first request issued after it is served (ms).
    pub unavail_ms: Vec<f64>,
    /// Per fault: the randomized timeout that expired at detection (ms).
    pub rto_ms: Vec<f64>,
    /// Per fault: the leader's mean heartbeat interval just before it (ms).
    pub hb_ms: Vec<f64>,
    /// Leader elections after set-up.
    pub elections: u64,
    /// Elections no injected fault accounts for.
    pub elections_spurious: u64,
    /// Faults no other server won an election for before the failed
    /// leader came back.
    pub faults_ridden_out: u64,
    /// Fabric counters summed over the workload's worlds.
    pub net: NetCounters,
    /// Served reads by path.
    pub reads: ReadCounters,
    /// `InstallSnapshot` transfers started.
    pub snapshots_sent: u64,
    /// Longest live log seen at a fault or at the end.
    pub max_log_len: u64,
    /// KV requests abandoned after their retries timed out.
    pub timed_out: u64,
    /// Broker: records per produce batch.
    pub records_per_batch: f64,
    /// Broker: fetches completed.
    pub fetches: u64,
    /// Broker: requests re-sent.
    pub retries: u64,
    /// Broker: mean produce latency as the client reports it (ms).
    pub produce_ms_mean: f64,
    /// Broker: worst consumer lag (records).
    pub lag_max_records: u64,
    /// Correctness gates that failed, one line each.
    pub gate_failures: Vec<String>,
}

/// A run's outcome: modelled results plus what the host machine measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The modelled results.
    pub modelled: Modelled,
    /// Wall seconds of the measured window (all simulation after set-up).
    pub wall_s: f64,
    /// CPU seconds of the same window.
    pub cpu_s: f64,
    /// The same window in seconds at the reference speed (`meter`).
    pub ref_s: f64,
    /// Median CPU seconds of one set-up (build plus simulated warm-up).
    pub setup_s: f64,
    /// Host-call timing over the measured window (traced runs only).
    pub tally: Tally,
}

impl Outcome {
    /// Pool independent trials of one workload: counts add up, samples
    /// join, rates and loads average, maxima stay maxima, times add up.
    fn pool(trials: Vec<Outcome>) -> Outcome {
        let k = trials.len().max(1) as f64;
        let mut out = Outcome::default();
        for t in trials {
            let (p, m) = (&mut out.modelled, t.modelled);
            p.attempted += m.attempted;
            p.failed += m.failed;
            p.lat_ms.extend(m.lat_ms);
            p.goodput += m.goodput / k;
            p.leader_cpu_pct += m.leader_cpu_pct / k;
            p.follower_cpu_pct += m.follower_cpu_pct / k;
            p.detect_ms.extend(m.detect_ms);
            p.ots_ms.extend(m.ots_ms);
            p.unavail_ms.extend(m.unavail_ms);
            p.rto_ms.extend(m.rto_ms);
            p.hb_ms.extend(m.hb_ms);
            p.elections += m.elections;
            p.elections_spurious += m.elections_spurious;
            p.faults_ridden_out += m.faults_ridden_out;
            add_net(&mut p.net, m.net);
            p.reads = p.reads.merged(m.reads);
            p.snapshots_sent += m.snapshots_sent;
            p.max_log_len = p.max_log_len.max(m.max_log_len);
            p.timed_out += m.timed_out;
            p.records_per_batch += m.records_per_batch / k;
            p.fetches += m.fetches;
            p.retries += m.retries;
            p.produce_ms_mean += m.produce_ms_mean / k;
            p.lag_max_records = p.lag_max_records.max(m.lag_max_records);
            p.gate_failures.extend(m.gate_failures);
            out.wall_s += t.wall_s;
            out.cpu_s += t.cpu_s;
            out.ref_s += t.ref_s;
            out.setup_s += t.setup_s;
            out.tally.merge(&t.tally);
        }
        out
    }
}

/// Run `trials` independent trials, each rooted in its own stream of
/// `seed`, and pool them.
fn trials(seed: u64, trials: usize, mut run: impl FnMut(Rng) -> Outcome) -> Outcome {
    let root = Rng::new(seed);
    Outcome::pool(
        (0..trials as u64)
            .map(|i| run(root.child(100 + i)))
            .collect(),
    )
}

/// Percentile `q` of sorted `samples` by the workspace rank rule
/// (`dynatune_stats::quantile_rank`); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as u64;
    if n == 0 {
        return 0.0;
    }
    sorted[(quantile_rank(n, q) - 1) as usize]
}

/// Run workload `name` with `seed`.
///
/// # Panics
/// Panics on an unknown name (the CLI checks names first).
pub fn run(name: &str, seed: u64, traced: bool, scale: Scale, yard: &mut Yardstick) -> Outcome {
    match name {
        "failover" => failover(seed, traced, scale, yard),
        "write_ramp" => kv_ramp(seed, traced, scale, &WRITE_RAMP, yard),
        "read_mostly" => kv_ramp(seed, traced, scale, &READ_MOSTLY, yard),
        "broker_stream" => broker_stream(seed, traced, scale, yard),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------------------
// Fault phase
// ---------------------------------------------------------------------------

/// A periodic leader-fault schedule: one fault per `cycle`, at a seeded
/// phase in `[0, phase_span)`. Fault `k` hits the leader of group
/// `k % groups` and pauses it for `hold`, or crash-restarts it when
/// `crash` is set.
#[derive(Debug, Clone, Copy)]
struct FaultPlan {
    count: usize,
    cycle: Duration,
    phase_span: Duration,
    hold: Duration,
    crash: bool,
}

impl FaultPlan {
    /// End of the run: one spare cycle after the last fault's, so its
    /// election completes inside the window.
    fn end(&self, first: SimTime) -> SimTime {
        first + self.cycle * (self.count as u32 + 1)
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy)]
struct Fault {
    at: SimTime,
    /// When the failed leader was running again.
    back: SimTime,
    group: usize,
    node: Option<NodeId>,
    hb_ms: f64,
}

/// Server ids of each Raft group of a world.
type Groups = Vec<Range<usize>>;

/// Step by which a fault whose group is between leaders waits for one.
const LEADER_POLL: Duration = Duration::from_millis(50);
/// Cycles a fault waits for a leader before the run counts the group as
/// stuck without one (a liveness failure).
const LEADER_PATIENCE: u32 = 2;

fn leader_of<H: Node>(world: &World<Probe<H>>, group: &Range<usize>) -> Option<NodeId>
where
    Probe<H>: Host,
{
    let mut best: Option<(u64, NodeId)> = None;
    for id in group.clone() {
        if world.is_paused(id) {
            continue;
        }
        let node = assembly::server(world, id).node();
        if node.role() == Role::Leader && best.is_none_or(|(t, _)| node.term() > t) {
            best = Some((node.term(), id));
        }
    }
    best.map(|(_, id)| id)
}

fn servers(groups: &Groups) -> impl Iterator<Item = NodeId> + '_ {
    groups.iter().flat_map(Clone::clone)
}

fn max_log_len<H: Node>(world: &World<Probe<H>>, groups: &Groups) -> u64
where
    Probe<H>: Host,
{
    servers(groups)
        .map(|id| assembly::server(world, id).log_len() as u64)
        .max()
        .unwrap_or(0)
}

/// Drive `world` through `plan` from `first`, then on to `end`.
/// A fault whose group is between leaders waits for the next one (at
/// most `LEADER_PATIENCE` cycles). Returns the faults and the longest log
/// seen.
fn drive_faults<H: Node>(
    world: &mut World<Probe<H>>,
    meter: &mut Meter<'_>,
    groups: &Groups,
    plan: &FaultPlan,
    first: SimTime,
    end: SimTime,
    rng: &mut Rng,
) -> (Vec<Fault>, u64)
where
    Probe<H>: Host,
{
    let mut faults = Vec::with_capacity(plan.count);
    let mut longest = 0;
    for k in 0..plan.count {
        let group = k % groups.len();
        let due = first + plan.cycle * k as u32 + plan.phase_span.mul_f64(rng.f64());
        // A slow election can push the previous fault past this one's slot.
        let mut at = due.max(world.now());
        let give_up = at + plan.cycle * LEADER_PATIENCE;
        meter.run_until(world, at);
        let mut node = leader_of(world, &groups[group]);
        while node.is_none() && at < give_up {
            at += LEADER_POLL;
            meter.run_until(world, at);
            node = leader_of(world, &groups[group]);
        }
        longest = longest.max(max_log_len(world, groups));
        let mut hb_ms = 0.0;
        let mut back = at;
        if let Some(leader) = node {
            let s = assembly::server(world, leader).node();
            let base = groups[group].start;
            let paced: Vec<f64> = groups[group]
                .clone()
                .filter(|&id| id != leader)
                .filter_map(|id| s.pacer_interval(id - base))
                .map(|d| d.as_secs_f64() * 1e3)
                .collect();
            hb_ms = paced.iter().sum::<f64>() / paced.len().max(1) as f64;
            if plan.crash {
                assembly::crash(world, leader);
            } else {
                back = at + plan.hold;
                world.pause(leader);
                meter.run_until(world, back);
                world.resume(leader);
            }
        }
        faults.push(Fault {
            at,
            back,
            group,
            node,
            hb_ms,
        });
    }
    meter.run_until(world, end);
    (faults, longest.max(max_log_len(world, groups)))
}

/// Detection, OTS, unavailability, elections and Election Safety over a
/// run that set up until `setup_end` and ended at `end`. `served` lists
/// `(invoked, completed, group)` of every served request.
fn fault_metrics<H: Node>(
    world: &World<Probe<H>>,
    groups: &Groups,
    faults: &[Fault],
    served: &[(SimTime, SimTime, usize)],
    (setup_end, end): (SimTime, SimTime),
    label: &str,
    out: &mut Modelled,
) where
    Probe<H>: Host,
{
    let events: Vec<Vec<(SimTime, NodeId, RaftEvent)>> = groups
        .iter()
        .map(|g| {
            let mut ev: Vec<_> = g
                .clone()
                .flat_map(|id| {
                    assembly::server(world, id)
                        .events()
                        .iter()
                        .map(move |&(t, e)| (t, id, e))
                })
                .collect();
            ev.sort_by_key(|&(t, id, _)| (t, id));
            ev
        })
        .collect();
    let mut new_leaders = 0u64;
    for (k, f) in faults.iter().enumerate() {
        let Some(node) = f.node else {
            out.gate_failures.push(format!(
                "{label}: group {} stayed without a leader for {LEADER_PATIENCE} cycles before fault {k}",
                f.group
            ));
            continue;
        };
        let times = extract_failover(&events[f.group], f.at, node);
        let Some(detect) = times.detection else {
            out.gate_failures.push(format!(
                "{label}: no live server detected fault {k} at {}",
                f.at
            ));
            continue;
        };
        // No other server won before the failed leader came back: the
        // outage lasted until the first election after the fault, or, if
        // the returning leader kept its term, until it returned.
        let ots = times.ots.unwrap_or_else(|| {
            out.faults_ridden_out += 1;
            events[f.group]
                .iter()
                .find(|(t, _, e)| *t >= f.at && matches!(e, RaftEvent::BecameLeader { .. }))
                .map_or(f.back - f.at, |&(t, _, _)| t - f.at)
        });
        new_leaders += u64::from(times.ots.is_some());
        out.detect_ms.push(detect.as_secs_f64() * 1e3);
        out.ots_ms.push(ots.as_secs_f64() * 1e3);
        out.rto_ms.push(times.detection_rto_ms.unwrap_or(0.0));
        out.hb_ms.push(f.hb_ms);
        let first_served = served
            .iter()
            .filter(|&&(invoked, _, g)| g == f.group && invoked >= f.at)
            .map(|&(_, done, _)| done)
            .min();
        // Nothing served before the window closed: unavailable until then.
        let back_in_service = first_served.unwrap_or(end);
        out.unavail_ms
            .push((back_in_service - f.at).as_secs_f64() * 1e3);
    }
    let mut elections = 0;
    for (g, ev) in events.iter().enumerate() {
        let violations = election_safety_violations(ev);
        if violations > 0 {
            out.gate_failures.push(format!(
                "{label}: group {g} broke Election Safety {violations} times"
            ));
        }
        elections += ev
            .iter()
            .filter(|(t, _, e)| *t >= setup_end && matches!(e, RaftEvent::BecameLeader { .. }))
            .count() as u64;
    }
    out.elections += elections;
    out.elections_spurious += elections.saturating_sub(new_leaders);
}

/// The CPU meter's sampling window (the builder's default).
const CPU_WINDOW: Duration = Duration::from_secs(5);

/// CPU over `[from, to)` per sampling window: each group's busiest server
/// is its leader in that window. Returns the mean leader load and the mean
/// load of the other servers.
fn cpu_split<H: Node>(
    world: &World<Probe<H>>,
    groups: &Groups,
    from: SimTime,
    to: SimTime,
) -> (f64, f64)
where
    Probe<H>: Host,
{
    let (mut leader, mut others, mut n_lead, mut n_other) = (0.0, 0.0, 0u32, 0u32);
    let mut t = from;
    while t < to {
        let next = (t + CPU_WINDOW).min(to);
        for g in groups {
            let mut loads: Vec<f64> = g
                .clone()
                .map(|id| assembly::server(world, id).cpu().mean_utilization(t, next))
                .collect();
            loads.sort_by(f64::total_cmp);
            leader += loads.pop().unwrap_or(0.0);
            n_lead += 1;
            others += loads.iter().sum::<f64>();
            n_other += loads.len() as u32;
        }
        t = next;
    }
    (
        leader / f64::from(n_lead.max(1)),
        others / f64::from(n_other.max(1)),
    )
}

fn add_net(total: &mut NetCounters, c: NetCounters) {
    total.sent += c.sent;
    total.delivered += c.delivered;
    total.dropped_loss += c.dropped_loss;
    total.duplicated += c.duplicated;
    total.dropped_paused += c.dropped_paused;
    total.dropped_partitioned += c.dropped_partitioned;
}

fn world_counters<H: Node>(world: &World<Probe<H>>, groups: &Groups, out: &mut Modelled)
where
    Probe<H>: Host,
{
    add_net(&mut out.net, world.counters());
    for id in servers(groups) {
        let s = assembly::server(world, id);
        out.reads = out.reads.merged(s.reads_served());
        out.snapshots_sent += s.snapshots_sent();
    }
}

fn tally_of<H>(world: &World<Probe<H>>) -> Tally
where
    Probe<H>: Host,
{
    let mut t = Tally::default();
    for id in 0..world.len() {
        if let Some(own) = &world.host(id).tally {
            t.merge(own);
        }
    }
    t
}

/// Build-and-warm `reps` times; keep the last world. Returns it with the
/// median CPU seconds of one set-up at the reference speed: each set-up
/// follows a yardstick pass, and the median set-up is divided by the
/// median pass (`meter`).
fn set_up<W>(reps: usize, yard: &mut Yardstick, mut build: impl FnMut() -> W) -> (W, f64) {
    let (mut cpus, mut passes) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        passes.push(yard.pass());
        let t0 = process_cpu();
        let w = std::hint::black_box(build());
        cpus.push(process_cpu().saturating_sub(t0).as_secs_f64());
        last = Some(w);
    }
    cpus.sort_by(f64::total_cmp);
    passes.sort_by(f64::total_cmp);
    let setup_s = cpus[cpus.len() / 2] / passes[passes.len() / 2] * REF_PASS_S;
    (last.expect("at least one set-up"), setup_s)
}

// ---------------------------------------------------------------------------
// KV workloads
// ---------------------------------------------------------------------------

const KV_SERVERS: usize = 5;
const KV_KEYS: usize = 100_000;
const ZIPF: f64 = 0.99;
const VALUE_BYTES: usize = 128;
/// Simulated warm-up before any client traffic: a leader is elected and
/// the tuners have their first estimates. It is part of set-up.
const WARMUP: Duration = Duration::from_secs(10);

/// The single Raft group of a KV world.
fn kv_group() -> Groups {
    std::iter::once(0..KV_SERVERS).collect()
}

fn kv_client(world: &KvWorld) -> &ClientHost {
    match &world.host(world.len() - 1).host {
        ClusterHost::Client(c) => c,
        _ => unreachable!("the client is the last host"),
    }
}

/// Account a KV world's client: requests issued and failed, stale reads,
/// and the served operations as `(invoked, completed, group)`.
fn kv_accounting(
    world: &KvWorld,
    label: &str,
    checks: bool,
    out: &mut Modelled,
) -> Vec<(SimTime, SimTime, usize)> {
    let client = kv_client(world);
    out.attempted += client.steps().iter().map(|s| s.sent).sum::<u64>();
    out.failed +=
        client.steps().iter().map(|s| s.failed).sum::<u64>() + client.outstanding() as u64;
    out.timed_out += client.timed_out();
    let stale = if checks {
        stale_read_violations(client.trace())
    } else {
        0
    };
    if stale > 0 {
        out.gate_failures
            .push(format!("{label}: {stale} stale reads in the client trace"));
    }
    client
        .trace()
        .iter()
        .map(|op| (op.invoked, op.completed, 0))
        .collect()
}

fn latencies(served: &[(SimTime, SimTime, usize)], from: SimTime, to: SimTime) -> Vec<f64> {
    served
        .iter()
        .filter(|&&(i, _, _)| i >= from && i < to)
        .map(|&(i, c, _)| (c - i).as_secs_f64() * 1e3)
        .collect()
}

/// An open-loop client over 100k Zipf-0.99 keys with 128 B values,
/// starting after the warm-up and recording its `Get`/`Put` trace.
fn kv_spec(steps: Vec<RateStep>, mix: OpMix, timeout: Duration, fanout: bool) -> WorkloadSpec {
    let mut spec = WorkloadSpec::steady(1.0, Duration::from_secs(1))
        .starting_at(WARMUP)
        .mix(mix)
        .timeout(Some(timeout))
        .recording();
    spec.steps = steps;
    spec.key_space = KV_KEYS;
    spec.zipf_theta = ZIPF;
    spec.value_size = VALUE_BYTES;
    spec.read_fanout = fanout;
    spec
}

/// Five Dynatune servers with `spec` as the client.
fn kv_builder(seed: u64, net: NetPlan, spec: WorkloadSpec) -> ScenarioBuilder {
    ScenarioBuilder::cluster(KV_SERVERS)
        .tuning(TuningConfig::dynatune())
        .net(net)
        .seed(seed)
        .workload(spec)
}

/// Build a KV world and run its warm-up.
fn kv_setup(builder: &ScenarioBuilder, traced: bool) -> KvWorld {
    let mut world = kv_world(&builder.clone().build(), traced);
    world.run_until(SimTime::ZERO + WARMUP);
    world
}

/// The failover workload's RTT walk (paper Fig. 4): 50, 100, 200, 100,
/// 150, 75 ms, one step every 37 s, 5% jitter, no loss, until `until`.
fn rtt_walk(until: SimTime) -> LinkSchedule {
    const RTTS_MS: [u64; 6] = [50, 100, 200, 100, 150, 75];
    let mut segments = Vec::new();
    let mut t = SimTime::ZERO;
    let mut i = 0;
    while t <= until {
        let rtt = Duration::from_millis(RTTS_MS[i % RTTS_MS.len()]);
        segments.push((t, NetParams::clean(rtt).with_jitter(0.05)));
        t += Duration::from_secs(37);
        i += 1;
    }
    LinkSchedule::piecewise(segments)
}

const FAILOVER_FAULTS: FaultPlan = FaultPlan {
    count: 200,
    cycle: Duration::from_secs(6),
    phase_span: Duration::from_secs(2),
    hold: Duration::from_secs(3),
    crash: false,
};
const FAILOVER_RPS: f64 = 300.0;
const FAILOVER_TIMEOUT: Duration = Duration::from_millis(400);

fn failover(seed: u64, traced: bool, scale: Scale, yard: &mut Yardstick) -> Outcome {
    let label = "failover";
    let root = Rng::new(seed);
    let start = SimTime::ZERO + WARMUP;
    let plan = FaultPlan {
        count: scale.faults(FAILOVER_FAULTS.count),
        ..FAILOVER_FAULTS
    };
    let end = plan.end(start);
    let spec = kv_spec(
        vec![RateStep {
            rps: FAILOVER_RPS,
            hold: end - start,
        }],
        OpMix::write_heavy(),
        FAILOVER_TIMEOUT,
        false,
    );
    let builder = kv_builder(
        root.child(1).next_u64(),
        NetPlan::uniform_schedule(rtt_walk(end)),
        spec,
    );
    let (mut world, setup_s) = set_up(scale.setup_reps, yard, || kv_setup(&builder, traced));
    assembly::reset_tallies(&mut world);
    let groups = kv_group();
    let mut meter = Meter::start(yard);
    let (faults, longest) = drive_faults(
        &mut world,
        &mut meter,
        &groups,
        &plan,
        start,
        end,
        &mut root.child(2),
    );
    let r = meter.finish();

    let mut m = Modelled::default();
    let served = kv_accounting(&world, label, scale.checks, &mut m);
    fault_metrics(
        &world,
        &groups,
        &faults,
        &served,
        (start, end),
        label,
        &mut m,
    );
    m.lat_ms = latencies(&served, start, end);
    m.goodput = kv_client(&world).steps()[0].throughput();
    (m.leader_cpu_pct, m.follower_cpu_pct) = cpu_split(&world, &groups, start, end);
    m.max_log_len = longest;
    world_counters(&world, &groups, &mut m);
    Outcome {
        tally: tally_of(&world),
        modelled: m,
        wall_s: r.wall_s,
        cpu_s: r.cpu_s,
        ref_s: r.ref_s,
        setup_s,
    }
}

/// A KV ramp workload: fixed offered-load steps on a fault-free cluster
/// on a 100 ms mesh, with compaction low enough that every server
/// snapshots.
struct RampDef {
    label: &'static str,
    mix: fn() -> OpMix,
    steps_rps: [f64; 4],
    /// Hold of each step.
    hold: Duration,
    /// Index into `steps_rps` of the reference rate.
    reference: usize,
    /// Reads go round-robin to every replica.
    fanout: bool,
    /// Independent clusters the workload runs and pools.
    trials: usize,
}

const WRITE_RAMP: RampDef = RampDef {
    label: "write_ramp",
    mix: OpMix::write_heavy,
    steps_rps: [2_000.0, 6_000.0, 10_000.0, 14_000.0],
    hold: Duration::from_secs(12),
    reference: 2,
    fanout: false,
    trials: 2,
};

const READ_MOSTLY: RampDef = RampDef {
    label: "read_mostly",
    mix: OpMix::read_mostly,
    steps_rps: [5_000.0, 10_000.0, 15_000.0, 20_000.0],
    hold: Duration::from_secs(5),
    reference: 1,
    fanout: true,
    trials: 6,
};

const RAMP_RTT: Duration = Duration::from_millis(100);
const RAMP_TIMEOUT: Duration = Duration::from_secs(1);
/// Compaction threshold and retained tail: every server compacts, and so
/// snapshots its `Store`, several times per ramp.
const RAMP_COMPACTION: (usize, u64) = (20_000, 1_000);
fn kv_ramp(seed: u64, traced: bool, scale: Scale, def: &RampDef, yard: &mut Yardstick) -> Outcome {
    trials(seed, def.trials, |root| {
        kv_ramp_trial(&root, traced, scale, def, yard)
    })
}

fn kv_ramp_trial(
    root: &Rng,
    traced: bool,
    scale: Scale,
    def: &RampDef,
    yard: &mut Yardstick,
) -> Outcome {
    let label = def.label;
    let start = SimTime::ZERO + WARMUP;
    let hold = def.hold.mul_f64(scale.fraction);
    let steps: Vec<RateStep> = def
        .steps_rps
        .iter()
        .map(|&rps| RateStep { rps, hold })
        .collect();
    let end = start + hold * steps.len() as u32;
    let builder = kv_builder(
        root.child(1).next_u64(),
        NetPlan::stable(RAMP_RTT),
        kv_spec(steps, (def.mix)(), RAMP_TIMEOUT, def.fanout),
    )
    .compaction(RAMP_COMPACTION.0, RAMP_COMPACTION.1);
    let (mut world, setup_s) = set_up(scale.setup_reps, yard, || kv_setup(&builder, traced));
    assembly::reset_tallies(&mut world);
    let groups = kv_group();
    let mut meter = Meter::start(yard);
    // The window closes with the last step: requests still in flight then
    // count as failed, so a step past the knee shows as failures.
    meter.run_until(&mut world, end);
    let r = meter.finish();

    let mut m = Modelled::default();
    let served = kv_accounting(&world, label, scale.checks, &mut m);
    fault_metrics(&world, &groups, &[], &[], (start, end), label, &mut m);
    let ref_from = start + hold * def.reference as u32;
    let ref_to = ref_from + hold;
    m.lat_ms = latencies(&served, ref_from, ref_to);
    m.goodput = kv_client(&world)
        .steps()
        .iter()
        .map(StepRecord::throughput)
        .fold(0.0, f64::max);
    (m.leader_cpu_pct, m.follower_cpu_pct) = cpu_split(&world, &groups, ref_from, ref_to);
    m.max_log_len = max_log_len(&world, &groups);
    world_counters(&world, &groups, &mut m);
    Outcome {
        tally: tally_of(&world),
        modelled: m,
        wall_s: r.wall_s,
        cpu_s: r.cpu_s,
        ref_s: r.ref_s,
        setup_s,
    }
}

// ---------------------------------------------------------------------------
// Broker workload
// ---------------------------------------------------------------------------

const BROKER_SHARDS: usize = 4;
const BROKER_REPLICAS: usize = 3;
const BROKER_RTT: Duration = Duration::from_millis(50);
const BROKER_RATE: f64 = 2_000.0;
/// Produce window after the warm-up; one shard leader crashes at its
/// middle.
const BROKER_WINDOW: Duration = Duration::from_secs(100);
/// Independent broker clusters the workload runs and pools.
const BROKER_TRIALS: usize = 12;
/// The crash: at a seeded phase in the second after mid-window, shard 0's
/// leader crash-restarts.
const BROKER_CRASH: FaultPlan = FaultPlan {
    count: 1,
    cycle: Duration::from_secs(1),
    phase_span: Duration::from_secs(1),
    hold: Duration::ZERO,
    crash: true,
};

fn broker_stream(seed: u64, traced: bool, scale: Scale, yard: &mut Yardstick) -> Outcome {
    trials(seed, BROKER_TRIALS, |root| {
        broker_trial(&root, traced, scale, yard)
    })
}

fn broker_trial(root: &Rng, traced: bool, scale: Scale, yard: &mut Yardstick) -> Outcome {
    let label = "broker_stream";
    let start = SimTime::ZERO + WARMUP;
    let window = BROKER_WINDOW.mul_f64(scale.fraction);
    let end = start + window;
    let workload = BrokerWorkload {
        topics: vec![("orders".into(), 12), ("clicks".into(), 12)],
        produce_rps: BROKER_RATE,
        record_bytes: 256,
        batch_max: 64,
        groups: 2,
        fetch_max: 256,
        commit_every: 100,
        fanout_fetch: true,
        start_offset: WARMUP,
        produce_for: None,
        request_timeout: Duration::from_millis(500),
    };
    let config = ScenarioBuilder::cluster(BROKER_REPLICAS)
        .tuning(TuningConfig::dynatune())
        .shards(BROKER_SHARDS)
        .net(NetPlan::stable(BROKER_RTT))
        .seed(root.child(1).next_u64())
        .build_broker(workload);
    let (mut world, setup_s) = set_up(scale.setup_reps, yard, || {
        let mut w = broker_world(&config, traced);
        w.run_until(start);
        w
    });
    assembly::reset_tallies(&mut world);
    let map = config.map;
    let groups: Groups = (0..map.shards()).map(|s| map.servers_of(s)).collect();
    let mut meter = Meter::start(yard);
    let (faults, longest) = drive_faults(
        &mut world,
        &mut meter,
        &groups,
        &BROKER_CRASH,
        start + window / 2,
        end,
        &mut root.child(2),
    );
    let r = meter.finish();

    let mut m = Modelled::default();
    let probe = world.host(world.len() - 1);
    let BrokerHost::Client(client) = &probe.host else {
        unreachable!("the client is the last host");
    };
    let stats = client.stats();
    m.attempted = stats.produced;
    m.failed = client.unacked_records();
    m.retries = stats.retries;
    m.fetches = stats.fetches;
    m.records_per_batch = stats.acked_records as f64 / stats.produce_batches.max(1) as f64;
    m.produce_ms_mean = stats.produce_latency_ms.mean();
    m.goodput = stats.acked_records as f64 / (end - start).as_secs_f64();
    for (g, c) in client.consumer_stats().iter().enumerate() {
        m.lag_max_records = m.lag_max_records.max(c.max_lag);
        for (what, n) in [
            ("lost", c.lost),
            ("duplicated", c.duplicated),
            ("out-of-order", c.out_of_order),
        ] {
            if n > 0 {
                m.gate_failures.push(format!(
                    "{label}: consumer group {g} saw {n} {what} records"
                ));
            }
        }
    }
    let served = &probe
        .produce
        .as_ref()
        .expect("the broker client is tapped")
        .acked;
    m.lat_ms = latencies(served, start, end);
    fault_metrics(
        &world,
        &groups,
        &faults,
        served,
        (start, end),
        label,
        &mut m,
    );
    (m.leader_cpu_pct, m.follower_cpu_pct) = cpu_split(&world, &groups, start, end);
    m.max_log_len = longest;
    world_counters(&world, &groups, &mut m);
    Outcome {
        tally: tally_of(&world),
        modelled: m,
        wall_s: r.wall_s,
        cpu_s: r.cpu_s,
        ref_s: r.ref_s,
        setup_s,
    }
}
