//! The benchmark's own checks: its percentile rule, its metric names, and
//! that the worlds it assembles and instruments evolve exactly like the
//! ones `ScenarioBuilder` builds.

use crate::assembly::{self, broker_world, kv_world, Probe};
use crate::meter::{Meter, Yardstick};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::{self, percentile, Scale};
use dynatune_cluster::broker::BrokerHost;
use dynatune_cluster::{BrokerWorkload, ClusterHost, NetPlan, ScenarioBuilder, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_kv::{OpMix, RateStep};
use dynatune_raft::{NodeId, RaftEvent, Role};
use dynatune_simnet::{Host, Rng, SimTime, World};
use dynatune_stats::EmpiricalCdf;
use std::time::Duration;

#[test]
fn percentile_follows_the_workspace_rank_rule() {
    let mut rng = Rng::new(11);
    for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
        let mut v: Vec<f64> = (0..n).map(|_| rng.f64() * 1e3).collect();
        let cdf = EmpiricalCdf::new(v.clone());
        v.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(Some(percentile(&v, q)), cdf.quantile(q), "n={n} q={q}");
        }
    }
    assert_eq!(percentile(&[], 0.5), 0.0);
}

fn name_is_valid(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn unit_is_valid(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_and_units_use_the_allowed_characters_once() {
    let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for m in &all {
        assert!(name_is_valid(m.name), "bad metric name {}", m.name);
        assert!(unit_is_valid(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "a metric name is used twice");
    for w in workloads::NAMES {
        assert!(name_is_valid(w), "bad workload name {w}");
    }
}

/// Every metric the program prints is declared in `BENCHMARK.json` with
/// the same unit and direction, in both lists, and nothing else is.
#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let json = include_str!("../../../../BENCHMARK.json");
    let declared = |section: &str| -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| entry.split_whitespace().collect::<String>())
            .collect()
    };
    for (section, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = declared(section);
        assert_eq!(entries.len(), metrics.len(), "{section} length");
        for (entry, m) in entries.iter().zip(metrics) {
            let want = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                m.name, m.unit, m.better
            );
            assert!(entry.starts_with(&want), "{section}: {entry} is not {want}");
        }
    }
    for w in workloads::NAMES {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}

// ---------------------------------------------------------------------------
// Assembly equivalence
// ---------------------------------------------------------------------------

fn leader<H: assembly::Node>(world: &World<Probe<H>>, ids: std::ops::Range<usize>) -> NodeId
where
    Probe<H>: Host,
{
    ids.filter(|&id| {
        !world.is_paused(id) && assembly::server(world, id).node().role() == Role::Leader
    })
    .max_by_key(|&id| assembly::server(world, id).node().term())
    .expect("a leader by now")
}

fn own_events<H: assembly::Node>(
    world: &World<Probe<H>>,
    ids: std::ops::Range<usize>,
    base: usize,
) -> Vec<(SimTime, NodeId, RaftEvent)>
where
    Probe<H>: Host,
{
    let mut out: Vec<_> = ids
        .flat_map(|id| {
            assembly::server(world, id)
                .events()
                .iter()
                .map(move |&(t, e)| (t, id - base, e))
        })
        .collect();
    out.sort_by_key(|&(t, id, _)| (t, id));
    out
}

/// A short KV run with compaction, fanned-out reads and a leader pause:
/// the benchmark's world (traced, so every host call goes through the
/// probe, and run in the meter's slices) and `build_sim` agree on every
/// observable.
#[test]
fn kv_assembly_matches_build_sim() {
    let mut spec = WorkloadSpec::steady(2_000.0, Duration::from_secs(6))
        .starting_at(Duration::from_secs(3))
        .mix(OpMix {
            put: 0.5,
            delete: 0.0,
            cas: 0.0,
        })
        .fanout_reads()
        .recording();
    spec.steps.push(RateStep {
        rps: 4_000.0,
        hold: Duration::from_secs(3),
    });
    let builder = ScenarioBuilder::cluster(5)
        .tuning(TuningConfig::dynatune())
        .net(NetPlan::stable(Duration::from_millis(40)))
        .compaction(1_000, 50)
        .seed(17)
        .workload(spec);
    let mut sim = builder.clone().build_sim();
    let mut world = kv_world(&builder.build(), true);
    let mut yard = Yardstick::new();
    let mut meter = Meter::start(&mut yard);
    let (pause_at, back_at, end) = (
        SimTime::from_secs(6),
        SimTime::from_secs(8),
        SimTime::from_secs(13),
    );
    sim.run_until(pause_at);
    meter.run_until(&mut world, pause_at);
    let l = sim.leader().expect("leader");
    assert_eq!(l, leader(&world, 0..5));
    sim.pause(l);
    world.pause(l);
    sim.run_until(back_at);
    meter.run_until(&mut world, back_at);
    sim.resume(l);
    world.resume(l);
    sim.run_until(end);
    meter.run_until(&mut world, end);
    assert!(meter.finish().ref_s > 0.0);

    assert_eq!(sim.events(), own_events(&world, 0..5, 0));
    assert_eq!(sim.net_counters(), world.counters());
    let ClusterHost::Client(client) = &world.host(5).host else {
        panic!("client last")
    };
    assert_eq!(
        format!("{:?}", sim.client_steps().expect("client")),
        format!("{:?}", client.steps())
    );
    assert_eq!(sim.client_trace().expect("client"), client.trace());
    let reads = (0..5)
        .map(|id| assembly::server(&world, id).reads_served())
        .fold(Default::default(), dynatune_cluster::ReadCounters::merged);
    assert_eq!(sim.read_counters(), reads);
    let snapshots: u64 = (0..5)
        .map(|id| assembly::server(&world, id).snapshots_sent())
        .sum();
    assert_eq!(sim.total_snapshots_sent(), snapshots);
    assert!(snapshots > 0, "the run should exercise snapshot catch-up");
}

/// A short broker run with a shard-leader crash: the benchmark's world,
/// with the produce tap on the client, and `build_broker_sim` agree.
#[test]
fn broker_assembly_matches_build_broker_sim() {
    let wl = BrokerWorkload::steady(vec![("t".into(), 4), ("u".into(), 2)], 800.0)
        .groups(2)
        .fanout(true);
    let builder = ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::dynatune())
        .shards(2)
        .net(NetPlan::stable(Duration::from_millis(30)))
        .seed(5);
    let mut sim = builder.clone().build_broker_sim(wl.clone());
    let config = builder.build_broker(wl);
    let mut world = broker_world(&config, true);
    let (crash_at, end) = (SimTime::from_secs(6), SimTime::from_secs(10));
    sim.run_until(crash_at);
    world.run_until(crash_at);
    let l = sim.leader_of(0).expect("shard 0 leader");
    assert_eq!(l, leader(&world, config.map.servers_of(0)));
    sim.crash(l);
    assembly::crash(&mut world, l);
    sim.run_until(end);
    world.run_until(end);

    for shard in 0..2 {
        let ids = config.map.servers_of(shard);
        let base = ids.start;
        assert_eq!(sim.shard_events(shard), own_events(&world, ids, base));
    }
    assert_eq!(sim.net_counters(), world.counters());
    let probe = world.host(world.len() - 1);
    let BrokerHost::Client(client) = &probe.host else {
        panic!("client last")
    };
    assert_eq!(
        format!("{:?}", sim.stats().expect("client")),
        format!("{:?}", client.stats())
    );
    assert_eq!(
        format!("{:?}", sim.consumer_stats().expect("client")),
        format!("{:?}", client.consumer_stats())
    );
    let acked = &probe.produce.as_ref().expect("tapped").acked;
    assert!(!acked.is_empty());
    assert!(acked.iter().all(|&(sent, done, s)| done >= sent && s < 2));
}

/// Each workload, shrunk: tracing changes no modelled output, and no
/// correctness gate fails.
#[test]
fn traced_runs_model_what_untraced_runs_do() {
    let tiny = Scale {
        fraction: 0.05,
        setup_reps: 1,
        checks: true,
    };
    let mut yard = Yardstick::new();
    for name in workloads::NAMES {
        let plain = workloads::run(name, 3, false, tiny, &mut yard);
        let traced = workloads::run(name, 3, true, tiny, &mut yard);
        assert_eq!(plain.modelled.gate_failures, Vec::<String>::new(), "{name}");
        assert!(plain.modelled.attempted > 0, "{name}");
        assert_eq!(plain.modelled, traced.modelled, "{name}");
        assert!(traced.tally.total_secs() > 0.0, "{name}");
    }
}
