//! Metric definitions and their values from a run's outcome.
//!
//! `END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` declares;
//! a test checks the two agree name for name.

use crate::assembly::Layer;
use crate::meter::TABLE_BYTES;
use crate::workloads::{percentile, Outcome};

/// A reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// One measured value and, for a percentile or mean, its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Samples it summarises.
    pub samples: Option<usize>,
}

/// End-to-end metrics, from the untraced run. Every workload reports
/// every one of them.
pub const END_TO_END: [Metric; 8] = [
    m("lat_p50_ms", "ms", "lower"),
    m("lat_p99_ms", "ms", "lower"),
    m("goodput_rps", "ops/s", "higher"),
    m("failed_frac", "ratio", "lower"),
    m("leader_cpu_pct", "%", "lower"),
    m("window_ref_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [Metric; 41] = [
    m("simnet.self_s", "s", "lower"),
    m("simnet.events", "count", "lower"),
    m("simnet.ns_per_event", "ns", "lower"),
    m("simnet.dropped", "count", "lower"),
    m("server.append_s", "s", "lower"),
    m("server.append_us", "us", "lower"),
    m("server.append_resp_s", "s", "lower"),
    m("server.readindex_s", "s", "lower"),
    m("server.wake_s", "s", "lower"),
    m("server.wakes", "count", "lower"),
    m("server.heartbeat_s", "s", "lower"),
    m("server.vote_s", "s", "lower"),
    m("server.client_s", "s", "lower"),
    m("server.snapshot_s", "s", "lower"),
    m("client.s", "s", "lower"),
    m("client.timed_out", "count", "lower"),
    m("reads.lease", "count", "higher"),
    m("reads.read_index", "count", "lower"),
    m("reads.follower", "count", "higher"),
    m("core.detect_p50_ms", "ms", "lower"),
    m("core.rto_ms", "ms", "lower"),
    m("core.hb_interval_ms", "ms", "higher"),
    m("raft.snapshots_sent", "count", "lower"),
    m("raft.max_log_len", "count", "lower"),
    m("raft.entries_per_append", "ratio", "higher"),
    m("raft.msgs_per_op", "ratio", "lower"),
    m("raft.elections", "count", "lower"),
    m("raft.elections_spurious", "count", "lower"),
    m("raft.faults_ridden_out", "count", "lower"),
    m("raft.ots_p50_ms", "ms", "lower"),
    m("raft.ots_p90_ms", "ms", "lower"),
    m("raft.ots_mean_ms", "ms", "lower"),
    m("client.unavail_p50_ms", "ms", "lower"),
    m("client.unavail_p90_ms", "ms", "lower"),
    m("broker.records_per_batch", "ratio", "higher"),
    m("broker.fetches", "count", "higher"),
    m("broker.retries", "count", "lower"),
    m("broker.produce_ms_mean", "ms", "lower"),
    m("broker.lag_max_records", "records", "lower"),
    m("cpu.follower_pct", "%", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

fn pct(samples: &[f64], q: f64) -> Value {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Value {
        value: percentile(&sorted, q),
        samples: Some(sorted.len()),
    }
}

fn plain(value: f64) -> Value {
    Value {
        value,
        samples: None,
    }
}

fn mean(v: &[f64]) -> Value {
    Value {
        // fold, not sum: an empty f64 sum is -0.0.
        value: v.iter().fold(0.0, |a, x| a + x) / v.len().max(1) as f64,
        samples: Some(v.len()),
    }
}

/// Peak resident set of this process in MB (`VmHWM`) less the
/// yardstick's table, which is resident for the whole run; 0 where
/// unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| {
            (kb / 1024.0 - (TABLE_BYTES >> 20) as f64).max(0.0)
        })
}

/// Values of [`END_TO_END`] for an untraced outcome.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static Metric, Value)> {
    let m = &o.modelled;
    let values = [
        pct(&m.lat_ms, 0.50),
        pct(&m.lat_ms, 0.99),
        plain(m.goodput),
        plain(m.failed as f64 / m.attempted.max(1) as f64),
        plain(m.leader_cpu_pct),
        plain(o.ref_s),
        plain(o.setup_s),
        plain(peak_rss_mb()),
    ];
    END_TO_END.iter().zip(values).collect()
}

/// Values of [`PER_LAYER`] for a traced outcome; `plain` is the untraced
/// run of the same seed, for the tracing overhead.
pub fn per_layer(t: &Outcome, plain_run: &Outcome) -> Vec<(&'static Metric, Value)> {
    let m = &t.modelled;
    let tally = &t.tally;
    let events = m.net.delivered + tally.count(Layer::Wake) + tally.count(Layer::Client);
    let self_s = (t.wall_s - tally.total_secs()).max(0.0);
    let append_calls = tally.count(Layer::Append).max(1);
    let ops = (m.attempted - m.failed).max(1);
    let values = [
        plain(self_s),
        plain(events as f64),
        plain(self_s * 1e9 / events.max(1) as f64),
        plain((m.net.dropped_loss + m.net.dropped_paused + m.net.dropped_partitioned) as f64),
        plain(tally.secs(Layer::Append)),
        plain(tally.secs(Layer::Append) * 1e6 / append_calls as f64),
        plain(tally.secs(Layer::AppendResp)),
        plain(tally.secs(Layer::ReadIndex)),
        plain(tally.secs(Layer::Wake)),
        plain(tally.count(Layer::Wake) as f64),
        plain(tally.secs(Layer::Heartbeat)),
        plain(tally.secs(Layer::Vote)),
        plain(tally.secs(Layer::ClientReq)),
        plain(tally.secs(Layer::Snapshot)),
        plain(tally.secs(Layer::Client)),
        plain(m.timed_out as f64),
        plain(m.reads.lease as f64),
        plain(m.reads.read_index as f64),
        plain(m.reads.follower as f64),
        pct(&m.detect_ms, 0.50),
        mean(&m.rto_ms),
        mean(&m.hb_ms),
        plain(m.snapshots_sent as f64),
        plain(m.max_log_len as f64),
        plain(tally.entries as f64 / tally.appends.max(1) as f64),
        plain(tally.raft_msgs as f64 / ops as f64),
        plain(m.elections as f64),
        plain(m.elections_spurious as f64),
        plain(m.faults_ridden_out as f64),
        pct(&m.ots_ms, 0.50),
        pct(&m.ots_ms, 0.90),
        mean(&m.ots_ms),
        pct(&m.unavail_ms, 0.50),
        pct(&m.unavail_ms, 0.90),
        plain(m.records_per_batch),
        plain(m.fetches as f64),
        plain(m.retries as f64),
        plain(m.produce_ms_mean),
        plain(m.lag_max_records as f64),
        plain(m.follower_cpu_pct),
        plain((t.wall_s / plain_run.wall_s.max(1e-9) - 1.0) * 100.0),
    ];
    PER_LAYER.iter().zip(values).collect()
}
