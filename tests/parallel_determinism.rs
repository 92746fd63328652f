//! Parallel trial fan-out must be bit-identical to serial execution: the
//! same `Report` for `--jobs 1` and `--jobs N`, because per-trial seeds
//! derive from trial indices alone and results merge in input order.
//!
//! Each serial report is also pinned to a golden digest, so a refactor of
//! the cluster layer that changes any simulated outcome fails here even
//! when it changes serial and parallel runs alike.

use dynatune_repro::cluster::experiments::failover::{run_trials, FailoverConfig};
use dynatune_repro::cluster::scenario::{catalog, Experiment, Report, RunCtx};
use dynatune_repro::cluster::ClusterConfig;
use dynatune_repro::core::TuningConfig;
use std::time::Duration;

fn report_with_jobs(experiment: &dyn Experiment, jobs: usize) -> Report {
    RunCtx::new(1234).quick(true).jobs(jobs).run(experiment)
}

/// FNV-1a (64-bit) of the report's `Debug` rendering.
fn digest(report: &Report) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Assert a serial report still matches its recorded digest.
fn assert_golden(report: &Report, golden: u64) {
    assert_eq!(
        digest(report),
        golden,
        "{}: report differs from its golden digest",
        report.name
    );
}

#[test]
fn fig4_report_identical_serial_vs_parallel() {
    let mut ctx = RunCtx::new(77).quick(true);
    ctx.trials = Some(8); // keep the check fast; 16 clusters per run
    let serial = ctx.clone().jobs(1).run(&catalog::Fig4Failover);
    let parallel = ctx.clone().jobs(4).run(&catalog::Fig4Failover);
    assert_eq!(serial, parallel, "fig4: --jobs must not change the report");
    // Equality must be meaningful: the report carries real content.
    assert!(!serial.tables.is_empty() && !serial.artifacts.is_empty());
    assert_eq!(serial.name, "fig4");
    assert_golden(&serial, 0x77e6_50dc_acc6_8b1d);
}

#[test]
fn churn_report_identical_serial_vs_parallel() {
    let serial = report_with_jobs(&catalog::PartitionChurn, 1);
    let parallel = report_with_jobs(&catalog::PartitionChurn, 3);
    assert_eq!(serial, parallel);
    assert_golden(&serial, 0x904c_7442_e77e_6f8f);
}

#[test]
fn sharded_reports_identical_serial_vs_parallel() {
    // The shard-count sweep and the two-system comparison both fan out;
    // merging in input order must make any pool width bit-identical.
    for (experiment, golden) in [
        (
            &catalog::ShardedThroughput as &dyn Experiment,
            0x8937_8b85_5889_e791,
        ),
        (&catalog::ShardLeaderFailover, 0x75eb_ae20_e42a_98c1),
        (&catalog::HotShard, 0x5c75_5c09_9a77_4f9a),
    ] {
        let serial = report_with_jobs(experiment, 1);
        let parallel = report_with_jobs(experiment, 4);
        assert_eq!(
            serial, parallel,
            "{}: --jobs must not change the report",
            serial.name
        );
        assert!(!serial.tables.is_empty());
        assert_golden(&serial, golden);
    }
}

#[test]
fn compaction_reports_identical_serial_vs_parallel() {
    // The snapshot-transfer path adds its own timing (send, install,
    // resend pacing); the report — log bounds, snapshots_sent, convergence
    // digests — must still be bit-identical at any pool width.
    for (experiment, golden) in [
        (
            &catalog::LaggingFollowerCatchup as &dyn Experiment,
            0x99b5_9fe3_de0a_e6b6,
        ),
        (&catalog::CompactionChurn, 0x31c4_2f1e_567c_164a),
    ] {
        let serial = report_with_jobs(experiment, 1);
        let parallel = report_with_jobs(experiment, 4);
        assert_eq!(
            serial, parallel,
            "{}: --jobs must not change the report",
            serial.name
        );
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
        assert_golden(&serial, golden);
    }
}

#[test]
fn read_path_reports_identical_serial_vs_parallel() {
    // The read path adds its own machinery on both sides of the wire
    // (lease bookkeeping, confirmation echoes, forwarded waves, client
    // traces); the reports — throughput ratios, CPU percentages,
    // violation counts — must still be bit-identical at any pool width.
    for (experiment, golden) in [
        (
            &catalog::ReadHeavyThroughput as &dyn Experiment,
            0xc724_7790_d997_92a8,
        ),
        (&catalog::FollowerReadOffload, 0x0183_cf02_816c_d294),
        (&catalog::LeaseSafetyPartition, 0x6f07_c234_7574_0422),
    ] {
        let serial = report_with_jobs(experiment, 1);
        let parallel = report_with_jobs(experiment, 4);
        assert_eq!(
            serial, parallel,
            "{}: --jobs must not change the report",
            serial.name
        );
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
        assert_golden(&serial, golden);
    }
}

#[test]
fn pipeline_depth_report_identical_serial_vs_parallel() {
    // The window x RTT sweep fans all twelve cells out at once; the
    // committed-op counts and both ratio headlines must be bit-identical
    // at any pool width.
    let serial = report_with_jobs(&catalog::PipelineDepth, 1);
    let parallel = report_with_jobs(&catalog::PipelineDepth, 4);
    assert_eq!(
        serial, parallel,
        "pipeline_depth: --jobs must not change the report"
    );
    assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
    assert_golden(&serial, 0xa21c_c1e1_9427_662e);
}

#[test]
fn broker_reports_identical_serial_vs_parallel() {
    // The broker scenarios fan out produce/fetch sims per pipeline window,
    // per group count, and sample a failover timeline; throughput tables,
    // CPU ratios and the exactly-once checker counts must be bit-identical
    // at any pool width.
    for (experiment, golden) in [
        (
            &catalog::BrokerProduceThroughput as &dyn Experiment,
            0x1175_110e_6b9f_9530,
        ),
        (&catalog::ConsumerLagFailover, 0xe526_d0a4_730b_a870),
        (&catalog::ConsumerFanout, 0xbd91_5a73_4263_b05e),
    ] {
        let serial = report_with_jobs(experiment, 1);
        let parallel = report_with_jobs(experiment, 4);
        assert_eq!(
            serial, parallel,
            "{}: --jobs must not change the report",
            serial.name
        );
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
        assert_golden(&serial, golden);
    }
}

#[test]
fn membership_reports_identical_serial_vs_parallel() {
    // The membership battery layers conf-change orchestration, learner
    // catch-up, crash/partition faults and a seeded churn schedule on top
    // of the serving path; every goodput window, latency quantile and
    // violation count must still be bit-identical at any pool width. Each
    // run also re-executes the in-run checkers: bounded scale-out dip,
    // p99 improvement from the replica move, and — via the recorded
    // client traces — zero stale reads, i.e. no lease hole anywhere in
    // the dual-quorum (joint-consensus) window.
    for (experiment, golden) in [
        (
            &catalog::ElasticScaleout as &dyn Experiment,
            0xe597_98f9_1441_76af,
        ),
        (&catalog::ShardRebalance, 0xf220_d09e_b5e1_5024),
        (&catalog::MembershipChurn, 0xf986_d159_db38_531d),
    ] {
        let serial = report_with_jobs(experiment, 1);
        let parallel = report_with_jobs(experiment, 4);
        assert_eq!(
            serial, parallel,
            "{}: --jobs must not change the report",
            serial.name
        );
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
        assert_golden(&serial, golden);
    }
}

#[test]
fn failover_trials_identical_across_pool_widths() {
    let cluster = ClusterConfig::stable(
        5,
        TuningConfig::dynatune(),
        Duration::from_millis(100),
        4242,
    );
    let mut cfg = FailoverConfig::new(cluster, 6);
    cfg.warmup = Duration::from_secs(20);
    cfg.observe = Duration::from_secs(20);
    let widths = [1usize, 2, 5];
    let results: Vec<_> = widths
        .iter()
        .map(|&n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool")
                .install(|| run_trials(&cfg))
        })
        .collect();
    for pair in results.windows(2) {
        assert_eq!(pair[0].outcomes, pair[1].outcomes);
        assert_eq!(pair[0].incomplete, pair[1].incomplete);
    }
}
