//! Benchmark of the Dynatune reproduction: four workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/perfbench/Cargo.toml -- \
//!     --workload failover --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! list the seed and every metric with its unit and better-direction. A
//! failed correctness gate exits with status 1 and prints no metrics.

// A measurement harness under crates/bench: timing host calls with the
// wall clock is its job (dynatune_lint's bench-harness policy, D001).
#![allow(clippy::disallowed_types)]

mod assembly;
mod cputime;
mod meter;
mod metrics;
#[cfg(test)]
mod tests;
mod workloads;

use meter::Yardstick;
use metrics::{Metric, Value};
use std::process::ExitCode;
use workloads::{Outcome, Scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} trace={} seconds={} (the window is a fixed amount of simulated work)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    let mut yard = Yardstick::new();
    let plain = workloads::run(&args.workload, args.seed, false, Scale::FULL, &mut yard);
    let mut gate_failures = plain.modelled.gate_failures.clone();
    let values = if !gate_failures.is_empty() {
        Vec::new()
    } else if args.trace {
        let traced = workloads::run(&args.workload, args.seed, true, Scale::FULL, &mut yard);
        if traced.modelled != plain.modelled {
            gate_failures
                .push("the traced run's modelled outputs differ from the untraced run's".into());
        }
        // The overhead compares against a second untraced run, so both
        // sides start from an equally warm heap.
        let again = workloads::run(&args.workload, args.seed, false, Scale::FULL, &mut yard);
        metrics::per_layer(&traced, &again)
    } else {
        let (t, reps) = repeat(&args, &plain, &mut yard, &mut gate_failures);
        println!(
            "  measured window repeated {reps} times; medians: wall {:.4} s, CPU {:.4} s, reference {:.4} s, set-up {:.6} s",
            t.wall_s, t.cpu_s, t.ref_s, t.setup_s
        );
        metrics::end_to_end(&t)
    };
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("perfbench: correctness gate failed: {f}");
        }
        return ExitCode::from(1);
    }
    print_result(&plain, &values);
    ExitCode::SUCCESS
}

/// Repeat the measured window while another repetition fits in
/// `--seconds`; every repetition must model exactly what the first did.
/// Returns `first` with its host times replaced by their medians over
/// the repetitions, and the repetition count.
fn repeat(
    args: &Args,
    first: &Outcome,
    yard: &mut Yardstick,
    gate_failures: &mut Vec<String>,
) -> (Outcome, usize) {
    let quiet = Scale {
        checks: false,
        ..Scale::FULL
    };
    let times = |o: &Outcome| [o.wall_s, o.cpu_s, o.ref_s, o.setup_s];
    let mut reps = vec![times(first)];
    let mut spent = first.wall_s;
    while spent + first.wall_s <= args.seconds as f64 {
        let again = workloads::run(&args.workload, args.seed, false, quiet, yard);
        if again.modelled != first.modelled {
            gate_failures.push("a repetition of the run modelled different outputs".into());
            break;
        }
        spent += again.wall_s;
        reps.push(times(&again));
    }
    let each: Vec<String> = reps.iter().map(|t| format!("{:.4}", t[2])).collect();
    println!("  reference seconds of each repetition: {}", each.join(" "));
    let med = |k: usize| median(&mut reps.iter().map(|t| t[k]).collect::<Vec<_>>());
    let timed = Outcome {
        wall_s: med(0),
        cpu_s: med(1),
        ref_s: med(2),
        setup_s: med(3),
        ..first.clone()
    };
    (timed, reps.len())
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn print_result(plain: &Outcome, values: &[(&Metric, Value)]) {
    for (m, v) in values {
        let n = v.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!(
            "  {:<24} {:>14.4} {:<8} {}{}",
            m.name, v.value, m.unit, m.better, n
        );
    }
    let body: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        plain.modelled.attempted,
        plain.modelled.failed,
        body.join(", ")
    );
}
