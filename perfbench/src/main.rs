//! Command line of the benchmark's measuring process. `run.py` starts one
//! process per repetition, so each reports its own peak resident memory.
//!
//! ```text
//! perfbench rep    --workload W --seed N [--trace-out FILE]
//! perfbench trace  --workload W --seed N
//! perfbench record --workload W --seeds A..B
//! ```

use perfbench::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench rep|trace --workload NAME --seed N [--trace-out FILE]\n       \
         perfbench record --workload NAME --seeds A..B\n\
         workloads: des-websearch des-incast-sharded fluid-websearch hybrid-fleet"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(w) = flag("--workload").and_then(|s| Workload::parse(&s)) else {
        return usage();
    };
    match cmd.as_str() {
        "rep" => {
            let Some(seed) = flag("--seed").and_then(|s| s.parse().ok()) else {
                return usage();
            };
            let trace_out = flag("--trace-out").map(PathBuf::from);
            println!(
                "{}",
                perfbench::rep::run(w, seed, trace_out.as_deref()).render()
            );
        }
        "trace" => {
            let Some(seed) = flag("--seed").and_then(|s| s.parse().ok()) else {
                return usage();
            };
            let r = perfbench::trace::run(w, seed);
            let mut out = perfbench::stats::JsonObj::default();
            out.str("workload", w.name())
                .num("seed", seed as f64)
                .num("flows", r.flows as f64)
                .obj("checks", &r.checks.to_json())
                .obj("metrics", &r.metrics.to_json());
            println!("{}", out.render());
            if !r.checks.all_ok() {
                return ExitCode::FAILURE;
            }
        }
        "record" => {
            let Some((a, b)) = flag("--seeds").and_then(|s| {
                let (a, b) = s.split_once("..")?;
                Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?))
            }) else {
                return usage();
            };
            for seed in a..b {
                let report = fncc_core::run_scenario(&w.scenario(seed), w.backend());
                println!("{} {seed} {}", w.name(), perfbench::digest::digest(&report));
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
