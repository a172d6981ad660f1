//! The benchmark's own tests. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use fncc_core::{run_scenario, SimBackend, TopologySpec};
use perfbench::digest::{self, Check};
use perfbench::stats::Hist;
use perfbench::traced;
use perfbench::workloads::Workload;
use std::process::Command;

/// A recorded seed of `w`: the digest table must cover it.
fn recorded_seed(w: Workload) -> u64 {
    let seed = 1;
    assert!(
        digest::recorded(w.name(), seed).is_some(),
        "digests.txt has no entry for {} seed {seed}",
        w.name()
    );
    seed
}

#[test]
fn perturbed_seed_fails_the_digest_check() {
    let w = Workload::HybridFleet;
    let seed = recorded_seed(w);
    let own = digest::digest(&run_scenario(&w.scenario(seed), w.backend()));
    assert_eq!(digest::check(w.name(), seed, &own), Check::Match);
    let other = digest::digest(&run_scenario(&w.scenario(seed + 1), w.backend()));
    assert_eq!(digest::check(w.name(), seed, &other), Check::Mismatch);
}

/// The `counters` object of one `perfbench rep` result line.
fn counters(line: &str) -> String {
    let start = line.find("\"counters\":{").expect("counters field");
    let len = line[start..].find('}').expect("counters object closes");
    line[start..start + len].to_string()
}

#[test]
fn two_repetitions_give_identical_counters() {
    let rep = || {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["rep", "--workload", "hybrid-fleet", "--seed", "3"])
            .output()
            .expect("perfbench runs");
        assert!(out.status.success());
        counters(String::from_utf8(out.stdout).expect("utf-8").trim())
    };
    let (a, b) = (rep(), rep());
    assert!(a.contains("\"run_allocs\":") && a.contains("\"report.hybrid_syncs\":"));
    assert_eq!(a, b);
}

#[test]
fn traced_assembly_reproduces_the_untraced_run() {
    let mut sc = Workload::DesWebsearch.scenario_with_flows(5, Some(60));
    sc.topology = TopologySpec::FatTree { k: 4 };
    let untraced = run_scenario(&sc, SimBackend::Packet);
    let t = traced::run(&sc, 0);
    assert!(untraced.events > 100_000);
    assert_eq!(t.report.events, untraced.events);
    assert_eq!(digest::digest(&t.report), digest::digest(&untraced));
    let handled: u64 = t.eng.model.handle.iter().map(Hist::count).sum();
    assert_eq!(handled, untraced.events);
    // The sharded runtime reproduces the same digest.
    sc.threads = 2;
    let sharded = run_scenario(&sc, SimBackend::Packet);
    assert_eq!(digest::digest(&sharded), digest::digest(&untraced));
}

#[test]
fn histogram_quantiles_stay_within_bucket_error() {
    let mut h = Hist::default();
    for v in 1..=10_000u64 {
        h.record(v);
    }
    for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
        let got = h.quantile(q);
        assert!((got / want - 1.0).abs() < 0.04, "q{q}: {got} vs {want}");
    }
    assert_eq!(h.count(), 10_000);
}
