//! One untraced repetition: set-up timed on its own, then the whole
//! `Scenario` → `RunReport` call a user makes, timed from outside.

use crate::alloc;
use crate::calib;
use crate::digest;
use crate::stats::{peak_rss_mb, reset_peak_rss, JsonObj};
use crate::workloads::Workload;
use fncc_cc::{CcAlgo, CcKind};
use fncc_core::{run_scenario, run_scenario_traced, Scenario, ShardedSim, Sim, SimBuilder};
use fncc_fluid::{FluidSim, Framing, RateModel};
use fncc_hybrid::{HybridConfig, HybridSim};
use fncc_net::config::FabricConfig;
use fncc_net::topology::Topology;
use fncc_transport::{apply_cc_features, make_algo};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The CC configuration the packet backend derives for `sc` on `topo`.
pub fn packet_algo(sc: &Scenario, topo: &Topology) -> CcAlgo {
    let frames = FabricConfig::paper_default();
    make_algo(
        sc.cc,
        sc.link.bandwidth(),
        topo.base_rtt(frames.mtu, frames.ack_base),
    )
}

/// The fabric configuration the packet backend derives for `sc`, `seed`.
pub fn packet_fabric(sc: &Scenario, seed: u64, topo: &Topology) -> FabricConfig {
    let mut f = FabricConfig::paper_default();
    apply_cc_features(&mut f, sc.cc, topo.host_ports[0].bw);
    f.seed = seed;
    if sc.cc == CcKind::Fncc {
        f.int_refresh = sc.overrides.int_refresh();
    }
    f
}

/// The framing both flow-level backends derive from the packet defaults.
pub fn framing() -> Framing {
    Framing::from(&FabricConfig::paper_default())
}

/// Set-up phase timings in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// `Scenario::instance`: topology and flow generation.
    pub instance_s: f64,
    /// Engine assembly: `SimBuilder::build`, `ShardedSim::new`,
    /// `FluidSim::new` or `HybridSim::new`.
    pub assemble_s: f64,
}

/// Generate the instance and assemble the workload's engine the way its
/// backend does, timing both phases; the engine is dropped unrun.
pub fn setup(w: Workload, sc: &Scenario) -> Setup {
    let seed = sc.seeds[0];
    let t0 = Instant::now();
    let (topo, flows) = sc.instance(seed);
    let t1 = Instant::now();
    let build_sim = |shard| -> Sim {
        let mut b = SimBuilder::with_algo(topo.clone(), packet_algo(sc, &topo))
            .fabric(|f| *f = packet_fabric(sc, seed, &topo))
            .flows(flows.clone());
        if let Some((map, s)) = shard {
            b = b.shard(map, s);
        }
        b.build()
    };
    match w {
        Workload::DesWebsearch => {
            black_box(build_sim(None));
        }
        Workload::DesIncastSharded => {
            black_box(ShardedSim::new(&topo, sc.threads as usize, |m, s| {
                build_sim(Some((m, s)))
            }));
        }
        Workload::FluidWebsearch => {
            black_box(
                FluidSim::new(topo.clone(), RateModel::paper_default(sc.cc))
                    .framing(framing())
                    .flows(flows.clone()),
            );
        }
        Workload::HybridFleet => {
            let spec = sc
                .foreground
                .as_ref()
                .expect("hybrid workload has a foreground");
            let (fg, bg) = spec.partition(&flows);
            black_box(
                HybridSim::new(
                    topo.clone(),
                    sc.cc,
                    fg,
                    bg,
                    RateModel::paper_default(sc.cc),
                    HybridConfig::default(),
                )
                .expect("hybrid assembly"),
            );
        }
    }
    let t2 = Instant::now();
    Setup {
        instance_s: (t1 - t0).as_secs_f64(),
        assemble_s: (t2 - t1).as_secs_f64(),
    }
}

/// Set-ups timed per repetition; the one of median total is reported.
pub const SETUP_REPS: usize = 3;

/// Report scalars that are wall-clock readings rather than work counts.
fn is_timing_scalar(name: &str) -> bool {
    name == "events_per_sec" || name.starts_with("span_")
}

/// Run one repetition and describe it as one JSON object. With
/// `trace_out`, the scenario's flight recorder is armed and drained there
/// (the obs-layer overhead probe); the report must not change. The host's
/// load latency is read before set-up and after the run
/// ([`crate::calib`]); the chase's memory is freed and the peak resident
/// memory reset before set-up, so the peak is the simulator's alone. Where
/// the reset is not allowed, only the reading after the run is taken.
pub fn run(w: Workload, seed: u64, trace_out: Option<&Path>) -> JsonObj {
    let mut sc = w.scenario(seed);
    let chasers = (sc.threads as usize).max(1);
    let mut load_ns = Vec::with_capacity(2);
    if reset_peak_rss() {
        load_ns.push(calib::load_ns(chasers));
        reset_peak_rss();
    }
    let a0 = alloc::count();
    let mut setups: Vec<Setup> = (0..SETUP_REPS).map(|_| setup(w, &sc)).collect();
    setups.sort_by(|a, b| (a.instance_s + a.assemble_s).total_cmp(&(b.instance_s + b.assemble_s)));
    let setup = setups[SETUP_REPS / 2];
    let a1 = alloc::count();
    let t0 = Instant::now();
    let report = match trace_out {
        None => run_scenario(&sc, w.backend()),
        Some(p) => {
            sc.probes.trace = true;
            run_scenario_traced(&sc, w.backend(), Some(p))
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let a2 = alloc::count();
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);
    load_ns.push(calib::load_ns(chasers));
    let flows = sc.instance(sc.seeds[0]).1.len();
    let unfinished: usize = report.unfinished.iter().sum();
    let dig = digest::digest(&report);

    let mut counters = JsonObj::default();
    counters
        .num("events", report.events as f64)
        .num("setup_allocs", (a1 - a0) as f64)
        .num("run_allocs", (a2 - a1) as f64);
    for (name, v) in &report.scalars {
        if !is_timing_scalar(name) {
            counters.num(format!("report.{name}"), *v);
        }
    }
    let mut out = JsonObj::default();
    out.str("workload", w.name())
        .num("seed", seed as f64)
        .num("instance_s", setup.instance_s)
        .num("assemble_s", setup.assemble_s)
        .num("setup_s", setup.instance_s + setup.assemble_s)
        .num("wall_s", wall_s)
        .num("events", report.events as f64)
        .num("flows", flows as f64)
        .num("unfinished", unfinished as f64)
        .num("peak_rss_mb", peak_rss)
        .num(
            "load_ns",
            load_ns.iter().sum::<f64>() / load_ns.len() as f64,
        )
        .str("digest", &dig)
        .str("digest_check", digest::check(w.name(), seed, &dig).name())
        .obj("counters", &counters);
    out
}
