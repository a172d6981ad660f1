//! The traced run: per-layer costs and work counts for one workload,
//! measured from outside the program, plus the checks that the traced
//! assemblies reproduce the untraced results.
//!
//! Layers that a workload does not run report zero work. Per-call timings
//! of the DES layers on a workload without a packet-DES engine of its own
//! (fluid, hybrid — whose engine is internal) come from the workload's
//! FNCC ACK-recording run; the per-scheme CC timings always do.

use crate::alloc;
use crate::digest::{self, Check};
use crate::rep::{self, framing, packet_algo};
use crate::stats::{median, Hist, JsonObj};
use crate::traced::{self, TracedDes, KINDS};
use crate::workloads::Workload;
use fncc_cc::{AckView, CcKind};
use fncc_core::metrics::average_slowdowns;
use fncc_core::{fct_slowdowns, run_scenario, RunReport, Scenario, SimBackend};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_fluid::{Demand, FluidSim, LinkMap, RateModel, WaterFiller};
use fncc_hybrid::{HybridConfig, HybridSim};
use fncc_net::packet::Packet;
use fncc_net::telemetry::{FlowRecord, Telemetry};
use fncc_net::topology::Topology;
use std::hint::black_box;
use std::time::Instant;

/// Named metrics with units, in emission order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    fn put(&mut self, name: impl Into<String>, v: f64, unit: &'static str) {
        self.items.push((name.into(), v, unit));
    }

    /// Replace the value of a metric put earlier.
    fn set(&mut self, name: &str, v: f64) {
        let item = self.items.iter_mut().find(|(n, _, _)| n == name);
        item.expect("metric put before it is set").1 = v;
    }

    /// Median, p99 and sample count of a per-call histogram.
    fn timing(&mut self, name: &str, h: &Hist, unit: &'static str, scale: f64) {
        self.put(name, h.quantile(0.5) * scale, unit);
        self.put(format!("{name}.p99"), h.quantile(0.99) * scale, unit);
        self.put(format!("{name}.calls"), h.count() as f64, "count");
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> JsonObj {
        let mut out = JsonObj::default();
        for (name, v, unit) in &self.items {
            let mut m = JsonObj::default();
            m.num("value", *v).str("unit", unit);
            out.obj(name.clone(), &m);
        }
        out
    }
}

/// Result checks of the traced run.
#[derive(Default)]
pub struct Checks {
    items: Vec<(String, bool)>,
}

impl Checks {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.items.push((name.into(), ok));
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.items.iter().all(|(_, ok)| *ok)
    }

    /// `{"name": 0|1, ...}`.
    pub fn to_json(&self) -> JsonObj {
        let mut out = JsonObj::default();
        for (name, ok) in &self.items {
            out.num(name.clone(), if *ok { 1.0 } else { 0.0 });
        }
        out
    }
}

/// ACKs recorded per scheme for the CC replay.
const ACK_CAP: usize = 60_000;
/// Replay each scheme's ACK stream until at least this many calls.
const REPLAY_CALLS: u64 = 200_000;
/// Flows (Poisson) or waves (incast) of the per-scheme recording runs.
fn probe_size(w: Workload) -> u32 {
    match w {
        Workload::DesIncastSharded => 1,
        _ => 40,
    }
}

/// The scenario of the per-scheme ACK recording: the workload's traffic
/// shape, reduced, on the single-engine packet DES.
fn probe_scenario(w: Workload, seed: u64, cc: CcKind) -> Scenario {
    let mut sc = w.scenario_with_flows(seed, Some(probe_size(w)));
    sc.cc = cc;
    sc.threads = 0;
    sc.foreground = None;
    sc
}

/// Replay a recorded ACK stream through fresh `CcFlow`s of `cc`, timing
/// each `on_ack`.
fn replay_acks(sc: &Scenario, d: &TracedDes) -> Hist {
    let (topo, flows) = sc.instance(sc.seeds[0]);
    let algo = packet_algo(sc, &topo);
    let mut h = Hist::default();
    if d.host.acks.is_empty() {
        return h;
    }
    while h.count() < REPLAY_CALLS {
        let mut ccs: Vec<_> = flows.iter().map(|_| algo.new_flow()).collect();
        let mut acked = vec![0u64; flows.len()];
        for a in &d.host.acks {
            let i = a.flow.ix();
            let newly = a.seq.saturating_sub(acked[i]);
            acked[i] = acked[i].max(a.seq);
            let view = AckView {
                now: a.now,
                seq: a.seq,
                snd_nxt: a.snd_nxt,
                newly_acked: newly,
                int: &a.int,
                concurrent_flows: a.concurrent_flows,
                rocc_rate: a.rocc_rate,
                rtt: a.rtt,
            };
            let t0 = Instant::now();
            ccs[i].on_ack(&view);
            h.record(t0.elapsed().as_nanos() as u64);
        }
        black_box(&ccs);
    }
    h
}

/// Replay flow arrivals and completions, in time order, through an
/// incremental `WaterFiller` (one delta = `add_flow`/`remove_flow` +
/// `rebalance`), then time one full `allocate` at the peak active set.
/// Returns `(delta histogram, full-solve ms)`.
fn replay_fluid<'a>(topo: &Topology, records: impl Iterator<Item = &'a FlowRecord>) -> (Hist, f64) {
    const MAX_DELTAS: usize = 100_000;
    let links = LinkMap::new(topo);
    let eta = RateModel::paper_default(CcKind::Fncc).utilization;
    let capacity: Vec<f64> = links.capacities().iter().map(|c| c * eta).collect();
    let recs: Vec<&FlowRecord> = records.filter(|r| r.finish.is_some()).collect();
    let paths: Vec<Vec<u32>> = recs
        .iter()
        .map(|r| links.path_links(topo, r.src, r.dst, r.flow))
        .collect();
    // (time, 0 = completion / 1 = arrival, record index)
    let mut evs: Vec<(SimTime, u8, usize)> = Vec::with_capacity(2 * recs.len());
    for (i, r) in recs.iter().enumerate() {
        evs.push((r.start, 1, i));
        evs.push((r.finish.expect("filtered"), 0, i));
    }
    evs.sort();
    evs.truncate(MAX_DELTAS);
    let mut wf = WaterFiller::new(links.len());
    wf.begin_incremental(&capacity);
    let mut slot = vec![u32::MAX; recs.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut peak: Vec<usize> = Vec::new();
    let mut h = Hist::default();
    for &(_, kind, i) in &evs {
        let t0 = Instant::now();
        if kind == 1 {
            slot[i] = wf.add_flow(&paths[i]);
        } else if slot[i] != u32::MAX {
            wf.remove_flow(slot[i]);
            slot[i] = u32::MAX;
        }
        wf.rebalance();
        h.record(t0.elapsed().as_nanos() as u64);
        if kind == 1 {
            active.push(i);
        } else {
            active.retain(|&j| j != i);
        }
        if active.len() > peak.len() {
            peak.clone_from(&active);
        }
    }
    let demands: Vec<Demand<'_>> = peak
        .iter()
        .map(|&i| Demand {
            cap: f64::INFINITY,
            path: &paths[i],
        })
        .collect();
    let mut full = WaterFiller::new(links.len());
    let mut rates = Vec::new();
    let mut ms: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            full.allocate(&capacity, &demands, &mut rates);
            black_box(&rates);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (h, median(&mut ms))
}

/// A one-seed report over `telem`'s flow records, built the way the
/// fluid and hybrid backends build theirs (for the digest).
fn flow_report(
    sc: &Scenario,
    backend: &str,
    topo: &Topology,
    telem: &Telemetry,
    metrics: &Telemetry,
    events: u64,
) -> RunReport {
    let f = framing();
    let mut report = RunReport::new(&sc.name, backend, sc.cc.name());
    report.seeds = sc.seeds.clone();
    report.events = events;
    report
        .unfinished
        .push(telem.flow_records().filter(|r| r.finish.is_none()).count());
    report.slowdowns = average_slowdowns(&[fct_slowdowns(
        topo,
        telem,
        &sc.traffic.buckets(),
        f.mtu_payload,
        f.header,
    )]);
    for (name, v) in metrics.metrics.scalar_pairs() {
        report.put_scalar(name, v);
    }
    if let Some(m) = report.mean_slowdown() {
        report.put_scalar("mean_slowdown", m);
    }
    report
}

/// DES-layer metrics from a traced engine run. `counts` = false reports
/// the per-call timings only (zero work counts: the workload does not run
/// this engine).
fn des_metrics(m: &mut Metrics, d: &TracedDes, counts: bool) {
    let c = |v: f64| if counts { v } else { 0.0 };
    let events = d.report.events;
    let eng = &d.eng;
    let fab = &eng.model.fab;
    m.put("des.events", c(events as f64), "count");
    for (k, name) in KINDS.iter().enumerate() {
        m.put(
            format!("des.events.{name}"),
            c(eng.model.handle[k].count() as f64),
            "count",
        );
    }
    let cascades: u64 = eng.wheel_cascades().map_or(0, |c| c.iter().sum());
    m.put("des.wheel_cascades", c(cascades as f64), "count");
    m.put(
        "des.peak_queue_len",
        c(eng.peak_queue_len() as f64),
        "count",
    );
    m.put(
        "des.allocs_per_kevent",
        c(d.run_allocs as f64 * 1e3 / events.max(1) as f64),
        "1/kevent",
    );
    let sched_ns = (d.run_s * 1e9 - d.handle_ns as f64).max(0.0) / events.max(1) as f64;
    m.put("des.sched_ns_per_event", sched_ns, "ns");

    m.timing("net.switch_arrive_ns", &eng.model.handle[0], "ns", 1.0);
    m.timing("net.switch_txdone_ns", &eng.model.handle[2], "ns", 1.0);
    m.timing("net.int_refresh_ns", &eng.model.handle[5], "ns", 1.0);
    let (fresh, rec) = (fab.pool.fresh_allocs(), fab.pool.recycled());
    m.put(
        "net.packet_bytes",
        std::mem::size_of::<Packet>() as f64,
        "B",
    );
    m.put(
        "net.pool_hit_rate",
        c(rec as f64 / (fresh + rec).max(1) as f64),
        "ratio",
    );
    m.put("net.pool_fresh_allocs", c(fresh as f64), "count");
    m.put(
        "net.pfc_pause_frames",
        c(fab.telemetry.counters.pfc_pause_tx as f64),
        "count",
    );
    m.timing("transport.host_packet_ns", &d.host.packet, "ns", 1.0);
    m.timing("transport.host_timer_ns", &d.host.timer, "ns", 1.0);
    m.put(
        "transport.acks",
        c(fab.telemetry.counters.acks_delivered as f64),
        "count",
    );
}

/// Fluid-solver work counts.
struct FluidCounts {
    incremental: u64,
    full: u64,
    rate_updates: u64,
    /// Flows re-rated per solve.
    resolve_mean: f64,
}

fn fluid_counts(bg: &fncc_fluid::FluidResult) -> FluidCounts {
    FluidCounts {
        incremental: bg.incremental_solves,
        full: bg.full_solves,
        rate_updates: bg.rate_updates,
        resolve_mean: bg.rate_updates as f64
            / (bg.incremental_solves + bg.full_solves).max(1) as f64,
    }
}

/// Everything the traced run of one workload reports.
pub struct TraceResult {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Equality checks between traced and untraced results.
    pub checks: Checks,
    /// Flows the checked runs simulated (the `attempted` base).
    pub flows: usize,
}

/// Time the untraced `run_scenario` call on `sc`.
fn untraced(sc: &Scenario, backend: SimBackend) -> (RunReport, f64, u64) {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let report = run_scenario(sc, backend);
    let s = t0.elapsed().as_secs_f64();
    (report, s, alloc::count() - a0)
}

/// Run the traced measurement of workload `w` at `seed`.
pub fn run(w: Workload, seed: u64) -> TraceResult {
    let sc = w.scenario(seed);
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let flows = sc.instance(sc.seeds[0]).1.len();

    // The clock's own cost, to read the per-call spans against.
    let mut clock = Hist::default();
    for _ in 0..100_000 {
        let t0 = Instant::now();
        clock.record(t0.elapsed().as_nanos() as u64);
    }
    m.put("bench.clock_ns", clock.quantile(0.5), "ns");

    // Per-scheme ACK recordings; FNCC's also stands in for the DES
    // per-call timings on workloads without a DES engine of their own.
    let mut fncc_probe = None;
    let mut cc_hists = Vec::new();
    for kind in CcKind::ALL {
        let psc = probe_scenario(w, seed, kind);
        let d = traced::run(&psc, ACK_CAP);
        cc_hists.push((kind, replay_acks(&psc, &d)));
        if kind == CcKind::Fncc {
            fncc_probe = Some(d);
        }
    }
    let fncc_probe = fncc_probe.expect("CcKind::ALL holds FNCC");

    let (a_report, a_s, a_allocs) = untraced(&sc, w.backend());
    let a_digest = digest::digest(&a_report);
    checks.check(
        "untraced_digest_recorded",
        digest::check(w.name(), seed, &a_digest) != Check::Mismatch,
    );
    checks.check(
        "untraced_all_finished",
        a_report.unfinished.iter().sum::<usize>() == 0,
    );

    let mut shard = (0.0, 0.0, 0.0, 0.0);
    let mut hybrid = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut fluid = FluidCounts {
        incremental: 0,
        full: 0,
        rate_updates: 0,
        resolve_mean: 0.0,
    };
    let mut lhcs = 0u64;
    let (traced_s, baseline_s, phases, replay);
    match w {
        Workload::DesWebsearch | Workload::DesIncastSharded => {
            let mut single = sc.clone();
            single.threads = 0;
            let baseline = if w == Workload::DesIncastSharded {
                let a0 = alloc::count();
                let setup = rep::setup(w, &sc);
                let setup_allocs = alloc::count() - a0;
                let epochs = a_report.scalar("epochs").unwrap_or(0.0);
                shard = (
                    epochs,
                    a_report.scalar("cross_shard_frames").unwrap_or(0.0),
                    (a_s - setup.instance_s - setup.assemble_s) * 1e6 / epochs.max(1.0),
                    a_allocs.saturating_sub(setup_allocs) as f64 / epochs.max(1.0),
                );
                let (r1, s1, _) = untraced(&single, SimBackend::Packet);
                checks.check(
                    "single_engine_digest_equals_sharded",
                    digest::digest(&r1) == a_digest,
                );
                s1
            } else {
                a_s
            };
            let d = traced::run(&single, 0);
            checks.check("traced_events_equal", d.report.events == a_report.events);
            checks.check("traced_digest_equal", digest::digest(&d.report) == a_digest);
            des_metrics(&mut m, &d, true);
            lhcs = d.lhcs_triggers;
            traced_s = d.instance_s + d.assemble_s + d.run_s + d.report_s;
            baseline_s = baseline;
            phases = (d.instance_s, d.assemble_s, d.report_s);
            replay = replay_fluid(&d.topo, d.eng.model.fab.telemetry.flow_records());
        }
        Workload::FluidWebsearch => {
            des_metrics(&mut m, &fncc_probe, false);
            let t0 = Instant::now();
            let (topo, flows) = sc.instance(sc.seeds[0]);
            let t1 = Instant::now();
            let sim = FluidSim::new(topo.clone(), RateModel::paper_default(sc.cc))
                .framing(framing())
                .flows(flows);
            let t2 = Instant::now();
            let res = sim.run().expect("fluid run");
            let t3 = Instant::now();
            let report = flow_report(
                &sc,
                "fluid",
                &topo,
                &res.telemetry,
                &res.telemetry,
                res.reallocations,
            );
            let t4 = Instant::now();
            checks.check("traced_events_equal", report.events == a_report.events);
            checks.check("traced_digest_equal", digest::digest(&report) == a_digest);
            fluid = fluid_counts(&res);
            traced_s = (t4 - t0).as_secs_f64();
            baseline_s = a_s;
            phases = (
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t4 - t3).as_secs_f64(),
            );
            replay = replay_fluid(&topo, res.telemetry.flow_records());
        }
        Workload::HybridFleet => {
            des_metrics(&mut m, &fncc_probe, false);
            let t0 = Instant::now();
            let (topo, flows) = sc.instance(sc.seeds[0]);
            let t1 = Instant::now();
            let spec = sc
                .foreground
                .as_ref()
                .expect("hybrid workload has a foreground");
            let (fg, bg) = spec.partition(&flows);
            let cap = traced::drain_cap(&sc, &flows);
            let mut sim = HybridSim::new(
                topo.clone(),
                sc.cc,
                fg.clone(),
                bg,
                RateModel::paper_default(sc.cc),
                HybridConfig::default(),
            )
            .expect("hybrid assembly");
            let t2 = Instant::now();
            sim.run_to_completion(TimeDelta::from_ms(1), cap)
                .expect("hybrid run");
            let t3 = Instant::now();
            lhcs = fg
                .iter()
                .map(|f| {
                    sim.fabric().hosts[f.src.ix()]
                        .lhcs_triggers(f.id)
                        .unwrap_or(0)
                })
                .sum();
            let fab = sim.fabric();
            let (fresh, rec) = (fab.pool.fresh_allocs(), fab.pool.recycled());
            let pauses = sim.telemetry().counters.pfc_pause_tx;
            let acks = sim.telemetry().counters.acks_delivered;
            let res = sim.into_result();
            let mut merged = Telemetry::new();
            for r in res.fg.flow_records().chain(res.bg.telemetry.flow_records()) {
                let mut open = r.clone();
                open.finish = None;
                merged.flow_started(open);
                if let Some(at) = r.finish {
                    merged.flow_finished(r.flow, at);
                }
            }
            let report = flow_report(
                &sc,
                "hybrid",
                &topo,
                &merged,
                &res.fg,
                res.fg_events + res.bg.reallocations,
            );
            let t4 = Instant::now();
            checks.check("traced_events_equal", report.events == a_report.events);
            checks.check("traced_digest_equal", digest::digest(&report) == a_digest);
            // The hybrid's foreground DES does run: its work counts
            // replace the zero counts of the probe-sourced DES metrics.
            m.set("des.events", res.fg_events as f64);
            m.set(
                "net.pool_hit_rate",
                rec as f64 / (fresh + rec).max(1) as f64,
            );
            m.set("net.pool_fresh_allocs", fresh as f64);
            m.set("net.pfc_pause_frames", pauses as f64);
            m.set("transport.acks", acks as f64);
            fluid = fluid_counts(&res.bg);
            let run_s = (t3 - t2).as_secs_f64();
            hybrid = (
                res.syncs as f64,
                res.reservations as f64,
                res.backlog_pushes as f64,
                res.fg_events as f64,
                run_s * 1e6 / (res.syncs.max(1) as f64),
            );
            traced_s = (t4 - t0).as_secs_f64();
            baseline_s = a_s;
            phases = (
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t4 - t3).as_secs_f64(),
            );
            replay = replay_fluid(&topo, res.bg.telemetry.flow_records());
        }
    }

    for (kind, h) in &cc_hists {
        let s = kind.name().to_ascii_lowercase();
        m.timing(&format!("cc.on_ack_ns.{s}"), h, "ns", 1.0);
    }
    m.put("cc.lhcs_triggers", lhcs as f64, "count");
    m.put("workloads.instance_s", phases.0, "s");
    m.put("core.assemble_s", phases.1, "s");
    m.put("core.report_s", phases.2, "s");
    m.put("shard.epochs", shard.0, "count");
    m.put("shard.cross_shard_frames", shard.1, "count");
    m.put("shard.us_per_epoch", shard.2, "us");
    m.put("shard.allocs_per_epoch", shard.3, "count");
    m.put(
        "fluid.incremental_solves",
        fluid.incremental as f64,
        "count",
    );
    m.put("fluid.full_solves", fluid.full as f64, "count");
    m.put("fluid.rate_updates", fluid.rate_updates as f64, "count");
    m.put("fluid.resolve_set_mean", fluid.resolve_mean, "flows");
    m.timing("fluid.delta_us", &replay.0, "us", 1e-3);
    m.put("fluid.full_solve_ms", replay.1, "ms");
    m.put("hybrid.syncs", hybrid.0, "count");
    m.put("hybrid.reservations", hybrid.1, "count");
    m.put("hybrid.backlog_pushes", hybrid.2, "count");
    m.put("hybrid.fg_events", hybrid.3, "count");
    m.put("hybrid.us_per_sync", hybrid.4, "us");
    m.put(
        "bench.trace_overhead_pct",
        (traced_s / baseline_s - 1.0) * 100.0,
        "%",
    );
    TraceResult {
        metrics: m,
        checks,
        flows,
    }
}
