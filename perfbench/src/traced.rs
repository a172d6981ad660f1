//! The traced packet DES: `Engine<Fabric<DcHost>>` assembled from the same
//! public pieces `SimBuilder::build` uses (`apply_cc_features`,
//! `make_algo`, `DcHost::new`, `Fabric::new`, `startup_events`), with the
//! model wrapped in a timing [`Model`] and every host in a timing
//! [`HostLogic`]. The wrappers only read clocks and copy ACK fields, so the
//! event sequence — and with it the result digest — equals the untraced
//! run's; the tests and the traced benchmark run check that.

use crate::alloc;
use crate::rep::{packet_algo, packet_fabric};
use crate::stats::Hist;
use fncc_core::metrics::average_slowdowns;
use fncc_core::{fct_slowdowns, RunReport, Scenario, StopCondition};
use fncc_des::engine::{Engine, Model, QueueKind, Scheduler};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::fabric::{Ev, Fabric, HostCtx, HostLogic};
use fncc_net::ids::{FlowId, NodeRef};
use fncc_net::packet::{IntRecord, Packet, PacketKind};
use fncc_net::partition::PartitionMap;
use fncc_net::topology::Topology;
use fncc_transport::{DcHost, FlowSpec, HostTimer, TransportConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One ACK as the sender's CC saw it, recorded for replay through
/// `CcFlow::on_ack`.
#[derive(Clone, Debug)]
pub struct AckRec {
    /// Flow the ACK belongs to.
    pub flow: FlowId,
    /// Arrival time at the sender.
    pub now: SimTime,
    /// Cumulative ACK sequence.
    pub seq: u64,
    /// Highest payload byte the sender had put on the wire, as seen at
    /// the first switch (the sender's own `snd_nxt` is private).
    pub snd_nxt: u64,
    /// INT records, request-path order.
    pub int: Vec<IntRecord>,
    /// FNCC concurrent-flow count.
    pub concurrent_flows: u16,
    /// RoCC fair rate.
    pub rocc_rate: f64,
    /// RTT sample.
    pub rtt: TimeDelta,
}

/// Host-side measurements shared by every [`TimedHost`].
#[derive(Default)]
pub struct HostTimes {
    /// `on_packet` spans (sender ACK path and receiver data path).
    pub packet: Hist,
    /// `on_timer` spans.
    pub timer: Hist,
    /// Recorded ACK stream (only when recording).
    pub acks: Vec<AckRec>,
    /// Highest payload byte per flow seen at a switch (recording only).
    pub sent: Vec<u64>,
    /// Record at most this many ACKs (0 = do not record).
    pub record_cap: usize,
    /// Whether the INT stack arrives reversed (FNCC).
    pub reversed: bool,
}

/// A [`DcHost`] whose callbacks are timed from outside.
pub struct TimedHost {
    /// The wrapped transport.
    pub inner: DcHost,
    times: Rc<RefCell<HostTimes>>,
}

impl HostLogic for TimedHost {
    type Timer = HostTimer;

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, HostTimer>, pkt: Box<Packet>) {
        {
            let mut t = self.times.borrow_mut();
            if pkt.kind == PacketKind::Ack && t.acks.len() < t.record_cap {
                let mut int: Vec<IntRecord> = pkt.int.as_slice().to_vec();
                if t.reversed {
                    int.reverse();
                }
                let snd_nxt = t.sent.get(pkt.flow.ix()).copied().unwrap_or(0).max(pkt.seq);
                t.acks.push(AckRec {
                    flow: pkt.flow,
                    now: ctx.now(),
                    seq: pkt.seq,
                    snd_nxt,
                    int,
                    concurrent_flows: pkt.concurrent_flows,
                    rocc_rate: pkt.rocc_rate,
                    rtt: ctx.now().since(pkt.sent_at),
                });
            }
        }
        let t0 = Instant::now();
        self.inner.on_packet(ctx, pkt);
        let dt = t0.elapsed().as_nanos() as u64;
        self.times.borrow_mut().packet.record(dt);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, HostTimer>, timer: HostTimer) {
        let t0 = Instant::now();
        self.inner.on_timer(ctx, timer);
        let dt = t0.elapsed().as_nanos() as u64;
        self.times.borrow_mut().timer.record(dt);
    }

    fn cc_rate_bps(&self, flow: FlowId) -> Option<f64> {
        self.inner.cc_rate_bps(flow)
    }
}

/// Event kinds the timing model tells apart.
pub const KINDS: [&str; 8] = [
    "arrive_switch",
    "arrive_host",
    "txdone_switch",
    "txdone_host",
    "host_timer",
    "int_refresh",
    "rocc_tick",
    "other",
];

fn kind_of(ev: &Ev<HostTimer>) -> usize {
    match ev {
        Ev::Arrive {
            node: NodeRef::Switch(_),
            ..
        } => 0,
        Ev::Arrive { .. } => 1,
        Ev::TxDone {
            node: NodeRef::Switch(_),
            ..
        } => 2,
        Ev::TxDone { .. } => 3,
        Ev::HostTimer { .. } => 4,
        Ev::IntRefresh => 5,
        Ev::RoccTick => 6,
        _ => 7,
    }
}

/// The fabric wrapped in a timing [`Model`]: one `handle` span per event,
/// kept per event kind.
pub struct TimedFabric {
    /// The wrapped model.
    pub fab: Fabric<TimedHost>,
    /// `handle` spans per entry of [`KINDS`].
    pub handle: Vec<Hist>,
    times: Rc<RefCell<HostTimes>>,
}

impl Model for TimedFabric {
    type Event = Ev<HostTimer>;

    fn handle(&mut self, now: SimTime, ev: Ev<HostTimer>, sched: &mut Scheduler<Ev<HostTimer>>) {
        let k = kind_of(&ev);
        if let Ev::Arrive {
            node: NodeRef::Switch(_),
            pkt,
            ..
        } = &ev
        {
            let mut t = self.times.borrow_mut();
            if t.record_cap > 0 && pkt.kind == PacketKind::Data {
                let end = pkt.seq + pkt.payload as u64;
                if let Some(s) = t.sent.get_mut(pkt.flow.ix()) {
                    *s = (*s).max(end);
                }
            }
        }
        let t0 = Instant::now();
        self.fab.handle(now, ev, sched);
        self.handle[k].record(t0.elapsed().as_nanos() as u64);
    }
}

/// Everything one traced DES run measured.
pub struct TracedDes {
    /// The report rebuilt from the run, as the packet backend builds it
    /// for a one-seed drain run (for the digest).
    pub report: RunReport,
    /// The finished engine, for counters.
    pub eng: Engine<TimedFabric>,
    /// Host callback spans and the recorded ACK stream.
    pub host: HostTimes,
    /// The simulated network.
    pub topo: Topology,
    /// `Scenario::instance` span, seconds.
    pub instance_s: f64,
    /// Engine assembly span, seconds.
    pub assemble_s: f64,
    /// Run-loop span, seconds.
    pub run_s: f64,
    /// Report-building span, seconds.
    pub report_s: f64,
    /// Allocations during the run loop.
    pub run_allocs: u64,
    /// Sum of the `handle` spans, ns.
    pub handle_ns: u128,
    /// LHCS triggers summed over the flows' senders.
    pub lhcs_triggers: u64,
}

/// The simulated-time cap of a drain run: the last flow start plus the
/// scenario's `cap_ms`, as the packet and hybrid backends compute it.
pub fn drain_cap(sc: &Scenario, flows: &[FlowSpec]) -> SimTime {
    let StopCondition::Drain { cap_ms } = sc.stop else {
        panic!("benchmark scenarios stop on drain")
    };
    flows.iter().map(|f| f.start).max().unwrap_or(SimTime::ZERO) + TimeDelta::from_ms(cap_ms)
}

/// Assemble and run `sc`'s first seed on the single engine with timing
/// wrappers. `record_cap` > 0 records up to that many sender ACKs.
pub fn run(sc: &Scenario, record_cap: usize) -> TracedDes {
    let seed = sc.seeds[0];
    let ti = Instant::now();
    let (topo, flows) = sc.instance(seed);
    let t0 = Instant::now();
    let algo = packet_algo(sc, &topo);
    let cfg = packet_fabric(sc, seed, &topo);
    let times = Rc::new(RefCell::new(HostTimes {
        record_cap,
        reversed: algo.kind().int_in_ack_reversed(),
        sent: if record_cap > 0 {
            vec![0; flows.len()]
        } else {
            Vec::new()
        },
        ..HostTimes::default()
    }));
    let tcfg = TransportConfig::new(algo).with_ack_every(1);
    let hosts = (0..topo.n_hosts)
        .map(|_| TimedHost {
            inner: DcHost::new(tcfg.clone()),
            times: times.clone(),
        })
        .collect();
    let mut fab = Fabric::new(&topo, cfg, hosts);
    let map = PartitionMap::for_topology(&topo);
    fab.domains = map.is_sharded().then(|| Arc::new(map));
    for f in &flows {
        fab.hosts[f.src.ix()].inner.add_flow(f.clone());
    }
    let mut eng = Engine::with_queue(
        TimedFabric {
            fab,
            handle: vec![Hist::default(); KINDS.len()],
            times: times.clone(),
        },
        QueueKind::Wheel,
    );
    for (t, ev) in eng.model.fab.startup_events() {
        let d = eng.model.fab.event_domain(&ev);
        eng.set_domain(d);
        eng.schedule(t, ev);
    }
    for f in &flows {
        let ev = Ev::HostTimer {
            host: f.src,
            timer: HostTimer::FlowStart(f.id),
        };
        let d = eng.model.fab.event_domain(&ev);
        eng.set_domain(d);
        eng.schedule(f.start, ev);
    }
    eng.set_domain(0);
    let t1 = Instant::now();

    // `Sim::run_to_completion` with the packet backend's drain cap.
    let cap = drain_cap(sc, &flows);
    let a0 = alloc::count();
    let mut t = eng.now();
    loop {
        let telem = &eng.model.fab.telemetry;
        if (telem.flow_count() > 0 && telem.all_flows_finished()) || t >= cap {
            break;
        }
        t = (t + TimeDelta::from_ms(1)).min(cap);
        eng.run_until(t);
    }
    let a1 = alloc::count();
    let t2 = Instant::now();

    let fab = &eng.model.fab;
    let telem = &fab.telemetry;
    let mut report = RunReport::new(&sc.name, "packet", sc.cc.name());
    report.seeds = sc.seeds.clone();
    report.events = eng.events_processed();
    report
        .unfinished
        .push(telem.flow_records().filter(|r| r.finish.is_none()).count());
    let rows = fct_slowdowns(
        &topo,
        telem,
        &sc.traffic.buckets(),
        fab.cfg.mtu_payload(),
        fab.cfg.data_header,
    );
    report.slowdowns = average_slowdowns(&[rows]);
    for (name, v) in telem.metrics.scalar_pairs() {
        report.put_scalar(name, v);
    }
    if let Some(m) = report.mean_slowdown() {
        report.put_scalar("mean_slowdown", m);
    }
    let t3 = Instant::now();

    let lhcs_triggers = flows
        .iter()
        .map(|f| fab.hosts[f.src.ix()].inner.lhcs_triggers(f.id).unwrap_or(0))
        .sum();
    let handle_ns = eng.model.handle.iter().map(Hist::sum_ns).sum();
    drop(times);
    let host = std::mem::take(&mut *eng.model.times.borrow_mut());
    TracedDes {
        report,
        eng,
        host,
        topo,
        instance_s: (t0 - ti).as_secs_f64(),
        assemble_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        report_s: (t3 - t2).as_secs_f64(),
        run_allocs: a1 - a0,
        handle_ns,
        lhcs_triggers,
    }
}
