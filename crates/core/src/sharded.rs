//! Sharded parallel execution of the packet DES: conservative barrier
//! synchronization over a pod partition of the fat-tree.
//!
//! # How it stays byte-identical to the single-threaded engine
//!
//! The topology is partitioned by [`PartitionMap::for_topology`] into one
//! shard per pod (cores round-robined). Each shard is a complete
//! [`Sim`] replica — same fabric, same ids — that only schedules and
//! processes events for entities it owns; state of non-owned entities
//! goes stale but is never read. A frame crossing a cut link is diverted
//! to the engine's *outbox* carrying the exact `(time, prio, seq)` key
//! the sending engine would have used locally (`prio` is the schedule
//! time, `seq` is drawn from the sender's shard-tagged sequence domain).
//! Those keys form a deterministic global total order, so it does not
//! matter *when* a frame is injected into the receiving wheel — only
//! that it arrives before the epoch in which it could fire.
//!
//! Conservative synchronization guarantees exactly that: the lookahead
//! `L` is the minimum propagation delay over cut links, so a frame
//! emitted during epoch `[t, t+L)` cannot fire before `t+L`. Workers run
//! every shard to `t+L − 1 ps`, flush outboxes into per-shard mailboxes,
//! meet at a barrier, inject, and move on. The number of shards is fixed
//! by the topology — threads only decide which worker runs which shard —
//! so reports are byte-identical at every thread count by construction.
//!
//! # Where the time goes
//!
//! Epochs are short (one lookahead, 1.5 µs of simulated time at paper
//! defaults), so the loop is built not to wait: the barrier spins before
//! it blocks ([`EpochBarrier`]), shards are placed on workers heaviest
//! first by their run time in the previous chunk ([`greedy_placement`]), and
//! frames move through reused per-pair mailboxes ([`Inboxes`]) in one lock
//! per sending shard and destination per epoch. Under `FNCC_PROFILE=1` each worker's inject,
//! run, flush and barrier-wait time is reported as `span_epoch_*`.
//!
//! The run loop mirrors [`Sim::run_to_completion`]'s 1 ms chunking and
//! its stop test (evaluated on aggregated per-shard counts), so event
//! totals and stop times match the legacy engine exactly.

use crate::sim::Sim;
use fncc_des::engine::Outbound;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::fabric::Ev;
use fncc_net::ids::{HostId, SwitchId};
use fncc_net::partition::PartitionMap;
use fncc_net::telemetry::Telemetry;
use fncc_net::topology::Topology;
use fncc_obs::{PhaseId, Profiler, TraceSink};
use fncc_transport::{DcHost, HostTimer};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// A cross-shard frame in flight between epochs.
type Frame = Outbound<Ev<HostTimer>>;

const MAILBOX_POISONED: &str = "a worker panicked while holding a mailbox";

/// `spin_loop` iterations a barrier waiter polls before it blocks. An x86
/// `pause` takes 10 to 140 cycles depending on the core, so this spans
/// tens to about a hundred microseconds, around one epoch's wall time on
/// the k=8 incast: on a host with a core per worker the hand-over stays a
/// cache-line transfer instead of a futex sleep and wake.
const SPIN_LIMIT: u32 = 4096;

/// A reusable barrier that spins on a generation counter, then blocks.
///
/// `std::sync::Barrier` parks every waiter but the last on a condvar, so
/// each of the two waits per epoch costs one sleep and one wake. Here a
/// waiter polls the generation for [`SPIN_LIMIT`] iterations first and
/// only then sleeps; the last arrival bumps the generation and wakes
/// sleepers only if there are any. With more workers than cores a spinner
/// would hold the core a late peer needs, so the spin budget is zero.
struct EpochBarrier {
    n: usize,
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl EpochBarrier {
    fn new(n: usize) -> EpochBarrier {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        EpochBarrier {
            n,
            spin: if n <= cores { SPIN_LIMIT } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `n` parties of the current round have arrived.
    fn wait(&self) {
        // This round's generation cannot advance before we arrive, so the
        // value read here is the one the last arrival will bump.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            // SeqCst pairs with the sleeper's increment-then-check below:
            // either it sees the new generation or we see it registered.
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.wake.notify_all();
            }
            return;
        }
        for _ in 0..self.spin {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Longest-processing-time placement: shards in order of decreasing
/// cost, each onto the worker with the least cost so far. Every shard
/// counts one more than its cost and ties go to worker `s % threads` when
/// it is among the least loaded (else the lowest such index), so equal
/// costs — including the all-zero costs of a first chunk — reproduce the
/// round-robin `s % threads`, and every worker gets a shard.
fn greedy_placement(costs: &[u64], threads: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(costs[s]));
    let mut load = vec![0u64; threads];
    let mut assign = vec![0; costs.len()];
    for s in order {
        let min = *load.iter().min().expect("at least one worker");
        let w = if load[s % threads] == min {
            s % threads
        } else {
            load.iter()
                .position(|&l| l == min)
                .expect("min is a worker's load")
        };
        load[w] += costs[s] + 1;
        assign[s] = w;
    }
    assign
}

/// Per-shard inboxes: `inboxes[dst][src]` holds the frames shard `src`
/// sent to shard `dst` that `dst` has not injected yet. One mailbox per
/// ordered pair, rather than per destination, has exactly one writer:
/// its capacity then grows with that pair's traffic alone, so the run's
/// allocation count does not depend on which worker runs which shard or
/// on the order in which workers flush.
type Inboxes = Vec<Vec<Mutex<Vec<Frame>>>>;

/// What one worker keeps across epochs and chunks: its counters (summed
/// after each chunk, so no atomic is shared in the loop), its per-shard
/// run times and its epoch-phase profiler.
struct Worker {
    /// Wall-clock nanoseconds this worker spent running each shard since
    /// the last placement (indexed by shard).
    shard_ns: Vec<u64>,
    cross_frames: u64,
    violations: u64,
    prof: Profiler,
    ph_inject: PhaseId,
    ph_run: PhaseId,
    ph_flush: PhaseId,
    ph_wait: PhaseId,
}

impl Worker {
    fn new(n_shards: usize) -> Worker {
        let mut prof = Profiler::from_env();
        Worker {
            shard_ns: vec![0; n_shards],
            cross_frames: 0,
            violations: 0,
            ph_inject: prof.phase("epoch_inject"),
            ph_run: prof.phase("epoch_run"),
            ph_flush: prof.phase("epoch_flush"),
            ph_wait: prof.phase("epoch_barrier_wait"),
            prof,
        }
    }

    /// This worker's share of the epoch loop from `t0` to `horizon` (see
    /// [`ShardedSim::run_epochs`]).
    fn run(
        &mut self,
        group: &mut [(usize, &mut Sim)],
        t0: SimTime,
        horizon: SimTime,
        la: TimeDelta,
        inboxes: &Inboxes,
        barrier: &EpochBarrier,
    ) {
        let ps = TimeDelta::from_ps(1);
        let mut t = t0;
        while t < horizon {
            let end = (t + la).min(horizon);
            self.epoch(group, end - ps, inboxes, barrier);
            t = end;
        }
        // Inclusive pass over the boundary instant.
        self.epoch(group, horizon, inboxes, barrier);
    }

    /// One epoch: inject, barrier, run every shard to `until`, flush,
    /// barrier.
    fn epoch(
        &mut self,
        group: &mut [(usize, &mut Sim)],
        until: SimTime,
        inboxes: &Inboxes,
        barrier: &EpochBarrier,
    ) {
        let span = self.prof.begin();
        for (ix, sim) in group.iter_mut() {
            for mailbox in &inboxes[*ix] {
                for f in mailbox.lock().expect(MAILBOX_POISONED).drain(..) {
                    if f.time < sim.eng.now() {
                        self.violations += 1;
                    }
                    sim.eng.inject(f.time, f.prio, f.seq, f.ev);
                }
            }
        }
        self.prof.end(self.ph_inject, span);
        // Without this barrier a fast worker could flush its outbox into
        // a peer's mailbox *before* the peer's inject ran, delivering
        // frames one epoch early. Harmless for results (frames carry
        // absolute keys and cannot fire early) but it makes
        // queue-occupancy diagnostics race- and thread-dependent; the
        // barrier keeps every scalar byte-identical across thread counts.
        self.wait(barrier);

        let span = self.prof.begin();
        let mut t = Instant::now();
        for (ix, sim) in group.iter_mut() {
            sim.run_until(until);
            let now = Instant::now();
            self.shard_ns[*ix] += now.duration_since(t).as_nanos() as u64;
            t = now;
        }
        self.prof.end(self.ph_run, span);

        let span = self.prof.begin();
        for (src, sim) in group.iter_mut() {
            let outbox = sim.eng.outbox_mut();
            self.cross_frames += outbox.len() as u64;
            // Group by destination in place (an unstable sort does not
            // allocate), then move each batch under one lock.
            outbox.sort_unstable_by_key(|ob| ob.dst);
            let mut frames = outbox.drain(..).peekable();
            while let Some(first) = frames.next() {
                let dst = first.dst;
                let mut mailbox = inboxes[dst as usize][*src].lock().expect(MAILBOX_POISONED);
                mailbox.push(first);
                while let Some(f) = frames.next_if(|f| f.dst == dst) {
                    mailbox.push(f);
                }
            }
        }
        self.prof.end(self.ph_flush, span);
        self.wait(barrier);
    }

    fn wait(&mut self, barrier: &EpochBarrier) {
        let span = self.prof.begin();
        barrier.wait();
        self.prof.end(self.ph_wait, span);
    }
}

/// Aggregate statistics of a sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Number of shards (1 = fallback / trivial partition).
    pub shards: u16,
    /// Barrier epochs executed.
    pub epochs: u64,
    /// Frames exchanged across shard boundaries.
    pub cross_shard_frames: u64,
    /// Synchronization lookahead, ns.
    pub lookahead_ns: u64,
    /// Cross-shard frames injected below the receiving shard's clock
    /// (0 in a correct run; counted, not panicked, so the property tests
    /// can assert on it).
    pub causality_violations: u64,
    /// Fallback-reason code when the topology could not be partitioned
    /// (see `fncc_net::partition::FallbackReason::code`).
    pub fallback: Option<u32>,
}

/// A sharded simulation: one [`Sim`] replica per shard plus the epoch
/// coordinator state. Build with [`ShardedSim::new`]; drive it like a
/// [`Sim`] (`run_until` / `run_to_completion`), then call
/// [`ShardedSim::harvest`] once to merge per-shard telemetry.
pub struct ShardedSim {
    shards: Vec<Sim>,
    map: Arc<PartitionMap>,
    /// Worker threads actually used (≤ shard count).
    threads: usize,
    /// Worker index per shard, chosen per chunk by [`greedy_placement`].
    assign: Vec<usize>,
    /// True once a test fixed `assign` through
    /// [`ShardedSim::set_worker_assignment`].
    pinned: bool,
    /// Frames that crossed a boundary and have not yet been injected
    /// (persists across chunk calls).
    inboxes: Inboxes,
    barrier: EpochBarrier,
    workers: Vec<Worker>,
    epochs: u64,
    /// Receiver-side flow records pre-registered at build time (flows
    /// whose sender lives in another shard); subtracted from the summed
    /// started-count so the stop test sees distinct flows.
    cross_dst_records: usize,
    merged: Option<Telemetry>,
}

impl ShardedSim {
    /// Build a sharded sim over `topo` using up to `threads` workers.
    /// `make` is called once per shard with `(map, shard)` and must
    /// return that shard's configured [`Sim`] (the caller applies
    /// [`crate::sim::SimBuilder::shard`] with the given arguments).
    /// Topologies without a pod structure fall back to one shard — the
    /// run then equals the legacy engine exactly and
    /// [`ShardedSim::stats`] carries the fallback code.
    pub fn new(
        topo: &Topology,
        threads: usize,
        make: impl FnMut(Arc<PartitionMap>, u16) -> Sim,
    ) -> ShardedSim {
        let map = Arc::new(PartitionMap::for_topology(topo));
        ShardedSim::with_map(map, threads, make)
    }

    /// Like [`ShardedSim::new`] but over an explicit partition (the
    /// property tests fuzz arbitrary owner maps through this).
    pub fn with_map(
        map: Arc<PartitionMap>,
        threads: usize,
        mut make: impl FnMut(Arc<PartitionMap>, u16) -> Sim,
    ) -> ShardedSim {
        assert!(threads >= 1, "sharded run needs at least one worker");
        let n = map.n_shards as usize;
        let shards: Vec<Sim> = (0..map.n_shards).map(|s| make(map.clone(), s)).collect();
        let threads = threads.min(n);
        // At build time the only registered flow records are the
        // receiver-side ones pre-registered for cross-shard flows (sender
        // records appear when FlowStart timers fire), so counting now
        // yields exactly the double-count correction the stop test needs.
        let cross_dst_records = shards.iter().map(|s| s.telemetry().flow_count()).sum();
        ShardedSim {
            shards,
            map,
            threads,
            assign: (0..n).map(|s| s % threads).collect(),
            pinned: false,
            inboxes: (0..n)
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            barrier: EpochBarrier::new(threads),
            workers: (0..threads).map(|_| Worker::new(n)).collect(),
            epochs: 0,
            cross_dst_records,
            merged: None,
        }
    }

    /// Override the shard→worker assignment for the rest of the run, in
    /// place of the per-chunk greedy placement (property tests shuffle
    /// this to show results do not depend on which thread runs which
    /// shard). `assign[s]` must be `< threads` for every shard `s`.
    pub fn set_worker_assignment(&mut self, assign: Vec<usize>) {
        assert_eq!(assign.len(), self.shards.len());
        assert!(assign.iter().all(|&w| w < self.threads));
        self.assign = assign;
        self.pinned = true;
    }

    /// The partition in effect.
    pub fn partition(&self) -> &PartitionMap {
        &self.map
    }

    /// Current simulation time (all shards park at the same instant).
    pub fn now(&self) -> SimTime {
        self.shards[0].now()
    }

    /// Aggregate events dispatched, with replica events (periodic ticks
    /// and fault boundaries mirrored on several shards) counted once —
    /// matches the single-engine total.
    pub fn events_processed(&self) -> u64 {
        let raw: u64 = self.shards.iter().map(|s| s.events_processed()).sum();
        let replicas: u64 = self
            .shards
            .iter()
            .map(|s| s.eng.model.shard.as_ref().map_or(0, |sc| sc.replica_events))
            .sum();
        raw - replicas
    }

    /// Maximum per-shard event-queue high-water mark.
    pub fn peak_queue_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.peak_queue_len())
            .max()
            .unwrap_or(0)
    }

    /// Summed clamped-schedule count (see [`Sim::clamped_schedules`]).
    pub fn clamped_schedules(&self) -> u64 {
        self.shards.iter().map(|s| s.clamped_schedules()).sum()
    }

    /// Run statistics for report scalars.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shards: self.map.n_shards,
            epochs: self.epochs,
            cross_shard_frames: self.workers.iter().map(|w| w.cross_frames).sum(),
            lookahead_ns: self.map.lookahead.as_ps() / 1_000,
            causality_violations: self.workers.iter().map(|w| w.violations).sum(),
            fallback: self.map.fallback.map(|f| f.code()),
        }
    }

    /// Summed packet-pool statistics `(fresh allocations, recycled)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .map(|s| (s.fabric().pool.fresh_allocs(), s.fabric().pool.recycled()))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    }

    /// Per-level timing-wheel cascade counts summed over shards (`None`
    /// when the heap scheduler is in use).
    pub fn wheel_cascades(&self) -> Option<Vec<u64>> {
        let mut out: Option<Vec<u64>> = None;
        for s in &self.shards {
            let c = s.wheel_cascades()?;
            let acc = out.get_or_insert_with(|| vec![0; c.len()]);
            if acc.len() < c.len() {
                acc.resize(c.len(), 0);
            }
            for (i, n) in c.iter().enumerate() {
                acc[i] += n;
            }
        }
        out
    }

    /// Fold every shard's engine and telemetry profiler, and on a sharded
    /// run every worker's epoch-phase profiler, into `prof`.
    pub fn absorb_profilers(&self, prof: &mut Profiler) {
        for s in &self.shards {
            prof.absorb(s.profiler());
            prof.absorb(&s.telemetry().profiler);
        }
        if self.map.is_sharded() {
            for w in &self.workers {
                prof.absorb(&w.prof);
            }
        }
    }

    /// A host's transport state (from its owning shard, where it ran).
    pub fn host(&self, h: HostId) -> &DcHost {
        let owner = self.map.owner_host(h) as usize;
        &self.shards[owner].eng.model.hosts[h.ix()]
    }

    /// PFC pause frames sent by one switch port (owner shard's view).
    pub fn pause_frames_at(&self, sw: SwitchId, port: u8) -> u64 {
        let owner = self.map.owner_switch(sw) as usize;
        self.shards[owner].fabric().pause_frames_at(sw, port)
    }

    /// The fabric configuration (identical in every shard).
    pub fn cfg(&self) -> &fncc_net::config::FabricConfig {
        &self.shards[0].fabric().cfg
    }

    /// The topology (identical in every shard).
    pub fn topo(&self) -> &Topology {
        &self.shards[0].topo
    }

    /// Advance every shard to `horizon` in barrier epochs of one
    /// lookahead each.
    pub fn run_until(&mut self, horizon: SimTime) {
        if !self.map.is_sharded() {
            self.shards[0].run_until(horizon);
            return;
        }
        self.run_epochs(horizon);
    }

    /// Mirror of [`Sim::run_to_completion`]: run in `chunk` steps until
    /// every distinct flow that has started finished, or `cap` is
    /// reached. The stop test aggregates per-shard counts, discounting
    /// the receiver-side records pre-registered for cross-shard flows, so
    /// it fires at exactly the chunk boundary the single-engine run stops
    /// at.
    pub fn run_to_completion(&mut self, chunk: TimeDelta, cap: SimTime) -> bool {
        if !self.map.is_sharded() {
            return self.shards[0].run_to_completion(chunk, cap);
        }
        let mut t = self.now();
        loop {
            let started: usize = self
                .shards
                .iter()
                .map(|s| s.telemetry().flow_count())
                .sum::<usize>()
                - self.cross_dst_records;
            let finished: usize = self
                .shards
                .iter()
                .map(|s| s.telemetry().flows_finished_count())
                .sum();
            if started > 0 && finished == started {
                return true;
            }
            if t >= cap {
                return finished == started;
            }
            t = (t + chunk).min(cap);
            self.run_epochs(t);
        }
    }

    /// The conservative epoch loop: between the current time and
    /// `horizon`, run all shards in lock-step windows of one lookahead.
    /// Each epoch a worker (1) injects its shards' pending mailbox
    /// frames, (2) waits at the barrier, (3) runs to one picosecond
    /// *before* the epoch end (a frame can arrive exactly at the boundary,
    /// so the boundary instant belongs to the next epoch), (4) flushes
    /// outboxes into the receivers' mailboxes, and (5) waits at the
    /// barrier again. A final inclusive pass processes the boundary
    /// instant `horizon` itself, mirroring the single engine's
    /// `run_until(horizon)` semantics.
    ///
    /// Shards are placed on workers once per call, from the wall-clock
    /// time each took to run in the previous call. Event counts are a
    /// poor proxy: every shard also pays for its replica ticks each epoch,
    /// so a lightly loaded shard costs more per event than a busy one.
    /// Placement cannot change results, so a timing-dependent choice is
    /// safe. It stays fixed within the call: each shard is a full-fabric
    /// replica, and moving it to another core every epoch would cost more
    /// in cache misses than it saves.
    fn run_epochs(&mut self, horizon: SimTime) {
        let t0 = self.now();
        let la = self.map.lookahead;
        debug_assert!(!la.is_zero(), "sharded run without positive lookahead");
        if !self.pinned {
            let mut cost = vec![0; self.shards.len()];
            for w in &mut self.workers {
                for (c, ns) in cost.iter_mut().zip(&mut w.shard_ns) {
                    *c += std::mem::take(ns);
                }
            }
            self.assign = greedy_placement(&cost, self.threads);
        }

        // Hand each worker its shards (disjoint &mut borrows). Every group
        // is sized for all shards, so the allocation count does not depend
        // on placement.
        let n = self.shards.len();
        let mut groups: Vec<Vec<(usize, &mut Sim)>> =
            (0..self.threads).map(|_| Vec::with_capacity(n)).collect();
        for (ix, sim) in self.shards.iter_mut().enumerate() {
            groups[self.assign[ix]].push((ix, sim));
        }
        let (inboxes, barrier) = (&self.inboxes, &self.barrier);
        std::thread::scope(|scope| {
            let mut jobs = groups.iter_mut().zip(self.workers.iter_mut());
            // The calling thread is worker 0; the rest are spawned.
            let (group0, worker0) = jobs.next().expect("at least one worker");
            for (group, worker) in jobs {
                scope.spawn(move || worker.run(group, t0, horizon, la, inboxes, barrier));
            }
            worker0.run(group0, t0, horizon, la, inboxes, barrier);
        });

        // Epoch count: the while-loop syncs plus the final inclusive pass.
        let span = horizon.since(t0).as_ps();
        let la_ps = la.as_ps();
        self.epochs += span.div_ceil(la_ps) + 1;
    }

    /// Merge per-shard telemetry into one network-wide view (call once,
    /// after the run). Counters sum, histograms absorb exactly, watch
    /// lists concatenate in shard order, flow records merge per id with
    /// the receiver's finished record winning, and per-shard trace sinks
    /// interleave deterministically by `(timestamp, shard)`.
    pub fn harvest(&mut self) -> &Telemetry {
        if self.merged.is_none() {
            let sinks: Vec<&TraceSink> = self.shards.iter().map(|s| &s.telemetry().trace).collect();
            let trace = TraceSink::merged(&sinks);
            let mut iter = self
                .shards
                .iter_mut()
                .map(|s| std::mem::take(&mut s.eng.model.telemetry));
            let mut merged = iter.next().expect("at least one shard");
            for t in iter {
                merged.merge_shard(t);
            }
            merged.trace = trace;
            self.merged = Some(merged);
        }
        self.merged.as_ref().unwrap()
    }

    /// The merged telemetry (panics before [`ShardedSim::harvest`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.merged
            .as_ref()
            .expect("ShardedSim::harvest must run before telemetry()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;
    use fncc_cc::CcKind;
    use fncc_net::ids::FlowId;
    use fncc_net::units::Bandwidth;
    use fncc_transport::FlowSpec;

    fn ft4() -> Topology {
        Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500))
    }

    /// Cross-pod incast (pods 1..4 → host 0) plus one intra-pod flow.
    fn flows() -> Vec<FlowSpec> {
        let mut out = Vec::new();
        for (i, src) in [4u32, 8, 12, 1].into_iter().enumerate() {
            out.push(FlowSpec {
                id: FlowId(i as u32),
                src: HostId(src),
                dst: HostId(0),
                size: 60_000,
                start: SimTime::from_us(i as u64),
            });
        }
        out
    }

    fn build(shard: Option<(Arc<PartitionMap>, u16)>) -> Sim {
        let mut b = SimBuilder::new(ft4(), CcKind::Fncc).flows(flows());
        if let Some((m, s)) = shard {
            b = b.shard(m, s);
        }
        b.build()
    }

    #[test]
    fn sharded_run_matches_single_engine() {
        let mut legacy = build(None);
        let done = legacy.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50));
        assert!(done);

        for threads in [1usize, 2, 4] {
            let mut sharded = ShardedSim::new(&ft4(), threads, |m, s| build(Some((m, s))));
            assert_eq!(sharded.partition().n_shards, 4);
            let done = sharded.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50));
            assert!(done, "threads={threads}");
            assert_eq!(
                sharded.events_processed(),
                legacy.events_processed(),
                "event totals diverged at threads={threads}"
            );
            let stats = sharded.stats();
            assert_eq!(stats.causality_violations, 0);
            assert!(stats.cross_shard_frames > 0);
            sharded.harvest();
            let (lt, st) = (legacy.telemetry(), sharded.telemetry());
            assert_eq!(lt.counters.data_delivered, st.counters.data_delivered);
            assert_eq!(lt.counters.acks_delivered, st.counters.acks_delivered);
            assert_eq!(lt.counters.ecn_marks, st.counters.ecn_marks);
            for f in flows() {
                let a = lt.flow_record(f.id).unwrap();
                let b = st.flow_record(f.id).unwrap();
                assert_eq!(a.start, b.start, "flow {:?} start", f.id);
                assert_eq!(a.finish, b.finish, "flow {:?} finish", f.id);
            }
        }
    }

    /// Everything a run observes, for byte comparison across engines.
    fn fingerprint(events: u64, t: &Telemetry) -> String {
        let records: Vec<_> = t.flow_records().collect();
        let scalars = t.metrics.scalar_pairs();
        format!("{events}|{:?}|{records:?}|{scalars:?}", t.counters)
    }

    /// A run that moves every shard to another worker at every 1 ms chunk
    /// must observe exactly what the single engine does: placement is
    /// transport, not schedule.
    #[test]
    fn placement_switched_every_chunk_matches_single_engine() {
        // A 10 Gb/s incast from every other pod (plus one intra-pod
        // sender) into host 0 drains over several 1 ms chunks.
        let topo = Topology::fat_tree(4, Bandwidth::gbps(10), TimeDelta::from_ns(1500));
        let flows: Vec<FlowSpec> = (1..16u32)
            .map(|src| FlowSpec {
                id: FlowId(src - 1),
                src: HostId(src),
                dst: HostId(0),
                size: 250_000,
                start: SimTime::from_us(u64::from(src)),
            })
            .collect();
        let build = |shard: Option<(Arc<PartitionMap>, u16)>| {
            let mut b = SimBuilder::new(topo.clone(), CcKind::Fncc).flows(flows.clone());
            if let Some((m, s)) = shard {
                b = b.shard(m, s);
            }
            b.build()
        };
        let chunk = TimeDelta::from_ms(1);
        let mut legacy = build(None);
        assert!(legacy.run_to_completion(chunk, SimTime::from_ms(50)));
        let want = fingerprint(legacy.events_processed(), legacy.telemetry());

        for threads in [2usize, 3] {
            let mut sim = ShardedSim::new(&topo, threads, |m, s| build(Some((m, s))));
            let n = sim.shards.len();
            // Calling `run_to_completion` with a cap one chunk ahead runs
            // exactly one chunk of the uncapped loop per call.
            let mut chunks = 0u64;
            loop {
                match chunks % 3 {
                    0 => sim.set_worker_assignment((0..n).map(|s| (n - 1 - s) % threads).collect()),
                    1 => sim.pinned = false,
                    _ => sim.set_worker_assignment((0..n).map(|s| s % threads).collect()),
                }
                chunks += 1;
                if sim.run_to_completion(chunk, SimTime::from_ms(chunks)) {
                    break;
                }
                assert!(chunks < 50, "threads={threads}: no completion");
            }
            assert!(
                chunks >= 4,
                "only {chunks} chunks: every placement must run"
            );
            assert_eq!(sim.stats().causality_violations, 0);
            let events = sim.events_processed();
            let got = fingerprint(events, sim.harvest());
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn greedy_placement_balances_and_defaults_to_round_robin() {
        // No history: round-robin.
        assert_eq!(greedy_placement(&[0; 4], 2), vec![0, 1, 0, 1]);
        assert_eq!(greedy_placement(&[0; 5], 3), vec![0, 1, 2, 0, 1]);
        assert_eq!(greedy_placement(&[7; 4], 3), vec![0, 1, 2, 0]);
        // One hot shard gets a worker to itself.
        assert_eq!(greedy_placement(&[1, 1, 1, 9], 2), vec![0, 0, 0, 1]);
        let costs = [10, 40, 5, 5, 20, 30, 5, 60];
        let assign = greedy_placement(&costs, 2);
        let mut load = [0u64; 2];
        for (s, &w) in assign.iter().enumerate() {
            load[w] += costs[s];
        }
        assert_eq!(load.iter().max(), Some(&90), "{assign:?}");
    }

    /// No party may leave round `r` before every party has arrived at it,
    /// whether waiters spin or (more threads than cores) block.
    #[test]
    fn epoch_barrier_holds_every_round() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        for n in [2, cores.max(2), 2 * cores] {
            let barrier = EpochBarrier::new(n);
            let arrivals = AtomicUsize::new(0);
            let rounds = 10_000;
            std::thread::scope(|scope| {
                for _ in 0..n {
                    scope.spawn(|| {
                        for r in 0..rounds {
                            arrivals.fetch_add(1, Ordering::SeqCst);
                            barrier.wait();
                            let seen = arrivals.load(Ordering::SeqCst);
                            assert!(seen >= (r + 1) * n, "n={n} round {r}: left after {seen}");
                            // The round after next cannot start until we
                            // arrive again, so the count is bounded too.
                            assert!(seen <= (r + 2) * n, "n={n} round {r}: saw {seen}");
                        }
                    });
                }
            });
            assert_eq!(arrivals.into_inner(), rounds * n);
        }
    }

    #[test]
    fn non_fat_tree_falls_back_to_single_shard() {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let mk = |m: Arc<PartitionMap>, s: u16| {
            SimBuilder::new(topo.clone(), CcKind::Fncc)
                .flows(vec![FlowSpec {
                    id: FlowId(0),
                    src: HostId(0),
                    dst: HostId(2),
                    size: 100_000,
                    start: SimTime::ZERO,
                }])
                .shard(m, s)
                .build()
        };
        let mut sharded = ShardedSim::new(&topo, 4, mk);
        assert_eq!(sharded.partition().n_shards, 1);
        let done = sharded.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(20));
        assert!(done);
        let stats = sharded.stats();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.fallback, Some(1));
        assert_eq!(stats.epochs, 0);
        assert_eq!(stats.cross_shard_frames, 0);
    }
}
