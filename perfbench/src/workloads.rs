//! The four benchmark workloads, each a `fncc_core::Scenario` built from a
//! seed. Every workload is a k=8 fat-tree (128 hosts) with 100G links,
//! 1.5 µs propagation, FNCC and a drain stop; they differ in which layers
//! of the simulator do the work (see `BENCHMARK.json` for the reasons).

use fncc_cc::CcKind;
use fncc_core::{
    ForegroundSpec, PartitionRule, Scenario, SimBackend, TopologySpec, TrafficSpec, Workload as Cdf,
};
use fncc_net::{FlowId, HostId};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Packet DES, single engine, web-search Poisson at 0.5 load.
    DesWebsearch,
    /// Packet DES, sharded runtime on 2 workers, incast waves into one host.
    DesIncastSharded,
    /// Fluid backend, web-search Poisson at 0.5 load, fleet scale.
    FluidWebsearch,
    /// Hybrid backend: flows to host 0 in the DES, the rest as fluid.
    HybridFleet,
}

/// Flow counts per workload, sized so one repetition takes one to three
/// seconds on a 2-core Xeon VM and a 36-second run holds a dozen or more.
pub const WEBSEARCH_FLOWS: u32 = 250;
/// Fleet-scale fluid flow count.
pub const FLUID_FLOWS: u32 = 30_000;
/// Hybrid fleet flow count (foreground plus background).
pub const HYBRID_FLOWS: u32 = 8_000;
/// Incast shape: senders per wave, bytes per sender, waves.
pub const INCAST: (u32, u64, u32) = (64, 500_000, 6);
/// Workers of the sharded runtime.
pub const SHARD_THREADS: u32 = 2;

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `des-websearch`:
    /// on a shared 2-core VM that memory-bound single engine's repetition
    /// times swing by ±25% with neighbour load, in phases of 30–60 s, so
    /// ten 28-second runs spread by 22–30% of their median.
    pub const ALL: [Workload; 4] = [
        Workload::DesWebsearch,
        Workload::DesIncastSharded,
        Workload::FluidWebsearch,
        Workload::HybridFleet,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesWebsearch => "des-websearch",
            Workload::DesIncastSharded => "des-incast-sharded",
            Workload::FluidWebsearch => "fluid-websearch",
            Workload::HybridFleet => "hybrid-fleet",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The backend the workload runs on.
    pub fn backend(self) -> SimBackend {
        match self {
            Workload::DesWebsearch | Workload::DesIncastSharded => SimBackend::Packet,
            Workload::FluidWebsearch => SimBackend::Fluid,
            Workload::HybridFleet => SimBackend::Hybrid,
        }
    }

    /// The scenario for `seed`. The seed drives the Poisson arrivals and
    /// sizes; for the incast it picks the receiver in the last pod and the
    /// wave gap, so seeds give distinct inputs with equal bytes.
    pub fn scenario(self, seed: u64) -> Scenario {
        self.scenario_with_flows(seed, None)
    }

    /// [`Workload::scenario`] with the flow count (Poisson) or wave count
    /// (incast) replaced: the reduced shapes the per-scheme ACK recordings
    /// and the tests run.
    pub fn scenario_with_flows(self, seed: u64, flows: Option<u32>) -> Scenario {
        let poisson = |load: f64, n: u32| TrafficSpec::Poisson {
            workload: Cdf::WebSearch,
            load,
            flows: flows.unwrap_or(n),
        };
        let traffic = match self {
            Workload::DesWebsearch => poisson(0.5, WEBSEARCH_FLOWS),
            Workload::FluidWebsearch => poisson(0.5, FLUID_FLOWS),
            Workload::HybridFleet => poisson(0.55, HYBRID_FLOWS),
            Workload::DesIncastSharded => {
                let (fan_in, size, waves) = INCAST;
                TrafficSpec::Incast {
                    // Hosts 112..128 form the last pod; the senders cycle
                    // from host 0 and stay in pods 0..6.
                    receiver: 112 + (seed % 16) as u32,
                    fan_in,
                    size,
                    waves: flows.unwrap_or(waves),
                    gap_us: 800 + (seed % 9) * 50,
                }
            }
        };
        let mut sc = Scenario::new(
            self.name(),
            TopologySpec::FatTree { k: 8 },
            traffic,
            CcKind::Fncc,
        );
        sc.seeds = vec![seed];
        if flows.is_none() && self != Workload::DesIncastSharded {
            sc.seeds = vec![self.sized_seed(&sc, seed)];
        }
        if self == Workload::DesIncastSharded {
            sc.threads = SHARD_THREADS;
        }
        if self == Workload::HybridFleet {
            sc.foreground = Some(ForegroundSpec {
                rules: vec![PartitionRule::ToHosts { hosts: vec![0] }],
            });
        }
        sc
    }

    /// The simulator seed of a Poisson workload: the first of the seeds
    /// `seed·2²⁰ + j` whose flows carry within 1.5% of `flows × mean size`
    /// bytes in total. For the hybrid, the foreground (flows to host 0) must
    /// also hold within 5% of its share of the flows, and its bytes times
    /// the links each crosses must be within 1.5% of its share of the bytes
    /// times the mean path length to host 0: its packet events follow that
    /// product. Web-search sizes are heavy-tailed, so without this one
    /// seed's input can hold twice the work of another's, and the
    /// run-to-run spread of a wall-clock metric would measure the draw
    /// rather than the program.
    fn sized_seed(self, sc: &Scenario, seed: u64) -> u64 {
        let TrafficSpec::Poisson { flows, .. } = sc.traffic else {
            unreachable!("only Poisson workloads are sized")
        };
        let mean = fncc_workloads::distributions::web_search().mean();
        let total_target = flows as f64 * mean;
        let n_hosts = sc.topology.n_hosts();
        let fg_target = total_target / n_hosts as f64;
        let near = |v: f64, target: f64, tol: f64| (v / target - 1.0).abs() <= tol;
        let (topo, _) = sc.instance(seed);
        let host0 = HostId(0);
        let links = |src: HostId| topo.trace_path(src, host0, FlowId(0)).len() as f64;
        let mean_links = (1..n_hosts).map(|h| links(HostId(h))).sum::<f64>() / (n_hosts - 1) as f64;
        (0..100_000u64)
            .map(|j| seed.wrapping_shl(20) | j)
            .find(|&s| {
                let (_, fl) = sc.instance(s);
                let total: u64 = fl.iter().map(|f| f.size).sum();
                if !near(total as f64, total_target, 0.015) {
                    return false;
                }
                if self != Workload::HybridFleet {
                    return true;
                }
                let fg: Vec<_> = fl.iter().filter(|f| f.dst == host0).collect();
                let work: f64 = fg.iter().map(|f| f.size as f64 * links(f.src)).sum();
                near(fg.len() as f64, flows as f64 / n_hosts as f64, 0.05)
                    && near(work, fg_target * mean_links, 0.015)
            })
            .expect("a sized seed within 100000 draws")
    }
}
