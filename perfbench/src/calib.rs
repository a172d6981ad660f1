//! Host-speed calibration. The simulator is memory-bound, and on a shared
//! host its speed follows the load neighbours put on the shared L3 cache:
//! the same repetition can take 1.1 s in one minute and 1.6 s in the next.
//! A fixed kernel that does not depend on the simulator — dependent loads
//! around a random cycle over [`CHASE_BYTES`] — is timed right before and
//! right after each repetition; its nanoseconds per load read the host's
//! memory speed at that moment, and `run.py` scales the repetition's
//! timings to a reference load latency (`REF_LOAD_NS`, 100 ns) with it. A
//! workload on several worker threads is read with as many chases at once.

use std::hint::black_box;
use std::time::Instant;

/// Size of the chased cycle: larger than a core's L2, well inside a
/// server L3, so neighbours evicting L3 lines slow it as they slow the
/// simulator.
const CHASE_BYTES: usize = 8 << 20;
/// Dependent loads per reading (about 0.14 s on a 2-core Xeon VM).
const CHASE_LOADS: usize = 1_000_000;

/// A random single cycle over `CHASE_BYTES / 4` slots (Sattolo's shuffle),
/// the same on every call.
struct Chase {
    next: Vec<u32>,
}

impl Chase {
    fn new() -> Chase {
        let n = CHASE_BYTES / 4;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Chase { next }
    }

    /// Nanoseconds per load over [`CHASE_LOADS`] dependent loads.
    fn ns_per_load(&self) -> f64 {
        let t = Instant::now();
        let mut p = 0u32;
        for _ in 0..CHASE_LOADS {
            p = self.next[p as usize];
        }
        black_box(p);
        t.elapsed().as_secs_f64() * 1e9 / CHASE_LOADS as f64
    }
}

/// Mean nanoseconds per load of `threads` chases run at once, one per
/// thread: a workload that runs on several cores is slowed by the load on
/// each of them.
pub fn load_ns(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| Chase::new().ns_per_load()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chase thread"))
            .sum()
    });
    total / threads as f64
}
