//! The result digest and the table of recorded digests.
//!
//! The digest covers the simulated results only: `events`, `unfinished`,
//! the slowdown rows, the `fct_us_*` scalars and `mean_slowdown`. It
//! deliberately skips every other report scalar, so a change that adds a
//! scalar to `RunReport` does not trip the check, while any change to what
//! was simulated does.

use fncc_core::RunReport;

/// FNV-1a, 64 bit: small, stable across platforms and Rust versions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical text the digest hashes; floats enter as their bit
/// patterns, so the digest is exact.
fn canonical(report: &RunReport) -> String {
    let mut s = format!(
        "events={};unfinished={:?};",
        report.events, report.unfinished
    );
    for r in &report.slowdowns {
        s += &format!(
            "row={},{},{:x},{:x},{:x},{:x};",
            r.bucket_upper,
            r.count,
            r.avg.to_bits(),
            r.p50.to_bits(),
            r.p95.to_bits(),
            r.p99.to_bits()
        );
    }
    let mut picked: Vec<&(String, f64)> = report
        .scalars
        .iter()
        .filter(|(name, _)| name.starts_with("fct_us_") || name == "mean_slowdown")
        .collect();
    picked.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, v) in picked {
        s += &format!("{name}={:x};", v.to_bits());
    }
    s
}

/// Hex digest of a report's simulated results.
pub fn digest(report: &RunReport) -> String {
    format!("{:016x}", fnv1a(canonical(report).as_bytes()))
}

/// Recorded digests, one `workload seed digest` line each, produced by
/// `perfbench record`.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest for `(workload, seed)`, if the table has one.
pub fn recorded(workload: &str, seed: u64) -> Option<&'static str> {
    RECORDED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, d) = (it.next()?, it.next()?, it.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed).then_some(d)
    })
}

/// Outcome of checking a digest against the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// The digest equals the recorded value.
    Match,
    /// The digest differs from the recorded value.
    Mismatch,
    /// The table has no value for this `(workload, seed)`.
    Unrecorded,
}

impl Check {
    /// Name printed in results.
    pub fn name(self) -> &'static str {
        match self {
            Check::Match => "match",
            Check::Mismatch => "mismatch",
            Check::Unrecorded => "unrecorded",
        }
    }
}

/// Compare `digest` with the recorded value for `(workload, seed)`.
pub fn check(workload: &str, seed: u64, digest: &str) -> Check {
    match recorded(workload, seed) {
        Some(d) if d == digest => Check::Match,
        Some(_) => Check::Mismatch,
        None => Check::Unrecorded,
    }
}
