//! Measurement helpers: a log-linear latency histogram, resident-memory
//! readings and a minimal JSON object writer for result lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Log-linear histogram of nanosecond durations: exact below 64 ns, then
/// 32 sub-buckets per power of two (≤ 3% relative error).
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

const SUB: u32 = 5; // 2^5 sub-buckets per octave

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; 64 << SUB],
            n: 0,
            sum: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < (1 << (SUB + 1)) {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // ≥ SUB + 1
        let sub = (v >> (exp - SUB)) & ((1 << SUB) - 1);
        (((exp - SUB) << SUB) as u64 + sub) as usize + (1 << SUB)
    }

    fn lower_bound(b: usize) -> u64 {
        if b < (1 << (SUB + 1)) {
            return b as u64;
        }
        let b = b - (1 << SUB);
        let exp = (b >> SUB) as u32 + SUB;
        let sub = (b & ((1 << SUB) - 1)) as u64;
        (1u64 << exp) | (sub << (exp - SUB))
    }

    /// Record one duration in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
        self.sum += ns as u128;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples, ns.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile (0..=1) as the midpoint of its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::lower_bound(b) as f64;
                let hi = Self::lower_bound(b + 1) as f64;
                return (lo + hi) / 2.0;
            }
        }
        unreachable!("rank ≤ n")
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the peak resident memory to the current one (Linux
/// `/proc/self/clear_refs`); false when the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A flat JSON object of numbers and strings, keys in sorted order.
#[derive(Default)]
pub struct JsonObj {
    fields: BTreeMap<String, String>,
}

impl JsonObj {
    /// Set a numeric field (non-finite values become `null`).
    pub fn num(&mut self, key: impl Into<String>, v: f64) -> &mut Self {
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.fields.insert(key.into(), text);
        self
    }

    /// Set a string field.
    pub fn str(&mut self, key: impl Into<String>, v: &str) -> &mut Self {
        let mut text = String::from("\"");
        for c in v.chars() {
            match c {
                '"' => text.push_str("\\\""),
                '\\' => text.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(text, "\\u{:04x}", c as u32);
                }
                c => text.push(c),
            }
        }
        text.push('"');
        self.fields.insert(key.into(), text);
        self
    }

    /// Set a nested object field.
    pub fn obj(&mut self, key: impl Into<String>, v: &JsonObj) -> &mut Self {
        self.fields.insert(key.into(), v.render());
        self
    }

    /// Serialise on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}
