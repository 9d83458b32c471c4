//! The linkclust repository benchmark.
//!
//! `run.py` (next to this crate) is the entry point: it builds this
//! package and `linkclustd`, generates each workload's inputs from a
//! seed, and drives the subcommands of the `perfbench` and
//! `perfbench-traced` binaries, which call into the modules below:
//!
//! * [`inputs`] — seeded input files (text edge list, LCGR graph file,
//!   prebuilt LNKCLSDX index) plus the Algorithm-2 oracle fingerprint.
//! * [`batch`] — one fresh-process batch run: load, cluster, best cut,
//!   index written, every output checked.
//! * [`trace`] — the traced run: each layer's public function called
//!   from outside under an in-memory span.
//! * [`serve`] — the open-loop query stream against a running
//!   `linkclustd`, with admissions, a rate ladder and answer checks.
//!
//! Every subcommand prints one JSON object on stdout; `run.py` reduces
//! them to the benchmark's result line.

use std::fmt::Write as _;

use linkclust_core::Dendrogram;

pub mod batch;
pub mod inputs;
pub mod serve;
pub mod trace;

/// A flat JSON object rendered incrementally (keys are trusted
/// identifiers; string values are escaped).
#[derive(Default)]
pub struct Obj {
    out: String,
}

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Obj { out: String::from("{") }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        linkclust_serve::json::write_escaped(&mut self.out, key);
        self.out.push(':');
    }

    /// Adds a number; non-finite values render as `null`.
    #[must_use]
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Adds an integer.
    #[must_use]
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Adds a boolean.
    #[must_use]
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an escaped string.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        linkclust_serve::json::write_escaped(&mut self.out, value);
        self
    }

    /// Adds an already-rendered JSON value.
    #[must_use]
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// Closes the object.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Renders a list of already-rendered JSON values as an array.
#[must_use]
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// Renders strings as a JSON array.
#[must_use]
pub fn string_array(items: &[String]) -> String {
    let rendered: Vec<String> = items
        .iter()
        .map(|e| {
            let mut s = String::new();
            linkclust_serve::json::write_escaped(&mut s, e);
            s
        })
        .collect();
    array(&rendered)
}

/// Renders numbers as a JSON array.
#[must_use]
pub fn num_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    array(&items)
}

/// The `q` quantile (nearest rank) of `values`; `NaN` when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (lower middle for even counts); `NaN` when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over the merge records and the bit patterns of the merge
/// scores: equal fingerprints mean bit-identical dendrograms.
#[must_use]
pub fn fingerprint(dendrogram: &Dendrogram, scores: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(dendrogram.edge_count() as u64);
    for r in dendrogram.merges() {
        eat(u64::from(r.level));
        eat(u64::from(r.left));
        eat(u64::from(r.right));
        eat(u64::from(r.into));
    }
    for s in scores {
        eat(s.to_bits());
    }
    format!("{h:016x}")
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
#[must_use]
#[allow(unsafe_code)]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec with the C layout of a
    // 64-bit Linux target, and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time (user + system) of process `pid` in seconds, from
/// `/proc/<pid>/stat` (clock-tick resolution, 100 Hz on Linux).
#[must_use]
pub fn other_process_cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else { return f64::NAN };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this process)
/// in MiB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| "/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes to MiB.
#[must_use]
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn objects_render_as_json() {
        let s = Obj::new().num("a", 1.5).int("b", 2).str("c", "x\"y").boolean("d", true).finish();
        assert_eq!(s, r#"{"a":1.5,"b":2,"c":"x\"y","d":true}"#);
    }

    #[test]
    fn process_clocks_advance() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > before, "{x}");
        assert!(peak_rss_mb(None) > 0.0);
    }
}
