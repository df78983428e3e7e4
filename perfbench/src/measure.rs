//! Timing statistics, process memory, and the result line.

use std::time::Instant;

use crate::api::Json;

/// Fewest ops a run needs before it reports a 90th percentile: below
/// this, fewer than ten samples lie beyond it.
pub const MIN_OPS_FOR_P90: usize = 100;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The 90th percentile, only when at least [`MIN_OPS_FOR_P90`] samples
/// support it.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < MIN_OPS_FOR_P90 {
        None
    } else {
        quantile(values, 0.9)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Typical geometric mean (ms) of the two reference loops' medians on the
/// 2-vCPU x86-64 bench host. Calibrated timings read as if the host ran at
/// this speed.
pub const REF_NOMINAL_MS: f64 = 8.5;

/// Host-speed reference: one million random read-modify-writes over a
/// fresh table of `1 << bits` words, in ms. It runs none of the program's
/// code, so calibrating by it cancels the host's speed phases (shared
/// caches, memory bandwidth, page-fault cost) but not program changes.
pub fn reference_ms(bits: u32) -> f64 {
    let mask = (1usize << bits) - 1;
    let mut table = vec![0u64; mask + 1];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let t0 = Instant::now();
    for _ in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Table sizes (log2 words) of the two reference loops: 1 MiB, which
/// fits a core's caches, and 16 MiB, which does not.
pub const REF_TABLE_BITS: [u32; 2] = [17, 21];

/// Host-speed reference samples of one run.
#[derive(Debug, Clone, Default)]
pub struct HostRef {
    cache_ms: Vec<f64>,
    memory_ms: Vec<f64>,
}

impl HostRef {
    /// Takes one sample of both loops in a child process (this binary with
    /// `--host-ref`), so the reference tables never count toward this
    /// process's peak memory. A failed sample is skipped. Unit tests take
    /// none: their executable is the test harness.
    pub fn sample(&mut self) {
        if cfg!(test) {
            return;
        }
        let Ok(exe) = std::env::current_exe() else { return };
        let Ok(out) = std::process::Command::new(exe).arg("--host-ref").output() else {
            return;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let ms: Vec<f64> = text.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        if out.status.success() && ms.len() == 2 {
            self.cache_ms.push(ms[0]);
            self.memory_ms.push(ms[1]);
        }
    }

    /// Adds another run segment's samples.
    pub fn merge(&mut self, other: &HostRef) {
        self.cache_ms.extend_from_slice(&other.cache_ms);
        self.memory_ms.extend_from_slice(&other.memory_ms);
    }

    /// Geometric mean of the two loops' medians, in ms.
    pub fn ref_ms(&self) -> Option<f64> {
        Some((median(&self.cache_ms)? * median(&self.memory_ms)?).sqrt())
    }

    /// How much slower than nominal the host ran (1 with no samples).
    pub fn slowdown(&self) -> f64 {
        self.ref_ms().map_or(1.0, |ms| ms / REF_NOMINAL_MS)
    }
}

/// What the timed loop observed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Host seconds of each completed op (failed ones included).
    pub op_secs: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that panicked or produced a wrong or failed result.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one op.
    pub fn record(&mut self, secs: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        self.op_secs.push(secs);
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Failed / attempted (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.op_secs.extend(other.op_secs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }
}

/// A metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result object printed as the last line of standard output.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut m = Json::obj();
    for metric in metrics {
        m.set(metric.name, Json::obj().with("value", metric.value).with("unit", metric.unit));
    }
    Json::obj()
        .with("correct", tally.failed == 0 && tally.attempted > 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", m)
        .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::parse_json;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
    }

    #[test]
    fn p90_needs_a_hundred_ops() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        let v = p90(&enough).expect("100 ops report a p90");
        assert!((v - 89.1).abs() < 1e-9, "{v}");
    }

    #[test]
    fn host_reference_calibrates_by_the_geometric_mean_of_medians() {
        assert!(REF_TABLE_BITS.iter().all(|&b| reference_ms(b) > 0.0));
        let mut r = HostRef::default();
        assert_eq!(r.slowdown(), 1.0, "no samples, no calibration");
        let other = HostRef { cache_ms: vec![2.0, 3.0, 100.0], memory_ms: vec![18.0, 12.0, 12.0] };
        r.merge(&other);
        assert_eq!(r.ref_ms(), Some(6.0));
        assert_eq!(r.slowdown(), 6.0 / REF_NOMINAL_MS);
    }

    #[test]
    fn failures_count_toward_the_error_rate() {
        let mut t = Tally::default();
        t.record(0.1, Ok(()));
        t.record(0.1, Err("golden mismatch".into()));
        t.record(0.1, Ok(()));
        t.record(0.1, Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert!((t.error_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_valid_json_with_the_required_keys() {
        let mut t = Tally::default();
        t.record(0.002, Ok(()));
        let line = result_line(
            &t,
            &[
                Metric { name: "ops_per_s", unit: "1/s", value: 512.25 },
                Metric { name: "setup_s", unit: "s", value: 0.0123456789 },
            ],
        );
        assert!(!line.contains('\n'));
        let doc = parse_json(&line).expect("the result line parses as JSON");
        let Json::Obj(pairs) = &doc else { panic!("not an object: {line}") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.0123456789));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
