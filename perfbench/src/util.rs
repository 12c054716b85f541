//! Statistics, fingerprints, host facts and the result line.

use std::fmt::Write as _;

use elastic_core::RunMetrics;

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// FNV-1a 64-bit over a byte stream.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a u64 in.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes an f64's bit pattern in.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    fn finish(self) -> u64 {
        self.0
    }
}

/// Per-job schedule fingerprint of a replay: every completed job's
/// name, priority and submit/start/complete instants (bit patterns), in
/// the order `RunMetrics` lists them.
pub fn schedule_fingerprint(m: &RunMetrics) -> String {
    let mut h = Fnv::default();
    for j in &m.jobs {
        h.bytes(j.name.as_bytes());
        h.u64(u64::from(j.priority));
        h.f64(j.submitted_at.as_secs());
        h.f64(j.started_at.as_secs());
        h.f64(j.completed_at.as_secs());
    }
    format!("{:016x}", h.finish())
}

/// Fingerprint of a float grid (bit patterns).
pub fn grid_fingerprint(grid: &[f64]) -> String {
    let mut h = Fnv::default();
    for v in grid {
        h.f64(*v);
    }
    format!("{:016x}", h.finish())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The host facts every result records.
pub fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}}}",
        nproc(),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(profile)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit kept (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// One workload run's outcome: operation counts, metrics (name, value,
/// unit), detail entries and failed checks. The run is correct when no
/// check failed.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(key, raw JSON value)` pairs for the detail line.
    pub detail: Vec<(String, String)>,
    /// Check failures, for the detail line.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a detail entry (`value` is raw JSON).
    pub fn detail(&mut self, key: &str, value: String) {
        self.detail.push((key.to_string(), value));
    }

    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a failed check; `ops` operations count as failed.
    pub fn fail(&mut self, ops: u64, problem: impl Into<String>) {
        self.failed += ops;
        self.problems.push(problem.into());
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail line printed before the result line.
    pub fn detail_line(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut fields = vec![
            format!("\"workload\": {}", json_str(workload)),
            format!("\"seed\": {seed}"),
            format!("\"trace\": {trace}"),
            format!("\"host\": {}", host_json()),
        ];
        for (k, v) in &self.detail {
            fields.push(format!("{}: {}", json_str(k), v));
        }
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        fields.push(format!("\"problems\": [{}]", problems.join(", ")));
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn numbers_keep_digits() {
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
