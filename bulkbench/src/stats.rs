//! Small statistics helpers and the end-to-end metric block shared by
//! every workload.

use crate::Outcome;

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median by nearest rank.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kib| kib.parse::<f64>().ok()))
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Everything the seven end-to-end metrics are computed from.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds of each set-up repetition (reported as their median).
    pub setup_s: Vec<f64>,
    /// Latency of every successful operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted during the measured phase.
    pub attempted: u64,
    /// Operations that failed (error, refusal or wrong output).
    pub failed: u64,
    /// Successful operations that finished within the latency limit.
    pub within_slo: u64,
    /// Verified instances completed during the measured phase.
    pub instances: u64,
    /// Wall time of the measured phase, in seconds.
    pub measured_s: f64,
}

impl EndToEnd {
    /// Record one operation's result.
    pub fn record(&mut self, ok: bool, latency_ms: f64, instances: u64, slo_ms: f64) {
        self.attempted += 1;
        if ok {
            self.latencies_ms.push(latency_ms);
            self.instances += instances;
            if latency_ms <= slo_ms {
                self.within_slo += 1;
            }
        } else {
            self.failed += 1;
        }
    }

    /// Fold another loop's records into this one (measured time is the
    /// caller's to set).
    pub fn merge(&mut self, other: EndToEnd) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_slo += other.within_slo;
        self.instances += other.instances;
    }

    /// Throughput in verified instances per second.
    pub fn throughput(&self) -> f64 {
        self.instances as f64 / self.measured_s
    }

    /// The seven end-to-end metrics, in `BENCHMARK.json` order.
    pub fn into_outcome(self, setup_failed: u64) -> Outcome {
        let attempted = self.attempted.max(1);
        let mut o = Outcome {
            attempted: self.attempted,
            failed: self.failed + setup_failed,
            metrics: Vec::new(),
        };
        o.push("setup_s", median(&self.setup_s), "s");
        o.push("throughput_inst_per_s", self.throughput(), "inst/s");
        o.push("latency_p50_ms", quantile(&self.latencies_ms, 0.5), "ms");
        o.push("latency_p90_ms", quantile(&self.latencies_ms, 0.9), "ms");
        o.push("success_rate", (self.attempted - self.failed) as f64 / attempted as f64, "ratio");
        o.push("slo_attainment", self.within_slo as f64 / attempted as f64, "ratio");
        o.push("peak_rss_mb", peak_rss_mib(), "MiB");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn failures_count_against_success_and_slo() {
        let mut e = EndToEnd { measured_s: 2.0, setup_s: vec![0.1], ..EndToEnd::default() };
        e.record(true, 1.0, 4, 5.0);
        e.record(true, 9.0, 4, 5.0);
        e.record(false, 0.0, 4, 5.0);
        e.record(true, 2.0, 4, 5.0);
        let o = e.into_outcome(0);
        let get = |n: &str| o.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(o.attempted, 4);
        assert_eq!(o.failed, 1);
        assert_eq!(get("success_rate"), 0.75);
        assert_eq!(get("slo_attainment"), 0.5);
        assert_eq!(get("throughput_inst_per_s"), 6.0);
    }
}
