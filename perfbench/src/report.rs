//! Sample statistics, the end-to-end metrics every workload reports, and the
//! result line the benchmark prints last.

use slfe_metrics::json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `snake_case` end-to-end name or `layer.metric` per-layer name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run of the benchmark reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs, updates or batches).
    pub attempted: u64,
    /// Operations that failed: an error, a shed, an unconverged run or a
    /// failed output check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// `true` when every attempted operation passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The value of the metric named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Count one operation, failed when `ok` is false.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The single-line JSON object the benchmark prints last.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(&m.name),
                    json::float(m.value),
                    json::string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a sample set: the highest percentile of the ladder p90, p95,
/// p99, p99.9 that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of the samples at or below `value`.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// [`Tail`] of `samples`. The ladder keeps a tail from sitting on the edge
/// of a rare slow mode, which a percentile with exactly ten samples beyond
/// it does whenever about ten ops are slow. Below 100 samples it falls back
/// to the sample with ten beyond it, and to the maximum below 11.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    // Samples beyond p99.9, p99, p95 and p90: n/1000, n/100, n/20, n/10.
    let beyond = [1000, 100, 20, 10]
        .iter()
        .map(|d| n / d)
        .find(|&b| b >= 10)
        .unwrap_or(10);
    let idx = if n > beyond {
        n - beyond - 1
    } else {
        n.saturating_sub(1)
    };
    Tail {
        value: s.get(idx).copied().unwrap_or(0.0),
        percentile: if n > 0 {
            (idx + 1) as f64 / n as f64
        } else {
            1.0
        },
        samples: n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Names of the end-to-end metrics, in report order. Every workload reports
/// all of them; what an "op" is depends on the workload. The op tail is
/// printed with them but not reported as a metric: across runs it swung
/// with the machine by more than any bound a metric may have.
pub const END_TO_END: [&str; 4] = ["setup_s", "op_p50_ms", "throughput_per_s", "peak_rss_mb"];

/// The end-to-end measurements of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Seconds of each repeated set-up of the system.
    pub setup_s: Vec<f64>,
    /// Milliseconds of each op (a cold job, or a batch until queries see it).
    pub op_ms: Vec<f64>,
    /// Op kinds, interleaved: op `i` is of kind `i % kinds`. The median is
    /// the geometric mean over kinds of each kind's median, so a mix of job
    /// kinds with different costs cannot put it on the edge between two
    /// kinds' modes; the tail is taken over all ops.
    pub kinds: usize,
    /// Items made done over the phase: jobs, or edge updates made visible.
    pub items: f64,
    /// Wall seconds of the phase, queries included, checks excluded.
    pub busy_s: f64,
    /// Peak resident memory from the last set-up through the phase, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn per_kind(&self) -> Vec<Vec<f64>> {
        let kinds = self.kinds.max(1);
        (0..kinds)
            .map(|k| self.op_ms.iter().skip(k).step_by(kinds).copied().collect())
            .collect()
    }

    /// Median op latency of each kind, ms.
    pub fn kind_medians(&self) -> Vec<f64> {
        self.per_kind().iter().map(|k| median(k)).collect()
    }

    fn geomean_median(&self) -> f64 {
        let medians = self.kind_medians();
        let logs: f64 = medians.iter().map(|m| m.max(1e-12).ln()).sum();
        (logs / medians.len() as f64).exp()
    }

    /// The end-to-end metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            (median(&self.setup_s), "s"),
            (self.geomean_median(), "ms"),
            (self.items / self.busy_s.max(1e-9), "1/s"),
            (self.peak_rss_mb, "MiB"),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(name, (value, unit))| Metric::new(*name, value, unit))
            .collect()
    }

    /// The op tail, and how it and the set-up median were taken.
    pub fn describe(&self, label: &str) -> String {
        let tail = tail(&self.op_ms);
        let kinds = if self.kinds > 1 {
            format!(
                "; op_p50_ms is the geometric mean of {} per-kind medians",
                self.kinds
            )
        } else {
            String::new()
        };
        format!(
            "{label}: op tail (p{:.1} of {} ops) {:.3} ms{kinds}; setup_s is the median of {} \
             set-ups",
            100.0 * tail.percentile,
            tail.samples,
            tail.value,
            self.setup_s.len()
        )
    }
}

/// Tracing overhead of each end-to-end metric: traced over untraced, minus 1.
pub fn overhead(untraced: &EndToEnd, traced: &EndToEnd) -> Vec<Metric> {
    untraced
        .metrics()
        .iter()
        .zip(traced.metrics())
        .map(|(u, t)| {
            Metric::new(
                format!("trace.{}_overhead", u.name),
                t.value / u.value.max(1e-12) - 1.0,
                "ratio",
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples).value, 990.0);
        assert_eq!(tail(&samples[..945]).value, 898.0);
        let t = tail(&samples[..100]);
        assert_eq!((t.value, t.percentile), (90.0, 0.9));
        assert_eq!(tail(&samples[..50]).value, 40.0);
        assert_eq!(tail(&samples[..5]).value, 5.0);
    }

    #[test]
    fn median_and_result_line() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut r = Report::default();
        r.tally(true);
        r.metrics.push(Metric::new("op_p50_ms", 1.5, "ms"));
        let parsed = json::parse(&r.result_line()).unwrap();
        assert_eq!(parsed.get("correct").and_then(|c| c.as_bool()), Some(true));
    }
}
