//! Result assembly: named metrics with units, order statistics, and the
//! one-line JSON result the benchmark prints last.

use std::fmt::Write as _;

/// Oracle findings kept per run; one is enough to fail it.
pub const MAX_PROBLEMS: usize = 8;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit label (`s`, `ms`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Human note printed beside the value (sample counts, bases).
    pub note: String,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric { name, value, unit, note: note.into() });
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (pushed frames, or training rounds).
    pub attempted: u64,
    /// Operations that failed: refused, errored, lost, or wrong.
    pub failed: u64,
    /// Oracle findings, one line each; empty when every check passed.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Figures printed beside the metrics but left out of the result line.
    pub info: Metrics,
}

impl Outcome {
    /// Whether every oracle check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Records an oracle finding (the first [`MAX_PROBLEMS`] are kept).
    pub fn problem(&mut self, line: impl Into<String>) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(line.into());
        }
    }

    /// Adds `fresh_p50_ms` and `fresh_p75_ms` over per-item freshness
    /// samples (in completion order), and prints `fresh_p90_ms` and the
    /// whole run's `fresh_p99_ms` beside them. Each windowed figure is the
    /// median, over consecutive `window`-sample windows, of each window's
    /// own quantile, so one stalled stretch on a shared host does not
    /// decide the run.
    pub fn freshness(&mut self, samples: &[f64], window: usize, what: &str) {
        let n = samples.len();
        let windowed = |name, q: f64, to: &mut Metrics| {
            to.push(
                name,
                windowed_quantile(samples, window, q),
                "ms",
                format!("{what}, median of per-{window}-sample p{:.0}s, {n} samples", q * 100.0),
            );
        };
        windowed("fresh_p50_ms", 0.5, &mut self.metrics);
        windowed("fresh_p75_ms", 0.75, &mut self.metrics);
        windowed("fresh_p90_ms", 0.9, &mut self.info);
        self.info.push(
            "fresh_p99_ms",
            quantile(samples, 0.99),
            "ms",
            format!("{what}, {n} samples"),
        );
    }

    /// Prints, beside a closed loop's figures, its frames per wall second
    /// (before scaling to the reference host speed) and the host's
    /// slowness factors (see [`crate::common::HostSpeed`]).
    pub fn host_speed(&mut self, raw_rates: &[f64], factors: &[f64], what: &str) {
        self.info.push("frames_per_wall_s", median(raw_rates), "1/s", spread_note(raw_rates, what));
        self.info.push(
            "host_slowness",
            median(factors),
            "x",
            spread_note(factors, "probe samples"),
        );
    }

    /// Adds another run's counts and findings to this one.
    pub fn absorb(&mut self, part: Outcome) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        for p in part.problems {
            self.problem(p);
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits; non-finite values become 0 (the
/// oracle reports the run incorrect in that case anyway).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `"median of N <what> (quartiles a–b)"`: the spread note printed
/// beside a median.
#[must_use]
pub fn spread_note(values: &[f64], what: &str) -> String {
    format!(
        "median of {} {what} (quartiles {:.4}–{:.4})",
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.75)
    )
}

/// The median, over consecutive windows of `window` samples, of each
/// window's `q`-quantile. A trailing partial window is dropped unless it
/// is the only one.
#[must_use]
pub fn windowed_quantile(samples: &[f64], window: usize, q: f64) -> f64 {
    let window = window.max(1);
    let per: Vec<f64> = samples
        .chunks(window)
        .filter(|w| w.len() == window || samples.len() < window)
        .map(|w| quantile(w, q))
        .collect();
    median(&per)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
