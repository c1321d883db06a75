//! Metric records, the result line, percentiles and failure counting.
//!
//! Everything here is pure so the rules the benchmark promises (metric
//! names, a unit on every metric, enough samples behind a percentile,
//! failures counted against attempts) are unit-tested.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A name starts with a letter or digit and holds at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The ordered metric set of one run. Rejects a bad name, a bad unit,
/// a repeated name, or a value that is not a finite number.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("metric name '{name}' breaks the naming rule"));
        }
        if !valid_unit(unit) {
            return Err(format!("metric '{name}' has bad unit '{unit}'"));
        }
        if self.metrics.iter().any(|m| m.name == name) {
            return Err(format!("metric '{name}' reported twice"));
        }
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not a finite number ({value})"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` is a failure with its reason.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    /// Adds a failure to an operation already counted.
    pub fn fail_counted(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed ÷ attempted (0 when nothing was attempted). A failure
    /// found for an already-failed operation is capped at one per
    /// attempt, so the fraction never exceeds 1.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed().min(self.attempted) as f64 / self.attempted as f64
        }
    }
}

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples that lie strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// The nearest-rank `p`-th percentile, but only when at least
/// [`MIN_BEYOND`] samples lie beyond it; otherwise `None`, so a tail
/// figure is never read off a handful of samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || beyond(n, p) < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(n, p) - 1])
}

/// `a ÷ b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object: `correct`, `attempted`, `failed` and
/// every metric with its unit. Values print with all their digits.
pub fn result_line(correct: bool, tally: &Tally, metrics: &MetricSet) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {:?}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_rule() {
        for ok in [
            "detailed_mips",
            "sim.tick_ns",
            "recon-sim.share",
            "9lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "ü",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_metric_needs_a_unit() {
        let mut m = MetricSet::default();
        assert!(m.push("latency", 1.0, "").is_err());
        assert!(m.push("latency", 1.0, "m s").is_err());
        assert!(m.push("latency", 1.0, "ms").is_ok());
        assert!(m.push("rate", 2.0, "1/s").is_ok());
        assert!(m.push("frac", 0.5, "%").is_ok());
        assert!(m.push("latency", 3.0, "ms").is_err(), "names are unique");
        assert!(m.push("nan", f64::NAN, "ms").is_err());
        assert!(m.iter().all(|x| valid_unit(x.unit)));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of n samples leaves n - ceil(0.95 n) beyond it: 10 needs n >= 200.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        // p50 needs only 20 samples.
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fail_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.record(Ok(()));
        t.record(Err("digest differs".into()));
        t.record(Ok(()));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed()), (4, 1));
        assert!((t.fail_frac() - 0.25).abs() < 1e-12);
        t.fail_counted("fingerprint differs".into());
        assert!((t.fail_frac() - 0.5).abs() < 1e-12);
        for _ in 0..10 {
            t.fail_counted("x".into());
        }
        assert_eq!(t.fail_frac(), 1.0, "never above one");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = MetricSet::default();
        m.push("setup_s", 0.812_345_678_9, "s").unwrap();
        let mut t = Tally::default();
        t.record(Ok(()));
        let line = result_line(true, &t, &m);
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8123456789, \"unit\": \"s\"}}}"
        );
        let parsed = recon_serve::json::parse(&line).expect("valid JSON");
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|x| x.get("setup_s"))
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64()),
            Some(0.812_345_678_9)
        );
    }
}
