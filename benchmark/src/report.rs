//! What one workload run reports: metrics, operation counts, and the
//! correctness and validity verdicts.
//!
//! Every metric prints as one `name value unit` line. The last line of
//! standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, holding exactly the metrics the caller
//! names (the end-to-end set untraced, the per-layer set traced).

use crate::stats::Samples;

/// Exit status of a run whose outputs failed a correctness check.
pub const EXIT_INCORRECT: i32 = 1;
/// Exit status of a run that measured nothing valid (the generator
/// fell behind its schedule); distinct from a correctness failure.
pub const EXIT_INVALID: i32 = 3;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Semantic digest of the decoded decisions over the golden prefix.
    pub digest: Option<u64>,
    problems: Vec<String>,
    invalid: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records `<name>_p50_us` and `<name>_p99_us` of `us` where enough
    /// samples lie beyond each, plus the sample count.
    pub fn put_latency(&mut self, name: &str, us: &[f64]) {
        let Ok(s) = Samples::new(us.to_vec()) else {
            return;
        };
        for (q, tag) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
            if let Some(v) = s.reportable(q) {
                self.put(format!("{name}_{tag}_us"), v, "us");
            }
        }
        self.put(format!("{name}_n"), s.len() as f64, "count");
    }

    /// A metric recorded earlier, by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Fails the correctness check with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Marks the run invalid.
    pub fn invalid(&mut self, why: String) {
        self.invalid.push(why);
    }

    /// Whether every correctness check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Prints every metric line, then the JSON result holding the
    /// metrics named in `selected`; returns the process exit status.
    /// A run that is invalid but otherwise correct prints no result and
    /// exits [`EXIT_INVALID`]; any failed check or operation exits
    /// [`EXIT_INCORRECT`], invalid or not.
    pub fn emit(mut self, selected: &[&str]) -> i32 {
        let error_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.put("attempted", self.attempted as f64, "count");
        self.put("failed", self.failed as f64, "count");
        self.put("error_frac", error_frac, "ratio");
        for m in &self.metrics {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        if let Some(d) = self.digest {
            println!("digest {d:016x} fnv64");
        }
        let mut json = Vec::new();
        for name in selected {
            match self.metrics.iter().rev().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => json.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )),
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        for p in &self.problems {
            eprintln!("correctness: {p}");
        }
        for why in &self.invalid {
            eprintln!("invalid run: {why}");
        }
        // A wrong output outranks a noisy measurement: only a run that
        // is otherwise correct exits as invalid.
        if self.correct() && !self.invalid.is_empty() {
            return EXIT_INVALID;
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        if self.correct() {
            0
        } else {
            EXIT_INCORRECT
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_follow_the_ten_beyond_rule() {
        let mut r = Report::default();
        r.put_latency("x", &(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(r.get("x_p50_us"), Some(500.0));
        assert_eq!(r.get("x_p99_us"), Some(990.0));
        assert_eq!(r.get("x_p999_us"), None, "only one sample beyond p99.9");
        assert_eq!(r.get("x_n"), Some(1000.0));
        r.put_latency("empty", &[]);
        assert_eq!(r.get("empty_n"), None);
    }

    #[test]
    fn verdicts() {
        let mut r = Report::default();
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "mismatch".into());
        assert!(!r.correct());
        assert_eq!(r.emit(&[]), EXIT_INCORRECT);
        let mut r = Report::default();
        r.invalid("late".into());
        assert_eq!(r.emit(&[]), EXIT_INVALID);
        let mut r = Report::default();
        r.invalid("late".into());
        r.check(false, || "mismatch".into());
        assert_eq!(r.emit(&[]), EXIT_INCORRECT, "incorrect outranks invalid");
        let mut r = Report::default();
        r.invalid("late".into());
        r.failed = 1;
        assert_eq!(r.emit(&[]), EXIT_INCORRECT);
    }
}
