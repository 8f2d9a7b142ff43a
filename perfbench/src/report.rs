//! The run's result: named metrics, output-check tallies, and the one
//! JSON line the benchmark ends with.

use std::fmt::Write as _;

/// Metrics, checks and notes of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, String, f64)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record a metric. Every value must be finite: the result line is
    /// JSON, which has no NaN or infinity.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, ..)| n != name),
            "metric {name} recorded twice"
        );
        self.metrics
            .push((name.to_string(), unit.to_string(), value));
    }

    /// Count one attempted operation; `Err` marks it failed and says why.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check failed: {why}");
        }
    }

    /// Did every attempted operation pass its output check?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print every metric by name with its unit, then the result line.
    /// `expected` is the metric set `BENCHMARK.json` declares for this
    /// mode; a passing run emitting any other set is a bug in the
    /// benchmark.
    pub fn print(&self, expected: &[(&str, &str)]) {
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, ..)| n.as_str()).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        // A run whose checks failed may have stopped before measuring
        // everything; it still reports what it has.
        if self.correct() {
            assert_eq!(names, want, "emitted metrics differ from the declared set");
        }
        for (name, unit, value) in &self.metrics {
            let declared = expected.iter().find(|(n, _)| n == name).map(|(_, u)| *u);
            assert_eq!(declared, Some(unit.as_str()), "unit of {name}");
            println!("metric {name:<40} {value:>16.6} {unit}");
        }
        println!(
            "checks: {} attempted, {} failed (failed_frac {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}
