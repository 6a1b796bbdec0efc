//! The benchmark's result: metrics by name with units, operation
//! counts, and the outcome of every correctness check.

use snapbpf_json::Json;

/// One benchmark run's result.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Simulated arrivals across every run this process made.
    pub attempted: u64,
    /// Arrivals shed, failed, or belonging to a run that failed a
    /// correctness check.
    pub failed: u64,
    /// Descriptions of failed correctness checks.
    failures: Vec<String>,
}

impl Report {
    /// Records a metric; non-finite values are a bug in the caller.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.failures.push(what);
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints one line per metric, then the result object as the last
    /// line of standard output.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            let metric = Json::object([
                ("value".to_owned(), Json::from(*value)),
                ("unit".to_owned(), Json::from(*unit)),
            ]);
            (name.clone(), metric)
        });
        let result = Json::object([
            ("correct".to_owned(), Json::from(self.correct())),
            ("attempted".to_owned(), Json::from(self.attempted)),
            ("failed".to_owned(), Json::from(self.failed)),
            ("metrics".to_owned(), Json::object(metrics)),
        ]);
        println!("{}", result.compact());
    }
}
