//! The result line: metric-name validation and JSON rendering.

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`, starting with a letter or digit).
    pub name: String,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (at least one for a run that did anything).
    pub attempted: u64,
    /// Operations that failed, including wrong outputs.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// The measured metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Render the one-line JSON result, or explain why it would be
    /// malformed (bad name or unit, duplicate name, non-finite value).
    pub fn to_json(&self) -> Result<String, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "core.extract_s", "service.what_if_p99_us", "0-th", "a"] {
            assert!(valid_name(good), "{good:?}");
        }
        for bad in ["", ".hidden", "_x", "p99 us", "lat/ms", "naïve", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(good), "{good:?}");
        }
        for bad in ["", "m s", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome { attempted: 3, failed: 0, correct: true, metrics: Vec::new() };
        outcome.metric("setup_s", 0.8127, "s");
        outcome.metric("op_tail_ms", 1.25, "ms");
        assert_eq!(
            outcome.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.8127, \"unit\": \"s\"}, \"op_tail_ms\": {\"value\": 1.25, \"unit\": \
             \"ms\"}}}"
        );
    }

    #[test]
    fn malformed_results_are_refused() {
        let mut outcome = Outcome::default();
        outcome.metric("bad name", 1.0, "s");
        assert!(outcome.to_json().unwrap_err().contains("bad name"));
        let mut outcome = Outcome::default();
        outcome.metric("x", 1.0, "s");
        outcome.metric("x", 2.0, "s");
        assert!(outcome.to_json().unwrap_err().contains("twice"));
        let mut outcome = Outcome::default();
        outcome.metric("x", f64::NAN, "s");
        assert!(outcome.to_json().is_err());
    }
}
