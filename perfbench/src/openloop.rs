//! Open-loop schedule and lateness maths, and the latency-limit verdict
//! of one offered-rate step.
//!
//! Requests are due on a fixed schedule (`index / rate` after the step
//! starts) whatever the daemon does, and every latency is timed from the
//! request's due time, so a stall is charged to every request it delays.

use std::time::Duration;

use crate::stats;

/// The latency limit: p99 of one step must not exceed it.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(10);

/// The percentile the limit applies to.
pub const LIMIT_PERCENTILE: f64 = 99.0;

/// Fewest requests a step offers, so its p99 has ten samples beyond it.
pub const MIN_STEP_REQUESTS: usize = 1000;

/// The lowest rung of the rate ladder, requests per second.
pub const LADDER_BASE: f64 = 1000.0;

/// Ratio between consecutive rungs of the rate ladder.
pub const LADDER_FACTOR: f64 = 1.25;

/// Ratio between the fine steps tried above the highest passing rung.
pub const FINE_FACTOR: f64 = 1.06;

/// When request `index` of a step offered at `rate` per second is due,
/// relative to the step's start.
pub fn due(index: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(index as f64 / rate)
}

/// How late a request went out: zero when sent on time or early.
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Requests in a step offered at `rate` for `seconds`, at least
/// [`MIN_STEP_REQUESTS`].
pub fn step_requests(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(MIN_STEP_REQUESTS)
}

/// Rung `k` of the fixed geometric rate ladder.
pub fn rung(k: u32) -> f64 {
    LADDER_BASE * LADDER_FACTOR.powi(k as i32)
}

/// Requests allowed in flight when a step's last request goes out before
/// the backlog counts as growing: twice what the limit admits at `rate`
/// (Little's law), and never fewer than 16.
pub fn allowed_backlog(rate: f64) -> usize {
    ((2.0 * rate * LATENCY_LIMIT.as_secs_f64()).ceil() as usize).max(16)
}

/// What one step measured.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latencies from due time to response, nanoseconds, one per answered
    /// request.
    pub latencies_ns: Vec<u64>,
    /// Send lateness, nanoseconds, one per sent request.
    pub lateness_ns: Vec<u64>,
    /// Requests in flight when the last request was sent.
    pub backlog_end: usize,
    /// Most requests in flight at any send.
    pub backlog_max: usize,
    /// Requests refused, unanswered, or answered with an error.
    pub failures: usize,
}

fn p99_ns(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = stats::sorted(&values.iter().map(|&v| v as f64).collect::<Vec<_>>());
    stats::percentile(&sorted, LIMIT_PERCENTILE)
}

impl StepStats {
    /// p99 latency in nanoseconds.
    pub fn latency_p99_ns(&self) -> f64 {
        p99_ns(&self.latencies_ns)
    }

    /// The worst send lateness in nanoseconds.
    pub fn lag_max_ns(&self) -> u64 {
        self.lateness_ns.iter().copied().max().unwrap_or(0)
    }

    /// Whether the step meets the latency limit: no failed request, p99
    /// within the limit, the generator on schedule (p99 send lateness
    /// within the limit), and no growing backlog. `Err` says why not.
    pub fn verdict(&self) -> Result<(), String> {
        let limit = LATENCY_LIMIT.as_nanos() as f64;
        if self.failures > 0 {
            return Err(format!("{} requests failed", self.failures));
        }
        if self.latencies_ns.len() < MIN_STEP_REQUESTS {
            return Err(format!("only {} answered requests", self.latencies_ns.len()));
        }
        let p99 = self.latency_p99_ns();
        if p99 > limit {
            return Err(format!("p99 {:.0} us over the limit", p99 / 1e3));
        }
        let lag = p99_ns(&self.lateness_ns);
        if lag > limit {
            return Err(format!("generator lagged: p99 send lateness {:.0} us", lag / 1e3));
        }
        if self.backlog_end > allowed_backlog(self.rate) {
            return Err(format!("backlog grew to {} in flight", self.backlog_end));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_evenly() {
        assert_eq!(due(0, 1000.0), Duration::ZERO);
        assert_eq!(due(1, 1000.0), Duration::from_millis(1));
        assert_eq!(due(2500, 1000.0), Duration::from_millis(2500));
        assert_eq!(due(3, 4000.0), Duration::from_micros(750));
        assert_eq!(step_requests(10_000.0, 0.3), 3000);
        assert_eq!(step_requests(1000.0, 0.3), MIN_STEP_REQUESTS, "floor keeps p99 meaningful");
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let d = Duration::from_micros(500);
        assert_eq!(lateness(d, Duration::from_micros(400)), Duration::ZERO);
        assert_eq!(lateness(d, Duration::from_micros(500)), Duration::ZERO);
        assert_eq!(lateness(d, Duration::from_micros(1700)), Duration::from_micros(1200));
    }

    #[test]
    fn ladder_is_geometric_and_fixed() {
        assert_eq!(rung(0), 1000.0);
        assert_eq!(rung(1), 1250.0);
        assert!((rung(4) - 2441.40625).abs() < 1e-9);
        assert!((rung(10) - 9313.225746154785).abs() < 1e-6);
    }

    fn step(latency_us: u64, lateness_us: u64, n: usize) -> StepStats {
        StepStats {
            rate: 10_000.0,
            latencies_ns: vec![latency_us * 1000; n],
            lateness_ns: vec![lateness_us * 1000; n],
            ..Default::default()
        }
    }

    #[test]
    fn verdict_applies_the_limit_to_p99() {
        assert!(step(200, 10, 2000).verdict().is_ok());
        // 1% slow requests keep p99 on the fast side; 2% do not.
        let mut ok = step(200, 10, 1000);
        ok.latencies_ns[..10].fill(90_000_000);
        assert!(ok.verdict().is_ok());
        let mut slow = step(200, 10, 1000);
        slow.latencies_ns[..20].fill(90_000_000);
        assert!(slow.verdict().unwrap_err().contains("p99"));
    }

    #[test]
    fn lag_backlog_failures_and_small_samples_fail_the_step() {
        assert!(step(200, 10_500, 2000).verdict().unwrap_err().contains("lagged"));
        let mut backlog = step(200, 10, 2000);
        backlog.backlog_end = allowed_backlog(10_000.0) + 1;
        assert!(backlog.verdict().unwrap_err().contains("backlog"));
        let mut failed = step(200, 10, 2000);
        failed.failures = 1;
        assert!(failed.verdict().unwrap_err().contains("failed"));
        assert!(step(200, 10, 999).verdict().is_err());
        assert_eq!(allowed_backlog(10_000.0), 200);
        assert_eq!(allowed_backlog(1000.0), 20);
        assert_eq!(allowed_backlog(100.0), 16);
    }
}
