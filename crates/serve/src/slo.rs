//! Per-tenant service-level scorekeeping.
//!
//! Each hosted tenant gets one [`SloTracker`] alongside its supervised
//! daemon. The tracker owns the service-level half of the tenant's
//! scorecard — reply latency and cap adherence — while decision
//! availability comes from the supervisor's `HealthReport` and
//! prediction accuracy from the daemon's `PredictionScorer`. The
//! [`SloTracker::summary`] joins the three into the
//! [`SloSummary`] that rides the `MetricsSnapshot` wire frame.
//!
//! Latency is wall-clock and therefore *not* deterministic; the
//! deterministic fields (cap adherence, accuracy, drift) are the ones
//! exported into `serve_health.jsonl`, which chaos runs compare
//! byte-for-byte.

use ppep_obs::metrics::Histogram;
use ppep_telemetry::snapshot::SloSummary;
use ppep_types::Watts;

/// Reply-latency and cap-adherence scorekeeping for one tenant.
#[derive(Debug, Clone)]
pub struct SloTracker {
    reply_latency: Histogram,
    replies: u64,
    capped: u64,
    cap_ok: u64,
}

impl SloTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self {
            reply_latency: Histogram::latency_us(),
            replies: 0,
            capped: 0,
            cap_ok: 0,
        }
    }

    /// Records one frame round-trip handled for this tenant, µs.
    pub fn observe_reply_us(&mut self, us: f64) {
        self.replies += 1;
        self.reply_latency.observe(us);
    }

    /// Records one measured interval against the cap in force. Uncapped
    /// intervals (zero cap — failsafed or evicted) are not counted.
    pub fn observe_cap(&mut self, measured: Watts, cap: Watts) {
        if cap.as_watts() <= 0.0 {
            return;
        }
        self.capped += 1;
        if measured.as_watts() <= cap.as_watts() * (1.0 + 1e-9) {
            self.cap_ok += 1;
        }
    }

    /// Frame replies handled.
    pub fn replies(&self) -> u64 {
        self.replies
    }

    /// Fraction of capped intervals whose measured power respected the
    /// cap (1.0 when nothing was capped yet).
    pub fn cap_adherence(&self) -> f64 {
        if self.capped == 0 {
            1.0
        } else {
            self.cap_ok as f64 / self.capped as f64
        }
    }

    /// Bucket-resolution p99 reply latency, µs (0 with no replies).
    pub fn p99_reply_us(&self) -> f64 {
        self.reply_latency.percentile(0.99)
    }

    /// Joins the tracker with the supervisor's availability into the
    /// wire-format summary.
    pub fn summary(&self, availability: f64) -> SloSummary {
        SloSummary {
            availability,
            cap_adherence: self.cap_adherence(),
            p99_reply_us: self.p99_reply_us(),
        }
    }
}

impl Default for SloTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_adherence_counts_only_capped_intervals() {
        let mut slo = SloTracker::new();
        assert!((slo.cap_adherence() - 1.0).abs() < 1e-12, "vacuously met");
        slo.observe_cap(Watts::new(50.0), Watts::ZERO); // failsafed: not counted
        slo.observe_cap(Watts::new(39.0), Watts::new(40.0)); // ok
        slo.observe_cap(Watts::new(40.0), Watts::new(40.0)); // at the cap: ok
        slo.observe_cap(Watts::new(44.0), Watts::new(40.0)); // violation
        assert!((slo.cap_adherence() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_joins_latency_adherence_and_availability() {
        let mut slo = SloTracker::new();
        for us in [100.0, 150.0, 900.0] {
            slo.observe_reply_us(us);
        }
        slo.observe_cap(Watts::new(30.0), Watts::new(40.0));
        let s = slo.summary(0.97);
        assert!((s.availability - 0.97).abs() < 1e-12);
        assert!((s.cap_adherence - 1.0).abs() < 1e-12);
        assert!(s.p99_reply_us >= 900.0, "p99 covers the worst reply");
        assert_eq!(slo.replies(), 3);
    }
}
