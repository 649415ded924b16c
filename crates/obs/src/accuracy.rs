//! Online prediction-accuracy scorekeeping and drift detection.
//!
//! PPEP's value proposition is numeric — ~2.7% mean CPI error and
//! ~4.6% power error — yet a deployed predictor that is never scored
//! against what the hardware actually did will drift silently as
//! workloads, thermals, or the silicon itself move away from the
//! training distribution. This module closes the
//! predict→actuate→measure loop:
//!
//! - [`PredictionScorer`] accumulates absolute-percentage-error (APE)
//!   statistics for per-core CPI and chip power: exact count/sum/max,
//!   windowed quantiles via the 1-2-5 [`Histogram`], and a
//!   [`DriftDetector`] per tracked quantity.
//! - [`DriftDetector`] maintains two EWMAs of the error series — a
//!   short window that follows the present and a long window that
//!   remembers the run — and trips when the short window exceeds the
//!   long baseline by a fixed ratio, i.e. when the predictor is
//!   suddenly much worse than it has historically been.
//!
//! Scoring is strictly observational: nothing here feeds back into
//! decisions, so a run with a scorer attached is bit-identical to one
//! without (the daemon proptests pin this). Scorers also merge
//! associatively and commutatively (count-weighted EWMA combination),
//! so fleet workers can score shards independently and fold the
//! results.

use crate::metrics::Histogram;
use crate::RecorderHandle;

/// Smoothing factor of the short (reactive) error EWMA.
const SHORT_ALPHA: f64 = 0.3;
/// Smoothing factor of the long (baseline) error EWMA.
const LONG_ALPHA: f64 = 0.02;
/// Trip when `short > TRIP_RATIO * max(long, ERROR_FLOOR_PCT)`.
const TRIP_RATIO: f64 = 3.0;
/// Observations before the trip-wire arms (warmup).
const MIN_SAMPLES: u64 = 8;
/// Baseline floor in percent, so a near-perfect history does not make
/// the ratio test hair-triggered.
const ERROR_FLOOR_PCT: f64 = 2.0;

/// EWMA-vs-long-run drift trip-wire over an error series (percent).
/// The default detector has no history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftDetector {
    short: f64,
    long: f64,
    samples: u64,
    tripped: bool,
    trips: u64,
}

impl DriftDetector {
    /// Feeds one error observation (percent). Non-finite values are
    /// ignored — they are counted upstream as invalid scores.
    pub fn observe(&mut self, error_pct: f64) {
        if !error_pct.is_finite() {
            return;
        }
        self.samples += 1;
        if self.samples == 1 {
            self.short = error_pct;
            self.long = error_pct;
        } else {
            self.short += SHORT_ALPHA * (error_pct - self.short);
            self.long += LONG_ALPHA * (error_pct - self.long);
        }
        let was = self.tripped;
        self.tripped = self.evaluate();
        if self.tripped && !was {
            self.trips += 1;
        }
    }

    fn evaluate(&self) -> bool {
        self.samples >= MIN_SAMPLES && self.short > TRIP_RATIO * self.long.max(ERROR_FLOOR_PCT)
    }

    /// The short (reactive) error EWMA, percent.
    pub fn short_pct(&self) -> f64 {
        self.short
    }

    /// The long (baseline) error EWMA, percent.
    pub fn baseline_pct(&self) -> f64 {
        self.long
    }

    /// Observations consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Whether the trip-wire is currently tripped.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// How many times the wire transitioned into the tripped state.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Folds another detector in. EWMAs combine count-weighted, which
    /// is commutative and associative, so fleet-sharded detectors
    /// merge order-insensitively; the tripped state is re-evaluated on
    /// the combined windows.
    pub fn merge(&mut self, other: &DriftDetector) {
        let total = self.samples + other.samples;
        if total == 0 {
            return;
        }
        let (wa, wb) = (self.samples as f64, other.samples as f64);
        self.short = (self.short * wa + other.short * wb) / total as f64;
        self.long = (self.long * wa + other.long * wb) / total as f64;
        self.samples = total;
        self.trips += other.trips;
        self.tripped = self.evaluate();
    }
}

/// Accumulated APE statistics for one predicted quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorTrack {
    scored: u64,
    invalid: u64,
    sum_pct: f64,
    max_pct: f64,
    histogram: Histogram,
    drift: DriftDetector,
}

impl Default for ErrorTrack {
    /// An empty track.
    fn default() -> Self {
        Self {
            scored: 0,
            invalid: 0,
            sum_pct: 0.0,
            max_pct: 0.0,
            histogram: Histogram::error_pct(),
            drift: DriftDetector::default(),
        }
    }
}

impl ErrorTrack {
    /// Scores one predicted-vs-measured pair and returns the APE in
    /// percent, or `None` when the pair is unscorable (missing,
    /// non-finite, or a ~zero measurement that would blow the ratio
    /// up) — unscorable pairs are counted as invalid, not as errors.
    pub fn score(&mut self, predicted: f64, measured: Option<f64>) -> Option<f64> {
        let measured = match measured {
            Some(m) if m.is_finite() && predicted.is_finite() && m.abs() > 1e-9 => m,
            _ => {
                self.invalid += 1;
                return None;
            }
        };
        let ape_pct = (predicted - measured).abs() / measured.abs() * 100.0;
        self.scored += 1;
        self.sum_pct += ape_pct;
        if ape_pct > self.max_pct {
            self.max_pct = ape_pct;
        }
        self.histogram.observe(ape_pct);
        self.drift.observe(ape_pct);
        Some(ape_pct)
    }

    /// Successfully scored pairs.
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Pairs skipped as unscorable.
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// Mean APE in percent (0 when nothing scored).
    pub fn mean_pct(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.sum_pct / self.scored as f64
        }
    }

    /// Largest APE seen, percent.
    pub fn max_pct(&self) -> f64 {
        self.max_pct
    }

    /// Bucket-resolution error quantile, percent.
    pub fn percentile_pct(&self, q: f64) -> f64 {
        self.histogram.percentile(q)
    }

    /// The error histogram (1-2-5 percent buckets).
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// The drift trip-wire over this track's error series.
    pub fn drift(&self) -> &DriftDetector {
        &self.drift
    }

    /// Folds another track in (order-insensitive; see
    /// [`DriftDetector::merge`]).
    pub fn merge(&mut self, other: &ErrorTrack) {
        self.scored += other.scored;
        self.invalid += other.invalid;
        self.sum_pct += other.sum_pct;
        if other.max_pct > self.max_pct {
            self.max_pct = other.max_pct;
        }
        self.histogram.merge(&other.histogram);
        self.drift.merge(&other.drift);
    }
}

/// Per-core CPI and chip-power APE scorekeeping for one daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionScorer {
    cores: Vec<ErrorTrack>,
    power: ErrorTrack,
    intervals: u64,
    stale_drops: u64,
}

impl PredictionScorer {
    /// A scorer for a chip with `core_count` cores.
    pub fn new(core_count: usize) -> Self {
        Self {
            cores: (0..core_count).map(|_| ErrorTrack::default()).collect(),
            power: ErrorTrack::default(),
            intervals: 0,
            stale_drops: 0,
        }
    }

    /// Scores one core's predicted CPI against the measured one
    /// (`None` when the core retired no instructions). Returns the
    /// APE in percent when scorable.
    pub fn score_core_cpi(
        &mut self,
        core: usize,
        predicted: f64,
        measured: Option<f64>,
    ) -> Option<f64> {
        self.cores.get_mut(core)?.score(predicted, measured)
    }

    /// Scores the predicted chip power against the measured one.
    pub fn score_power(&mut self, predicted: f64, measured: f64) -> Option<f64> {
        self.power.score(predicted, Some(measured))
    }

    /// Marks one measured interval as scored.
    pub fn note_interval(&mut self) {
        self.intervals += 1;
    }

    /// Marks one staged prediction dropped because the next measured
    /// interval never arrived (degraded/held/failsafe paths).
    pub fn note_stale_drop(&mut self) {
        self.stale_drops += 1;
    }

    /// Intervals scored.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Staged predictions dropped without a matching measurement.
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops
    }

    /// Per-core CPI tracks, core order.
    pub fn cores(&self) -> &[ErrorTrack] {
        &self.cores
    }

    /// The chip-power track.
    pub fn power(&self) -> &ErrorTrack {
        &self.power
    }

    /// Mean CPI APE across every scored core observation, percent.
    pub fn mean_cpi_pct(&self) -> f64 {
        let scored: u64 = self.cores.iter().map(ErrorTrack::scored).sum();
        if scored == 0 {
            0.0
        } else {
            self.cores.iter().map(|t| t.sum_pct).sum::<f64>() / scored as f64
        }
    }

    /// Whether any core's CPI drift wire is currently tripped.
    pub fn any_cpi_drift(&self) -> bool {
        self.cores.iter().any(|t| t.drift().tripped())
    }

    /// Whether any tracked quantity (CPI or power) is drifting.
    pub fn drifted(&self) -> bool {
        self.any_cpi_drift() || self.power.drift().tripped()
    }

    /// Folds another scorer in (tracks must cover the same core
    /// count; extra cores on either side are ignored). Merging is
    /// order-insensitive — see [`DriftDetector::merge`].
    pub fn merge(&mut self, other: &PredictionScorer) {
        for (mine, theirs) in self.cores.iter_mut().zip(&other.cores) {
            mine.merge(theirs);
        }
        self.power.merge(&other.power);
        self.intervals += other.intervals;
        self.stale_drops += other.stale_drops;
    }

    /// Publishes the aggregate accuracy view through a recorder
    /// (no-op when the recorder is disabled): `accuracy.*` gauges for
    /// the means/EWMAs and the drift flags. Per-observation error
    /// histograms are fed by the daemon as it scores (see
    /// [`RecorderHandle::observe`]), not re-exported here.
    pub fn export(&self, recorder: &RecorderHandle) {
        if !recorder.enabled() {
            return;
        }
        recorder.set_gauge("accuracy.cpi.mean_pct", self.mean_cpi_pct());
        recorder.set_gauge("accuracy.power.mean_pct", self.power.mean_pct());
        recorder.set_gauge("accuracy.power.ewma_pct", self.power.drift().short_pct());
        recorder.set_gauge(
            "accuracy.drift.tripped",
            if self.drifted() { 1.0 } else { 0.0 },
        );
        let trips: u64 =
            self.cores.iter().map(|t| t.drift().trips()).sum::<u64>() + self.power.drift().trips();
        recorder.set_gauge("accuracy.drift.trips", trips as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_trips_on_a_sustained_error_rise_and_not_during_warmup() {
        let mut d = DriftDetector::default();
        // A long clean history around 2%.
        for _ in 0..50 {
            d.observe(2.0);
            assert!(!d.tripped(), "clean history must not trip");
        }
        // The predictor suddenly degrades to 30% error.
        let mut saw_trip = false;
        for _ in 0..10 {
            d.observe(30.0);
            saw_trip |= d.tripped();
        }
        assert!(saw_trip, "a 15x error rise must trip the wire");
        assert_eq!(d.trips(), 1);
        // Warmup: the same spike with too few samples stays silent.
        let mut cold = DriftDetector::default();
        for _ in 0..(MIN_SAMPLES - 1) {
            cold.observe(50.0);
        }
        assert!(!cold.tripped(), "trip-wire must stay disarmed in warmup");
    }

    #[test]
    fn uniformly_bad_history_never_trips() {
        // Drift is error *relative to the run's own baseline*: a model
        // that was always 20% wrong is inaccurate, not drifting.
        let mut d = DriftDetector::default();
        for _ in 0..100 {
            d.observe(20.0);
        }
        assert!(!d.tripped());
        assert_eq!(d.trips(), 0);
    }

    #[test]
    fn unscorable_pairs_count_invalid_not_error() {
        let mut t = ErrorTrack::default();
        assert_eq!(t.score(1.0, None), None);
        assert_eq!(t.score(1.0, Some(0.0)), None);
        assert_eq!(t.score(f64::NAN, Some(1.0)), None);
        assert_eq!(t.score(1.0, Some(f64::INFINITY)), None);
        assert_eq!(t.invalid(), 4);
        assert_eq!(t.scored(), 0);
        assert_eq!(t.mean_pct(), 0.0);
        let ape = t.score(1.05, Some(1.0));
        assert!((ape.unwrap_or(0.0) - 5.0).abs() < 1e-9);
        assert_eq!(t.scored(), 1);
        assert!((t.mean_pct() - 5.0).abs() < 1e-9);
        assert!((t.max_pct() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scorer_aggregates_across_cores() {
        let mut s = PredictionScorer::new(2);
        s.score_core_cpi(0, 1.1, Some(1.0)); // 10%
        s.score_core_cpi(1, 1.2, Some(1.0)); // 20%
        s.score_core_cpi(7, 9.9, Some(1.0)); // out of range: ignored
        s.score_power(50.0, 40.0); // 25%
        s.note_interval();
        assert!((s.mean_cpi_pct() - 15.0).abs() < 1e-9);
        assert!((s.power().mean_pct() - 25.0).abs() < 1e-9);
        assert_eq!(s.intervals(), 1);
        assert!(!s.drifted());
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mk = |errs: &[f64]| {
            let mut s = PredictionScorer::new(1);
            for &e in errs {
                s.score_core_cpi(0, 1.0 + e / 100.0, Some(1.0));
                s.score_power(100.0 + e, 100.0);
            }
            s.note_interval();
            s
        };
        let (a, b, c) = (mk(&[1.0, 2.0]), mk(&[30.0, 40.0, 50.0]), mk(&[5.0]));
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut ba = c.clone();
        ba.merge(&b);
        ba.merge(&a);
        let (ta, tb) = (&ab.cores()[0], &ba.cores()[0]);
        assert_eq!(ta.scored(), tb.scored());
        assert_eq!(
            ta.histogram().buckets().collect::<Vec<_>>(),
            tb.histogram().buckets().collect::<Vec<_>>()
        );
        assert!((ta.mean_pct() - tb.mean_pct()).abs() < 1e-9);
        assert!((ta.drift().short_pct() - tb.drift().short_pct()).abs() < 1e-9);
        assert!((ta.drift().baseline_pct() - tb.drift().baseline_pct()).abs() < 1e-9);
        assert_eq!(ta.drift().samples(), tb.drift().samples());
        assert_eq!(ab.intervals(), ba.intervals());
    }

    #[test]
    fn export_is_inert_on_a_disabled_recorder() {
        let s = PredictionScorer::new(1);
        s.export(&RecorderHandle::noop());
    }
}
