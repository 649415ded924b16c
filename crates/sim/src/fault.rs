//! Deterministic fault injection for the measurement substrate.
//!
//! Real PPEP deployments sit on flaky plumbing: the Hall sensor's
//! serial link drops readings, thermal diodes freeze or return NaN
//! after an SMBus glitch, `msr-tools` reads time out under load, the
//! daemon overruns its 200 ms deadline on a busy system, and 48-bit
//! counters wrap mid-interval. A [`FaultPlan`] schedules such events
//! onto simulated intervals, entirely determined by a seed, so
//! resilience experiments are exactly reproducible: the same plan on
//! the same chip seed yields bit-identical runs, and an *empty* plan
//! leaves the simulator untouched — [`FaultPlan::none`] injects
//! nothing and draws nothing from any RNG stream.
//!
//! Faults split into two observable classes:
//!
//! * **erroring** — the interval's measurement is lost and
//!   [`crate::chip::ChipSimulator::step_interval_checked`] returns a
//!   *transient* error ([`ppep_types::Error::is_transient`]):
//!   sensor dropouts, failed virtual-MSR reads, missed intervals;
//! * **corrupting** — a record is produced but an observable in it is
//!   wrong: stuck or spiked power readings, NaN or frozen diode
//!   temperatures. Nothing flags the corruption; detecting it is the
//!   supervisor's job.
//!
//! Counter wraparound ([`FaultKind::CounterWrap`]) is scheduled like a
//! fault but survived silently by the sampling path's modulo-2⁴⁸
//! delta logic — it exists to prove that property under test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The power sensor produces no readings this interval (serial
    /// link dropout). Erroring.
    SensorDropout,
    /// The power sensor repeats the previous interval's reading for
    /// the whole interval (ADC latch-up). Corrupting.
    SensorStuck,
    /// One sub-tick power reading is multiplied by `factor`
    /// (electrical transient). Corrupting.
    SensorSpike {
        /// Multiplier applied to the first sub-tick reading (> 1).
        factor: f64,
    },
    /// The thermal diode reads NaN at interval end (SMBus glitch).
    /// Corrupting.
    ThermalNan,
    /// The thermal diode repeats its previous reading (frozen
    /// firmware cache). Corrupting.
    ThermalFrozen,
    /// Every PMU counter is preloaded just below the 48-bit wrap
    /// point, forcing a mid-interval wraparound. Survived silently by
    /// correct delta logic.
    CounterWrap,
    /// The next `reads` virtual-MSR counter reads on core `core` fail,
    /// poisoning the interval. Erroring.
    MsrReadFailure {
        /// Core whose MSR device misbehaves.
        core: usize,
        /// Number of consecutive failing reads.
        reads: u32,
    },
    /// The daemon overran its deadline by `missed` intervals; the
    /// counters cover an unknown span and the measurement is
    /// discarded. Erroring.
    MissedInterval {
        /// Number of consecutive missed intervals.
        missed: u32,
    },
}

impl FaultKind {
    /// Whether this fault surfaces as a (transient) error from
    /// [`crate::chip::ChipSimulator::step_interval_checked`], as
    /// opposed to silently corrupting the record.
    pub fn is_erroring(&self) -> bool {
        matches!(
            self,
            FaultKind::SensorDropout
                | FaultKind::MsrReadFailure { .. }
                | FaultKind::MissedInterval { .. }
        )
    }

    /// Stable kebab-case name used in observability counter keys
    /// (`fault.injected.<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::SensorDropout => "sensor-dropout",
            FaultKind::SensorStuck => "sensor-stuck",
            FaultKind::SensorSpike { .. } => "sensor-spike",
            FaultKind::ThermalNan => "thermal-nan",
            FaultKind::ThermalFrozen => "thermal-frozen",
            FaultKind::CounterWrap => "counter-wrap",
            FaultKind::MsrReadFailure { .. } => "msr-read-failure",
            FaultKind::MissedInterval { .. } => "missed-interval",
        }
    }
}

/// A fault scheduled for one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Zero-based interval index the fault fires on.
    pub interval: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, indexed by interval.
///
/// Events are kept sorted by interval (stably: the faults of one
/// interval keep the order they were added in), so the faults of an
/// interval are one contiguous run, found by binary search.
///
/// ```
/// use ppep_sim::fault::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::none()
///     .with(3, FaultKind::SensorDropout)
///     .with(5, FaultKind::ThermalNan);
/// assert!(plan.kinds_at(3).next().is_some());
/// assert!(plan.kinds_at(4).next().is_none());
/// // Identical seeds give identical storms.
/// assert_eq!(FaultPlan::storm(7, 100, 0.2, 8), FaultPlan::storm(7, 100, 0.2, 8));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds one fault at `interval` (builder style), after any fault
    /// already scheduled for that interval.
    #[must_use]
    pub fn with(mut self, interval: u64, kind: FaultKind) -> Self {
        let at = self.events.partition_point(|e| e.interval <= interval);
        self.events.insert(at, FaultEvent { interval, kind });
        self
    }

    /// A pseudo-random storm: over `intervals` intervals, each one
    /// independently suffers a fault with probability `rate`. The
    /// schedule is a pure function of `seed` — its RNG is private to
    /// the plan, so enabling or disabling a storm never perturbs the
    /// simulator's own noise streams. `core_count` bounds the cores
    /// MSR faults can strike.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]` or `core_count` is zero.
    pub fn storm(seed: u64, intervals: u64, rate: f64, core_count: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "rate must be a probability, got {rate}"
        );
        assert!(core_count > 0, "need at least one core");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut events = Vec::new();
        for interval in 0..intervals {
            if rng.gen_range(0.0..1.0) >= rate {
                continue;
            }
            let kind = match rng.gen_range(0..8_u32) {
                0 => FaultKind::SensorDropout,
                1 => FaultKind::SensorStuck,
                2 => FaultKind::SensorSpike {
                    factor: rng.gen_range(5.0..50.0),
                },
                3 => FaultKind::ThermalNan,
                4 => FaultKind::ThermalFrozen,
                5 => FaultKind::CounterWrap,
                6 => FaultKind::MsrReadFailure {
                    core: rng.gen_range(0..core_count),
                    reads: rng.gen_range(1..=3),
                },
                _ => FaultKind::MissedInterval {
                    missed: rng.gen_range(1..=2),
                },
            };
            events.push(FaultEvent { interval, kind });
        }
        Self { events }
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All scheduled events, sorted by interval, insertion order
    /// within one.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events scheduled for one interval, in insertion order.
    pub(crate) fn events_at(&self, interval: u64) -> &[FaultEvent] {
        let start = self.events.partition_point(|e| e.interval < interval);
        let end = self.events.partition_point(|e| e.interval <= interval);
        self.events.get(start..end).unwrap_or_default()
    }

    /// The faults scheduled for one interval, in insertion order.
    pub fn kinds_at(&self, interval: u64) -> impl Iterator<Item = FaultKind> + '_ {
        self.events_at(interval).iter().map(|e| e.kind)
    }

    /// Number of intervals (within `0..intervals`) that suffer at
    /// least one *erroring* fault — the measurements an unprotected
    /// consumer is guaranteed to lose.
    pub fn erroring_intervals(&self, intervals: u64) -> usize {
        (0..intervals)
            .filter(|i| self.kinds_at(*i).any(|k| k.is_erroring()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_free() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.kinds_at(0).count(), 0);
        assert_eq!(p.erroring_intervals(100), 0);
    }

    #[test]
    fn builder_schedules_and_looks_up() {
        let p = FaultPlan::none()
            .with(2, FaultKind::SensorDropout)
            .with(2, FaultKind::ThermalNan)
            .with(9, FaultKind::CounterWrap);
        assert_eq!(p.len(), 3);
        assert_eq!(p.kinds_at(2).count(), 2);
        assert_eq!(p.kinds_at(9).next(), Some(FaultKind::CounterWrap));
        assert_eq!(p.kinds_at(3).count(), 0);
        // Only the dropout interval errors; NaN and wrap do not.
        assert_eq!(p.erroring_intervals(10), 1);
    }

    #[test]
    fn out_of_order_builds_look_up_in_insertion_order() {
        let spike = |factor| FaultKind::SensorSpike { factor };
        let p = FaultPlan::none()
            .with(7, spike(7.0))
            .with(2, FaultKind::MissedInterval { missed: 1 })
            .with(7, FaultKind::ThermalNan)
            .with(0, FaultKind::CounterWrap)
            .with(2, spike(2.0))
            .with(7, FaultKind::SensorDropout)
            .with(4, FaultKind::ThermalFrozen);
        let intervals: Vec<u64> = p.events().iter().map(|e| e.interval).collect();
        assert_eq!(intervals, [0, 2, 2, 4, 7, 7, 7]);
        let at = |i| p.kinds_at(i).collect::<Vec<_>>();
        assert_eq!(at(0), [FaultKind::CounterWrap]);
        assert_eq!(at(1), []);
        assert_eq!(at(2), [FaultKind::MissedInterval { missed: 1 }, spike(2.0)]);
        assert_eq!(at(4), [FaultKind::ThermalFrozen]);
        assert_eq!(
            at(7),
            [spike(7.0), FaultKind::ThermalNan, FaultKind::SensorDropout]
        );
        assert_eq!(at(8), []);
        // Intervals 2 and 7 error, whatever order they were added in.
        assert_eq!(p.erroring_intervals(10), 2);
        assert_eq!(p.erroring_intervals(7), 1);
        assert_eq!(p.erroring_intervals(0), 0);
    }

    #[test]
    fn storms_emit_sorted_runs() {
        let storm = FaultPlan::storm(3, 300, 0.7, 8);
        assert!(storm
            .events()
            .windows(2)
            .all(|w| w[0].interval < w[1].interval));
        // The lookup finds every scheduled event and nothing else.
        let found: Vec<FaultEvent> = (0..300)
            .flat_map(|i| {
                storm
                    .kinds_at(i)
                    .map(move |kind| FaultEvent { interval: i, kind })
            })
            .collect();
        assert_eq!(found, storm.events());
    }

    #[test]
    fn storms_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::storm(11, 200, 0.3, 8);
        let b = FaultPlan::storm(11, 200, 0.3, 8);
        let c = FaultPlan::storm(12, 200, 0.3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must give different storms");
        // Rate 0.3 over 200 intervals: expect a healthy spread, and
        // every event within range.
        assert!((30..=90).contains(&a.len()), "storm size {}", a.len());
        for e in a.events() {
            assert!(e.interval < 200);
            if let FaultKind::MsrReadFailure { core, reads } = e.kind {
                assert!(core < 8);
                assert!((1..=3).contains(&reads));
            }
            if let FaultKind::SensorSpike { factor } = e.kind {
                assert!((5.0..50.0).contains(&factor));
            }
        }
    }

    #[test]
    fn zero_rate_storm_is_empty_full_rate_hits_everything() {
        assert!(FaultPlan::storm(1, 50, 0.0, 4).is_empty());
        let all = FaultPlan::storm(1, 50, 1.0, 4);
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn erroring_classification() {
        assert!(FaultKind::SensorDropout.is_erroring());
        assert!(FaultKind::MsrReadFailure { core: 0, reads: 1 }.is_erroring());
        assert!(FaultKind::MissedInterval { missed: 1 }.is_erroring());
        assert!(!FaultKind::SensorStuck.is_erroring());
        assert!(!FaultKind::SensorSpike { factor: 10.0 }.is_erroring());
        assert!(!FaultKind::ThermalNan.is_erroring());
        assert!(!FaultKind::ThermalFrozen.is_erroring());
        assert!(!FaultKind::CounterWrap.is_erroring());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_rate_rejected() {
        let _ = FaultPlan::storm(1, 10, 1.5, 4);
    }
}
