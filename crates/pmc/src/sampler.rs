//! Interval sampling: grouping PMU sub-ticks into 200 ms samples.
//!
//! PPEP makes one DVFS decision per 200 ms interval from the counters
//! accumulated over that interval (§II). An [`IntervalSampler`] wraps
//! a [`Pmu`], accepts 20 ms sub-ticks, and emits one
//! [`IntervalSample`] per ten sub-ticks.

use crate::counts::EventCounts;
use crate::pmu::Pmu;
use ppep_obs::RecorderHandle;
use ppep_types::time::SAMPLES_PER_INTERVAL;
use ppep_types::{Result, Seconds};

/// One decision interval's worth of counter data for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// Extrapolated event counts over the interval.
    pub counts: EventCounts,
    /// Length of the interval.
    pub duration: Seconds,
}

impl IntervalSample {
    /// Per-second event rates (the `Ei` inputs of Eq. 3).
    pub fn rates(&self) -> EventCounts {
        self.counts.to_rates(self.duration)
    }

    /// Cycles-per-instruction over the interval, if any retired.
    #[inline]
    pub fn cpi(&self) -> Option<f64> {
        self.counts.cpi()
    }

    /// Memory CPI (MAB wait cycles per instruction), if any retired.
    #[inline]
    pub fn mcpi(&self) -> Option<f64> {
        self.counts.mcpi()
    }

    /// Instructions retired per second.
    pub fn ips(&self) -> f64 {
        self.counts.get(crate::events::EventId::RetiredInstructions) / self.duration.as_secs()
    }
}

/// Accumulates PMU sub-ticks into fixed-length interval samples.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    pmu: Pmu,
    ticks_in_interval: usize,
    ticks_seen: usize,
    tick_period: Seconds,
    recorder: RecorderHandle,
}

impl IntervalSampler {
    /// A sampler matching the paper's 10 × 20 ms = 200 ms schedule.
    pub fn new(pmu: Pmu) -> Self {
        Self::with_schedule(
            pmu,
            SAMPLES_PER_INTERVAL,
            ppep_types::time::POWER_SAMPLE_PERIOD,
        )
    }

    /// A sampler with a custom schedule (`ticks_per_interval` sub-ticks
    /// of `tick_period` each).
    ///
    /// # Panics
    ///
    /// Panics when `ticks_per_interval` is zero or the period is not
    /// positive and finite.
    pub fn with_schedule(pmu: Pmu, ticks_per_interval: usize, tick_period: Seconds) -> Self {
        assert!(
            ticks_per_interval > 0,
            "need at least one tick per interval"
        );
        let period = tick_period.as_secs();
        assert!(
            period > 0.0 && period <= f64::MAX,
            "tick period must be positive and finite"
        );
        Self {
            pmu,
            ticks_in_interval: ticks_per_interval,
            ticks_seen: 0,
            tick_period,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Routes detected-fault counters (`fault.detected.pmc`) through an
    /// observability recorder. The default is the no-op recorder.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Mutable access to the wrapped PMU (fault injection, preloads).
    pub fn pmu_mut(&mut self) -> &mut Pmu {
        &mut self.pmu
    }

    /// Sub-ticks accumulated towards the current interval.
    pub fn ticks_seen(&self) -> usize {
        self.ticks_seen
    }

    /// Abandons the current partial interval: discards accumulated
    /// sub-ticks and re-syncs the PMU baselines. The next [`tick`]
    /// starts a fresh interval. Supervisors call this after a
    /// mid-interval fault so a corrupted partial sample can never leak
    /// into the next interval's extrapolation.
    ///
    /// [`tick`]: IntervalSampler::tick
    pub fn reset(&mut self) {
        self.ticks_seen = 0;
        self.pmu.reset_interval();
    }

    /// Feeds one sub-tick of true counts. Returns a completed interval
    /// sample when this tick closes an interval, `None` otherwise.
    ///
    /// # Errors
    ///
    /// Propagates PMU validation errors.
    #[inline]
    pub fn tick(&mut self, true_counts: &EventCounts) -> Result<Option<IntervalSample>> {
        if let Err(e) = self.pmu.tick(true_counts, self.tick_period) {
            self.recorder.incr("fault.detected.pmc");
            return Err(e);
        }
        self.ticks_seen += 1;
        if self.ticks_seen == self.ticks_in_interval {
            return self.close_interval().map(Some);
        }
        Ok(None)
    }

    /// Whether the wrapped PMU is quiet: a tick that counts nothing
    /// would only keep time, so [`tick_silent`] runs without ticking
    /// it. No PMU with an armed read failure is quiet: its next tick
    /// fails. The ideal PMU never counts through its counters, so it is
    /// quiet otherwise. A multiplexed one is quiet when, besides, every
    /// counter still equals its baseline, so each of a tick's six count
    /// → read → delta steps would advance a counter by 0, read back its
    /// baseline and add 0. Such a tick leaves the PMU quiet.
    ///
    /// [`tick_silent`]: IntervalSampler::tick_silent
    #[inline]
    pub fn is_quiet(&self) -> bool {
        self.pmu.is_quiet()
    }

    /// Feeds `ticks` sub-ticks of all-zero counts: exactly what `ticks`
    /// calls of [`tick`] with [`EventCounts::zero`] would do, returning
    /// the last sample they close (`None` if they close none).
    ///
    /// A silent tick on a quiet PMU only keeps time and toggles the
    /// multiplexing group, and leaves the PMU quiet. So while the PMU
    /// is quiet, the ticks up to each interval end cost their time
    /// accounting and one reprogramming, not a [`tick`] each. A PMU
    /// that is not quiet is ticked.
    ///
    /// # Errors
    ///
    /// Those of the [`tick`]s it stands for; a quiet PMU's silent
    /// ticks never fail.
    ///
    /// [`tick`]: IntervalSampler::tick
    // No `#[inline]`: a copy inlined into a caller that also calls
    // `tick` gives `tick` a second call site there (DESIGN §13.4).
    pub fn tick_silent(&mut self, ticks: usize) -> Result<Option<IntervalSample>> {
        let mut closed = None;
        let mut left = ticks;
        while left > 0 {
            let run = left.min(self.ticks_in_interval - self.ticks_seen);
            left -= run;
            if !self.pmu.is_quiet() {
                for _ in 0..run {
                    closed = self.tick(&EventCounts::zero())?.or(closed);
                }
                continue;
            }
            self.pmu.tick_quiet(run, self.tick_period.as_secs());
            self.ticks_seen += run;
            if self.ticks_seen == self.ticks_in_interval {
                closed = Some(self.close_interval()?);
            }
        }
        Ok(closed)
    }

    /// Drains the PMU into the sample of the interval just completed.
    fn close_interval(&mut self) -> Result<IntervalSample> {
        self.ticks_seen = 0;
        let counts = match self.pmu.drain_interval() {
            Ok(counts) => counts,
            Err(e) => {
                self.recorder.incr("fault.detected.pmc");
                return Err(e);
            }
        };
        let duration = self.tick_period * self.ticks_in_interval as f64;
        Ok(IntervalSample { counts, duration })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventId, ALL_EVENTS};

    fn steady(per_tick: f64) -> EventCounts {
        let mut c = EventCounts::zero();
        for e in ALL_EVENTS {
            c.set(e, per_tick);
        }
        c
    }

    #[test]
    fn emits_one_sample_per_ten_ticks() {
        let mut s = IntervalSampler::new(Pmu::new_ideal());
        let c = steady(1000.0);
        for i in 0..9 {
            assert!(
                s.tick(&c).unwrap().is_none(),
                "tick {i} should not complete"
            );
        }
        let sample = s
            .tick(&c)
            .unwrap()
            .expect("tenth tick completes the interval");
        assert!((sample.duration.as_secs() - 0.2).abs() < 1e-12);
        assert!((sample.counts.get(EventId::RetiredUops) - 10_000.0).abs() < 1e-9);
        // Next interval starts fresh.
        assert!(s.tick(&c).unwrap().is_none());
    }

    #[test]
    fn sample_rates_and_derived_metrics() {
        let mut counts = EventCounts::zero();
        counts.set(EventId::CpuClocksNotHalted, 70_000.0);
        counts.set(EventId::RetiredInstructions, 50_000.0);
        counts.set(EventId::MabWaitCycles, 20_000.0);
        let sample = IntervalSample {
            counts,
            duration: Seconds::new(0.2),
        };
        assert!((sample.cpi().unwrap() - 1.4).abs() < 1e-12);
        assert!((sample.mcpi().unwrap() - 0.4).abs() < 1e-12);
        assert!((sample.ips() - 250_000.0).abs() < 1e-9);
        let rates = sample.rates();
        assert!((rates.get(EventId::RetiredInstructions) - 250_000.0).abs() < 1e-9);
    }

    #[test]
    fn custom_schedule() {
        let mut s = IntervalSampler::with_schedule(Pmu::new_ideal(), 2, Seconds::new(0.05));
        let c = steady(10.0);
        assert!(s.tick(&c).unwrap().is_none());
        let sample = s.tick(&c).unwrap().unwrap();
        assert!((sample.duration.as_secs() - 0.1).abs() < 1e-12);
        assert!((sample.counts.get(EventId::RetiredUops) - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_tick_schedule_rejected() {
        let _ = IntervalSampler::with_schedule(Pmu::new(), 0, Seconds::new(0.02));
    }

    #[test]
    fn non_finite_tick_periods_are_rejected() {
        for period in [0.0, -0.02, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let built = std::panic::catch_unwind(|| {
                IntervalSampler::with_schedule(Pmu::new(), 10, Seconds::new(period))
            });
            assert!(built.is_err(), "period {period} accepted");
        }
    }

    #[test]
    fn a_quiet_interval_is_skipped_whole() {
        let mut skipped = IntervalSampler::new(Pmu::new());
        let mut ticked = IntervalSampler::new(Pmu::new());
        assert!(skipped.is_quiet());
        let sample = skipped
            .tick_silent(10)
            .unwrap()
            .expect("closes the interval");
        let mut expected = None;
        for _ in 0..10 {
            expected = ticked.tick(&EventCounts::zero()).unwrap().or(expected);
        }
        assert_eq!(Some(sample), expected);
        assert_eq!(sample.counts, EventCounts::zero());
        assert_eq!(sample.duration, Seconds::new(0.02) * 10.0);
        // Three more leave group B active, as three ticks would.
        assert!(skipped.tick_silent(3).unwrap().is_none());
        assert_eq!(skipped.ticks_seen(), 3);
        assert_eq!(skipped.pmu.active_group(), crate::pmu::MuxGroup::B);
        // An armed failure makes the PMU loud: the first silent tick
        // fails like a ticked one.
        skipped.pmu_mut().msr_mut().inject_read_failures(1);
        assert!(!skipped.is_quiet());
        assert!(skipped.tick_silent(1).is_err());
        assert_eq!(skipped.ticks_seen(), 3);
    }

    #[test]
    fn reset_discards_partial_interval() {
        let mut s = IntervalSampler::new(Pmu::new());
        let c = steady(1000.0);
        for _ in 0..7 {
            assert!(s.tick(&c).unwrap().is_none());
        }
        assert_eq!(s.ticks_seen(), 7);
        s.reset();
        assert_eq!(s.ticks_seen(), 0);
        // A fresh, clean interval: the 7 discarded ticks contribute
        // nothing to the next sample.
        let c2 = steady(200.0);
        for i in 0..9 {
            assert!(s.tick(&c2).unwrap().is_none(), "tick {i}");
        }
        let sample = s.tick(&c2).unwrap().expect("interval completes");
        assert!((sample.counts.get(EventId::RetiredUops) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn reset_recovers_from_injected_msr_failure() {
        let mut s = IntervalSampler::new(Pmu::new());
        let c = steady(1000.0);
        for _ in 0..3 {
            s.tick(&c).unwrap();
        }
        s.pmu_mut().msr_mut().inject_read_failures(1);
        let err = s.tick(&c).unwrap_err();
        assert!(err.is_transient(), "MSR read failure is transient: {err}");
        s.reset();
        for _ in 0..9 {
            assert!(s.tick(&c).unwrap().is_none());
        }
        let sample = s.tick(&c).unwrap().expect("recovered interval");
        assert!((sample.counts.get(EventId::RetiredUops) - 10_000.0).abs() < 1e-9);
    }
}
