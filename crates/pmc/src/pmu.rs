//! A six-slot, time-multiplexed per-core PMU.
//!
//! The FX-8320 has six programmable performance counters per core but
//! PPEP needs twelve events, so the paper time-multiplexes the
//! counters (§IV-B1). This PMU reproduces that mechanism: the twelve
//! Table I events are split into two groups of six; on every 20 ms
//! sub-tick the active group's counters accumulate the true event
//! counts while the inactive group sees nothing; at interval end each
//! event's count is extrapolated by the inverse of its duty cycle
//! (×2 for a two-group schedule).
//!
//! This is exactly the error mechanism the paper blames for its
//! worst-case outliers: a workload whose phase flips between sub-ticks
//! is seen by each group only half the time, and the extrapolation
//! assumes the unseen half looked the same.

use crate::counter::COUNTER_MASK;
use crate::counts::EventCounts;
use crate::events::{EventId, EVENT_COUNT};
use crate::msr::{encode_ctl, MsrDevice, SLOT_COUNT};
use ppep_types::{Error, Result, Seconds};

/// Multiplexing group membership: which events share counter slots.
///
/// Group A holds E1–E6, group B holds E7–E12, mirroring a schedule
/// that keeps each group's events coherent within a sub-tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxGroup {
    /// Events E1–E6.
    A,
    /// Events E7–E12.
    B,
}

impl MuxGroup {
    /// The events in this group, in slot order.
    pub const fn events(self) -> [EventId; SLOT_COUNT] {
        match self {
            MuxGroup::A => [
                EventId::RetiredUops,
                EventId::FpuPipeAssignment,
                EventId::InstructionCacheFetches,
                EventId::DataCacheAccesses,
                EventId::RequestsToL2,
                EventId::RetiredBranches,
            ],
            MuxGroup::B => [
                EventId::RetiredMispredictedBranches,
                EventId::L2CacheMisses,
                EventId::DispatchStalls,
                EventId::CpuClocksNotHalted,
                EventId::RetiredInstructions,
                EventId::MabWaitCycles,
            ],
        }
    }

    /// The other group.
    #[must_use]
    #[inline]
    pub fn toggled(self) -> Self {
        match self {
            MuxGroup::A => MuxGroup::B,
            MuxGroup::B => MuxGroup::A,
        }
    }

    /// The group's `PERF_CTL` values, one per slot: event select,
    /// enable bit set.
    #[inline]
    fn ctl(self) -> &'static [u64; SLOT_COUNT] {
        match self {
            MuxGroup::A => &CTL_A,
            MuxGroup::B => &CTL_B,
        }
    }
}

/// A group's slot programming, worked out at compile time so that
/// reprogramming every sub-tick is a six-word copy.
const fn group_ctl(group: MuxGroup) -> [u64; SLOT_COUNT] {
    const fn ctl(e: EventId) -> u64 {
        encode_ctl(e.code(), true)
    }
    let [e0, e1, e2, e3, e4, e5] = group.events();
    [ctl(e0), ctl(e1), ctl(e2), ctl(e3), ctl(e4), ctl(e5)]
}

static CTL_A: [u64; SLOT_COUNT] = group_ctl(MuxGroup::A);
static CTL_B: [u64; SLOT_COUNT] = group_ctl(MuxGroup::B);

// `Pmu::tick` takes a group's counts and accumulators as one half of
// the event-indexed arrays: group A's slots count events 0–5 in order,
// group B's events 6–11.
const _: () = {
    let [a0, a1, a2, a3, a4, a5] = MuxGroup::A.events();
    let [b0, b1, b2, b3, b4, b5] = MuxGroup::B.events();
    assert!(a0.index() == 0 && a1.index() == 1 && a2.index() == 2);
    assert!(a3.index() == 3 && a4.index() == 4 && a5.index() == 5);
    assert!(b0.index() == 6 && b1.index() == 7 && b2.index() == 8);
    assert!(b3.index() == 9 && b4.index() == 10 && b5.index() == 11);
};

/// `x.round().max(0.0) as u64`, exactly, for a count [`Pmu::tick`] has
/// validated (finite, `>= 0`), without the call `round` compiles to or
/// a data-dependent branch.
///
/// Below 2⁵², `t = x as i64` truncates and the fraction `x - t` is
/// exact (Sterbenz: `t <= x <= 2t` once `x >= 1`), so comparing it with
/// 0.5 rounds half away from zero like `round`. From 2⁵² up every
/// double is an integer and `x as u64` is already the answer (it
/// saturates past `u64::MAX`, as the cast of the rounded value does).
/// Simulated counts are fractional, so a branch on the fraction would
/// mispredict about half the time; the branch on the magnitude never
/// does.
#[inline]
fn round_count(x: f64) -> u64 {
    /// 2⁵²: from here up, doubles have no fractional part.
    const INTEGRAL: f64 = 4_503_599_627_370_496.0;
    if x >= INTEGRAL {
        return integral_count(x);
    }
    let t = x as i64;
    (t + i64::from(x - t as f64 >= 0.5)) as u64
}

/// The cast of an already integral count, out of line so the common
/// path stays short.
#[cold]
#[inline(never)]
fn integral_count(x: f64) -> u64 {
    x as u64
}

/// A per-core PMU multiplexing twelve events over six hardware slots.
///
/// ```
/// use ppep_pmc::{EventCounts, Pmu};
/// use ppep_pmc::events::ALL_EVENTS;
/// use ppep_types::Seconds;
///
/// # fn main() -> ppep_types::Result<()> {
/// let mut pmu = Pmu::new();
/// let mut counts = EventCounts::zero();
/// for e in ALL_EVENTS {
///     counts.set(e, 1000.0);
/// }
/// for _ in 0..10 {
///     pmu.tick(&counts, Seconds::new(0.02))?;
/// }
/// // Steady rates reconstruct exactly despite ×2 multiplexing.
/// let interval = pmu.drain_interval()?;
/// assert!((interval.get(ppep_pmc::EventId::RetiredUops) - 10_000.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pmu {
    device: MsrDevice,
    active_group: MuxGroup,
    /// Raw counts accumulated per event since the last drain.
    accumulated: [u64; EVENT_COUNT],
    /// Seconds each group (indexed by `MuxGroup as usize`) held the
    /// slots since the last drain; without multiplexing both groups are
    /// live every tick. Every event of a group shares its live time.
    active_time: [f64; 2],
    /// Total wall time since the last drain.
    total_time: f64,
    /// Counter values at the start of the current programming, used to
    /// compute deltas through the MSR interface.
    slot_baseline: [u64; SLOT_COUNT],
    multiplexing: bool,
}

impl Pmu {
    /// A PMU with two-group multiplexing enabled (the paper's setup).
    pub fn new() -> Self {
        let mut pmu = Self {
            device: MsrDevice::new(),
            active_group: MuxGroup::A,
            accumulated: [0; EVENT_COUNT],
            active_time: [0.0; 2],
            total_time: 0.0,
            slot_baseline: [0; SLOT_COUNT],
            multiplexing: true,
        };
        pmu.program_active_group();
        pmu
    }

    /// A PMU that magically observes all twelve events continuously.
    ///
    /// Real hardware cannot do this; it exists so tests and ablation
    /// experiments can isolate the error contributed by multiplexing.
    pub fn new_ideal() -> Self {
        let mut pmu = Self::new();
        pmu.multiplexing = false;
        pmu
    }

    /// Whether this PMU time-multiplexes (true for the realistic PMU).
    pub fn is_multiplexing(&self) -> bool {
        self.multiplexing
    }

    /// The group currently occupying the hardware slots.
    pub fn active_group(&self) -> MuxGroup {
        self.active_group
    }

    /// Direct access to the underlying MSR device (read-only).
    pub fn msr(&self) -> &MsrDevice {
        &self.device
    }

    /// Mutable access to the underlying MSR device, e.g. to arm fault
    /// injection ([`MsrDevice::inject_read_failures`]) or preload
    /// counter values.
    pub fn msr_mut(&mut self) -> &mut MsrDevice {
        &mut self.device
    }

    /// Writes `raw` (masked to 48 bits) into every hardware counter
    /// and re-syncs the sampling baselines, so subsequent deltas start
    /// from the preloaded value. Fault injection uses this to place
    /// counters just below the 48-bit wrap point.
    pub fn preload_counters(&mut self, raw: u64) {
        self.device.write_all(raw);
        self.slot_baseline = self.device.peek_all();
    }

    /// Discards any partially accumulated interval and re-syncs the
    /// counter baselines. After a mid-interval fault (failed read,
    /// missed deadline) the accumulators cover an unknown span; a
    /// supervisor calls this before resuming sampling.
    pub fn reset_interval(&mut self) {
        self.accumulated = [0; EVENT_COUNT];
        self.active_time = [0.0; 2];
        self.total_time = 0.0;
        self.program_active_group();
    }

    fn program_active_group(&mut self) {
        self.device.program_all(self.active_group.ctl());
        // Backstage peek: baseline re-sync is simulator bookkeeping,
        // not a modelled msr-tools read, so injected read failures
        // must not corrupt it.
        self.slot_baseline = self.device.peek_all();
    }

    /// Whether a tick that counts nothing would only keep time (see
    /// [`IntervalSampler::is_quiet`]).
    ///
    /// [`IntervalSampler::is_quiet`]: crate::sampler::IntervalSampler::is_quiet
    #[inline]
    pub(crate) fn is_quiet(&self) -> bool {
        self.device.pending_read_failures() == 0
            && (!self.multiplexing || self.device.peek_all() == self.slot_baseline)
    }

    /// `ticks` ticks of all-zero counts lasting `dt` each, on a quiet
    /// PMU: the time accounting and group toggles those ticks make,
    /// then the one reprogramming that leaves the slots as the last of
    /// them would. Every addition keeps its order, so the accumulated
    /// times are the ticks' bit for bit.
    #[inline]
    pub(crate) fn tick_quiet(&mut self, ticks: usize, dt: f64) {
        let [a_time, b_time] = &mut self.active_time;
        for _ in 0..ticks {
            self.total_time += dt;
            if !self.multiplexing {
                *a_time += dt;
                *b_time += dt;
                continue;
            }
            match self.active_group {
                MuxGroup::A => *a_time += dt,
                MuxGroup::B => *b_time += dt,
            }
            self.active_group = self.active_group.toggled();
        }
        if self.multiplexing && ticks > 0 {
            self.device.program_all(self.active_group.ctl());
        }
    }

    /// Feeds one sub-tick of ground-truth event counts into the PMU.
    ///
    /// Only events whose group currently owns the hardware slots
    /// accumulate (all events when multiplexing is disabled). After
    /// accounting, the active group toggles, emulating the driver
    /// reprogramming the counters every sample.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for a `dt` that is not positive
    /// and finite, or for non-finite/negative counts, and
    /// [`Error::MsrReadFailed`] when an armed read failure fails the
    /// tick's first counter read.
    #[inline]
    pub fn tick(&mut self, true_counts: &EventCounts, dt: Seconds) -> Result<()> {
        let dt = dt.as_secs();
        // NaN fails the first comparison, ±∞ the second.
        if !(dt > 0.0 && dt <= f64::MAX) {
            return Err(Error::InvalidInput(
                "PMU tick needs a positive, finite dt".into(),
            ));
        }
        // Finite and non-negative is `0 <= x <= MAX` (NaN fails both,
        // -0.0 passes), checked in one pass without short-circuiting so
        // that it compiles to packed compares. (`x < INFINITY` would
        // compile to a per-element bit-pattern class test.)
        let counts = true_counts.as_array();
        if !counts
            .iter()
            .fold(true, |ok, x| ok & (0.0..=f64::MAX).contains(x))
        {
            return Err(Error::InvalidInput(
                "PMU tick counts must be finite and non-negative".into(),
            ));
        }
        self.total_time += dt;

        if self.multiplexing {
            // Only the active group's slots count this sub-tick. Its
            // counts and accumulators are one half of the event-indexed
            // arrays, slot order being event order (asserted at compile
            // time).
            let (a_counts, b_counts) = counts.split_at(SLOT_COUNT);
            let (a_acc, b_acc) = self.accumulated.split_at_mut(SLOT_COUNT);
            let [a_time, b_time] = &mut self.active_time;
            let (group_counts, group_acc, group_time) = match self.active_group {
                MuxGroup::A => (a_counts, a_acc, a_time),
                MuxGroup::B => (b_counts, b_acc, b_time),
            };
            let mut events = [0; SLOT_COUNT];
            for (n, &x) in events.iter_mut().zip(group_counts) {
                *n = round_count(x);
            }
            if self.device.pending_read_failures() > 0 {
                // An armed failure fails the tick's first read: slot
                // 0's, after its counter has counted.
                let [first, ..] = events;
                return Err(self.device.count_and_fail_first_read(first));
            }
            // No read can fail, so count every slot, then read every
            // counter back, as msr-tools would slot by slot.
            let now = self.device.count_all(&events);
            for ((acc, baseline), now) in group_acc.iter_mut().zip(&mut self.slot_baseline).zip(now)
            {
                // Counters are 48 bits wide: a mid-interval wrap makes
                // `now < baseline`, and the delta must be taken modulo
                // 2⁴⁸ (a plain u64 subtraction would inflate it by
                // 2⁶⁴ − 2⁴⁸).
                *acc += now.wrapping_sub(*baseline) & COUNTER_MASK;
                *baseline = now;
            }
            *group_time += dt;
            // Reprogram the slots for the other group. Every baseline
            // now equals its counter's value and programming does not
            // move counters, so no re-sync is needed.
            self.active_group = self.active_group.toggled();
            self.device.program_all(self.active_group.ctl());
        } else {
            if self.device.pending_read_failures() > 0 {
                // The ideal PMU counts outside the MSRs, but its tick
                // still reads them the way the multiplexed one does, so
                // an armed failure fails it on slot 0's read.
                return Err(self.device.count_and_fail_first_read(0));
            }
            for (acc, &x) in self.accumulated.iter_mut().zip(counts) {
                *acc += round_count(x);
            }
            for time in self.active_time.iter_mut() {
                *time += dt;
            }
        }
        Ok(())
    }

    /// Produces the extrapolated per-event counts for the elapsed
    /// period and resets the accumulators for the next interval.
    ///
    /// Each event's raw count is scaled by `total_time / active_time`
    /// — the standard multiplexing extrapolation. Events whose group
    /// never ran (possible for a 1-tick interval) report zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] when no time has elapsed since the
    /// last drain.
    pub fn drain_interval(&mut self) -> Result<EventCounts> {
        if self.total_time <= 0.0 {
            return Err(Error::Device(
                "drain_interval called with no elapsed time".into(),
            ));
        }
        let mut out = EventCounts::zero();
        for group in [MuxGroup::A, MuxGroup::B] {
            let active = self.active_time[group as usize];
            let scale = (active > 0.0).then(|| self.total_time / active);
            for event in group.events() {
                let estimate = scale.map_or(0.0, |s| self.accumulated[event.index()] as f64 * s);
                out.set(event, estimate);
            }
        }
        self.accumulated = [0; EVENT_COUNT];
        self.active_time = [0.0; 2];
        self.total_time = 0.0;
        Ok(out)
    }
}

impl Default for Pmu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ALL_EVENTS;
    use proptest::prelude::*;

    fn steady_counts(per_tick: f64) -> EventCounts {
        let mut c = EventCounts::zero();
        for e in ALL_EVENTS {
            c.set(e, per_tick);
        }
        c
    }

    #[test]
    fn groups_partition_the_events() {
        let mut all: Vec<EventId> = MuxGroup::A.events().into_iter().collect();
        all.extend(MuxGroup::B.events());
        all.sort();
        all.dedup();
        assert_eq!(all.len(), EVENT_COUNT);
        assert_eq!(MuxGroup::A.toggled(), MuxGroup::B);
        assert_eq!(MuxGroup::B.toggled(), MuxGroup::A);
    }

    #[test]
    fn steady_workload_extrapolates_exactly() {
        // With constant rates, ×2 extrapolation reconstructs the truth.
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        let counts = steady_counts(1000.0);
        for _ in 0..10 {
            pmu.tick(&counts, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!(
                (est.get(e) - 10_000.0).abs() < 1e-9,
                "{e}: {} != 10000",
                est.get(e)
            );
        }
    }

    #[test]
    fn alternating_phases_produce_multiplexing_error() {
        // Phase flips in lockstep with the mux schedule: group A only
        // ever sees the high phase. Extrapolation then overestimates.
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        for i in 0..10 {
            let c = if i % 2 == 0 {
                steady_counts(2000.0) // group A active
            } else {
                steady_counts(0.0) // group B active
            };
            pmu.tick(&c, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        // True per-interval count is 5*2000 = 10_000. Group A events
        // saw all of it and double it to 20_000; group B events saw none.
        let a_event = MuxGroup::A.events()[0];
        let b_event = MuxGroup::B.events()[0];
        assert!((est.get(a_event) - 20_000.0).abs() < 1e-9);
        assert_eq!(est.get(b_event), 0.0);
    }

    #[test]
    fn ideal_pmu_sees_everything() {
        let mut pmu = Pmu::new_ideal();
        assert!(!pmu.is_multiplexing());
        let dt = Seconds::new(0.020);
        for i in 0..10 {
            let c = if i % 2 == 0 {
                steady_counts(2000.0)
            } else {
                steady_counts(0.0)
            };
            pmu.tick(&c, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!((est.get(e) - 10_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn drain_resets_state() {
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        pmu.tick(&steady_counts(100.0), dt).unwrap();
        pmu.tick(&steady_counts(100.0), dt).unwrap();
        let _ = pmu.drain_interval().unwrap();
        assert!(pmu.drain_interval().is_err());
        pmu.tick(&steady_counts(50.0), dt).unwrap();
        pmu.tick(&steady_counts(50.0), dt).unwrap();
        let est = pmu.drain_interval().unwrap();
        // Two ticks, each group live one: raw 50 × extrapolation 2 = 100.
        assert!((est.get(EventId::RetiredUops) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tick_validates_inputs() {
        let mut pmu = Pmu::new();
        for dt in [0.0, -0.0, -0.02, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let ticked = pmu.tick(&steady_counts(1.0), Seconds::new(dt));
            assert!(
                matches!(ticked, Err(Error::InvalidInput(_))),
                "dt {dt}: {ticked:?}"
            );
        }
        // A rejected tick changes nothing.
        assert_eq!(pmu.active_group(), MuxGroup::A);
        assert!(pmu.drain_interval().is_err());
        assert!(pmu
            .tick(&steady_counts(1.0), Seconds::new(f64::MAX))
            .is_ok());
        for (value, valid) in [
            (f64::NAN, false),
            (-5.0, false),
            (f64::INFINITY, false),
            (-0.0, true),
            (f64::MAX, true),
        ] {
            let mut counts = steady_counts(1.0);
            counts.set(EventId::MabWaitCycles, value);
            let ticked = pmu.tick(&counts, Seconds::new(0.02));
            assert_eq!(ticked.is_ok(), valid, "count {value}");
        }
    }

    #[test]
    fn counter_wrap_mid_interval_extrapolates_correctly() {
        // Preload every counter 300 events below the 48-bit wrap
        // point: the first sub-ticks wrap the counters, and the
        // masked delta logic must still reconstruct the steady rate.
        let mut pmu = Pmu::new();
        pmu.preload_counters(COUNTER_MASK - 300);
        let dt = Seconds::new(0.020);
        let counts = steady_counts(1000.0);
        for _ in 0..10 {
            pmu.tick(&counts, dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!(
                (est.get(e) - 10_000.0).abs() < 1e-9,
                "{e} must survive the 48-bit wrap: {}",
                est.get(e)
            );
        }
    }

    #[test]
    fn counter_wrap_on_ideal_pmu_is_a_no_op() {
        // The ideal PMU bypasses the MSR path entirely; preloading
        // must not disturb it.
        let mut pmu = Pmu::new_ideal();
        pmu.preload_counters(COUNTER_MASK - 5);
        let dt = Seconds::new(0.020);
        for _ in 0..10 {
            pmu.tick(&steady_counts(1000.0), dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        assert!((est.get(EventId::RetiredUops) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn injected_read_failure_surfaces_and_reset_recovers() {
        let mut pmu = Pmu::new();
        let dt = Seconds::new(0.020);
        pmu.tick(&steady_counts(1000.0), dt).unwrap();
        pmu.msr_mut().inject_read_failures(1);
        let err = pmu.tick(&steady_counts(1000.0), dt).unwrap_err();
        assert!(matches!(err, Error::MsrReadFailed { .. }));
        assert!(err.is_transient());
        // The partial interval is poisoned; reset and run a clean one.
        pmu.reset_interval();
        for _ in 0..10 {
            pmu.tick(&steady_counts(500.0), dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!(
                (est.get(e) - 5_000.0).abs() < 1e-9,
                "{e} after recovery: {}",
                est.get(e)
            );
        }
    }

    #[test]
    fn injected_read_failure_fails_the_ideal_pmu_tick() {
        let mut pmu = Pmu::new_ideal();
        let dt = Seconds::new(0.020);
        pmu.tick(&steady_counts(1000.0), dt).unwrap();
        pmu.msr_mut().inject_read_failures(2);
        assert!(!pmu.is_quiet(), "an armed failure makes the PMU loud");
        for _ in 0..2 {
            let err = pmu.tick(&steady_counts(1000.0), dt).unwrap_err();
            assert_eq!(
                err,
                Error::MsrReadFailed {
                    msr: crate::msr::PERF_CTR_BASE
                }
            );
        }
        assert_eq!(pmu.msr().pending_read_failures(), 0);
        assert!(pmu.is_quiet());
        pmu.reset_interval();
        for _ in 0..10 {
            pmu.tick(&steady_counts(500.0), dt).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        for e in ALL_EVENTS {
            assert!((est.get(e) - 5_000.0).abs() < 1e-9, "{e}: {}", est.get(e));
        }
    }

    #[test]
    fn msr_device_reflects_programming() {
        let mut pmu = Pmu::new();
        // Slot 0 of group A must be programmed to Retired UOP.
        let (code, enabled) = pmu.msr().slot_config(0).unwrap();
        assert_eq!(code, EventId::RetiredUops.code());
        assert!(enabled);
        // Every tick reprograms all six slots for the other group.
        for group in [MuxGroup::B, MuxGroup::A] {
            pmu.tick(&steady_counts(1.0), Seconds::new(0.02)).unwrap();
            for (slot, event) in group.events().into_iter().enumerate() {
                assert_eq!(pmu.msr().slot_config(slot).unwrap(), (event.code(), true));
            }
        }
    }

    #[test]
    fn disabled_slot_counts_nothing() {
        // A slot disabled through the MSR interface neither counts nor
        // disturbs its neighbours until the next reprogramming.
        let mut pmu = Pmu::new();
        pmu.msr_mut()
            .program_slot(0, EventId::RetiredUops.code(), false)
            .unwrap();
        pmu.tick(&steady_counts(1000.0), Seconds::new(0.02))
            .unwrap();
        pmu.tick(&steady_counts(1000.0), Seconds::new(0.02))
            .unwrap();
        let est = pmu.drain_interval().unwrap();
        assert_eq!(est.get(EventId::RetiredUops), 0.0);
        assert!((est.get(EventId::FpuPipeAssignment) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn active_group_toggles_every_tick() {
        let mut pmu = Pmu::new();
        assert_eq!(pmu.active_group(), MuxGroup::A);
        pmu.tick(&steady_counts(1.0), Seconds::new(0.02)).unwrap();
        assert_eq!(pmu.active_group(), MuxGroup::B);
        pmu.tick(&steady_counts(1.0), Seconds::new(0.02)).unwrap();
        assert_eq!(pmu.active_group(), MuxGroup::A);
    }

    /// The rounding `round_count` replaces, verbatim.
    fn rounded(x: f64) -> u64 {
        x.round().max(0.0) as u64
    }

    /// What `tick` lets through to the rounding: finite and `>= 0`.
    fn validated(x: f64) -> bool {
        x.is_finite() && x >= 0.0
    }

    /// Points where rounding to an integer count is easy to get wrong:
    /// exact halves, the double just below one half, subnormals, -0.0,
    /// and where doubles stop having fractions (2⁵²) or leave the
    /// range of `i64` (2⁶³) and `u64` (2⁶⁴, saturating).
    const CORNERS: [f64; 13] = [
        0.0,
        -0.0,
        0.5,
        0.499_999_999_999_999_94,
        1.5,
        2.5,
        f64::MIN_POSITIVE,
        5e-324,
        4_503_599_627_370_496.0,
        9_223_372_036_854_775_808.0,
        18_446_744_073_709_551_616.0,
        f64::MAX,
        1e12 + 0.5,
    ];

    /// The double `steps` representable values past `x` (towards larger
    /// magnitude for positive steps).
    fn nudge(x: f64, steps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(steps))
    }

    #[test]
    fn round_count_matches_round_at_the_corners() {
        assert_eq!(round_count(0.499_999_999_999_999_94), 0);
        assert_eq!(round_count(2.5), 3);
        assert_eq!(round_count(-0.0), 0);
        assert_eq!(round_count(18_446_744_073_709_551_616.0), u64::MAX);
        for x in CORNERS {
            for y in (-3..=3)
                .map(|steps| nudge(x, steps))
                .filter(|&y| validated(y))
            {
                assert_eq!(round_count(y), rounded(y), "{y:e} ({:#x})", y.to_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `round_count` equals `round().max(0.0) as u64` bit for bit on
        /// every validated count: arbitrary non-negative bit patterns,
        /// values near every corner, fractional counts of simulated
        /// magnitude, and their exact halves.
        #[test]
        fn round_count_matches_round(
            bits in any::<u64>(),
            corner in 0usize..CORNERS.len(),
            steps in -4096i64..=4096,
            count in 0.0f64..1e10,
        ) {
            let candidates = [
                f64::from_bits(bits >> 1),
                nudge(CORNERS[corner], steps),
                count,
                count.trunc() + 0.5,
            ];
            for x in candidates.into_iter().filter(|&x| validated(x)) {
                prop_assert_eq!(round_count(x), rounded(x), "x = {:e} ({:#x})", x, x.to_bits());
            }
        }
    }
}
