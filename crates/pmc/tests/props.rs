//! Property tests for the PMC substrate.

use ppep_pmc::counter::{HwCounter, COUNTER_MASK};
use ppep_pmc::events::{EventId, ALL_EVENTS, EVENT_COUNT};
use ppep_pmc::msr::{decode_ctl, encode_ctl, MsrDevice, PERF_CTL_BASE, PERF_CTR_BASE, SLOT_COUNT};
use ppep_pmc::pmu::MuxGroup;
use ppep_pmc::sampler::{IntervalSample, IntervalSampler};
use ppep_pmc::{EventCounts, Pmu};
use ppep_types::{Error, Result, Seconds};
use proptest::prelude::*;

/// The multiplexed PMU ticked slot by slot: every tick counts and reads
/// back all six slots through the public MSR interface. It is the
/// oracle for `Pmu`'s multiplexing path.
struct PerSlotPmu {
    device: MsrDevice,
    group: MuxGroup,
    accumulated: [u64; EVENT_COUNT],
    active_time: [f64; 2],
    total_time: f64,
    baseline: [u64; SLOT_COUNT],
}

impl PerSlotPmu {
    fn new() -> Self {
        let mut pmu = Self {
            device: MsrDevice::new(),
            group: MuxGroup::A,
            accumulated: [0; EVENT_COUNT],
            active_time: [0.0; 2],
            total_time: 0.0,
            baseline: [0; SLOT_COUNT],
        };
        pmu.program_group();
        pmu.resync();
        pmu
    }

    fn program_group(&mut self) {
        for (slot, event) in self.group.events().into_iter().enumerate() {
            self.device.program_slot(slot, event.code(), true).unwrap();
        }
    }

    fn resync(&mut self) {
        for (slot, base) in self.baseline.iter_mut().enumerate() {
            *base = self.device.peek_slot(slot).unwrap();
        }
    }

    fn preload_counters(&mut self, raw: u64) {
        for slot in 0..SLOT_COUNT {
            self.device
                .wrmsr(PERF_CTR_BASE + 2 * slot as u32, raw)
                .unwrap();
        }
        self.resync();
    }

    fn reset_interval(&mut self) {
        self.accumulated = [0; EVENT_COUNT];
        self.active_time = [0.0; 2];
        self.total_time = 0.0;
        self.program_group();
        self.resync();
    }

    /// `Pmu::tick` for valid inputs (positive `dt`, finite counts
    /// `>= 0`), slot by slot.
    fn tick(&mut self, counts: &EventCounts, dt: f64) -> Result<()> {
        self.total_time += dt;
        for (slot, event) in self.group.events().into_iter().enumerate() {
            let events = counts.get(event).round().max(0.0) as u64;
            self.device.count_events(slot, events)?;
            let now = self.device.read_slot(slot)?;
            let delta = now.wrapping_sub(self.baseline[slot]) & COUNTER_MASK;
            self.baseline[slot] = now;
            self.accumulated[event.index()] += delta;
        }
        self.active_time[self.group as usize] += dt;
        self.group = self.group.toggled();
        self.program_group();
        Ok(())
    }

    fn drain_interval(&mut self) -> Result<EventCounts> {
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

/// SplitMix64: spreads one drawn word over the values an op needs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One event's count: ±0, a fraction that rounds to 0, a count at the
/// rounding edge, a fractional count (exact halves included), or a
/// large integral one.
fn count_value(h: u64) -> f64 {
    let v = h >> 8;
    match h % 6 {
        0 => 0.0,
        1 => -0.0,
        2 => (v % 1000) as f64 / 4000.0,
        3 => [0.499_999_999_999_999_94, 0.5, 0.75][(v % 3) as usize],
        4 => (v % 1_000_000_000) as f64 / 1000.0,
        _ => (v % (1 << 40)) as f64,
    }
}

/// A sub-tick's counts: all ±0, partly zero, or mixed.
fn tick_counts(word: u64) -> EventCounts {
    let mut counts = EventCounts::zero();
    for e in ALL_EVENTS {
        let h = mix(word ^ e.index() as u64);
        let value = match (word >> 4) % 3 {
            0 => [0.0, -0.0][(h & 1) as usize],
            1 if h & 0x100 != 0 => 0.0,
            _ => count_value(h >> 9),
        };
        counts.set(e, value);
    }
    counts
}

/// Two results must agree, errors in value and in text.
fn same_result<T: PartialEq + std::fmt::Debug>(
    new: &Result<T>,
    old: &Result<T>,
) -> std::result::Result<(), String> {
    let text = |r: &Result<T>| r.as_ref().map_err(ToString::to_string).err();
    if new != old || text(new) != text(old) {
        return Err(format!("{new:?} vs oracle {old:?}"));
    }
    Ok(())
}

/// What `ticks` calls of `IntervalSampler::tick` with all-zero counts
/// return: the last sample they close, or the first error.
fn tick_zeros(sampler: &mut IntervalSampler, ticks: usize) -> Result<Option<IntervalSample>> {
    let mut closed = None;
    for _ in 0..ticks {
        if let Some(sample) = sampler.tick(&EventCounts::zero())? {
            closed = Some(sample);
        }
    }
    Ok(closed)
}

/// A sampler's result with every f64 as its bits, so `-0.0` and NaN
/// compare exactly.
type SampleBits = Option<([u64; EVENT_COUNT], u64)>;

fn bits(ticked: Result<Option<IntervalSample>>) -> Result<SampleBits> {
    ticked.map(|closed| {
        closed.map(|s| {
            (
                s.counts.as_array().map(f64::to_bits),
                s.duration.as_secs().to_bits(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Counter deltas are exact for any starting point and any step
    /// that fits in 48 bits, including across wraparound.
    #[test]
    fn counter_delta_survives_wraparound(start in 0u64.., step in 0u64..COUNTER_MASK) {
        let mut c = HwCounter::with_value(start);
        let before = c.read();
        c.advance(step);
        prop_assert_eq!(c.delta_since(before), step);
    }

    /// CTL encode/decode round-trips every 12-bit event select.
    #[test]
    fn ctl_round_trip(code in 0u16..0x1000, enabled in any::<bool>()) {
        let (decoded, en) = decode_ctl(encode_ctl(code, enabled));
        prop_assert_eq!(decoded, code);
        prop_assert_eq!(en, enabled);
    }

    /// For steady per-tick rates, the two-group multiplexed PMU
    /// reconstructs the exact totals over any even number of ticks.
    #[test]
    fn steady_multiplexing_is_exact(
        per_tick in 1u32..1_000_000,
        tick_pairs in 1usize..12,
    ) {
        let mut counts = EventCounts::zero();
        for e in ALL_EVENTS {
            counts.set(e, per_tick as f64);
        }
        let mut pmu = Pmu::new();
        let ticks = tick_pairs * 2;
        for _ in 0..ticks {
            pmu.tick(&counts, Seconds::new(0.02)).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        let expected = per_tick as f64 * ticks as f64;
        for e in ALL_EVENTS {
            prop_assert!(
                (est.get(e) - expected).abs() < 1e-6,
                "{e}: {} vs {expected}",
                est.get(e)
            );
        }
    }

    /// The ideal PMU is exact for any (integer) rate pattern.
    #[test]
    fn ideal_pmu_is_exact_for_any_pattern(
        pattern in prop::collection::vec(0u32..100_000, 4..20),
    ) {
        let mut pmu = Pmu::new_ideal();
        let mut expected = 0.0;
        for v in &pattern {
            let mut counts = EventCounts::zero();
            counts.set(EventId::RetiredUops, *v as f64);
            pmu.tick(&counts, Seconds::new(0.02)).unwrap();
            expected += *v as f64;
        }
        let est = pmu.drain_interval().unwrap();
        prop_assert!((est.get(EventId::RetiredUops) - expected).abs() < 1e-6);
    }

    /// Multiplexed estimates are never negative and preserve zero:
    /// events that never fire report exactly zero.
    #[test]
    fn multiplexing_preserves_zero(
        active_rate in 1u32..1_000_000,
        ticks in 2usize..20,
    ) {
        let mut pmu = Pmu::new();
        let mut counts = EventCounts::zero();
        counts.set(EventId::RetiredUops, active_rate as f64);
        // MabWaitCycles stays zero throughout.
        for _ in 0..ticks {
            pmu.tick(&counts, Seconds::new(0.02)).unwrap();
        }
        let est = pmu.drain_interval().unwrap();
        prop_assert_eq!(est.get(EventId::MabWaitCycles), 0.0);
        prop_assert!(est.get(EventId::RetiredUops) >= 0.0);
    }

    /// Count/rate conversion round-trips for any positive interval.
    #[test]
    fn rate_count_round_trip(value in 0.0f64..1e12, dt in 0.001f64..10.0) {
        let mut c = EventCounts::zero();
        c.set(EventId::DataCacheAccesses, value);
        let dt = Seconds::new(dt);
        let back = c.to_rates(dt).to_counts(dt);
        let got = back.get(EventId::DataCacheAccesses);
        prop_assert!((got - value).abs() <= value * 1e-12 + 1e-9);
    }

    /// Skipping a silent tick's slot reads changes nothing: a `Pmu`
    /// and the per-slot oracle, driven through the same random script
    /// of ticks (all-zero, partly zero, fractional counts), armed read
    /// failures, preloads near the 2⁴⁸ wrap, raw counter and control
    /// writes, `count_events`, resets and drains, return the same
    /// `Result` from every tick and drain and keep the same registers.
    #[test]
    fn silent_ticks_match_the_per_slot_tick(
        script in prop::collection::vec(any::<u64>(), 1..160),
    ) {
        let mut new = Pmu::new();
        let mut old = PerSlotPmu::new();
        for &word in script.iter().chain(&[9]) {
            let arg = mix(word);
            let slot = (arg % SLOT_COUNT as u64) as usize;
            match word % 16 {
                0..=8 => {
                    let counts = tick_counts(arg);
                    let dt = 0.02 * (1 + (arg >> 60) % 3) as f64;
                    let ticked = new.tick(&counts, Seconds::new(dt));
                    same_result(&ticked, &old.tick(&counts, dt))?;
                }
                9 => {
                    let drained = new.drain_interval().map(|c| c.as_array().map(f64::to_bits));
                    let expected = old.drain_interval().map(|c| c.as_array().map(f64::to_bits));
                    same_result(&drained, &expected)?;
                }
                10 => {
                    let reads = 1 + (arg >> 8) as u32 % 3;
                    new.msr_mut().inject_read_failures(reads);
                    old.device.inject_read_failures(reads);
                }
                11 => {
                    let raw = COUNTER_MASK - (arg >> 8) % 3000;
                    new.preload_counters(raw);
                    old.preload_counters(raw);
                }
                12 => {
                    let address = PERF_CTR_BASE + 2 * slot as u32;
                    let raw = if arg & 0x100 != 0 { COUNTER_MASK - (arg >> 9) % 100 } else { arg >> 9 };
                    new.msr_mut().wrmsr(address, raw).unwrap();
                    old.device.wrmsr(address, raw).unwrap();
                }
                13 => {
                    let events = (arg >> 8) % 5000;
                    new.msr_mut().count_events(slot, events).unwrap();
                    old.device.count_events(slot, events).unwrap();
                }
                14 => {
                    let event = ALL_EVENTS[(arg >> 8) as usize % EVENT_COUNT];
                    let ctl = encode_ctl(event.code(), arg & 0x8000 != 0);
                    new.msr_mut().wrmsr(PERF_CTL_BASE + 2 * slot as u32, ctl).unwrap();
                    old.device.wrmsr(PERF_CTL_BASE + 2 * slot as u32, ctl).unwrap();
                }
                _ => {
                    new.reset_interval();
                    old.reset_interval();
                }
            }
            prop_assert_eq!(new.active_group(), old.group);
            prop_assert_eq!(new.msr().pending_read_failures(), old.device.pending_read_failures());
            for slot in 0..SLOT_COUNT {
                prop_assert_eq!(new.msr().peek_slot(slot).unwrap(), old.device.peek_slot(slot).unwrap());
                prop_assert_eq!(new.msr().slot_config(slot).unwrap(), old.device.slot_config(slot).unwrap());
            }
        }
    }

    /// Skipping silent sub-ticks changes nothing: two samplers driven
    /// through the same random script, one taking every run of
    /// all-zero sub-ticks through `tick_silent` (a whole interval, the
    /// rest of one, a run across interval ends, or a partial run then
    /// a reset, as an abandoned interval does) and one ticking them,
    /// return the same `Result` from every call and keep the same
    /// registers. The script mixes in busy ticks, armed read failures,
    /// preloads near the 2⁴⁸ wrap and raw `PERF_CTR`/`PERF_CTL`
    /// writes that move a counter off its baseline or disable a slot.
    #[test]
    fn skipped_silent_ticks_match_ticked_ones(
        script in prop::collection::vec(any::<u64>(), 1..160),
        ticks_per_interval in 1usize..=12,
        ideal in any::<bool>(),
    ) {
        let sampler = || {
            let pmu = if ideal { Pmu::new_ideal() } else { Pmu::new() };
            IntervalSampler::with_schedule(pmu, ticks_per_interval, Seconds::new(0.02))
        };
        let (mut skipping, mut ticking) = (sampler(), sampler());
        for &word in &script {
            let arg = mix(word);
            let slot = (arg % SLOT_COUNT as u64) as usize;
            match word % 12 {
                0..=3 => {
                    let counts = tick_counts(arg);
                    same_result(&bits(skipping.tick(&counts)), &bits(ticking.tick(&counts)))?;
                }
                4..=6 => {
                    let left = ticks_per_interval - ticking.ticks_seen();
                    let ticks = match (arg >> 8) % 3 {
                        0 => ticks_per_interval,
                        1 => left,
                        _ => (arg >> 10) as usize % (3 * ticks_per_interval + 1),
                    };
                    same_result(
                        &bits(skipping.tick_silent(ticks)),
                        &bits(tick_zeros(&mut ticking, ticks)),
                    )?;
                }
                7 => {
                    let ticks = (arg >> 8) as usize % (ticks_per_interval + 1);
                    same_result(
                        &bits(skipping.tick_silent(ticks)),
                        &bits(tick_zeros(&mut ticking, ticks)),
                    )?;
                    skipping.reset();
                    ticking.reset();
                }
                8 => {
                    let reads = 1 + (arg >> 8) as u32 % 3;
                    skipping.pmu_mut().msr_mut().inject_read_failures(reads);
                    ticking.pmu_mut().msr_mut().inject_read_failures(reads);
                }
                9 => {
                    let raw = COUNTER_MASK - (arg >> 8) % 3000;
                    skipping.pmu_mut().preload_counters(raw);
                    ticking.pmu_mut().preload_counters(raw);
                }
                10 => {
                    let address = PERF_CTR_BASE + 2 * slot as u32;
                    let raw = if arg & 0x100 != 0 { COUNTER_MASK - (arg >> 9) % 100 } else { arg >> 9 };
                    skipping.pmu_mut().msr_mut().wrmsr(address, raw).unwrap();
                    ticking.pmu_mut().msr_mut().wrmsr(address, raw).unwrap();
                }
                _ => {
                    let event = ALL_EVENTS[(arg >> 8) as usize % EVENT_COUNT];
                    let ctl = encode_ctl(event.code(), arg & 0x8000 != 0);
                    let address = PERF_CTL_BASE + 2 * slot as u32;
                    skipping.pmu_mut().msr_mut().wrmsr(address, ctl).unwrap();
                    ticking.pmu_mut().msr_mut().wrmsr(address, ctl).unwrap();
                }
            }
            prop_assert_eq!(skipping.ticks_seen(), ticking.ticks_seen());
            prop_assert_eq!(skipping.is_quiet(), ticking.is_quiet());
            let (new, old) = (skipping.pmu_mut().clone(), ticking.pmu_mut().clone());
            prop_assert_eq!(new.active_group(), old.active_group());
            prop_assert_eq!(new.msr().pending_read_failures(), old.msr().pending_read_failures());
            for slot in 0..SLOT_COUNT {
                prop_assert_eq!(new.msr().peek_slot(slot).unwrap(), old.msr().peek_slot(slot).unwrap());
                prop_assert_eq!(new.msr().slot_config(slot).unwrap(), old.msr().slot_config(slot).unwrap());
            }
        }
        // Whatever the script left accumulated drains the same.
        let drain = |s: &mut IntervalSampler| {
            s.pmu_mut().drain_interval().map(|c| c.as_array().map(f64::to_bits))
        };
        same_result(&drain(&mut skipping), &drain(&mut ticking))?;
    }
}
