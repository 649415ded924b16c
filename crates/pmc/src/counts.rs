//! Dense per-event count vectors.
//!
//! An [`EventCounts`] holds one `f64` per Table I event. Depending on
//! context it stores raw counts within an interval or per-second rates
//! (the `Ei` terms of Eq. 3 are per-second counts); the container is
//! agnostic and the conversion helpers are explicit.

use crate::events::{EventId, ALL_EVENTS, EVENT_COUNT};
use ppep_types::Seconds;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul};

/// A vector of values indexed by [`EventId`].
///
/// ```
/// use ppep_pmc::{EventCounts, EventId};
///
/// let mut c = EventCounts::zero();
/// c.set(EventId::CpuClocksNotHalted, 1.4e9);
/// c.set(EventId::RetiredInstructions, 1.0e9);
/// assert_eq!(c.cpi(), Some(1.4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EventCounts {
    values: [f64; EVENT_COUNT],
}

impl EventCounts {
    /// All-zero counts.
    pub const fn zero() -> Self {
        Self {
            values: [0.0; EVENT_COUNT],
        }
    }

    /// Builds from a full per-event array in Table I order.
    pub const fn from_array(values: [f64; EVENT_COUNT]) -> Self {
        Self { values }
    }

    /// The underlying array in Table I order.
    #[inline]
    pub const fn as_array(&self) -> &[f64; EVENT_COUNT] {
        &self.values
    }

    /// Value for one event.
    #[inline]
    pub fn get(&self, event: EventId) -> f64 {
        self.values[event.index()]
    }

    /// Sets the value for one event.
    #[inline]
    pub fn set(&mut self, event: EventId, value: f64) {
        self.values[event.index()] = value;
    }

    /// Converts interval counts to per-second rates.
    ///
    /// # Panics
    ///
    /// Panics when `dt` is not positive.
    #[must_use]
    pub fn to_rates(&self, dt: Seconds) -> Self {
        assert!(dt.as_secs() > 0.0, "interval must be positive");
        let mut out = *self;
        for v in out.values.iter_mut() {
            *v /= dt.as_secs();
        }
        out
    }

    /// Converts per-second rates to counts over `dt`.
    #[must_use]
    pub fn to_counts(&self, dt: Seconds) -> Self {
        let mut out = *self;
        for v in out.values.iter_mut() {
            *v *= dt.as_secs();
        }
        out
    }

    /// Per-instruction normalisation: each event divided by
    /// E11 (retired instructions). Returns `None` when no instructions
    /// retired, since per-instruction rates are then undefined.
    pub fn per_instruction(&self) -> Option<Self> {
        let inst = self.get(EventId::RetiredInstructions);
        if inst <= 0.0 {
            return None;
        }
        let mut out = *self;
        for v in out.values.iter_mut() {
            *v /= inst;
        }
        Some(out)
    }

    /// CPI: unhalted clocks (E10) over retired instructions (E11);
    /// `None` when no instructions retired.
    #[inline]
    pub fn cpi(&self) -> Option<f64> {
        let inst = self.get(EventId::RetiredInstructions);
        (inst > 0.0).then(|| self.get(EventId::CpuClocksNotHalted) / inst)
    }

    /// Memory CPI: MAB wait cycles (E12) over retired instructions.
    #[inline]
    pub fn mcpi(&self) -> Option<f64> {
        let inst = self.get(EventId::RetiredInstructions);
        (inst > 0.0).then(|| self.get(EventId::MabWaitCycles) / inst)
    }

    /// Dispatch stalls per instruction (E9 / E11).
    pub fn dispatch_stalls_per_inst(&self) -> Option<f64> {
        let inst = self.get(EventId::RetiredInstructions);
        (inst > 0.0).then(|| self.get(EventId::DispatchStalls) / inst)
    }

    /// The nine-element power-model vector (E1–E9 in order).
    pub fn power_model_vector(&self) -> [f64; 9] {
        [
            self.values[0],
            self.values[1],
            self.values[2],
            self.values[3],
            self.values[4],
            self.values[5],
            self.values[6],
            self.values[7],
            self.values[8],
        ]
    }

    /// Iterates `(event, value)` pairs in Table I order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, f64)> + '_ {
        ALL_EVENTS.iter().map(move |&e| (e, self.get(e)))
    }

    /// True when every entry is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// True when every entry is non-negative (counts cannot go
    /// backwards).
    pub fn is_non_negative(&self) -> bool {
        self.values.iter().all(|v| *v >= 0.0)
    }
}

impl Index<EventId> for EventCounts {
    type Output = f64;
    #[inline]
    fn index(&self, event: EventId) -> &f64 {
        &self.values[event.index()]
    }
}

impl IndexMut<EventId> for EventCounts {
    #[inline]
    fn index_mut(&mut self, event: EventId) -> &mut f64 {
        &mut self.values[event.index()]
    }
}

impl Add for EventCounts {
    type Output = Self;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl AddAssign for EventCounts {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.values.iter_mut().zip(&rhs.values) {
            *a += b;
        }
    }
}

impl Mul<f64> for EventCounts {
    type Output = Self;
    fn mul(mut self, rhs: f64) -> Self {
        for v in self.values.iter_mut() {
            *v *= rhs;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventCounts {
        let mut c = EventCounts::zero();
        c.set(EventId::CpuClocksNotHalted, 7.0e8);
        c.set(EventId::RetiredInstructions, 5.0e8);
        c.set(EventId::MabWaitCycles, 2.0e8);
        c.set(EventId::DispatchStalls, 1.0e8);
        c.set(EventId::RetiredUops, 6.0e8);
        c
    }

    #[test]
    fn get_set_index() {
        let mut c = sample();
        assert_eq!(c.get(EventId::RetiredUops), 6.0e8);
        c[EventId::RetiredUops] = 1.0;
        assert_eq!(c[EventId::RetiredUops], 1.0);
    }

    #[test]
    fn derived_ratios() {
        let c = sample();
        assert!((c.cpi().unwrap() - 1.4).abs() < 1e-12);
        assert!((c.mcpi().unwrap() - 0.4).abs() < 1e-12);
        assert!((c.dispatch_stalls_per_inst().unwrap() - 0.2).abs() < 1e-12);
        let zero = EventCounts::zero();
        assert_eq!(zero.cpi(), None);
        assert_eq!(zero.mcpi(), None);
        assert_eq!(zero.per_instruction(), None);
    }

    #[test]
    fn rate_count_round_trip() {
        let c = sample();
        let dt = Seconds::new(0.2);
        let rates = c.to_rates(dt);
        assert!((rates.get(EventId::RetiredInstructions) - 2.5e9).abs() < 1.0);
        let back = rates.to_counts(dt);
        for e in ALL_EVENTS {
            assert!((back.get(e) - c.get(e)).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = sample().to_rates(Seconds::new(0.0));
    }

    #[test]
    fn per_instruction_normalises_all_entries() {
        let c = sample();
        let pi = c.per_instruction().unwrap();
        assert!((pi.get(EventId::RetiredUops) - 1.2).abs() < 1e-12);
        assert!((pi.get(EventId::RetiredInstructions) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_model_vector_is_e1_through_e9() {
        let c = sample();
        let v = c.power_model_vector();
        assert_eq!(v.len(), 9);
        assert_eq!(v[0], c.get(EventId::RetiredUops));
        assert_eq!(v[8], c.get(EventId::DispatchStalls));
    }

    #[test]
    fn arithmetic() {
        let c = sample();
        let doubled = c + c;
        assert_eq!(doubled.get(EventId::RetiredUops), 1.2e9);
        let scaled = c * 0.5;
        assert_eq!(scaled.get(EventId::RetiredUops), 3.0e8);
        let mut acc = EventCounts::zero();
        acc += c;
        assert_eq!(acc, c);
    }

    #[test]
    fn validity_predicates() {
        let c = sample();
        assert!(c.is_finite());
        assert!(c.is_non_negative());
        let mut bad = c;
        bad.set(EventId::RetiredUops, f64::NAN);
        assert!(!bad.is_finite());
        let mut neg = c;
        neg.set(EventId::RetiredUops, -1.0);
        assert!(!neg.is_non_negative());
    }

    #[test]
    fn iter_visits_all_events_in_order() {
        let c = sample();
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs.len(), EVENT_COUNT);
        assert_eq!(pairs[0].0, EventId::RetiredUops);
        assert_eq!(pairs[11].0, EventId::MabWaitCycles);
    }
}
