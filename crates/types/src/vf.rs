//! Voltage-frequency (VF) state descriptions.
//!
//! The paper's main platform, the AMD FX-8320, exposes five
//! software-visible VF states per compute unit (§II):
//!
//! | State | Voltage | Frequency |
//! |-------|---------|-----------|
//! | VF5   | 1.320 V | 3.5 GHz   |
//! | VF4   | 1.242 V | 2.9 GHz   |
//! | VF3   | 1.128 V | 2.3 GHz   |
//! | VF2   | 1.008 V | 1.7 GHz   |
//! | VF1   | 0.888 V | 1.4 GHz   |
//!
//! A [`VfTable`] stores the ladder for a given chip; a [`VfStateId`] is
//! a validated index into that table. The secondary platform (AMD
//! Phenom™ II X6 1090T, four VF states, no power gating) gets its own
//! preset; its exact ladder is not printed in the paper, so we use a
//! plausible published P-state ladder (documented in `DESIGN.md`).

use crate::error::{Error, Result};
use crate::units::{Gigahertz, Volts};
use std::fmt;

/// One voltage-frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPoint {
    /// Core supply voltage at this state.
    pub voltage: Volts,
    /// Core clock frequency at this state.
    pub frequency: Gigahertz,
}

impl VfPoint {
    /// Creates an operating point.
    pub const fn new(voltage: Volts, frequency: Gigahertz) -> Self {
        Self { voltage, frequency }
    }
}

impl fmt::Display for VfPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.1})", self.voltage, self.frequency)
    }
}

/// Index of a VF state within a [`VfTable`].
///
/// Index 0 is the *lowest* state (the paper's VF1); larger indices are
/// faster states. Use [`VfStateId::paper_name`] to render the paper's
/// 1-based `VFn` naming. The `Default` value is the slowest state —
/// the safe fallback when a selection over an empty ladder has no
/// better answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VfStateId(pub(crate) usize);

impl VfStateId {
    /// The raw 0-based index (0 = slowest state).
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }

    /// The paper's name for this state: `VF1` for index 0, etc.
    pub fn paper_name(self) -> String {
        format!("VF{}", self.0 + 1)
    }
}

impl fmt::Display for VfStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` is safe here: no numeric precision is in play for a
        // short state name, and width/alignment pass through.
        f.pad(&format!("VF{}", self.0 + 1))
    }
}

/// The ladder of VF states supported by a chip, ordered slowest first.
///
/// ```
/// use ppep_types::VfTable;
///
/// let table = VfTable::fx8320();
/// let vf5 = table.highest();
/// assert_eq!(vf5.to_string(), "VF5");
/// assert_eq!(table.point(vf5).frequency.as_ghz(), 3.5);
/// // Fig. 3 evaluates all 25 ordered state pairs.
/// assert_eq!(table.state_pairs().len(), 25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfTable {
    points: Vec<VfPoint>,
}

impl VfTable {
    /// Builds a table from operating points ordered slowest-first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidVfTable`] if fewer than two points are
    /// given, or if voltages/frequencies are not strictly increasing or
    /// not positive.
    pub fn new(points: Vec<VfPoint>) -> Result<Self> {
        if points.len() < 2 {
            return Err(Error::InvalidVfTable(
                "a VF table needs at least two states".into(),
            ));
        }
        for p in &points {
            if p.voltage.as_volts() <= 0.0 || p.frequency.as_ghz() <= 0.0 {
                return Err(Error::InvalidVfTable(
                    "voltages and frequencies must be positive".into(),
                ));
            }
        }
        for w in points.windows(2) {
            if w[1].voltage <= w[0].voltage || w[1].frequency <= w[0].frequency {
                return Err(Error::InvalidVfTable(
                    "VF points must be strictly increasing in both voltage and frequency".into(),
                ));
            }
        }
        Ok(Self { points })
    }

    /// The AMD FX-8320 five-state ladder from §II of the paper.
    pub fn fx8320() -> Self {
        Self::new(vec![
            VfPoint::new(Volts::new(0.888), Gigahertz::new(1.4)), // VF1
            VfPoint::new(Volts::new(1.008), Gigahertz::new(1.7)), // VF2
            VfPoint::new(Volts::new(1.128), Gigahertz::new(2.3)), // VF3
            VfPoint::new(Volts::new(1.242), Gigahertz::new(2.9)), // VF4
            VfPoint::new(Volts::new(1.320), Gigahertz::new(3.5)), // VF5
        ])
        .expect("static FX-8320 table is valid")
    }

    /// The FX-8320 ladder *including* its two hardware boost states.
    ///
    /// The paper disables boosting because the stock boost controller
    /// is not software-controllable and would perturb the measurements
    /// (§II), but notes that a firmware PPEP "can also be used to
    /// control hardware boost states" (§IV-E). This seven-state table
    /// supports that extension: indices 5 and 6 are the boost points
    /// (the FX-8320's published 3.8/4.0 GHz turbo bins, with voltages
    /// extrapolated along the ladder).
    pub fn fx8320_with_boost() -> Self {
        Self::new(vec![
            VfPoint::new(Volts::new(0.888), Gigahertz::new(1.4)), // VF1
            VfPoint::new(Volts::new(1.008), Gigahertz::new(1.7)), // VF2
            VfPoint::new(Volts::new(1.128), Gigahertz::new(2.3)), // VF3
            VfPoint::new(Volts::new(1.242), Gigahertz::new(2.9)), // VF4
            VfPoint::new(Volts::new(1.320), Gigahertz::new(3.5)), // VF5
            VfPoint::new(Volts::new(1.368), Gigahertz::new(3.8)), // boost 1
            VfPoint::new(Volts::new(1.416), Gigahertz::new(4.0)), // boost 2
        ])
        .expect("static boosted FX-8320 table is valid")
    }

    /// Number of software-visible (non-boost) states on the FX-8320.
    pub const FX8320_SOFTWARE_STATES: usize = 5;

    /// A four-state ladder for the AMD Phenom™ II X6 1090T.
    ///
    /// The paper validates on this chip but does not print its VF
    /// values; this ladder follows typical published P-states for the
    /// part (see `DESIGN.md`, substitutions table).
    pub fn phenom_ii_x6() -> Self {
        Self::new(vec![
            VfPoint::new(Volts::new(1.025), Gigahertz::new(0.8)), // VF1
            VfPoint::new(Volts::new(1.150), Gigahertz::new(1.8)), // VF2
            VfPoint::new(Volts::new(1.275), Gigahertz::new(2.5)), // VF3
            VfPoint::new(Volts::new(1.400), Gigahertz::new(3.2)), // VF4
        ])
        .expect("static Phenom II table is valid")
    }

    /// Number of states in the ladder.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: a valid table has ≥ 2 states.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The state id for a raw index, if in range.
    pub fn state(&self, index: usize) -> Result<VfStateId> {
        if index < self.points.len() {
            Ok(VfStateId(index))
        } else {
            Err(Error::UnknownVfState {
                index,
                len: self.points.len(),
            })
        }
    }

    /// The slowest (lowest-power) state — the paper's VF1.
    #[inline]
    pub fn lowest(&self) -> VfStateId {
        VfStateId(0)
    }

    /// The fastest state — the paper's VF5 on the FX-8320.
    #[inline]
    pub fn highest(&self) -> VfStateId {
        VfStateId(self.points.len() - 1)
    }

    /// The operating point of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different, longer table.
    #[inline]
    pub fn point(&self, id: VfStateId) -> VfPoint {
        self.points[id.0]
    }

    /// One state slower, or `None` at the bottom of the ladder.
    pub fn step_down(&self, id: VfStateId) -> Option<VfStateId> {
        id.0.checked_sub(1).map(VfStateId)
    }

    /// One state faster, or `None` at the top of the ladder.
    pub fn step_up(&self, id: VfStateId) -> Option<VfStateId> {
        if id.0 + 1 < self.points.len() {
            Some(VfStateId(id.0 + 1))
        } else {
            None
        }
    }

    /// Iterates over all states, slowest first.
    #[inline]
    pub fn states(&self) -> impl DoubleEndedIterator<Item = VfStateId> + ExactSizeIterator {
        (0..self.points.len()).map(VfStateId)
    }

    /// Iterates over `(id, point)` pairs, slowest first.
    pub fn iter(&self) -> impl Iterator<Item = (VfStateId, VfPoint)> + '_ {
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| (VfStateId(i), *p))
    }

    /// All ordered `(from, to)` pairs of states, including `from == to`.
    ///
    /// Figure 3 of the paper evaluates cross-VF prediction on all 25
    /// such pairs of the FX-8320.
    pub fn state_pairs(&self) -> Vec<(VfStateId, VfStateId)> {
        let n = self.points.len();
        let mut pairs = Vec::with_capacity(n * n);
        // Paper order: VF5->VF5, VF5->VF4, ..., VF1->VF1 (fastest source first).
        for from in (0..n).rev() {
            for to in (0..n).rev() {
                pairs.push((VfStateId(from), VfStateId(to)));
            }
        }
        pairs
    }

    /// Frequency ratio `f(to) / f(from)` between two states.
    pub fn frequency_ratio(&self, from: VfStateId, to: VfStateId) -> f64 {
        self.point(to).frequency / self.point(from).frequency
    }

    /// Voltage ratio `V(to) / V(from)` between two states.
    pub fn voltage_ratio(&self, from: VfStateId, to: VfStateId) -> f64 {
        self.point(to).voltage / self.point(from).voltage
    }
}

/// The north-bridge operating point.
///
/// On the FX-8320 the NB (memory controller + L3) runs at a fixed
/// (1.175 V, 2.2 GHz) in all of the paper's measurements (§IV-B1). The
/// NB-DVFS study (§V-C2, Fig. 11) introduces a second, lower point at
/// (0.940 V, 1.1 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NbVfState {
    /// The stock north-bridge operating point (1.175 V, 2.2 GHz).
    #[default]
    High,
    /// The hypothetical low point of the Fig. 11 study (0.940 V, 1.1 GHz).
    Low,
}

impl NbVfState {
    /// The operating point for this NB state.
    pub fn point(self) -> VfPoint {
        match self {
            NbVfState::High => VfPoint::new(Volts::new(1.175), Gigahertz::new(2.2)),
            NbVfState::Low => VfPoint::new(Volts::new(0.940), Gigahertz::new(1.1)),
        }
    }
}

impl fmt::Display for NbVfState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NbVfState::High => write!(f, "NB-VF_hi"),
            NbVfState::Low => write!(f, "NB-VF_lo"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx8320_matches_paper_table() {
        let t = VfTable::fx8320();
        assert_eq!(t.len(), 5);
        let vf5 = t.point(t.highest());
        assert_eq!(vf5.voltage.as_volts(), 1.320);
        assert_eq!(vf5.frequency.as_ghz(), 3.5);
        let vf1 = t.point(t.lowest());
        assert_eq!(vf1.voltage.as_volts(), 0.888);
        assert_eq!(vf1.frequency.as_ghz(), 1.4);
        assert_eq!(t.highest().paper_name(), "VF5");
        assert_eq!(t.lowest().paper_name(), "VF1");
    }

    #[test]
    fn phenom_has_four_states() {
        let t = VfTable::phenom_ii_x6();
        assert_eq!(t.len(), 4);
        assert_eq!(t.highest().paper_name(), "VF4");
    }

    #[test]
    fn stepping_walks_the_ladder() {
        let t = VfTable::fx8320();
        let mut id = t.lowest();
        let mut seen = vec![id];
        while let Some(next) = t.step_up(id) {
            id = next;
            seen.push(id);
        }
        assert_eq!(seen.len(), 5);
        assert_eq!(id, t.highest());
        assert_eq!(t.step_up(id), None);
        assert_eq!(t.step_down(t.lowest()), None);
        assert_eq!(t.step_down(id), Some(VfStateId(3)));
    }

    #[test]
    fn state_pairs_cover_all_combinations_in_paper_order() {
        let t = VfTable::fx8320();
        let pairs = t.state_pairs();
        assert_eq!(pairs.len(), 25);
        // First pair in Fig. 3 is VF5->VF5.
        assert_eq!(pairs[0], (VfStateId(4), VfStateId(4)));
        // Last pair is VF1->VF1.
        assert_eq!(pairs[24], (VfStateId(0), VfStateId(0)));
        // All distinct.
        let mut dedup = pairs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 25);
    }

    #[test]
    fn ratios() {
        let t = VfTable::fx8320();
        let r = t.frequency_ratio(t.highest(), t.lowest());
        assert!((r - 1.4 / 3.5).abs() < 1e-12);
        let v = t.voltage_ratio(t.lowest(), t.highest());
        assert!((v - 1.320 / 0.888).abs() < 1e-12);
    }

    #[test]
    fn invalid_tables_rejected() {
        assert!(VfTable::new(vec![VfPoint::new(Volts::new(1.0), Gigahertz::new(1.0))]).is_err());
        // Non-monotonic frequency.
        assert!(VfTable::new(vec![
            VfPoint::new(Volts::new(1.0), Gigahertz::new(2.0)),
            VfPoint::new(Volts::new(1.1), Gigahertz::new(1.5)),
        ])
        .is_err());
        // Non-positive voltage.
        assert!(VfTable::new(vec![
            VfPoint::new(Volts::new(0.0), Gigahertz::new(1.0)),
            VfPoint::new(Volts::new(1.1), Gigahertz::new(1.5)),
        ])
        .is_err());
    }

    #[test]
    fn out_of_range_state_is_error() {
        let t = VfTable::fx8320();
        assert!(t.state(4).is_ok());
        assert!(t.state(5).is_err());
    }

    #[test]
    fn nb_states_match_study_parameters() {
        let hi = NbVfState::High.point();
        assert_eq!(hi.voltage.as_volts(), 1.175);
        assert_eq!(hi.frequency.as_ghz(), 2.2);
        let lo = NbVfState::Low.point();
        // The study drops voltage 20% and frequency 50%.
        assert!((lo.voltage.as_volts() - 0.94).abs() < 1e-12);
        assert!((lo.frequency.as_ghz() - 1.1).abs() < 1e-12);
        assert_eq!(NbVfState::default(), NbVfState::High);
    }
}
