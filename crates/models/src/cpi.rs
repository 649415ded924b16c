//! The LL-MAB online CPI predictor (§III).
//!
//! Leading-loads predictors split execution into *core time*, which
//! scales with frequency, and *memory time*, which is wall-clock
//! constant. On AMD hardware the time an off-core access spends in the
//! highest-priority miss address buffer (MAB) approximates leading-load
//! time; PPEP reads it as E12 (*MAB Wait Cycles*). With
//!
//! ```text
//! CPI  = E10 / E11          (clocks per instruction)
//! MCPI = E12 / E11          (memory cycles per instruction)
//! CCPI = CPI − MCPI         (core cycles per instruction)
//! ```
//!
//! the CPI at another frequency `f'` is (Eq. 1):
//!
//! ```text
//! CPI(f') = CCPI(f) + MCPI(f) · f'/f
//! ```

use ppep_pmc::sampler::IntervalSample;
use ppep_types::{Error, Gigahertz, Result};

/// One interval's CPI decomposition, ready to be projected to other
/// frequencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiObservation {
    cpi: f64,
    mcpi: f64,
    frequency: Gigahertz,
}

impl CpiObservation {
    /// Builds an observation from the measured CPI, memory CPI, and
    /// the frequency the measurement was taken at.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when values are non-finite,
    /// non-positive (CPI), negative (MCPI), or `mcpi > cpi`.
    #[inline]
    pub fn new(cpi: f64, mcpi: f64, frequency: Gigahertz) -> Result<Self> {
        if !cpi.is_finite() || cpi <= 0.0 {
            return Err(Error::InvalidInput(format!(
                "CPI must be positive, got {cpi}"
            )));
        }
        if !mcpi.is_finite() || mcpi < 0.0 {
            return Err(Error::InvalidInput(format!(
                "MCPI must be >= 0, got {mcpi}"
            )));
        }
        if mcpi > cpi {
            return Err(Error::InvalidInput(format!(
                "memory CPI {mcpi} cannot exceed total CPI {cpi}"
            )));
        }
        if frequency.as_ghz() <= 0.0 {
            return Err(Error::InvalidInput("frequency must be positive".into()));
        }
        Ok(Self {
            cpi,
            mcpi,
            frequency,
        })
    }

    /// Extracts an observation from a PMU interval sample.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the sample retired no
    /// instructions (an idle core has no CPI), or when the multiplexed
    /// estimates are inconsistent (MCPI > CPI is clamped instead — the
    /// extrapolation can slightly overshoot — so only a zero
    /// instruction count errors here).
    #[inline]
    pub fn from_sample(sample: &IntervalSample, frequency: Gigahertz) -> Result<Self> {
        let cpi = sample
            .cpi()
            .ok_or_else(|| Error::InvalidInput("no instructions retired in interval".into()))?;
        let mcpi = sample.mcpi().unwrap_or(0.0).min(cpi);
        Self::new(cpi, mcpi, frequency)
    }

    /// Total CPI at the measurement frequency.
    #[inline]
    pub fn cpi(&self) -> f64 {
        self.cpi
    }

    /// Memory CPI at the measurement frequency.
    #[inline]
    pub fn mcpi(&self) -> f64 {
        self.mcpi
    }

    /// Core CPI (frequency-invariant part).
    #[inline]
    pub fn ccpi(&self) -> f64 {
        self.cpi - self.mcpi
    }

    /// The frequency the observation was taken at.
    pub fn frequency(&self) -> Gigahertz {
        self.frequency
    }

    /// Eq. 1: predicted CPI at frequency `target`.
    pub fn predict_cpi(&self, target: Gigahertz) -> f64 {
        self.ccpi() + self.mcpi * (target / self.frequency)
    }

    /// Predicted memory CPI at frequency `target` (scales with f).
    pub fn predict_mcpi(&self, target: Gigahertz) -> f64 {
        self.mcpi * (target / self.frequency)
    }

    /// Eq. 1 with an additional memory-latency factor: the §V-C2 NB
    /// study assumes leading-load cycles grow 50% at the low NB point,
    /// i.e. `memory_factor = 1.5`. With `memory_factor = 1.0` this is
    /// [`CpiObservation::predict_cpi`].
    pub fn predict_cpi_scaled(&self, target: Gigahertz, memory_factor: f64) -> f64 {
        self.ccpi() + self.predict_mcpi(target) * memory_factor
    }

    /// Predicted instructions-per-second at frequency `target`.
    pub fn predict_ips(&self, target: Gigahertz) -> f64 {
        target.as_hz() / self.predict_cpi(target)
    }

    /// Predicted speedup of moving from the observation frequency to
    /// `target` (wall-clock throughput ratio).
    pub fn predict_speedup(&self, target: Gigahertz) -> f64 {
        self.predict_ips(target) / (self.frequency.as_hz() / self.cpi)
    }

    /// Re-expresses this observation as if it had been measured at
    /// `target` — the round-trip primitive used by the event predictor.
    pub fn rebase(&self, target: Gigahertz) -> CpiObservation {
        CpiObservation {
            cpi: self.predict_cpi(target),
            mcpi: self.predict_mcpi(target),
            frequency: target,
        }
    }
}

/// Segment-aligned error measurement for whole-trace validation.
///
/// Comparing per-interval CPIs across frequencies is meaningless (the
/// program reaches different points at different speeds), so the paper
/// divides traces into *instruction-aligned segments* and compares
/// predicted versus actual cycles per segment (§III). Given two traces
/// of `(instructions, cpi, mcpi)` tuples for the same program at two
/// frequencies, this computes the per-segment relative cycle error.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] when either trace is empty or
/// `segment_instructions` is non-positive.
pub fn segment_aligned_errors(
    source: &[(f64, CpiObservation)],
    target: &[(f64, CpiObservation)],
    target_frequency: Gigahertz,
    segment_instructions: f64,
) -> Result<Vec<f64>> {
    if source.is_empty() || target.is_empty() {
        return Err(Error::InvalidInput("need non-empty traces".into()));
    }
    if segment_instructions <= 0.0 {
        return Err(Error::InvalidInput(
            "segment length must be positive".into(),
        ));
    }
    // Build cumulative (instructions -> cycles) curves for both the
    // prediction (source trace projected to the target frequency) and
    // the measurement (target trace as-is).
    let predicted = cumulative_cycles(source, |obs| obs.predict_cpi(target_frequency));
    let actual = cumulative_cycles(target, |obs| obs.cpi());

    let (total_pred, _) = predicted.last().copied().unwrap_or((0.0, 0.0));
    let (total_act, _) = actual.last().copied().unwrap_or((0.0, 0.0));
    let total_inst = total_pred.min(total_act);
    let mut errors = Vec::new();
    let mut boundary = segment_instructions;
    let mut prev_pred = 0.0;
    let mut prev_act = 0.0;
    while boundary <= total_inst {
        let pred_cum = interpolate(&predicted, boundary);
        let act_cum = interpolate(&actual, boundary);
        let pred_seg = pred_cum - prev_pred;
        let act_seg = act_cum - prev_act;
        if act_seg > 0.0 {
            errors.push((pred_seg - act_seg).abs() / act_seg);
        }
        prev_pred = pred_cum;
        prev_act = act_cum;
        boundary += segment_instructions;
    }
    if errors.is_empty() {
        return Err(Error::InvalidInput(
            "segment length exceeds the shorter trace".into(),
        ));
    }
    Ok(errors)
}

fn cumulative_cycles(
    trace: &[(f64, CpiObservation)],
    cycles_per_inst: impl Fn(&CpiObservation) -> f64,
) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(trace.len() + 1);
    let mut inst = 0.0;
    let mut cycles = 0.0;
    out.push((0.0, 0.0));
    for (n, obs) in trace {
        inst += n;
        cycles += n * cycles_per_inst(obs);
        out.push((inst, cycles));
    }
    out
}

fn interpolate(curve: &[(f64, f64)], x: f64) -> f64 {
    match curve.binary_search_by(|(xi, _)| xi.total_cmp(&x)) {
        Ok(i) => curve[i].1,
        Err(i) => match (i.checked_sub(1).and_then(|j| curve.get(j)), curve.get(i)) {
            (Some(&(x0, y0)), Some(&(x1, y1))) => y0 + (y1 - y0) * (x - x0) / (x1 - x0),
            // Off the left edge: clamp to the first point.
            (None, Some(&(_, y1))) => y1,
            // Off the right edge (or an empty curve): clamp to the last.
            _ => curve.last().map_or(0.0, |p| p.1),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(f: f64) -> Gigahertz {
        Gigahertz::new(f)
    }

    #[test]
    fn eq1_matches_hand_computation() {
        let obs = CpiObservation::new(2.0, 1.2, ghz(3.5)).unwrap();
        assert_eq!(obs.ccpi(), 0.8);
        // At 1.7 GHz: 0.8 + 1.2*1.7/3.5.
        let p = obs.predict_cpi(ghz(1.7));
        assert!((p - (0.8 + 1.2 * 1.7 / 3.5)).abs() < 1e-12);
        // At the same frequency prediction is identity.
        assert!((obs.predict_cpi(ghz(3.5)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_is_identity() {
        let obs = CpiObservation::new(1.5, 0.6, ghz(2.9)).unwrap();
        let there = obs.rebase(ghz(1.4));
        let back = there.rebase(ghz(2.9));
        assert!((back.cpi() - obs.cpi()).abs() < 1e-12);
        assert!((back.mcpi() - obs.mcpi()).abs() < 1e-12);
    }

    #[test]
    fn cpu_bound_cpi_is_frequency_invariant() {
        let obs = CpiObservation::new(0.9, 0.0, ghz(3.5)).unwrap();
        for f in [1.4, 1.7, 2.3, 2.9, 3.5] {
            assert!((obs.predict_cpi(ghz(f)) - 0.9).abs() < 1e-12);
        }
        // Speedup is then proportional to frequency.
        assert!((obs.predict_speedup(ghz(1.75)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_speedup_saturates() {
        let obs = CpiObservation::new(3.0, 2.5, ghz(3.5)).unwrap();
        let speedup = obs.predict_speedup(ghz(1.4));
        // Perfect scaling would be 0.4; memory-bound work keeps more.
        assert!(speedup > 0.6, "memory-bound slowdown is mild: {speedup}");
        assert!(speedup < 1.0);
    }

    #[test]
    fn validation_errors() {
        assert!(CpiObservation::new(0.0, 0.0, ghz(3.5)).is_err());
        assert!(CpiObservation::new(-1.0, 0.0, ghz(3.5)).is_err());
        assert!(CpiObservation::new(1.0, -0.1, ghz(3.5)).is_err());
        assert!(CpiObservation::new(1.0, 1.5, ghz(3.5)).is_err());
        assert!(CpiObservation::new(1.0, 0.5, ghz(0.0)).is_err());
        assert!(CpiObservation::new(f64::NAN, 0.5, ghz(3.5)).is_err());
    }

    #[test]
    fn from_sample_requires_instructions() {
        use ppep_pmc::{EventCounts, EventId};
        let mut counts = EventCounts::zero();
        let empty = IntervalSample {
            counts,
            duration: ppep_types::Seconds::new(0.2),
        };
        assert!(CpiObservation::from_sample(&empty, ghz(3.5)).is_err());
        counts.set(EventId::RetiredInstructions, 1000.0);
        counts.set(EventId::CpuClocksNotHalted, 1500.0);
        counts.set(EventId::MabWaitCycles, 2000.0); // overshoot -> clamped
        let s = IntervalSample {
            counts,
            duration: ppep_types::Seconds::new(0.2),
        };
        let obs = CpiObservation::from_sample(&s, ghz(3.5)).unwrap();
        assert_eq!(obs.mcpi(), obs.cpi(), "MCPI clamped to CPI");
    }

    #[test]
    fn segment_alignment_on_exact_traces() {
        // A program with two 1e6-instruction intervals at 3.5 GHz and
        // (because it runs slower) more intervals at 1.4 GHz, but the
        // same physics. Prediction should be near-exact.
        let hi_obs = CpiObservation::new(2.0, 1.2, ghz(3.5)).unwrap();
        let lo_obs = hi_obs.rebase(ghz(1.4));
        let hi_trace = vec![(1.0e6, hi_obs); 4];
        let lo_trace = vec![(1.0e6, lo_obs); 4];
        let errors = segment_aligned_errors(&hi_trace, &lo_trace, ghz(1.4), 5.0e5).unwrap();
        assert!(!errors.is_empty());
        for e in errors {
            assert!(e < 1e-9, "exact traces predict exactly, err {e}");
        }
    }

    #[test]
    fn segment_alignment_detects_model_violations() {
        // Target trace where CPI does NOT follow the leading-loads law
        // (e.g. bandwidth saturation): errors must be visible.
        let hi_obs = CpiObservation::new(2.0, 1.2, ghz(3.5)).unwrap();
        let wrong = CpiObservation::new(2.4, 0.48, ghz(1.4)).unwrap(); // actual CPI higher than predicted
        let errors =
            segment_aligned_errors(&[(1.0e6, hi_obs); 4], &[(1.0e6, wrong); 4], ghz(1.4), 5.0e5)
                .unwrap();
        let predicted_cpi = hi_obs.predict_cpi(ghz(1.4));
        let expected_err = (predicted_cpi - 2.4_f64).abs() / 2.4;
        for e in errors {
            assert!((e - expected_err).abs() < 1e-9);
        }
    }

    #[test]
    fn segment_alignment_validation() {
        let obs = CpiObservation::new(1.0, 0.0, ghz(3.5)).unwrap();
        assert!(segment_aligned_errors(&[], &[(1.0, obs)], ghz(1.4), 1.0).is_err());
        assert!(segment_aligned_errors(&[(1.0, obs)], &[(1.0, obs)], ghz(1.4), 0.0).is_err());
        // Segment longer than trace.
        assert!(segment_aligned_errors(&[(1.0, obs)], &[(1.0, obs)], ghz(1.4), 100.0).is_err());
    }
}
