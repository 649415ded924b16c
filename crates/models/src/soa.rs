//! Struct-of-arrays coefficient tables for the batch projection
//! kernel (`ppep-core::batch`).
//!
//! The Fig. 5 loop prices every (core, VF-state) cell per interval.
//! The scalar path re-derives per-state constants inside the inner
//! loop — most expensively `(Vn/V5)^α` — even though they depend only
//! on the trained model and the VF ladder. [`SoaCoeffs`] hoists those
//! constants into contiguous per-state arrays at engine-construction
//! time, so the hot loop is pure multiply–add over flat slices.
//!
//! **Bit-exactness contract:** every entry is produced by exactly the
//! float-op sequence the scalar path uses. `scaled_weights` holds
//! `scale * weight` per (state, core event); the scalar inner loop
//! computes `scale * weight * rate`, which Rust parses as
//! `(scale * weight) * rate`, so multiplying a precomputed product by
//! the rate yields the identical bits. The differential harness
//! (`tests/kernel_equivalence.rs`) pins this with `to_bits()`
//! equality over adversarial inputs.
//!
//! The table also holds what an idle cell costs: each state's Eq. 3
//! split of an all-zero rate vector, stored as the exact `Result` the
//! model returns for it, so a degenerate weight fails a table lookup
//! with the error the per-cell call would have raised.

use crate::dynamic::{DynamicPowerModel, DYN_EVENT_COUNT, NB_PROXY_START};
use ppep_types::{Result, VfTable, Volts, Watts};

/// Number of voltage-scaled core events (E1–E7) per VF state.
pub const CORE_EVENT_COUNT: usize = NB_PROXY_START;

/// Number of NB-proxy events (E8–E9) whose weights never scale.
pub const NB_EVENT_COUNT: usize = DYN_EVENT_COUNT - NB_PROXY_START;

/// Flattened per-VF-state coefficients for one (VF ladder, dynamic
/// model) pair: target frequencies, rail voltages, and pre-scaled
/// Eq. 3 core-event weights, each in ladder order (slowest first).
#[derive(Debug, Clone)]
pub struct SoaCoeffs {
    len: usize,
    /// Target frequency per state, in GHz (the Eq. 1 `f'`).
    to_ghz: Vec<f64>,
    /// Target frequency per state, in Hz (`as_hz()` of the point).
    to_hz: Vec<f64>,
    /// Rail voltage per state.
    voltage: Vec<Volts>,
    /// `(Vn/Vref)^α` per state.
    scale: Vec<f64>,
    /// Row-major `len × CORE_EVENT_COUNT`: `scale · Wdyn(i)` for the
    /// voltage-scaled events E1–E7.
    scaled_weights: Vec<f64>,
    /// The unscaled NB-proxy weights (E8, E9), shared by all states.
    nb_weights: [f64; NB_EVENT_COUNT],
    /// Per state, the Eq. 3 (core, NB) split of an idle cell's
    /// all-zero rate vector, or the error pricing it raises.
    idle_splits: Vec<Result<(Watts, Watts)>>,
    /// Whether every target frequency is positive.
    frequencies_positive: bool,
}

impl SoaCoeffs {
    /// Flattens `table` × `dynamic` into contiguous arrays.
    pub fn build(table: &VfTable, dynamic: &DynamicPowerModel) -> Self {
        let len = table.len();
        let mut to_ghz = Vec::with_capacity(len);
        let mut to_hz = Vec::with_capacity(len);
        let mut voltage = Vec::with_capacity(len);
        let mut scale = Vec::with_capacity(len);
        let mut scaled_weights = Vec::with_capacity(len * CORE_EVENT_COUNT);
        let weights = dynamic.weights();
        for (_, point) in table.iter() {
            to_ghz.push(point.frequency.as_ghz());
            to_hz.push(point.frequency.as_hz());
            voltage.push(point.voltage);
            let s = dynamic.voltage_scale(point.voltage);
            scale.push(s);
            for w in weights.iter().take(CORE_EVENT_COUNT) {
                scaled_weights.push(s * w);
            }
        }
        let mut nb_weights = [0.0; NB_EVENT_COUNT];
        for (dst, w) in nb_weights
            .iter_mut()
            .zip(weights.iter().skip(NB_PROXY_START))
        {
            *dst = *w;
        }
        let idle_splits = scaled_weights
            .chunks_exact(CORE_EVENT_COUNT)
            .map(|row| {
                dynamic.estimate_core_split_prescaled(&[0.0; DYN_EVENT_COUNT], row, &nb_weights)
            })
            .collect();
        let frequencies_positive = !to_ghz.iter().any(|f| *f <= 0.0);
        Self {
            len,
            to_ghz,
            to_hz,
            voltage,
            scale,
            scaled_weights,
            nb_weights,
            idle_splits,
            frequencies_positive,
        }
    }

    /// Number of VF states covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false for a table-derived plan (tables have ≥ 2 states).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Target frequencies in GHz, ladder order.
    #[inline]
    pub fn to_ghz(&self) -> &[f64] {
        &self.to_ghz
    }

    /// Target frequencies in Hz, ladder order.
    #[inline]
    pub fn to_hz(&self) -> &[f64] {
        &self.to_hz
    }

    /// Rail voltages, ladder order.
    pub fn voltages(&self) -> &[Volts] {
        &self.voltage
    }

    /// `(Vn/Vref)^α` per state, ladder order.
    pub fn scales(&self) -> &[f64] {
        &self.scale
    }

    /// The pre-scaled E1–E7 weight row for state index `vf`, or `None`
    /// out of range.
    pub fn scaled_weight_row(&self, vf: usize) -> Option<&[f64]> {
        let start = vf.checked_mul(CORE_EVENT_COUNT)?;
        self.scaled_weights.get(start..start + CORE_EVENT_COUNT)
    }

    /// Iterates the pre-scaled E1–E7 weight rows in ladder order.
    #[inline]
    pub fn scaled_weight_rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.scaled_weights.chunks_exact(CORE_EVENT_COUNT)
    }

    /// The unscaled NB-proxy weights (E8, E9).
    #[inline]
    pub fn nb_weights(&self) -> &[f64; NB_EVENT_COUNT] {
        &self.nb_weights
    }

    /// Per state, in ladder order, the Eq. 3 split of an idle cell:
    /// exactly what
    /// [`DynamicPowerModel::estimate_core_split_prescaled`] returns for
    /// an all-zero rate vector against that state's row, error
    /// included.
    #[inline]
    pub fn idle_splits(&self) -> &[Result<(Watts, Watts)>] {
        &self.idle_splits
    }

    /// Whether every target frequency is positive (never false for a
    /// validated [`VfTable`]; the kernel checks it in the per-cell
    /// order all the same).
    #[inline]
    pub fn frequencies_positive(&self) -> bool {
        self.frequencies_positive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DynamicPowerModel {
        let mut w = [0.0; DYN_EVENT_COUNT];
        for (i, wi) in w.iter_mut().enumerate() {
            *wi = (i as f64 + 1.0) * 1.0e-10;
        }
        DynamicPowerModel::from_parts(w, 1.6, Volts::new(1.320))
    }

    #[test]
    fn rows_match_the_scalar_scale_product_bitwise() {
        let table = VfTable::fx8320();
        let dynamic = model();
        let coeffs = SoaCoeffs::build(&table, &dynamic);
        assert_eq!(coeffs.len(), table.len());
        assert!(!coeffs.is_empty());
        for (i, (_, point)) in table.iter().enumerate() {
            let scale = dynamic.voltage_scale(point.voltage);
            assert_eq!(coeffs.scales()[i].to_bits(), scale.to_bits());
            assert_eq!(
                coeffs.to_ghz()[i].to_bits(),
                point.frequency.as_ghz().to_bits()
            );
            assert_eq!(
                coeffs.to_hz()[i].to_bits(),
                point.frequency.as_hz().to_bits()
            );
            let row = coeffs.scaled_weight_row(i).expect("row in range");
            for (j, sw) in row.iter().enumerate() {
                // The scalar path computes (scale * weight) * rate.
                assert_eq!(sw.to_bits(), (scale * dynamic.weights()[j]).to_bits());
            }
        }
        assert_eq!(coeffs.nb_weights()[0], dynamic.weights()[7]);
        assert_eq!(coeffs.nb_weights()[1], dynamic.weights()[8]);
        assert!(coeffs.scaled_weight_row(table.len()).is_none());
        assert!(coeffs.frequencies_positive());
    }

    #[test]
    fn idle_splits_are_the_zero_rate_split_errors_included() {
        let table = VfTable::fx8320();
        let mut weights = *model().weights();
        for poison in [None, Some(f64::NAN), Some(f64::INFINITY)] {
            if let Some(w) = poison {
                weights[7] = w;
            }
            let dynamic = DynamicPowerModel::from_parts(weights, 1.6, Volts::new(1.320));
            let coeffs = SoaCoeffs::build(&table, &dynamic);
            assert_eq!(coeffs.idle_splits().len(), table.len());
            for (i, split) in coeffs.idle_splits().iter().enumerate() {
                let row = coeffs.scaled_weight_row(i).expect("row in range");
                let want = dynamic.estimate_core_split_prescaled(
                    &[0.0; DYN_EVENT_COUNT],
                    row,
                    coeffs.nb_weights(),
                );
                match (split, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.0.as_watts().to_bits(), want.0.as_watts().to_bits());
                        assert_eq!(got.1.as_watts().to_bits(), want.1.as_watts().to_bits());
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => panic!("state {i}: {got:?} vs {want:?}"),
                }
                assert_eq!(split.is_err(), poison.is_some(), "state {i}");
            }
        }
    }

    #[test]
    fn prescaled_split_matches_the_reference_split() {
        let table = VfTable::fx8320();
        let dynamic = model();
        let coeffs = SoaCoeffs::build(&table, &dynamic);
        let rates: [f64; DYN_EVENT_COUNT] = [
            1.1e9, 2.0e8, 3.0e8, 4.0e8, 5.0e7, 6.0e7, 7.0e6, 8.0e7, 9.0e8,
        ];
        for (i, (_, point)) in table.iter().enumerate() {
            let reference = dynamic.estimate_core_split(&rates, point.voltage).unwrap();
            let row = coeffs.scaled_weight_row(i).expect("row in range");
            let fast = dynamic
                .estimate_core_split_prescaled(&rates, row, coeffs.nb_weights())
                .unwrap();
            assert_eq!(
                reference.0.as_watts().to_bits(),
                fast.0.as_watts().to_bits()
            );
            assert_eq!(
                reference.1.as_watts().to_bits(),
                fast.1.as_watts().to_bits()
            );
        }
    }
}
