//! Power-gating-aware idle decomposition (§IV-D, Fig. 4).
//!
//! With CU-level power gating, chip idle power is no longer monolithic:
//! a gated CU contributes (almost) nothing. The paper decomposes idle
//! power into per-CU, NB, and base parts by sweeping the number of
//! busy CUs running the `bench_a` microbenchmark with gating enabled
//! and disabled:
//!
//! * with `k < 4` busy CUs, the enabled/disabled power gap is
//!   `(4−k) · Pidle(CU)`;
//! * with 0 busy CUs the gap is `4·Pidle(CU) + Pidle(NB)` (the NB
//!   gates too);
//! * the gated-idle floor is `Pidle(Base)`.
//!
//! The per-core idle attribution then follows Eq. 7 (gating enabled)
//! and Eq. 8 (disabled).

use ppep_types::{Error, Result, VfStateId, Watts};

/// One measurement of the Fig. 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgSweepPoint {
    /// The (global) core VF state during the measurement.
    pub vf: VfStateId,
    /// Number of CUs busy running `bench_a`.
    pub busy_cus: usize,
    /// Whether power gating was enabled in the BIOS.
    pub pg_enabled: bool,
    /// Measured average chip power.
    pub power: Watts,
}

/// Idle power decomposed per VF state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgIdleEntry {
    /// Idle power of one (ungated) CU at this VF state.
    pub pidle_cu: Watts,
    /// Idle power of the (ungated) NB while cores sit at this VF state.
    pub pidle_nb: Watts,
}

/// The fitted decomposition: `Pidle(CU)` and `Pidle(NB)` per VF state
/// plus the VF-independent `Pidle(Base)`.
///
/// ```
/// use ppep_models::pg::{PgIdleEntry, PgIdleModel};
/// use ppep_types::{VfTable, Watts};
///
/// # fn main() -> ppep_types::Result<()> {
/// let entries = vec![PgIdleEntry {
///     pidle_cu: Watts::new(4.0),
///     pidle_nb: Watts::new(8.0),
/// }; 5];
/// let model = PgIdleModel::from_parts(entries, Watts::new(2.0), 4);
/// let vf5 = VfTable::fx8320().highest();
/// // Eq. 7: a core alone in its CU, one of two busy chip-wide.
/// let share = model.per_core_idle_pg_enabled(vf5, 1, 2)?;
/// assert!((share.as_watts() - (4.0 + (8.0 + 2.0) / 2.0)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PgIdleModel {
    entries: Vec<Option<PgIdleEntry>>,
    pidle_base: Watts,
    cu_count: usize,
}

impl PgIdleModel {
    /// Fits the decomposition from sweep measurements.
    ///
    /// Needs, for every VF state present: the `busy_cus = 0` points
    /// with gating enabled and disabled, and at least one intermediate
    /// `0 < k < cu_count` pair.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when required sweep points are
    /// missing or `cu_count` is zero.
    pub fn fit(points: &[PgSweepPoint], cu_count: usize) -> Result<Self> {
        if cu_count == 0 {
            return Err(Error::InvalidInput("cu_count must be positive".into()));
        }
        let max_vf = points
            .iter()
            .map(|p| p.vf.index())
            .max()
            .ok_or_else(|| Error::InvalidInput("PG fit needs sweep points".into()))?;

        let find = |vf: usize, k: usize, pg: bool| -> Result<f64> {
            points
                .iter()
                .find(|p| p.vf.index() == vf && p.busy_cus == k && p.pg_enabled == pg)
                .map(|p| p.power.as_watts())
                .ok_or_else(|| {
                    Error::InvalidInput(format!(
                        "missing sweep point: VF index {vf}, {k} busy CUs, pg={pg}"
                    ))
                })
        };

        // Base power: the gated, fully idle chip — averaged over VF
        // states since it is VF-independent by construction.
        let mut base_sum = 0.0;
        let mut base_n = 0;
        let mut entries: Vec<Option<PgIdleEntry>> = vec![None; max_vf + 1];
        #[allow(clippy::needless_range_loop)] // vf is also a lookup key below
        for vf in 0..=max_vf {
            if !points.iter().any(|p| p.vf.index() == vf) {
                continue; // VF state not swept; leave unfitted.
            }
            let idle_en = find(vf, 0, true)?;
            let idle_dis = find(vf, 0, false)?;
            // Pidle(CU) from intermediate busy counts: gap/(cu_count-k).
            let mut cu_sum = 0.0;
            let mut cu_n = 0;
            for k in 1..cu_count {
                if let (Ok(dis), Ok(en)) = (find(vf, k, false), find(vf, k, true)) {
                    cu_sum += (dis - en) / (cu_count - k) as f64;
                    cu_n += 1;
                }
            }
            if cu_n == 0 {
                return Err(Error::InvalidInput(format!(
                    "VF index {vf} has no intermediate busy-CU pair"
                )));
            }
            let pidle_cu = (cu_sum / cu_n as f64).max(0.0);
            // Idle-case gap = cu_count·Pidle(CU) + Pidle(NB).
            let pidle_nb = (idle_dis - idle_en - cu_count as f64 * pidle_cu).max(0.0);
            entries[vf] = Some(PgIdleEntry {
                pidle_cu: Watts::new(pidle_cu),
                pidle_nb: Watts::new(pidle_nb),
            });
            base_sum += idle_en;
            base_n += 1;
        }
        if base_n == 0 {
            return Err(Error::InvalidInput("no complete VF sweep present".into()));
        }
        Ok(Self {
            entries,
            pidle_base: Watts::new(base_sum / base_n as f64),
            cu_count,
        })
    }

    /// Builds a model from known parts.
    pub fn from_parts(entries: Vec<PgIdleEntry>, pidle_base: Watts, cu_count: usize) -> Self {
        Self {
            entries: entries.into_iter().map(Some).collect(),
            pidle_base,
            cu_count,
        }
    }

    /// The fitted entry for a VF state, or [`Error::NotTrained`] when
    /// that state was absent from the sweep.
    #[inline]
    fn entry(&self, vf: VfStateId) -> Result<PgIdleEntry> {
        self.entries
            .get(vf.index())
            .copied()
            .flatten()
            .ok_or_else(|| Error::NotTrained(format!("VF {vf} was not swept")))
    }

    /// `Pidle(CU)` at a VF state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotTrained`] for a VF state that was not part
    /// of the fitted sweep.
    #[inline]
    pub fn pidle_cu(&self, vf: VfStateId) -> Result<Watts> {
        self.entry(vf)?.pidle_cu.finite("Pidle(CU)")
    }

    /// `Pidle(NB)` at a VF state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotTrained`] for a VF state that was not part
    /// of the fitted sweep.
    #[inline]
    pub fn pidle_nb(&self, vf: VfStateId) -> Result<Watts> {
        self.entry(vf)?.pidle_nb.finite("Pidle(NB)")
    }

    /// The VF-independent `Pidle(Base)`.
    pub fn pidle_base(&self) -> Watts {
        self.pidle_base
    }

    /// Number of CUs the model was fitted for.
    pub fn cu_count(&self) -> usize {
        self.cu_count
    }

    /// True when every VF index in `0..ladder_len` was swept and
    /// fitted — required before per-state accessors can be called for
    /// the whole ladder (e.g. by the persistence layer).
    pub fn covers_ladder(&self, ladder_len: usize) -> bool {
        self.entries.len() >= ladder_len
            && self.entries.iter().take(ladder_len).all(Option::is_some)
    }

    /// Eq. 7 — per-core idle share with power gating **enabled**:
    /// `Pidle(CU)/m + (Pidle(NB) + Pidle(Base))/n`, where `m` is the
    /// number of busy cores in this core's CU and `n` the number of
    /// busy cores on the chip.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when `m` or `n` is zero or
    /// `m > n`.
    pub fn per_core_idle_pg_enabled(
        &self,
        vf: VfStateId,
        busy_in_cu: usize,
        busy_in_chip: usize,
    ) -> Result<Watts> {
        if busy_in_cu == 0 || busy_in_chip == 0 || busy_in_cu > busy_in_chip {
            return Err(Error::InvalidInput(format!(
                "invalid busy counts: m={busy_in_cu}, n={busy_in_chip}"
            )));
        }
        let cu = self.pidle_cu(vf)?.as_watts() / busy_in_cu as f64;
        let shared =
            (self.pidle_nb(vf)?.as_watts() + self.pidle_base.as_watts()) / busy_in_chip as f64;
        Watts::new(cu + shared).finite("eq7 per-core idle share")
    }

    /// Eq. 8 — per-core idle share with power gating **disabled**:
    /// the whole chip idle power, shared by the `n` busy cores.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when `n` is zero.
    pub fn per_core_idle_pg_disabled(&self, vf: VfStateId, busy_in_chip: usize) -> Result<Watts> {
        if busy_in_chip == 0 {
            return Err(Error::InvalidInput(
                "no busy cores to attribute power to".into(),
            ));
        }
        Watts::new(self.chip_idle_pg_disabled(vf)?.as_watts() / busy_in_chip as f64)
            .finite("eq8 per-core idle share")
    }

    /// Total chip idle power with gating disabled:
    /// `cu_count·Pidle(CU) + Pidle(NB) + Pidle(Base)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotTrained`] for a VF state that was not part
    /// of the fitted sweep.
    pub fn chip_idle_pg_disabled(&self, vf: VfStateId) -> Result<Watts> {
        Watts::new(
            self.cu_count as f64 * self.pidle_cu(vf)?.as_watts()
                + self.pidle_nb(vf)?.as_watts()
                + self.pidle_base.as_watts(),
        )
        .finite("chip idle power (PG disabled)")
    }

    /// Total chip idle power with gating enabled, given which CUs are
    /// active (per-CU VF states supported for the Fig. 7 study).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the slices mismatch.
    pub fn chip_idle_pg_enabled(&self, cu_active: &[bool], cu_vf: &[VfStateId]) -> Result<Watts> {
        self.chip_idle_pg_enabled_with(cu_active.iter().copied(), cu_vf.iter().copied())
    }

    /// [`chip_idle_pg_enabled`](Self::chip_idle_pg_enabled) with the
    /// per-CU activity flags and VF states drawn from iterators, so
    /// callers that derive them (a uniform assignment is
    /// `std::iter::repeat_n(vf, cus)`) need not collect them first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the lengths mismatch.
    pub fn chip_idle_pg_enabled_with(
        &self,
        cu_active: impl ExactSizeIterator<Item = bool>,
        cu_vf: impl ExactSizeIterator<Item = VfStateId>,
    ) -> Result<Watts> {
        if cu_active.len() != cu_vf.len() {
            return Err(Error::InvalidInput(
                "cu_active/cu_vf length mismatch".into(),
            ));
        }
        let mut w = self.pidle_base.as_watts();
        let mut max_vf: Option<VfStateId> = None;
        for (active, vf) in cu_active.zip(cu_vf) {
            if active {
                w += self.pidle_cu(vf)?.as_watts();
                max_vf = Some(max_vf.map_or(vf, |m| m.max(vf)));
            }
        }
        // The NB stays ungated while any CU is active, clocked by the
        // fastest active CU's VF state.
        if let Some(vf) = max_vf {
            w += self.pidle_nb(vf)?.as_watts();
        }
        Watts::new(w).finite("chip idle power (PG enabled)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CU: f64 = 4.8;
    const NB: f64 = 9.5;
    const BASE: f64 = 5.1;

    /// Synthesises an exact Fig. 4 sweep for one VF state with the
    /// given per-CU dynamic power of the busy benchmark.
    fn sweep(vf: usize, dyn_per_cu: f64) -> Vec<PgSweepPoint> {
        let vf = unsafe_vf(vf);
        let mut out = Vec::new();
        for k in 0..=4usize {
            let dynamic = k as f64 * dyn_per_cu;
            let disabled = 4.0 * CU + NB + BASE + dynamic;
            let enabled = if k == 0 {
                BASE
            } else {
                k as f64 * CU + NB + BASE + dynamic
            };
            out.push(PgSweepPoint {
                vf,
                busy_cus: k,
                pg_enabled: false,
                power: Watts::new(disabled),
            });
            out.push(PgSweepPoint {
                vf,
                busy_cus: k,
                pg_enabled: true,
                power: Watts::new(enabled),
            });
        }
        out
    }

    // VfStateId's field is crate-private in ppep-types; build through
    // the public table API instead.
    fn unsafe_vf(index: usize) -> VfStateId {
        ppep_types::VfTable::fx8320()
            .state(index)
            .expect("index < 5")
    }

    #[test]
    fn exact_sweep_recovers_components() {
        let mut points = sweep(4, 12.0);
        points.extend(sweep(0, 3.0));
        let model = PgIdleModel::fit(&points, 4).unwrap();
        for vf in [unsafe_vf(4), unsafe_vf(0)] {
            assert!((model.pidle_cu(vf).unwrap().as_watts() - CU).abs() < 1e-9);
            assert!((model.pidle_nb(vf).unwrap().as_watts() - NB).abs() < 1e-9);
        }
        // VF index 2 was not swept: the accessor reports it.
        assert!(model.pidle_cu(unsafe_vf(2)).is_err());
        assert!((model.pidle_base().as_watts() - BASE).abs() < 1e-9);
        assert_eq!(model.cu_count(), 4);
    }

    #[test]
    fn eq7_attribution() {
        let model = PgIdleModel::from_parts(
            vec![PgIdleEntry {
                pidle_cu: Watts::new(CU),
                pidle_nb: Watts::new(NB),
            }],
            Watts::new(BASE),
            4,
        );
        let vf = unsafe_vf(0);
        // One busy core alone on the chip: full CU + full shared.
        let solo = model.per_core_idle_pg_enabled(vf, 1, 1).unwrap().as_watts();
        assert!((solo - (CU + NB + BASE)).abs() < 1e-9);
        // Two cores in one CU, four busy total.
        let shared = model.per_core_idle_pg_enabled(vf, 2, 4).unwrap().as_watts();
        assert!((shared - (CU / 2.0 + (NB + BASE) / 4.0)).abs() < 1e-9);
        assert!(model.per_core_idle_pg_enabled(vf, 0, 4).is_err());
        assert!(model.per_core_idle_pg_enabled(vf, 5, 4).is_err());
    }

    #[test]
    fn eq8_attribution() {
        let model = PgIdleModel::from_parts(
            vec![PgIdleEntry {
                pidle_cu: Watts::new(CU),
                pidle_nb: Watts::new(NB),
            }],
            Watts::new(BASE),
            4,
        );
        let vf = unsafe_vf(0);
        let chip = model.chip_idle_pg_disabled(vf).unwrap().as_watts();
        assert!((chip - (4.0 * CU + NB + BASE)).abs() < 1e-9);
        let per = model.per_core_idle_pg_disabled(vf, 8).unwrap().as_watts();
        assert!((per - chip / 8.0).abs() < 1e-9);
        assert!(model.per_core_idle_pg_disabled(vf, 0).is_err());
    }

    #[test]
    fn chip_idle_pg_enabled_counts_active_cus() {
        let entries = vec![
            PgIdleEntry {
                pidle_cu: Watts::new(2.0),
                pidle_nb: Watts::new(8.0),
            },
            PgIdleEntry {
                pidle_cu: Watts::new(CU),
                pidle_nb: Watts::new(NB),
            },
        ];
        let model = PgIdleModel::from_parts(entries, Watts::new(BASE), 4);
        let hi = unsafe_vf(1);
        let lo = unsafe_vf(0);
        // Nothing active: base only.
        let idle = model
            .chip_idle_pg_enabled(&[false; 4], &[hi; 4])
            .unwrap()
            .as_watts();
        assert!((idle - BASE).abs() < 1e-9);
        // Two active CUs at mixed VF: their CU idles + NB (at max VF) + base.
        let mixed = model
            .chip_idle_pg_enabled(&[true, true, false, false], &[hi, lo, hi, hi])
            .unwrap()
            .as_watts();
        assert!((mixed - (CU + 2.0 + NB + BASE)).abs() < 1e-9);
        assert!(model.chip_idle_pg_enabled(&[true], &[hi, lo]).is_err());
    }

    #[test]
    fn fit_requires_complete_sweeps() {
        assert!(PgIdleModel::fit(&[], 4).is_err());
        let mut missing_idle = sweep(0, 3.0);
        missing_idle.retain(|p| !(p.busy_cus == 0 && p.pg_enabled));
        assert!(PgIdleModel::fit(&missing_idle, 4).is_err());
        let only_edges: Vec<PgSweepPoint> = sweep(0, 3.0)
            .into_iter()
            .filter(|p| p.busy_cus == 0 || p.busy_cus == 4)
            .collect();
        assert!(PgIdleModel::fit(&only_edges, 4).is_err());
        assert!(PgIdleModel::fit(&sweep(0, 3.0), 0).is_err());
    }

    #[test]
    fn noisy_sweep_still_close() {
        // ±0.3 W of alternating noise on each point.
        let mut points = sweep(2, 8.0);
        for (i, p) in points.iter_mut().enumerate() {
            let bump = if i % 2 == 0 { 0.3 } else { -0.3 };
            p.power = Watts::new(p.power.as_watts() + bump);
        }
        let model = PgIdleModel::fit(&points, 4).unwrap();
        let vf = unsafe_vf(2);
        assert!((model.pidle_cu(vf).unwrap().as_watts() - CU).abs() < 1.0);
        assert!((model.pidle_nb(vf).unwrap().as_watts() - NB).abs() < 3.0);
    }
}
