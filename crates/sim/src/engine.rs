//! Per-core execution: fingerprints → cycles, instructions, events.
//!
//! Given a thread's phase fingerprint and the core's operating
//! conditions, the engine computes how many instructions a sub-tick
//! retires and what the twelve Table I events count. The cycle
//! accounting follows the paper's Eq. 4 decomposition
//! (`unhalted = retiring + stall + discarded`), which is what makes
//! Observations 1 and 2 hold on the simulated chip the way they do on
//! the real one.

use ppep_pmc::events::EventId;
use ppep_pmc::EventCounts;
use ppep_types::{Seconds, VfPoint};
use ppep_workloads::PhaseFingerprint;
use rand::rngs::StdRng;
use rand::Rng;

/// The operating conditions a core executes under during one sub-tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionContext {
    /// The core's VF operating point.
    pub vf: VfPoint,
    /// Dispatch/issue width of the microarchitecture.
    pub issue_width: f64,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: f64,
    /// NB contention latency multiplier (≥ 1).
    pub contention: f64,
    /// NB-state latency factor (1.0 stock, 1.5 at the Fig. 11 low point).
    pub nb_latency_factor: f64,
}

/// What a fully-busy sub-tick would execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickPlan {
    /// Total CPI at these conditions.
    pub cpi: f64,
    /// The memory (MAB wait) part of [`cpi`](Self::cpi).
    pub memory_cpi: f64,
    /// Instructions the core can retire in the sub-tick.
    pub instructions: f64,
    /// Unhalted cycles available in the sub-tick.
    pub cycles: f64,
}

/// Plans a sub-tick: how many instructions fit into `dt` at the
/// context's frequency given the fingerprint's CPI.
///
/// # Panics
///
/// Panics (debug) if the fingerprint fails validation.
pub fn plan_subtick(fp: &PhaseFingerprint, ctx: &ExecutionContext, dt: Seconds) -> TickPlan {
    debug_assert!(fp.validate().is_ok());
    let memory_cpi = fp.memory_cpi(ctx.vf.frequency, ctx.contention, ctx.nb_latency_factor);
    // `PhaseFingerprint::total_cpi`, reusing the memory term.
    let cpi = fp.core_cpi(ctx.issue_width, ctx.mispredict_penalty) + memory_cpi;
    let cycles = ctx.vf.frequency.cycles_in(dt);
    TickPlan {
        cpi,
        memory_cpi,
        instructions: cycles / cpi,
        cycles,
    }
}

/// Computes the event counts produced by retiring `instructions`
/// instructions of this fingerprint at the CPIs of `plan`.
///
/// `jitter` adds per-event multiplicative noise (σ as a fraction;
/// pass 0 for exact counts) modelling cycle-level variability that the
/// fingerprint abstraction averages away.
pub fn event_counts(
    fp: &PhaseFingerprint,
    plan: &TickPlan,
    instructions: f64,
    jitter_sigma: f64,
    rng: &mut StdRng,
) -> EventCounts {
    let mut jitter = |v: f64| -> f64 {
        if jitter_sigma > 0.0 {
            (v * (1.0 + jitter_sigma * rng.gen_range(-1.732..1.732))).max(0.0)
        } else {
            v
        }
    };
    let mcpi = plan.memory_cpi;
    let stall_cpi = fp.dispatch_stall_cpi_with(mcpi);
    let total_cpi = plan.cpi;

    let mut c = EventCounts::zero();
    c.set(
        EventId::RetiredUops,
        jitter(fp.uops_per_inst * instructions),
    );
    c.set(
        EventId::FpuPipeAssignment,
        jitter(fp.fpu_per_inst * instructions),
    );
    c.set(
        EventId::InstructionCacheFetches,
        jitter(fp.icache_per_inst * instructions),
    );
    c.set(
        EventId::DataCacheAccesses,
        jitter(fp.dcache_per_inst * instructions),
    );
    c.set(
        EventId::RequestsToL2,
        jitter(fp.l2req_per_inst * instructions),
    );
    c.set(
        EventId::RetiredBranches,
        jitter(fp.branches_per_inst * instructions),
    );
    c.set(
        EventId::RetiredMispredictedBranches,
        jitter(fp.mispred_per_inst * instructions),
    );
    c.set(
        EventId::L2CacheMisses,
        jitter(fp.l2miss_per_inst * instructions),
    );
    c.set(EventId::DispatchStalls, jitter(stall_cpi * instructions));
    // The performance events are exact: clocks and retired counts are
    // architectural, not sampled estimates.
    c.set(EventId::CpuClocksNotHalted, total_cpi * instructions);
    c.set(EventId::RetiredInstructions, instructions);
    c.set(EventId::MabWaitCycles, mcpi * instructions);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_types::{Gigahertz, Volts};
    use rand::SeedableRng;

    /// `event_counts` at the CPIs `plan_subtick` plans for `ctx`.
    fn counts_at(
        fp: &PhaseFingerprint,
        ctx: &ExecutionContext,
        instructions: f64,
        jitter_sigma: f64,
        rng: &mut StdRng,
    ) -> EventCounts {
        let plan = plan_subtick(fp, ctx, Seconds::new(0.02));
        event_counts(fp, &plan, instructions, jitter_sigma, rng)
    }

    fn ctx(f: f64) -> ExecutionContext {
        ExecutionContext {
            vf: VfPoint::new(Volts::new(1.32), Gigahertz::new(f)),
            issue_width: 4.0,
            mispredict_penalty: 20.0,
            contention: 1.0,
            nb_latency_factor: 1.0,
        }
    }

    #[test]
    fn plan_fills_the_subtick_exactly() {
        let fp = PhaseFingerprint::default();
        let plan = plan_subtick(&fp, &ctx(3.5), Seconds::new(0.02));
        assert!((plan.cycles - 7.0e7).abs() < 1.0);
        assert!((plan.instructions * plan.cpi - plan.cycles).abs() < 1e-3);
    }

    #[test]
    fn lower_frequency_retires_fewer_instructions_but_better_cpi() {
        // Memory-bound work: CPI improves at low frequency (fewer
        // cycles wasted waiting), though wall-clock throughput drops.
        let fp = PhaseFingerprint {
            mcpi_ref: 1.5,
            ..Default::default()
        };
        let fast = plan_subtick(&fp, &ctx(3.5), Seconds::new(0.02));
        let slow = plan_subtick(&fp, &ctx(1.4), Seconds::new(0.02));
        assert!(slow.cpi < fast.cpi, "memory-bound CPI improves at low f");
        assert!(slow.instructions < fast.instructions);
        // But not proportionally to frequency: memory time is constant.
        let throughput_ratio = fast.instructions / slow.instructions;
        assert!(
            throughput_ratio < 3.5 / 1.4,
            "memory-bound speedup is sub-linear"
        );
    }

    #[test]
    fn cpu_bound_throughput_scales_linearly() {
        let fp = PhaseFingerprint {
            mcpi_ref: 0.0,
            ..Default::default()
        };
        let fast = plan_subtick(&fp, &ctx(3.5), Seconds::new(0.02));
        let slow = plan_subtick(&fp, &ctx(1.4), Seconds::new(0.02));
        let ratio = fast.instructions / slow.instructions;
        assert!(
            (ratio - 2.5).abs() < 1e-9,
            "CPU-bound scales with frequency"
        );
        assert!(
            (fast.cpi - slow.cpi).abs() < 1e-12,
            "CPU-bound CPI is VF-invariant"
        );
    }

    #[test]
    fn exact_counts_satisfy_eq4_identity() {
        // unhalted = retiring + stalls(core+mem overlap tweak) + discarded:
        // with the engine's construction, E10 = CPI·inst and
        // E9 + retire + discarded + unoverlapped mem = E10.
        let fp = PhaseFingerprint {
            mcpi_ref: 0.8,
            ..Default::default()
        };
        let c = ctx(2.3);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = counts_at(&fp, &c, 1.0e6, 0.0, &mut rng);
        let inst = counts.get(EventId::RetiredInstructions);
        let unhalted = counts.get(EventId::CpuClocksNotHalted);
        let stalls = counts.get(EventId::DispatchStalls);
        let retire = inst * fp.retire_cpi(c.issue_width);
        let discarded = inst * fp.discarded_cpi(c.mispredict_penalty);
        let mem = counts.get(EventId::MabWaitCycles);
        let unoverlapped = (1.0 - ppep_workloads::phase::MEMORY_STALL_OVERLAP) * mem;
        let reconstructed = retire + discarded + stalls + unoverlapped;
        assert!(
            (reconstructed - unhalted).abs() / unhalted < 1e-9,
            "Eq.4: {reconstructed} vs {unhalted}"
        );
    }

    #[test]
    fn observation_1_holds_exactly_without_jitter() {
        // Per-instruction E1-E8 independent of VF state.
        let fp = PhaseFingerprint {
            mcpi_ref: 1.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let hi = counts_at(&fp, &ctx(3.5), 1e6, 0.0, &mut rng);
        let lo = counts_at(&fp, &ctx(1.7), 2e6, 0.0, &mut rng);
        let hi_pi = hi.per_instruction().unwrap();
        let lo_pi = lo.per_instruction().unwrap();
        for e in [
            EventId::RetiredUops,
            EventId::FpuPipeAssignment,
            EventId::InstructionCacheFetches,
            EventId::DataCacheAccesses,
            EventId::RequestsToL2,
            EventId::RetiredBranches,
            EventId::RetiredMispredictedBranches,
            EventId::L2CacheMisses,
        ] {
            assert!(
                (hi_pi.get(e) - lo_pi.get(e)).abs() < 1e-12,
                "{e} per-inst differs across VF"
            );
        }
    }

    #[test]
    fn observation_2_gap_nearly_invariant() {
        let fp = PhaseFingerprint {
            mcpi_ref: 1.2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut gap = |f: f64| {
            let counts = counts_at(&fp, &ctx(f), 1e6, 0.0, &mut rng);
            counts.cpi().unwrap() - counts.dispatch_stalls_per_inst().unwrap()
        };
        let drift = (gap(3.5) - gap(1.7)).abs() / gap(3.5);
        assert!(drift < 0.1, "Obs.2 drift {drift}");
    }

    #[test]
    fn jitter_perturbs_only_sampled_events() {
        let fp = PhaseFingerprint::default();
        let c = ctx(3.5);
        let mut rng = StdRng::seed_from_u64(4);
        let exact = counts_at(&fp, &c, 1e6, 0.0, &mut rng);
        let noisy = counts_at(&fp, &c, 1e6, 0.01, &mut rng);
        // Architectural counts stay exact.
        assert_eq!(
            exact.get(EventId::RetiredInstructions),
            noisy.get(EventId::RetiredInstructions)
        );
        assert_eq!(
            exact.get(EventId::CpuClocksNotHalted),
            noisy.get(EventId::CpuClocksNotHalted)
        );
        // Activity counts jitter.
        assert_ne!(
            exact.get(EventId::RetiredUops),
            noisy.get(EventId::RetiredUops)
        );
        let rel = (noisy.get(EventId::RetiredUops) - exact.get(EventId::RetiredUops)).abs()
            / exact.get(EventId::RetiredUops);
        assert!(rel < 0.05);
    }

    #[test]
    fn contention_slows_memory_bound_work() {
        let fp = PhaseFingerprint {
            mcpi_ref: 1.5,
            ..Default::default()
        };
        let mut free = ctx(3.5);
        free.contention = 1.0;
        let mut jam = ctx(3.5);
        jam.contention = 2.0;
        let p_free = plan_subtick(&fp, &free, Seconds::new(0.02));
        let p_jam = plan_subtick(&fp, &jam, Seconds::new(0.02));
        assert!(p_jam.instructions < p_free.instructions);
        assert!(p_jam.cpi > p_free.cpi);
    }
}
