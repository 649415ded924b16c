//! Thread programs: looping sequences of fingerprinted phases.
//!
//! A [`ThreadProgram`] is a benchmark as one hardware thread sees it —
//! an ordered list of phases, each with a fingerprint and a length in
//! retired instructions. A [`ThreadCursor`] tracks a running thread's
//! position; the simulator advances it by the instructions it executes
//! each sub-tick. Programs either loop forever (steady-state
//! measurement, the common case for training) or finish after a fixed
//! number of instructions (short benchmarks like `dedup`/`IS`, which
//! the paper calls out as poorly represented by training data).

use crate::phase::PhaseFingerprint;
use ppep_types::{Error, Result};

/// One phase of a thread program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Microarchitectural fingerprint during this phase.
    pub fingerprint: PhaseFingerprint,
    /// Length of the phase in retired instructions.
    pub instructions: f64,
}

/// A benchmark's behaviour on one thread.
///
/// ```
/// use ppep_workloads::program::{Phase, ThreadProgram};
/// use ppep_workloads::PhaseFingerprint;
///
/// # fn main() -> ppep_types::Result<()> {
/// let phase = Phase { fingerprint: PhaseFingerprint::default(), instructions: 100.0 };
/// let program = ThreadProgram::looping(vec![phase])?;
/// let mut cursor = program.start();
/// cursor.advance(&program, 250.0); // wraps around the loop
/// assert_eq!(cursor.retired_instructions(), 250.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProgram {
    phases: Vec<Phase>,
    /// Total instructions to retire before the thread completes;
    /// `None` loops forever.
    total_instructions: Option<f64>,
}

impl ThreadProgram {
    /// Builds a looping program from phases.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `phases` is empty, any
    /// phase has a non-positive length, or a fingerprint is invalid.
    pub fn looping(phases: Vec<Phase>) -> Result<Self> {
        Self::validate_phases(&phases)?;
        Ok(Self {
            phases,
            total_instructions: None,
        })
    }

    /// Builds a program that terminates after `total_instructions`.
    ///
    /// # Errors
    ///
    /// Same as [`ThreadProgram::looping`], plus a non-positive total.
    pub fn finite(phases: Vec<Phase>, total_instructions: f64) -> Result<Self> {
        Self::validate_phases(&phases)?;
        if total_instructions <= 0.0 || !total_instructions.is_finite() {
            return Err(Error::InvalidConfig(
                "total instructions must be positive".into(),
            ));
        }
        Ok(Self {
            phases,
            total_instructions: Some(total_instructions),
        })
    }

    fn validate_phases(phases: &[Phase]) -> Result<()> {
        if phases.is_empty() {
            return Err(Error::InvalidConfig(
                "a program needs at least one phase".into(),
            ));
        }
        for (i, p) in phases.iter().enumerate() {
            if p.instructions <= 0.0 || !p.instructions.is_finite() {
                return Err(Error::InvalidConfig(format!(
                    "phase {i} must have a positive instruction count"
                )));
            }
            p.fingerprint.validate()?;
        }
        Ok(())
    }

    /// The phases of this program.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total instruction budget, `None` for a looping program.
    pub fn total_instructions(&self) -> Option<f64> {
        self.total_instructions
    }

    /// Length of one pass through all phases, in instructions.
    pub fn loop_length(&self) -> f64 {
        self.phases.iter().map(|p| p.instructions).sum()
    }

    /// Instruction-weighted average of a fingerprint field over one
    /// loop, e.g. to classify memory-boundedness.
    pub fn mean_mcpi_ref(&self) -> f64 {
        let total = self.loop_length();
        self.phases
            .iter()
            .map(|p| p.fingerprint.mcpi_ref * p.instructions)
            .sum::<f64>()
            / total
    }

    /// Starts a cursor at the beginning of the program.
    pub fn start(&self) -> ThreadCursor {
        ThreadCursor {
            phase_index: 0,
            into_phase: 0.0,
            retired_total: 0.0,
            finished: false,
        }
    }
}

/// A running thread's position within its program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadCursor {
    phase_index: usize,
    into_phase: f64,
    retired_total: f64,
    finished: bool,
}

impl ThreadCursor {
    /// The fingerprint governing the thread right now.
    ///
    /// Finished threads report the last phase's fingerprint (they are
    /// idle; the simulator checks [`ThreadCursor::is_finished`]).
    #[inline]
    pub fn fingerprint<'p>(&self, program: &'p ThreadProgram) -> &'p PhaseFingerprint {
        let idx = self.phase_index.min(program.phases.len() - 1);
        &program.phases[idx].fingerprint
    }

    /// Instructions retired so far.
    pub fn retired_instructions(&self) -> f64 {
        self.retired_total
    }

    /// Whether a finite program has run to completion.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Index of the current phase.
    pub fn phase_index(&self) -> usize {
        self.phase_index
    }

    /// Advances the cursor by `instructions` retired instructions,
    /// moving across phase boundaries (and loop restarts) as needed.
    /// Returns the number of instructions actually retired, which is
    /// smaller than requested only when a finite program completes.
    #[inline]
    pub fn advance(&mut self, program: &ThreadProgram, instructions: f64) -> f64 {
        if self.finished || instructions <= 0.0 {
            return 0.0;
        }
        let mut budget = instructions;
        if let Some(total) = program.total_instructions {
            budget = budget.min(total - self.retired_total);
        }
        let executed = budget;
        let mut remaining = budget;
        while remaining > 0.0 {
            let phase = &program.phases[self.phase_index];
            let left_in_phase = phase.instructions - self.into_phase;
            if remaining < left_in_phase {
                self.into_phase += remaining;
                remaining = 0.0;
            } else {
                remaining -= left_in_phase;
                self.into_phase = 0.0;
                self.phase_index += 1;
                if self.phase_index == program.phases.len() {
                    self.phase_index = 0; // loop
                }
            }
        }
        self.retired_total += executed;
        if let Some(total) = program.total_instructions {
            if self.retired_total >= total - 1e-6 {
                self.finished = true;
            }
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase_program() -> ThreadProgram {
        let a = Phase {
            fingerprint: PhaseFingerprint {
                mcpi_ref: 0.0,
                ..Default::default()
            },
            instructions: 100.0,
        };
        let b = Phase {
            fingerprint: PhaseFingerprint {
                mcpi_ref: 2.0,
                ..Default::default()
            },
            instructions: 50.0,
        };
        ThreadProgram::looping(vec![a, b]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(ThreadProgram::looping(vec![]).is_err());
        let bad_len = Phase {
            fingerprint: PhaseFingerprint::default(),
            instructions: 0.0,
        };
        assert!(ThreadProgram::looping(vec![bad_len]).is_err());
        let bad_fp = PhaseFingerprint {
            uops_per_inst: 0.1,
            ..Default::default()
        };
        let p = Phase {
            fingerprint: bad_fp,
            instructions: 10.0,
        };
        assert!(ThreadProgram::looping(vec![p]).is_err());
        let ok = Phase {
            fingerprint: PhaseFingerprint::default(),
            instructions: 10.0,
        };
        assert!(ThreadProgram::finite(vec![ok], 0.0).is_err());
        assert!(ThreadProgram::finite(vec![ok], f64::INFINITY).is_err());
    }

    #[test]
    fn cursor_walks_phases_and_loops() {
        let prog = two_phase_program();
        let mut cur = prog.start();
        assert_eq!(cur.phase_index(), 0);
        cur.advance(&prog, 99.0);
        assert_eq!(cur.phase_index(), 0);
        cur.advance(&prog, 2.0); // crosses into phase 1
        assert_eq!(cur.phase_index(), 1);
        assert_eq!(cur.fingerprint(&prog).mcpi_ref, 2.0);
        cur.advance(&prog, 49.0); // exactly completes phase 1 -> loops
        assert_eq!(cur.phase_index(), 0);
        assert_eq!(cur.retired_instructions(), 150.0);
        assert!(!cur.is_finished());
    }

    #[test]
    fn advance_spanning_multiple_loops() {
        let prog = two_phase_program(); // loop length 150
        let mut cur = prog.start();
        let executed = cur.advance(&prog, 375.0); // 2.5 loops
        assert_eq!(executed, 375.0);
        // 375 = 2*150 + 75 -> 75 into phase 0 (length 100).
        assert_eq!(cur.phase_index(), 0);
        assert_eq!(cur.fingerprint(&prog).mcpi_ref, 0.0);
    }

    #[test]
    fn finite_program_terminates_exactly() {
        let phase = Phase {
            fingerprint: PhaseFingerprint::default(),
            instructions: 100.0,
        };
        let prog = ThreadProgram::finite(vec![phase], 250.0).unwrap();
        let mut cur = prog.start();
        assert_eq!(cur.advance(&prog, 200.0), 200.0);
        assert!(!cur.is_finished());
        // Only 50 left.
        assert_eq!(cur.advance(&prog, 200.0), 50.0);
        assert!(cur.is_finished());
        assert_eq!(cur.retired_instructions(), 250.0);
        // Further advances are no-ops.
        assert_eq!(cur.advance(&prog, 10.0), 0.0);
        assert_eq!(cur.retired_instructions(), 250.0);
    }

    #[test]
    fn mean_mcpi_weighted_by_instructions() {
        let prog = two_phase_program();
        // (0.0*100 + 2.0*50) / 150 = 2/3.
        assert!((prog.mean_mcpi_ref() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(prog.loop_length(), 150.0);
        assert_eq!(prog.total_instructions(), None);
    }

    #[test]
    fn zero_or_negative_advance_is_noop() {
        let prog = two_phase_program();
        let mut cur = prog.start();
        assert_eq!(cur.advance(&prog, 0.0), 0.0);
        assert_eq!(cur.advance(&prog, -5.0), 0.0);
        assert_eq!(cur.retired_instructions(), 0.0);
    }
}
