//! Equivalence checking between reversible circuits.
//!
//! The community workflow the paper participates in (synthesize →
//! template-simplify → publish) relies on checking that two cascades
//! compute the same permutation. For up to 20 wires the check is
//! exhaustive; beyond that the miter `A · B⁻¹` is probed with a
//! deterministic low-discrepancy sample (a non-identity permutation of
//! `2^n` points is overwhelmingly unlikely to fix 4096 quasirandom
//! probes, but the result is labeled accordingly).

use std::error::Error;
use std::fmt;

use crate::Circuit;

/// The verdict of [`check_equivalence`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Equivalence {
    /// Exhaustively proven equal.
    Equivalent,
    /// Equal on every probe of a wide circuit (not a proof).
    ProbablyEquivalent,
    /// A distinguishing input.
    Counterexample {
        /// Input word on which the circuits differ.
        input: u64,
        /// Output of the first circuit.
        left: u64,
        /// Output of the second circuit.
        right: u64,
    },
}

impl Equivalence {
    /// Whether no difference was found.
    pub fn holds(self) -> bool {
        !matches!(self, Equivalence::Counterexample { .. })
    }
}

impl fmt::Display for Equivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Equivalence::Equivalent => write!(f, "equivalent (exhaustive)"),
            Equivalence::ProbablyEquivalent => write!(f, "equivalent on all probes"),
            Equivalence::Counterexample { input, left, right } => {
                write!(f, "differ at input {input:#b}: {left:#b} vs {right:#b}")
            }
        }
    }
}

/// The circuits have different widths and cannot be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareWidthError {
    /// Width of the first circuit.
    pub left: usize,
    /// Width of the second circuit.
    pub right: usize,
}

impl fmt::Display for CompareWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot compare circuits of widths {} and {}",
            self.left, self.right
        )
    }
}

impl Error for CompareWidthError {}

/// Width bound for exhaustive checking.
const EXHAUSTIVE_LIMIT: usize = 20;

/// Number of probes for wide circuits.
const PROBES: u64 = 4096;

/// The inputs a check of two `width`-wire functions visits, in order:
/// every input word up to 20 wires, and beyond that 4096 deterministic
/// quasirandom probes (a multiplicative sequence masked to `width`
/// bits), which make the check a strong test but not a proof. The one
/// input policy of [`check_equivalence`] and of the batch engine's
/// verification of symbolic specs.
///
/// ```
/// use rmrls_circuit::equivalence_inputs;
///
/// assert!(equivalence_inputs(3).eq(0..8));
/// assert_eq!(equivalence_inputs(40).count(), 4096);
/// assert!(equivalence_inputs(40).all(|x| x < 1 << 40));
/// ```
pub fn equivalence_inputs(width: usize) -> impl Iterator<Item = u64> {
    let exhaustive = width <= EXHAUSTIVE_LIMIT;
    let count = if exhaustive { 1u64 << width } else { PROBES };
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    (0..count).map(move |i| {
        if exhaustive {
            i
        } else {
            i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask
        }
    })
}

/// Checks whether two cascades compute the same permutation.
///
/// # Errors
///
/// Returns [`CompareWidthError`] if the widths differ.
///
/// ```
/// use rmrls_circuit::{check_equivalence, Circuit, Equivalence, Gate};
///
/// // NOT(t) TOF(C,t) NOT(t) == TOF(C,t).
/// let a = Circuit::from_gates(3, vec![
///     Gate::not(2), Gate::toffoli(&[0, 1], 2), Gate::not(2),
/// ]);
/// let b = Circuit::from_gates(3, vec![Gate::toffoli(&[0, 1], 2)]);
/// assert_eq!(check_equivalence(&a, &b)?, Equivalence::Equivalent);
/// # Ok::<(), rmrls_circuit::CompareWidthError>(())
/// ```
pub fn check_equivalence(a: &Circuit, b: &Circuit) -> Result<Equivalence, CompareWidthError> {
    if a.width() != b.width() {
        return Err(CompareWidthError {
            left: a.width(),
            right: b.width(),
        });
    }
    for x in equivalence_inputs(a.width()) {
        let (l, r) = (a.apply(x), b.apply(x));
        if l != r {
            return Ok(Equivalence::Counterexample {
                input: x,
                left: l,
                right: r,
            });
        }
    }
    Ok(if a.width() <= EXHAUSTIVE_LIMIT {
        Equivalence::Equivalent
    } else {
        Equivalence::ProbablyEquivalent
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    #[test]
    fn identical_circuits_are_equivalent() {
        let c = Circuit::from_gates(3, vec![Gate::cnot(0, 1), Gate::not(2)]);
        assert_eq!(check_equivalence(&c, &c).unwrap(), Equivalence::Equivalent);
    }

    #[test]
    fn commuted_gates_are_equivalent() {
        let a = Circuit::from_gates(3, vec![Gate::cnot(0, 1), Gate::cnot(0, 2)]);
        let b = Circuit::from_gates(3, vec![Gate::cnot(0, 2), Gate::cnot(0, 1)]);
        assert!(check_equivalence(&a, &b).unwrap().holds());
    }

    #[test]
    fn different_circuits_yield_counterexample() {
        let a = Circuit::from_gates(2, vec![Gate::not(0)]);
        let b = Circuit::from_gates(2, vec![Gate::not(1)]);
        match check_equivalence(&a, &b).unwrap() {
            Equivalence::Counterexample { input, left, right } => {
                assert_eq!(a.apply(input), left);
                assert_eq!(b.apply(input), right);
                assert_ne!(left, right);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        let err = check_equivalence(&a, &b).unwrap_err();
        assert_eq!((err.left, err.right), (2, 3));
    }

    #[test]
    fn wide_circuits_probe() {
        let a = Circuit::from_gates(22, vec![Gate::cnot(0, 21)]);
        let b = Circuit::from_gates(22, vec![Gate::cnot(0, 21)]);
        assert_eq!(
            check_equivalence(&a, &b).unwrap(),
            Equivalence::ProbablyEquivalent
        );
        let c = Circuit::from_gates(22, vec![Gate::not(21)]);
        assert!(!check_equivalence(&a, &c).unwrap().holds());
    }

    #[test]
    fn inputs_are_exhaustive_then_probed() {
        assert!(equivalence_inputs(0).eq([0]));
        assert!(equivalence_inputs(EXHAUSTIVE_LIMIT).eq(0..1 << EXHAUSTIVE_LIMIT));
        for width in [EXHAUSTIVE_LIMIT + 1, 40, 63, 64] {
            let inputs: Vec<u64> = equivalence_inputs(width).collect();
            assert_eq!(inputs.len() as u64, PROBES);
            assert_eq!(
                inputs[1],
                0x9e37_79b9_7f4a_7c15 & (u64::MAX >> (64 - width))
            );
            assert!(width == 64 || inputs.iter().all(|&x| x >> width == 0));
        }
    }

    #[test]
    fn verdict_display() {
        assert_eq!(
            Equivalence::Equivalent.to_string(),
            "equivalent (exhaustive)"
        );
        let ce = Equivalence::Counterexample {
            input: 1,
            left: 0,
            right: 2,
        };
        assert!(ce.to_string().contains("differ at input"));
    }
}
