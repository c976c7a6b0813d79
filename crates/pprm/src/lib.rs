//! Positive-polarity Reed–Muller (PPRM) algebra for reversible logic
//! synthesis.
//!
//! This crate is the algebraic substrate of the RMRLS synthesizer (Gupta,
//! Agrawal, Jha, *An Algorithm for Synthesis of Reversible Logic
//! Circuits*): product [`Term`]s over positive-polarity variables,
//! canonical single-output [`Pprm`] expansions, the multi-output
//! [`MultiPprm`] search state with its substitution engine, and the fast
//! [`anf_transform`] deriving PPRM coefficients from truth tables.
//!
//! # Substitution kernels
//!
//! The search scores every candidate substitution with
//! [`MultiPprm::count_substitute`] and builds the few it keeps with
//! [`MultiPprm::substitute_with`]. Up to 6 variables an output's PPRM is
//! a subset of at most 64 monomials, so the state is one `u64`
//! membership word per output, both kernels run on word operations, and
//! a child state is a copy of its parent's words with the rewritten
//! ones replaced; term vectors are built only when asked for. Wider
//! states, and Fredkin moves at every width, stage, sort and merge term
//! vectors in a reusable [`SubstScratch`]. Both kernels produce
//! bit-identical counts, fingerprints and states; debug builds check one
//! against the other on every call.
//!
//! # Example
//!
//! Derive the PPRM expansion of the paper's Fig. 1 function and reduce it
//! to the identity with the paper's three substitutions:
//!
//! ```
//! use rmrls_pprm::{MultiPprm, Term};
//!
//! let m = MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3);
//! assert_eq!(m.output(0).to_string(), "1 ⊕ a");
//!
//! let (m, _) = m.substitute(0, Term::ONE);          // a := a ⊕ 1
//! let (m, _) = m.substitute(1, Term::of(&[0, 2]));  // b := b ⊕ ac
//! let (m, _) = m.substitute(2, Term::of(&[0, 1]));  // c := c ⊕ ab
//! assert!(m.is_identity());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anf;
mod bits;
mod expansion;
mod multi;
mod term;

pub use anf::{anf_to_truth_table, anf_transform};
pub use bits::{BitTable, IterOnes};
pub use expansion::Pprm;
pub use multi::{MultiPprm, SubstCount, SubstScratch};
pub use term::{Term, Vars, MAX_VARS};
