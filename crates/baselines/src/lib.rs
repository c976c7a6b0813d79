//! Baseline reversible-logic synthesis algorithms the paper compares
//! RMRLS against (Table I and §III):
//!
//! - [`mmd_synthesize`] — the transformation-based algorithm of Miller,
//!   Maslov and Dueck (reference \[7\]), unidirectional and bidirectional;
//!   always synthesizes a valid circuit.
//! - [`OptimalTable`] — exhaustive BFS optimal synthesis for all 40 320
//!   three-variable functions over the NCT and NCTS libraries
//!   (reference \[16\]); reproduces the "Optimal" columns of Table I
//!   exactly.
//! - [`naive_greedy`] — the no-search greedy PPRM cascade sketched in
//!   the paper's introduction, as an ablation of the RMRLS search.
//! - [`PeepholeOptimizer`] — windowed optimal resynthesis, the local
//!   optimization of reference \[17\].
//!
//! ```
//! use rmrls_baselines::{mmd_synthesize, MmdVariant};
//! use rmrls_spec::Permutation;
//!
//! let spec = Permutation::from_vec(vec![7, 0, 1, 2, 3, 4, 5, 6])?;
//! let circuit = mmd_synthesize(&spec, MmdVariant::Bidirectional);
//! assert_eq!(circuit.to_permutation(), spec.as_slice());
//! # Ok::<(), rmrls_spec::InvalidSpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mmd;
mod naive;
mod optimal;
mod peephole;

pub use mmd::{mmd_synthesize, MmdVariant};
pub use naive::{naive_greedy, naive_greedy_permutation, GreedyStuckError};
pub use optimal::{OptimalLibrary, OptimalTable};
pub use peephole::PeepholeOptimizer;
