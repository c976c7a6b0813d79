//! Reversible-circuit substrate for the RMRLS synthesizer.
//!
//! Provides the gate library the paper targets — generalized [`Gate::Toffoli`]
//! gates (with [`Gate::Fredkin`]/SWAP for the NCTS comparisons) — plus
//! [`Circuit`] cascades with simulation and inversion, the quantum
//! [`cost`](circuit_cost) model of §II-D, `.tfc` interchange
//! [format support](tfc), template-based [simplification](simplify)
//! (§III, \[20\]–\[22\]), and ASCII [rendering](render) in the style of the
//! paper's figures.
//!
//! # Example
//!
//! ```
//! use rmrls_circuit::{Circuit, Gate};
//!
//! // Fig. 3(d): the circuit for the paper's Fig. 1 function.
//! let mut c = Circuit::new(3);
//! c.push(Gate::not(0));                 // TOF1(a)
//! c.push(Gate::toffoli(&[0, 2], 1));    // TOF3(a,c,b)
//! c.push(Gate::toffoli(&[0, 1], 2));    // TOF3(a,b,c)
//! assert_eq!(c.to_permutation(), vec![1, 0, 7, 2, 3, 4, 5, 6]);
//! assert_eq!(c.quantum_cost(), 1 + 5 + 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
#[allow(clippy::module_inception)]
mod circuit;
mod cost;
mod decompose;
mod equivalence;
mod gate;
pub mod real;
mod render;
mod templates;
pub mod tfc;

pub use analysis::{analyze, CircuitStats};
pub use circuit::Circuit;
pub use cost::{circuit_cost, fredkin_cost, gate_cost, toffoli_cost};
pub use decompose::{decompose_gate, decompose_to_nct, DecomposeError};
pub use equivalence::{check_equivalence, equivalence_inputs, CompareWidthError, Equivalence};
pub use gate::{Gate, MAX_WIDTH};
pub use render::render;
pub use templates::{simplify, simplify_with_stats, SimplifyStats};
