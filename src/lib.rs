//! RMRLS — Reed–Muller reversible logic synthesis, umbrella crate.
//!
//! Re-exports the full toolkit reproducing Gupta, Agrawal and Jha,
//! *An Algorithm for Synthesis of Reversible Logic Circuits* (conference
//! version: *Synthesis of Reversible Logic*, DATE 2004):
//!
//! - [`pprm`] — PPRM algebra (terms, expansions, ANF transform);
//! - [`circuit`] — Toffoli/Fredkin circuits, quantum cost, TFC format,
//!   templates, rendering;
//! - [`spec`] — permutations, embeddings, benchmarks, random workloads;
//! - [`core`] — the RMRLS priority-queue synthesis algorithm;
//! - [`engine`] — the concurrent batch-synthesis engine (worker pool,
//!   deadlines, cancellation, canonical-form result cache);
//! - [`serve`] — the long-lived multi-tenant synthesis daemon behind
//!   `rmrls serve` (admission control, request journal, shared cache);
//! - [`obs`] — zero-dependency metrics, event sinks, and the JSON
//!   run-report machinery behind `rmrls synth --report`;
//! - [`baselines`] — MMD transformation-based synthesis, exhaustive
//!   optimal synthesis, and the naive greedy cascade.
//!
//! # Quickstart
//!
//! ```
//! use rmrls::core::{synthesize_permutation, SynthesisOptions};
//! use rmrls::spec::Permutation;
//!
//! // The paper's Fig. 1 function.
//! let spec = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6])?;
//! let result = synthesize_permutation(&spec, &SynthesisOptions::new())?;
//! assert_eq!(result.circuit.gate_count(), 3);
//! assert_eq!(result.circuit.to_permutation(), spec.as_slice());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rmrls_baselines as baselines;
pub use rmrls_circuit as circuit;
pub use rmrls_core as core;
pub use rmrls_engine as engine;
pub use rmrls_obs as obs;
pub use rmrls_pprm as pprm;
pub use rmrls_serve as serve;
pub use rmrls_spec as spec;
