//! RMRLS — the Reed–Muller reversible logic synthesizer.
//!
//! Implements the synthesis algorithm of Gupta, Agrawal and Jha (*An
//! Algorithm for Synthesis of Reversible Logic Circuits*; conference
//! version: *Synthesis of Reversible Logic*, DATE 2004): a best-first
//! search over PPRM substitutions `v := v ⊕ factor`, each of which is a
//! generalized Toffoli gate, until the expansion becomes the identity.
//!
//! - [`synthesize`] / [`synthesize_permutation`] — the algorithm of
//!   Fig. 4 with the §IV-D additional substitutions and §IV-E heuristics;
//! - [`SynthesisOptions`] — priority [`Weights`] (Eq. 4), [`Pruning`]
//!   strategies (exhaustive / top-k / greedy), time & node budgets, gate
//!   caps, restarts;
//! - [`Synthesis`] / [`SearchStats`] — results and counters;
//! - [`Observer`] — the structured event stream (`expand`, `push`,
//!   `solution`, `restart`, ...) that replays the paper's Fig. 5/6
//!   search walk, plus metrics and a flight recorder.
//!
//! # Quickstart
//!
//! ```
//! use rmrls_core::{synthesize_permutation, SynthesisOptions};
//! use rmrls_spec::Permutation;
//!
//! let spec = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6])?;
//! let result = synthesize_permutation(&spec, &SynthesisOptions::new())?;
//! assert_eq!(result.circuit.gate_count(), 3); // Fig. 3(d)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// NoSolutionError deliberately carries the full SearchStats (counters,
// restart spans, stop reason) so failed runs are as reportable as
// successful ones; synthesis calls are far too coarse for the extra
// bytes on the error path to matter.
#![allow(clippy::result_large_err)]

mod budget;
mod embedding_search;
mod observe;
mod options;
mod report;
mod search;
mod stats;

pub use budget::{Budget, CancelToken};
pub use embedding_search::{
    synthesize_embedded, synthesize_embedded_with_observer, EmbeddedSynthesis, EmbeddingAttempt,
    COMPLETION_PORTFOLIO,
};
pub use observe::{Observer, Progress, ProgressFn};
pub use options::{FredkinMode, PriorityMode, Pruning, SynthesisOptions, Weights};
pub use report::{options_to_json, run_report, stats_to_json, RUN_REPORT_SCHEMA_VERSION};
pub use search::{
    synthesize, synthesize_bidirectional, synthesize_permutation, synthesize_with_observer,
    NoSolutionError, Synthesis,
};
pub use stats::{RestartSpan, SearchStats, StopReason};

// Re-exported so callers holding a `SearchStats` or building an
// `Observer` don't need a direct `rmrls_obs` dependency for the types
// that appear in this crate's API.
pub use rmrls_obs::{FlightRecorder, PhaseProfile};
