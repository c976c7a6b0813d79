//! Synthesis configuration: the priority weights of Eq. 4 and the
//! heuristics of §IV-E.

use std::time::Instant;

use crate::budget::{Budget, CancelToken};

/// The weights of the priority function (Eq. 4):
///
/// ```text
/// priority = α·depth + β·elim/depth − γ·literalCount
/// ```
///
/// The paper uses `α = 0.3`, `β = 0.6`, `γ = 0.1` ("after careful
/// experimentation"); these are the defaults.
///
/// ```
/// use rmrls_core::Weights;
///
/// let w = Weights::default();
/// assert_eq!((w.alpha, w.beta, w.gamma), (0.3, 0.6, 0.1));
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Weights {
    /// Depth preference (depth-first bias).
    pub alpha: f64,
    /// Term-elimination rate preference (primary objective: fewer gates).
    pub beta: f64,
    /// Literal-count penalty (secondary objective: smaller gates).
    pub gamma: f64,
}

impl Weights {
    /// The paper's weights.
    pub const PAPER: Weights = Weights {
        alpha: 0.3,
        beta: 0.6,
        gamma: 0.1,
    };

    /// Evaluates the priority of a candidate substitution (Eq. 4).
    pub fn priority(&self, depth: u32, eliminated: i64, literal_count: u32) -> f64 {
        debug_assert!(depth >= 1, "children are at depth >= 1");
        self.alpha * f64::from(depth) + self.beta * eliminated as f64 / f64::from(depth)
            - self.gamma * f64::from(literal_count)
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::PAPER
    }
}

/// Which quantity drives the priority queue — Eq. 4 and ablation
/// variants (benchmarked against each other in `rmrls-bench`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PriorityMode {
    /// Eq. 4 with `elim` read as the *cumulative* terms eliminated since
    /// the root ("terms eliminated per stage", §IV-A prose). Reproduces
    /// the paper's Table I average (6.10 gates) but scales poorly beyond
    /// four variables in this reimplementation.
    CumulativeRate,
    /// Eq. 4 with `elim` read as the single-step elimination of the last
    /// substitution (the literal pseudocode of Fig. 4 line 32).
    StepElim,
    /// Greedy descent: fewest remaining terms first, depth as tiebreak.
    FewestTerms,
    /// A*-flavored: minimize `depth + (terms − n) / 2` (each gate rarely
    /// eliminates more than two terms net). The default: it matches the
    /// Eq. 4 quality on three variables and is the only mode that
    /// reproduces the paper's reported success rates on 4–16 variables
    /// (see DESIGN.md on the Eq. 4 ambiguity).
    #[default]
    AStar,
}

/// How Fredkin substitutions participate in the search (the paper's §VI
/// future-work extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FredkinMode {
    /// Toffoli substitutions only — the paper's published tool.
    #[default]
    Off,
    /// Unconditional swaps only: together with the Toffoli family this
    /// is the NCTS library of \[6\]/\[7\] (on three wires).
    SwapOnly,
    /// Controlled swaps with arbitrary control monomials (generalized
    /// Fredkin gates) — the full §VI extension.
    Full,
}

/// Substitution pruning strategy (§IV-E).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Pruning {
    /// Keep every candidate — the basic algorithm of Fig. 4. Complete
    /// (always finds a solution given enough time and memory) but only
    /// practical up to about five variables.
    #[default]
    Exhaustive,
    /// Keep the best `k` candidates per target variable per expansion
    /// (the paper uses k ∈ 3..=5).
    TopK(usize),
    /// Keep only the best candidate per target variable — the paper's
    /// "greedy option", used for every large experiment.
    Greedy,
}

impl Pruning {
    /// The per-variable candidate budget, if bounded.
    pub fn keep(self) -> Option<usize> {
        match self {
            Pruning::Exhaustive => None,
            Pruning::TopK(k) => Some(k),
            Pruning::Greedy => Some(1),
        }
    }
}

/// Configuration for [`synthesize`](crate::synthesize).
///
/// Constructed with [`SynthesisOptions::new`] (or `default()`) and
/// customized with the chained `with_*` setters:
///
/// ```
/// use std::time::{Duration, Instant};
/// use rmrls_core::{Pruning, SynthesisOptions};
///
/// let opts = SynthesisOptions::new()
///     .with_pruning(Pruning::Greedy)
///     .with_max_nodes(200_000)
///     .with_deadline(Instant::now() + Duration::from_secs(60))
///     .with_max_gates(40);
/// assert_eq!(opts.max_gates, Some(40));
/// ```
#[derive(Clone, Debug)]
pub struct SynthesisOptions {
    /// Priority weights (Eq. 4).
    pub weights: Weights,
    /// Quantity driving the queue order.
    pub priority_mode: PriorityMode,
    /// Heuristic weight of [`PriorityMode::AStar`]: the estimated
    /// remaining cost is `(terms − n) · astar_weight`. `0.5` (default)
    /// is near-admissible and gives optimal-quality circuits on small
    /// functions; larger values make the search greedier and are needed
    /// to reach the deep (30-45 gate) solutions of random 5-variable
    /// functions within the paper's time limits.
    pub astar_weight: f64,
    /// Candidate pruning strategy (§IV-E).
    pub pruning: Pruning,
    /// Absolute deadline and cooperative cancellation, checked in the
    /// expansion loop: the search's only clock (the paper's `Timer`).
    /// The batch engine threads its per-job deadline and shutdown token
    /// through here; a plain API user leaves it [`Budget::unlimited`].
    pub budget: Budget,
    /// Maximum circuit size in gates (e.g. 40 for the 4-variable runs,
    /// 60 for the 5-variable runs of §V-B); `None` = unbounded.
    pub max_gates: Option<usize>,
    /// Node-expansion budget; `None` = unbounded. An engineering
    /// addition for deterministic experiment harnesses.
    pub max_nodes: Option<u64>,
    /// Priority-queue size cap: when exceeded, the worst half of the
    /// queue is discarded (beam trim). Bounds memory the way the paper's
    /// 768-MB server bounded theirs; sacrifices completeness only on
    /// runs that would otherwise exhaust memory. `None` = unbounded.
    pub max_queue: Option<usize>,
    /// Steps without a solution before abandoning the search and
    /// restarting from the first level with an alternative substitution
    /// (§IV-E; the paper suggests ~10 000). `None` disables restarts.
    pub restart_after: Option<u64>,
    /// Enable the additional substitution types of §IV-D (factors for
    /// absent target variables, and the unconditional `v := v ⊕ 1`).
    pub additional_substitutions: bool,
    /// Fredkin (controlled-swap) substitutions — the paper's §VI
    /// future-work extension. Off by default to match the published
    /// tool.
    pub fredkin_substitutions: FredkinMode,
    /// Skip re-expanding search states already seen since the last
    /// restart. An engineering addition over the paper (documented in
    /// DESIGN.md); prevents oscillating `v ⊕ 1` chains.
    ///
    /// States are identified by a 64-bit `DefaultHasher` fingerprint, so
    /// two distinct states can collide and the later one be wrongly
    /// skipped (birthday bound: about `k²/2⁶⁵` for `k` visited states,
    /// ≈ 3·10⁻⁸ at a million states). As a partial guard the search also
    /// records each state's term count and never skips on a fingerprint
    /// match whose term counts differ, counting the event in
    /// [`SearchStats::dedup_collisions`](crate::SearchStats::dedup_collisions).
    /// An undetected collision can at worst hide one search branch
    /// (possibly missing a smaller circuit); it can never corrupt an
    /// emitted circuit, which realizes the spec by construction of the
    /// substitution chain.
    pub dedup_states: bool,
    /// Discard children whose substitution does not strictly decrease the
    /// term count (the literal reading of Fig. 4 line 31). The default is
    /// `false`: non-improving substitutions are queued with their
    /// (naturally low) Eq. 4 priority, because the strict filter makes
    /// wire-permutation functions (`a_out = c`, …) unreachable even
    /// though the paper's §IV-F completeness argument — and its Table I
    /// coverage of all 40 320 functions — require them. See DESIGN.md.
    pub monotone_only: bool,
    /// Seed the search with a greedy monotone dive from the root,
    /// establishing an immediate `bestDepth` upper bound (engineering
    /// addition over the paper; ablatable).
    pub initial_dive: bool,
    /// Among solutions with the *same* gate count, prefer the one with
    /// the lower quantum cost (§II-D). Widens the depth cutoff by one
    /// level so equal-size alternatives stay reachable; off by default.
    pub tie_break_cost: bool,
    /// Stop at the first solution instead of searching for the best one
    /// (used by the scalability experiments of §V-E, which only ask
    /// *whether* a solution is found).
    pub stop_at_first: bool,
}

impl SynthesisOptions {
    /// Paper defaults: exhaustive pruning, additional substitutions on,
    /// no limits.
    pub fn new() -> Self {
        SynthesisOptions {
            weights: Weights::PAPER,
            priority_mode: PriorityMode::AStar,
            astar_weight: 0.5,
            pruning: Pruning::Exhaustive,
            budget: Budget::unlimited(),
            max_gates: None,
            max_nodes: None,
            max_queue: Some(250_000),
            restart_after: Some(10_000),
            additional_substitutions: true,
            fredkin_substitutions: FredkinMode::Off,
            dedup_states: true,
            monotone_only: false,
            initial_dive: true,
            tie_break_cost: false,
            stop_at_first: false,
        }
    }

    /// Replaces the priority weights.
    pub fn with_weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Replaces the priority mode.
    pub fn with_priority_mode(mut self, mode: PriorityMode) -> Self {
        self.priority_mode = mode;
        self
    }

    /// Sets the A* heuristic weight.
    pub fn with_astar_weight(mut self, weight: f64) -> Self {
        self.astar_weight = weight;
        self
    }

    /// Replaces the pruning strategy.
    pub fn with_pruning(mut self, pruning: Pruning) -> Self {
        self.pruning = pruning;
        self
    }

    /// Sets an absolute deadline. The instant is fixed by the caller,
    /// so time spent queued before the search starts counts against the
    /// budget; `Instant::now() + d` just before the search gives it `d`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.budget.cancel = Some(token);
        self
    }

    /// Sets the circuit-size cap.
    pub fn with_max_gates(mut self, max: usize) -> Self {
        self.max_gates = Some(max);
        self
    }

    /// Sets the node-expansion budget.
    pub fn with_max_nodes(mut self, max: u64) -> Self {
        self.max_nodes = Some(max);
        self
    }

    /// Sets (or disables, with `None`) the queue-size cap.
    pub fn with_max_queue(mut self, max: Option<usize>) -> Self {
        self.max_queue = max;
        self
    }

    /// Sets (or disables, with `None`) the restart threshold.
    pub fn with_restart_after(mut self, steps: Option<u64>) -> Self {
        self.restart_after = steps;
        self
    }

    /// Enables or disables the §IV-D additional substitutions.
    pub fn with_additional_substitutions(mut self, on: bool) -> Self {
        self.additional_substitutions = on;
        self
    }

    /// Selects the Fredkin substitution mode (§VI extension).
    pub fn with_fredkin_substitutions(mut self, mode: FredkinMode) -> Self {
        self.fredkin_substitutions = mode;
        self
    }

    /// Enables or disables visited-state deduplication.
    pub fn with_dedup_states(mut self, on: bool) -> Self {
        self.dedup_states = on;
        self
    }

    /// Enables the strict monotone-decrease filter (paper-literal mode,
    /// for ablation).
    pub fn with_monotone_only(mut self, on: bool) -> Self {
        self.monotone_only = on;
        self
    }

    /// Enables or disables the greedy seeding dive.
    pub fn with_initial_dive(mut self, on: bool) -> Self {
        self.initial_dive = on;
        self
    }

    /// Enables the quantum-cost tie-break among equal-size solutions.
    pub fn with_tie_break_cost(mut self, on: bool) -> Self {
        self.tie_break_cost = on;
        self
    }

    /// Stop at the first solution found.
    pub fn with_stop_at_first(mut self, on: bool) -> Self {
        self.stop_at_first = on;
        self
    }

    /// Returns `self` unchanged: the search is serial. Kept only so the
    /// `perfbench` benchmark package builds; goes with the next
    /// benchmark change.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Always `1`: the search is serial. Kept only so the `perfbench`
    /// benchmark package builds; goes with the next benchmark change.
    pub fn resolved_threads(&self) -> usize {
        1
    }
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_weights_sum_to_one() {
        let w = Weights::PAPER;
        assert!((w.alpha + w.beta + w.gamma - 1.0).abs() < 1e-12);
    }

    #[test]
    fn priority_formula_matches_eq4() {
        let w = Weights::PAPER;
        // depth 2, elim 4, 3 literals: 0.3·2 + 0.6·4/2 − 0.1·3 = 1.5.
        assert!((w.priority(2, 4, 3) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn priority_prefers_more_elimination() {
        let w = Weights::PAPER;
        assert!(w.priority(1, 3, 1) > w.priority(1, 1, 1));
    }

    #[test]
    fn priority_penalizes_wide_factors() {
        let w = Weights::PAPER;
        assert!(w.priority(1, 2, 1) > w.priority(1, 2, 4));
    }

    #[test]
    fn pruning_keep_budgets() {
        assert_eq!(Pruning::Exhaustive.keep(), None);
        assert_eq!(Pruning::TopK(4).keep(), Some(4));
        assert_eq!(Pruning::Greedy.keep(), Some(1));
    }

    #[test]
    fn builder_chains() {
        let o = SynthesisOptions::new()
            .with_max_nodes(5)
            .with_stop_at_first(true)
            .with_additional_substitutions(false);
        assert_eq!(o.max_nodes, Some(5));
        assert!(o.stop_at_first);
        assert!(!o.additional_substitutions);
    }
}
