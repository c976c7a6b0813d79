//! Synthesis of irreversible specifications with don't-care search.
//!
//! The paper's §VI lists "dynamically assign don't-care values during
//! synthesis" as future work (its tool pre-assigns them). This module
//! approximates that with a portfolio: the irreversible table is
//! embedded under several deterministic completion strategies, each
//! embedding is synthesized, and the best circuit wins. Different
//! completions can differ by several gates, so the portfolio recovers
//! much of the benefit of dynamic assignment at a bounded cost.

use std::time::Duration;

use rmrls_obs::{Event, Value};
use rmrls_spec::{embed_with_strategy, CompletionStrategy, Embedding, TruthTable};

use crate::{synthesize, NoSolutionError, Observer, StopReason, Synthesis, SynthesisOptions};

/// How one completion strategy of the embedding portfolio fared.
#[derive(Clone, Copy, Debug)]
pub struct EmbeddingAttempt {
    /// The completion strategy tried.
    pub strategy: CompletionStrategy,
    /// Gate count of its circuit, if it synthesized.
    pub gates: Option<u32>,
    /// Wall-clock time its search spent.
    pub elapsed: Duration,
    /// Why its search stopped.
    pub stop_reason: Option<StopReason>,
}

/// The winning embedding and its synthesis.
#[derive(Clone, Debug)]
pub struct EmbeddedSynthesis {
    /// The synthesized circuit and stats.
    pub synthesis: Synthesis,
    /// The embedding it realizes.
    pub embedding: Embedding,
    /// The completion strategy that produced it.
    pub strategy: CompletionStrategy,
    /// Every strategy tried, in portfolio order, with its outcome —
    /// attribution for run reports.
    pub attempts: Vec<EmbeddingAttempt>,
}

/// The portfolio tried by [`synthesize_embedded`], in order.
pub const COMPLETION_PORTFOLIO: [CompletionStrategy; 4] = [
    CompletionStrategy::HammingGreedy,
    CompletionStrategy::HammingGreedyHighTies,
    CompletionStrategy::Ascending,
    CompletionStrategy::Descending,
];

/// Embeds an irreversible truth table under every portfolio strategy,
/// synthesizes each embedding (splitting any deadline evenly), and
/// returns the smallest circuit.
///
/// # Errors
///
/// Returns the last [`NoSolutionError`] if every embedding fails to
/// synthesize within its budget.
///
/// ```
/// use rmrls_core::{synthesize_embedded, SynthesisOptions};
/// use rmrls_spec::TruthTable;
///
/// // The paper's augmented full adder (Fig. 2a).
/// let adder = TruthTable::from_fn(3, 3, |x| {
///     let ones = x.count_ones() as u64;
///     (ones >> 1) << 2 | (ones & 1) << 1 | ((x ^ (x >> 1)) & 1)
/// });
/// let opts = SynthesisOptions::new().with_max_nodes(20_000);
/// let best = synthesize_embedded(&adder, &opts)?;
/// assert!(best.synthesis.circuit.gate_count() <= 6);
/// # Ok::<(), rmrls_core::NoSolutionError>(())
/// ```
pub fn synthesize_embedded(
    table: &TruthTable,
    options: &SynthesisOptions,
) -> Result<EmbeddedSynthesis, NoSolutionError> {
    synthesize_embedded_with_observer(table, options, &mut Observer::null())
}

/// [`synthesize_embedded`] with per-strategy attribution streamed
/// through `obs` as `embedding_attempt` events; the returned
/// [`EmbeddedSynthesis::attempts`] records the same outcomes.
///
/// # Errors
///
/// Same as [`synthesize_embedded`].
pub fn synthesize_embedded_with_observer(
    table: &TruthTable,
    options: &SynthesisOptions,
    obs: &mut Observer,
) -> Result<EmbeddedSynthesis, NoSolutionError> {
    let mut per_try = options.clone();
    let mut best: Option<EmbeddedSynthesis> = None;
    let mut last_err: Option<NoSolutionError> = None;
    let mut attempts: Vec<EmbeddingAttempt> = Vec::with_capacity(COMPLETION_PORTFOLIO.len());

    for (i, strategy) in COMPLETION_PORTFOLIO.into_iter().enumerate() {
        // Each try gets its share of whatever time the earlier ones left.
        per_try.budget = options
            .budget
            .share((COMPLETION_PORTFOLIO.len() - i) as u32);
        let embedding = embed_with_strategy(table, None, strategy);
        let result = synthesize(&embedding.permutation.to_multi_pprm(), &per_try);
        let attempt = match &result {
            Ok(s) => EmbeddingAttempt {
                strategy,
                gates: Some(s.circuit.gate_count() as u32),
                elapsed: s.stats.elapsed,
                stop_reason: s.stats.stop_reason,
            },
            Err(e) => EmbeddingAttempt {
                strategy,
                gates: None,
                elapsed: e.stats.elapsed,
                stop_reason: e.stats.stop_reason,
            },
        };
        obs.emit(Event::new(
            "embedding_attempt",
            vec![
                ("strategy", Value::Str(format!("{strategy:?}"))),
                ("solved", Value::from(attempt.gates.is_some())),
                (
                    "gates",
                    match attempt.gates {
                        Some(g) => Value::from(g),
                        None => Value::Int(-1),
                    },
                ),
                ("seconds", Value::from(attempt.elapsed.as_secs_f64())),
            ],
        ));
        attempts.push(attempt);
        match result {
            Ok(synthesis) => {
                let better = best
                    .as_ref()
                    .map(|b| synthesis.circuit.gate_count() < b.synthesis.circuit.gate_count())
                    .unwrap_or(true);
                if better {
                    best = Some(EmbeddedSynthesis {
                        synthesis,
                        embedding,
                        strategy,
                        attempts: Vec::new(),
                    });
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some(mut winner) => {
            winner.attempts = attempts;
            Ok(winner)
        }
        None => Err(last_err.expect("no successes implies at least one failure")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder() -> TruthTable {
        TruthTable::from_fn(3, 3, |x| {
            let ones = x.count_ones() as u64;
            (ones >> 1) << 2 | (ones & 1) << 1 | ((x ^ (x >> 1)) & 1)
        })
    }

    #[test]
    fn portfolio_beats_or_matches_single_embedding() {
        let opts = SynthesisOptions::new().with_max_nodes(20_000);
        let single = synthesize(
            &rmrls_spec::embed(&adder()).permutation.to_multi_pprm(),
            &opts,
        )
        .expect("adder synthesizes");
        let best = synthesize_embedded(&adder(), &opts).expect("portfolio succeeds");
        assert!(
            best.synthesis.circuit.gate_count() <= single.circuit.gate_count(),
            "portfolio must not be worse"
        );
    }

    #[test]
    fn winning_circuit_realizes_real_outputs() {
        let table = adder();
        let best = synthesize_embedded(&table, &SynthesisOptions::new().with_max_nodes(20_000))
            .expect("succeeds");
        let e = &best.embedding;
        for x in 0..8u64 {
            let out = best.synthesis.circuit.apply(x);
            assert_eq!(e.real_output(out), table.row(x), "row {x}");
        }
    }

    #[test]
    fn rd32_portfolio_synthesis() {
        let table = TruthTable::from_fn(3, 2, |x| u64::from(x.count_ones()));
        let best = synthesize_embedded(&table, &SynthesisOptions::new().with_max_nodes(20_000))
            .expect("rd32");
        assert!(
            best.synthesis.circuit.gate_count() <= 8,
            "rd32 portfolio took {} gates",
            best.synthesis.circuit.gate_count()
        );
        for x in 0..8u64 {
            let out = best.synthesis.circuit.apply(x);
            assert_eq!(
                best.embedding.real_output(out),
                u64::from(x.count_ones()),
                "row {x}"
            );
        }
    }

    #[test]
    fn attempts_cover_the_whole_portfolio() {
        let best = synthesize_embedded(&adder(), &SynthesisOptions::new().with_max_nodes(20_000))
            .expect("succeeds");
        assert_eq!(best.attempts.len(), COMPLETION_PORTFOLIO.len());
        let winning = best
            .attempts
            .iter()
            .find(|a| a.strategy == best.strategy)
            .expect("winner is among the attempts");
        assert_eq!(
            winning.gates,
            Some(best.synthesis.circuit.gate_count() as u32)
        );
        // No attempted strategy beat the declared winner.
        for a in &best.attempts {
            if let Some(g) = a.gates {
                assert!(g >= best.synthesis.circuit.gate_count() as u32);
            }
        }
    }

    #[test]
    fn each_portfolio_try_gets_a_share_of_the_deadline() {
        use std::time::Instant;
        // Without a node budget two of the ones count's completion
        // searches run for seconds. Each try gets its share of what the
        // earlier ones left, so the last is not handed an expired
        // deadline: every try either exhausts its queue or searches for a
        // real share of the 800 ms.
        let table = TruthTable::from_fn(3, 2, |x| u64::from(x.count_ones()));
        let opts =
            SynthesisOptions::new().with_deadline(Instant::now() + Duration::from_millis(800));
        let best = synthesize_embedded(&table, &opts).expect("a try finds a circuit");
        assert_eq!(best.attempts.len(), COMPLETION_PORTFOLIO.len());
        for a in &best.attempts {
            let finished = a.stop_reason == Some(StopReason::QueueExhausted);
            assert!(finished || a.elapsed >= Duration::from_millis(100), "{a:?}");
        }
        let last = best.attempts.last().unwrap();
        assert_eq!(
            last.stop_reason,
            Some(StopReason::DeadlineExpired),
            "{last:?}"
        );
    }

    #[test]
    fn strategies_produce_distinct_embeddings() {
        let table = adder();
        let a = embed_with_strategy(&table, None, CompletionStrategy::HammingGreedy);
        let b = embed_with_strategy(&table, None, CompletionStrategy::Ascending);
        assert_ne!(
            a.permutation, b.permutation,
            "portfolio must have diversity"
        );
    }
}
