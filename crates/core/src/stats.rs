//! Search statistics.

use std::fmt;
use std::time::Duration;

/// Why the search loop stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The priority queue drained — the (pruned) search space is
    /// exhausted.
    QueueExhausted,
    /// The node-expansion budget was consumed.
    NodeBudget,
    /// A solution was found and `stop_at_first` was set.
    FirstSolution,
    /// The [`Budget`](crate::Budget) deadline passed (the paper's
    /// `Timer`; an absolute instant, so the batch engine's queueing
    /// delay counts against the job).
    DeadlineExpired,
    /// A [`CancelToken`](crate::CancelToken) requested a cooperative
    /// stop.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::QueueExhausted => "queue exhausted",
            StopReason::NodeBudget => "node budget",
            StopReason::FirstSolution => "first solution",
            StopReason::DeadlineExpired => "deadline expired",
            StopReason::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Timing of one search segment between restarts (§IV-E).
///
/// Segment 0 runs from the start of the search to the first restart;
/// the final segment ends when the search stops. The spans let a run
/// report show *where* the node budget went across the restart
/// schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartSpan {
    /// 0-based segment index (0 = before any restart).
    pub ordinal: u64,
    /// Nodes expanded during this segment.
    pub nodes_expanded: u64,
    /// Wall-clock duration of the segment.
    pub elapsed: Duration,
}

/// Counters describing a synthesis run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Nodes popped from the priority queue and expanded.
    pub nodes_expanded: u64,
    /// Children generated (before pruning).
    pub children_generated: u64,
    /// Candidate substitutions scored by the allocation-free counting
    /// kernel (`count_substitute`), one per candidate considered during
    /// expansion.
    pub candidates_scored: u64,
    /// Candidates actually materialized into a child `MultiPprm`: one
    /// per popped node that is expanded, plus one per solution
    /// confirmation, so at most `nodes_expanded + solutions_seen`.
    /// Queued children are kept as scores and built only when popped.
    /// The gap between this and `candidates_scored` is work the
    /// two-phase kernel avoided.
    pub candidates_materialized: u64,
    /// Children pushed onto the queue (after pruning).
    pub children_pushed: u64,
    /// Restarts performed (§IV-E).
    pub restarts: u64,
    /// Solutions encountered (improving or not).
    pub solutions_seen: u64,
    /// Children discarded because their depth reached the current
    /// cutoff (best solution so far, or the gate cap).
    pub depth_pruned: u64,
    /// Children skipped because an equal-or-shallower queue entry with
    /// the same state fingerprint was already seen (`dedup_states`).
    pub dedup_hits: u64,
    /// Fingerprint collisions *detected* during dedup: a candidate
    /// whose 64-bit fingerprint matched a recorded state of a
    /// different term count (so the states are provably distinct). Such
    /// candidates are kept, not pruned. Collisions between states with
    /// equal term counts remain undetectable; this counter is a lower
    /// bound on the true collision count.
    pub dedup_collisions: u64,
    /// Beam trims performed when the queue exceeded `max_queue`.
    pub beam_trims: u64,
    /// Queue entries discarded by beam trims.
    pub beam_dropped: u64,
    /// Largest queue size observed.
    pub queue_peak: u64,
    /// Largest total of PPRM terms across queued children, from their
    /// predicted (scored) term counts; the children's states are not
    /// built while they are queued.
    pub live_terms_peak: u64,
    /// Wall-clock duration of the search.
    pub elapsed: Duration,
    /// Why the loop stopped (`None` only before the search ran).
    pub stop_reason: Option<StopReason>,
    /// Per-segment timing between restarts (always recorded; one entry
    /// per segment, so its length is `restarts + 1` after a completed
    /// search).
    pub restart_spans: Vec<RestartSpan>,
    /// `1` for every search run: the search is serial. Kept only so
    /// the `perfbench` benchmark package builds; goes with the next
    /// benchmark change.
    pub threads_used: u64,
    /// Always `0`: there is no speculative scoring. Kept only so the
    /// `perfbench` benchmark package builds; goes with the next
    /// benchmark change.
    pub spec_scored_wasted: u64,
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes expanded, {} children ({} scored, {} materialized, {} pushed), \
             {} restarts, {} solutions, queue peak {}, {} dedup hits, {:?}",
            self.nodes_expanded,
            self.children_generated,
            self.candidates_scored,
            self.candidates_materialized,
            self.children_pushed,
            self.restarts,
            self.solutions_seen,
            self.queue_peak,
            self.dedup_hits,
            self.elapsed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_mentions_counters() {
        let s = SearchStats {
            nodes_expanded: 7,
            restarts: 1,
            ..SearchStats::default()
        };
        let text = s.to_string();
        assert!(
            text.contains("7 nodes") && text.contains("1 restarts"),
            "{text}"
        );
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::DeadlineExpired.to_string(), "deadline expired");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
    }
}
