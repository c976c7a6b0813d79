//! Cooperative cancellation and deadlines for the search loop.
//!
//! The search has one clock: an absolute **deadline** (an `Instant`
//! fixed by the caller, so time spent queued before the search starts
//! counts against the budget). It expresses the paper's per-run
//! `Timer`: `synth --time-limit S` sets the deadline `S` seconds from
//! the start of the search, and the batch engine fixes it when a job is
//! admitted. Next to it sits a **cancel token** (another thread decides
//! the work is no longer wanted — a client went away, or the operator
//! hit Ctrl-C). Both are carried by a [`Budget`] and polled in the
//! expansion loop. Reproducible runs bound the search by nodes
//! ([`SynthesisOptions::max_nodes`](crate::SynthesisOptions::max_nodes))
//! instead, which no host's speed changes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shareable flag requesting that cooperative work stop.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// flag. Cancellation is level-triggered and permanent: once
/// [`cancel`](CancelToken::cancel) is called, every holder sees
/// [`is_cancelled`](CancelToken::is_cancelled) forever after.
///
/// Tokens can be **linked**: a child token created with
/// [`child`](CancelToken::child) trips when either it or its parent is
/// cancelled, letting a batch engine cancel one job (child) or the
/// whole run (parent) with the same mechanism.
///
/// ```
/// use rmrls_core::CancelToken;
///
/// let run = CancelToken::new();
/// let job = run.child();
/// assert!(!job.is_cancelled());
/// run.cancel();
/// assert!(job.is_cancelled(), "parent cancellation reaches children");
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: None,
        }
    }

    /// A token that also trips when `self` is cancelled.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on this token or any
    /// ancestor.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        match &self.parent {
            Some(p) => p.is_cancelled(),
            None => false,
        }
    }
}

/// An absolute deadline plus an optional cancel token, polled together
/// by the search loop.
///
/// The default budget is unlimited. A search stops at whichever bound
/// trips first (cancellation is polled before the deadline), and the
/// [`StopReason`](crate::StopReason) names which one.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Absolute wall-clock instant after which the search must stop
    /// with [`StopReason::DeadlineExpired`](crate::StopReason::DeadlineExpired).
    pub deadline: Option<Instant>,
    /// Cooperative stop flag checked alongside the deadline; trips
    /// [`StopReason::Cancelled`](crate::StopReason::Cancelled).
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// An unlimited budget (never expires, never cancelled).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget that expires at `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// A budget observing `token`.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Whether cancellation has been requested.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Whether the deadline has passed as of `now`.
    pub fn deadline_expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// The budget for the next of `k` attempts that share this one: the
    /// same cancel token, and a deadline `remaining / k` from now. Time
    /// an attempt leaves unspent passes to the ones after it, and the
    /// last attempt (`k == 1`) gets all that remains. An unlimited or
    /// already-expired deadline is kept as it is.
    pub fn share(&self, k: u32) -> Budget {
        let mut next = self.clone();
        if let Some(d) = self.deadline {
            let now = Instant::now();
            if d > now {
                next.deadline = Some(now + (d - now) / k.max(1));
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_is_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn cancel_reaches_all_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn child_trips_on_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must not leak up");

        let parent2 = CancelToken::new();
        let child2 = parent2.child();
        parent2.cancel();
        assert!(child2.is_cancelled());
    }

    #[test]
    fn cancel_is_visible_across_threads() {
        let token = CancelToken::new();
        std::thread::scope(|s| {
            let t = token.clone();
            s.spawn(move || t.cancel());
        });
        assert!(token.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.cancelled());
        assert!(!b.deadline_expired(Instant::now()));
    }

    #[test]
    fn deadline_expiry_is_instant_based() {
        let now = Instant::now();
        let b = Budget::unlimited().with_deadline(now + Duration::from_secs(3600));
        assert!(!b.deadline_expired(now));
        assert!(b.deadline_expired(now + Duration::from_secs(3600)));
        assert!(b.deadline_expired(now + Duration::from_secs(7200)));
    }

    #[test]
    fn a_share_splits_what_remains() {
        let token = CancelToken::new();
        let start = Instant::now();
        let whole = Budget::unlimited()
            .with_deadline(start + Duration::from_secs(4000))
            .with_cancel(token.clone());
        let quarter = whole.share(4);
        let d = quarter.deadline.unwrap();
        assert!(d > start + Duration::from_secs(999) && d <= start + Duration::from_secs(1001));
        assert_eq!(whole.share(1).deadline, whole.deadline);
        token.cancel();
        assert!(quarter.cancelled(), "a share keeps the cancel token");
        // Unlimited and expired deadlines pass through unchanged.
        assert_eq!(Budget::unlimited().share(2).deadline, None);
        let expired = Budget::unlimited().with_deadline(start - Duration::from_secs(1));
        assert_eq!(expired.share(2).deadline, expired.deadline);
    }

    #[test]
    fn budget_combines_deadline_and_cancel() {
        let token = CancelToken::new();
        let b = Budget::unlimited()
            .with_deadline(Instant::now() + Duration::from_secs(3600))
            .with_cancel(token.clone());
        assert!(!b.cancelled());
        token.cancel();
        assert!(b.cancelled());
    }

    // --- integration with the search loop ---

    use crate::{synthesize, StopReason, SynthesisOptions};
    use rmrls_pprm::MultiPprm;

    #[test]
    fn expired_deadline_fails_cleanly_before_any_work() {
        use crate::{synthesize_bidirectional, synthesize_embedded};
        use rmrls_spec::{Permutation, TruthTable};
        let perm = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).unwrap();
        let opts = SynthesisOptions::new().with_deadline(Instant::now() - Duration::from_secs(1));
        let err = synthesize(&perm.to_multi_pprm(), &opts).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::DeadlineExpired));
        assert_eq!(err.stats.nodes_expanded, 0, "no work past the deadline");
        // Entry points that split the deadline among several searches
        // stop the same way.
        let err = synthesize_bidirectional(&perm, &opts).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::DeadlineExpired));
        let ones = TruthTable::from_fn(3, 2, |x| u64::from(x.count_ones()));
        let err = synthesize_embedded(&ones, &opts).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::DeadlineExpired));
    }

    #[test]
    fn pre_cancelled_token_fails_cleanly() {
        let spec = MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3);
        let token = CancelToken::new();
        token.cancel();
        let opts = SynthesisOptions::new().with_cancel_token(token);
        let err = synthesize(&spec, &opts).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::Cancelled));
        assert_eq!(err.stats.nodes_expanded, 0);
    }

    #[test]
    fn identity_still_solves_under_expired_deadline() {
        // The zero-gate answer is free and correct; a budget never
        // degrades a result that costs no search.
        let opts = SynthesisOptions::new().with_deadline(Instant::now() - Duration::from_secs(1));
        let result = synthesize(&MultiPprm::identity(3), &opts).unwrap();
        assert!(result.circuit.is_empty());
    }

    #[test]
    fn mid_search_cancellation_is_clean() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A hard 6-variable function with the seeding dive disabled:
        // the search cannot finish before the cancel lands (and if it
        // somehow did, the emitted circuit must still realize the
        // spec — a budget can never yield a partially-built circuit).
        let mut rng = StdRng::seed_from_u64(7);
        let p = rmrls_spec::random_permutation(6, &mut rng);
        let spec = p.to_multi_pprm();
        let token = CancelToken::new();
        let opts = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_cancel_token(token.clone());
        let result = std::thread::scope(|s| {
            let handle = s.spawn(|| synthesize(&spec, &opts));
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
            handle.join().expect("search does not panic")
        });
        match result {
            Ok(s) => assert_eq!(s.circuit.to_permutation(), p.as_slice()),
            Err(e) => assert_eq!(e.stats.stop_reason, Some(StopReason::Cancelled)),
        }
    }

    #[test]
    fn tight_deadline_beats_generous_node_budget() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Both bounds set: the deadline trips first and must name the
        // stop reason.
        let mut rng = StdRng::seed_from_u64(7);
        let spec = rmrls_spec::random_permutation(6, &mut rng).to_multi_pprm();
        let opts = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_nodes(u64::MAX)
            .with_deadline(Instant::now() + Duration::from_millis(20));
        let err = synthesize(&spec, &opts).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::DeadlineExpired));
    }
}
