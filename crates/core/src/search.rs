//! The RMRLS priority-queue search (Fig. 4 of the paper, plus the
//! additional substitutions of §IV-D and the heuristics of §IV-E).
//!
//! # How substitutions become gates
//!
//! The search reduces the multi-output PPRM state to the identity through
//! substitutions `v_i := v_i ⊕ factor`. Each substitution is the Toffoli
//! gate `TOF(vars(factor); v_i)`. If `F` is the state before a
//! substitution and `F'` after, then `F = F' ∘ G` (substituting into the
//! expansion composes the gate on the *input* side), so when `F'` finally
//! reaches the identity, `F = G_k ∘ … ∘ G_1` — the substitutions in
//! root→leaf order are exactly the gate cascade from inputs to outputs.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use rmrls_circuit::{Circuit, Gate};
use rmrls_obs::TraceKind;
use rmrls_pprm::{MultiPprm, SubstCount, SubstScratch, Term};
use rmrls_spec::Permutation;

use crate::observe::{Observer, Progress};
use crate::stats::RestartSpan;
use crate::{SearchStats, StopReason, SynthesisOptions};

/// How often (in popped nodes) the wall clock is consulted.
const TIME_CHECK_INTERVAL: u64 = 256;

/// Priority penalty applied to substitutions that do not strictly
/// decrease the term count. Large enough that every improving candidate
/// outranks every non-improving one: the search behaves exactly like the
/// paper's monotone algorithm until improving moves run out, then falls
/// back to the escape moves its completeness argument requires.
const NON_IMPROVING_PENALTY: f64 = 1.0e3;

/// A successful synthesis: the circuit plus run statistics.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The synthesized Toffoli cascade (inputs left, outputs right).
    pub circuit: Circuit,
    /// Counters and timings of the search.
    pub stats: SearchStats,
}

/// The search terminated without finding any solution (possible only
/// with pruning heuristics, budgets, or gate caps — the basic algorithm
/// is complete, §IV-F).
#[derive(Debug)]
pub struct NoSolutionError {
    /// Statistics of the failed run.
    pub stats: SearchStats,
}

impl fmt::Display for NoSolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no solution found ({}; stopped by {})",
            self.stats,
            self.stats
                .stop_reason
                .map(|r| r.to_string())
                .unwrap_or_else(|| "unknown".into())
        )
    }
}

impl Error for NoSolutionError {}

/// One link of the root→leaf substitution chain. Only the gate is stored
/// here; a PPRM expansion lives only in a popped [`Node`] while some
/// queued child still refers to it (the paper keeps expansions only in
/// queued leaves, §IV-C; queued children here hold scores, not states).
struct PathNode {
    parent: Option<Rc<PathNode>>,
    gate: Gate,
}

fn path_to_gates(leaf: &Option<Rc<PathNode>>) -> Vec<Gate> {
    let mut gates = Vec::new();
    let mut cursor = leaf.as_ref().map(Rc::clone);
    while let Some(node) = cursor {
        gates.push(node.gate);
        cursor = node.parent.as_ref().map(Rc::clone);
    }
    gates.reverse();
    gates
}

/// A popped search-tree node: its materialized state and the path that
/// reached it. Shared (`Rc`) by the queued children scored from it, and
/// dropped with the last of them.
struct Node {
    depth: u32,
    state: MultiPprm,
    path: Option<Rc<PathNode>>,
}

/// A queued search-tree leaf, kept as scored values: the parent node and
/// the scored candidate move from it. The child's state and
/// [`PathNode`] are built only when the entry is popped
/// ([`Search::open`]), so an entry that is never popped costs no
/// `MultiPprm`; memory accounting uses `child.terms`.
#[derive(Clone)]
struct QueueEntry {
    /// FIFO tiebreak: earlier-generated entries win among equal
    /// priorities, keeping runs deterministic. Unique per pushed entry,
    /// so `(child.priority, seq)` is a total order.
    seq: u64,
    depth: u32,
    parent: Rc<Node>,
    child: Candidate,
}

impl QueueEntry {
    /// Approximate heap bytes of the child's state once built
    /// ([`MultiPprm::approx_heap_bytes_for`] of its predicted term count).
    fn child_heap_bytes(&self) -> u64 {
        MultiPprm::approx_heap_bytes_for(self.parent.state.num_vars(), self.child.terms) as u64
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.child
            .priority
            .total_cmp(&other.child.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The substitution a candidate would apply — enough to re-derive the
/// child state from the parent during materialization.
#[derive(Clone, Copy)]
enum Move {
    /// `v := v ⊕ factor` (a Toffoli gate).
    Toffoli { var: usize, factor: Term },
    /// Swap `a`/`b` under `control` (a Fredkin gate, §VI).
    Fredkin { a: usize, b: usize, control: Term },
}

/// One enumerated substitution with everything derived from the move
/// alone (gate, literal count, growth exemption).
struct EnumMove {
    mv: Move,
    gate: Gate,
    lits: u32,
    allow_growth: bool,
}

/// Enumerates every candidate substitution of a node, in the order the
/// expansion considers them, split into pruning groups: one group per
/// target variable (substitution types 1–3), then one per Fredkin pair.
fn enumerate_move_groups(
    state: &MultiPprm,
    options: &SynthesisOptions,
    parent_gate: Option<Gate>,
) -> Vec<Vec<EnumMove>> {
    let n = state.num_vars();
    let mut groups = Vec::with_capacity(n);
    for var in 0..n {
        let expansion = state.output(var);
        // Type 1 requires the bare target term `v_i` in its own output
        // expansion (the paper's basic algorithm does not list
        // c-targeted substitutions for Fig. 1's `c_out = b ⊕ ab ⊕ ac`
        // at the root — only §IV-D type 2 adds them).
        if !options.additional_substitutions && !expansion.contains(Term::var(var)) {
            continue;
        }
        let terms = expansion.terms();
        let mut moves = Vec::with_capacity(terms.len() + 1);
        let mut saw_constant_one = false;
        for &factor in terms {
            if factor.contains_var(var) {
                continue;
            }
            if factor.is_one() {
                saw_constant_one = true;
            }
            moves.push(EnumMove {
                mv: Move::Toffoli { var, factor },
                gate: Gate::toffoli_mask(factor.mask(), var),
                lits: factor.literal_count(),
                allow_growth: false,
            });
        }
        // Type 3 (§IV-D): v := v ⊕ 1 even when 1 is absent, with the
        // exception that the term count may grow. Skipped if it would
        // immediately undo the parent's NOT on the same wire (which
        // state dedup would also catch).
        if options.additional_substitutions
            && !saw_constant_one
            && parent_gate != Some(Gate::not(var))
        {
            moves.push(EnumMove {
                mv: Move::Toffoli {
                    var,
                    factor: Term::ONE,
                },
                gate: Gate::toffoli_mask(Term::ONE.mask(), var),
                lits: Term::ONE.literal_count(),
                allow_growth: true,
            });
        }
        groups.push(moves);
    }

    // §VI future work: Fredkin substitutions — swap a variable pair
    // under a control monomial drawn from the pair's expansions.
    if options.fredkin_substitutions != crate::FredkinMode::Off {
        for a in 0..n {
            for b in (a + 1)..n {
                let mut controls: Vec<Term> = vec![Term::ONE];
                if options.fredkin_substitutions == crate::FredkinMode::Full {
                    for (va, vb) in [(a, b), (b, a)] {
                        for &t in state.output(va).terms() {
                            if t.contains_var(vb) {
                                controls.push(t.without_var(va).without_var(vb));
                            }
                        }
                    }
                    // Sort+dedup instead of an O(k²) `contains` scan
                    // per insertion; `Term::ONE` (mask 0) sorts first,
                    // so the unconditional swap stays the lead
                    // candidate.
                    controls.sort_unstable();
                    controls.dedup();
                }
                let moves = controls
                    .into_iter()
                    .map(|control| EnumMove {
                        mv: Move::Fredkin { a, b, control },
                        gate: Gate::fredkin_mask(control.mask(), a, b),
                        lits: control.literal_count() + 1,
                        allow_growth: false,
                    })
                    .collect();
                groups.push(moves);
            }
        }
    }
    groups
}

/// Applies a move to a state, producing the child expansion.
fn apply_move(state: &MultiPprm, mv: Move, scratch: &mut SubstScratch) -> (MultiPprm, i64) {
    match mv {
        Move::Toffoli { var, factor } => state.substitute_with(var, factor, scratch),
        Move::Fredkin { a, b, control } => state.substitute_fredkin_with(a, b, control, scratch),
    }
}

/// Scores a move without materializing it.
fn score_move(state: &MultiPprm, mv: Move, scratch: &mut SubstScratch) -> SubstCount {
    match mv {
        Move::Toffoli { var, factor } => state.count_substitute(var, factor, scratch),
        Move::Fredkin { a, b, control } => state.count_substitute_fredkin(a, b, control, scratch),
    }
}

/// The queue priority a scored candidate would receive, or `None` when
/// the monotone filter discards it.
fn candidate_priority(
    options: &SynthesisOptions,
    init_terms: usize,
    num_vars: usize,
    child_depth: u32,
    score: &SubstCount,
    lits: u32,
    allow_growth: bool,
) -> Option<f64> {
    let cumulative = init_terms as i64 - score.terms as i64;
    let improving = score.eliminated > 0 || allow_growth;
    if !improving && options.monotone_only {
        return None;
    }
    let mut priority = match options.priority_mode {
        crate::PriorityMode::CumulativeRate => {
            options.weights.priority(child_depth, cumulative, lits)
        }
        crate::PriorityMode::StepElim => {
            options
                .weights
                .priority(child_depth, score.eliminated, lits)
        }
        crate::PriorityMode::FewestTerms => {
            -(score.terms as f64) + 0.01 * f64::from(child_depth) - 0.05 * f64::from(lits)
        }
        crate::PriorityMode::AStar => {
            let n = num_vars as f64;
            let h = (score.terms as f64 - n).max(0.0) * options.astar_weight;
            -(f64::from(child_depth) + h) - 0.05 * f64::from(lits)
        }
    };
    if !improving {
        priority -= NON_IMPROVING_PENALTY;
    }
    Some(priority)
}

/// A candidate substitution produced while expanding a node.
///
/// Candidates are *scored, not materialized*: they carry the move plus
/// the counting kernel's predictions (term count, fingerprint,
/// elimination). Survivors of pruning/dedup/depth-cutoff are queued as
/// these same values (see [`Search::push_child`]); a child `MultiPprm`
/// is built only when its entry is popped.
#[derive(Clone)]
struct Candidate {
    gate: Gate,
    mv: Move,
    eliminated: i64,
    priority: f64,
    /// Predicted total PPRM terms of the child (exact; reused by dedup
    /// collision detection and the observer).
    terms: usize,
    /// Predicted state fingerprint of the child (exact; consulted by
    /// dedup *before* any allocation happens).
    fp: u64,
}

struct Search<'a> {
    options: &'a SynthesisOptions,
    stats: SearchStats,
    start: Instant,
    obs: &'a mut Observer,
    seq: u64,
    /// Terms in the root expansion (`initTerms`); Eq. 4's `elim` is the
    /// cumulative count of terms eliminated relative to this, so
    /// `elim/depth` is the paper's "number of terms eliminated per
    /// stage".
    init_terms: usize,
    /// Best solution: (gate count, quantum cost, path).
    best: Option<(u32, u64, Option<Rc<PathNode>>)>,
    queue: BinaryHeap<QueueEntry>,
    /// State fingerprint ([`MultiPprm::fingerprint`], the XOR-combined
    /// per-term hash maintained incrementally by the substitution
    /// kernels — not SipHash) → (shallowest queued depth, term count of
    /// the recorded state). Re-queuing is allowed when a strictly
    /// shallower path is found, so deduplication never hides a shorter
    /// circuit. The term count guards against 64-bit fingerprint
    /// collisions: a matching fingerprint with a *different* term count
    /// is provably a distinct state and is never pruned. The XOR
    /// combiner makes collisions GF(2)-linear (any term-membership
    /// multiset whose hashes XOR to zero collides) rather than
    /// avalanche-random, but each per-term hash is a full 64-bit mixed
    /// value, so the practical bound stays ≈ k²/2⁶⁵ for k distinct
    /// states (see `MultiPprm::fingerprint` and
    /// `SynthesisOptions::dedup_states` for the residual risk).
    visited: HashMap<u64, (u32, u32)>,
    steps_since_restart: u64,
    /// Total predicted PPRM terms across queued children, maintained
    /// incrementally (push adds, pop subtracts, queue rebuilds recount)
    /// for the memory-budget poll — O(1) per check.
    live_terms: u64,
    /// Approximate heap bytes the queued children's states would take
    /// ([`QueueEntry::child_heap_bytes`]), maintained like `live_terms`.
    queue_bytes: u64,
    /// When the current restart segment started.
    segment_start: Instant,
    /// `nodes_expanded` at the start of the current segment.
    segment_start_nodes: u64,
    /// Reusable buffer for the substitution kernels: after warm-up,
    /// scoring and materialization allocate nothing for the generated
    /// term stream.
    scratch: SubstScratch,
    /// `MultiPprm::identity(n).fingerprint()`, precomputed so the
    /// solution check runs against scores alone (a candidate whose
    /// predicted fingerprint differs cannot be the identity — the
    /// fingerprint is a deterministic function of the state).
    identity_fp: u64,
}

impl<'a> Search<'a> {
    fn new(
        options: &'a SynthesisOptions,
        init_terms: usize,
        identity_fp: u64,
        obs: &'a mut Observer,
    ) -> Self {
        Search {
            options,
            stats: SearchStats {
                threads_used: 1,
                ..SearchStats::default()
            },
            start: Instant::now(),
            obs,
            seq: 0,
            init_terms,
            best: None,
            queue: BinaryHeap::new(),
            visited: HashMap::new(),
            steps_since_restart: 0,
            live_terms: 0,
            queue_bytes: 0,
            segment_start: Instant::now(),
            segment_start_nodes: 0,
            scratch: SubstScratch::new(),
            identity_fp,
        }
    }

    /// Closes the current restart segment, recording its span.
    fn end_segment(&mut self) -> RestartSpan {
        let now = Instant::now();
        let span = RestartSpan {
            ordinal: self.stats.restart_spans.len() as u64,
            nodes_expanded: self.stats.nodes_expanded - self.segment_start_nodes,
            elapsed: now - self.segment_start,
        };
        self.stats.restart_spans.push(span);
        self.segment_start = now;
        self.segment_start_nodes = self.stats.nodes_expanded;
        span
    }

    /// Recomputes the memory accounting from the queue contents. Called
    /// after every bulk queue rebuild (beam trim, memory shed, restart
    /// reseed) where incremental bookkeeping would be error-prone.
    fn recount_memory(&mut self) {
        let (mut terms, mut bytes) = (0u64, 0u64);
        for e in self.queue.iter() {
            terms += e.child.terms as u64;
            bytes += e.child_heap_bytes();
        }
        self.live_terms = terms;
        self.queue_bytes = bytes;
        self.stats.live_terms_peak = self.stats.live_terms_peak.max(terms);
        self.stats.queue_bytes_peak = self.stats.queue_bytes_peak.max(bytes);
    }

    /// Emergency response to a memory-budget breach: keep the better
    /// half of the queue (at least one entry, so the search can always
    /// make progress toward a solution), drop the rest, and recount.
    /// Mirrors the beam trim of `push_child` but is driven by the
    /// [`Budget`](crate::Budget) memory caps rather than `max_queue`.
    fn shed_for_memory(&mut self) {
        let mut entries = std::mem::take(&mut self.queue).into_vec();
        let keep = (entries.len() / 2).max(1);
        let dropped = keep_best(&mut entries, keep);
        self.stats.memory_sheds += 1;
        self.stats.memory_shed_dropped += dropped as u64;
        self.queue = BinaryHeap::from(entries);
        self.recount_memory();
        if let Some(r) = self.obs.recorder() {
            r.record(TraceKind::MemoryShed {
                dropped_entries: dropped as u64,
                live_terms: self.live_terms,
            });
            r.anomaly("memory_shed", "core/search/shed");
        }
    }

    /// Whether a configured memory cap is currently exceeded.
    fn memory_breached(&self) -> bool {
        self.options
            .budget
            .memory_breached(self.live_terms, self.queue_bytes)
    }

    /// Depth bound children must stay under to remain useful.
    fn depth_cutoff(&self) -> u32 {
        let slack = u32::from(self.options.tie_break_cost);
        let from_best = self
            .best
            .as_ref()
            .map(|(d, _, _)| (d + slack).saturating_sub(1))
            .unwrap_or(u32::MAX);
        let from_cap = self.options.max_gates.map(|g| g as u32).unwrap_or(u32::MAX);
        from_best.min(from_cap)
    }

    /// Expands a node: enumerates candidate substitutions per target
    /// variable (types 1–3), records solutions, prunes per §IV-E, and
    /// pushes survivors. Returns `true` if a first solution was found
    /// and `stop_at_first` is set.
    fn expand(&mut self, node: &Rc<Node>) -> bool {
        let state = &node.state;
        let child_depth = node.depth + 1;
        let parent_gate = node.path.as_ref().map(|p| p.gate);

        if self.obs.is_active() {
            self.obs.on_expand(node.depth, state.total_terms());
        }

        let groups = enumerate_move_groups(state, self.options, parent_gate);

        for group in &groups {
            let mut candidates: Vec<Candidate> = Vec::new();
            let mut solved = false;
            for em in group {
                let score = score_move(state, em.mv, &mut self.scratch);
                if self.consider_scored(node, em, score, child_depth, &mut candidates) {
                    solved = true;
                    break;
                }
            }
            if solved {
                return true;
            }
            if let Some(keep) = self.options.pruning.keep() {
                candidates.sort_by(|a, b| b.priority.total_cmp(&a.priority));
                candidates.truncate(keep);
            }
            for c in candidates {
                self.push_child(node, c, child_depth);
            }
        }
        false
    }

    /// Materializes a scored move into the real child state. The only
    /// place (besides the root) where a `MultiPprm` is built during the
    /// search: once per popped node and once per solution confirmation.
    fn materialize(&mut self, parent: &MultiPprm, mv: Move) -> (MultiPprm, i64) {
        self.stats.candidates_materialized += 1;
        apply_move(parent, mv, &mut self.scratch)
    }

    /// Builds a popped entry's node: its state, checked against the
    /// scores it was queued with, and its link in the path.
    fn open(&mut self, entry: QueueEntry) -> Rc<Node> {
        let child = &entry.child;
        let (state, mat_elim) = self.materialize(&entry.parent.state, child.mv);
        debug_assert_eq!(
            mat_elim, child.eliminated,
            "score/materialize elim mismatch"
        );
        debug_assert_eq!(
            state.total_terms(),
            child.terms,
            "score/materialize term mismatch"
        );
        debug_assert_eq!(
            state.fingerprint(),
            child.fp,
            "score/materialize fp mismatch"
        );
        Rc::new(Node {
            depth: entry.depth,
            state,
            path: Some(Rc::new(PathNode {
                parent: entry.parent.path.clone(),
                gate: child.gate,
            })),
        })
    }

    /// Candidate evaluation over the *score* alone: solution
    /// check, priority, pruning eligibility. No child state exists yet —
    /// a candidate is only materialized here if it turns out to be a
    /// solution (confirmed against the real state, so a fingerprint
    /// collision can never fabricate one); survivors of `push_child` are
    /// materialized when they are popped.
    /// Returns `true` when a solution was found and the caller should
    /// stop immediately (`stop_at_first`).
    fn consider_scored(
        &mut self,
        node: &Node,
        em: &EnumMove,
        score: SubstCount,
        child_depth: u32,
        candidates: &mut Vec<Candidate>,
    ) -> bool {
        self.stats.children_generated += 1;
        self.stats.candidates_scored += 1;
        let EnumMove {
            mv,
            gate,
            lits,
            allow_growth,
        } = *em;
        let SubstCount {
            terms,
            eliminated,
            fingerprint,
        } = score;

        // Identity test on the score: the fingerprint is deterministic,
        // so a true identity always matches (no false negatives); a
        // match is confirmed on the materialized state before being
        // recorded as a solution.
        let n = node.state.num_vars();
        if terms == n
            && fingerprint == self.identity_fp
            && self.materialize(&node.state, mv).0.is_identity()
        {
            self.stats.solutions_seen += 1;
            let path = Some(Rc::new(PathNode {
                parent: node.path.clone(),
                gate,
            }));
            let cost = if self.options.tie_break_cost {
                path_to_gates(&path)
                    .iter()
                    .map(|&g| rmrls_circuit::gate_cost(g, n))
                    .sum()
            } else {
                0
            };
            let improved = self
                .best
                .as_ref()
                .map(|&(d, c, _)| {
                    child_depth < d || (self.options.tie_break_cost && child_depth == d && cost < c)
                })
                .unwrap_or(true);
            let within_cap = self
                .options
                .max_gates
                .map(|g| child_depth as usize <= g)
                .unwrap_or(true);
            if self.obs.is_active() {
                self.obs.on_solution(child_depth, improved && within_cap);
            }
            if improved && within_cap {
                self.best = Some((child_depth, cost, path));
                self.steps_since_restart = 0;
                if self.options.stop_at_first {
                    self.stats.stop_reason = Some(StopReason::FirstSolution);
                    return true;
                }
            }
            return false;
        }

        if let Some(priority) = candidate_priority(
            self.options,
            self.init_terms,
            n,
            child_depth,
            &score,
            lits,
            allow_growth,
        ) {
            candidates.push(Candidate {
                gate,
                mv,
                eliminated,
                priority,
                terms,
                fp: fingerprint,
            });
        }
        false
    }

    /// Admits one pruning survivor: depth cutoff and dedup run against
    /// the candidate's *predicted* term count and fingerprint, and a
    /// survivor is queued as those scored values. Nothing here builds a
    /// state; the child is materialized only if its entry is popped.
    fn push_child(&mut self, parent: &Rc<Node>, candidate: Candidate, child_depth: u32) {
        let Candidate {
            gate,
            eliminated,
            priority,
            terms,
            fp,
            ..
        } = candidate;
        if child_depth >= self.depth_cutoff() {
            self.stats.depth_pruned += 1;
            return;
        }
        if self.options.dedup_states {
            let terms32 = terms as u32;
            let duplicate = match self.visited.get(&fp) {
                Some(&(_, seen_terms)) if seen_terms != terms32 => {
                    // Same fingerprint, different term count: provably a
                    // 64-bit hash collision between distinct states. Keep
                    // the candidate (never prune on a collision) and
                    // record the newcomer.
                    self.stats.dedup_collisions += 1;
                    self.visited.insert(fp, (child_depth, terms32));
                    false
                }
                Some(&(seen_depth, _)) if seen_depth <= child_depth => {
                    self.stats.dedup_hits += 1;
                    true
                }
                _ => {
                    self.visited.insert(fp, (child_depth, terms32));
                    false
                }
            };
            if duplicate {
                return;
            }
        }
        self.stats.children_pushed += 1;
        self.seq += 1;
        let entry = QueueEntry {
            seq: self.seq,
            depth: child_depth,
            parent: Rc::clone(parent),
            child: candidate,
        };
        self.live_terms += terms as u64;
        self.queue_bytes += entry.child_heap_bytes();
        self.stats.live_terms_peak = self.stats.live_terms_peak.max(self.live_terms);
        self.stats.queue_bytes_peak = self.stats.queue_bytes_peak.max(self.queue_bytes);
        self.queue.push(entry);
        if self.queue.len() as u64 > self.stats.queue_peak {
            self.stats.queue_peak = self.queue.len() as u64;
        }
        if self.obs.is_active() {
            let queue_depth = self.queue.len();
            self.obs
                .on_push(gate, child_depth, eliminated, priority, terms, queue_depth);
        }
        if let Some(cap) = self.options.max_queue {
            if self.queue.len() > cap {
                // Beam trim: keep the better half, drop the rest.
                let mut entries = std::mem::take(&mut self.queue).into_vec();
                let dropped = keep_best(&mut entries, cap / 2);
                self.stats.beam_trims += 1;
                self.stats.beam_dropped += dropped as u64;
                self.queue = BinaryHeap::from(entries);
                self.recount_memory();
            }
        }
    }

    /// Polls every stop bound, in precedence order: cooperative
    /// cancellation, the absolute [`Budget`](crate::Budget) deadline,
    /// then the relative `time_limit`. One `Instant::now()` read serves
    /// both clock checks; unlimited runs never touch the clock here.
    fn budget_stop(&self) -> Option<StopReason> {
        if rmrls_obs::fail::trigger("core/search/budget-poll").is_err() {
            return Some(StopReason::Cancelled);
        }
        let budget = &self.options.budget;
        if budget.cancelled() {
            return Some(StopReason::Cancelled);
        }
        if budget.deadline.is_some() || self.options.time_limit.is_some() {
            let now = Instant::now();
            if budget.deadline_expired(now) {
                return Some(StopReason::DeadlineExpired);
            }
            if let Some(limit) = self.options.time_limit {
                if now.duration_since(self.start) >= limit {
                    return Some(StopReason::TimeLimit);
                }
            }
        }
        None
    }

    /// Writes the anomaly record for an abnormal stop (deadline expiry,
    /// cancellation, memory exhaustion) into the flight recorder, if one
    /// is attached. Normal stops (queue exhausted, first solution, node
    /// or time budget) are not anomalies.
    fn record_stop_anomaly(&self, reason: StopReason) {
        if let Some(r) = self.obs.recorder() {
            match reason {
                StopReason::DeadlineExpired => {
                    r.anomaly("deadline_expired", "core/search/budget-poll");
                }
                StopReason::Cancelled => {
                    r.anomaly("cancelled", "core/search/budget-poll");
                }
                StopReason::MemoryExceeded => {
                    r.anomaly("memory_exceeded", "core/search/memory-budget");
                }
                _ => {}
            }
        }
    }

    fn finish(mut self, num_vars: usize) -> Result<Synthesis, NoSolutionError> {
        self.stats.elapsed = self.start.elapsed();
        self.end_segment();
        if self.obs.is_active() {
            let reason = self
                .stats
                .stop_reason
                .map(|r| r.to_string())
                .unwrap_or_else(|| "unknown".into());
            let gates = self.best.as_ref().map(|&(d, _, _)| d);
            self.obs.on_candidate_totals(
                self.stats.candidates_scored,
                self.stats.candidates_materialized,
            );
            self.obs
                .on_run_end(&reason, self.stats.nodes_expanded, gates);
        }
        match self.best.take() {
            Some((_, _, path)) => {
                let circuit = Circuit::from_gates(num_vars, path_to_gates(&path));
                Ok(Synthesis {
                    circuit,
                    stats: self.stats,
                })
            }
            None => Err(NoSolutionError { stats: self.stats }),
        }
    }
}

/// Keeps the `keep` best entries (in no particular order) and returns
/// how many were dropped. `(priority, seq)` is a total order, so the kept
/// set is the same as a full sort would keep, and a heap rebuilt from it
/// pops in the same order.
fn keep_best(entries: &mut Vec<QueueEntry>, keep: usize) -> usize {
    if keep >= entries.len() {
        return 0;
    }
    entries.select_nth_unstable_by(keep, |a, b| b.cmp(a));
    let dropped = entries.len() - keep;
    entries.truncate(keep);
    dropped
}

/// A cheap greedy dive from the root: repeatedly apply the locally best
/// improving substitution (max elimination, then fewest literals, then
/// lowest variable). Used to seed `bestDepth` so the best-first search
/// starts with an upper bound — linear functions (Gray codes, shifters)
/// solve outright here.
fn greedy_dive(spec: &MultiPprm, options: &SynthesisOptions) -> Option<Vec<Gate>> {
    let n = spec.num_vars();
    let cap = options
        .max_gates
        .unwrap_or(4 * spec.total_terms().max(n) + 8);
    let identity_fp = MultiPprm::identity(n).fingerprint();
    let mut scratch = SubstScratch::new();
    let mut state = spec.clone();
    let mut gates = Vec::new();
    while !state.is_identity() {
        if gates.len() >= cap {
            return None;
        }
        // Two-phase like the main search: score every factor without
        // allocating, materialize only the winner (or a solution).
        // (elim desc, literal count asc, var asc)
        let mut best: Option<(i64, u32, usize, Term)> = None;
        for var in 0..n {
            let factors: Vec<Term> = state
                .output(var)
                .terms()
                .iter()
                .copied()
                .filter(|t| !t.contains_var(var))
                .collect();
            for factor in factors {
                let score = state.count_substitute(var, factor, &mut scratch);
                if score.terms == n && score.fingerprint == identity_fp {
                    let (next, _) = state.substitute_with(var, factor, &mut scratch);
                    if next.is_identity() {
                        gates.push(Gate::toffoli_mask(factor.mask(), var));
                        return Some(gates);
                    }
                }
                if score.eliminated <= 0 {
                    continue;
                }
                let lits = factor.literal_count();
                let better = match &best {
                    None => true,
                    Some((be, bl, bv, _)) => (-score.eliminated, lits, var) < (-*be, *bl, *bv),
                };
                if better {
                    best = Some((score.eliminated, lits, var, factor));
                }
            }
        }
        match best {
            Some((_, _, var, factor)) => {
                let (next, _) = state.substitute_with(var, factor, &mut scratch);
                gates.push(Gate::toffoli_mask(factor.mask(), var));
                state = next;
            }
            None => return None,
        }
    }
    Some(gates)
}

/// Synthesizes a reversible function, given as a multi-output PPRM
/// expansion, into a cascade of generalized Toffoli gates.
///
/// This is the RMRLS algorithm: a best-first search over substitutions
/// `v := v ⊕ factor` ranked by Eq. 4, reducing the expansion to the
/// identity. The returned circuit always realizes the specification
/// exactly (verified cheaply by the caller via simulation if desired).
///
/// # Errors
///
/// Returns [`NoSolutionError`] when the search stops (time limit, node
/// budget, queue exhaustion under pruning, or gate cap) without having
/// found a solution. With
/// [`Pruning::Exhaustive`](crate::Pruning::Exhaustive) and no budgets
/// the basic algorithm is complete and this cannot happen (§IV-F).
///
/// # Example
///
/// ```
/// use rmrls_core::{synthesize, SynthesisOptions};
/// use rmrls_pprm::MultiPprm;
///
/// // Fig. 1 of the paper: expect the 3-gate circuit of Fig. 3(d).
/// let spec = MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3);
/// let result = synthesize(&spec, &SynthesisOptions::new())?;
/// assert_eq!(result.circuit.gate_count(), 3);
/// assert_eq!(result.circuit.to_permutation(), vec![1, 0, 7, 2, 3, 4, 5, 6]);
/// # Ok::<(), rmrls_core::NoSolutionError>(())
/// ```
pub fn synthesize(
    spec: &MultiPprm,
    options: &SynthesisOptions,
) -> Result<Synthesis, NoSolutionError> {
    let mut obs = Observer::null();
    synthesize_with_observer(spec, options, &mut obs)
}

/// [`synthesize`] with an attached [`Observer`] that streams structured
/// events, aggregates metrics, and reports periodic progress.
///
/// With [`Observer::null()`] this is exactly [`synthesize`] (each hook
/// site costs one predictable branch). See [`Observer`] for the
/// available instrumentation; after the run, query the observer for
/// dropped events and metric snapshots.
///
/// # Errors
///
/// Same as [`synthesize`].
pub fn synthesize_with_observer(
    spec: &MultiPprm,
    options: &SynthesisOptions,
    obs: &mut Observer,
) -> Result<Synthesis, NoSolutionError> {
    let n = spec.num_vars();
    let init_terms = spec.total_terms();
    let identity_fp = MultiPprm::identity(n).fingerprint();
    let mut search = Search::new(options, init_terms, identity_fp, obs);
    if search.obs.is_active() {
        search.obs.on_run_start(n, init_terms);
    }

    if spec.is_identity() {
        search.stats.stop_reason = Some(StopReason::QueueExhausted);
        search.best = Some((0, 0, None));
        return search.finish(n);
    }

    // A job can arrive already over budget (queued past its deadline,
    // or cancelled during shutdown): stop before doing any work rather
    // than waiting for the first in-loop poll at TIME_CHECK_INTERVAL.
    if let Some(reason) = search.budget_stop() {
        search.record_stop_anomaly(reason);
        search.stats.stop_reason = Some(reason);
        return search.finish(n);
    }

    // Seed bestDepth with a greedy dive (engineering addition, see
    // DESIGN.md): gives the search an immediate upper bound and solves
    // purely monotone (e.g. linear) functions outright.
    if options.initial_dive {
        if let Some(gates) = greedy_dive(spec, options) {
            let within_cap = options.max_gates.map(|g| gates.len() <= g).unwrap_or(true);
            if within_cap {
                search.stats.solutions_seen += 1;
                if search.obs.is_active() {
                    search.obs.on_solution(gates.len() as u32, true);
                }
                let cost = if options.tie_break_cost {
                    gates.iter().map(|&g| rmrls_circuit::gate_cost(g, n)).sum()
                } else {
                    0
                };
                let mut path: Option<Rc<PathNode>> = None;
                for &gate in &gates {
                    path = Some(Rc::new(PathNode { parent: path, gate }));
                }
                search.best = Some((gates.len() as u32, cost, path));
                if options.stop_at_first {
                    search.stats.stop_reason = Some(StopReason::FirstSolution);
                    return search.finish(n);
                }
            }
        }
    }

    // Expand the root once; remember its (pruned) children for restarts.
    let root = Rc::new(Node {
        depth: 0,
        state: spec.clone(),
        path: None,
    });
    search
        .visited
        .insert(spec.fingerprint(), (0, init_terms as u32));
    if search.expand(&root) {
        return search.finish(n);
    }
    let mut root_children: Vec<QueueEntry> = search.queue.drain().collect();
    root_children.sort_by(|a, b| b.cmp(a)); // best first
                                            // Restart schedule (§IV-E): the r-th restart reseeds the queue with
                                            // only the r-th best first-level substitution, forcing an alternative
                                            // path; once every first-level alternative has had its budget, a final
                                            // phase reseeds everything and runs without further restarts.
    let mut restarts_left = root_children.len().saturating_sub(1);
    let mut next_restart_child = 0usize;
    let reseed = |search: &mut Search, children: &[QueueEntry]| {
        search.queue.clear();
        search.visited.clear();
        search
            .visited
            .insert(spec.fingerprint(), (0, init_terms as u32));
        for child in children {
            search
                .visited
                .insert(child.child.fp, (child.depth, child.child.terms as u32));
            search.queue.push(child.clone());
        }
        search.recount_memory();
    };
    reseed(&mut search, &root_children);

    loop {
        // Memory budget (polled before the clock checks: it needs no
        // syscall). First breach degrades — shed the worst half of the
        // frontier and keep searching; any breach after that stops the
        // run instead of risking an OOM abort.
        if options.budget.memory_limited() && search.memory_breached() {
            if search.stats.memory_sheds == 0 {
                search.shed_for_memory();
            }
            if search.memory_breached() {
                search.record_stop_anomaly(StopReason::MemoryExceeded);
                search.stats.stop_reason = Some(StopReason::MemoryExceeded);
                break;
            }
        }
        let Some(entry) = search.queue.pop() else {
            search.stats.stop_reason = Some(StopReason::QueueExhausted);
            break;
        };
        search.live_terms = search.live_terms.saturating_sub(entry.child.terms as u64);
        search.queue_bytes = search.queue_bytes.saturating_sub(entry.child_heap_bytes());
        if entry.depth >= search.depth_cutoff() {
            // Stale entry: pushed before the cutoff tightened.
            search.stats.depth_pruned += 1;
            continue;
        }
        search.stats.nodes_expanded += 1;
        search.steps_since_restart += 1;

        if search
            .stats
            .nodes_expanded
            .is_multiple_of(TIME_CHECK_INTERVAL)
        {
            if search.obs.is_active() {
                let progress = Progress {
                    nodes_expanded: search.stats.nodes_expanded,
                    queue_depth: search.queue.len(),
                    best_gates: search.best.as_ref().map(|&(d, _, _)| d),
                    restarts: search.stats.restarts,
                    live_terms: search.live_terms,
                    memory_sheds: search.stats.memory_sheds,
                    elapsed: search.start.elapsed(),
                };
                search.obs.on_progress(&progress);
            }
            if let Some(reason) = search.budget_stop() {
                search.record_stop_anomaly(reason);
                search.stats.stop_reason = Some(reason);
                break;
            }
        }
        if let Some(max) = options.max_nodes {
            if search.stats.nodes_expanded > max {
                search.stats.stop_reason = Some(StopReason::NodeBudget);
                break;
            }
        }

        let node = search.open(entry);
        if search.expand(&node) {
            break; // first solution, stop_at_first
        }

        // §IV-E: abandon and restart from the first level with an
        // alternative substitution if no solution materialized.
        if let Some(threshold) = options.restart_after {
            if search.best.is_none() && search.steps_since_restart >= threshold {
                search.steps_since_restart = 0;
                if restarts_left > 0 {
                    restarts_left -= 1;
                    next_restart_child = (next_restart_child + 1) % root_children.len();
                    search.stats.restarts += 1;
                    let ordinal = search.stats.restarts;
                    let span = search.end_segment();
                    if search.obs.is_active() {
                        search
                            .obs
                            .on_restart(ordinal, span.nodes_expanded, span.elapsed);
                    }
                    reseed(
                        &mut search,
                        std::slice::from_ref(&root_children[next_restart_child]),
                    );
                } else if next_restart_child != 0 {
                    // Alternatives exhausted: final phase over the full
                    // first level, no further restarts.
                    next_restart_child = 0;
                    search.stats.restarts += 1;
                    let ordinal = search.stats.restarts;
                    let span = search.end_segment();
                    if search.obs.is_active() {
                        search
                            .obs
                            .on_restart(ordinal, span.nodes_expanded, span.elapsed);
                    }
                    reseed(&mut search, &root_children);
                }
            }
        }
    }

    search.finish(n)
}

/// Convenience wrapper: synthesizes a permutation specification.
///
/// # Errors
///
/// Same as [`synthesize`].
pub fn synthesize_permutation(
    spec: &Permutation,
    options: &SynthesisOptions,
) -> Result<Synthesis, NoSolutionError> {
    synthesize(&spec.to_multi_pprm(), options)
}

/// Bidirectional synthesis: runs the search on both the function and its
/// inverse (splitting any time budget between them) and returns the
/// smaller circuit. A cascade for `f⁻¹` reversed gate-by-gate realizes
/// `f`, since every Toffoli/Fredkin gate is self-inverse.
///
/// The PPRM expansions of `f` and `f⁻¹` can differ wildly in size, so
/// one direction is often much easier — the same observation that powers
/// the bidirectional variant of the transformation-based algorithm \[7\].
///
/// # Errors
///
/// Returns [`NoSolutionError`] only when *both* directions fail; the
/// returned stats are those of the failing forward run.
///
/// ```
/// use rmrls_core::{synthesize_bidirectional, SynthesisOptions};
/// use rmrls_spec::Permutation;
///
/// let spec = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6])?;
/// let opts = SynthesisOptions::new().with_max_nodes(20_000);
/// let result = synthesize_bidirectional(&spec, &opts)?;
/// assert_eq!(result.circuit.to_permutation(), spec.as_slice());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize_bidirectional(
    spec: &Permutation,
    options: &SynthesisOptions,
) -> Result<Synthesis, NoSolutionError> {
    let mut half = options.clone();
    if let Some(t) = options.time_limit {
        half.time_limit = Some(t / 2);
    }
    // A Budget deadline is absolute and shared, but the forward run only
    // gets the first half of whatever remains, so the backward run is
    // never starved by a forward run that spends the entire budget.
    let mut forward_opts = half.clone();
    if let Some(d) = options.budget.deadline {
        let now = Instant::now();
        if d > now {
            forward_opts.budget.deadline = Some(now + (d - now) / 2);
        }
    }
    let forward = synthesize(&spec.to_multi_pprm(), &forward_opts);
    let backward = synthesize(&spec.inverse().to_multi_pprm(), &half).map(|mut r| {
        r.circuit = r.circuit.inverse();
        r
    });
    match (forward, backward) {
        (Ok(f), Ok(b)) => Ok(if b.circuit.gate_count() < f.circuit.gate_count() {
            b
        } else {
            f
        }),
        (Ok(f), Err(_)) => Ok(f),
        (Err(_), Ok(b)) => Ok(b),
        (Err(e), Err(_)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pruning as P;

    fn fig1() -> MultiPprm {
        MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3)
    }

    fn verify(spec: &MultiPprm, result: &Synthesis) {
        assert_eq!(
            result.circuit.to_permutation(),
            spec.to_permutation(),
            "circuit does not realize the spec: {}",
            result.circuit
        );
    }

    #[test]
    fn fig1_synthesizes_in_three_gates() {
        let spec = fig1();
        let result = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        assert_eq!(result.circuit.gate_count(), 3);
        verify(&spec, &result);
    }

    #[test]
    fn identity_needs_no_gates() {
        let spec = MultiPprm::identity(4);
        let result = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        assert!(result.circuit.is_empty());
    }

    #[test]
    fn single_not_function() {
        let spec = MultiPprm::from_permutation(&[1, 0], 1);
        let result = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        assert_eq!(result.circuit.gate_count(), 1);
        verify(&spec, &result);
    }

    #[test]
    fn example1_matches_paper_gate_count() {
        // Example 1: {1,0,3,2,5,7,4,6} — the paper reports 4 gates.
        let spec = MultiPprm::from_permutation(&[1, 0, 3, 2, 5, 7, 4, 6], 3);
        let result = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        assert_eq!(result.circuit.gate_count(), 4);
        verify(&spec, &result);
    }

    #[test]
    fn example2_matches_paper_gate_count() {
        // Example 2: wraparound right shift — 3 gates.
        let spec = MultiPprm::from_permutation(&[7, 0, 1, 2, 3, 4, 5, 6], 3);
        let result = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        assert_eq!(result.circuit.gate_count(), 3);
        verify(&spec, &result);
    }

    #[test]
    fn example6_matches_paper_gate_count() {
        // Example 6: wraparound left shift — 3 gates.
        let spec = MultiPprm::from_permutation(&[1, 2, 3, 4, 5, 6, 7, 0], 3);
        let result = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        assert_eq!(result.circuit.gate_count(), 3);
        verify(&spec, &result);
    }

    #[test]
    fn all_three_variable_permutation_sample_round_trips() {
        // A deterministic sample across S_8.
        let opts = SynthesisOptions::new().with_max_nodes(20_000);
        for rank in (0..40320u128).step_by(1001) {
            let p = Permutation::from_rank(3, rank);
            let spec = p.to_multi_pprm();
            let result =
                synthesize(&spec, &opts).unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
            verify(&spec, &result);
        }
    }

    #[test]
    fn greedy_pruning_still_round_trips() {
        let opts = SynthesisOptions::new().with_pruning(P::Greedy);
        for rank in (0..40320u128).step_by(2003) {
            let p = Permutation::from_rank(3, rank);
            let spec = p.to_multi_pprm();
            if let Ok(result) = synthesize(&spec, &opts) {
                verify(&spec, &result);
            }
        }
    }

    #[test]
    fn without_additional_substitutions_fig1_still_solves() {
        let opts = SynthesisOptions::new().with_additional_substitutions(false);
        let spec = fig1();
        let result = synthesize(&spec, &opts).expect("solution");
        assert_eq!(result.circuit.gate_count(), 3);
        verify(&spec, &result);
    }

    #[test]
    fn node_budget_stops_search() {
        // Swap-like function that needs several gates; tiny budget.
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let opts = SynthesisOptions::new().with_max_nodes(1);
        match synthesize(&spec, &opts) {
            Err(e) => assert_eq!(e.stats.stop_reason, Some(StopReason::NodeBudget)),
            Ok(r) => verify(&spec, &r), // found at depth 1-2 before budget
        }
    }

    #[test]
    fn max_gates_cap_is_respected() {
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let unlimited = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        let needed = unlimited.circuit.gate_count();
        assert!(needed >= 2, "example should need multiple gates");
        let capped = SynthesisOptions::new().with_max_gates(needed - 1);
        assert!(
            synthesize(&spec, &capped).is_err(),
            "cap below optimum must fail"
        );
    }

    #[test]
    fn stop_at_first_reports_reason() {
        let spec = fig1();
        let opts = SynthesisOptions::new().with_stop_at_first(true);
        let result = synthesize(&spec, &opts).expect("solution");
        assert_eq!(result.stats.stop_reason, Some(StopReason::FirstSolution));
        verify(&spec, &result);
    }

    #[test]
    fn four_variable_functions_synthesize() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let opts = SynthesisOptions::new()
            .with_pruning(P::TopK(4))
            .with_max_gates(40)
            .with_stop_at_first(true)
            .with_max_nodes(200_000);
        for trial in 0..10 {
            let p = rmrls_spec::random_permutation(4, &mut rng);
            let spec = p.to_multi_pprm();
            let result = synthesize(&spec, &opts).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            verify(&spec, &result);
        }
    }

    #[test]
    fn fredkin_mode_solves_example3_in_one_gate() {
        // Example 3 IS a Fredkin gate; with §VI substitutions enabled the
        // search finds the single-gate realization.
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 3, 4, 6, 5, 7], 3);
        let opts = SynthesisOptions::new()
            .with_fredkin_substitutions(crate::FredkinMode::Full)
            .with_initial_dive(false)
            .with_max_nodes(20_000);
        let result = synthesize(&spec, &opts).expect("solution");
        assert_eq!(result.circuit.gate_count(), 1, "{}", result.circuit);
        verify(&spec, &result);
    }

    #[test]
    fn fredkin_mode_solves_plain_swap_in_one_gate() {
        // Swapping wires a and c: {0,4,2,6,1,5,3,7}.
        let spec = MultiPprm::from_permutation(&[0, 4, 2, 6, 1, 5, 3, 7], 3);
        let opts = SynthesisOptions::new()
            .with_fredkin_substitutions(crate::FredkinMode::Full)
            .with_initial_dive(false)
            .with_max_nodes(20_000);
        let result = synthesize(&spec, &opts).expect("solution");
        assert_eq!(result.circuit.gate_count(), 1, "{}", result.circuit);
        verify(&spec, &result);
    }

    #[test]
    fn fredkin_mode_round_trips_random_functions() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let opts = SynthesisOptions::new()
            .with_fredkin_substitutions(crate::FredkinMode::Full)
            .with_max_nodes(20_000);
        for trial in 0..20 {
            let p = rmrls_spec::random_permutation(3, &mut rng);
            let spec = p.to_multi_pprm();
            let result = synthesize(&spec, &opts).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            verify(&spec, &result);
        }
    }

    #[test]
    fn fredkin_mode_never_worse_than_nct_mode() {
        // On a sample, enabling the richer library must not increase the
        // best found gate count.
        for rank in (0..40320u128).step_by(4999) {
            let spec = Permutation::from_rank(3, rank).to_multi_pprm();
            let budgeted = SynthesisOptions::new().with_max_nodes(20_000);
            let nct = synthesize(&spec, &budgeted).unwrap();
            let ncts = synthesize(
                &spec,
                &budgeted
                    .clone()
                    .with_fredkin_substitutions(crate::FredkinMode::Full),
            )
            .unwrap();
            assert!(
                ncts.circuit.gate_count() <= nct.circuit.gate_count(),
                "rank {rank}: {} vs {}",
                ncts.circuit.gate_count(),
                nct.circuit.gate_count()
            );
        }
    }

    #[test]
    fn bidirectional_round_trips_and_never_hurts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        let opts = SynthesisOptions::new().with_max_nodes(20_000);
        for trial in 0..15 {
            let p = rmrls_spec::random_permutation(3, &mut rng);
            let bi = synthesize_bidirectional(&p, &opts)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert_eq!(bi.circuit.to_permutation(), p.as_slice(), "trial {trial}");
            let uni = synthesize_permutation(&p, &opts).unwrap();
            assert!(
                bi.circuit.gate_count() <= uni.circuit.gate_count(),
                "trial {trial}: bidirectional must not be worse"
            );
        }
    }

    #[test]
    fn bidirectional_inverse_direction_verifies() {
        // An asymmetric function whose inverse expansion is simpler.
        let p = Permutation::from_vec(vec![1, 2, 3, 4, 5, 6, 7, 0]).unwrap();
        let r = synthesize_bidirectional(&p, &SynthesisOptions::new()).unwrap();
        assert_eq!(r.circuit.to_permutation(), p.as_slice());
    }

    #[test]
    fn cost_tie_break_never_worse() {
        // Same gate count, cost no higher than the plain run.
        let base = SynthesisOptions::new().with_max_nodes(20_000);
        let costed = base.clone().with_tie_break_cost(true);
        for rank in (0..40320u128).step_by(3001) {
            let spec = Permutation::from_rank(3, rank).to_multi_pprm();
            let plain = synthesize(&spec, &base).unwrap();
            let tied = synthesize(&spec, &costed).unwrap();
            assert!(
                tied.circuit.gate_count() <= plain.circuit.gate_count(),
                "rank {rank}: primary objective must not degrade"
            );
            if tied.circuit.gate_count() == plain.circuit.gate_count() {
                assert!(
                    tied.circuit.quantum_cost() <= plain.circuit.quantum_cost(),
                    "rank {rank}: cost {} vs {}",
                    tied.circuit.quantum_cost(),
                    plain.circuit.quantum_cost()
                );
            }
            assert_eq!(tied.circuit.to_permutation(), spec.to_permutation());
        }
    }

    #[test]
    fn permutation_wrapper_agrees() {
        let p = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).unwrap();
        let a = synthesize_permutation(&p, &SynthesisOptions::new()).expect("solution");
        let b = synthesize(&p.to_multi_pprm(), &SynthesisOptions::new()).expect("solution");
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn dedup_counts_hits_and_detects_no_collisions_on_small_runs() {
        // Commuting gate orders reach identical states, so dedup fires.
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let with = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        assert!(
            with.stats.dedup_hits > 0,
            "dedup should fire: {}",
            with.stats
        );
        // A detected 64-bit collision in a run this small would signal a
        // broken fingerprint, not bad luck (expected rate ≈ k²/2⁶⁵).
        assert_eq!(with.stats.dedup_collisions, 0);
        let without =
            synthesize(&spec, &SynthesisOptions::new().with_dedup_states(false)).expect("solution");
        assert_eq!(without.stats.dedup_hits, 0);
        assert_eq!(
            with.circuit.gate_count(),
            without.circuit.gate_count(),
            "dedup must not change the result"
        );
    }

    #[test]
    fn two_phase_counters_show_materialization_savings() {
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        for opts in [
            SynthesisOptions::new(),
            SynthesisOptions::new().with_pruning(P::TopK(2)),
            SynthesisOptions::new().with_pruning(P::Greedy),
        ] {
            let r = synthesize(&spec, &opts).expect("solution");
            assert!(
                r.stats.candidates_materialized < r.stats.candidates_scored,
                "materialized {} !< scored {} under {:?}",
                r.stats.candidates_materialized,
                r.stats.candidates_scored,
                opts.pruning
            );
            // Only popped nodes and solution confirmations are built.
            assert!(
                r.stats.candidates_materialized <= r.stats.nodes_expanded + r.stats.solutions_seen
            );
            verify(&spec, &r);
        }
    }

    #[test]
    fn observer_streams_events_and_spans_cover_the_run() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct SharedSink(Rc<RefCell<Vec<rmrls_obs::Event>>>);
        impl rmrls_obs::EventSink for SharedSink {
            fn emit(&mut self, event: rmrls_obs::Event) {
                self.0.borrow_mut().push(event);
            }
        }

        let events = Rc::new(RefCell::new(Vec::new()));
        let mut obs = Observer::with_sink(Box::new(SharedSink(events.clone()))).with_metrics();
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let result =
            synthesize_with_observer(&spec, &SynthesisOptions::new(), &mut obs).expect("solution");
        verify(&spec, &result);

        // Per-restart spans partition the run.
        assert_eq!(
            result.stats.restart_spans.len() as u64,
            result.stats.restarts + 1
        );
        let span_nodes: u64 = result
            .stats
            .restart_spans
            .iter()
            .map(|s| s.nodes_expanded)
            .sum();
        assert_eq!(span_nodes, result.stats.nodes_expanded);
        assert!(result.stats.queue_peak > 0);

        // The event stream brackets the run and records the search walk.
        let kinds: Vec<&'static str> = events.borrow().iter().map(|e| e.kind).collect();
        assert_eq!(kinds.first(), Some(&"run_start"));
        assert_eq!(kinds.last(), Some(&"run_end"));
        for expected in ["expand", "push", "solution"] {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
        assert_eq!(obs.dropped_events(), 0);

        // Metrics recorded every push.
        let snap = obs.metrics_snapshot().unwrap();
        let (_, priority) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "push_priority")
            .unwrap();
        assert_eq!(priority.count, result.stats.children_pushed);
    }

    #[test]
    fn restart_spans_partition_nodes_and_time() {
        let spec = MultiPprm::from_permutation(&[7, 0, 1, 2, 3, 4, 5, 6], 3);
        let opts = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_restart_after(Some(1));
        let started = Instant::now();
        let result = synthesize(&spec, &opts).expect("solution");
        let wall = started.elapsed();
        verify(&spec, &result);

        let spans = &result.stats.restart_spans;
        assert!(spans.len() >= 2, "no restart forced: {spans:?}");
        assert_eq!(spans.len() as u64, result.stats.restarts + 1);
        let ordinals: Vec<u64> = spans.iter().map(|s| s.ordinal).collect();
        assert_eq!(ordinals, (0..spans.len() as u64).collect::<Vec<_>>());
        let nodes: u64 = spans.iter().map(|s| s.nodes_expanded).sum();
        assert_eq!(nodes, result.stats.nodes_expanded);
        let elapsed: std::time::Duration = spans.iter().map(|s| s.elapsed).sum();
        assert!(
            elapsed <= wall,
            "spans {elapsed:?} exceed the call {wall:?}"
        );
    }

    #[test]
    fn null_observer_matches_plain_synthesize() {
        let spec = fig1();
        let plain = synthesize(&spec, &SynthesisOptions::new()).expect("solution");
        let mut obs = Observer::null();
        let observed =
            synthesize_with_observer(&spec, &SynthesisOptions::new(), &mut obs).expect("solution");
        assert_eq!(plain.circuit, observed.circuit);
        assert_eq!(plain.stats.nodes_expanded, observed.stats.nodes_expanded);
    }

    #[test]
    fn no_solution_error_displays_reason() {
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let opts = SynthesisOptions::new().with_max_gates(1);
        let err = synthesize(&spec, &opts).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("no solution"), "{text}");
    }

    #[test]
    fn tiny_memory_budget_stops_with_memory_exceeded() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A hard 5-variable function with the dive disabled cannot solve
        // within one live term; the first breach sheds down to a single
        // entry (still over budget), the second stops the run cleanly.
        let mut rng = StdRng::seed_from_u64(3);
        let spec = rmrls_spec::random_permutation(5, &mut rng).to_multi_pprm();
        let opts = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_live_terms(1);
        let err = synthesize(&spec, &opts).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::MemoryExceeded));
        assert_eq!(err.stats.memory_sheds, 1, "exactly one degraded shed");
        assert!(err.stats.live_terms_peak > 1, "peak recorded above the cap");
    }

    #[test]
    fn tiny_queue_bytes_budget_also_stops() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let spec = rmrls_spec::random_permutation(5, &mut rng).to_multi_pprm();
        let opts = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_queue_bytes(1);
        let err = synthesize(&spec, &opts).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::MemoryExceeded));
        assert!(err.stats.queue_bytes_peak > 1);
    }

    #[test]
    fn identity_solves_under_any_memory_budget() {
        // The zero-gate answer never queues anything, so even a 1-term
        // budget cannot block it (mirrors the expired-deadline rule).
        let opts = SynthesisOptions::new().with_max_live_terms(1);
        let result = synthesize(&MultiPprm::identity(3), &opts).unwrap();
        assert!(result.circuit.is_empty());
    }

    #[test]
    fn moderate_memory_budget_degrades_but_still_solves() {
        // A budget tight enough to force at least one shed while leaving
        // room to reach a solution afterwards: degraded mode, not
        // failure. The search is deterministic, so once this cap is
        // calibrated the trajectory is fixed.
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let unlimited =
            synthesize(&spec, &SynthesisOptions::new().with_initial_dive(false)).expect("solution");
        assert!(unlimited.stats.memory_sheds == 0);
        let peak = unlimited.stats.live_terms_peak;
        assert!(peak > 4, "workload must actually queue states");

        let opts = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_live_terms(peak * 3 / 4);
        let result = synthesize(&spec, &opts).expect("degraded run still solves");
        verify(&spec, &result);
        assert!(
            result.stats.memory_sheds > 0,
            "cap below the unlimited peak must shed: {}",
            result.stats
        );
        assert!(result.stats.memory_shed_dropped > 0);
        assert_ne!(
            result.stats.stop_reason,
            Some(StopReason::MemoryExceeded),
            "a successful degraded run keeps its normal stop reason"
        );
    }

    #[test]
    fn recorder_captures_memory_shed_anomalies() {
        use rmrls_obs::FlightRecorder;
        // Calibrated like moderate_memory_budget_degrades_but_still_solves:
        // a cap below the unlimited peak forces at least one shed.
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let unlimited =
            synthesize(&spec, &SynthesisOptions::new().with_initial_dive(false)).expect("solution");
        let peak = unlimited.stats.live_terms_peak;

        let rec = FlightRecorder::with_default_budget();
        let mut obs = Observer::null().with_recorder(rec.clone());
        let opts = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_live_terms(peak * 3 / 4);
        let result = synthesize_with_observer(&spec, &opts, &mut obs).expect("degraded run solves");
        assert!(result.stats.memory_sheds > 0);

        assert!(rec.has_anomaly(), "shed must register as an anomaly");
        let snap = rec.snapshot();
        assert!(snap
            .records
            .iter()
            .any(|r| matches!(r.kind, TraceKind::MemoryShed { .. })));
        assert!(snap.records.iter().any(|r| matches!(
            &r.kind,
            TraceKind::Anomaly { kind, site }
                if kind == "memory_shed" && site == "core/search/shed"
        )));
        assert!(matches!(
            &snap.records.first().unwrap().kind,
            TraceKind::PhaseEnter { phase } if phase == "search"
        ));
        assert!(matches!(
            &snap.records.last().unwrap().kind,
            TraceKind::PhaseExit { phase } if phase == "search"
        ));
    }

    #[test]
    fn recorder_names_the_budget_poll_on_cancellation() {
        use rmrls_obs::FlightRecorder;
        let spec = MultiPprm::from_permutation(&[0, 1, 2, 4, 3, 5, 6, 7], 3);
        let token = crate::CancelToken::new();
        token.cancel();
        let rec = FlightRecorder::with_default_budget();
        let mut obs = Observer::null().with_recorder(rec.clone());
        let opts = SynthesisOptions::new().with_cancel_token(token);
        let err = synthesize_with_observer(&spec, &opts, &mut obs).unwrap_err();
        assert_eq!(err.stats.stop_reason, Some(StopReason::Cancelled));
        let snap = rec.snapshot();
        assert!(
            snap.records.iter().any(|r| matches!(
                &r.kind,
                TraceKind::Anomaly { kind, site }
                    if kind == "cancelled" && site == "core/search/budget-poll"
            )),
            "anomaly names the failing site"
        );
    }

    #[test]
    fn memory_accounting_peaks_are_consistent() {
        let spec = fig1();
        let result =
            synthesize(&spec, &SynthesisOptions::new().with_initial_dive(false)).expect("solution");
        // Bytes are always at least term-storage-sized.
        assert!(result.stats.queue_bytes_peak >= result.stats.live_terms_peak);
        assert!(result.stats.live_terms_peak > 0);
        assert_eq!(result.stats.memory_sheds, 0, "no budget, no sheds");
    }

    /// The circuit of a pinned run (`None` when the search failed) and,
    /// in order: `nodes_expanded`, `children_pushed`, `dedup_hits`,
    /// `depth_pruned`, `beam_trims`, `beam_dropped`, `memory_sheds`,
    /// `memory_shed_dropped`, `live_terms_peak`, `queue_bytes_peak`,
    /// `queue_peak`.
    type Pinned = (Option<&'static str>, [u64; 11]);

    /// Six seeded 3- and 4-variable functions, each under three
    /// configurations: the `TopK(4)`/2000-node options of the service
    /// benchmark, the same with a 64-entry queue (beam trims), and an
    /// exhaustive run capped below its own live-term peak (a memory
    /// shed). Rows run spec by spec, configuration by configuration.
    const PINNED: [Pinned; 18] = [
        (
            Some("TOF2(b,c) TOF3(b,c,a) TOF2(a,b) TOF2(c,a) TOF1(c) TOF3(a,b,c)"),
            [1431, 1984, 1713, 7327, 0, 0, 0, 0, 8709, 95460, 842],
        ),
        (
            Some("TOF1(a) TOF1(c) TOF3(b,c,a) TOF2(b,c) TOF2(a,b) TOF1(b) TOF2(c,a) TOF3(a,b,c)"),
            [230, 530, 353, 662, 9, 297, 0, 0, 586, 7024, 65],
        ),
        (
            Some("TOF2(b,c) TOF3(b,c,a) TOF2(a,b) TOF2(c,a) TOF1(c) TOF3(a,b,c)"),
            [1384, 1971, 1690, 6658, 0, 0, 1, 343, 6541, 75484, 685],
        ),
        (
            Some("TOF3(a,c,b) TOF3(b,c,a) TOF1(c) TOF3(a,b,c) TOF1(a) TOF2(c,b)"),
            [1250, 1250, 841, 7521, 0, 0, 0, 0, 4563, 44872, 372],
        ),
        (
            Some("TOF3(a,c,b) TOF3(b,c,a) TOF1(c) TOF3(a,b,c) TOF1(a) TOF2(c,b)"),
            [149, 380, 85, 565, 7, 231, 0, 0, 714, 7536, 65],
        ),
        (
            Some("TOF3(a,c,b) TOF3(b,c,a) TOF1(c) TOF3(a,b,c) TOF1(a) TOF2(c,b)"),
            [1046, 1204, 747, 6047, 0, 0, 1, 149, 3461, 35300, 298],
        ),
        (
            Some("TOF2(a,c) TOF2(c,a) TOF1(b) TOF2(a,c) TOF2(b,c) TOF3(a,c,b)"),
            [867, 1046, 1183, 4276, 0, 0, 0, 0, 4203, 47700, 429],
        ),
        (
            Some("TOF2(a,c) TOF2(c,a) TOF1(b) TOF2(a,c) TOF2(b,c) TOF3(a,c,b)"),
            [283, 621, 526, 736, 10, 330, 0, 0, 602, 7088, 65],
        ),
        (
            Some("TOF2(a,c) TOF2(c,a) TOF1(b) TOF2(a,c) TOF2(b,c) TOF3(a,c,b)"),
            [834, 1040, 1163, 3873, 0, 0, 1, 181, 3181, 38716, 361],
        ),
        (
            Some("TOF3(a,c,d) TOF4(a,c,d,b) TOF3(a,b,c) TOF1(a) TOF2(d,a) TOF3(b,c,a) TOF3(a,d,c) TOF3(a,b,d) TOF4(a,c,d,b) TOF1(c) TOF2(c,b) TOF2(d,c) TOF2(a,d)"),
            [2001, 14857, 3552, 447, 0, 0, 0, 0, 207608, 2064224, 12852],
        ),
        (
            Some("TOF3(a,c,d) TOF1(d) TOF2(a,c) TOF3(b,c,a) TOF3(a,d,c) TOF2(d,a) TOF1(d) TOF4(a,c,d,b) TOF2(b,c) TOF1(b) TOF3(b,d,c) TOF2(d,b) TOF3(a,b,d) TOF2(c,b) TOF3(a,c,b) TOF4(a,c,d,b) TOF1(c)"),
            [465, 3103, 691, 172, 79, 2607, 0, 0, 1766, 13304, 65],
        ),
        (
            Some("TOF3(a,c,d) TOF4(a,c,d,b) TOF3(a,b,c) TOF1(a) TOF2(d,a) TOF3(b,c,a) TOF3(a,d,c) TOF3(a,b,d) TOF4(a,c,d,b) TOF1(c) TOF2(c,b) TOF2(d,c) TOF2(a,d)"),
            [3001, 21975, 5591, 1778, 0, 0, 1, 7003, 228246, 2257560, 14006],
        ),
        (
            None,
            [2001, 18374, 3712, 0, 0, 0, 0, 0, 296407, 2757532, 16374],
        ),
        (
            Some("TOF2(a,d) TOF1(c) TOF4(b,c,d,a) TOF2(d,a) TOF2(a,b) TOF3(c,d,b) TOF1(d) TOF2(b,c) TOF3(a,d,c) TOF1(b) TOF2(a,d) TOF1(d) TOF1(b) TOF4(a,c,d,b) TOF1(d) TOF1(c) TOF2(a,b) TOF3(a,c,d) TOF1(c) TOF1(b) TOF2(b,d) TOF2(c,d) TOF3(a,c,b) TOF1(c) TOF1(a) TOF1(b) TOF3(b,c,d) TOF2(d,c) TOF3(a,b,d) TOF1(a) TOF3(b,c,d) TOF2(a,b)"),
            [1215, 8416, 1783, 1536, 218, 7194, 0, 0, 1564, 12496, 65],
        ),
        (
            None,
            [3001, 28508, 5619, 0, 0, 0, 1, 9573, 344997, 3218004, 19146],
        ),
        (
            None,
            [2001, 19515, 3680, 0, 0, 0, 0, 0, 310599, 2923836, 17515],
        ),
        (
            None,
            [2001, 18533, 4621, 0, 500, 16500, 0, 0, 1578, 12552, 65],
        ),
        (
            None,
            [3001, 30695, 5293, 0, 0, 0, 1, 10314, 368899, 3455788, 20627],
        ),
    ];

    #[test]
    fn search_decisions_are_pinned() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Every value in PINNED records a search decision (what was
        // pushed, deduplicated, pruned, trimmed or shed), so a change to
        // when states are built must leave all of them as they are.
        let mut rng = StdRng::seed_from_u64(7);
        let specs: Vec<MultiPprm> = [3, 3, 3, 4, 4, 4]
            .iter()
            .map(|&n| rmrls_spec::random_permutation(n, &mut rng).to_multi_pprm())
            .collect();
        let serve = SynthesisOptions::new()
            .with_pruning(P::TopK(4))
            .with_max_nodes(2000);
        let beam = serve.clone().with_max_queue(Some(64));
        let undived = SynthesisOptions::new()
            .with_initial_dive(false)
            .with_max_nodes(3000);
        let mut rows = PINNED.iter();
        for (i, spec) in specs.iter().enumerate() {
            let peak = synthesize(spec, &undived)
                .map_or_else(|e| e.stats, |r| r.stats)
                .live_terms_peak;
            let shed = undived.clone().with_max_live_terms(peak * 3 / 4);
            for (name, opts) in [("serve", &serve), ("beam", &beam), ("shed", &shed)] {
                check_pinned(
                    spec,
                    opts,
                    rows.next().unwrap(),
                    &format!("spec {i} {name}"),
                );
            }
        }
    }

    /// Runs one pinned search and compares its circuit and decision
    /// counters with `want`.
    fn check_pinned(spec: &MultiPprm, opts: &SynthesisOptions, want: &Pinned, label: &str) {
        let (circuit, s) = match synthesize(spec, opts) {
            Ok(r) => {
                verify(spec, &r);
                (Some(r.circuit.to_string()), r.stats)
            }
            Err(e) => (None, e.stats),
        };
        let got = [
            s.nodes_expanded,
            s.children_pushed,
            s.dedup_hits,
            s.depth_pruned,
            s.beam_trims,
            s.beam_dropped,
            s.memory_sheds,
            s.memory_shed_dropped,
            s.live_terms_peak,
            s.queue_bytes_peak,
            s.queue_peak,
        ];
        let (want_circuit, want) = want;
        assert_eq!(circuit.as_deref(), *want_circuit, "{label}");
        assert_eq!(got, *want, "{label}");
        // Only popped nodes and solution confirmations build a state;
        // queued children stay scored values.
        assert!(
            s.candidates_materialized <= s.nodes_expanded + s.solutions_seen,
            "{label}: materialized {} > expanded {} + solutions {}",
            s.candidates_materialized,
            s.nodes_expanded,
            s.solutions_seen
        );
    }

    /// Seeded 5- and 6-variable searches: a random permutation and a
    /// random 8-gate GT circuit at each width, each under two
    /// configurations: greedy first-solution with a 1500-node budget
    /// (the batch benchmark's hard-job setting) and `TopK(4)` with the
    /// same budget. Rows run spec by spec, configuration by
    /// configuration. The greedy dive alone solves both circuit specs,
    /// so their greedy rows pin the circuit with zero queue counters.
    const PINNED_WIDE: [Pinned; 8] = [
        (
            None,
            [1501, 7280, 225, 0, 0, 0, 0, 0, 284681, 1832324, 5780],
        ),
        (
            None,
            [1501, 28327, 1249, 0, 0, 0, 0, 0, 1322954, 8511056, 26827],
        ),
        (
            Some("TOF3(c,e,d) TOF5(a,c,d,e,b) TOF1(e) TOF3(b,d,a) TOF1(c) TOF4(a,b,e,d)"),
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            Some("TOF3(c,e,d) TOF5(a,c,d,e,b) TOF1(e) TOF3(b,d,a) TOF1(c) TOF4(a,b,e,d)"),
            [1501, 2980, 1052, 13018, 0, 0, 0, 0, 32232, 306888, 1483],
        ),
        (
            None,
            [1501, 8866, 140, 0, 0, 0, 0, 0, 963892, 4916272, 7366],
        ),
        (
            None,
            [1501, 34756, 1268, 0, 0, 0, 0, 0, 4137303, 21338076, 33256],
        ),
        (
            Some("TOF6(b,c,d,e,f,a) TOF3(b,d,f) TOF4(a,b,c,e) TOF5(a,b,c,f,e) TOF5(a,b,c,d,f) TOF4(b,d,e,a) TOF5(b,c,d,e,a) TOF1(d)"),
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            Some("TOF3(b,d,f) TOF4(b,d,e,a) TOF6(b,c,d,e,f,a) TOF5(a,b,c,f,e) TOF5(a,b,c,d,f) TOF1(d) TOF4(a,b,c,e)"),
            [1501, 5700, 1791, 10305, 0, 0, 0, 0, 82776, 934464, 4190],
        ),
    ];

    #[test]
    fn wide_search_decisions_are_pinned() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rmrls_spec::GateLibrary;
        let mut rng = StdRng::seed_from_u64(21);
        let mut specs = Vec::new();
        for n in [5, 6] {
            specs.push(rmrls_spec::random_permutation(n, &mut rng).to_multi_pprm());
            let (perm, _) = rmrls_spec::random_circuit_spec(n, 8, GateLibrary::Gt, &mut rng);
            specs.push(perm.to_multi_pprm());
        }
        let greedy = SynthesisOptions::new()
            .with_pruning(P::Greedy)
            .with_stop_at_first(true)
            .with_max_nodes(1500);
        let top4 = SynthesisOptions::new()
            .with_pruning(P::TopK(4))
            .with_max_nodes(1500);
        let mut rows = PINNED_WIDE.iter();
        for (i, spec) in specs.iter().enumerate() {
            for (name, opts) in [("greedy", &greedy), ("top4", &top4)] {
                check_pinned(
                    spec,
                    opts,
                    rows.next().unwrap(),
                    &format!("wide spec {i} {name}"),
                );
            }
        }
    }
}
