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
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::time::Instant;

use rmrls_circuit::{Circuit, Gate};
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

/// Hashes a state fingerprint to itself. The fingerprint is already a
/// splitmix64-mixed 64-bit value ([`MultiPprm::fingerprint`]), so
/// hashing it again only costs time; the search never iterates the
/// map, so its hasher decides nothing.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
}

/// A map keyed by state fingerprint.
type FingerprintMap<V> = HashMap<u64, V, BuildHasherDefault<FingerprintHasher>>;

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
/// `MultiPprm`; the frontier-size observation uses `child.terms`.
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
/// The moves go into the flat `moves` buffer, and `group_ends[g]` is
/// the end of group `g` in it; both are cleared first, so a search
/// reuses one pair of buffers for every node.
fn enumerate_move_groups(
    state: &MultiPprm,
    options: &SynthesisOptions,
    parent_gate: Option<Gate>,
    moves: &mut Vec<EnumMove>,
    group_ends: &mut Vec<usize>,
) {
    moves.clear();
    group_ends.clear();
    let n = state.num_vars();
    for var in 0..n {
        // Type 1 requires the bare target term `v_i` in its own output
        // expansion (the paper's basic algorithm does not list
        // c-targeted substitutions for Fig. 1's `c_out = b ⊕ ab ⊕ ac`
        // at the root — only §IV-D type 2 adds them).
        if !options.additional_substitutions && !state.has_term(var, Term::var(var)) {
            continue;
        }
        let mut saw_constant_one = false;
        for factor in state.toffoli_factors(var) {
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
        group_ends.push(moves.len());
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
                moves.extend(controls.into_iter().map(|control| EnumMove {
                    mv: Move::Fredkin { a, b, control },
                    gate: Gate::fredkin_mask(control.mask(), a, b),
                    lits: control.literal_count() + 1,
                    allow_growth: false,
                }));
                group_ends.push(moves.len());
            }
        }
    }
}

/// Applies a move to a state, producing the child expansion.
fn apply_move(state: &MultiPprm, mv: Move, scratch: &mut SubstScratch) -> (MultiPprm, i64) {
    match mv {
        Move::Toffoli { var, factor } => state.substitute_with(var, factor, scratch),
        Move::Fredkin { a, b, control } => state.substitute_fredkin_with(a, b, control, scratch),
    }
}

/// A move scored without materializing it: the child's term count, and
/// its fingerprint unless the move was scored on its count alone.
struct Score {
    terms: usize,
    fp: Option<u64>,
}

impl From<SubstCount> for Score {
    fn from(count: SubstCount) -> Self {
        Score {
            terms: count.terms,
            fp: Some(count.fingerprint),
        }
    }
}

/// Scores a move without materializing it. With `counts_only` a
/// Toffoli move gets its term count alone
/// ([`MultiPprm::count_substitute_terms`]); [`move_fingerprint`] gives
/// the rest on demand. Fredkin moves have only the sorted kernel, which
/// derives the fingerprint along with the count, so `expand` never
/// scores a Fredkin group on counts alone.
fn score_move(state: &MultiPprm, mv: Move, counts_only: bool, scratch: &mut SubstScratch) -> Score {
    match mv {
        Move::Toffoli { var, factor } if counts_only => Score {
            terms: state.count_substitute_terms(var, factor, scratch),
            fp: None,
        },
        Move::Toffoli { var, factor } => state.count_substitute(var, factor, scratch).into(),
        Move::Fredkin { a, b, control } => state
            .count_substitute_fredkin(a, b, control, scratch)
            .into(),
    }
}

/// The fingerprint of a move's child, for a move scored on its count.
fn move_fingerprint(state: &MultiPprm, mv: Move, scratch: &mut SubstScratch) -> u64 {
    match mv {
        Move::Toffoli { var, factor } => state.substitute_fingerprint(var, factor, scratch),
        Move::Fredkin { a, b, control } => {
            state
                .count_substitute_fredkin(a, b, control, scratch)
                .fingerprint
        }
    }
}

/// The queue priority a scored candidate would receive, or `None` when
/// the monotone filter discards it.
fn candidate_priority(
    options: &SynthesisOptions,
    init_terms: usize,
    num_vars: usize,
    child_depth: u32,
    (terms, eliminated): (usize, i64),
    lits: u32,
    allow_growth: bool,
) -> Option<f64> {
    let cumulative = init_terms as i64 - terms as i64;
    let improving = eliminated > 0 || allow_growth;
    if !improving && options.monotone_only {
        return None;
    }
    let mut priority = match options.priority_mode {
        crate::PriorityMode::CumulativeRate => {
            options.weights.priority(child_depth, cumulative, lits)
        }
        crate::PriorityMode::StepElim => options.weights.priority(child_depth, eliminated, lits),
        crate::PriorityMode::FewestTerms => {
            -(terms as f64) + 0.01 * f64::from(child_depth) - 0.05 * f64::from(lits)
        }
        crate::PriorityMode::AStar => {
            let n = num_vars as f64;
            let h = (terms as f64 - n).max(0.0) * options.astar_weight;
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
/// the scoring kernels' predictions (term count, fingerprint,
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
    /// dedup *before* any allocation happens). A group scored on counts
    /// alone fills it in only for the candidates pruning keeps (see
    /// [`Search::expand`]); until then it is 0.
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
    visited: FingerprintMap<(u32, u32)>,
    steps_since_restart: u64,
    /// Total predicted PPRM terms across queued children, maintained
    /// incrementally (push adds, pop subtracts, queue rebuilds recount)
    /// for progress reports and `SearchStats::live_terms_peak`.
    live_terms: u64,
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
    /// Per-search buffers for [`Search::expand`]: the enumerated moves
    /// of the node being expanded, flat, with the end of each pruning
    /// group, and the kept candidates of one group. Reused for every
    /// node, so expanding one allocates nothing once they have grown.
    moves: Vec<EnumMove>,
    group_ends: Vec<usize>,
    candidates: Vec<Candidate>,
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
            visited: FingerprintMap::default(),
            steps_since_restart: 0,
            live_terms: 0,
            segment_start: Instant::now(),
            segment_start_nodes: 0,
            scratch: SubstScratch::new(),
            identity_fp,
            moves: Vec::new(),
            group_ends: Vec::new(),
            candidates: Vec::new(),
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

    /// Recomputes the frontier size (`live_terms`) from the queue
    /// contents. Called after every bulk queue rebuild (beam trim,
    /// restart reseed) where incremental bookkeeping would be
    /// error-prone.
    fn observe_frontier(&mut self) {
        self.live_terms = self.queue.iter().map(|e| e.child.terms as u64).sum();
        self.stats.live_terms_peak = self.stats.live_terms_peak.max(self.live_terms);
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
    ///
    /// Pruning picks each group's best candidates as they are scored
    /// ([`offer_ranked`]). Where it will cut a word-width Toffoli group
    /// (more moves than it keeps), the group is scored on term counts alone
    /// and only the kept candidates get their fingerprints, before
    /// dedup sees them; every other group is fingerprinted as it is
    /// scored.
    fn expand(&mut self, node: &Rc<Node>) -> bool {
        let state = &node.state;
        let child_depth = node.depth + 1;
        let parent_gate = node.path.as_ref().map(|p| p.gate);

        if self.obs.is_active() {
            self.obs.on_expand(node.depth, state.total_terms());
        }

        let mut moves = std::mem::take(&mut self.moves);
        let mut group_ends = std::mem::take(&mut self.group_ends);
        let mut candidates = std::mem::take(&mut self.candidates);
        enumerate_move_groups(
            state,
            self.options,
            parent_gate,
            &mut moves,
            &mut group_ends,
        );

        let keep = self.options.pruning.keep();
        let word_width = state.is_word_width();
        let mut solved = false;
        let mut start = 0;
        'groups: for &end in &group_ends {
            let group = &moves[start..end];
            start = end;
            // Groups are all Toffoli or all Fredkin, and only Toffoli
            // moves have a count-only kernel.
            let counts_only = word_width
                && keep.is_some_and(|k| k < group.len())
                && matches!(group[0].mv, Move::Toffoli { .. });
            candidates.clear();
            for em in group {
                let score = score_move(state, em.mv, counts_only, &mut self.scratch);
                if self.consider_scored(node, em, score, child_depth, keep, &mut candidates) {
                    solved = true;
                    break 'groups;
                }
            }
            if counts_only {
                for c in &mut candidates {
                    c.fp = move_fingerprint(state, c.mv, &mut self.scratch);
                }
            }
            for c in candidates.drain(..) {
                self.push_child(node, c, child_depth);
            }
        }
        self.moves = moves;
        self.group_ends = group_ends;
        self.candidates = candidates;
        solved
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
    /// check, priority, and selection into the group's kept candidates
    /// ([`offer_ranked`] with the pruning's `keep`). No child state
    /// exists yet — a candidate is only materialized here if it turns
    /// out to be a solution (confirmed against the real state, so a
    /// fingerprint collision can never fabricate one); survivors of
    /// `push_child` are materialized when they are popped. A candidate
    /// scored on its count alone whose count is the identity's gets its
    /// fingerprint here, so the solution check never waits for
    /// selection.
    /// Returns `true` when a solution was found and the caller should
    /// stop immediately (`stop_at_first`).
    fn consider_scored(
        &mut self,
        node: &Node,
        em: &EnumMove,
        score: Score,
        child_depth: u32,
        keep: Option<usize>,
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
        let Score { terms, mut fp } = score;
        let eliminated = node.state.total_terms() as i64 - terms as i64;

        // Identity test on the score: the fingerprint is deterministic,
        // so a true identity always matches (no false negatives); a
        // match is confirmed on the materialized state before being
        // recorded as a solution.
        let n = node.state.num_vars();
        if terms == n
            && *fp.get_or_insert_with(|| move_fingerprint(&node.state, mv, &mut self.scratch))
                == self.identity_fp
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
            (terms, eliminated),
            lits,
            allow_growth,
        ) {
            let candidate = Candidate {
                gate,
                mv,
                eliminated,
                priority,
                terms,
                fp: fp.unwrap_or_default(),
            };
            offer_ranked(candidates, keep, candidate);
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
        self.stats.live_terms_peak = self.stats.live_terms_peak.max(self.live_terms);
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
                self.observe_frontier();
            }
        }
    }

    /// Polls the [`Budget`](crate::Budget), in precedence order:
    /// cooperative cancellation, then the deadline. Runs without a
    /// deadline never touch the clock here.
    fn budget_stop(&self) -> Option<StopReason> {
        if rmrls_obs::fail::trigger("core/search/budget-poll").is_err() {
            return Some(StopReason::Cancelled);
        }
        let budget = &self.options.budget;
        if budget.cancelled() {
            return Some(StopReason::Cancelled);
        }
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::DeadlineExpired);
        }
        None
    }

    /// Writes the anomaly record for an abnormal stop (deadline expiry,
    /// cancellation) into the flight recorder, if one is attached.
    /// Normal stops (queue exhausted, first solution, node or time
    /// budget) are not anomalies.
    fn record_stop_anomaly(&self, reason: StopReason) {
        if let Some(r) = self.obs.recorder() {
            match reason {
                StopReason::DeadlineExpired => {
                    r.anomaly("deadline_expired", "core/search/budget-poll");
                }
                StopReason::Cancelled => {
                    r.anomaly("cancelled", "core/search/budget-poll");
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

/// Offers a group's next scored candidate to the ones kept so far.
/// Without a `keep` (exhaustive pruning) every candidate is kept, in
/// enumeration order. With one, `kept` holds the `keep`
/// highest-priority candidates offered so far, best first, equal
/// priorities in enumeration order (the order a stable sort by
/// descending priority gives), and a candidate that ranks below all
/// `keep` of them is dropped.
fn offer_ranked(kept: &mut Vec<Candidate>, keep: Option<usize>, candidate: Candidate) {
    let Some(keep) = keep else {
        kept.push(candidate);
        return;
    };
    // Offered later, the candidate ranks after every equal priority.
    let slot = kept.partition_point(|c| c.priority.total_cmp(&candidate.priority).is_ge());
    if slot < keep {
        if kept.len() == keep {
            kept.pop();
        }
        kept.insert(slot, candidate);
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
        // Two-phase like the main search: score every factor on its
        // term count, materialize only the winner (or a solution).
        // (elim desc, literal count asc, var asc)
        let mut best: Option<(i64, u32, usize, Term)> = None;
        for var in 0..n {
            for factor in state.toffoli_factors(var) {
                let terms = state.count_substitute_terms(var, factor, &mut scratch);
                if terms == n
                    && state.substitute_fingerprint(var, factor, &mut scratch) == identity_fp
                {
                    let (next, _) = state.substitute_with(var, factor, &mut scratch);
                    if next.is_identity() {
                        gates.push(Gate::toffoli_mask(factor.mask(), var));
                        return Some(gates);
                    }
                }
                let eliminated = state.total_terms() as i64 - terms as i64;
                if eliminated <= 0 {
                    continue;
                }
                let lits = factor.literal_count();
                let better = match &best {
                    None => true,
                    Some((be, bl, bv, _)) => (-eliminated, lits, var) < (-*be, *bl, *bv),
                };
                if better {
                    best = Some((eliminated, lits, var, factor));
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
/// Returns [`NoSolutionError`] when the search stops (deadline, node
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
        search.observe_frontier();
    };
    reseed(&mut search, &root_children);

    loop {
        let Some(entry) = search.queue.pop() else {
            search.stats.stop_reason = Some(StopReason::QueueExhausted);
            break;
        };
        search.live_terms = search.live_terms.saturating_sub(entry.child.terms as u64);
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
/// inverse (splitting any deadline between them) and returns the
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
    // The forward run gets half of whatever time remains, so the
    // backward run is never starved by a forward run that spends the
    // whole deadline; the backward run gets the rest.
    let mut forward_opts = options.clone();
    forward_opts.budget = options.budget.share(2);
    let forward = synthesize(&spec.to_multi_pprm(), &forward_opts);
    let backward = synthesize(&spec.inverse().to_multi_pprm(), options).map(|mut r| {
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

    /// The selection rule the search applied after scoring a whole
    /// group, before it picked candidates as they were scored: keep the
    /// `keep` highest priorities, best first, equal priorities in
    /// enumeration order (`ord`, the candidate's position in the group).
    fn keep_ranked(candidates: &mut Vec<(u32, Candidate)>, keep: usize) {
        let rank = |(a_ord, a): &(u32, Candidate), (b_ord, b): &(u32, Candidate)| {
            b.priority
                .total_cmp(&a.priority)
                .then_with(|| a_ord.cmp(b_ord))
        };
        if keep < candidates.len() {
            candidates.select_nth_unstable_by(keep, rank);
            candidates.truncate(keep);
        }
        candidates.sort_unstable_by(rank);
    }

    /// Each candidate's position in its group (`terms`) and priority.
    fn ids<'c>(candidates: impl Iterator<Item = &'c Candidate>) -> Vec<(usize, u64)> {
        candidates
            .map(|c| (c.terms, c.priority.to_bits()))
            .collect()
    }

    #[test]
    fn scoring_time_selection_keeps_what_ranking_the_whole_group_kept() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        // Few distinct priorities, so most groups are full of ties;
        // total_cmp tells the two zeros apart, as both rules must.
        let priorities = [-3.5, -0.0, 0.0, 1.25, 7.0];
        for trial in 0..2000 {
            let len = rng.random_range(0..12usize);
            let group: Vec<Candidate> = (0..len)
                .map(|i| Candidate {
                    gate: Gate::not(0),
                    mv: Move::Toffoli {
                        var: 0,
                        factor: Term::ONE,
                    },
                    eliminated: 0,
                    priority: priorities[rng.random_range(0..priorities.len())],
                    terms: i,
                    fp: i as u64,
                })
                .collect();
            for keep in [1, 2, 4] {
                let mut want: Vec<(u32, Candidate)> = group
                    .iter()
                    .enumerate()
                    .map(|(ord, c)| (ord as u32, c.clone()))
                    .collect();
                keep_ranked(&mut want, keep);
                let mut kept = Vec::new();
                for c in &group {
                    offer_ranked(&mut kept, Some(keep), c.clone());
                }
                assert_eq!(
                    ids(kept.iter()),
                    ids(want.iter().map(|(_, c)| c)),
                    "trial {trial}, keep {keep}, group of {len}"
                );
            }
            let mut all = Vec::new();
            for c in &group {
                offer_ranked(&mut all, None, c.clone());
            }
            assert!(
                all.iter().map(|c| c.terms).eq(0..len),
                "no keep: all, in order"
            );
        }
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
    fn recorder_names_the_budget_poll_on_cancellation() {
        use rmrls_obs::{FlightRecorder, TraceKind};
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
        assert!(result.stats.live_terms_peak > 0);
    }

    /// The circuit of a pinned run (`None` when the search failed) and,
    /// in order: `nodes_expanded`, `children_pushed`, `dedup_hits`,
    /// `depth_pruned`, `beam_trims`, `beam_dropped`, `live_terms_peak`,
    /// `queue_peak`.
    type Pinned = (Option<&'static str>, [u64; 8]);

    /// Six seeded 3- and 4-variable functions, each under three
    /// configurations: the `TopK(4)`/2000-node options of the service
    /// benchmark, the same with a 64-entry queue (beam trims), and an
    /// exhaustive 3000-node run without the seeding dive. Rows run spec
    /// by spec, configuration by configuration.
    const PINNED: [Pinned; 18] = [
        (
            Some("TOF2(b,c) TOF3(b,c,a) TOF2(a,b) TOF2(c,a) TOF1(c) TOF3(a,b,c)"),
            [1431, 1984, 1713, 7327, 0, 0, 8709, 842],
        ),
        (
            Some("TOF1(a) TOF1(c) TOF3(b,c,a) TOF2(b,c) TOF2(a,b) TOF1(b) TOF2(c,a) TOF3(a,b,c)"),
            [230, 530, 353, 662, 9, 297, 586, 65],
        ),
        (
            Some("TOF2(b,c) TOF3(b,c,a) TOF2(a,b) TOF2(c,a) TOF1(c) TOF3(a,b,c)"),
            [1431, 1984, 1713, 7327, 0, 0, 8709, 842],
        ),
        (
            Some("TOF3(a,c,b) TOF3(b,c,a) TOF1(c) TOF3(a,b,c) TOF1(a) TOF2(c,b)"),
            [1250, 1250, 841, 7521, 0, 0, 4563, 372],
        ),
        (
            Some("TOF3(a,c,b) TOF3(b,c,a) TOF1(c) TOF3(a,b,c) TOF1(a) TOF2(c,b)"),
            [149, 380, 85, 565, 7, 231, 714, 65],
        ),
        (
            Some("TOF3(a,c,b) TOF3(b,c,a) TOF1(c) TOF3(a,b,c) TOF1(a) TOF2(c,b)"),
            [1251, 1260, 846, 7517, 0, 0, 4563, 372],
        ),
        (
            Some("TOF2(a,c) TOF2(c,a) TOF1(b) TOF2(a,c) TOF2(b,c) TOF3(a,c,b)"),
            [867, 1046, 1183, 4276, 0, 0, 4203, 429],
        ),
        (
            Some("TOF2(a,c) TOF2(c,a) TOF1(b) TOF2(a,c) TOF2(b,c) TOF3(a,c,b)"),
            [283, 621, 526, 736, 10, 330, 602, 65],
        ),
        (
            Some("TOF2(a,c) TOF2(c,a) TOF1(b) TOF2(a,c) TOF2(b,c) TOF3(a,c,b)"),
            [867, 1046, 1183, 4276, 0, 0, 4203, 429],
        ),
        (
            Some("TOF3(a,c,d) TOF4(a,c,d,b) TOF3(a,b,c) TOF1(a) TOF2(d,a) TOF3(b,c,a) TOF3(a,d,c) TOF3(a,b,d) TOF4(a,c,d,b) TOF1(c) TOF2(c,b) TOF2(d,c) TOF2(a,d)"),
            [2001, 14857, 3552, 447, 0, 0, 207608, 12852],
        ),
        (
            Some("TOF3(a,c,d) TOF1(d) TOF2(a,c) TOF3(b,c,a) TOF3(a,d,c) TOF2(d,a) TOF1(d) TOF4(a,c,d,b) TOF2(b,c) TOF1(b) TOF3(b,d,c) TOF2(d,b) TOF3(a,b,d) TOF2(c,b) TOF3(a,c,b) TOF4(a,c,d,b) TOF1(c)"),
            [465, 3103, 691, 172, 79, 2607, 1766, 65],
        ),
        (
            Some("TOF3(a,c,d) TOF4(a,c,d,b) TOF3(a,b,c) TOF1(a) TOF2(d,a) TOF3(b,c,a) TOF3(a,d,c) TOF3(a,b,d) TOF4(a,c,d,b) TOF1(c) TOF2(c,b) TOF2(d,c) TOF2(a,d)"),
            [3001, 21975, 5591, 1778, 0, 0, 304260, 18970],
        ),
        (
            None,
            [2001, 18374, 3712, 0, 0, 0, 296407, 16374],
        ),
        (
            Some("TOF2(a,d) TOF1(c) TOF4(b,c,d,a) TOF2(d,a) TOF2(a,b) TOF3(c,d,b) TOF1(d) TOF2(b,c) TOF3(a,d,c) TOF1(b) TOF2(a,d) TOF1(d) TOF1(b) TOF4(a,c,d,b) TOF1(d) TOF1(c) TOF2(a,b) TOF3(a,c,d) TOF1(c) TOF1(b) TOF2(b,d) TOF2(c,d) TOF3(a,c,b) TOF1(c) TOF1(a) TOF1(b) TOF3(b,c,d) TOF2(d,c) TOF3(a,b,d) TOF1(a) TOF3(b,c,d) TOF2(a,b)"),
            [1215, 8416, 1783, 1536, 218, 7194, 1564, 65],
        ),
        (
            None,
            [3001, 28508, 5619, 0, 0, 0, 459939, 25508],
        ),
        (
            None,
            [2001, 19515, 3680, 0, 0, 0, 310599, 17515],
        ),
        (
            None,
            [2001, 18533, 4621, 0, 500, 16500, 1578, 65],
        ),
        (
            None,
            [3001, 30695, 5293, 0, 0, 0, 491796, 27695],
        ),
    ];

    #[test]
    fn search_decisions_are_pinned() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Every value in PINNED records a search decision (what was
        // pushed, deduplicated, pruned or trimmed), so a change to
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
            for (name, opts) in [("serve", &serve), ("beam", &beam), ("undived", &undived)] {
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
            s.live_terms_peak,
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
            [1501, 7280, 225, 0, 0, 0, 284681, 5780],
        ),
        (
            None,
            [1501, 28327, 1249, 0, 0, 0, 1322954, 26827],
        ),
        (
            Some("TOF3(c,e,d) TOF5(a,c,d,e,b) TOF1(e) TOF3(b,d,a) TOF1(c) TOF4(a,b,e,d)"),
            [0, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            Some("TOF3(c,e,d) TOF5(a,c,d,e,b) TOF1(e) TOF3(b,d,a) TOF1(c) TOF4(a,b,e,d)"),
            [1501, 2980, 1052, 13018, 0, 0, 32232, 1483],
        ),
        (
            None,
            [1501, 8866, 140, 0, 0, 0, 963892, 7366],
        ),
        (
            None,
            [1501, 34756, 1268, 0, 0, 0, 4137303, 33256],
        ),
        (
            Some("TOF6(b,c,d,e,f,a) TOF3(b,d,f) TOF4(a,b,c,e) TOF5(a,b,c,f,e) TOF5(a,b,c,d,f) TOF4(b,d,e,a) TOF5(b,c,d,e,a) TOF1(d)"),
            [0, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            Some("TOF3(b,d,f) TOF4(b,d,e,a) TOF6(b,c,d,e,f,a) TOF5(a,b,c,f,e) TOF5(a,b,c,d,f) TOF1(d) TOF4(a,b,c,e)"),
            [1501, 5700, 1791, 10305, 0, 0, 82776, 4190],
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
