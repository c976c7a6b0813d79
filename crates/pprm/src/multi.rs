//! Multi-output PPRM expansions — the search state of RMRLS.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::{BitTable, Pprm, Term};

/// Reusable buffers for the substitution kernels.
///
/// Up to 6 variables (`WORD_VARS`), scoring a candidate substitution
/// ([`MultiPprm::count_substitute`], or its count-only and fingerprint
/// halves) and materializing a surviving one
/// ([`MultiPprm::substitute_with`]) work on one-word term masks and
/// never touch the scratch. Wider states, and every Fredkin move, use
/// the sorted kernel: it stages the generated terms of each rewritten
/// output in this scratch vector before merging them into the sorted
/// expansion. Owning the scratch outside the state lets a search loop
/// evaluate millions of candidates without a single heap allocation in
/// the scoring phase: the vector grows to the high-water mark of one
/// output's generated terms and is reused from then on.
///
/// The buffer carries no state between calls (every kernel clears it on
/// entry), so one scratch per search thread is enough.
#[derive(Debug, Default)]
pub struct SubstScratch {
    generated: Vec<Term>,
}

impl SubstScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SubstScratch::default()
    }
}

/// The result of scoring a candidate substitution without materializing
/// the child state: everything pruning heuristics and state
/// deduplication need, at a fraction of the cost of
/// [`MultiPprm::substitute`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubstCount {
    /// Total PPRM terms of the would-be child state.
    pub terms: usize,
    /// Terms eliminated relative to the parent (negative if the state
    /// grew).
    pub eliminated: i64,
    /// The child's [`MultiPprm::fingerprint`], computed incrementally
    /// from the parent's.
    pub fingerprint: u64,
}

/// `mix64(0)` must not be 0 (a splitmix64 finalizer fixes 0), so every
/// key is offset by the golden-ratio increment before finalizing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a cheap, statistically strong 64-bit
/// mixer built from two multiply-xorshift rounds (the same family as
/// FNV/Fx folds, but with full avalanche).
#[inline]
const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hash contribution of one `(output, term)` membership pair.
#[inline]
const fn term_hash(output: usize, term: Term) -> u64 {
    mix64(((output as u64) << 32) | term.mask() as u64)
}

/// The widest state whose outputs each fit in one `u64` membership word:
/// `2^6 = 64` monomial masks. Up to this width the substitution kernels
/// work on the words; above it they merge sorted term vectors.
const WORD_VARS: usize = 6;

/// `SEL[u]` has bit `t` set iff monomial mask `t` contains `x_u`.
const SEL: [u64; WORD_VARS] = [
    0xaaaa_aaaa_aaaa_aaaa,
    0xcccc_cccc_cccc_cccc,
    0xf0f0_f0f0_f0f0_f0f0,
    0xff00_ff00_ff00_ff00,
    0xffff_0000_ffff_0000,
    0xffff_ffff_0000_0000,
];

/// `TERM_HASH[i][t]` is [`term_hash`]`(i, t)` for every output and
/// monomial of a word-width state, so the word kernel's fingerprint
/// delta is one table load per generated term.
const TERM_HASH: [[u64; 64]; WORD_VARS] = {
    let mut table = [[0u64; 64]; WORD_VARS];
    let mut i = 0;
    while i < WORD_VARS {
        let mut t = 0;
        while t < 64 {
            table[i][t] = term_hash(i, Term::from_mask(t as u32));
            t += 1;
        }
        i += 1;
    }
    table
};

/// The membership words of a state (bit `t` of word `i` set iff
/// monomial mask `t` is a term of output `i`), or all zeros above
/// `WORD_VARS`.
fn term_words(num_vars: usize, outputs: &[Pprm]) -> [u64; WORD_VARS] {
    let mut words = [0; WORD_VARS];
    if num_vars <= WORD_VARS {
        for (w, p) in words.iter_mut().zip(outputs) {
            *w = p.terms().iter().fold(0, |w, t| w | 1 << t.mask());
        }
    }
    words
}

/// The terms that `x_var := x_var ⊕ factor` generates on every output,
/// one word per output: the terms containing `x_var` with `x_var`
/// removed, then multiplied by each literal `x_u` of `factor` in turn,
/// all six membership words stepping through the literals in lockstep.
/// A term already containing `x_u` stays put; any other moves up by
/// `2^u`. Colliding terms cancel in the XOR, exactly as generated terms
/// cancel in pairs. Words past `num_vars` are zero and stay zero, and so
/// does the word of an output that does not mention `x_var`.
#[inline]
fn generated_words(words: &[u64; WORD_VARS], var: usize, factor: Term) -> [u64; WORD_VARS] {
    let shift = 1u32 << var;
    let mut g = words.map(|w| (w & SEL[var]) >> shift);
    let mut literals = factor.mask();
    while literals != 0 {
        let u = literals.trailing_zeros() as usize;
        literals &= literals - 1;
        let (sel, shift) = (SEL[u], 1u32 << u);
        for g in &mut g {
            *g = (*g & sel) ^ ((*g & !sel) << shift);
        }
    }
    g
}

/// Total terms of the child whose words are `words[i] ^ g[i]`.
#[inline]
fn child_terms(words: &[u64; WORD_VARS], g: &[u64; WORD_VARS]) -> usize {
    words
        .iter()
        .zip(g)
        .map(|(w, g)| (w ^ g).count_ones() as usize)
        .sum()
}

/// The fingerprint flip of toggling the terms in `g` on `output`.
#[inline]
fn word_delta(output: usize, mut g: u64) -> u64 {
    let mut delta = 0;
    while g != 0 {
        delta ^= TERM_HASH[output][g.trailing_zeros() as usize];
        g &= g - 1;
    }
    delta
}

/// The terms of a membership word: its set bits walked in ascending
/// order, which are already ascending masks.
struct WordTerms(u64);

impl Iterator for WordTerms {
    type Item = Term;

    #[inline]
    fn next(&mut self) -> Option<Term> {
        if self.0 == 0 {
            return None;
        }
        let t = Term::from_mask(self.0.trailing_zeros());
        self.0 &= self.0 - 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

/// Base fingerprint of a state with no terms at all.
#[inline]
fn fingerprint_seed(num_vars: usize) -> u64 {
    mix64(0x517c_c1b7_2722_0a95 ^ (num_vars as u64))
}

/// Sorts the staged generated terms and walks them against the sorted
/// parent expansion, returning `(survivors, matched, delta)`:
/// `survivors` generated terms remain after even multiplicities cancel
/// in pairs, `matched` of those already occur in the parent (and will
/// cancel against it), and `delta` is the XOR of their
/// [`term_hash`]es — the fingerprint flip of this output's rewrite.
///
/// The child's term count for this output is
/// `parent.len() + survivors - 2 * matched`.
fn score_generated(parent: &[Term], gen: &mut [Term], output: usize) -> (usize, usize, u64) {
    gen.sort_unstable();
    let (mut survivors, mut matched, mut delta) = (0usize, 0usize, 0u64);
    let (mut j, mut k) = (0usize, 0usize);
    while k < gen.len() {
        let g = gen[k];
        let mut run = 1;
        while k + run < gen.len() && gen[k + run] == g {
            run += 1;
        }
        k += run;
        if run % 2 == 0 {
            continue;
        }
        survivors += 1;
        delta ^= term_hash(output, g);
        while j < parent.len() && parent[j] < g {
            j += 1;
        }
        if j < parent.len() && parent[j] == g {
            matched += 1;
            j += 1;
        }
    }
    (survivors, matched, delta)
}

/// Materializing twin of [`score_generated`]: merges the staged
/// generated terms into the parent expansion (symmetric difference)
/// and returns the new sorted term vector plus the fingerprint delta.
fn merge_generated(parent: &[Term], gen: &mut [Term], output: usize) -> (Vec<Term>, u64) {
    gen.sort_unstable();
    let mut out = Vec::with_capacity(parent.len() + gen.len());
    let mut delta = 0u64;
    let (mut j, mut k) = (0usize, 0usize);
    while k < gen.len() {
        let g = gen[k];
        let mut run = 1;
        while k + run < gen.len() && gen[k + run] == g {
            run += 1;
        }
        k += run;
        if run % 2 == 0 {
            continue;
        }
        delta ^= term_hash(output, g);
        while j < parent.len() && parent[j] < g {
            out.push(parent[j]);
            j += 1;
        }
        if j < parent.len() && parent[j] == g {
            j += 1; // cancels against the parent term
        } else {
            out.push(g);
        }
    }
    out.extend_from_slice(&parent[j..]);
    (out, delta)
}

/// The PPRM expansions of all `n` outputs of an `n`-input/`n`-output
/// reversible function, with output `i` paired with input variable `x_i`.
///
/// This is the state the RMRLS search manipulates: a substitution
/// `x_v := x_v ⊕ f` rewrites every output expansion, and synthesis is
/// complete when the state [`is the identity`](MultiPprm::is_identity)
/// (`out_i = x_i` for all `i`).
///
/// The state caches its [`total_terms`](MultiPprm::total_terms) and its
/// [`fingerprint`](MultiPprm::fingerprint), so both are O(1) reads; the
/// substitution kernels maintain the caches incrementally.
///
/// Up to 6 variables the state *is* one membership word per output
/// plus those two caches: a substitution's child is a copy of the
/// words with the rewritten outputs toggled, and allocates nothing. The
/// sorted term vectors ([`output`](MultiPprm::output),
/// [`outputs`](MultiPprm::outputs), and through them `Display` and the
/// sorted kernels) are built from the words on first use. Wider states
/// always carry their term vectors.
///
/// ```
/// use rmrls_pprm::MultiPprm;
///
/// // The paper's Fig. 1 function as a permutation of {0..8}.
/// let m = MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3);
/// assert_eq!(m.output(0).to_string(), "1 ⊕ a");       // a_o = a ⊕ 1
/// assert_eq!(m.output(1).to_string(), "b ⊕ c ⊕ ac");  // b_o
/// assert_eq!(m.output(2).to_string(), "b ⊕ ab ⊕ ac"); // c_o
/// assert_eq!(m.total_terms(), 8);
/// ```
#[derive(Clone)]
pub struct MultiPprm {
    num_vars: usize,
    /// Cached sum of all output term counts. Invariant: always equals
    /// `outputs().iter().map(Pprm::len).sum()`.
    total_terms: usize,
    /// Cached order-independent state fingerprint; see
    /// [`fingerprint`](MultiPprm::fingerprint).
    fp: u64,
    /// Membership word of each output when `num_vars <= WORD_VARS` (bit
    /// `t` set iff monomial mask `t` is a term), all zeros otherwise.
    /// Up to `WORD_VARS` this is the state.
    words: [u64; WORD_VARS],
    /// Per-output sorted term vectors. Always set above `WORD_VARS`;
    /// up to it, built from `words` on first use. Invariant: once set,
    /// `term_words(num_vars, outputs) == words`.
    outputs: OnceLock<Vec<Pprm>>,
}

/// Equal states have equal words (up to 6 variables) or equal term
/// vectors (above); the cached counts and fingerprints are compared too.
impl PartialEq for MultiPprm {
    fn eq(&self, other: &Self) -> bool {
        self.num_vars == other.num_vars
            && self.total_terms == other.total_terms
            && self.fp == other.fp
            && self.words == other.words
            && (self.num_vars <= WORD_VARS || self.outputs() == other.outputs())
    }
}

impl Eq for MultiPprm {}

impl Hash for MultiPprm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num_vars.hash(state);
        self.words.hash(state);
        if self.num_vars > WORD_VARS {
            self.outputs().hash(state);
        }
    }
}

impl MultiPprm {
    /// Builds a state from outputs, computing the cached term count and
    /// fingerprint from scratch.
    fn assemble(num_vars: usize, outputs: Vec<Pprm>) -> Self {
        let total_terms = outputs.iter().map(Pprm::len).sum();
        let mut fp = fingerprint_seed(num_vars);
        for (i, p) in outputs.iter().enumerate() {
            for &t in p.terms() {
                fp ^= term_hash(i, t);
            }
        }
        MultiPprm::with_outputs(num_vars, outputs, total_terms, fp)
    }

    /// Builds a sorted kernel's child from its outputs and its
    /// incrementally maintained term count and fingerprint, refreshing
    /// the membership words from the outputs.
    fn child(&self, outputs: Vec<Pprm>, total_terms: usize, fp: u64) -> MultiPprm {
        let new = MultiPprm::with_outputs(self.num_vars, outputs, total_terms, fp);
        debug_assert_eq!(new.total_terms, new.outputs().iter().map(Pprm::len).sum());
        new
    }

    fn with_outputs(num_vars: usize, outputs: Vec<Pprm>, total_terms: usize, fp: u64) -> Self {
        MultiPprm {
            num_vars,
            total_terms,
            fp,
            words: term_words(num_vars, &outputs),
            outputs: OnceLock::from(outputs),
        }
    }

    /// Builds the multi-output PPRM of a reversible function given as a
    /// permutation: `perm[x]` is the output word for input word `x`.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != 2^num_vars`. (Reversibility itself is not
    /// checked here; use `rmrls-spec` to validate specifications.)
    pub fn from_permutation(perm: &[u64], num_vars: usize) -> Self {
        assert_eq!(
            perm.len(),
            1usize << num_vars,
            "permutation length {} does not match 2^{num_vars}",
            perm.len()
        );
        let outputs = (0..num_vars)
            .map(|bit| {
                let table = BitTable::from_fn(perm.len(), |x| perm[x] >> bit & 1 == 1);
                Pprm::from_truth_table(&table, num_vars)
            })
            .collect();
        MultiPprm::assemble(num_vars, outputs)
    }

    /// Builds a state directly from per-output expansions.
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len() != num_vars` or any expansion mentions a
    /// variable `>= num_vars`.
    pub fn from_outputs(outputs: Vec<Pprm>, num_vars: usize) -> Self {
        assert_eq!(outputs.len(), num_vars, "need one expansion per variable");
        for (i, p) in outputs.iter().enumerate() {
            for t in p.terms() {
                assert!(
                    (t.mask() as u64) < (1u64 << num_vars),
                    "output {i} term {t} mentions a variable >= {num_vars}"
                );
            }
        }
        MultiPprm::assemble(num_vars, outputs)
    }

    /// The identity function on `num_vars` variables (`out_i = x_i`).
    pub fn identity(num_vars: usize) -> Self {
        MultiPprm::assemble(num_vars, (0..num_vars).map(Pprm::var).collect())
    }

    /// Number of variables (= inputs = outputs).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The expansion of output `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars`.
    pub fn output(&self, i: usize) -> &Pprm {
        &self.outputs()[i]
    }

    /// All output expansions, indexed by output/variable. Up to 6
    /// variables the first call builds them from the membership words.
    pub fn outputs(&self) -> &[Pprm] {
        self.outputs.get_or_init(|| {
            self.words[..self.num_vars]
                .iter()
                .map(|&w| Pprm::from_sorted_terms(WordTerms(w).collect()))
                .collect()
        })
    }

    /// Whether output `i` has term `t`. O(1) up to 6 variables.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars`.
    pub fn has_term(&self, i: usize, t: Term) -> bool {
        if self.num_vars <= WORD_VARS {
            assert!(i < self.num_vars, "output {i} out of range");
            (t.mask() as usize) < 64 && self.words[i] >> t.mask() & 1 == 1
        } else {
            self.output(i).contains(t)
        }
    }

    /// The factors of the Toffoli substitutions `x_var := x_var ⊕ f` on
    /// offer: the terms of output `var` that do not contain `x_var`, in
    /// ascending mask order (the order of [`Pprm::terms`]). Up to 6
    /// variables they are the set bits of one word.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn toffoli_factors(&self, var: usize) -> impl Iterator<Item = Term> + '_ {
        let (word, terms): (u64, &[Term]) = if self.num_vars <= WORD_VARS {
            assert!(var < self.num_vars, "variable {var} out of range");
            (self.words[var] & !SEL[var], &[])
        } else {
            (0, self.output(var).terms())
        };
        WordTerms(word).chain(terms.iter().copied().filter(move |t| !t.contains_var(var)))
    }

    /// Total number of terms across all outputs (the paper's
    /// `node.terms`). O(1): the count is cached at construction and
    /// maintained incrementally by the substitution kernels.
    pub fn total_terms(&self) -> usize {
        self.total_terms
    }

    /// An order-independent 64-bit fingerprint of the state, O(1).
    ///
    /// Defined as a per-width seed XORed with one splitmix64-mixed
    /// hash per `(output, term)` membership pair. Because XOR is
    /// its own inverse, toggling a term's membership toggles its
    /// contribution, which is exactly the algebra of substitution (terms
    /// cancel in pairs) — so [`count_substitute`](Self::count_substitute)
    /// derives a child's fingerprint from its parent's without building
    /// the child.
    ///
    /// Collision bound: equal states always agree (no false negatives).
    /// Modelling the mixer as a random oracle, two fixed distinct states
    /// collide with probability 2⁻⁶⁴; unlike a sequential FNV/SipHash
    /// fold, however, the XOR combination is *linear* over GF(2) in the
    /// membership vector, so a collision requires some set of
    /// 2k (k ≥ 2) membership differences whose hashes XOR to zero.
    /// Consumers that prune on fingerprint equality should keep an
    /// independent guard (the search keeps the term count; see
    /// `SynthesisOptions::dedup_states`).
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Whether every output has been reduced to its own variable
    /// (`out_i = x_i`) — the synthesis termination condition.
    pub fn is_identity(&self) -> bool {
        (0..self.num_vars).all(|i| self.output_is_solved(i))
    }

    /// Whether output `i` is already solved (`out_i = x_i`).
    pub fn output_is_solved(&self, i: usize) -> bool {
        if self.num_vars <= WORD_VARS {
            assert!(i < self.num_vars, "output {i} out of range");
            self.words[i] == 1 << Term::var(i).mask()
        } else {
            self.output(i).terms() == [Term::var(i)]
        }
    }

    fn assert_substitution(&self, var: usize, factor: Term) {
        assert!(var < self.num_vars, "variable {var} out of range");
        assert!(
            (factor.mask() as u64) < (1u64 << self.num_vars),
            "factor {factor} mentions a variable >= {}",
            self.num_vars
        );
        assert!(
            !factor.contains_var(var),
            "factor {factor} contains the target variable {var}"
        );
    }

    /// Stages the terms generated by `x_var := x_var ⊕ factor` on one
    /// output into the scratch buffer.
    #[inline]
    fn stage_toffoli(p: &Pprm, var: usize, factor: Term, gen: &mut Vec<Term>) {
        gen.clear();
        for &t in p.terms() {
            if t.contains_var(var) {
                gen.push(t.without_var(var) * factor);
            }
        }
    }

    /// Stages the terms generated by the Fredkin substitution on one
    /// output: a term containing exactly one of `(a, b)`, say `a·r`,
    /// gains `c·a·r ⊕ c·b·r`.
    #[inline]
    fn stage_fredkin(p: &Pprm, a: usize, b: usize, control: Term, gen: &mut Vec<Term>) {
        gen.clear();
        for &t in p.terms() {
            if t.contains_var(a) != t.contains_var(b) {
                let r = t.without_var(a).without_var(b) * control;
                gen.push(r * Term::var(a));
                gen.push(r * Term::var(b));
            }
        }
    }

    /// Whether the state is at most 6 variables wide, so that it is its
    /// membership words and the word kernels score and materialize its
    /// substitutions. Wider states use the sorted kernels.
    pub fn is_word_width(&self) -> bool {
        self.num_vars <= WORD_VARS
    }

    /// The fingerprint of the child whose generated words are `g`: one
    /// table lookup per generated term.
    fn word_fingerprint(&self, g: &[u64; WORD_VARS]) -> u64 {
        g[..self.num_vars]
            .iter()
            .enumerate()
            .fold(self.fp, |fp, (i, &g)| fp ^ word_delta(i, g))
    }

    /// Scores the substitution `x_var := x_var ⊕ factor` without
    /// materializing the child state: returns the child's total term
    /// count, the terms eliminated, and the child's
    /// [`fingerprint`](Self::fingerprint), allocation-free.
    ///
    /// Up to 6 variables this is
    /// [`count_substitute_terms`](Self::count_substitute_terms) and
    /// [`substitute_fingerprint`](Self::substitute_fingerprint) from one
    /// pass of word operations on the cached membership words. Wider
    /// states use
    /// [`count_substitute_sorted`](Self::count_substitute_sorted). In
    /// debug builds the word path is checked against the sorted kernel
    /// on every call.
    ///
    /// Guaranteed to agree exactly with [`substitute`](Self::substitute)
    /// on the same `(var, factor)` — the scoring phase of the two-phase
    /// expansion kernel (see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute`](Self::substitute).
    pub fn count_substitute(
        &self,
        var: usize,
        factor: Term,
        scratch: &mut SubstScratch,
    ) -> SubstCount {
        if self.num_vars > WORD_VARS {
            return self.count_substitute_sorted(var, factor, scratch);
        }
        self.assert_substitution(var, factor);
        let g = generated_words(&self.words, var, factor);
        let terms = child_terms(&self.words, &g);
        let count = SubstCount {
            terms,
            eliminated: self.total_terms as i64 - terms as i64,
            fingerprint: self.word_fingerprint(&g),
        };
        debug_assert_eq!(count, self.count_substitute_sorted(var, factor, scratch));
        count
    }

    /// The count-only scoring kernel: the child's total term count
    /// under `x_var := x_var ⊕ factor`, without its fingerprint.
    ///
    /// Up to 6 variables the generated words of all outputs are stepped
    /// through the factor's literals in lockstep, and the count is the
    /// popcount of `w ^ g` over the words: no per-term loop and no table
    /// lookups. A search that prunes most candidates on their counts
    /// asks [`substitute_fingerprint`](Self::substitute_fingerprint)
    /// only for the ones it keeps. Wider states use
    /// [`count_substitute_sorted`](Self::count_substitute_sorted). In
    /// debug builds the word path is checked against the sorted kernel
    /// on every call.
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute`](Self::substitute).
    pub fn count_substitute_terms(
        &self,
        var: usize,
        factor: Term,
        scratch: &mut SubstScratch,
    ) -> usize {
        if self.num_vars > WORD_VARS {
            return self.count_substitute_sorted(var, factor, scratch).terms;
        }
        self.assert_substitution(var, factor);
        let terms = child_terms(&self.words, &generated_words(&self.words, var, factor));
        debug_assert_eq!(
            terms,
            self.count_substitute_sorted(var, factor, scratch).terms
        );
        terms
    }

    /// The child's [`fingerprint`](Self::fingerprint) under
    /// `x_var := x_var ⊕ factor`, computed on demand for a candidate
    /// scored by [`count_substitute_terms`](Self::count_substitute_terms).
    /// Up to 6 variables it flips the parent's fingerprint by one table
    /// lookup per generated term; wider states use
    /// [`count_substitute_sorted`](Self::count_substitute_sorted). In
    /// debug builds the word path is checked against the sorted kernel
    /// on every call.
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute`](Self::substitute).
    pub fn substitute_fingerprint(
        &self,
        var: usize,
        factor: Term,
        scratch: &mut SubstScratch,
    ) -> u64 {
        if self.num_vars > WORD_VARS {
            return self
                .count_substitute_sorted(var, factor, scratch)
                .fingerprint;
        }
        self.assert_substitution(var, factor);
        let fp = self.word_fingerprint(&generated_words(&self.words, var, factor));
        debug_assert_eq!(
            fp,
            self.count_substitute_sorted(var, factor, scratch)
                .fingerprint
        );
        fp
    }

    /// The sorted scoring kernel: stages each rewritten output's
    /// generated terms in `scratch`, sorts them and merge-walks them
    /// against the parent's sorted terms. [`count_substitute`] uses it
    /// above 6 variables; it works at every width, which
    /// makes it the reference the word kernel is checked against.
    ///
    /// [`count_substitute`]: Self::count_substitute
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute`](Self::substitute).
    pub fn count_substitute_sorted(
        &self,
        var: usize,
        factor: Term,
        scratch: &mut SubstScratch,
    ) -> SubstCount {
        self.assert_substitution(var, factor);
        let mut terms = self.total_terms;
        let mut fp = self.fp;
        for (i, p) in self.outputs().iter().enumerate() {
            if !p.mentions_var(var) {
                continue;
            }
            MultiPprm::stage_toffoli(p, var, factor, &mut scratch.generated);
            let (survivors, matched, delta) = score_generated(p.terms(), &mut scratch.generated, i);
            terms = terms + survivors - 2 * matched;
            fp ^= delta;
        }
        SubstCount {
            terms,
            eliminated: self.total_terms as i64 - terms as i64,
            fingerprint: fp,
        }
    }

    /// Scores the Fredkin substitution without materializing the child;
    /// the controlled-swap counterpart of
    /// [`count_substitute`](Self::count_substitute), agreeing exactly
    /// with [`substitute_fredkin`](Self::substitute_fredkin).
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute_fredkin`](Self::substitute_fredkin).
    pub fn count_substitute_fredkin(
        &self,
        a: usize,
        b: usize,
        control: Term,
        scratch: &mut SubstScratch,
    ) -> SubstCount {
        self.assert_fredkin(a, b, control);
        let mut terms = self.total_terms;
        let mut fp = self.fp;
        for (i, p) in self.outputs().iter().enumerate() {
            MultiPprm::stage_fredkin(p, a, b, control, &mut scratch.generated);
            if scratch.generated.is_empty() {
                continue;
            }
            let (survivors, matched, delta) = score_generated(p.terms(), &mut scratch.generated, i);
            terms = terms + survivors - 2 * matched;
            fp ^= delta;
        }
        SubstCount {
            terms,
            eliminated: self.total_terms as i64 - terms as i64,
            fingerprint: fp,
        }
    }

    /// Applies the substitution `x_var := x_var ⊕ factor` to every output
    /// expansion, returning the new state and the number of terms
    /// eliminated (negative if the state grew — possible only for the
    /// special `factor = 1` substitution of §IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `factor` contains `x_var` or mentions a variable out of
    /// range.
    pub fn substitute(&self, var: usize, factor: Term) -> (MultiPprm, i64) {
        self.substitute_with(var, factor, &mut SubstScratch::new())
    }

    /// [`substitute`](Self::substitute) with a caller-owned scratch
    /// buffer — the materialization phase of the two-phase kernel.
    ///
    /// Up to 6 variables each output's child word is `w ^ g` (see
    /// [`count_substitute_terms`](Self::count_substitute_terms)), and
    /// the child is the parent's words, term count and fingerprint with
    /// those words replaced: nothing is allocated, and the term vectors
    /// are built only if something asks for them.
    /// Wider states use [`substitute_sorted_with`](Self::substitute_sorted_with),
    /// whose only allocations are the child's own term vectors.
    /// In debug builds the word path is checked against the sorted
    /// kernel on every call.
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute`](Self::substitute).
    pub fn substitute_with(
        &self,
        var: usize,
        factor: Term,
        scratch: &mut SubstScratch,
    ) -> (MultiPprm, i64) {
        if self.num_vars > WORD_VARS {
            return self.substitute_sorted_with(var, factor, scratch);
        }
        self.assert_substitution(var, factor);
        let g = generated_words(&self.words, var, factor);
        let total = child_terms(&self.words, &g);
        let elim = self.total_terms as i64 - total as i64;
        let new = MultiPprm {
            num_vars: self.num_vars,
            total_terms: total,
            fp: self.word_fingerprint(&g),
            words: std::array::from_fn(|i| self.words[i] ^ g[i]),
            outputs: OnceLock::new(),
        };
        debug_assert_eq!(
            (new.clone(), elim),
            self.substitute_sorted_with(var, factor, scratch)
        );
        (new, elim)
    }

    /// The sorted materialization kernel: merges each rewritten output's
    /// staged generated terms into its sorted expansion.
    /// [`substitute_with`](Self::substitute_with) uses it above
    /// 6 variables; it works at every width (refreshing the
    /// membership words of a narrow child) as the reference the word
    /// kernel is checked against.
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute`](Self::substitute).
    pub fn substitute_sorted_with(
        &self,
        var: usize,
        factor: Term,
        scratch: &mut SubstScratch,
    ) -> (MultiPprm, i64) {
        self.assert_substitution(var, factor);
        let mut total = self.total_terms;
        let mut fp = self.fp;
        let mut outputs = Vec::with_capacity(self.num_vars);
        for (i, p) in self.outputs().iter().enumerate() {
            if !p.mentions_var(var) {
                outputs.push(p.clone());
                continue;
            }
            MultiPprm::stage_toffoli(p, var, factor, &mut scratch.generated);
            let (new_terms, delta) = merge_generated(p.terms(), &mut scratch.generated, i);
            total = total - p.len() + new_terms.len();
            fp ^= delta;
            outputs.push(Pprm::from_sorted_terms(new_terms));
        }
        let elim = self.total_terms as i64 - total as i64;
        (self.child(outputs, total, fp), elim)
    }

    fn assert_fredkin(&self, a: usize, b: usize, control: Term) {
        assert!(
            a < self.num_vars && b < self.num_vars,
            "variable out of range"
        );
        assert_ne!(a, b, "fredkin swaps two distinct variables");
        assert!(
            !control.contains_var(a) && !control.contains_var(b),
            "control {control} must not contain the swapped variables"
        );
        assert!(
            (control.mask() as u64) < (1u64 << self.num_vars),
            "control {control} mentions a variable >= {}",
            self.num_vars
        );
    }

    /// Applies the Fredkin substitution — the variable pair `(a, b)` is
    /// swapped whenever the control monomial `control` holds — to every
    /// output expansion, returning the new state and the number of terms
    /// eliminated.
    ///
    /// Algebraically, `a := a ⊕ c·(a ⊕ b)` and `b := b ⊕ c·(a ⊕ b)`
    /// simultaneously. Terms containing *both* variables are invariant
    /// (`a'·b' = a·b`); a term containing exactly one of them, say
    /// `a·r`, gains the two terms `c·a·r ⊕ c·b·r`.
    ///
    /// This implements the paper's §VI future-work item (incorporating
    /// Fredkin gates into the substitution framework).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, either variable is out of range, or the
    /// control contains `a` or `b`.
    pub fn substitute_fredkin(&self, a: usize, b: usize, control: Term) -> (MultiPprm, i64) {
        self.substitute_fredkin_with(a, b, control, &mut SubstScratch::new())
    }

    /// [`substitute_fredkin`](Self::substitute_fredkin) with a
    /// caller-owned scratch buffer; see
    /// [`substitute_with`](Self::substitute_with).
    ///
    /// # Panics
    ///
    /// Same conditions as [`substitute_fredkin`](Self::substitute_fredkin).
    pub fn substitute_fredkin_with(
        &self,
        a: usize,
        b: usize,
        control: Term,
        scratch: &mut SubstScratch,
    ) -> (MultiPprm, i64) {
        self.assert_fredkin(a, b, control);
        let mut total = self.total_terms;
        let mut fp = self.fp;
        let mut outputs = Vec::with_capacity(self.num_vars);
        for (i, p) in self.outputs().iter().enumerate() {
            MultiPprm::stage_fredkin(p, a, b, control, &mut scratch.generated);
            if scratch.generated.is_empty() {
                outputs.push(p.clone());
                continue;
            }
            let (new_terms, delta) = merge_generated(p.terms(), &mut scratch.generated, i);
            total = total - p.len() + new_terms.len();
            fp ^= delta;
            outputs.push(Pprm::from_sorted_terms(new_terms));
        }
        let elim = self.total_terms as i64 - total as i64;
        (self.child(outputs, total, fp), elim)
    }

    /// Evaluates all outputs at input word `x`, returning the output word.
    pub fn eval(&self, x: u64) -> u64 {
        self.outputs()
            .iter()
            .enumerate()
            .fold(0, |acc, (i, p)| acc | (u64::from(p.eval(x)) << i))
    }

    /// Expands the state back to an explicit permutation table.
    pub fn to_permutation(&self) -> Vec<u64> {
        (0..1u64 << self.num_vars).map(|x| self.eval(x)).collect()
    }
}

impl fmt::Debug for MultiPprm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MultiPprm({} vars)", self.num_vars)?;
        for (i, p) in self.outputs().iter().enumerate() {
            writeln!(f, "  out[{i}] = {p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for MultiPprm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.outputs().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let name = if i < 26 {
                format!("{}", (b'a' + i as u8) as char)
            } else {
                format!("x{i}")
            };
            write!(f, "{name}_out = {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: [u64; 8] = [1, 0, 7, 2, 3, 4, 5, 6];

    #[test]
    fn fig1_expansion_matches_eq3() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        assert_eq!(m.output(0).to_string(), "1 ⊕ a");
        assert_eq!(m.output(1).to_string(), "b ⊕ c ⊕ ac");
        assert_eq!(m.output(2).to_string(), "b ⊕ ab ⊕ ac");
    }

    #[test]
    fn permutation_roundtrip() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        assert_eq!(m.to_permutation(), FIG1.to_vec());
    }

    #[test]
    fn identity_is_identity() {
        let id = MultiPprm::identity(4);
        assert!(id.is_identity());
        assert_eq!(id.total_terms(), 4);
        assert_eq!(id.to_permutation(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn fig1_solves_with_paper_substitutions() {
        // The paper's solution path: a := a⊕1, b := b⊕ac, c := c⊕ab.
        let m = MultiPprm::from_permutation(&FIG1, 3);
        assert!(!m.is_identity());
        let (m, e1) = m.substitute(0, Term::ONE);
        assert_eq!(e1, 2, "a := a⊕1 eliminates 2 terms (1 and ab cancel... )");
        let (m, e2) = m.substitute(1, Term::of(&[0, 2]));
        assert!(e2 > 0);
        let (m, e3) = m.substitute(2, Term::of(&[0, 1]));
        assert!(e3 > 0);
        assert!(m.is_identity(), "got:\n{m}");
    }

    #[test]
    fn substitution_semantics_match_gate_application() {
        // F' = F ∘ G where G flips bit v when factor holds: F'(x) = F(G(x)).
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let factor = Term::of(&[0]);
        let (m2, _) = m.substitute(2, factor);
        for x in 0..8u64 {
            let gx = if factor.eval(x) { x ^ 0b100 } else { x };
            assert_eq!(m2.eval(x), m.eval(gx), "at x={x}");
        }
    }

    #[test]
    fn output_is_solved_per_output() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let (m, _) = m.substitute(0, Term::ONE);
        assert!(m.output_is_solved(0));
        assert!(!m.output_is_solved(1));
    }

    #[test]
    fn cached_total_terms_tracks_substitutions() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let (m2, elim) = m.substitute(1, Term::of(&[0, 2]));
        assert_eq!(
            m2.total_terms(),
            m2.outputs().iter().map(Pprm::len).sum::<usize>()
        );
        assert_eq!(m.total_terms() as i64 - m2.total_terms() as i64, elim);
    }

    #[test]
    fn count_substitute_matches_materialization() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let mut scratch = SubstScratch::new();
        for var in 0..3 {
            for mask in 0u32..8 {
                if mask & (1 << var) != 0 {
                    continue;
                }
                let factor = Term::from_mask(mask);
                let score = m.count_substitute(var, factor, &mut scratch);
                let (child, elim) = m.substitute(var, factor);
                assert_eq!(score.terms, child.total_terms(), "var={var} mask={mask}");
                assert_eq!(score.eliminated, elim, "var={var} mask={mask}");
                assert_eq!(
                    score.fingerprint,
                    child.fingerprint(),
                    "var={var} mask={mask}"
                );
            }
        }
    }

    #[test]
    fn count_substitute_fredkin_matches_materialization() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let mut scratch = SubstScratch::new();
        for control in [Term::ONE, Term::var(2)] {
            let score = m.count_substitute_fredkin(0, 1, control, &mut scratch);
            let (child, elim) = m.substitute_fredkin(0, 1, control);
            assert_eq!(score.terms, child.total_terms());
            assert_eq!(score.eliminated, elim);
            assert_eq!(score.fingerprint, child.fingerprint());
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_discriminating() {
        let a = MultiPprm::from_permutation(&FIG1, 3);
        let b = MultiPprm::from_permutation(&FIG1, 3);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = MultiPprm::identity(3);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The width is part of the fingerprint, so the identity on 3
        // variables and on 4 variables differ.
        assert_ne!(
            MultiPprm::identity(3).fingerprint(),
            MultiPprm::identity(4).fingerprint()
        );
    }

    #[test]
    fn fingerprint_sensitive_to_constant_one_in_output_zero() {
        // Regression guard for the mixer: mix64 must not fix the all-zero
        // key, or `1` in output 0 would be invisible to the fingerprint.
        let with = MultiPprm::from_outputs(
            vec![
                Pprm::from_terms(vec![Term::ONE, Term::var(0)]),
                Pprm::var(1),
            ],
            2,
        );
        let without = MultiPprm::from_outputs(vec![Pprm::var(0), Pprm::var(1)], 2);
        assert_ne!(with.fingerprint(), without.fingerprint());
    }

    #[test]
    fn substitute_with_reuses_scratch() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let mut scratch = SubstScratch::new();
        let (a, ea) = m.substitute_with(1, Term::of(&[0, 2]), &mut scratch);
        let (b, eb) = m.substitute(1, Term::of(&[0, 2]));
        assert_eq!(a, b);
        assert_eq!(ea, eb);
        // Scratch is stateless between calls: a second, different
        // substitution still agrees with the allocating path.
        let (c, _) = a.substitute_with(2, Term::of(&[0, 1]), &mut scratch);
        let (d, _) = b.substitute(2, Term::of(&[0, 1]));
        assert_eq!(c, d);
    }

    #[test]
    fn fredkin_substitution_semantics_match_gate() {
        // F' = F ∘ G for the controlled swap G = FRE(c; a, b).
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let control = Term::var(2);
        let (m2, _) = m.substitute_fredkin(0, 1, control);
        for x in 0..8u64 {
            let gx = if control.eval(x) && (x & 1) != (x >> 1 & 1) {
                x ^ 0b011
            } else {
                x
            };
            assert_eq!(m2.eval(x), m.eval(gx), "at x={x}");
        }
    }

    #[test]
    fn plain_swap_substitution_swaps_outputs() {
        // Swapping a and b in the identity yields the transposed wires.
        let id = MultiPprm::identity(3);
        let (m, elim) = id.substitute_fredkin(0, 1, Term::ONE);
        assert_eq!(elim, 0, "a swap preserves the term count on the identity");
        assert_eq!(m.output(0).to_string(), "b");
        assert_eq!(m.output(1).to_string(), "a");
        assert_eq!(m.output(2).to_string(), "c");
    }

    #[test]
    fn fredkin_invariant_on_products_of_both() {
        // A term containing both swapped variables is unchanged.
        let p = Pprm::from_terms(vec![Term::of(&[0, 1])]);
        let m = MultiPprm::from_outputs(vec![p, Pprm::var(1), Pprm::var(2)], 3);
        let (m2, _) = m.substitute_fredkin(0, 1, Term::var(2));
        assert!(m2.output(0).contains(Term::of(&[0, 1])));
        assert_eq!(m2.output(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "must not contain")]
    fn fredkin_control_overlap_panics() {
        let _ = MultiPprm::identity(3).substitute_fredkin(0, 1, Term::var(0));
    }

    #[test]
    fn fredkin_example3_solves_in_one_substitution() {
        // Example 3 of the paper IS a Fredkin gate: one substitution
        // reduces it to the identity.
        let m = MultiPprm::from_permutation(&[0, 1, 2, 3, 4, 6, 5, 7], 3);
        let (m2, _) = m.substitute_fredkin(0, 1, Term::var(2));
        assert!(m2.is_identity(), "got:\n{m2}");
    }

    #[test]
    fn states_hash_equal_when_equal() {
        use std::collections::HashSet;
        let a = MultiPprm::from_permutation(&FIG1, 3);
        let b = MultiPprm::from_permutation(&FIG1, 3);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_permutation_length_panics() {
        let _ = MultiPprm::from_permutation(&[0, 1, 2], 2);
    }

    #[test]
    #[should_panic(expected = "mentions a variable")]
    fn out_of_range_factor_panics() {
        let m = MultiPprm::identity(2);
        let _ = m.substitute(0, Term::var(3));
    }

    #[test]
    #[should_panic(expected = "mentions a variable")]
    fn count_substitute_checks_factor_range() {
        let m = MultiPprm::identity(2);
        let _ = m.count_substitute(0, Term::var(3), &mut SubstScratch::new());
    }

    #[test]
    #[should_panic(expected = "contains the target variable")]
    fn factor_containing_the_target_panics() {
        // b := b ⊕ ab is not a Toffoli gate: b cannot control itself.
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let _ = m.substitute(1, Term::of(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "contains the target variable")]
    fn count_substitute_checks_factor_excludes_target() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let _ = m.count_substitute(1, Term::of(&[0, 1]), &mut SubstScratch::new());
    }

    /// Random states at widths 1–8 and a few substitution children of
    /// each: word-only children up to 6 wires, term-vector states above.
    fn sample_states() -> Vec<MultiPprm> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut states = Vec::new();
        for n in 1..=8usize {
            let mut perm: Vec<u64> = (0..1u64 << n).collect();
            perm.shuffle(&mut rng);
            let mut m = MultiPprm::from_permutation(&perm, n);
            for step in 0..4 {
                states.push(m.clone());
                let var = step % n;
                let Some(factor) = m.toffoli_factors(var).last() else {
                    break;
                };
                m = m.substitute(var, factor).0;
            }
        }
        states
    }

    #[test]
    fn word_only_states_match_a_rebuild_from_their_term_vectors() {
        for m in sample_states() {
            let n = m.num_vars();
            let rebuilt = MultiPprm::from_outputs(m.outputs().to_vec(), n);
            assert_eq!(m, rebuilt, "{m:?}");
            assert_eq!(m.total_terms(), rebuilt.total_terms());
            assert_eq!(m.fingerprint(), rebuilt.fingerprint());
            assert_eq!(m.words, rebuilt.words);
            assert_eq!(m.to_string(), rebuilt.to_string());
            assert_eq!(m.is_identity(), rebuilt.is_identity());
            for var in 0..n {
                let want: Vec<Term> = m
                    .output(var)
                    .terms()
                    .iter()
                    .copied()
                    .filter(|t| !t.contains_var(var))
                    .collect();
                assert_eq!(m.toffoli_factors(var).collect::<Vec<_>>(), want);
                assert_eq!(
                    m.output_is_solved(var),
                    m.output(var).terms() == [Term::var(var)]
                );
                for mask in 0..1u32 << n {
                    let t = Term::from_mask(mask);
                    assert_eq!(m.has_term(var, t), m.output(var).contains(t));
                }
            }
        }
    }

    #[test]
    fn a_word_width_child_owns_no_term_vectors_until_asked() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        let (child, _) = m.substitute(1, Term::of(&[0, 2]));
        assert!(child.outputs.get().is_none());
        assert_eq!(child.output(1).to_string(), "b ⊕ c");
        assert!(child.outputs.get().is_some());
        // Wide states always carry them.
        let wide = MultiPprm::identity(WORD_VARS + 1);
        let (wide_child, _) = wide.substitute(0, Term::ONE);
        assert!(wide_child.outputs.get().is_some());
    }

    #[test]
    fn term_words_follow_the_outputs() {
        let m = MultiPprm::from_permutation(&FIG1, 3);
        // a_o = 1 ⊕ a, b_o = b ⊕ c ⊕ ac, c_o = b ⊕ ab ⊕ ac.
        let b_o = 1 << 0b010 | 1 << 0b100 | 1 << 0b101;
        let c_o = 1 << 0b010 | 1 << 0b011 | 1 << 0b101;
        assert_eq!(m.words[..3], [0b11, b_o, c_o]);
        let (m, _) = m.substitute(0, Term::ONE);
        assert_eq!(m.words[0], 1 << 0b001);
        assert_eq!(MultiPprm::identity(WORD_VARS + 1).words, [0; WORD_VARS]);
    }
}
