//! Multi-output PPRM expansions — the search state of RMRLS.

use std::fmt;

use crate::{BitTable, Pprm, Term};

/// Reusable buffers for the substitution kernels.
///
/// Up to 6 variables (`WORD_VARS`), scoring a candidate substitution
/// ([`MultiPprm::count_substitute`]) and materializing a surviving one
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

/// The terms that `x_var := x_var ⊕ factor` generates on an output with
/// membership word `w`, as a word: the terms containing `x_var` with
/// `x_var` removed, then multiplied by each literal `x_u` of `factor` in
/// turn. A term already containing `x_u` stays put; any other moves up
/// by `2^u`. Colliding terms cancel in the XOR, exactly as generated
/// terms cancel in pairs.
#[inline]
fn generated_word(w: u64, var: usize, factor: Term) -> u64 {
    let mut g = (w & SEL[var]) >> (1u32 << var);
    let mut literals = factor.mask();
    while literals != 0 {
        let u = literals.trailing_zeros() as usize;
        literals &= literals - 1;
        g = (g & SEL[u]) ^ ((g & !SEL[u]) << (1u32 << u));
    }
    g
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

/// The sorted term vector of a membership word: set bits walked in
/// ascending order are already ascending masks.
fn word_terms(mut w: u64) -> Vec<Term> {
    let mut terms = Vec::with_capacity(w.count_ones() as usize);
    while w != 0 {
        terms.push(Term::from_mask(w.trailing_zeros()));
        w &= w - 1;
    }
    terms
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
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MultiPprm {
    num_vars: usize,
    outputs: Vec<Pprm>,
    /// Cached sum of all output term counts. Invariant: always equals
    /// `outputs.iter().map(Pprm::len).sum()`.
    total_terms: usize,
    /// Cached order-independent state fingerprint; see
    /// [`fingerprint`](MultiPprm::fingerprint).
    fp: u64,
    /// Cached membership word of each output when `num_vars <=
    /// WORD_VARS` (bit `t` set iff monomial mask `t` is a term), all
    /// zeros otherwise. Invariant: always equals `term_words(num_vars,
    /// &outputs)`; the derived equality compares it too.
    words: [u64; WORD_VARS],
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
        let words = term_words(num_vars, &outputs);
        MultiPprm {
            num_vars,
            outputs,
            total_terms,
            fp,
            words,
        }
    }

    /// Builds a substitution's child from its outputs and its
    /// incrementally maintained term count and fingerprint, refreshing
    /// the membership words from the outputs.
    fn child(&self, outputs: Vec<Pprm>, total_terms: usize, fp: u64) -> MultiPprm {
        let words = term_words(self.num_vars, &outputs);
        let new = MultiPprm {
            num_vars: self.num_vars,
            outputs,
            total_terms,
            fp,
            words,
        };
        debug_assert_eq!(new.total_terms, new.outputs.iter().map(Pprm::len).sum());
        new
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
        &self.outputs[i]
    }

    /// All output expansions, indexed by output/variable.
    pub fn outputs(&self) -> &[Pprm] {
        &self.outputs
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
        self.outputs
            .iter()
            .enumerate()
            .all(|(i, p)| p.terms() == [Term::var(i)])
    }

    /// Whether output `i` is already solved (`out_i = x_i`).
    pub fn output_is_solved(&self, i: usize) -> bool {
        self.outputs[i].terms() == [Term::var(i)]
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

    /// Scores the substitution `x_var := x_var ⊕ factor` without
    /// materializing the child state: returns the child's total term
    /// count, the terms eliminated, and the child's
    /// [`fingerprint`](Self::fingerprint), allocation-free.
    ///
    /// Up to 6 variables this is a handful of word operations
    /// per output on the cached membership words: the generated terms
    /// `g` come out as one word, the output's count changes by
    /// `popcnt(g) − 2·popcnt(g & w)`, and the fingerprint flips by a
    /// table lookup per bit of `g`. Wider states use
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
        let mut terms = self.total_terms;
        let mut fp = self.fp;
        for (i, &w) in self.words[..self.num_vars].iter().enumerate() {
            if w & SEL[var] == 0 {
                continue;
            }
            let g = generated_word(w, var, factor);
            terms = terms + g.count_ones() as usize - 2 * (g & w).count_ones() as usize;
            fp ^= word_delta(i, g);
        }
        let count = SubstCount {
            terms,
            eliminated: self.total_terms as i64 - terms as i64,
            fingerprint: fp,
        };
        debug_assert_eq!(count, self.count_substitute_sorted(var, factor, scratch));
        count
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
        for (i, p) in self.outputs.iter().enumerate() {
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
        for (i, p) in self.outputs.iter().enumerate() {
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
    /// buffer — the materialization phase of the two-phase kernel. The
    /// only allocations are the child's own term vectors (sized exactly).
    ///
    /// Up to 6 variables each rewritten output's child word
    /// is `w ^ g` (see [`count_substitute`](Self::count_substitute)), and
    /// its term vector is the word's set bits walked in ascending order,
    /// which is already sorted: nothing is staged, sorted or merged.
    /// Wider states use [`substitute_sorted_with`](Self::substitute_sorted_with).
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
        let mut total = self.total_terms;
        let mut fp = self.fp;
        let mut words = self.words;
        let mut outputs = Vec::with_capacity(self.num_vars);
        for (i, p) in self.outputs.iter().enumerate() {
            let w = words[i];
            if w & SEL[var] == 0 {
                outputs.push(p.clone());
                continue;
            }
            let g = generated_word(w, var, factor);
            words[i] = w ^ g;
            total = total - p.len() + words[i].count_ones() as usize;
            fp ^= word_delta(i, g);
            outputs.push(Pprm::from_sorted_terms(word_terms(words[i])));
        }
        let elim = self.total_terms as i64 - total as i64;
        let new = MultiPprm {
            num_vars: self.num_vars,
            outputs,
            total_terms: total,
            fp,
            words,
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
        for (i, p) in self.outputs.iter().enumerate() {
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
        for (i, p) in self.outputs.iter().enumerate() {
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
        self.outputs
            .iter()
            .enumerate()
            .fold(0, |acc, (i, p)| acc | (u64::from(p.eval(x)) << i))
    }

    /// Expands the state back to an explicit permutation table.
    pub fn to_permutation(&self) -> Vec<u64> {
        (0..1u64 << self.num_vars).map(|x| self.eval(x)).collect()
    }

    /// Approximate heap footprint of this state in bytes, O(outputs).
    ///
    /// Counts the term storage (`len`, not capacity, so the figure is a
    /// deterministic function of the state's value and identical across
    /// allocator behaviours) plus the per-output `Pprm`/`Vec` headers.
    /// Used by memory-budget accounting (`Budget::max_queue_bytes`),
    /// where a reproducible estimate matters more than allocator-exact
    /// truth.
    pub fn approx_heap_bytes(&self) -> usize {
        MultiPprm::approx_heap_bytes_for(self.outputs.len(), self.total_terms)
    }

    /// [`approx_heap_bytes`](MultiPprm::approx_heap_bytes) of a state
    /// with `num_vars` outputs and `terms` terms in total, so a size can
    /// be accounted from a predicted term count before (or without) the
    /// state being built.
    pub fn approx_heap_bytes_for(num_vars: usize, terms: usize) -> usize {
        num_vars * std::mem::size_of::<Pprm>() + terms * std::mem::size_of::<Term>()
    }
}

impl fmt::Debug for MultiPprm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MultiPprm({} vars)", self.num_vars)?;
        for (i, p) in self.outputs.iter().enumerate() {
            writeln!(f, "  out[{i}] = {p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for MultiPprm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.outputs.iter().enumerate() {
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
    fn approx_heap_bytes_scales_with_terms() {
        let small = MultiPprm::identity(3);
        let big = MultiPprm::from_permutation(&FIG1, 3);
        assert!(big.total_terms() > small.total_terms());
        assert!(big.approx_heap_bytes() > small.approx_heap_bytes());
        // Deterministic: equal states report equal footprints.
        assert_eq!(
            MultiPprm::from_permutation(&FIG1, 3).approx_heap_bytes(),
            big.approx_heap_bytes()
        );
        // The size follows from the shape alone.
        assert_eq!(
            MultiPprm::approx_heap_bytes_for(3, big.total_terms()),
            big.approx_heap_bytes()
        );
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
