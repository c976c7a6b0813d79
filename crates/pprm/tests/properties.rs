//! Property-based tests of the PPRM algebra.

use proptest::prelude::*;

use rmrls_pprm::{anf_transform, BitTable, MultiPprm, Pprm, SubstScratch, Term};

/// A random `num_vars`-variable reversible state: a seeded random
/// permutation of `0..2^num_vars` lifted to its multi-output PPRM
/// expansion.
fn random_state(seed: u64, num_vars: usize) -> MultiPprm {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut map: Vec<u64> = (0..1 << num_vars).collect();
    map.shuffle(&mut rng);
    MultiPprm::from_permutation(&map, num_vars)
}

/// A valid Toffoli move on `num_vars` variables from raw draws: the
/// target `var % num_vars` and a factor of the other variables.
fn toffoli_move(num_vars: usize, var: usize, mask: u32) -> (usize, Term) {
    let var = var % num_vars;
    let factor = Term::from_mask(mask & ((1 << num_vars) - 1) & !(1 << var));
    (var, factor)
}

/// `m` rebuilt from scratch from its outputs. Equality with the rebuild
/// covers every cache a state keeps: term count, fingerprint and, up to
/// 6 variables, the per-output membership words.
fn rebuilt(m: &MultiPprm) -> MultiPprm {
    MultiPprm::from_outputs(m.outputs().to_vec(), m.num_vars())
}

fn bools(n: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1 << n)
}

proptest! {
    /// The ANF transform is an involution at every width.
    #[test]
    fn anf_is_involution(bits in bools(7)) {
        let table = BitTable::from_bools(&bits);
        let mut t = table.clone();
        anf_transform(&mut t, 7);
        anf_transform(&mut t, 7);
        prop_assert_eq!(t, table);
    }

    /// PPRM evaluation agrees with the truth table it came from.
    #[test]
    fn pprm_eval_matches_table(bits in bools(6)) {
        let table = BitTable::from_bools(&bits);
        let p = Pprm::from_truth_table(&table, 6);
        for (x, &b) in bits.iter().enumerate() {
            prop_assert_eq!(p.eval(x as u64), b, "at {}", x);
        }
    }

    /// XOR of expansions equals pointwise XOR of functions.
    #[test]
    fn xor_is_pointwise(a in bools(5), b in bools(5)) {
        let pa = Pprm::from_truth_table(&BitTable::from_bools(&a), 5);
        let pb = Pprm::from_truth_table(&BitTable::from_bools(&b), 5);
        let mut sum = pa.clone();
        sum.xor_assign(&pb);
        for x in 0..32u64 {
            prop_assert_eq!(sum.eval(x), pa.eval(x) ^ pb.eval(x));
        }
    }

    /// Multiplying by a monomial equals pointwise AND with it.
    #[test]
    fn mul_term_is_pointwise_and(a in bools(5), mask in 0u32..32) {
        let p = Pprm::from_truth_table(&BitTable::from_bools(&a), 5);
        let t = Term::from_mask(mask);
        let q = p.mul_term(t);
        for x in 0..32u64 {
            prop_assert_eq!(q.eval(x), p.eval(x) & t.eval(x));
        }
    }

    /// A substitution applied twice with the same factor is the identity
    /// (the emitted Toffoli gate is self-inverse).
    #[test]
    fn substitution_is_self_inverse(bits in bools(4), var in 0usize..4, mask in 0u32..16) {
        let factor = Term::from_mask(mask & !(1 << var));
        let p = Pprm::from_truth_table(&BitTable::from_bools(&bits), 4);
        let once = p.substitute(var, factor);
        let twice = once.substitute(var, factor);
        prop_assert_eq!(twice, p);
    }

    /// Fredkin substitution applied twice with the same pair/control is
    /// the identity.
    #[test]
    fn fredkin_substitution_is_self_inverse(
        perm_seed in any::<u64>(),
        control in 0u32..16,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        let mut map: Vec<u64> = (0..16).collect();
        map.shuffle(&mut rng);
        let m = MultiPprm::from_permutation(&map, 4);
        let c = Term::from_mask(control & !0b0011);
        let (once, _) = m.substitute_fredkin(0, 1, c);
        let (twice, _) = once.substitute_fredkin(0, 1, c);
        prop_assert_eq!(twice, m);
    }

    /// Terms are totally ordered consistently with masks.
    #[test]
    fn term_order_matches_mask_order(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(Term::from_mask(a).cmp(&Term::from_mask(b)), a.cmp(&b));
    }

    /// The allocation-free scoring kernel predicts exactly what
    /// materialization produces: term count, elimination, fingerprint.
    /// Widths 1–8 run both sides of the word/sorted boundary, and the
    /// sorted kernel, callable at every width, agrees with both.
    #[test]
    fn count_substitute_agrees_with_materialization(
        seed in any::<u64>(),
        num_vars in 1usize..9,
        var in any::<usize>(),
        mask in any::<u32>(),
    ) {
        let (var, factor) = toffoli_move(num_vars, var, mask);
        let m = random_state(seed, num_vars);
        let mut scratch = SubstScratch::new();
        let score = m.count_substitute(var, factor, &mut scratch);
        let (child, elim) = m.substitute(var, factor);
        prop_assert_eq!(score.terms, child.total_terms());
        prop_assert_eq!(score.eliminated, elim);
        prop_assert_eq!(score.fingerprint, child.fingerprint());
        prop_assert_eq!(score, m.count_substitute_sorted(var, factor, &mut scratch));
    }

    /// Same agreement for the Fredkin kernel (§VI).
    #[test]
    fn count_substitute_fredkin_agrees_with_materialization(
        seed in any::<u64>(),
        control in 0u32..16,
    ) {
        let c = Term::from_mask(control & !0b0011);
        let m = random_state(seed, 4);
        let mut scratch = SubstScratch::new();
        let score = m.count_substitute_fredkin(0, 1, c, &mut scratch);
        let (child, elim) = m.substitute_fredkin(0, 1, c);
        prop_assert_eq!(score.terms, child.total_terms());
        prop_assert_eq!(score.eliminated, elim);
        prop_assert_eq!(score.fingerprint, child.fingerprint());
        prop_assert_eq!(&rebuilt(&child), &child);
    }

    /// The scratch-buffer kernel is the same function as the allocating
    /// entry point and the sorted kernel, and the child's cached
    /// fingerprint, term count and membership words match a
    /// from-scratch rebuild of the same outputs, at widths 1–8.
    #[test]
    fn substitute_with_matches_substitute_and_rebuild(
        seed in any::<u64>(),
        num_vars in 1usize..9,
        var in any::<usize>(),
        mask in any::<u32>(),
    ) {
        let (var, factor) = toffoli_move(num_vars, var, mask);
        let m = random_state(seed, num_vars);
        let mut scratch = SubstScratch::new();
        let (a, elim_a) = m.substitute(var, factor);
        let (b, elim_b) = m.substitute_with(var, factor, &mut scratch);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(elim_a, elim_b);
        let (c, elim_c) = m.substitute_sorted_with(var, factor, &mut scratch);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(elim_a, elim_c);
        let rebuilt = rebuilt(&a);
        prop_assert_eq!(rebuilt.fingerprint(), a.fingerprint());
        prop_assert_eq!(rebuilt.total_terms(), a.total_terms());
        prop_assert_eq!(&rebuilt, &a);
    }
}
