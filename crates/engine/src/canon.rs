//! Canonical representatives under wire relabeling.
//!
//! Two specifications that differ only by a renaming of wires have
//! structurally identical syntheses: if circuit `C` realizes `π`, then
//! `C` with every gate's wires renamed through `σ` realizes the
//! conjugate `p_σ ∘ π ∘ p_σ⁻¹`, where `p_σ` is the bit permutation
//! moving bit `i` to bit `σ[i]`. The batch cache exploits this by
//! keying every permutation job on the lexicographically smallest
//! conjugate over all `σ ∈ S_n` — the **canonical representative** —
//! and mapping a cached canonical circuit back to the requested
//! labeling with a SWAP-free gate-mask rewrite.
//!
//! The minimization enumerates all `n!` wire permutations (Heap's
//! algorithm). Each conjugate is generated lazily, entry by entry in
//! index order, and compared against the best table so far; it is
//! abandoned at its first entry that is larger, and only a strict
//! improvement writes out the rest of the table. No table is allocated
//! per relabeling. The cost is therefore `n!` relabelings times the
//! length of the prefix each one shares with the running best: usually
//! short, and cheap where it runs through fixed points of `π`. It
//! reaches the `n!·2^n` worst case only when relabelings tie on long
//! prefixes (the identity, or any function with a large stabilizer).
//! The search is gated on a `canon_limit` (default 8 wires); wider
//! permutations fall back to the identity labeling and still cache on
//! their raw table.
//!
//! Ties keep the first relabeling in Heap order that reaches the
//! minimum, so the returned `σ*` — and with it every circuit mapped
//! back from the cache — is the same as a full-table comparison would
//! give.

use rmrls_circuit::{Circuit, Gate};
use rmrls_spec::Permutation;

/// A wire relabeling: wire `i` of the original becomes wire
/// `sigma[i]` of the canonical form.
pub type WirePerm = Vec<u8>;

/// Applies the bit permutation `p_σ`: bit `i` of `x` moves to bit
/// `sigma[i]` of the result.
pub fn permute_bits(x: u64, sigma: &[u8]) -> u64 {
    let mut y = 0u64;
    for (i, &s) in sigma.iter().enumerate() {
        y |= (x >> i & 1) << s;
    }
    y
}

/// The inverse relabeling: `inverse(σ)[σ[i]] = i`.
pub fn inverse_wire_perm(sigma: &[u8]) -> WirePerm {
    let mut inv = vec![0u8; sigma.len()];
    for (i, &s) in sigma.iter().enumerate() {
        inv[s as usize] = i as u8;
    }
    inv
}

/// Conjugates a permutation table by the wire relabeling `sigma`:
/// returns the table of `p_σ ∘ π ∘ p_σ⁻¹`.
pub fn conjugate_table(map: &[u64], sigma: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64; map.len()];
    for (x, &y) in map.iter().enumerate() {
        out[permute_bits(x as u64, sigma) as usize] = permute_bits(y, sigma);
    }
    out
}

/// The canonical representative of `perm` under wire relabeling, and
/// the relabeling `σ*` that produces it (`canon = p_σ* ∘ π ∘ p_σ*⁻¹`).
/// Among relabelings that reach the minimal table, `σ*` is the first
/// one Heap's algorithm visits.
///
/// When `perm` is wider than `canon_limit` the search is skipped and
/// the permutation is its own representative under the identity
/// relabeling — correct, just without cross-labeling cache sharing.
pub fn canonical_form(perm: &Permutation, canon_limit: usize) -> (Vec<u64>, WirePerm) {
    let n = perm.num_vars();
    let identity: WirePerm = (0..n as u8).collect();
    if n > canon_limit || n <= 1 {
        return (perm.as_slice().to_vec(), identity);
    }
    let map = perm.as_slice();
    let mut best_table = map.to_vec();
    let mut best_sigma = identity.clone();
    // Heap's algorithm over σ, with σ⁻¹ kept in step; the identity is
    // the first visited state.
    let mut sigma = identity.clone();
    let mut sigma_inv = identity;
    let mut preimage = vec![0usize; map.len()];
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            let j = if i % 2 == 0 { 0 } else { c[i] };
            sigma.swap(j, i);
            sigma_inv[sigma[j] as usize] = j as u8;
            sigma_inv[sigma[i] as usize] = i as u8;
            if lower_conjugate(map, &sigma, &sigma_inv, &mut preimage, &mut best_table) {
                best_sigma.copy_from_slice(&sigma);
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best_table, best_sigma)
}

/// Compares the conjugate `p_σ ∘ π ∘ p_σ⁻¹` of `map` against `best`
/// lexicographically, generating its entries `p_σ(π[p_σ⁻¹(x)])` in
/// index order and stopping at the first one that differs. On a strict
/// improvement `best` is overwritten with the conjugate and `true` is
/// returned; on a tie or a larger table `best` is left as it was.
///
/// `preimage` is scratch space of `best.len()` entries: `p_σ⁻¹(x)` is
/// built from `p_σ⁻¹` of `x` without its lowest set bit, a smaller
/// index this pass has already filled in.
fn lower_conjugate(
    map: &[u64],
    sigma: &[u8],
    sigma_inv: &[u8],
    preimage: &mut [usize],
    best: &mut [u64],
) -> bool {
    let mut entry = |x: usize| {
        let src = if x == 0 {
            0
        } else {
            preimage[x & (x - 1)] | 1 << sigma_inv[x.trailing_zeros() as usize]
        };
        preimage[x] = src;
        let y = map[src];
        // A fixed point of π stays fixed under relabeling.
        if y == src as u64 {
            x as u64
        } else {
            permute_bits(y, sigma)
        }
    };
    for x in 0..best.len() {
        let y = entry(x);
        if y > best[x] {
            return false;
        }
        if y < best[x] {
            best[x] = y;
            for (z, slot) in best.iter_mut().enumerate().skip(x + 1) {
                *slot = entry(z);
            }
            return true;
        }
    }
    false
}

/// Renames every wire of `circuit` through `rho` (wire `i` → wire
/// `rho[i]`), without inserting any SWAP gates. If `circuit` realizes
/// `f`, the result realizes `p_ρ ∘ f ∘ p_ρ⁻¹`.
pub fn relabel_circuit(circuit: &Circuit, rho: &[u8]) -> Circuit {
    let remap_mask = |mask: u32| -> u32 {
        let mut out = 0u32;
        for (i, &r) in rho.iter().enumerate() {
            out |= (mask >> i & 1) << r;
        }
        out
    };
    let gates = circuit
        .gates()
        .iter()
        .map(|g| match *g {
            Gate::Toffoli { controls, target } => {
                Gate::toffoli_mask(remap_mask(controls), rho[target as usize] as usize)
            }
            Gate::Fredkin { controls, targets } => Gate::fredkin_mask(
                remap_mask(controls),
                rho[targets.0 as usize] as usize,
                rho[targets.1 as usize] as usize,
            ),
        })
        .collect();
    Circuit::from_gates(circuit.width(), gates)
}

/// Maps a circuit for the canonical representative back to the
/// original labeling: given `C` realizing `p_σ ∘ π ∘ p_σ⁻¹`, returns a
/// circuit realizing `π`.
pub fn uncanonicalize_circuit(canonical: &Circuit, sigma: &[u8]) -> Circuit {
    relabel_circuit(canonical, &inverse_wire_perm(sigma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rmrls_spec::{random_circuit_spec, random_permutation, GateLibrary};

    /// The full-table canonicalization: builds every one of the `n!`
    /// conjugates in Heap order and keeps the first strictly smaller
    /// one. The early-exit kernel must agree with it on `(table, σ)`.
    fn reference_canonical_form(perm: &Permutation) -> (Vec<u64>, WirePerm) {
        let n = perm.num_vars();
        let identity: WirePerm = (0..n as u8).collect();
        let mut best_table = perm.as_slice().to_vec();
        let mut best_sigma = identity.clone();
        let mut sigma = identity;
        let mut c = vec![0usize; n];
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    sigma.swap(0, i);
                } else {
                    sigma.swap(c[i], i);
                }
                let table = conjugate_table(perm.as_slice(), &sigma);
                if table < best_table {
                    best_table = table;
                    best_sigma = sigma.clone();
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        (best_table, best_sigma)
    }

    fn assert_matches_reference(table: Vec<u64>, what: &str) {
        let p = Permutation::from_vec(table).unwrap();
        assert_eq!(
            canonical_form(&p, 8),
            reference_canonical_form(&p),
            "{what}: {:?}",
            p.as_slice()
        );
    }

    /// Every wire permutation of `n` wires.
    fn all_wire_perms(n: usize) -> Vec<WirePerm> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in all_wire_perms(n - 1) {
            for at in 0..n {
                let mut sigma = shorter.clone();
                sigma.insert(at, (n - 1) as u8);
                out.push(sigma);
            }
        }
        out
    }

    fn random_relabeling(n: usize, rng: &mut StdRng) -> WirePerm {
        let mut sigma: WirePerm = (0..n as u8).collect();
        sigma.shuffle(rng);
        sigma
    }

    /// Seeded random permutations and randomly relabeled random 4-gate
    /// GT circuit specs (the batch workload's input class) at `width`.
    fn random_inputs(width: usize, count: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(random_permutation(width, &mut rng).as_slice().to_vec());
            let (p, _) = random_circuit_spec(width, 4, GateLibrary::Gt, &mut rng);
            let sigma = random_relabeling(width, &mut rng);
            out.push(conjugate_table(p.as_slice(), &sigma));
        }
        out
    }

    /// Functions with large stabilizers, where many relabelings reach
    /// the minimum and only the Heap-order tie-break fixes σ: the
    /// identity, NOT on every wire, one CNOT, and a Toffoli controlled
    /// by every other wire (symmetric under any relabeling of its
    /// controls).
    fn tie_heavy_inputs(width: usize) -> Vec<(&'static str, Vec<u64>)> {
        let mask = (1u64 << width) - 1;
        let top = 1u64 << (width - 1);
        let xs = 0..1u64 << width;
        vec![
            ("identity", xs.clone().collect()),
            ("all-wires NOT", xs.clone().map(|x| x ^ mask).collect()),
            ("CNOT", xs.clone().map(|x| x ^ (x & 1) << 1).collect()),
            (
                "symmetric Toffoli",
                xs.map(|x| if x | top == mask { x ^ top } else { x })
                    .collect(),
            ),
        ]
    }

    #[test]
    fn early_exit_matches_reference_on_all_conjugates() {
        let mut rng = StdRng::seed_from_u64(23);
        for width in [3usize, 4] {
            for _ in 0..3 {
                let p = random_permutation(width, &mut rng);
                for sigma in all_wire_perms(width) {
                    assert_matches_reference(conjugate_table(p.as_slice(), &sigma), "conjugate");
                }
            }
        }
    }

    #[test]
    fn early_exit_matches_reference_on_random_specs() {
        for width in 2..=7 {
            for table in random_inputs(width, 6, 29 + width as u64) {
                assert_matches_reference(table, "random spec");
            }
        }
    }

    #[test]
    fn early_exit_matches_reference_on_ties() {
        for width in 2..=6 {
            for (what, table) in tie_heavy_inputs(width) {
                assert_matches_reference(table, what);
            }
        }
        // The identity is fixed by every relabeling, so the first one
        // visited — the identity itself — must win.
        let (table, sigma) = canonical_form(&Permutation::identity(5), 8);
        assert_eq!(table, Permutation::identity(5).as_slice());
        assert_eq!(sigma, vec![0, 1, 2, 3, 4]);
    }

    /// The reference takes seconds per call at width 8 without
    /// optimization; run with `cargo test --release -p rmrls-engine canon -- --include-ignored`.
    #[test]
    #[ignore]
    fn early_exit_matches_reference_at_width_8() {
        for table in random_inputs(8, 3, 31) {
            assert_matches_reference(table, "random spec");
        }
        for (what, table) in tie_heavy_inputs(8) {
            assert_matches_reference(table, what);
        }
    }

    #[test]
    fn permute_bits_round_trips() {
        let sigma = [2u8, 0, 1];
        let inv = inverse_wire_perm(&sigma);
        for x in 0..8u64 {
            assert_eq!(permute_bits(permute_bits(x, &sigma), &inv), x);
        }
    }

    #[test]
    fn conjugation_by_identity_is_identity() {
        let p = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).unwrap();
        let (table, _) = canonical_form(&p, 0); // above limit: no search
        assert_eq!(table, p.as_slice());
    }

    #[test]
    fn canonical_form_is_relabeling_invariant() {
        // π and every conjugate of π share one canonical table.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let p = rmrls_spec::random_permutation(3, &mut rng);
            let (canon, _) = canonical_form(&p, 8);
            for sigma in [[1u8, 0, 2], [2, 1, 0], [1, 2, 0]] {
                let relabeled =
                    Permutation::from_vec(conjugate_table(p.as_slice(), &sigma)).unwrap();
                let (canon2, _) = canonical_form(&relabeled, 8);
                assert_eq!(canon, canon2, "conjugates must share a canonical form");
            }
        }
    }

    #[test]
    fn canonical_sigma_reproduces_the_table() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = rmrls_spec::random_permutation(4, &mut rng);
        let (canon, sigma) = canonical_form(&p, 8);
        assert_eq!(conjugate_table(p.as_slice(), &sigma), canon);
        // Canonical is lexicographically minimal, so never above the
        // original table.
        assert!(canon <= p.as_slice().to_vec());
    }

    #[test]
    fn relabeled_circuit_realizes_the_conjugate() {
        // C = CNOT(a→b) then NOT(c) on 3 wires.
        let c = Circuit::from_gates(
            3,
            vec![Gate::toffoli(&[0], 1), Gate::toffoli(&[] as &[usize], 2)],
        );
        let sigma = [2u8, 0, 1];
        let relabeled = relabel_circuit(&c, &sigma);
        for x in 0..8u64 {
            let inv = inverse_wire_perm(&sigma);
            let expected = permute_bits(c.apply(permute_bits(x, &inv)), &sigma);
            assert_eq!(relabeled.apply(x), expected, "input {x}");
        }
    }

    #[test]
    fn uncanonicalize_recovers_the_original_function() {
        // Synthesize the canonical form, map back, verify against π.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let p = rmrls_spec::random_permutation(3, &mut rng);
            let (canon, sigma) = canonical_form(&p, 8);
            let canon_spec = rmrls_pprm::MultiPprm::from_permutation(&canon, 3);
            let opts = rmrls_core::SynthesisOptions::new().with_max_nodes(50_000);
            let canon_circuit = rmrls_core::synthesize(&canon_spec, &opts)
                .expect("3-variable canon synthesizes")
                .circuit;
            let circuit = uncanonicalize_circuit(&canon_circuit, &sigma);
            assert_eq!(
                circuit.to_permutation(),
                p.as_slice(),
                "conjugated circuit must realize the original permutation"
            );
        }
    }

    #[test]
    fn fredkin_gates_relabel_too() {
        let c = Circuit::from_gates(3, vec![Gate::fredkin_mask(0b100, 0, 1)]);
        let sigma = [1u8, 2, 0];
        let relabeled = relabel_circuit(&c, &sigma);
        let inv = inverse_wire_perm(&sigma);
        for x in 0..8u64 {
            let expected = permute_bits(c.apply(permute_bits(x, &inv)), &sigma);
            assert_eq!(relabeled.apply(x), expected);
        }
    }
}
