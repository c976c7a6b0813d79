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
//! per relabeling. The search is gated on a `canon_limit` (default 8
//! wires); wider permutations fall back to the identity labeling and
//! still cache on their raw table.
//!
//! **Class-prefix skip.** Most inputs of a sparse circuit spec share
//! `π(0)`'s offset: they lie in the class
//! `G = {s : π(s) ⊕ s = π(0)}`. Relabeling is linear over XOR, so the
//! conjugate by `σ` maps every index `x` of `B = p_σ(G)` to
//! `x ⊕ t0`, where `t0 = p_σ(π(0))` is its entry 0. Each Heap step
//! transposes two wires, so `t0` follows by a two-bit flip and `B` by
//! a swap of two index bits in a `2^n`-bit set (a delta swap within or
//! across words). A relabeling whose `t0` exceeds the best entry 0 is
//! rejected without touching the table; one that ties on it agrees
//! with the best table below both `B`'s run of leading members and
//! the best table's own run of `x ⊕ best[0]` entries, so the
//! comparison starts there instead of at 0. When `t0 = 0` a shorter
//! run than the best table's already loses: the next entry of the
//! conjugate is not fixed and every smaller value is taken. The cost is
//! thus `n!` relabelings times O(1) upkeep plus the entries past the
//! shared prefix, which the plain walk re-read on every relabeling.
//! Ties still walk to the end of the table, so functions with a large
//! stabilizer keep part of their `n!·2^n` worst case, less the prefix
//! their class covers; the identity and NOT on every wire cost O(1)
//! per relabeling. Classes under a quarter of the table, as in random
//! permutations, are not tracked: they seldom cover more than entry 0,
//! and the comparison then starts at entry 1 after the `t0` test.
//! Neither are classes past 8 wires, whose set would not fit its four
//! stack words. No shortcut changes the visiting order or the
//! strict-improvement rule, only where each comparison starts.
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

/// A class set of fewer than `2^n / CLASS_GATE` members is not
/// tracked: it rarely covers more than entry 0, which `t0` already
/// decides, and its per-relabeling upkeep would cost more than the
/// entries it skips. Set by measurement: tracking scattered classes of
/// `2^n/8` members cost 8–30% at 4–8 wires, while relabeled GT specs
/// ran the same with the gate at 4 or 8.
const CLASS_GATE: usize = 4;

/// The class set lives on the stack in this many words, so it is
/// tracked up to 8 wires.
const CLASS_WORDS: usize = 4;

/// Bit `p` of `INDEX_BIT[k]` is bit `k` of `p`: the positions of a
/// 64-bit word whose index has bit `k` set.
const INDEX_BIT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

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
    let pi0 = map[0];
    let mut best_table = map.to_vec();
    let mut best_sigma = identity;
    let mut best_prefix = offset_prefix(&best_table);
    // The class bit set p_σ(G) and t0 = p_σ(π(0)), kept in step with σ.
    let mut class = class_bits(map);
    let mut t0 = pi0;
    // Heap's algorithm over σ, with σ⁻¹ kept in step; the identity is
    // the first visited state. The state lives on the stack: a table
    // index has fewer than 64 bits.
    let mut sigma_buf: [u8; 64] = std::array::from_fn(|k| k as u8);
    let mut inv_buf = sigma_buf;
    let (sigma, sigma_inv) = (&mut sigma_buf[..n], &mut inv_buf[..n]);
    let mut c = [0u8; 64];
    let mut i = 0;
    while i < n {
        if (c[i] as usize) < i {
            let j = if i % 2 == 0 { 0 } else { c[i] as usize };
            sigma.swap(j, i);
            let (a, b) = (sigma[j], sigma[i]);
            sigma_inv[a as usize] = j as u8;
            sigma_inv[b as usize] = i as u8;
            // p_σ now sends to bit a what it sent to bit b, and back.
            let differ = (t0 >> a ^ t0 >> b) & 1;
            t0 ^= differ << a | differ << b;
            if let Some(class) = &mut class {
                swap_index_bits(class, a.min(b), a.max(b));
            }
            let best0 = best_table[0];
            let start = if t0 < best0 {
                Some(0)
            } else if t0 > best0 {
                None
            } else if let Some(class) = &class {
                // Entries below both the class prefix and the best
                // table's offset prefix are `x ⊕ t0` in both tables.
                let shared = trailing_ones(class);
                // With t0 = 0 those are fixed points: a conjugate that
                // leaves them before the best table does maps the next
                // index above itself, where the best table has it fixed.
                if t0 == 0 && shared < best_prefix {
                    None
                } else {
                    Some(shared.min(best_prefix))
                }
            } else {
                // Untracked class: only entry 0 is known to tie.
                Some(1)
            };
            if let Some(start) = start {
                if lower_conjugate(map, sigma, sigma_inv, pi0, t0, start, &mut best_table) {
                    best_sigma.copy_from_slice(sigma);
                    best_prefix = offset_prefix(&best_table);
                }
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

/// The class `G = {s : π(s) ⊕ s = π(0)}` of `map` as a bit set over
/// table indices, or `None` when `G` is under the [`CLASS_GATE`] or
/// the table wider than [`CLASS_WORDS`]. Conjugation by `σ` maps it to
/// `p_σ(G)`, the set of indices `x` whose conjugate entry is
/// `x ⊕ p_σ(π(0))`: `p_σ` is linear over XOR.
fn class_bits(map: &[u64]) -> Option<[u64; CLASS_WORDS]> {
    if map.len() > 64 * CLASS_WORDS {
        return None;
    }
    let mut words = [0u64; CLASS_WORDS];
    for (s, &y) in map.iter().enumerate() {
        if y ^ s as u64 == map[0] {
            words[s / 64] |= 1 << (s % 64);
        }
    }
    let size: u32 = words.iter().map(|w| w.count_ones()).sum();
    (size as usize * CLASS_GATE >= map.len()).then_some(words)
}

/// The length of the prefix of `table` that is `x ⊕ table[0]`.
fn offset_prefix(table: &[u64]) -> usize {
    (0..table.len())
        .find(|&x| table[x] != x as u64 ^ table[0])
        .unwrap_or(table.len())
}

/// The number of indices `0, 1, …` in the bit set before its first
/// absent one.
fn trailing_ones(words: &[u64; CLASS_WORDS]) -> usize {
    let mut k = 0;
    for &w in words {
        if w != !0 {
            return k + w.trailing_ones() as usize;
        }
        k += 64;
    }
    k
}

/// Relabels the bit set `words` by swapping index bits `a < b`: index
/// `x` moves to `x` with bits `a` and `b` exchanged. Within a word
/// this is a delta swap, for `a < 6 ≤ b` a delta swap between paired
/// words, and for `6 ≤ a` a swap of whole words.
fn swap_index_bits(words: &mut [u64; CLASS_WORDS], a: u8, b: u8) {
    let (a, b) = (a as usize, b as usize);
    if b < 6 {
        let delta = (1 << b) - (1 << a);
        let mask = INDEX_BIT[a] & !INDEX_BIT[b];
        for w in words.iter_mut() {
            let t = (*w >> delta ^ *w) & mask;
            *w ^= t ^ t << delta;
        }
    } else if a < 6 {
        let stride = 1 << (b - 6);
        for lo in (0..words.len()).filter(|lo| lo & stride == 0) {
            let hi = lo | stride;
            let t = (words[lo] >> (1 << a) ^ words[hi]) & !INDEX_BIT[a];
            words[hi] ^= t;
            words[lo] ^= t << (1 << a);
        }
    } else {
        let (sa, sb) = (1 << (a - 6), 1 << (b - 6));
        for w in (0..words.len()).filter(|w| w & sa != 0 && w & sb == 0) {
            words.swap(w, w ^ sa ^ sb);
        }
    }
}

/// Compares the conjugate `p_σ ∘ π ∘ p_σ⁻¹` of `map` against `best`
/// lexicographically from entry `start` on, generating its entries
/// `p_σ(π[p_σ⁻¹(x)])` in index order and stopping at the first one
/// that differs. The caller vouches that the entries below `start`
/// tie; `pi0` is `π(0)` and `t0` the conjugate's entry 0. On a strict
/// improvement `best` is overwritten from there on and `true` is
/// returned; on a tie or a larger table `best` is left as it was.
fn lower_conjugate(
    map: &[u64],
    sigma: &[u8],
    sigma_inv: &[u8],
    pi0: u64,
    t0: u64,
    start: usize,
    best: &mut [u64],
) -> bool {
    // p_σ⁻¹(x) is stepped from p_σ⁻¹(x - 1) by the image of
    // x ⊕ (x - 1), the low bits up to the lowest set bit of x.
    let mut src = 0;
    let mut bits = start & (best.len() - 1);
    while bits != 0 {
        src |= 1 << sigma_inv[bits.trailing_zeros() as usize];
        bits &= bits - 1;
    }
    let mut entry = |x: usize| {
        if x > start {
            for &wire in &sigma_inv[..=x.trailing_zeros() as usize] {
                src ^= 1 << wire;
            }
        }
        let y = map[src];
        // A member of π's class keeps its offset under relabeling.
        if y ^ src as u64 == pi0 {
            x as u64 ^ t0
        } else {
            permute_bits(y, sigma)
        }
    };
    for x in start..best.len() {
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
    use rand::{Rng, SeedableRng};
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

    /// A relabeled 4-gate GT spec with a NOT pattern `c` on its
    /// outputs, `x ↦ π(x) ⊕ c`: the same class
    /// `{s : π(s) ⊕ s = π(0)}` as `π`, but `π(0) ≠ 0` whenever
    /// `c ≠ π(0)`.
    fn not_class_inputs(width: usize, count: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let (p, _) = random_circuit_spec(width, 4, GateLibrary::Gt, &mut rng);
                let sigma = random_relabeling(width, &mut rng);
                let c = rng.random_range(1..1u64 << width);
                conjugate_table(p.as_slice(), &sigma)
                    .into_iter()
                    .map(|y| y ^ c)
                    .collect()
            })
            .collect()
    }

    /// A random permutation with `π(0) = offset` whose class
    /// `{s : π(s) ⊕ s = offset}` has exactly `size` members (`0` and
    /// `size - 1` random others); every other input maps anywhere
    /// else.
    fn class_sized_input(width: usize, size: usize, offset: u64, rng: &mut StdRng) -> Vec<u64> {
        let len = 1usize << width;
        assert!((1..=len).contains(&size) && size != len - 1);
        let mut inputs: Vec<usize> = (1..len).collect();
        inputs.shuffle(rng);
        let (class, rest) = inputs.split_at(size - 1);
        let mut table = vec![u64::MAX; len];
        let mut taken = vec![false; len];
        for &s in std::iter::once(&0).chain(class) {
            table[s] = s as u64 ^ offset;
            taken[s ^ offset as usize] = true;
        }
        let mut free: Vec<u64> = (0..len as u64).filter(|&y| !taken[y as usize]).collect();
        free.shuffle(rng);
        for (&s, &y) in rest.iter().zip(&free) {
            table[s] = y;
        }
        // Trading targets with a neighbour moves `s` out of the class
        // and cannot move the neighbour in: it receives `s ⊕ offset`.
        for k in 0..rest.len() {
            let s = rest[k];
            if table[s] == s as u64 ^ offset {
                let t = rest[(k + 1) % rest.len()];
                table.swap(s, t);
            }
        }
        let class_size = (0..len).filter(|&s| table[s] ^ s as u64 == offset).count();
        assert_eq!(class_size, size);
        table
    }

    /// Class-sized inputs around the sizes where the kernel could
    /// switch strategy: `2^n/16 … 2^n/2`, one either side of `2^n/8`,
    /// with `π(0) = 0` and with a random `π(0) ≠ 0`.
    fn class_sized_inputs(width: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = 1usize << width;
        let mut sizes = vec![
            len / 16,
            len / 8 - 1,
            len / 8,
            len / 8 + 1,
            len / 4,
            len / 2,
        ];
        sizes.retain(|&size| size >= 1);
        let mut out = Vec::new();
        for size in sizes {
            out.push(class_sized_input(width, size, 0, &mut rng));
            let offset = rng.random_range(1..len as u64);
            out.push(class_sized_input(width, size, offset, &mut rng));
        }
        out
    }

    /// A digest of `(canonical table, σ*)` over a seeded corpus at
    /// widths 3–8: relabeled GT specs, random permutations, tie-heavy
    /// functions, NOT-pattern classes and class-sized inputs. Store
    /// and cache keys, and every circuit mapped back from them, hang
    /// on these pairs: a store written by an earlier build must keep
    /// serving every entry as a hit. The digest was taken with the
    /// plain prefix walk, before the class-prefix skip.
    #[test]
    fn canon_keys_are_pinned() {
        let mut h = crate::journal::FNV_OFFSET;
        let mut count = 0u64;
        for width in 3..=8 {
            let seed = 41 + width as u64;
            let mut corpus = random_inputs(width, 3, seed);
            corpus.extend(tie_heavy_inputs(width).into_iter().map(|(_, t)| t));
            corpus.extend(not_class_inputs(width, 3, seed));
            corpus.extend(class_sized_inputs(width, seed));
            for table in corpus {
                let (canon, sigma) = canonical_form(&Permutation::from_vec(table).unwrap(), 8);
                for y in canon {
                    crate::journal::fnv1a(&mut h, &y.to_le_bytes());
                }
                crate::journal::fnv1a(&mut h, &sigma);
                count += 1;
            }
        }
        assert_eq!(count, 146);
        assert_eq!(format!("{h:016x}"), "5901eaa320c3d15e");
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

    /// Class-sized inputs one below, at and one above the smallest
    /// class the kernel tracks, with `π(0) = 0` and `π(0) ≠ 0`.
    fn gate_edge_inputs(width: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let gate = (1usize << width) / CLASS_GATE;
        let mut out = Vec::new();
        for size in [gate - 1, gate, gate + 1] {
            out.push(class_sized_input(width, size, 0, &mut rng));
            let offset = rng.random_range(1..1u64 << width);
            out.push(class_sized_input(width, size, offset, &mut rng));
        }
        out
    }

    /// NOT-pattern classes and inputs either side of the class gate
    /// exercise both the class-prefix skip and the untracked walk.
    fn assert_class_inputs_match_reference(width: usize) {
        let seed = 37 + width as u64;
        for table in not_class_inputs(width, 3, seed) {
            assert_matches_reference(table, "NOT-pattern class");
        }
        for table in gate_edge_inputs(width, seed) {
            assert_matches_reference(table, "class-gate edge");
        }
    }

    #[test]
    fn early_exit_matches_reference_on_random_specs() {
        for width in 2..=7 {
            for table in random_inputs(width, 6, 29 + width as u64) {
                assert_matches_reference(table, "random spec");
            }
        }
        for width in 6..=7 {
            assert_class_inputs_match_reference(width);
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
        assert_class_inputs_match_reference(8);
    }

    #[test]
    fn swap_index_bits_matches_a_rebuilt_class_set() {
        fn set_of(indices: impl IntoIterator<Item = usize>) -> [u64; CLASS_WORDS] {
            let mut words = [0; CLASS_WORDS];
            for x in indices {
                words[x / 64] |= 1 << (x % 64);
            }
            words
        }
        let mut rng = StdRng::seed_from_u64(19);
        for width in 2..=8 {
            let members: Vec<usize> = (0..1 << width).filter(|_| rng.random_bool(0.5)).collect();
            // Pairs below 6, across 6 and at or above 6 hit the
            // in-word, mixed and cross-word cases.
            for b in 1..width {
                for a in 0..b {
                    let mut tau: WirePerm = (0..width as u8).collect();
                    tau.swap(a, b);
                    let mut swapped = set_of(members.iter().copied());
                    swap_index_bits(&mut swapped, a as u8, b as u8);
                    let rebuilt = set_of(
                        members
                            .iter()
                            .map(|&s| permute_bits(s as u64, &tau) as usize),
                    );
                    assert_eq!(swapped, rebuilt, "width {width}, bits {a} and {b}");
                }
            }
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
