//! Seeded, replayable inputs.
//!
//! Every input of every workload is generated here from the `--seed`
//! argument; the program under test receives only these tables. Each
//! run writes them to its run directory in a form the CLI replays:
//! `rmrls batch --manifest <dir>/inputs.manifest` for `paper_search`
//! and `batch_wide`, and one `POST /synthesize` body per line in
//! `<dir>/requests.jsonl` for `serve_mix`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rmrls_spec::{benchmarks, random_circuit_spec, random_permutation, GateLibrary};

/// One generated specification: a reversible function as its table.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: String,
    pub width: usize,
    pub table: Vec<u64>,
}

impl Spec {
    pub fn perm_text(&self) -> String {
        let cells: Vec<String> = self.table.iter().map(u64::to_string).collect();
        cells.join(",")
    }
}

/// A uniformly random wire relabeling of `width` wires.
pub fn random_relabeling(width: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut sigma: Vec<usize> = (0..width).collect();
    sigma.shuffle(rng);
    sigma
}

fn move_bits(x: u64, sigma: &[usize]) -> u64 {
    sigma
        .iter()
        .enumerate()
        .fold(0, |y, (i, &s)| y | (x >> i & 1) << s)
}

/// The table of the same function with wire `i` renamed to `sigma[i]`.
pub fn relabel(table: &[u64], sigma: &[usize]) -> Vec<u64> {
    let mut out = vec![0; table.len()];
    for (x, &y) in table.iter().enumerate() {
        out[move_bits(x as u64, sigma) as usize] = move_bits(y, sigma);
    }
    out
}

/// The lexicographically smallest relabeling of `table` — computed here
/// only to keep generated "distinct" specs distinct under relabeling
/// (used for widths up to 4).
fn smallest_relabeling(table: &[u64], width: usize) -> Vec<u64> {
    let mut best = table.to_vec();
    let mut sigma: Vec<usize> = (0..width).collect();
    loop {
        let t = relabel(table, &sigma);
        if t < best {
            best = t;
        }
        // Next lexicographic permutation of sigma.
        let Some(i) = (1..width).rev().find(|&i| sigma[i - 1] < sigma[i]) else {
            return best;
        };
        let j = (i..width)
            .rev()
            .find(|&j| sigma[j] > sigma[i - 1])
            .unwrap_or(i);
        sigma.swap(i - 1, j);
        sigma[i..].reverse();
    }
}

/// The paper's worked example and Table IV rows of `paper_search`, each
/// under a seeded wire relabeling (an equivalent function the search
/// has to solve afresh).
pub const PAPER_SPECS: [&str; 9] = [
    "ex5",
    "3_17",
    "rd32",
    "ham3",
    "decod24",
    "4mod5",
    "majority5",
    "xor5",
    "graycode6",
];

pub fn paper_specs(rng: &mut StdRng) -> Vec<Spec> {
    PAPER_SPECS
        .iter()
        .map(|&name| {
            let perm = benchmarks::find(name)
                .and_then(|b| b.to_permutation())
                .unwrap_or_else(|| panic!("bundled benchmark {name} is a permutation"));
            let width = perm.num_vars();
            let sigma = random_relabeling(width, rng);
            Spec {
                name: name.to_string(),
                width,
                table: relabel(perm.as_slice(), &sigma),
            }
        })
        .collect()
}

/// `batch_wide` jobs: random GT-library circuit specs (§V-E) at widths
/// 4–8, each admitted under several relabelings, followed by random
/// 5-variable permutations that exhaust the search budget and descend
/// the fallback ladder.
pub fn batch_specs(rng: &mut StdRng) -> Vec<Spec> {
    // (width, circuits): the width-8 jobs cost ~180 ms of
    // canonicalization each, so there are few of them.
    const WIDTHS: [(usize, usize); 5] = [(4, 12), (5, 8), (6, 6), (7, 6), (8, 1)];
    // Short random circuits, so greedy search solves every one of them
    // and search stays cheap next to canonicalization.
    const GATES: usize = 4;
    const RELABELINGS: usize = 4;
    const HARD_PERMS: usize = 3;
    let mut specs = Vec::new();
    for (width, circuits) in WIDTHS {
        for c in 0..circuits {
            let (perm, _) = random_circuit_spec(width, GATES, GateLibrary::Gt, rng);
            for r in 0..RELABELINGS {
                let sigma = random_relabeling(width, rng);
                specs.push(Spec {
                    name: format!("gt{width}-{c}-r{r}"),
                    width,
                    table: relabel(perm.as_slice(), &sigma),
                });
            }
        }
    }
    for h in 0..HARD_PERMS {
        let perm = random_permutation(5, rng);
        specs.push(Spec {
            name: format!("perm5-{h}"),
            width: 5,
            table: perm.as_slice().to_vec(),
        });
    }
    specs
}

/// `serve_mix` cold specs: `count` random 3- and 4-variable
/// permutations (Table I/II class), pairwise distinct under wire
/// relabeling so every cold request really misses the cache.
pub fn serve_cold_specs(count: usize, rng: &mut StdRng) -> Vec<Spec> {
    let mut seen = std::collections::HashSet::new();
    let mut specs = Vec::with_capacity(count);
    while specs.len() < count {
        let width = 3 + specs.len() % 2;
        let perm = random_permutation(width, rng);
        if seen.insert(smallest_relabeling(perm.as_slice(), width)) {
            specs.push(Spec {
                name: format!("cold{}-{width}v", specs.len()),
                width,
                table: perm.as_slice().to_vec(),
            });
        }
    }
    specs
}

/// The same functions under fresh random relabelings (the `hit` and
/// `restart` phases of `serve_mix`).
pub fn relabeled(specs: &[Spec], tag: &str, rng: &mut StdRng) -> Vec<Spec> {
    specs
        .iter()
        .map(|s| {
            let sigma = random_relabeling(s.width, rng);
            Spec {
                name: format!("{}-{tag}", s.name),
                width: s.width,
                table: relabel(&s.table, &sigma),
            }
        })
        .collect()
}

/// An `rmrls batch` manifest of the specs (`perm` entries).
pub fn manifest_text(specs: &[Spec]) -> String {
    let mut out = String::new();
    for s in specs {
        out.push_str(&format!("# {}\nperm {}\n", s.name, s.perm_text()));
    }
    out
}

/// A `POST /synthesize` body for the spec.
pub fn request_body(spec: &Spec) -> String {
    format!(
        "{{\"kind\":\"perm\",\"name\":\"{}\",\"spec\":\"{}\"}}",
        spec.name,
        spec.perm_text()
    )
}

/// A seed-derived generator for one purpose, so adding draws to one
/// workload never shifts another's inputs.
pub fn rng_for(seed: u64, purpose: u64) -> StdRng {
    use rand::SeedableRng;
    let mut base = StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    StdRng::seed_from_u64(base.random_range(0..=u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabeling_round_trips() {
        let table = vec![1, 0, 7, 2, 3, 4, 5, 6];
        let sigma = vec![2, 0, 1];
        let mut inverse = vec![0; 3];
        for (i, &s) in sigma.iter().enumerate() {
            inverse[s] = i;
        }
        assert_eq!(relabel(&relabel(&table, &sigma), &inverse), table);
        assert_eq!(
            smallest_relabeling(&table, 3),
            smallest_relabeling(&relabel(&table, &sigma), 3)
        );
    }
}
