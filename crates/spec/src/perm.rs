//! Reversible function specifications as permutations.

use std::error::Error;
use std::fmt;

use rmrls_circuit::Circuit;
use rmrls_pprm::MultiPprm;

/// Error constructing a [`Permutation`] from an invalid table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidSpecError {
    /// The table length is not a power of two.
    BadLength {
        /// Supplied table length.
        len: usize,
    },
    /// A value appears twice (the mapping is not injective).
    Duplicate {
        /// The repeated output value.
        value: u64,
    },
    /// A value is out of the `0..2^n` range.
    OutOfRange {
        /// The offending output value.
        value: u64,
    },
}

impl fmt::Display for InvalidSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidSpecError::BadLength { len } => {
                write!(f, "specification length {len} is not a power of two")
            }
            InvalidSpecError::Duplicate { value } => {
                write!(
                    f,
                    "output value {value} repeats; the function is not reversible"
                )
            }
            InvalidSpecError::OutOfRange { value } => {
                write!(f, "output value {value} is out of range")
            }
        }
    }
}

impl Error for InvalidSpecError {}

/// A completely specified reversible function of `n` variables: a
/// permutation on `{0, 1, …, 2^n − 1}` (§II-A of the paper).
///
/// ```
/// use rmrls_spec::Permutation;
///
/// // The paper's Fig. 1 function.
/// let p = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6])?;
/// assert_eq!(p.num_vars(), 3);
/// assert_eq!(p.apply(2), 7);
/// assert_eq!(p.inverse().apply(7), 2);
/// # Ok::<(), rmrls_spec::InvalidSpecError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    num_vars: usize,
    map: Vec<u64>,
}

impl Permutation {
    /// The identity function on `num_vars` variables.
    pub fn identity(num_vars: usize) -> Self {
        Permutation {
            num_vars,
            map: (0..1u64 << num_vars).collect(),
        }
    }

    /// Validates and wraps an output table (`map[x]` = output for input
    /// `x`).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSpecError`] if the length is not a power of two or
    /// the mapping is not a bijection.
    pub fn from_vec(map: Vec<u64>) -> Result<Self, InvalidSpecError> {
        let len = map.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(InvalidSpecError::BadLength { len });
        }
        let num_vars = len.trailing_zeros() as usize;
        let mut seen = vec![false; len];
        for &v in &map {
            if v >= len as u64 {
                return Err(InvalidSpecError::OutOfRange { value: v });
            }
            if seen[v as usize] {
                return Err(InvalidSpecError::Duplicate { value: v });
            }
            seen[v as usize] = true;
        }
        Ok(Permutation { num_vars, map })
    }

    /// Builds a permutation by tabulating a function.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSpecError`] if the tabulated map is not a
    /// bijection.
    pub fn from_fn(num_vars: usize, f: impl FnMut(u64) -> u64) -> Result<Self, InvalidSpecError> {
        Permutation::from_vec((0..1u64 << num_vars).map(f).collect())
    }

    /// The permutation computed by a circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Permutation {
            num_vars: circuit.width(),
            map: circuit.to_permutation(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The raw output table.
    pub fn as_slice(&self) -> &[u64] {
        &self.map
    }

    /// Applies the function to an input word.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 2^n`.
    pub fn apply(&self, x: u64) -> u64 {
        self.map[x as usize]
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u64; self.map.len()];
        for (x, &y) in self.map.iter().enumerate() {
            inv[y as usize] = x as u64;
        }
        Permutation {
            num_vars: self.num_vars,
            map: inv,
        }
    }

    /// Function composition: `(self ∘ other)(x) = self(other(x))`.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.num_vars, other.num_vars, "sizes differ");
        Permutation {
            num_vars: self.num_vars,
            map: other.map.iter().map(|&y| self.map[y as usize]).collect(),
        }
    }

    /// Whether this is the identity function.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(x, &y)| x as u64 == y)
    }

    /// Parity of the permutation: `true` if even (an even number of
    /// transpositions). Relevant to the synthesis theory of \[16\]: an odd
    /// permutation of `n ≥ 4` wires cannot be realized with gates of
    /// fewer than `n` wires alone.
    pub fn is_even(&self) -> bool {
        let mut visited = vec![false; self.map.len()];
        let mut transpositions = 0usize;
        for start in 0..self.map.len() {
            if visited[start] {
                continue;
            }
            let mut len = 0usize;
            let mut x = start;
            while !visited[x] {
                visited[x] = true;
                x = self.map[x] as usize;
                len += 1;
            }
            transpositions += len - 1;
        }
        transpositions.is_multiple_of(2)
    }

    /// The disjoint cycles of the permutation (fixed points omitted),
    /// each starting at its smallest element, listed in order of their
    /// smallest elements.
    ///
    /// ```
    /// use rmrls_spec::Permutation;
    ///
    /// let p = Permutation::from_vec(vec![1, 0, 3, 2])?;
    /// assert_eq!(p.cycles(), vec![vec![0, 1], vec![2, 3]]);
    /// # Ok::<(), rmrls_spec::InvalidSpecError>(())
    /// ```
    pub fn cycles(&self) -> Vec<Vec<u64>> {
        let mut visited = vec![false; self.map.len()];
        let mut cycles = Vec::new();
        for start in 0..self.map.len() {
            if visited[start] || self.map[start] as usize == start {
                visited[start] = true;
                continue;
            }
            let mut cycle = Vec::new();
            let mut x = start;
            while !visited[x] {
                visited[x] = true;
                cycle.push(x as u64);
                x = self.map[x] as usize;
            }
            cycles.push(cycle);
        }
        cycles
    }

    /// The cycle type: multiset of cycle lengths (fixed points included),
    /// sorted descending — the conjugacy-class invariant of the
    /// permutation.
    pub fn cycle_type(&self) -> Vec<usize> {
        let mut lengths: Vec<usize> = self.cycles().iter().map(Vec::len).collect();
        let moved: usize = lengths.iter().sum();
        lengths.extend(std::iter::repeat_n(1, self.map.len() - moved));
        lengths.sort_unstable_by(|a, b| b.cmp(a));
        lengths
    }

    /// The order of the permutation: the least `k ≥ 1` with `p^k = id`
    /// (the LCM of the cycle lengths).
    pub fn order(&self) -> u64 {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.cycles()
            .iter()
            .map(|c| c.len() as u64)
            .fold(1, |acc, l| acc / gcd(acc, l) * l)
    }

    /// The multi-output PPRM expansion of the function — the input to the
    /// RMRLS synthesis algorithm.
    pub fn to_multi_pprm(&self) -> MultiPprm {
        MultiPprm::from_permutation(&self.map, self.num_vars)
    }

    /// The lexicographic rank of the permutation in `S_{2^n}` as `u128`
    /// (usable for exhaustive 3-variable enumeration, where ranks fit in
    /// `0..40320`).
    ///
    /// # Panics
    ///
    /// Panics if the factorial overflows `u128` (tables longer than 32
    /// entries).
    pub fn rank(&self) -> u128 {
        let n = self.map.len();
        assert!(n <= 32, "rank only supported for tables up to 32 entries");
        let mut rank: u128 = 0;
        for i in 0..n {
            let smaller = self.map[i + 1..]
                .iter()
                .filter(|&&y| y < self.map[i])
                .count() as u128;
            rank = rank * (n - i) as u128 + smaller;
        }
        rank
    }

    /// The permutation of `2^n` elements with the given lexicographic
    /// rank — inverse of [`Permutation::rank`].
    ///
    /// # Panics
    ///
    /// Panics if `rank >= (2^n)!` or the table would exceed 32 entries.
    pub fn from_rank(num_vars: usize, rank: u128) -> Permutation {
        let n = 1usize << num_vars;
        assert!(
            n <= 32,
            "from_rank only supported for tables up to 32 entries"
        );
        let mut factorials = vec![1u128; n + 1];
        for i in 1..=n {
            factorials[i] = factorials[i - 1] * i as u128;
        }
        assert!(rank < factorials[n], "rank out of range");
        let mut rank = rank;
        let mut pool: Vec<u64> = (0..n as u64).collect();
        let mut map = Vec::with_capacity(n);
        for i in 0..n {
            let f = factorials[n - 1 - i];
            let idx = (rank / f) as usize;
            rank %= f;
            map.push(pool.remove(idx));
        }
        Permutation { num_vars, map }
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation({self})")
    }
}

impl fmt::Display for Permutation {
    /// Paper notation: `{1, 0, 7, 2, 3, 4, 5, 6}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmrls_circuit::Gate;

    fn fig1() -> Permutation {
        Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).unwrap()
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            Permutation::from_vec(vec![0, 1, 2]),
            Err(InvalidSpecError::BadLength { len: 3 })
        ));
    }

    #[test]
    fn rejects_duplicates() {
        assert!(matches!(
            Permutation::from_vec(vec![0, 0]),
            Err(InvalidSpecError::Duplicate { value: 0 })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Permutation::from_vec(vec![0, 5]),
            Err(InvalidSpecError::OutOfRange { value: 5 })
        ));
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = fig1();
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn from_circuit_matches_simulation() {
        let c = Circuit::from_gates(3, vec![Gate::not(0), Gate::toffoli(&[0, 2], 1)]);
        let p = Permutation::from_circuit(&c);
        for x in 0..8 {
            assert_eq!(p.apply(x), c.apply(x));
        }
    }

    #[test]
    fn parity_of_simple_permutations() {
        assert!(Permutation::identity(2).is_even());
        // A single transposition is odd.
        let p = Permutation::from_vec(vec![1, 0, 2, 3]).unwrap();
        assert!(!p.is_even());
        // A NOT gate on 2 wires: two disjoint transpositions → even.
        let c = Circuit::from_gates(2, vec![Gate::not(0)]);
        assert!(Permutation::from_circuit(&c).is_even());
    }

    #[test]
    fn rank_roundtrip_exhaustive_n1() {
        for r in 0..2u128 {
            let p = Permutation::from_rank(1, r);
            assert_eq!(p.rank(), r);
        }
    }

    #[test]
    fn rank_roundtrip_sampled_n3() {
        for r in (0..40320u128).step_by(997) {
            let p = Permutation::from_rank(3, r);
            assert_eq!(p.rank(), r, "rank {r}");
        }
        assert!(Permutation::from_rank(3, 0).is_identity());
    }

    #[test]
    fn cycles_of_fig1() {
        // {1,0,7,2,3,4,5,6} = (0 1)(2 7 6 5 4 3).
        let p = fig1();
        assert_eq!(p.cycles(), vec![vec![0, 1], vec![2, 7, 6, 5, 4, 3]]);
        assert_eq!(p.cycle_type(), vec![6, 2]);
        assert_eq!(p.order(), 6);
    }

    #[test]
    fn identity_has_no_cycles_and_order_one() {
        let id = Permutation::identity(3);
        assert!(id.cycles().is_empty());
        assert_eq!(id.cycle_type(), vec![1; 8]);
        assert_eq!(id.order(), 1);
    }

    #[test]
    fn order_matches_repeated_composition() {
        let p = Permutation::from_vec(vec![1, 2, 0, 3]).unwrap();
        assert_eq!(p.order(), 3);
        let mut q = p.clone();
        for _ in 1..p.order() {
            q = p.compose(&q);
        }
        assert!(q.is_identity());
    }

    #[test]
    fn parity_matches_cycle_type() {
        // Even permutation ⟺ even number of even-length cycles.
        for rank in (0..40320u128).step_by(977) {
            let p = Permutation::from_rank(3, rank);
            let even_cycles = p.cycle_type().iter().filter(|&&l| l % 2 == 0).count();
            assert_eq!(p.is_even(), even_cycles % 2 == 0, "rank {rank}");
        }
    }

    #[test]
    fn display_matches_paper() {
        assert_eq!(fig1().to_string(), "{1, 0, 7, 2, 3, 4, 5, 6}");
    }

    #[test]
    fn to_multi_pprm_roundtrip() {
        let p = fig1();
        assert_eq!(p.to_multi_pprm().to_permutation(), p.as_slice());
    }
}
