//! A small, dependency-free Zipf sampler.
//!
//! Account popularity in public blockchains is heavily skewed: a few
//! exchanges and contracts appear in a large fraction of transactions while
//! most accounts are touched rarely. The paper's evaluation replays a real
//! Ethereum trace; our synthetic substitute (see `DESIGN.md`) reproduces the
//! skew with a Zipf distribution over the account population.

use orthrus_types::rng::Rng;

/// Zipf distribution over `{0, 1, …, n-1}` with exponent `s`
/// (`P(k) ∝ 1 / (k+1)^s`).
///
/// Sampling inverts the CDF at a uniform `u ∈ [0, 1)`: the answer is the
/// first index whose CDF value is `≥ u`. A guide table of `K` entries
/// (`K = n.next_power_of_two()`) finds it in expected O(1): `guide[j]` is
/// the first index whose CDF value is `≥ j / K`, so for `j = ⌊u·K⌋` the
/// answer is at or after `guide[j]`, and a forward scan reaches it after
/// about `1 + n / K ≤ 2` comparisons. `K` is a power of two, so `u·K` and
/// `j / K` are exact in `f64` and the scan returns the index a binary search
/// over the CDF returns, for every `u`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Build the distribution for `n` elements with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; `s ≈ 1` matches the
    /// classic "80/20"-style skew observed in blockchain workloads.
    ///
    /// # Panics
    /// Panics if `n == 0`, `n > u32::MAX` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf support of {n} elements exceeds the guide table's u32 indices"
        );
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for value in &mut cdf {
            *value /= total;
        }
        // Guard against floating point drift on the last bucket.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // The walk ends: the last CDF value is 1.0 > j / K for every j < K.
        let k = n.next_power_of_two();
        let mut guide = Vec::with_capacity(k);
        let mut i = 0;
        for j in 0..k {
            let floor = j as f64 / k as f64;
            while cdf[i] < floor {
                i += 1;
            }
            guide.push(i as u32);
        }
        Self { cdf, guide }
    }

    /// Number of elements in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Is the support empty? (Never true: construction requires `n > 0`.)
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample one element (its index in `0..n`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index_of(rng.gen_range(0.0..1.0))
    }

    /// The element `u ∈ [0, 1)` maps to: the first index whose CDF value is
    /// `≥ u`, found from the guide table.
    fn index_of(&self, u: f64) -> usize {
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while self.cdf[i] < u {
            i += 1;
        }
        if self.cdf[i] == u {
            // On an exact hit the binary search may land anywhere on a
            // plateau of equal CDF values; defer to it so every `u` maps
            // where it always has.
            return self.search(u);
        }
        i
    }

    /// [`Zipf::index_of`] by binary search over the CDF.
    fn search(&self, u: f64) -> usize {
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(idx) => idx,
            Err(idx) => idx.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::rng::StdRng;

    #[test]
    fn uniform_when_exponent_is_zero() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 800.0, "counts {counts:?}");
        }
    }

    #[test]
    fn skewed_when_exponent_is_high() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = 0u32;
        let samples = 50_000;
        for _ in 0..samples {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s = 1 and n = 1000 the top-10 mass is ~39%; uniform would be 1%.
        let share = head as f64 / samples as f64;
        assert!(share > 0.3, "head share was {share}");
    }

    #[test]
    fn samples_stay_in_range() {
        let zipf = Zipf::new(7, 1.2);
        assert_eq!(zipf.len(), 7);
        assert!(!zipf.is_empty());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn single_element_support() {
        let zipf = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(zipf.sample(&mut rng), 0);
    }

    /// The guide table returns the binary search's index for every `u`:
    /// random draws, every CDF value below 1 (exact hits) and the neighbours
    /// of every CDF value, including the plateau at 1.0 that `s = 8` ends
    /// in.
    #[test]
    fn guide_table_matches_binary_search() {
        let cases = [
            (1, 0.0),
            (2, 1.0),
            (7, 0.5),
            (64, 1.2),
            (1_000, 0.8),
            (4_000, 1.4),
            (18_000, 1.2),
            (5_000, 3.0),
            (300, 6.0),
            (1_000, 8.0),
        ];
        for (n, s) in cases {
            let zipf = Zipf::new(n, s);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let drawn = (0..200_000).map(|_| rng.gen_range(0.0..1.0));
            let at_cdf = zipf
                .cdf
                .iter()
                .flat_map(|&c| [c.next_down(), c, c.next_up()]);
            for u in drawn.chain(at_cdf.filter(|u| (0.0..1.0).contains(u))) {
                assert_eq!(zipf.index_of(u), zipf.search(u), "n {n}, s {s}, u {u:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
