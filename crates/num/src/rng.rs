//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the simulated study — process variation,
//! timing-fault arrival, dataset synthesis, label calibration — must be
//! exactly reproducible from a seed, both so experiments can be repeated
//! (the paper averages 10 repetitions per point) and so tests are stable.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — tiny, used for seeding and for cheap hash-style
//!   derivation of independent substreams from a master seed.
//! * [`Xoshiro256StarStar`] — the workhorse generator used by simulation
//!   code paths.
//!
//! Both are well-known public-domain algorithms (Vigna et al.) implemented
//! here so the simulator has zero uncontrolled dependencies in its
//! reproducibility-critical core.

/// Derives an independent stream seed from a master seed and a stream
/// index, via two rounds of splitmix-style mixing.
///
/// This is the seeding scheme of the parallel campaign executor: cell `i`
/// of a campaign seeds its accelerator with
/// `derive_stream_seed(master_seed, i)`, so every cell's randomness is a
/// pure function of `(master_seed, cell_index)` — independent of worker
/// count, scheduling order, and whichever cells ran before it. Two full
/// mix rounds keep related masters (42, 43, …) and adjacent indices from
/// producing correlated streams, which a plain `master ^ index` would.
///
/// # Examples
///
/// ```
/// use redvolt_num::rng::derive_stream_seed;
///
/// let a = derive_stream_seed(42, 0);
/// let b = derive_stream_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_stream_seed(42, 0));
/// ```
pub fn derive_stream_seed(master_seed: u64, stream: u64) -> u64 {
    let mut outer = SplitMix64::new(master_seed);
    let mixed_master = outer.next_u64();
    let mut inner =
        SplitMix64::new(mixed_master.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    inner.next_u64()
}

/// Derives an independent seed from a master seed, a stream index and a
/// substream index, by chaining two [`derive_stream_seed`] rounds.
///
/// This is the per-image seeding scheme of the two-level campaign
/// executor: image `i`, attempt `a` of a cell whose batch seed is `s`
/// injects faults from `derive_substream_seed(s, i, a)`, so every
/// image's fault stream is a pure function of `(cell seed, image index,
/// attempt)` — independent of image-shard count, worker scheduling and
/// whichever images ran before it.
///
/// # Examples
///
/// ```
/// use redvolt_num::rng::derive_substream_seed;
///
/// let a = derive_substream_seed(42, 3, 0);
/// let b = derive_substream_seed(42, 3, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_substream_seed(42, 3, 0));
/// ```
pub fn derive_substream_seed(master_seed: u64, stream: u64, substream: u64) -> u64 {
    derive_stream_seed(derive_stream_seed(master_seed, stream), substream)
}

/// SplitMix64 generator (Vigna, 2015).
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`] and to derive independent substream seeds.
///
/// # Examples
///
/// ```
/// use redvolt_num::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** generator (Blackman & Vigna, 2018).
///
/// Fast, high-quality, 256-bit state. This is the generator used everywhere
/// simulation code needs randomness.
///
/// # Examples
///
/// ```
/// use redvolt_num::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seed_from(7);
/// let x = rng.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding `seed` through [`SplitMix64`], as
    /// recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Derives an independent substream for a named component.
    ///
    /// Mixing the label into the seed stream lets a single experiment seed
    /// fan out to many mutually independent generators (per board, per
    /// repetition, per fault site) without manual seed bookkeeping.
    pub fn substream(&self, label: u64) -> Self {
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(label)
                .rotate_left(17)
                ^ self.s[2],
        );
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `u32` in `[0, bound)` via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_bounded_u32(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method with rejection for exactness.
        let mut x = self.next_u64() as u32;
        let mut m = u64::from(x) * u64::from(bound);
        let mut lo = m as u32;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64() as u32;
                m = u64::from(x) * u64::from(bound);
                lo = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` or exceeds `u32::MAX` (simulation index spaces
    /// never do).
    pub fn next_index(&mut self, bound: usize) -> usize {
        assert!(bound <= u32::MAX as usize, "index bound too large");
        self.next_bounded_u32(bound as u32) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a standard-normal sample via the Box–Muller transform.
    pub fn next_normal(&mut self) -> f64 {
        // Draw u1 from (0,1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a normal sample with the given `mean` and `std`.
    pub fn next_gaussian(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.next_normal()
    }

    /// Returns a Poisson-distributed count with the given `rate`.
    ///
    /// Uses Knuth's product method for small rates and a normal
    /// approximation for large ones; fault counts per measurement fall in
    /// the small-rate regime almost always.
    pub fn next_poisson(&mut self, rate: f64) -> u64 {
        if rate <= 0.0 {
            return 0;
        }
        if rate < 30.0 {
            let limit = (-rate).exp();
            let mut product = self.next_f64();
            let mut count = 0u64;
            while product > limit {
                product *= self.next_f64();
                count += 1;
            }
            count
        } else {
            let sample = self.next_gaussian(rate, rate.sqrt());
            sample.max(0.0).round() as u64
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 0 from the public-domain reference code.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn derive_stream_seed_is_pure_and_spreads() {
        assert_eq!(derive_stream_seed(42, 7), derive_stream_seed(42, 7));
        // Distinct (master, stream) pairs — including the transposed and
        // off-by-one cases a weak mix would collide on — give distinct seeds.
        let seeds = [
            derive_stream_seed(42, 0),
            derive_stream_seed(42, 1),
            derive_stream_seed(43, 0),
            derive_stream_seed(43, 1),
            derive_stream_seed(0, 42),
            derive_stream_seed(1, 42),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn derive_substream_seed_is_pure_and_spreads() {
        assert_eq!(
            derive_substream_seed(42, 3, 1),
            derive_substream_seed(42, 3, 1)
        );
        // (stream, substream) transpositions and the plain stream seed
        // must all land on distinct values.
        let seeds = [
            derive_substream_seed(42, 0, 0),
            derive_substream_seed(42, 0, 1),
            derive_substream_seed(42, 1, 0),
            derive_substream_seed(42, 1, 1),
            derive_stream_seed(42, 0),
            derive_stream_seed(42, 1),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn derived_streams_are_statistically_independent() {
        // Generators seeded from adjacent cells of the same master must not
        // track each other: correlation of the first 1k outputs stays small.
        let mut a = Xoshiro256StarStar::seed_from(derive_stream_seed(42, 0));
        let mut b = Xoshiro256StarStar::seed_from(derive_stream_seed(42, 1));
        let n = 1000;
        let xs: Vec<f64> = (0..n).map(|_| a.next_f64() - 0.5).collect();
        let ys: Vec<f64> = (0..n).map(|_| b.next_f64() - 0.5).collect();
        let dot: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let corr = dot / n as f64 * 12.0; // normalize by Var[U(-0.5,0.5)] = 1/12
        assert!(corr.abs() < 0.15, "corr = {corr}");
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from(123);
        let mut b = Xoshiro256StarStar::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn substreams_differ_from_parent_and_each_other() {
        let root = Xoshiro256StarStar::seed_from(9);
        let mut s1 = root.substream(1);
        let mut s2 = root.substream(2);
        let mut base = root.clone();
        let (a, b, c) = (s1.next_u64(), s2.next_u64(), base.next_u64());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_u32_in_range_and_covers_values() {
        let mut rng = Xoshiro256StarStar::seed_from(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.next_bounded_u32(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_mean_and_std_are_close() {
        let mut rng = Xoshiro256StarStar::seed_from(17);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std={}", var.sqrt());
    }

    #[test]
    fn poisson_small_rate_mean_matches() {
        let mut rng = Xoshiro256StarStar::seed_from(23);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.next_poisson(2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = Xoshiro256StarStar::seed_from(1);
        assert_eq!(rng.next_poisson(0.0), 0);
        assert_eq!(rng.next_poisson(-1.0), 0);
    }

    #[test]
    fn poisson_large_rate_uses_normal_approx() {
        let mut rng = Xoshiro256StarStar::seed_from(29);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.next_poisson(100.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256StarStar::seed_from(37);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "should be shuffled");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn bounded_zero_panics() {
        Xoshiro256StarStar::seed_from(0).next_bounded_u32(0);
    }
}
