//! Seeded, splittable pseudo-random number generation.
//!
//! Two generators, both from the public-domain xoshiro family reference
//! implementations (Blackman & Vigna):
//!
//! * [`SplitMix64`] — a tiny 64-bit state mixer. Used to expand a user seed
//!   into the 256-bit xoshiro state and to derive per-case seeds in the
//!   property harness. Never hand it to simulation code directly.
//! * [`TestRng`] — xoshiro256++, the workhorse generator. Passes BigCrush,
//!   has a 2^256 − 1 period, and is a handful of shifts and rotates per draw.
//!
//! [`TestRng`] also carries the sampling primitives the workspace needs
//! (uniform floats, bounded integers, Box–Muller normals) so downstream
//! wrappers like `elsa_linalg::SeededRng` stay thin.

/// SplitMix64: a 64-bit finalizer-style generator used for seed expansion.
///
/// # Examples
///
/// ```
/// use elsa_testkit::rng::SplitMix64;
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Golden-ratio increment of the Weyl sequence.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates the mixer from a seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One-shot mix of a value: `SplitMix64::mix(x)` is the first output of
    /// `SplitMix64::new(x)`. Handy for deriving stream labels.
    #[must_use]
    pub fn mix(x: u64) -> u64 {
        Self::new(x).next_u64()
    }
}

/// xoshiro256++: the deterministic generator behind every stochastic
/// component of the reproduction.
///
/// # Examples
///
/// ```
/// use elsa_testkit::rng::TestRng;
/// let mut a = TestRng::new(42);
/// let mut b = TestRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.uniform() >= 0.0 && a.uniform() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
    /// Spare normal deviate from the last Box–Muller pair.
    cached_normal: Option<f64>,
}

impl TestRng {
    /// Creates a generator from an explicit seed, expanding it to the
    /// 256-bit state with SplitMix64 (the seeding procedure recommended by
    /// the xoshiro authors).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut mixer = SplitMix64::new(seed);
        let s = [mixer.next_u64(), mixer.next_u64(), mixer.next_u64(), mixer.next_u64()];
        Self { s, cached_normal: None }
    }

    /// Next 64 random bits (xoshiro256++ step).
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        self.cached_normal = None;
        result
    }

    /// Derives an independent child generator for the given stream label.
    ///
    /// Splitting draws one value from `self` (advancing it) and mixes the
    /// label through SplitMix64, so distinct labels from the same parent
    /// state — and the same label from distinct parent states — give
    /// unrelated streams.
    #[must_use]
    pub fn split(&mut self, label: u64) -> Self {
        let base = self.next_u64();
        Self::new(base ^ SplitMix64::mix(label))
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[must_use]
    pub fn uniform(&mut self) -> f64 {
        // Standard double conversion: take the top 53 bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[must_use]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        lo + self.uniform() * (hi - lo)
    }

    /// Unbiased uniform integer in `[0, n)` (Lemire's multiply-shift method
    /// with rejection).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be nonempty");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            // Reject the final partial block so every residue is equally likely.
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A standard normal `N(0, 1)` deviate via the Box–Muller transform.
    ///
    /// Deviates come in pairs; the spare is cached and returned by the next
    /// call (the cache is invalidated by any intervening raw draw).
    #[must_use]
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        // Box–Muller on (0,1] × [0,1) uniforms.
        let u1 = 1.0 - self.uniform(); // in (0, 1], avoids ln(0)
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Advances past `count` standard normals without computing them: the
    /// generator is left in the state `count` calls of
    /// [`standard_normal`](Self::standard_normal) leave, spare included. A
    /// held spare is skipped first, then every pair costs its two raw draws
    /// and no `ln`, `sqrt`, `sin` or `cos`. Only an odd last normal is
    /// computed, because its pair's spare must be held afterwards.
    pub fn skip_normals(&mut self, count: usize) {
        let mut left = count;
        if left > 0 && self.cached_normal.take().is_some() {
            left -= 1;
        }
        for _ in 0..left / 2 {
            let _ = self.next_u64();
            let _ = self.next_u64();
        }
        if left % 2 == 1 {
            let _ = self.standard_normal();
        }
    }

    /// A normal deviate with the given mean and standard deviation.
    #[must_use]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567, from the
        // published reference implementation.
        let mut sm = SplitMix64::new(1_234_567);
        assert_eq!(sm.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(sm.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(sm.next_u64(), 9_817_491_932_198_370_423);
    }

    #[test]
    fn xoshiro_known_answer_seed_42() {
        // First outputs of xoshiro256++ with SplitMix64(42) state expansion;
        // guards both the seeding procedure and the step function.
        let mut rng = TestRng::new(42);
        assert_eq!(rng.next_u64(), 15_021_278_609_987_233_951);
        assert_eq!(rng.next_u64(), 5_881_210_131_331_364_753);
        assert_eq!(rng.next_u64(), 18_149_643_915_985_481_100);
    }

    #[test]
    fn xoshiro_deterministic_across_instances() {
        let mut a = TestRng::new(99);
        let mut b = TestRng::new(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_produce_disjoint_prefixes() {
        let mut a = TestRng::new(0);
        let mut b = TestRng::new(1);
        let collisions = (0..256).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = TestRng::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_unbiased_over_small_range() {
        let mut rng = TestRng::new(11);
        let n = 7;
        let mut counts = vec![0u32; n];
        let draws = 70_000;
        for _ in 0..draws {
            counts[rng.index(n)] += 1;
        }
        let expect = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i}: count {c}, expected {expect}");
        }
    }

    #[test]
    fn split_streams_diverge_from_parent_and_siblings() {
        let mut parent = TestRng::new(5);
        let mut c1 = parent.split(1);
        let mut c2 = parent.split(2);
        let mut p = TestRng::new(5);
        let _ = p.split(1);
        let _ = p.split(2);
        let matches_sib = (0..128).filter(|_| c1.next_u64() == c2.next_u64()).count();
        let matches_par = (0..128).filter(|_| parent.next_u64() == p.next_u64()).count();
        assert_eq!(matches_sib, 0);
        // Parents advanced identically, so they stay in lockstep.
        assert_eq!(matches_par, 128);
    }

    #[test]
    fn raw_draw_invalidates_normal_cache() {
        // A raw bit draw between two normals must not replay the cached
        // spare from a stale Box–Muller pair.
        let mut a = TestRng::new(3);
        let mut b = TestRng::new(3);
        let _ = a.standard_normal();
        let _ = b.standard_normal();
        let _ = b.next_u64();
        // `a` returns its cached spare; `b` was invalidated and regenerates.
        assert_ne!(a.standard_normal(), b.standard_normal());
    }
}
