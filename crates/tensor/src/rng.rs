//! Deterministic pseudo-random number generation.
//!
//! Everything random in the workspace — weight init, synthetic graph
//! generation, neighbor sampling, the random selector in the SGC convergence
//! experiment — flows through this xoshiro256++ generator so that every
//! experiment is exactly reproducible from a single seed. The workspace has
//! no registry dependencies: examples, tests and benchmarks use this
//! generator too.
//!
//! The engine's state update is linear over GF(2), so [`Rng::advance`] can
//! move a stream forward by any number of draws in O(log k) time. A loop
//! that takes a fixed number of draws per item can therefore be split into
//! chunks, each started at its own point of one stream, and still produce
//! exactly the values the serial loop produces.

use crate::Matrix;

/// The low 256 coefficients of the characteristic polynomial `P` of
/// xoshiro256's state update (its `x^256` coefficient is 1), little-endian:
/// bit `b` of word `w` is the coefficient of `x^(64w + b)`. The update `T`
/// satisfies `P(T) = 0`, so `T^k = (x^k mod P)(T)`.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// A polynomial over GF(2) of degree below 256, in [`CHAR_POLY`]'s layout.
type Poly = [u64; 4];

/// `a · x mod P`.
#[inline]
fn mul_x(a: Poly) -> Poly {
    // All ones when `x^255 · x` overflows into `x^256`, which reduces to
    // `P − x^256`.
    let reduce = (a[3] >> 63).wrapping_neg();
    [
        a[0] << 1 ^ CHAR_POLY[0] & reduce,
        (a[1] << 1 | a[0] >> 63) ^ CHAR_POLY[1] & reduce,
        (a[2] << 1 | a[1] >> 63) ^ CHAR_POLY[2] & reduce,
        (a[3] << 1 | a[2] >> 63) ^ CHAR_POLY[3] & reduce,
    ]
}

/// `a · b mod P`: Horner over `b`'s bits, highest first.
fn mul_mod(a: Poly, b: Poly) -> Poly {
    let mut r = [0; 4];
    for i in (0..256).rev() {
        r = mul_x(r);
        let take = (b[i / 64] >> (i % 64) & 1).wrapping_neg();
        for (w, x) in r.iter_mut().zip(a) {
            *w ^= x & take;
        }
    }
    r
}

/// `x^k mod P`, by square-and-multiply over `k`'s bits, highest first.
fn x_pow_mod(k: u64) -> Poly {
    let mut r = [1, 0, 0, 0];
    for i in (0..u64::BITS - k.leading_zeros()).rev() {
        r = mul_mod(r, r);
        if k >> i & 1 == 1 {
            r = mul_x(r);
        }
    }
    r
}

/// xoshiro256++ PRNG seeded via SplitMix64.
///
/// Small, fast, high-quality; the same generator family `rand_xoshiro`
/// ships. Implemented locally to keep substrate crates dependency-free.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed the generator. Any `u64` is fine, including 0.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Move the state forward by exactly `k` draws, in O(log k) time: the
    /// next output is the one `k` calls of [`Rng::next_u64`] would reach.
    /// Computes `x^k mod P` and applies it the way the xoshiro reference
    /// `jump()` applies its `JUMP` constant.
    pub fn advance(&mut self, k: u64) {
        self.apply(x_pow_mod(k));
    }

    /// Replace the state `s` by `poly(T) s`: 256 steps, XOR-ing in the state
    /// at every step whose coefficient is set.
    fn apply(&mut self, poly: Poly) {
        let mut acc = [0u64; 4];
        for i in 0..256 {
            if poly[i / 64] >> (i % 64) & 1 == 1 {
                for (a, s) in acc.iter_mut().zip(self.s) {
                    *a ^= s;
                }
            }
            self.next_u64();
        }
        self.s = acc;
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        // 24 high-quality mantissa bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Lemire's multiply-shift rejection method: unbiased.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let l = m as u64;
            if l >= n {
                return (m >> 64) as usize;
            }
            // Slow path for small remainders: classic rejection.
            let t = n.wrapping_neg() % n;
            if l >= t {
                return (m >> 64) as usize;
            }
        }
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        // Avoid ln(0).
        let u1 = (1.0 - self.uniform()).max(f32::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` items without replacement from `0..n` (a shuffled prefix
    /// when `k` is a large fraction of `n`, otherwise Floyd's algorithm)
    /// into a reused buffer: `out` is cleared and receives the `k` picks.
    /// Returned order is unspecified but deterministic.
    pub fn sample_without_replacement_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} from {n} without replacement");
        out.clear();
        if k * 3 >= n {
            out.extend(0..n);
            self.shuffle(out);
            out.truncate(k);
        } else {
            // Floyd's algorithm. `k` is a sampling fanout, so scanning the
            // picks made so far beats hashing them.
            for j in n - k..n {
                let t = self.below(j + 1);
                out.push(if out.contains(&t) { j } else { t });
            }
        }
    }

    /// Derive an independent child generator (for per-thread sampling).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Raw generator state, for checkpointing. Restoring via
    /// [`Rng::from_state`] continues the exact same output stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from [`Rng::state`]. The all-zero state is
    /// a fixed point of xoshiro256++ and is rejected.
    pub fn from_state(s: [u64; 4]) -> Rng {
        assert!(s.iter().any(|&w| w != 0), "all-zero xoshiro state");
        Rng { s }
    }

    /// A matrix with i.i.d. `N(0, std^2)` entries.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal() * std)
    }

    /// Glorot/Xavier-uniform initialized matrix for a layer `fan_in -> fan_out`.
    pub fn glorot_matrix(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Matrix::from_fn(fan_in, fan_out, |_, _| self.uniform_range(-limit, limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_unit_interval_with_plausible_mean() {
        let mut r = Rng::new(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f32;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers_all_values() {
        let mut r = Rng::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut r = Rng::new(3);
        let n = 50_000;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = r.normal() as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sample_without_replacement_unique_and_in_range() {
        let mut r = Rng::new(11);
        for &(n, k) in &[(10usize, 10usize), (100, 5), (50, 40), (1, 1), (5, 0)] {
            let mut s = vec![7; 3];
            r.sample_without_replacement_into(n, k, &mut s);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn glorot_within_limit() {
        let mut r = Rng::new(13);
        let m = r.glorot_matrix(64, 32);
        let limit = (6.0 / 96.0f32).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = Rng::new(17);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn advance_equals_stepping_for_every_small_count() {
        let start = Rng::new(23);
        let mut stepped = start.clone();
        for k in 0..=1000u64 {
            let mut jumped = start.clone();
            jumped.advance(k);
            assert_eq!(jumped.state(), stepped.state(), "k = {k}");
            stepped.next_u64();
        }
    }

    #[test]
    fn advance_equals_stepping_for_seeded_large_counts() {
        let mut pick = Rng::new(29);
        for case in 0..6 {
            let k = pick.below(1 << 22) as u64;
            let mut stepped = Rng::new(case);
            let mut jumped = stepped.clone();
            for _ in 0..k {
                stepped.next_u64();
            }
            jumped.advance(k);
            assert_eq!(jumped.state(), stepped.state(), "case {case}, k = {k}");
            assert_eq!(jumped.next_u64(), stepped.next_u64());
        }
    }

    #[test]
    fn advances_compose() {
        let mut once = Rng::new(31);
        let mut twice = once.clone();
        once.advance(3_000_000_123);
        twice.advance(1_000_000_000);
        twice.advance(2_000_000_123);
        assert_eq!(once.state(), twice.state());
    }

    /// `x^(2^e) mod P`, by `e` squarings of `x`.
    fn x_pow_pow2(e: u32) -> Poly {
        (0..e).fold([2, 0, 0, 0], |r, _| mul_mod(r, r))
    }

    #[test]
    fn the_polynomial_reproduces_the_reference_jump_constants() {
        // `JUMP` (2^128 draws) and `LONG_JUMP` (2^192) of the xoshiro256
        // reference implementation.
        let jump = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let long_jump = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        assert_eq!(x_pow_pow2(128), jump);
        assert_eq!(x_pow_pow2(192), long_jump);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng::new(21);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }
}
