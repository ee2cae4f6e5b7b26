//! Deterministic pseudo-random number generation.
//!
//! Everything random in the workspace — weight init, synthetic graph
//! generation, neighbor sampling, the random selector in the SGC convergence
//! experiment — flows through this xoshiro256++ generator so that every
//! experiment is exactly reproducible from a single seed. (The `rand` crate
//! is only used by examples for convenience; library crates use this.)

use crate::Matrix;

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
    /// when `k` is a large fraction of `n`, otherwise Floyd's algorithm).
    /// Returned order is unspecified but deterministic.
    pub fn sample_without_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_without_replacement_into(n, k, &mut out);
        out
    }

    /// [`Rng::sample_without_replacement`] into a reused buffer: `out` is
    /// cleared and receives the `k` picks. The same draws in the same order
    /// as the allocating form, so the two are interchangeable mid-stream.
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
            let mut into = vec![7; 3];
            r.clone().sample_without_replacement_into(n, k, &mut into);
            let s = r.sample_without_replacement(n, k);
            assert_eq!(s, into, "the two forms draw alike");
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
    fn fork_produces_independent_streams() {
        let mut parent = Rng::new(21);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }
}
