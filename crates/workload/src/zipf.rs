//! Zipfian key-popularity generators, following the YCSB implementation
//! (Gray et al.'s "Quickly generating billion-record synthetic databases"
//! rejection-free method).
//!
//! `theta` (the paper calls it skewness) defaults to 0.99 — YCSB's
//! default — and Figure 16(b) sweeps it up to 1.2 to model the
//! "unprecedented skew" of recent production traces.

use rand::Rng;

/// Zipfian generator over `0..n` where rank 0 is the most popular item.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
    /// `0.5^theta`, the width of rank 1's band in `next`.
    half_pow_theta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl ZipfianGenerator {
    /// Build a generator over `n` items with skew `theta` (0 < theta,
    /// theta != 1; YCSB default 0.99).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian domain must be non-empty");
        assert!(theta > 0.0 && (theta - 1.0).abs() > 1e-9, "theta must be > 0 and != 1");
        let zetan = zeta(n, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        let half_pow_theta = 0.5f64.powf(theta);
        ZipfianGenerator { n, theta, alpha, zetan, eta, zeta2theta, half_pow_theta }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw the next rank (0 = hottest).
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Theoretical probability of rank `r` (for tests).
    pub fn probability(&self, rank: u64) -> f64 {
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }

    /// `zeta(2, theta)` — exposed for diagnostics.
    pub fn zeta2theta(&self) -> f64 {
        self.zeta2theta
    }
}

/// Zipfian popularity with ranks scattered over the key space (YCSB's
/// `ScrambledZipfianGenerator`): hot keys are spread out instead of being
/// the numerically smallest ids, which is what defeats page-granularity
/// hotness tracking in the paper's motivation.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: ZipfianGenerator,
}

/// FNV-1a 64-bit hash, as used by YCSB for scrambling.
#[inline]
pub fn fnv1a64(mut x: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..8 {
        hash ^= x & 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        x >>= 8;
    }
    hash
}

impl ScrambledZipfian {
    /// Build over `0..n` with skew `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        ScrambledZipfian { inner: ZipfianGenerator::new(n, theta) }
    }

    /// Draw the next key id in `0..n`.
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        fnv1a64(self.inner.next(rng)) % self.inner.n()
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.inner.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranks_stay_in_domain() {
        let g = ZipfianGenerator::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(g.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn draws_match_the_reference_formula() {
        // YCSB's formula with 0.5^theta evaluated per draw: the stream
        // must stay bit-identical, since every seeded workload replays it.
        fn reference<R: Rng>(g: &ZipfianGenerator, rng: &mut R) -> u64 {
            let u: f64 = rng.gen();
            let uz = u * g.zetan;
            if uz < 1.0 {
                return 0;
            }
            if uz < 1.0 + 0.5f64.powf(g.theta) {
                return 1;
            }
            let rank = (g.n as f64 * (g.eta * u - g.eta + 1.0).powf(g.alpha)) as u64;
            rank.min(g.n - 1)
        }
        for (n, theta) in [(400_000u64, 0.99), (1_000, 0.5), (100_000, 1.2)] {
            let g = ZipfianGenerator::new(n, theta);
            let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
            for i in 0..10_000 {
                assert_eq!(g.next(&mut a), reference(&g, &mut b), "n {n} theta {theta} draw {i}");
            }
        }
    }

    #[test]
    fn rank_zero_is_hottest() {
        let g = ZipfianGenerator::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u64; 10];
        let draws = 200_000;
        for _ in 0..draws {
            let r = g.next(&mut rng);
            if r < 10 {
                counts[r as usize] += 1;
            }
        }
        for i in 1..10 {
            assert!(counts[0] >= counts[i], "rank 0 ({}) < rank {i} ({})", counts[0], counts[i]);
        }
        // Empirical frequency of rank 0 close to theory (within 15%).
        let expect = g.probability(0);
        let got = counts[0] as f64 / draws as f64;
        assert!((got - expect).abs() / expect < 0.15, "expect {expect}, got {got}");
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut share = |theta: f64| {
            let g = ZipfianGenerator::new(100_000, theta);
            let mut hot = 0u64;
            for _ in 0..50_000 {
                if g.next(&mut rng) < 100 {
                    hot += 1;
                }
            }
            hot
        };
        let low = share(0.8);
        let high = share(1.2);
        assert!(high > low, "theta=1.2 ({high}) should concentrate more than 0.8 ({low})");
    }

    #[test]
    fn scrambled_covers_domain_uniform_positions() {
        let g = ScrambledZipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let k = g.next(&mut rng);
            assert!(k < 1000);
            seen.insert(k);
        }
        // The hot set should not be the first few ids (scrambling works).
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(g.next(&mut rng)).or_insert(0u64) += 1;
        }
        let hottest = counts.iter().max_by_key(|(_, c)| **c).map(|(k, _)| *k).unwrap();
        assert_eq!(hottest, fnv1a64(0) % 1000);
    }

    #[test]
    fn fnv_matches_reference_implementation() {
        fn reference(x: u64) -> u64 {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in x.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash
        }
        for x in [0u64, 1, 2, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(fnv1a64(x), reference(x));
        }
        assert_ne!(fnv1a64(1), fnv1a64(2));
    }
}
