//! The benchmark's own generator: `--seed` drives the data generators and
//! the query mix through this and nothing else.

/// xorshift64* seeded through splitmix64 (so small seeds diverge at once).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_F491_4F6C_DD1D } else { z })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Rank in `0..n` with probability proportional to `1 / (rank + 1)`:
    /// rank 0 is drawn most often (Zipf, exponent 1).
    pub fn zipf(&mut self, n: usize) -> usize {
        assert!(n > 0, "zipf(0)");
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut u = self.unit() * total;
        for k in 0..n {
            u -= 1.0 / (k + 1) as f64;
            if u < 0.0 {
                return k;
            }
        }
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[rng.zipf(4)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[2] && hits[2] > hits[3]);
    }
}
