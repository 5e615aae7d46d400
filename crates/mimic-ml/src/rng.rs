//! Seeded randomness for initialization, shuffling, and BO candidates.
//!
//! A private SplitMix64 keeps `mimic-ml` standalone (no dependency on the
//! simulator crate) while giving the same bit-reproducibility guarantees.

/// SplitMix64 PRNG.
#[derive(Clone, Debug)]
pub struct MlRng {
    state: u64,
}

impl MlRng {
    pub fn new(seed: u64) -> MlRng {
        MlRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[-a, a)`.
    pub fn uniform_sym(&mut self, a: f64) -> f64 {
        (self.next_f64() * 2.0 - 1.0) * a
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = MlRng::new(1);
        let mut b = MlRng::new(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = MlRng::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn uniform_sym_bounds() {
        let mut rng = MlRng::new(9);
        for _ in 0..1000 {
            let x = rng.uniform_sym(0.5);
            assert!((-0.5..0.5).contains(&x));
        }
    }
}
