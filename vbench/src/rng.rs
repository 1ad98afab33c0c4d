//! The seeded generator behind every benchmark input: SplitMix64, so the
//! same `--seed` always yields the same streams, request mix and ranges.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a `salt` naming its purpose, so two
    /// generators drawn from one seed never share a sequence.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed, salt))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no valid result");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Derive an independent 64-bit value from a seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    finalize(seed ^ finalize(salt.wrapping_add(0x5851_F42D_4C95_7F2D)))
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(43, 1);
        assert_ne!(a[0], other.next_u64());
        let mut salted = Rng::new(42, 2);
        assert_ne!(a[0], salted.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut r = Rng::new(7, 0);
        assert!((0..1000).all(|_| r.below(5) < 5));
        let mut items: Vec<u32> = (0..20).collect();
        r.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
