//! Seed derivation and a small deterministic generator, so that every
//! input and every ground-truth seed of a run follows from `--seed`.

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed for one named purpose (`"base/15b"`, `"fault"`, ...),
/// derived from the workload seed.
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    mix(seed ^ mix(h))
}

/// A deterministic stream of draws.
pub struct Rng(u64);

impl Rng {
    /// A stream for one named purpose of the workload seed.
    pub fn new(seed: u64, tag: &str) -> Self {
        Rng(derive(seed, tag))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable_and_tag_sensitive() {
        assert_eq!(derive(7, "a"), derive(7, "a"));
        assert_ne!(derive(7, "a"), derive(7, "b"));
        assert_ne!(derive(7, "a"), derive(8, "a"));
    }
}
