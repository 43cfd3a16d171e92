//! A tiny deterministic pseudo-random number generator.
//!
//! The workspace builds with no external dependencies, so the seeded
//! scheduler exploration (the `golite-sim` crate), the corpus generator, and the
//! hand-rolled property tests all draw randomness from this SplitMix64
//! generator. It is *not* cryptographic; it only needs to be fast, seedable,
//! and stable across platforms so every run is reproducible.
//!
//! The API mirrors the small subset of `rand` the codebase used:
//!
//! ```
//! use prng::Prng;
//! let mut rng = Prng::seed_from_u64(42);
//! let i = rng.gen_range(0..10usize);
//! assert!(i < 10);
//! let coin = rng.gen_bool(0.5);
//! let _ = coin;
//! assert_eq!(Prng::seed_from_u64(42).next_u64(), Prng::seed_from_u64(42).next_u64());
//! ```

/// A SplitMix64 generator. Copy it freely; clones continue the sequence
/// independently from the point of the clone.
#[derive(Debug, Clone)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a 64-bit seed (name kept from `rand`'s
    /// `SeedableRng` for familiarity).
    pub fn seed_from_u64(seed: u64) -> Prng {
        Prng { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform value in the given (half-open or inclusive) range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.gen_range(0..items.len())]
    }
}

/// Ranges [`Prng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Prng) -> Self::Output;
}

macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_unsigned_range!(u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
    )*};
}

impl_signed_range!(i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Prng::seed_from_u64(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Prng::seed_from_u64(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let c = Prng::seed_from_u64(8).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_range(3..9usize);
            assert!((3..9).contains(&v));
            let w = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let x = r.gen_range(0..1u64);
            assert_eq!(x, 0);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Prng::seed_from_u64(2);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn rough_uniformity() {
        let mut r = Prng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[r.gen_range(0..4usize)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c} out of range");
        }
    }
}
