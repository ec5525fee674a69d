//! `proptest::collection::vec` — vectors of strategy-generated elements
//! with exact or ranged lengths.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Sizes accepted by [`vec()`]: an exact length or a half-open/inclusive range.
pub trait SizeRange {
    /// Inclusive `(lo, hi)` length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl SizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl SizeRange for core::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty vec size range");
        (self.start, self.end - 1)
    }
}

impl SizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty vec size range");
        (*self.start(), *self.end())
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub struct VecStrategy<S> {
    element: S,
    lo: usize,
    hi: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.lo + rng.below(self.hi - self.lo + 1);
        (0..len).map(|_| self.element.gen_value(rng)).collect()
    }
}

/// Generate vectors whose elements come from `element` and whose length
/// falls within `size`.
pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
    let (lo, hi) = size.bounds();
    VecStrategy { element, lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn lengths_respect_bounds() {
        let mut rng = TestRng::from_seed(21);
        let ranged = vec(any::<u8>(), 1..5);
        let exact = vec(0u32..4, 6usize);
        for _ in 0..200 {
            let a = ranged.gen_value(&mut rng);
            assert!((1..5).contains(&a.len()));
            let b = exact.gen_value(&mut rng);
            assert_eq!(b.len(), 6);
            assert!(b.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn nested_vecs_work() {
        let mut rng = TestRng::from_seed(22);
        let s = vec(vec(any::<u8>(), 1..16), 1..24);
        let v = s.gen_value(&mut rng);
        assert!(!v.is_empty());
        assert!(v.iter().all(|inner| (1..16).contains(&inner.len())));
    }
}
