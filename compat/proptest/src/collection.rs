//! Collection strategies (`proptest::collection` subset).

use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Element-count specification for [`vec()`]: an exact length, an
/// exclusive range, or an inclusive range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Inclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// `Vec` strategy: each element drawn from `element`, length drawn
/// from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Output of [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn gen_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = if self.size.lo == self.size.hi {
            self.size.lo
        } else {
            rng.gen_range(self.size.lo..=self.size.hi)
        };
        (0..len).map(|_| self.element.gen_value(rng)).collect()
    }
}
