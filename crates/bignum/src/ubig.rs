//! The [`UBig`] type: representation, construction, comparison, and the
//! addition/subtraction kernels every other operation builds on.

use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An arbitrary-precision unsigned integer.
///
/// Representation: little-endian `u64` limbs with the invariant that the most
/// significant limb is non-zero (so zero is the empty limb vector). All public
/// constructors and operations preserve this normalization.
///
/// Arithmetic traits are implemented for both owned values and references, so
/// hot paths can avoid clones: `&a + &b`, `&a * &b`, `&a % &b` all work.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct UBig {
    pub(crate) limbs: Vec<u64>,
}

impl UBig {
    /// The value 0.
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// Builds a `UBig` from little-endian limbs, stripping high zero limbs.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        UBig { limbs }
    }

    /// Read-only view of the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` iff the lowest bit is set. Zero is even.
    ///
    /// Property 3 of the paper ("OptimizedMod") tests `odd(label(x))` to
    /// distinguish internal-node labels from power-of-two leaf labels.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// `true` iff the value is even (including zero).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (used only for reporting ratios in benches).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Compares magnitudes; the basis of the `Ord` impl.
    pub(crate) fn cmp_magnitude(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// In-place addition kernel: `self += other`.
    pub(crate) fn add_assign_ref(&mut self, other: &UBig) {
        if other.limbs.len() > self.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, dst) in self.limbs.iter_mut().enumerate() {
            let rhs = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = dst.overflowing_add(rhs);
            let (s2, c2) = s1.overflowing_add(carry);
            *dst = s2;
            carry = (c1 as u64) + (c2 as u64);
            if carry == 0 && i >= other.limbs.len() {
                return; // no carry left and nothing more to add
            }
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// In-place subtraction kernel: `self -= other`.
    ///
    /// # Panics
    /// Panics if `other > self` — `UBig` cannot go negative.
    pub(crate) fn sub_assign_ref(&mut self, other: &UBig) {
        assert!(
            Self::cmp_magnitude(&self.limbs, &other.limbs) != Ordering::Less,
            "UBig subtraction underflow"
        );
        let mut borrow = 0u64;
        for (i, dst) in self.limbs.iter_mut().enumerate() {
            let rhs = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = dst.overflowing_sub(rhs);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *dst = d2;
            borrow = (b1 as u64) + (b2 as u64);
            if borrow == 0 && i >= other.limbs.len() {
                break;
            }
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// Checked subtraction: `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &UBig) -> Option<UBig> {
        if Self::cmp_magnitude(&self.limbs, &other.limbs) == Ordering::Less {
            None
        } else {
            let mut out = self.clone();
            out.sub_assign_ref(other);
            Some(out)
        }
    }

    /// Absolute difference `|self - other|`, never underflows.
    pub fn abs_diff(&self, other: &UBig) -> UBig {
        if self >= other {
            let mut out = self.clone();
            out.sub_assign_ref(other);
            out
        } else {
            let mut out = other.clone();
            out.sub_assign_ref(self);
            out
        }
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        if v == 0 {
            UBig::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }
}

impl From<u32> for UBig {
    fn from(v: u32) -> Self {
        UBig::from(v as u64)
    }
}

impl From<usize> for UBig {
    fn from(v: usize) -> Self {
        UBig::from(v as u64)
    }
}

impl From<u128> for UBig {
    fn from(v: u128) -> Self {
        UBig::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        Self::cmp_magnitude(&self.limbs, &other.limbs)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $kernel:ident) => {
        impl $trait<&UBig> for &UBig {
            type Output = UBig;
            fn $method(self, rhs: &UBig) -> UBig {
                let mut out = self.clone();
                out.$kernel(rhs);
                out
            }
        }
        impl $trait<UBig> for UBig {
            type Output = UBig;
            fn $method(mut self, rhs: UBig) -> UBig {
                self.$kernel(&rhs);
                self
            }
        }
        impl $trait<&UBig> for UBig {
            type Output = UBig;
            fn $method(mut self, rhs: &UBig) -> UBig {
                self.$kernel(rhs);
                self
            }
        }
        impl $trait<UBig> for &UBig {
            type Output = UBig;
            fn $method(self, rhs: UBig) -> UBig {
                let mut out = self.clone();
                out.$kernel(&rhs);
                out
            }
        }
    };
}

forward_binop!(Add, add, add_assign_ref);
forward_binop!(Sub, sub, sub_assign_ref);

impl AddAssign<&UBig> for UBig {
    fn add_assign(&mut self, rhs: &UBig) {
        self.add_assign_ref(rhs);
    }
}

impl AddAssign<UBig> for UBig {
    fn add_assign(&mut self, rhs: UBig) {
        self.add_assign_ref(&rhs);
    }
}

impl SubAssign<&UBig> for UBig {
    fn sub_assign(&mut self, rhs: &UBig) {
        self.sub_assign_ref(rhs);
    }
}

impl SubAssign<UBig> for UBig {
    fn sub_assign(&mut self, rhs: UBig) {
        self.sub_assign_ref(&rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty_and_even() {
        let z = UBig::zero();
        assert!(z.is_zero());
        assert!(z.is_even());
        assert!(!z.is_odd());
        assert_eq!(z.to_u64(), Some(0));
    }

    #[test]
    fn from_u128_round_trips() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        assert_eq!(UBig::from(v).to_u128(), Some(v));
    }

    #[test]
    fn from_limbs_strips_trailing_zeros() {
        let v = UBig::from_limbs(vec![7, 0, 0]);
        assert_eq!(v.limbs(), &[7]);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = UBig::from(u64::MAX);
        let b = UBig::from(1u64);
        let s = &a + &b;
        assert_eq!(s.limbs(), &[0, 1]);
        assert_eq!(s.to_u128(), Some(u64::MAX as u128 + 1));
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = UBig::from(u64::MAX as u128 + 5);
        let b = UBig::from(7u64);
        assert_eq!((&a - &b).to_u128(), Some(u64::MAX as u128 - 2));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = UBig::from(1u64) - UBig::from(2u64);
    }

    #[test]
    fn checked_sub_and_abs_diff() {
        let a = UBig::from(10u64);
        let b = UBig::from(25u64);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(b.checked_sub(&a), Some(UBig::from(15u64)));
        assert_eq!(a.abs_diff(&b), UBig::from(15u64));
        assert_eq!(b.abs_diff(&a), UBig::from(15u64));
    }

    #[test]
    fn ordering_by_magnitude() {
        let small = UBig::from(u64::MAX);
        let big = UBig::from(u64::MAX as u128 + 1);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(small.cmp(&small.clone()), Ordering::Equal);
    }

    #[test]
    fn parity() {
        assert!(UBig::from(3u64).is_odd());
        assert!(UBig::from(1u64 << 40).is_even());
    }

    #[test]
    fn to_f64_two_limbs() {
        let v = UBig::from(1u128 << 64);
        let f = v.to_f64();
        assert!((f - 1.8446744073709552e19).abs() / f < 1e-12);
    }
}
