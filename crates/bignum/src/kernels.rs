//! Forced multiply-kernel entry points and the crossover thresholds.
//!
//! Production multiplication (`&a * &b`) dispatches on the *shorter*
//! operand's limb count: schoolbook below [`KARATSUBA_THRESHOLD`], Karatsuba
//! below [`TOOM3_THRESHOLD`], Toom-3 above. These wrappers force a single
//! kernel regardless of operand size so the tuning bench
//! (`bench_bignum_kernels`) can measure each kernel across the whole size
//! range and the kernel-oracle differential tests
//! (`crates/bignum/tests/kernel_differential.rs`) can pin every kernel at and
//! around both crossovers. See DESIGN.md §10.

use crate::UBig;

/// Limb count (of the shorter operand) below which schoolbook wins.
pub const KARATSUBA_THRESHOLD: usize = crate::mul::KARATSUBA_THRESHOLD;

/// Limb count (of the shorter operand) below which Karatsuba wins over
/// Toom-3; tuned with `bench_bignum_kernels` (see DESIGN.md §10).
pub const TOOM3_THRESHOLD: usize = crate::mul::TOOM3_THRESHOLD;

/// The production dispatch: schoolbook → Karatsuba → Toom-3 by size.
/// Identical to `&a * &b`; provided so bench/test call sites name the
/// dispatch explicitly.
pub fn mul_auto(a: &UBig, b: &UBig) -> UBig {
    a * b
}

/// Schoolbook (quadratic) multiplication at any size.
pub fn mul_schoolbook(a: &UBig, b: &UBig) -> UBig {
    UBig::mul_schoolbook(a.limbs(), b.limbs())
}

/// Karatsuba with schoolbook base case, never promoting to Toom-3 — the
/// baseline the Toom-3 crossover is tuned against.
pub fn mul_karatsuba(a: &UBig, b: &UBig) -> UBig {
    UBig::mul_karatsuba_only(a.limbs(), b.limbs())
}

/// Toom-3 at the top level regardless of size (sub-products still recurse
/// through the production dispatch).
pub fn mul_toom3(a: &UBig, b: &UBig) -> UBig {
    UBig::mul_toom3(a.limbs(), b.limbs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_ordered() {
        const { assert!(0 < KARATSUBA_THRESHOLD) };
        const { assert!(KARATSUBA_THRESHOLD < TOOM3_THRESHOLD) };
    }

    #[test]
    fn forced_kernels_agree_on_a_mixed_size() {
        let a = UBig::from_limbs((0..150u64).map(|i| i.wrapping_mul(0x1234_5678_9abc_def1)).collect());
        let b = UBig::from_limbs((0..40u64).map(|i| !i.wrapping_mul(0x0fed_cba9_8765_4321)).collect());
        let want = mul_schoolbook(&a, &b);
        assert_eq!(mul_auto(&a, &b), want);
        assert_eq!(mul_karatsuba(&a, &b), want);
        assert_eq!(mul_toom3(&a, &b), want);
    }
}
