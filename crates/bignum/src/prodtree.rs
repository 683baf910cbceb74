//! Balanced product trees: the batch kernel for `Π fᵢ` over many machine
//! words.
//!
//! Sequentially folding `k` word-sized factors into an accumulator costs
//! `O(k)` multiplications *by the full-width accumulator* — `O(k²)` limb
//! operations once the product outgrows a word. A balanced tree multiplies
//! operands of equal size at every level, so the total is `O(M(B) log k)`
//! for a `B`-bit result, and the big multiplications near the root go
//! through the Karatsuba layer that a skewed accumulator never reaches.
//! `ScTable::build` and the SC table's record re-solves (relabel, removal)
//! batch their chunk products through here.

use crate::checked::{mul_u64_within, mul_within, BudgetError};
use crate::UBig;

/// Factors per leaf of the balanced tree, set from the measured Karatsuba
/// crossover: a u64 factor contributes at most one limb, so folding this
/// many words into one accumulator with the word carry loop stays entirely
/// below the crossover where tree-shaping starts to pay. The pairwise
/// combines above the leaves then meet the Karatsuba and Toom-3 layers at
/// operand widths the `bench_bignum_kernels` ladder measured as wins,
/// instead of spending an allocation per tree node on multiplies the
/// schoolbook kernel handles in a single pass.
const LEAF_FACTORS: usize = crate::mul::KARATSUBA_THRESHOLD;

/// Folds a sub-crossover chunk into one accumulator via the word loop.
fn leaf_product(factors: &[u64]) -> UBig {
    let mut acc = match factors.first() {
        Some(&f) => UBig::from(f),
        None => return UBig::one(),
    };
    for &f in &factors[1..] {
        acc.mul_u64_assign(f);
    }
    acc
}

/// Product of `factors` by balanced pairwise multiplication over
/// word-folded leaves of [`LEAF_FACTORS`] factors.
///
/// An empty slice yields 1 (the multiplicative identity), matching the
/// accumulator idiom it replaces.
pub fn product(factors: &[u64]) -> UBig {
    match factors.len() {
        0 => UBig::one(),
        1 => UBig::from(factors[0]),
        2 => UBig::from(factors[0] as u128 * factors[1] as u128),
        n if n <= LEAF_FACTORS => leaf_product(factors),
        n => {
            let (lo, hi) = factors.split_at(n / 2);
            product(lo) * product(hi)
        }
    }
}

/// Factor count below which [`product_par`] doesn't bother spawning: the
/// whole product fits in a few hundred limb operations, far below the cost
/// of a thread handoff.
const PAR_THRESHOLD: usize = 64;

/// [`product`] with the tree levels evaluated on the `xp_par` pool.
///
/// Leaf chunks multiply concurrently, then each pairwise combine level runs
/// as a parallel map over adjacent pairs. Exact integer multiplication is
/// associative, so the result is the same `UBig` — canonical representation,
/// byte-identical — as [`product`] at any thread count; under an ambient
/// budget of 1 thread this *is* [`product`].
pub fn product_par(factors: &[u64]) -> UBig {
    let threads = xp_par::threads();
    if threads <= 1 || factors.len() < PAR_THRESHOLD {
        return product(factors);
    }
    // Leaf level: near-equal chunks, a few per worker so stragglers even out.
    let chunk = factors.len().div_ceil(threads * 4).max(2);
    let mut level: Vec<UBig> = xp_par::par_chunks(factors, chunk, product);
    // Combine level by level; the top levels hold the Karatsuba-sized
    // multiplications, and each level's pairs are independent.
    while level.len() > 1 {
        level = xp_par::par_map_indexed(level.len().div_ceil(2), |i| {
            match level.get(2 * i + 1) {
                Some(b) => level[2 * i].clone() * b.clone(),
                None => level[2 * i].clone(),
            }
        });
    }
    level.pop().unwrap_or_else(UBig::one)
}

/// Budgeted [`product`]: refuses — before multiplying anything — if the
/// result could exceed `max_bits` bits, using the conservative bound
/// `Σ bit_len(fᵢ)` (an overshoot of at most `k-1` bits). Each internal
/// multiplication then runs through [`mul_within`], so the `bignum.mul`
/// fault point and the per-step ceiling apply exactly as they do on the
/// sequential path this replaces.
pub fn product_within(factors: &[u64], max_bits: u64) -> Result<UBig, BudgetError> {
    let bits: u64 = factors.iter().map(|&f| UBig::from(f).bit_len().max(1)).sum();
    if bits > max_bits {
        return Err(BudgetError::BitsExceeded { bits, max_bits });
    }
    product_within_unchecked(factors, max_bits)
}

fn product_within_unchecked(factors: &[u64], max_bits: u64) -> Result<UBig, BudgetError> {
    match factors.len() {
        0 => Ok(UBig::one()),
        1 => Ok(UBig::from(factors[0])),
        n if n <= LEAF_FACTORS => {
            // Same leaf fold as `product`, with every step under the
            // budget check and the `bignum.mul` fault point.
            let mut acc = UBig::from(factors[0]);
            for &f in &factors[1..] {
                acc = mul_u64_within(&acc, f, max_bits)?;
            }
            Ok(acc)
        }
        n => {
            let (lo, hi) = factors.split_at(n / 2);
            let lo = product_within_unchecked(lo, max_bits)?;
            let hi = product_within_unchecked(hi, max_bits)?;
            mul_within(&lo, &hi, max_bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential(factors: &[u64]) -> UBig {
        let mut acc = UBig::one();
        for &f in factors {
            acc *= UBig::from(f);
        }
        acc
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(product(&[]), UBig::one());
        assert_eq!(product(&[42]), UBig::from(42u64));
    }

    #[test]
    fn matches_sequential_fold() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        for k in 0..=primes.len() {
            assert_eq!(product(&primes[..k]), sequential(&primes[..k]), "k={k}");
        }
    }

    #[test]
    fn zero_factor_zeroes_the_product() {
        assert!(product(&[3, 0, 7]).is_zero());
    }

    #[test]
    fn large_batch_matches_sequential() {
        let factors: Vec<u64> = (0..500).map(|i| 0x9e37_79b9u64.wrapping_mul(i + 1) | 1).collect();
        assert_eq!(product(&factors), sequential(&factors));
    }

    #[test]
    fn leaf_boundary_matches_sequential() {
        let factors: Vec<u64> =
            (0..200).map(|i| 0x9e37_79b9u64.wrapping_mul(i + 1) | 1).collect();
        for k in
            [LEAF_FACTORS - 1, LEAF_FACTORS, LEAF_FACTORS + 1, 2 * LEAF_FACTORS, 2 * LEAF_FACTORS + 1]
        {
            let expect = sequential(&factors[..k]);
            assert_eq!(product(&factors[..k]), expect, "k={k}");
            assert_eq!(product_within(&factors[..k], u64::MAX).unwrap(), expect, "k={k}");
        }
    }

    #[test]
    fn parallel_product_is_byte_identical() {
        let factors: Vec<u64> = (0..700).map(|i| 0x9e37_79b9u64.wrapping_mul(i + 1) | 1).collect();
        let expected = product(&factors);
        for threads in [1, 2, 8] {
            for k in [0, 1, 2, 63, 64, 65, 700] {
                let got = xp_par::with_threads(threads, || product_par(&factors[..k]));
                assert_eq!(got, product(&factors[..k]), "threads={threads} k={k}");
            }
            assert_eq!(xp_par::with_threads(threads, || product_par(&factors)), expected);
        }
    }

    #[test]
    fn budgeted_matches_unbudgeted() {
        let primes = [101u64, 103, 107, 109, 113];
        assert_eq!(product_within(&primes, 64).unwrap(), product(&primes));
    }

    #[test]
    fn budget_refuses_upfront() {
        // Five 7-bit factors: the Σ-bits bound is 35.
        let primes = [101u64, 103, 107, 109, 113];
        let err = product_within(&primes, 30).unwrap_err();
        assert!(matches!(err, BudgetError::BitsExceeded { max_bits: 30, .. }), "{err:?}");
    }

    #[test]
    fn fault_point_propagates() {
        use xp_testkit::fault;
        fault::arm("bignum.mul:1");
        let err = product_within(&[3, 5, 7], 64).unwrap_err();
        fault::reset();
        assert_eq!(err, BudgetError::FaultInjected("bignum.mul"));
    }
}
