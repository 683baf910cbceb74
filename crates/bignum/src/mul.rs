//! Multiplication: schoolbook kernel with Karatsuba and Toom-3 layers above
//! tuned limb thresholds. Bottom-up prime labels of large documents are
//! products of thousands of primes, so the subquadratic path genuinely
//! matters; see [`crate::kernels`] for the forced-kernel entry points used by
//! the tuning bench and the kernel-oracle differential tests.

use crate::UBig;
use std::ops::{Mul, MulAssign};

/// Below this many limbs per operand, schoolbook beats Karatsuba's overhead.
/// Tuned with `bench_bignum_kernels` (see DESIGN.md §10): schoolbook's tight
/// carry loop wins below ~48 limbs, the two kernels sit within noise of each
/// other across the 48–96 limb band, and Karatsuba wins cleanly from 96
/// limbs (6144 bits) up.
pub(crate) const KARATSUBA_THRESHOLD: usize = 64;

/// Below this many limbs per operand, Karatsuba beats Toom-3's extra
/// evaluation/interpolation passes. Tuned with `bench_bignum_kernels` (see
/// DESIGN.md §10): Toom-3 loses below ~160 limbs, reaches parity in the
/// 192–224 band, and wins by ~10% from 256 limbs (2¹⁴ bits) up.
pub(crate) const TOOM3_THRESHOLD: usize = 224;

impl UBig {
    /// Multiplies by a single machine word in place.
    pub fn mul_u64_assign(&mut self, m: u64) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u128;
        for limb in &mut self.limbs {
            let prod = (*limb as u128) * (m as u128) + carry;
            *limb = prod as u64;
            carry = prod >> 64;
        }
        if carry != 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// Returns `self * m` for a machine word.
    pub fn mul_u64(&self, m: u64) -> UBig {
        let mut out = self.clone();
        out.mul_u64_assign(m);
        out
    }

    /// `self * self`.
    pub fn square(&self) -> UBig {
        self * self
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, exp: u32) -> UBig {
        if exp == 0 {
            return UBig::one();
        }
        let mut base = self.clone();
        let mut acc = UBig::one();
        let mut e = exp;
        while e > 1 {
            if e & 1 == 1 {
                acc = &acc * &base;
            }
            base = base.square();
            e >>= 1;
        }
        &acc * &base
    }

    fn mul_ref(a: &[u64], b: &[u64]) -> UBig {
        if a.is_empty() || b.is_empty() {
            return UBig::zero();
        }
        let short = a.len().min(b.len());
        if short < KARATSUBA_THRESHOLD {
            Self::mul_schoolbook(a, b)
        } else if short < TOOM3_THRESHOLD {
            Self::mul_karatsuba(a, b, Self::mul_ref)
        } else {
            Self::mul_toom3(a, b)
        }
    }

    /// Karatsuba-capped dispatch: schoolbook below the Karatsuba threshold,
    /// Karatsuba above it, never promoting to Toom-3. This is the baseline
    /// the Toom-3 crossover is tuned against.
    pub(crate) fn mul_karatsuba_only(a: &[u64], b: &[u64]) -> UBig {
        if a.is_empty() || b.is_empty() {
            return UBig::zero();
        }
        if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
            Self::mul_schoolbook(a, b)
        } else {
            Self::mul_karatsuba(a, b, Self::mul_karatsuba_only)
        }
    }

    pub(crate) fn mul_schoolbook(a: &[u64], b: &[u64]) -> UBig {
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        UBig::from_limbs(out)
    }

    /// Karatsuba split at `m = max(len)/2`:
    /// `a*b = hi*hi·B²ᵐ + ((a0+a1)(b0+b1) − hi·hi − lo·lo)·Bᵐ + lo·lo`.
    ///
    /// Sub-products go through `recurse`, so the production dispatch
    /// ([`UBig::mul_ref`]) and the Karatsuba-capped baseline
    /// ([`UBig::mul_karatsuba_only`]) share one combine step.
    fn mul_karatsuba(a: &[u64], b: &[u64], recurse: fn(&[u64], &[u64]) -> UBig) -> UBig {
        let m = a.len().max(b.len()) / 2;
        let (a0, a1) = split_at_limb(a, m);
        let (b0, b1) = split_at_limb(b, m);

        let lo = recurse(a0, b0);
        let hi = recurse(a1, b1);

        let asum = UBig::from_limbs(a0.to_vec()) + UBig::from_limbs(a1.to_vec());
        let bsum = UBig::from_limbs(b0.to_vec()) + UBig::from_limbs(b1.to_vec());
        let mut mid = recurse(&asum.limbs, &bsum.limbs);
        mid.sub_assign_ref(&lo);
        mid.sub_assign_ref(&hi);

        let mut out = hi.shl_limbs(2 * m);
        out.add_assign_ref(&mid.shl_limbs(m));
        out.add_assign_ref(&lo);
        out
    }

    /// Toom-3 split at `m = ⌈max(len)/3⌉`: writes `a = a0 + a1·Bᵐ + a2·B²ᵐ`
    /// (likewise `b`), evaluates both operand polynomials at the points
    /// `{0, 1, −1, 2, ∞}`, multiplies the five evaluations pointwise (five
    /// multiplies of ~⅓ size instead of nine), and interpolates the degree-4
    /// product polynomial.
    ///
    /// Only the point `−1` can evaluate negative, so it travels as a
    /// `(magnitude, sign)` pair and interpolation stays in unsigned in-place
    /// arithmetic — every intermediate below is a non-negative combination
    /// of product coefficients. (An earlier version promoted the whole
    /// interpolation to signed big-integer operator chains; the resulting temporaries
    /// plus four full-width `shl_limbs` recomposition adds cost more than a
    /// third of the total at the 2¹⁴-bit crossover — see DESIGN.md §10.1.)
    pub(crate) fn mul_toom3(a: &[u64], b: &[u64]) -> UBig {
        if a.is_empty() || b.is_empty() {
            return UBig::zero();
        }
        let m = a.len().max(b.len()).div_ceil(3);
        let (a0, a1, a2) = split3(a, m);
        let (b0, b1, b2) = split3(b, m);

        let (va1, vam1, aneg, va2) = eval_points(&a0, &a1, &a2);
        let (vb1, vbm1, bneg, vb2) = eval_points(&b0, &b1, &b2);

        // Pointwise products; recursion goes back through the size dispatch.
        let v0 = &a0 * &b0;
        let v1 = &va1 * &vb1;
        let vm1 = &vam1 * &vbm1; // |v(−1)|; sign below
        let vm1_neg = aneg != bneg;
        let v2 = &va2 * &vb2;
        let vinf = &a2 * &b2;

        // Interpolate c0..c4 from
        //   v(1)  = c0 + c1 + c2 + c3 + c4
        //   v(−1) = c0 − c1 + c2 − c3 + c4
        //   v(2)  = c0 + 2c1 + 4c2 + 8c3 + 16c4
        // with c0 = v(0) and c4 = v(∞) known.
        //
        // t1 = (v(1) + v(−1))/2 = c0 + c2 + c4.
        let mut t1 = v1.clone();
        if vm1_neg {
            t1.sub_assign_ref(&vm1);
        } else {
            t1.add_assign_ref(&vm1);
        }
        t1.shr_bits_assign(1);
        // t2 = (v(1) − v(−1))/2 = c1 + c3.
        let mut t2 = v1;
        if vm1_neg {
            t2.add_assign_ref(&vm1);
        } else {
            t2.sub_assign_ref(&vm1);
        }
        t2.shr_bits_assign(1);
        // c2 = t1 − c0 − c4.
        let mut c2 = t1;
        c2.sub_assign_ref(&v0);
        c2.sub_assign_ref(&vinf);
        // t3 = (v(2) − c0 − 4·c2 − 16·c4)/2 = c1 + 4c3.
        let mut t3 = v2;
        t3.sub_assign_ref(&v0);
        let mut scaled = c2.clone();
        scaled.mul_u64_assign(4);
        t3.sub_assign_ref(&scaled);
        scaled = vinf.clone();
        scaled.mul_u64_assign(16);
        t3.sub_assign_ref(&scaled);
        t3.shr_bits_assign(1);
        // c3 = (t3 − t2)/3; c1 = t2 − c3.
        t3.sub_assign_ref(&t2);
        let c3 = exact_div3(&t3);
        let mut c1 = t2;
        c1.sub_assign_ref(&c3);

        // Recompose Σ cᵢ·Bⁱᵐ directly into one product-sized buffer. Every
        // partial sum is bounded by the final product, so no carry can run
        // off the end.
        let mut out = vec![0u64; a.len() + b.len()];
        add_at(&mut out, v0.limbs(), 0);
        add_at(&mut out, c1.limbs(), m);
        add_at(&mut out, c2.limbs(), 2 * m);
        add_at(&mut out, c3.limbs(), 3 * m);
        add_at(&mut out, vinf.limbs(), 4 * m);
        UBig::from_limbs(out)
    }

    /// Multiplies by `B^k` (shifts left by whole limbs).
    pub(crate) fn shl_limbs(&self, k: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let mut limbs = vec![0u64; k + self.limbs.len()];
        limbs[k..].copy_from_slice(&self.limbs);
        UBig { limbs }
    }
}

fn split_at_limb(x: &[u64], m: usize) -> (&[u64], &[u64]) {
    if x.len() <= m {
        (x, &[])
    } else {
        x.split_at(m)
    }
}

/// Splits `x` into three base-`Bᵐ` digits `(x0, x1, x2)`, low to high.
fn split3(x: &[u64], m: usize) -> (UBig, UBig, UBig) {
    let lo = &x[..x.len().min(m)];
    let mid = if x.len() > m { &x[m..x.len().min(2 * m)] } else { &[][..] };
    let hi = if x.len() > 2 * m { &x[2 * m..] } else { &[][..] };
    (
        UBig::from_limbs(lo.to_vec()),
        UBig::from_limbs(mid.to_vec()),
        UBig::from_limbs(hi.to_vec()),
    )
}

/// Evaluates `x0 + x1·t + x2·t²` at `t ∈ {1, −1, 2}`. The `−1` evaluation
/// `(x0 + x2) − x1` is the only one that can go negative; it is returned as
/// `(magnitude, is_negative)` so callers stay in unsigned arithmetic.
fn eval_points(x0: &UBig, x1: &UBig, x2: &UBig) -> (UBig, UBig, bool, UBig) {
    let mut p02 = x0.clone();
    p02.add_assign_ref(x2);
    let mut at1 = p02.clone();
    at1.add_assign_ref(x1);
    let neg = p02 < *x1;
    let atm1 = p02.abs_diff(x1);
    // x(2) = 4·x2 + 2·x1 + x0 = ((x2·2 + x1)·2) + x0.
    let mut at2 = x2.clone();
    at2.mul_u64_assign(2);
    at2.add_assign_ref(x1);
    at2.mul_u64_assign(2);
    at2.add_assign_ref(x0);
    (at1, atm1, neg, at2)
}

/// `x / 3` for a division known to be exact (Toom-3 interpolation).
fn exact_div3(x: &UBig) -> UBig {
    let (q, r) = x.divrem_u64(3);
    debug_assert_eq!(r, 0, "Toom-3 interpolation division must be exact");
    q
}

/// Adds `src` into `dst[at..]` with carry propagation. Callers guarantee the
/// running sum fits `dst` (true for Toom-3 recomposition, whose partial sums
/// are bounded by the final product), so a carry never walks off the end.
fn add_at(dst: &mut [u64], src: &[u64], at: usize) {
    let mut carry = 0u64;
    for (i, &s) in src.iter().enumerate() {
        let (v1, c1) = dst[at + i].overflowing_add(s);
        let (v2, c2) = v1.overflowing_add(carry);
        dst[at + i] = v2;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut k = at + src.len();
    while carry != 0 {
        let (v, c) = dst[k].overflowing_add(carry);
        dst[k] = v;
        carry = c as u64;
        k += 1;
    }
}

impl Mul<&UBig> for &UBig {
    type Output = UBig;
    fn mul(self, rhs: &UBig) -> UBig {
        UBig::mul_ref(&self.limbs, &rhs.limbs)
    }
}

impl Mul<UBig> for UBig {
    type Output = UBig;
    fn mul(self, rhs: UBig) -> UBig {
        &self * &rhs
    }
}

impl Mul<&UBig> for UBig {
    type Output = UBig;
    fn mul(self, rhs: &UBig) -> UBig {
        &self * rhs
    }
}

impl Mul<UBig> for &UBig {
    type Output = UBig;
    fn mul(self, rhs: UBig) -> UBig {
        self * &rhs
    }
}

impl Mul<u64> for &UBig {
    type Output = UBig;
    fn mul(self, rhs: u64) -> UBig {
        self.mul_u64(rhs)
    }
}

impl Mul<u64> for UBig {
    type Output = UBig;
    fn mul(mut self, rhs: u64) -> UBig {
        self.mul_u64_assign(rhs);
        self
    }
}

impl MulAssign<&UBig> for UBig {
    fn mul_assign(&mut self, rhs: &UBig) {
        *self = UBig::mul_ref(&self.limbs, &rhs.limbs);
    }
}

impl MulAssign<UBig> for UBig {
    fn mul_assign(&mut self, rhs: UBig) {
        *self = UBig::mul_ref(&self.limbs, &rhs.limbs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_by_zero_and_one() {
        let a = UBig::from(123456789u64);
        assert!((&a * &UBig::zero()).is_zero());
        assert_eq!(&a * &UBig::one(), a);
        assert_eq!(a.mul_u64(0), UBig::zero());
    }

    #[test]
    fn mul_u128_exact() {
        let a = UBig::from(0xdead_beef_u64);
        let b = UBig::from(0xcafe_babe_u64);
        let want = 0xdead_beef_u128 * 0xcafe_babe_u128;
        assert_eq!((&a * &b).to_u128(), Some(want));
    }

    #[test]
    fn mul_crosses_limb_boundary() {
        let a = UBig::from(u64::MAX);
        assert_eq!((&a * &a).to_u128(), Some((u64::MAX as u128) * (u64::MAX as u128)));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Two 80-limb numbers force the Karatsuba path.
        let a_limbs: Vec<u64> = (0..80).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)).collect();
        let b_limbs: Vec<u64> = (0..80).map(|i| 0xc2b2_ae3d_27d4_eb4fu64.wrapping_mul(i + 3)).collect();
        let a = UBig::from_limbs(a_limbs.clone());
        let b = UBig::from_limbs(b_limbs.clone());
        let fast = &a * &b;
        let slow = UBig::mul_schoolbook(&a_limbs, &b_limbs);
        assert_eq!(fast, slow);
    }

    fn pseudo_limbs(n: usize, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + salt).rotate_left((i % 63) as u32))
            .collect()
    }

    #[test]
    fn toom3_matches_schoolbook_at_large_sizes() {
        // Two 300-limb numbers force the Toom-3 path at the top level.
        let a_limbs = pseudo_limbs(300, 1);
        let b_limbs = pseudo_limbs(300, 7);
        let fast = UBig::from_limbs(a_limbs.clone()) * UBig::from_limbs(b_limbs.clone());
        let slow = UBig::mul_schoolbook(&a_limbs, &b_limbs);
        assert_eq!(fast, slow);
    }

    #[test]
    fn toom3_handles_odd_and_imbalanced_splits() {
        for (na, nb) in [(1usize, 1usize), (2, 5), (7, 3), (31, 97), (100, 301), (299, 300)] {
            let a_limbs = pseudo_limbs(na, 11);
            let b_limbs = pseudo_limbs(nb, 13);
            assert_eq!(
                UBig::mul_toom3(&a_limbs, &b_limbs),
                UBig::mul_schoolbook(&a_limbs, &b_limbs),
                "toom3 mismatch at {na}x{nb} limbs"
            );
        }
    }

    #[test]
    fn toom3_survives_all_ones_carries() {
        // All-ones operands maximize carry propagation through the
        // evaluation sums and the recomposition adds.
        let a_limbs = vec![u64::MAX; 200];
        let b_limbs = vec![u64::MAX; 197];
        assert_eq!(
            UBig::mul_toom3(&a_limbs, &b_limbs),
            UBig::mul_schoolbook(&a_limbs, &b_limbs)
        );
    }

    #[test]
    fn forced_kernels_agree_near_the_crossovers() {
        for n in [
            KARATSUBA_THRESHOLD - 1,
            KARATSUBA_THRESHOLD,
            KARATSUBA_THRESHOLD + 1,
            TOOM3_THRESHOLD - 1,
            TOOM3_THRESHOLD,
            TOOM3_THRESHOLD + 1,
        ] {
            let a_limbs = pseudo_limbs(n, 3);
            let b_limbs = pseudo_limbs(n, 5);
            let want = UBig::mul_schoolbook(&a_limbs, &b_limbs);
            assert_eq!(UBig::mul_karatsuba_only(&a_limbs, &b_limbs), want, "karatsuba at {n}");
            assert_eq!(UBig::mul_toom3(&a_limbs, &b_limbs), want, "toom3 at {n}");
            assert_eq!(UBig::mul_ref(&a_limbs, &b_limbs), want, "auto at {n}");
        }
    }

    #[test]
    fn toom3_zero_operands() {
        assert!(UBig::mul_toom3(&[], &[1, 2, 3]).is_zero());
        assert!(UBig::mul_toom3(&[5], &[]).is_zero());
    }

    #[test]
    fn pow_small_cases() {
        let three = UBig::from(3u64);
        assert_eq!(three.pow(0), UBig::one());
        assert_eq!(three.pow(1), three);
        assert_eq!(three.pow(5), UBig::from(243u64));
        assert_eq!(UBig::from(2u64).pow(100).to_string(), "1267650600228229401496703205376");
    }

    #[test]
    fn square_matches_mul() {
        let a = UBig::from(0x1234_5678_9abc_def0u64);
        assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn shl_limbs_shifts_by_word() {
        let a = UBig::from(5u64);
        assert_eq!(a.shl_limbs(2).limbs(), &[0, 0, 5]);
        assert!(UBig::zero().shl_limbs(3).is_zero());
    }

    #[test]
    fn product_of_first_primes() {
        // 2·3·5·7·11·13·17·19·23·29 = 6469693230 (primorial #10)
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29];
        let mut acc = UBig::one();
        for p in primes {
            acc.mul_u64_assign(p);
        }
        assert_eq!(acc.to_u64(), Some(6_469_693_230));
    }
}
