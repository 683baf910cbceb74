//! Boundary regressions for the Knuth Algorithm D divider in `div.rs` — the
//! normalization-shift edge cases, high-bit-set divisors, and near-`u64::MAX`
//! remainders that the Barrett/Möller–Granlund contexts in `reduce.rs` must
//! agree with bit for bit. Every case checks the reconstruction identity
//! `q·v + r == u`, the range invariant `r < v`, and cross-checks the
//! precomputed-divisor paths against the general divider.

use xp_bignum::reduce::{Reducer, Reducer64};
use xp_bignum::UBig;
use xp_testkit::propcheck::{u64s, vec_of};
use xp_testkit::{prop_assert_eq, prop_assume, propcheck};

/// Full agreement check for one `(u, v)` pair: Knuth divrem invariants plus
/// the Barrett context, and the word reducer when `v` is a single limb.
fn check_division(u: &UBig, v: &UBig) {
    let (q, r) = u.divrem(v);
    assert_eq!(&(&q * v) + &r, *u, "reconstruction failed for {u} / {v}");
    assert!(r < *v, "remainder out of range for {u} / {v}");
    let red = Reducer::new(v.clone());
    assert_eq!(red.rem(u), r, "Barrett disagrees for {u} mod {v}");
    assert_eq!(red.is_multiple_of(u), r.is_zero());
    if let Some(d) = v.to_u64() {
        let red64 = Reducer64::new(d);
        let (q64, r64) = red64.divrem(u);
        assert_eq!((q64, UBig::from(r64)), (q, r), "Reducer64 disagrees for {u} / {d}");
    }
}

#[test]
fn divisor_high_bit_set_means_no_normalization_shift() {
    // Top limb ≥ 2⁶³ → s = 0, the branch that skips the shift entirely.
    let v = UBig::from_limbs(vec![0x0123_4567_89ab_cdef, 0x8000_0000_0000_0000]);
    let u = UBig::from_limbs(vec![u64::MAX, u64::MAX, u64::MAX, 0x7fff_ffff_ffff_ffff]);
    check_division(&u, &v);
    // All-ones divisor: the largest normalized divisor there is.
    let v = UBig::from_limbs(vec![u64::MAX, u64::MAX]);
    check_division(&u, &v);
}

#[test]
fn divisor_top_limb_one_means_maximal_shift() {
    // Top limb 1 → s = 63, the maximal normalization shift; every limb of
    // both operands is split across two shifted limbs.
    let v = UBig::from_limbs(vec![u64::MAX, 1]);
    let u = UBig::from_limbs(vec![0, u64::MAX, u64::MAX, 1]);
    check_division(&u, &v);
    let v = UBig::from_limbs(vec![0, 0, 1]);
    check_division(&u, &v);
}

#[test]
fn remainder_one_step_from_the_divisor() {
    // Construct u = q·v + r with r = v − 1: the remainder's top limb sits
    // one below the divisor's, the boundary the correction loop guards.
    let v = UBig::from_limbs(vec![3, u64::MAX, 0x8000_0000_0000_0001]);
    let q = UBig::from_limbs(vec![u64::MAX, u64::MAX, 7]);
    let r = &v - &UBig::one();
    let u = &(&q * &v) + &r;
    let (qq, rr) = u.divrem(&v);
    assert_eq!((qq, rr), (q, r));
    check_division(&u, &v);
}

#[test]
fn remainder_limbs_near_u64_max() {
    // Remainders whose limbs are u64::MAX or one below — the values a carry
    // bug in the mul-subtract step turns into off-by-one quotients.
    let v = UBig::from_limbs(vec![0, 0, 1]); // B²
    for top in [u64::MAX, u64::MAX - 1] {
        let r = UBig::from_limbs(vec![u64::MAX, top]);
        let q = UBig::from_limbs(vec![0xdead_beef_cafe_babe, 1]);
        let u = &(&q * &v) + &r;
        assert_eq!(u.divrem(&v), (q.clone(), r.clone()));
        check_division(&u, &v);
    }
}

#[test]
fn qhat_estimate_correction_and_add_back() {
    // The classic Algorithm D stress shape: divisor top limb 0x8000…,
    // dividend window just under it, forcing qhat = B − 1 then corrections.
    let v = UBig::from_limbs(vec![1, 0x8000_0000_0000_0000]);
    let u = UBig::from_limbs(vec![0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff]);
    check_division(&u, &v);
    // Equal-length operands with u just above/below v.
    let v = UBig::from_limbs(vec![5, u64::MAX, 0x8000_0000_0000_0000]);
    check_division(&(&v + &UBig::one()), &v);
    check_division(&(&v - &UBig::one()), &v);
    check_division(&v, &v);
}

#[test]
fn single_limb_divisor_boundaries() {
    let u = UBig::from_limbs(vec![u64::MAX, u64::MAX, u64::MAX - 1, u64::MAX]);
    for d in [1u64, 2, 3, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX] {
        check_division(&u, &UBig::from(d));
        // Exact multiple: remainder must be exactly zero, not d.
        let exact = u.divrem_u64(d).0.mul_u64(d);
        check_division(&exact, &UBig::from(d));
    }
}

propcheck! {
    #![config(cases = 512)]

    #[test]
    fn crafted_reconstruction_round_trips(
        v_limbs in vec_of(u64s(0..=u64::MAX), 1..6),
        q_limbs in vec_of(u64s(0..=u64::MAX), 0..8),
        r_seed in u64s(0..=u64::MAX),
        high_bit in xp_testkit::propcheck::bools(),
    ) {
        // Build the answer first, then the dividend: u = q·v + r with a
        // remainder derived from r_seed reduced into range. Optionally pin
        // the divisor's high bit to hit the s = 0 path half the time.
        let mut v_limbs = v_limbs;
        if high_bit {
            let last = v_limbs.len() - 1;
            v_limbs[last] |= 1 << 63;
        }
        let v = UBig::from_limbs(v_limbs);
        prop_assume!(!v.is_zero());
        let q = UBig::from_limbs(q_limbs);
        let r = &UBig::from(r_seed) % &v;
        let u = &(&q * &v) + &r;
        let (qq, rr) = u.divrem(&v);
        prop_assert_eq!(&qq, &q);
        prop_assert_eq!(&rr, &r);
        // Barrett and (for word divisors) Möller–Granlund agree.
        let red = Reducer::new(v.clone());
        prop_assert_eq!(red.rem(&u), r);
        if let Some(d) = v.to_u64() {
            prop_assert_eq!(Reducer64::new(d).rem(&u), rr.to_u64().unwrap_or(0));
        }
    }

    #[test]
    fn remainders_one_limb_from_max_survive(
        v_top in u64s(1..=u64::MAX),
        fill in u64s(0..=u64::MAX),
        len in xp_testkit::propcheck::usizes(2..5),
    ) {
        // Divisor with arbitrary top limb (arbitrary shift s), remainder
        // v − 1 (its limbs frequently all-ones after the borrow ripples).
        let mut v_limbs = vec![u64::MAX; len];
        v_limbs[0] = fill | 1;
        v_limbs[len - 1] = v_top;
        let v = UBig::from_limbs(v_limbs);
        prop_assume!(v.limbs().len() >= 2);
        let r = &v - &UBig::one();
        let q = UBig::from_limbs(vec![fill, v_top, 1]);
        let u = &(&q * &v) + &r;
        let (qq, rr) = u.divrem(&v);
        prop_assert_eq!(qq, q);
        prop_assert_eq!(&rr, &r);
        prop_assert_eq!(Reducer::new(v).rem(&u), r);
    }
}
