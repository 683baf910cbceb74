//! Differential property tests: every `UBig` operation is checked
//! against `xp_testkit::RefUint` (a deliberately naive schoolbook big
//! integer, used only in tests) on random operands spanning one to many
//! limbs.

use xp_bignum::{modular, UBig};
use xp_testkit::propcheck::{u64s, u8s, vec_of, Gen};
use xp_testkit::refint::RefUint;
use xp_testkit::{prop_assert, prop_assert_eq, prop_assume, propcheck};

/// Random operand as raw big-endian bytes; empty means zero.
fn bytes() -> Gen<Vec<u8>> {
    vec_of(u8s(0..=255), 0..64)
}

/// Karatsuba-sized operands (several hundred limbs).
fn big_bytes() -> Gen<Vec<u8>> {
    vec_of(u8s(0..=255), 300..600)
}

fn to_ubig(bytes: &[u8]) -> UBig {
    let mut acc = UBig::zero();
    for &b in bytes {
        acc = (acc << 8) + UBig::from(b as u64);
    }
    acc
}

fn to_oracle(bytes: &[u8]) -> RefUint {
    RefUint::from_bytes_be(bytes)
}

fn same(ours: &UBig, oracle: &RefUint) -> bool {
    ours.to_decimal() == oracle.to_string()
}

propcheck! {
    #![config(cases = 256)]

    #[test]
    fn construction_agrees(a in bytes()) {
        prop_assert!(same(&to_ubig(&a), &to_oracle(&a)));
    }

    #[test]
    fn addition_agrees(a in bytes(), b in bytes()) {
        let ours = to_ubig(&a) + to_ubig(&b);
        let oracle = to_oracle(&a) + to_oracle(&b);
        prop_assert!(same(&ours, &oracle));
    }

    #[test]
    fn subtraction_agrees(a in bytes(), b in bytes()) {
        let (x, y) = (to_ubig(&a), to_ubig(&b));
        let (ox, oy) = (to_oracle(&a), to_oracle(&b));
        let (hi, lo, ohi, olo) = if x >= y { (x, y, ox, oy) } else { (y, x, oy, ox) };
        prop_assert!(same(&(hi - lo), &(ohi - olo)));
    }

    #[test]
    fn multiplication_agrees(a in bytes(), b in bytes()) {
        let ours = to_ubig(&a) * to_ubig(&b);
        let oracle = to_oracle(&a) * to_oracle(&b);
        prop_assert!(same(&ours, &oracle));
    }

    #[test]
    fn karatsuba_sized_multiplication_agrees(a in big_bytes(), b in big_bytes()) {
        let ours = to_ubig(&a) * to_ubig(&b);
        let oracle = to_oracle(&a) * to_oracle(&b);
        prop_assert!(same(&ours, &oracle));
    }

    #[test]
    fn division_agrees(a in bytes(), b in bytes()) {
        let v = to_ubig(&b);
        prop_assume!(!v.is_zero());
        let (q, r) = to_ubig(&a).divrem(&v);
        let (ov, ou) = (to_oracle(&b), to_oracle(&a));
        prop_assert!(same(&q, &(&ou / &ov)));
        prop_assert!(same(&r, &(&ou % &ov)));
    }

    #[test]
    fn division_reconstructs(a in bytes(), b in bytes()) {
        let u = to_ubig(&a);
        let v = to_ubig(&b);
        prop_assume!(!v.is_zero());
        let (q, r) = u.divrem(&v);
        prop_assert!(r < v);
        prop_assert_eq!(q * &v + r, u);
    }

    #[test]
    fn shifts_agree(a in bytes(), k in u64s(0..200)) {
        let ours_l = to_ubig(&a) << k;
        let oracle_l = to_oracle(&a) << k;
        prop_assert!(same(&ours_l, &oracle_l));
        let ours_r = to_ubig(&a) >> k;
        let oracle_r = to_oracle(&a) >> k;
        prop_assert!(same(&ours_r, &oracle_r));
    }

    #[test]
    fn bit_len_agrees(a in bytes()) {
        prop_assert_eq!(to_ubig(&a).bit_len(), to_oracle(&a).bits());
    }

    #[test]
    fn decimal_round_trip(a in bytes()) {
        let v = to_ubig(&a);
        let parsed: UBig = v.to_decimal().parse().unwrap();
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn gcd_agrees_with_identities(a in bytes(), b in bytes()) {
        let (x, y) = (to_ubig(&a), to_ubig(&b));
        let g = modular::gcd(&x, &y);
        if !g.is_zero() {
            prop_assert!(x.is_multiple_of(&g));
            prop_assert!(y.is_multiple_of(&g));
        } else {
            prop_assert!(x.is_zero() && y.is_zero());
        }
        // gcd * lcm == a * b
        let l = modular::lcm(&x, &y);
        prop_assert_eq!(&g * &l, &x * &y);
    }

    #[test]
    fn mod_pow_agrees(b in bytes(), e in u64s(0..500), m in u64s(1..u64::MAX)) {
        let base = to_ubig(&b);
        let modulus = UBig::from(m);
        let ours = modular::mod_pow(&base, &UBig::from(e), &modulus);
        let oracle = to_oracle(&b).modpow(&RefUint::from(e), &RefUint::from(m));
        prop_assert!(same(&ours, &oracle));
    }

    #[test]
    fn mod_inverse_is_inverse(a in u64s(1..u64::MAX), m in u64s(2..u64::MAX)) {
        match modular::mod_inverse_u64(a, m) {
            Some(inv) => {
                prop_assert!(inv < m);
                prop_assert!(a as u128 * inv as u128 % m as u128 == 1);
            }
            None => prop_assert!(!modular::gcd(&UBig::from(a), &UBig::from(m)).is_one()),
        }
    }
}
