//! Number-theoretic kernels: gcd, the word-sized modular inverse, and
//! modular exponentiation.
//!
//! These are the primitives behind §4 of the paper: the Chinese Remainder
//! Theorem solver that folds document order into a simultaneous-congruence
//! (SC) value needs the inverse of the running modulus product modulo each
//! new modulus (or, in the paper's Euler-totient formulation, modular powers
//! of the cofactors `C / mᵢ`).

use crate::UBig;

/// Greatest common divisor by the Euclidean algorithm.
///
/// `gcd(0, b) = b` and `gcd(a, 0) = a`.
pub fn gcd(a: &UBig, b: &UBig) -> UBig {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple; `lcm(0, x) = 0`.
pub fn lcm(a: &UBig, b: &UBig) -> UBig {
    if a.is_zero() || b.is_zero() {
        return UBig::zero();
    }
    let g = gcd(a, b);
    a / &g * b
}

/// `true` iff `gcd(a, b) == 1`.
///
/// Theorem 1 of the paper requires the CRT moduli (the nodes' self-labels) to
/// be pairwise relatively prime; [`crate::UBig`] self-labels are checked with
/// this predicate before an SC value is formed.
pub fn coprime(a: &UBig, b: &UBig) -> bool {
    gcd(a, b).is_one()
}

/// Machine-word modular inverse: the unique `x` in `[0, m)` with
/// `a*x ≡ 1 (mod m)`, or `None` when `gcd(a, m) != 1`.
///
/// Each step of the SC table's CRT fold inverts the running product's
/// residue modulo a word-sized self-label, with the extended Euclid in
/// `i128`.
pub fn mod_inverse_u64(a: u64, m: u64) -> Option<u64> {
    if m <= 1 {
        return None;
    }
    let (mut old_r, mut r) = ((a % m) as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        old_r -= q * r;
        std::mem::swap(&mut old_r, &mut r);
        old_s -= q * s;
        std::mem::swap(&mut old_s, &mut s);
    }
    if old_r != 1 {
        return None;
    }
    Some(old_s.rem_euclid(m as i128) as u64)
}

/// Modular exponentiation `base^exp mod m`.
///
/// Odd moduli (every CRT modulus in the paper's Euler-totient formulation —
/// self-labels are odd primes) go through Montgomery arithmetic
/// ([`crate::reduce::Montgomery`]), which replaces the per-step division of
/// square-and-multiply with REDC folds; even moduli fall back to
/// [`mod_pow_plain`]. Both paths return identical values — the differential
/// suite pins them against each other and the oracle.
///
/// # Panics
/// Panics if `m` is zero.
pub fn mod_pow(base: &UBig, exp: &UBig, m: &UBig) -> UBig {
    assert!(!m.is_zero(), "modulo by zero");
    match crate::reduce::Montgomery::new(m) {
        Some(ctx) => ctx.pow(base, exp),
        None => mod_pow_plain(base, exp, m),
    }
}

/// Modular exponentiation by square-and-multiply with a full reduction per
/// step — the division-based baseline `mod_pow` dispatches away from for odd
/// moduli. Kept public so the kernel bench and differential tests can
/// compare the two paths.
///
/// # Panics
/// Panics if `m` is zero.
pub fn mod_pow_plain(base: &UBig, exp: &UBig, m: &UBig) -> UBig {
    assert!(!m.is_zero(), "modulo by zero");
    if m.is_one() {
        return UBig::zero();
    }
    let mut result = UBig::one();
    let mut base = base % m;
    let bits = exp.bit_len();
    for i in 0..bits {
        if exp.bit(i) {
            result = &result * &base % m;
        }
        if i + 1 < bits {
            base = base.square() % m;
        }
    }
    result
}

/// Euler's totient φ(n) by trial-division factorization.
///
/// Used by the paper's alternative CRT formulation
/// `x = Σ (C/mᵢ)^φ(mᵢ) · nᵢ mod C` — exposed here so the ablation bench can
/// compare it against the extended-gcd solver. Intended for machine-word
/// sized inputs (self-labels are small primes); the cost is O(√n).
pub fn euler_phi_u64(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut n = n;
    let mut result = n;
    let mut p = 2u64;
    while p * p <= n {
        if n % p == 0 {
            while n % p == 0 {
                n /= p;
            }
            result -= result / p;
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        result -= result / n;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> UBig {
        UBig::from(v)
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(&u(12), &u(18)), u(6));
        assert_eq!(gcd(&u(17), &u(13)), u(1));
        assert_eq!(gcd(&u(0), &u(5)), u(5));
        assert_eq!(gcd(&u(5), &u(0)), u(5));
        assert_eq!(gcd(&u(0), &u(0)), u(0));
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(&u(4), &u(6)), u(12));
        assert_eq!(lcm(&u(7), &u(13)), u(91));
        assert_eq!(lcm(&u(0), &u(9)), u(0));
    }

    #[test]
    fn coprime_primes() {
        assert!(coprime(&u(35), &u(12)));
        assert!(!coprime(&u(35), &u(15)));
    }

    #[test]
    fn mod_inverse_round_trips() {
        for (a, m) in [(3u64, 7u64), (10, 17), (2, 1_000_003), (65537, 4294967311)] {
            let inv = mod_inverse_u64(a, m).unwrap();
            assert_eq!((a as u128 * inv as u128 % m as u128) as u64, 1, "inverse of {a} mod {m}");
        }
        assert_eq!(mod_inverse_u64(6, 9), None); // gcd 3
        assert_eq!(mod_inverse_u64(5, 1), None); // trivial modulus
        assert_eq!(mod_inverse_u64(5, 0), None);
    }

    #[test]
    fn mod_inverse_u64_agrees_with_bignum_inverse() {
        // The bignum side is Euler's form of the inverse, a^(φ(m) − 1) mod m
        // through `mod_pow`, for every a coprime to m.
        for (a, m) in [(3u64, 7u64), (10, 17), (2, 1_000_003), (65537, 4294967311), (0, 5), (6, 9)] {
            let fast = mod_inverse_u64(a, m);
            let slow = coprime(&u(a), &u(m))
                .then(|| mod_pow(&u(a), &u(euler_phi_u64(m) - 1), &u(m)).to_u64().unwrap());
            assert_eq!(fast, slow, "inverse of {a} mod {m}");
            if let Some(x) = fast {
                assert_eq!((a as u128 * x as u128 % m as u128) as u64, 1);
            }
        }
        assert_eq!(mod_inverse_u64(5, 1), None);
        assert_eq!(mod_inverse_u64(5, 0), None);
    }

    #[test]
    fn mod_pow_matches_naive() {
        for (b, e, m) in [(3u64, 13u64, 17u64), (7, 0, 11), (2, 64, 1_000_000_007), (10, 19, 19)] {
            let mut naive = 1u128;
            for _ in 0..e {
                naive = naive * b as u128 % m as u128;
            }
            assert_eq!(mod_pow(&u(b), &u(e), &u(m)).to_u64(), Some(naive as u64), "{b}^{e} mod {m}");
        }
        assert_eq!(mod_pow(&u(5), &u(100), &u(1)), u(0));
    }

    #[test]
    fn mod_pow_dispatch_matches_plain_for_all_moduli() {
        // Odd moduli take the Montgomery path, even ones the plain path;
        // both must agree with the division-based baseline bit for bit.
        let base = UBig::from(0xfedc_ba98_7654_3210u64);
        for m in [2u64, 3, 4, 17, 1 << 20, (1 << 20) + 1, 4294967311, u64::MAX] {
            for e in [0u64, 1, 2, 63, 64, 65, 1017] {
                assert_eq!(
                    mod_pow(&base, &u(e), &u(m)),
                    mod_pow_plain(&base, &u(e), &u(m)),
                    "base^{e} mod {m}"
                );
            }
        }
    }

    #[test]
    fn fermat_little_theorem_via_mod_pow() {
        // a^(p-1) ≡ 1 mod p — also the heart of the Euler-totient CRT form.
        for p in [7u64, 13, 101, 10007] {
            assert_eq!(mod_pow(&u(3), &u(p - 1), &u(p)), u(1));
        }
    }

    #[test]
    fn euler_phi_values() {
        assert_eq!(euler_phi_u64(1), 1);
        assert_eq!(euler_phi_u64(2), 1);
        assert_eq!(euler_phi_u64(9), 6);
        assert_eq!(euler_phi_u64(10), 4);
        assert_eq!(euler_phi_u64(97), 96); // prime
        assert_eq!(euler_phi_u64(360), 96);
        assert_eq!(euler_phi_u64(0), 0);
    }
}
