//! Chinese-Remainder solvers (Theorem 1 of the paper).
//!
//! Given pairwise-coprime moduli `M = [m₁…m_k]` (the nodes' self-labels) and
//! residues `N = [n₁…n_k]` (their order numbers), the simultaneous
//! congruence `SC(M, N)` is the unique `x ∈ [0, Πmᵢ)` with `x ≡ nᵢ (mod mᵢ)`
//! for every i.
//!
//! Two solvers are provided:
//!
//! * [`solve`] — folds [`extend`] over the system, one congruence at a time
//!   (Garner's construction, and what the paper's worked update example in
//!   §4.2 does pair by pair). Each step works modulo one word-sized modulus:
//!   a few passes over the limbs of the growing solution, no bignum
//!   division. The SC table computes every SC value through this fold,
//!   [`extend`], or its whole-record `SC + 1` shift.
//! * [`solve_euler`] — the paper's formulation via Euler's totient:
//!   `x = Σᵢ (C/mᵢ)^φ(mᵢ) · nᵢ mod C`. Since `gcd(C/mᵢ, mᵢ) = 1`,
//!   Euler's theorem gives `(C/mᵢ)^φ(mᵢ) ≡ 1 (mod mᵢ)`, while every other
//!   `mⱼ` divides `C/mᵢ`; so each term contributes `nᵢ` at position i and 0
//!   elsewhere. (The paper prints the formula with the totient as a factor
//!   rather than an exponent — a typo; as printed it is not a CRT solution.)
//!   It is the reference the fold is tested against.
//!
//! `cargo bench -p xp-bench --bench ablations` times the two (group
//! `crt_solver`).

use xp_bignum::reduce::Reducer64;
use xp_bignum::{modular, UBig};

/// Why a CRT system could not be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrtError {
    /// Moduli and residue lists have different lengths.
    LengthMismatch,
    /// Two moduli share a factor; Theorem 1 requires pairwise coprimality.
    NotCoprime {
        /// First offending modulus.
        a: u64,
        /// Second offending modulus.
        b: u64,
    },
    /// A modulus was 0 (1 is allowed but useless).
    ZeroModulus,
    /// A congruence could not be folded into an already-accumulated system:
    /// the caller's cached product shares a factor with `modulus`. Only
    /// [`extend`] reports this, since it sees the product but not the
    /// moduli; [`solve`] names the offending pair instead.
    Inconsistent {
        /// The modulus that failed to fold into the accumulated product.
        modulus: u64,
    },
}

impl std::fmt::Display for CrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrtError::LengthMismatch => write!(f, "moduli and residues differ in length"),
            CrtError::NotCoprime { a, b } => write!(f, "moduli {a} and {b} are not coprime"),
            CrtError::ZeroModulus => write!(f, "zero modulus"),
            CrtError::Inconsistent { modulus } => {
                write!(f, "modulus {modulus} conflicts with the accumulated congruence system")
            }
        }
    }
}

impl std::error::Error for CrtError {}

/// The O(k) shape checks both solvers share: equal lengths, no zero modulus.
fn check_shape(moduli: &[u64], residues: &[u64]) -> Result<(), CrtError> {
    if moduli.len() != residues.len() {
        return Err(CrtError::LengthMismatch);
    }
    if moduli.contains(&0) {
        return Err(CrtError::ZeroModulus);
    }
    Ok(())
}

/// Solves the system by folding [`extend`] over it, one congruence at a
/// time. Returns `SC ∈ [0, Πmᵢ)`. A modulus that fails to fold is reported
/// with the earlier modulus it shares a factor with.
pub fn solve(moduli: &[u64], residues: &[u64]) -> Result<UBig, CrtError> {
    check_shape(moduli, residues)?;
    let mut x = UBig::zero();
    let mut product = UBig::one();
    for (i, (&m, &r)) in moduli.iter().zip(residues).enumerate() {
        x = extend(&x, &product, m, r).map_err(|_| conflict_with_earlier(&moduli[..i], m))?;
        product.mul_u64_assign(m);
    }
    Ok(x)
}

/// Names the error for a modulus `m` that failed to fold into the product of
/// `earlier`: the first earlier modulus sharing a factor with `m` if one
/// exists, otherwise the system is inconsistent in a way no pair explains.
fn conflict_with_earlier(earlier: &[u64], m: u64) -> CrtError {
    match earlier.iter().find(|&&a| !modular::coprime(&UBig::from(a), &UBig::from(m))) {
        Some(&a) => CrtError::NotCoprime { a, b: m },
        None => CrtError::Inconsistent { modulus: m },
    }
}

/// Solves the system with the paper's Euler-totient construction:
/// `x = Σ (C/mᵢ)^φ(mᵢ) · nᵢ mod C`.
pub fn solve_euler(moduli: &[u64], residues: &[u64]) -> Result<UBig, CrtError> {
    check_shape(moduli, residues)?;
    // The formula silently yields a wrong answer for a shared factor, so
    // check every pair first.
    for (j, &m) in moduli.iter().enumerate() {
        if let err @ CrtError::NotCoprime { .. } = conflict_with_earlier(&moduli[..j], m) {
            return Err(err);
        }
    }
    let mut c = UBig::one();
    for &m in moduli {
        c *= UBig::from(m);
    }
    let mut x = UBig::zero();
    for (&m, &r) in moduli.iter().zip(residues) {
        let cofactor = &c / &UBig::from(m);
        let phi = modular::euler_phi_u64(m);
        // (C/mᵢ)^φ(mᵢ) mod C, then × nᵢ.
        let term = modular::mod_pow(&cofactor, &UBig::from(phi), &c);
        x = (x + term * UBig::from(r)) % &c;
    }
    Ok(x)
}

/// Extends a solution by one congruence — the paper's §4.2 update step
/// (`x mod 13 = 7, x mod 17 = 3`): given `x ≡ old (mod old_product)`,
/// returns the canonical `x ∈ [0, old_product·m)` that also satisfies
/// `x ≡ r (mod m)`. `old` and `r` may exceed their moduli.
///
/// One Garner step over the word modulus `m`: with `P = old_product` and
/// `x₀ = old mod P`, the answer is `x₀ + P·t` for
/// `t = (r − x₀)·P⁻¹ mod m`. Both residues come from one [`Reducer64`], the
/// inverse from [`modular::mod_inverse_u64`], and the only bignum work is
/// one `mul_u64` and one addition. Fails with
/// [`CrtError::Inconsistent`] when `P` shares a factor with `m`; the caller
/// holds only the product, so no conflicting pair can be named here.
pub fn extend(old: &UBig, old_product: &UBig, m: u64, r: u64) -> Result<UBig, CrtError> {
    if m == 0 || old_product.is_zero() {
        return Err(CrtError::ZeroModulus);
    }
    let reduced;
    let old = if old < old_product {
        old
    } else {
        reduced = old % old_product;
        &reduced
    };
    if m == 1 {
        // Every x satisfies x ≡ r (mod 1): the solution stands.
        return Ok(old.clone());
    }
    let red = Reducer64::new(m);
    let inv = modular::mod_inverse_u64(red.rem(old_product), m)
        .ok_or(CrtError::Inconsistent { modulus: m })?;
    let (have, want) = (red.rem(old), r % m);
    let diff = if want >= have { want - have } else { want + (m - have) };
    let t = (u128::from(diff) * u128::from(inv) % u128::from(m)) as u64;
    let mut x = old_product.mul_u64(t);
    x += old;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_section41_example() {
        // §4.1: P = [3, 4, 5], I = [1, 2, 3] → x = 58.
        let x = solve(&[3, 4, 5], &[1, 2, 3]).unwrap();
        assert_eq!(x, UBig::from(58u64));
        assert_eq!(solve_euler(&[3, 4, 5], &[1, 2, 3]).unwrap(), UBig::from(58u64));
    }

    #[test]
    fn paper_figure9_sc_value() {
        // Figure 9: self-labels [2,3,5,7,11,13] with orders [1,2,3,4,5,6]
        // give SC = 29243; e.g. 29243 mod 5 = 3.
        let x = solve(&[2, 3, 5, 7, 11, 13], &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(x, UBig::from(29243u64));
        assert_eq!(x.rem_u64(5), 3);
        assert_eq!(x.rem_u64(13), 6);
    }

    #[test]
    fn paper_figure10_split_sc_table() {
        // Figure 10: first 5 nodes → SC 1523; the 6th alone → SC 6.
        let first = solve(&[2, 3, 5, 7, 11], &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(first, UBig::from(1523u64));
        let second = solve(&[13], &[6]).unwrap();
        assert_eq!(second, UBig::from(6u64));
    }

    #[test]
    fn paper_figure12_updated_table() {
        // §4.2: after inserting the node with self-label 17 at order 3, the
        // second record solves x ≡ 7 (mod 13), x ≡ 3 (mod 17), and the first
        // record re-solves with shifted orders [1,2,4,5,6].
        let second = solve(&[13, 17], &[7, 3]).unwrap();
        assert_eq!(second.rem_u64(13), 7);
        assert_eq!(second.rem_u64(17), 3);
        let first = solve(&[2, 3, 5, 7, 11], &[1, 2, 4, 5, 6]).unwrap();
        assert_eq!(first.rem_u64(5), 4);
        assert_eq!(first.rem_u64(11), 6);
    }

    #[test]
    fn both_solvers_agree() {
        let moduli = [3u64, 5, 7, 11, 13, 17, 19, 23];
        let residues = [2u64, 4, 0, 10, 12, 7, 18, 1];
        assert_eq!(solve(&moduli, &residues).unwrap(), solve_euler(&moduli, &residues).unwrap());
    }

    #[test]
    fn solution_is_canonical() {
        let moduli = [5u64, 7];
        let x = solve(&moduli, &[3, 3]).unwrap();
        assert!(x < UBig::from(35u64));
        assert_eq!(x, UBig::from(3u64)); // x ≡ 3 mod both → 3
    }

    #[test]
    fn residues_larger_than_moduli_are_reduced() {
        let x = solve(&[5, 7], &[8, 9]).unwrap(); // ≡ 3 mod 5, ≡ 2 mod 7
        assert_eq!(x.rem_u64(5), 3);
        assert_eq!(x.rem_u64(7), 2);
    }

    #[test]
    fn errors_are_detected() {
        assert_eq!(solve(&[4, 6], &[1, 2]).unwrap_err(), CrtError::NotCoprime { a: 4, b: 6 });
        assert_eq!(solve(&[3], &[1, 2]).unwrap_err(), CrtError::LengthMismatch);
        assert_eq!(solve(&[0], &[1]).unwrap_err(), CrtError::ZeroModulus);
        assert_eq!(solve_euler(&[9, 6], &[1, 2]).unwrap_err(), CrtError::NotCoprime { a: 9, b: 6 });
    }

    #[test]
    fn fold_failures_name_the_real_pair() {
        // Bypassing `validate`, a fold failure must still name the earlier
        // modulus that genuinely conflicts — never a placeholder.
        assert_eq!(conflict_with_earlier(&[5, 6, 7], 9), CrtError::NotCoprime { a: 6, b: 9 });
        // No earlier modulus explains the failure: the system is inconsistent.
        assert_eq!(conflict_with_earlier(&[5, 7], 9), CrtError::Inconsistent { modulus: 9 });
    }

    #[test]
    fn extend_with_conflicting_modulus_is_inconsistent() {
        // old_product = 6 shares a factor with m = 9: no pair is nameable
        // from here, so the error carries the modulus that failed to fold.
        let err = extend(&UBig::from(1u64), &UBig::from(6u64), 9, 2).unwrap_err();
        assert_eq!(err, CrtError::Inconsistent { modulus: 9 });
        assert_eq!(err.to_string(), "modulus 9 conflicts with the accumulated congruence system");
    }

    #[test]
    fn empty_system_solves_to_zero() {
        assert_eq!(solve(&[], &[]).unwrap(), UBig::zero());
    }

    #[test]
    fn extend_matches_full_resolve() {
        let moduli = [3u64, 5, 7];
        let residues = [1u64, 2, 3];
        let partial = solve(&moduli[..2], &residues[..2]).unwrap();
        let extended = extend(&partial, &UBig::from(15u64), 7, 3).unwrap();
        assert_eq!(extended, solve(&moduli, &residues).unwrap());
    }

    #[test]
    fn extend_reduces_an_old_solution_above_its_product() {
        // §4.2's update step, then an `old` far above its product: 58 ≡ 1
        // (mod 3), so x ≡ 1 (mod 3), x ≡ 2 (mod 4) gives the canonical 10.
        let x = extend(&UBig::from(7u64), &UBig::from(13u64), 17, 3).unwrap();
        assert_eq!((x.rem_u64(13), x.rem_u64(17)), (7, 3));
        assert!(x < UBig::from(13u64 * 17));
        assert_eq!(extend(&UBig::from(58u64), &UBig::from(3u64), 4, 2).unwrap(), UBig::from(10u64));
    }

    #[test]
    fn large_chunk_of_primes() {
        // A realistic SC chunk: consecutive primes with arbitrary orders.
        let moduli: Vec<u64> = xp_primes::first_primes(25);
        let residues: Vec<u64> = (0..25).map(|i| (i * 37 + 5) % 100).collect();
        let x = solve(&moduli, &residues).unwrap();
        for (&m, &r) in moduli.iter().zip(&residues) {
            assert_eq!(x.rem_u64(m), r % m, "mod {m}");
        }
        assert_eq!(x, solve_euler(&moduli, &residues).unwrap());
    }

    use xp_testkit::propcheck::{index, u64s, usizes, vec_of};
    use xp_testkit::{prop_assert, prop_assert_eq, propcheck};

    propcheck! {
        #![config(cases = 64)]

        /// On random systems of up to 64 distinct primes plus a modulus of 1,
        /// with residues drawn past their moduli, the fold must equal the
        /// paper's formula, and so must `extend` applied one congruence at a
        /// time, also to a running solution left above its product. A
        /// repeated factor must fail with a pair that really shares one.
        #[test]
        fn fold_matches_euler_and_stepwise_extend(
            picks in vec_of(usizes(0..200), 0..65),
            residues in vec_of(u64s(0..2_500), 66..67),
            lifts in vec_of(u64s(0..3), 66..67),
            one_at in index(),
            shared_at in index(),
            cofactor in index(),
            bad_at in index(),
        ) {
            // The 200th prime is 1223, so residues reach past every modulus.
            let pool = xp_primes::first_primes(200);
            let mut moduli: Vec<u64> = Vec::new();
            for &i in &picks {
                if !moduli.contains(&pool[i]) {
                    moduli.push(pool[i]);
                }
            }
            let primes = moduli.clone();
            moduli.insert(one_at.index(moduli.len() + 1), 1);
            let x = solve(&moduli, &residues[..moduli.len()]).unwrap();
            prop_assert_eq!(&x, &solve_euler(&moduli, &residues[..moduli.len()]).unwrap());

            let mut folded = UBig::zero();
            let mut product = UBig::one();
            for ((&m, &r), &lift) in moduli.iter().zip(&residues).zip(&lifts) {
                folded = extend(&(&folded + &product.mul_u64(lift)), &product, m, r).unwrap();
                product.mul_u64_assign(m);
            }
            prop_assert_eq!(&folded, &x);

            if primes.is_empty() {
                return Ok(());
            }
            // The prime itself (a repeat) or a multiple of it.
            let k = cofactor.index(pool.len() + 1);
            let shared = primes[shared_at.index(primes.len())] * if k == 0 { 1 } else { pool[k - 1] };
            let mut bad = moduli.clone();
            bad.insert(bad_at.index(bad.len() + 1), shared);
            for result in [solve(&bad, &residues[..bad.len()]), solve_euler(&bad, &residues[..bad.len()])] {
                match result {
                    Err(CrtError::NotCoprime { a, b }) => {
                        prop_assert!(bad.contains(&a) && bad.contains(&b), "{a}, {b} not in {bad:?}");
                        prop_assert!(!modular::coprime(&UBig::from(a), &UBig::from(b)), "{a}, {b}");
                    }
                    other => prop_assert!(false, "{bad:?} gave {other:?}"),
                }
            }
        }
    }
}
