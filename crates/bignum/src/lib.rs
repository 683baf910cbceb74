//! # xp-bignum — arbitrary-precision integers, from scratch
//!
//! The prime-number labeling scheme of Wu, Lee & Hsu (ICDE 2004) assigns each
//! XML node the *product* of the self-labels on its root-to-node path, and the
//! ordered variant folds document order into simultaneous-congruence (SC)
//! values that are solutions of a Chinese-Remainder system whose modulus is a
//! product of many primes. Both quantities overflow machine integers almost
//! immediately, so the whole reproduction rests on this crate.
//!
//! The crate provides:
//!
//! * [`UBig`] — an unsigned integer of unbounded size (little-endian `u64`
//!   limbs) with schoolbook + Karatsuba + Toom-3 multiplication (tuned
//!   crossovers in [`kernels`]), Knuth Algorithm D division, bit operations,
//!   and decimal/hex I/O.
//! * [`modular`] — gcd, the word-sized modular inverse, and modular
//!   exponentiation, the building blocks of the CRT solvers in `xp-prime`.
//! * [`reduce`] — precomputed-divisor contexts: Barrett reduction for the
//!   repeated ancestor test, a Möller–Granlund word reducer for SC moduli,
//!   and Montgomery arithmetic for modular-exponentiation chains.
//! * [`prodtree`] — balanced product trees for batch products of machine
//!   words (SC chunk moduli, label denominators).
//!
//! The implementation is written from scratch and differentially tested
//! against `xp_testkit::refint::RefUint`, a deliberately naive schoolbook
//! oracle that shares no algorithmic structure with this crate.
//!
//! ```
//! use xp_bignum::UBig;
//!
//! let a = UBig::from(3u64) * UBig::from(5u64) * UBig::from(7u64);
//! assert_eq!(a.to_string(), "105");
//! assert!( (&a % &UBig::from(15u64)).is_zero() ); // 15 | 105: ancestor test
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Runtime failures surface as typed errors; remaining panics are
// documented contracts built on `panic!`, not `unwrap`.
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod bits;
mod bytes;
pub mod checked;
mod div;
mod fmt;
pub mod kernels;
pub mod modular;
mod mul;
pub mod prodtree;
pub mod reduce;
mod ubig;

pub use ubig::UBig;

/// Errors produced when parsing a [`UBig`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBigError {
    /// The input string was empty.
    Empty,
    /// The input contained a character that is not a digit of the radix.
    InvalidDigit(char),
}

impl std::fmt::Display for ParseBigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseBigError::Empty => write!(f, "cannot parse integer from empty string"),
            ParseBigError::InvalidDigit(c) => write!(f, "invalid digit {c:?} in integer literal"),
        }
    }
}

impl std::error::Error for ParseBigError {}
