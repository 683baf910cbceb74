//! # xp-testkit — zero-dependency test & bench infrastructure
//!
//! The workspace builds hermetically: no crates.io dependency may appear in
//! the graph (see DESIGN.md, "Hermetic builds"). This crate supplies, from
//! scratch, the four pieces of infrastructure the repo previously pulled from
//! external crates:
//!
//! * [`rng`] — seeded SplitMix64 → xoshiro256** PRNG (replaced `rand`).
//!   Dataset generation is byte-for-byte deterministic per seed.
//! * [`propcheck`](mod@propcheck) — a minimal property-testing framework (replaced
//!   `proptest`): generator combinators, draw-stream shrinking, seed
//!   reporting, `PROPCHECK_CASES` / `PROPCHECK_SEED` env overrides.
//! * [`bench`](mod@bench) — a wall-clock bench harness (replaced `criterion`):
//!   warmup + calibrated samples, min/median/p95, JSON into `results/`.
//! * [`refint`] — a schoolbook reference big-integer (replaced `num-bigint`
//!   as the differential-test oracle for `xp-bignum`).
//! * [`kernel_oracle`] — the differential layer over [`refint`]: propcheck
//!   generators biased to multiply-kernel crossover sizes and carry-heavy
//!   limb patterns, plus a runner that pins any limb-level kernel against
//!   the oracle.
//!
//! It also hosts the workspace's fault-injection facility:
//!
//! * [`fault`] — named [`faultpoint!`] sites compiled into the pipeline
//!   crates, armed deterministically via `XP_FAULT=<site>:<nth|p=prob>` or
//!   programmatically per thread (see DESIGN.md, "Robustness").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod fault;
pub mod kernel_oracle;
pub mod propcheck;
pub mod refint;
pub mod rng;

pub use fault::{FaultMode, Injected};
pub use propcheck::{Config, Gen, Index, Source};
pub use refint::RefUint;
pub use rng::{RngExt, SeedableRng, StdRng};
