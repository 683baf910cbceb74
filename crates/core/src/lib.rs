//! # xp-prime — the prime-number labeling scheme (the paper's contribution)
//!
//! Implements Wu, Lee & Hsu, *A Prime Number Labeling Scheme for Dynamic
//! Ordered XML Trees* (ICDE 2004), in full:
//!
//! * [`topdown::TopDownPrime`] — the paper's default scheme (§3, Figure 2):
//!   every non-leaf node gets a unique prime **self-label**; a node's label
//!   is the product of its parent's label and its self-label; ancestorship
//!   is divisibility (Property 2/3). Optimizations are configurable via
//!   [`topdown::PrimeOptions`]:
//!   **Opt1** reserves the smallest primes for the top tree levels,
//!   **Opt2** labels the n-th leaf child `2^n` (with the odd-label ancestor
//!   test of Property 3 and the threshold fallback of §3.2), and
//!   **Opt3** collapses repeated sibling subtrees (Figure 6).
//! * [`bottomup::BottomUpPrime`] — the bottom-up variant (Figure 1): leaves
//!   get primes, parents the product of their children (Property 2).
//! * [`size_model`] — the analytic maximum-label-size formulas (1)–(3) of
//!   §3.1 behind Figures 4 and 5.
//! * [`crt`] — Chinese-Remainder solvers (Theorem 1): the extended-Euclid
//!   solver and the paper's Euler-totient formulation.
//! * [`sc`] — the **SC table** (§4): simultaneous-congruence values that fold
//!   document order into one number per chunk of nodes, plus the low-cost
//!   order-sensitive update protocol of §4.2.
//! * [`ordered::OrderedPrimeDoc`] — the full ordered document: top-down
//!   labels + SC table + insertion/deletion with relabel accounting, the
//!   object the query engine (`xp-query`) and Figure 18 run on.
//! * [`ShardedPrime`] — the tree-decomposition optimization §3.2 adopts
//!   from \[10\] for trees "with great depths": [`DynamicPrime`] behind the
//!   `xp-labelkit` shard facade, which labels each subtree with its own
//!   prime pool and decides ancestry across subtrees from labels alone.
//!
//! ```
//! use xp_prime::topdown::TopDownPrime;
//! use xp_labelkit::{Scheme, LabelOps};
//! use xp_xmltree::parse;
//!
//! let tree = parse("<book><author/><author/></book>").unwrap();
//! let doc = TopDownPrime::unoptimized().label(&tree);
//! let book = tree.root();
//! let author = tree.first_child(book).unwrap();
//! assert!(doc.label(book).is_ancestor_of(doc.label(author)));
//! assert!(!doc.label(author).is_ancestor_of(doc.label(book)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Failures reachable from untrusted input or runtime mutation surface as
// typed errors (see `error`); the panicking accessors that remain are
// documented indexing-style invariants, individually allow-listed.
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bottomup;
pub mod crt;
pub mod dynamic;
pub mod error;
pub mod label;
pub mod ordered;
pub mod path;
pub mod sc;
pub mod size_model;
pub mod topdown;

pub use dynamic::DynamicPrime;
pub use error::Error;

/// The dynamic prime scheme promoted to the shard facade (§3.2 subtree
/// decomposition as the unit of scale): each shard labels its subtree with
/// an independent `DynamicPrime` instance, so the small primes are reused
/// per shard and mutations relabel at most one shard.
pub type ShardedPrime = xp_labelkit::ShardedScheme<DynamicPrime>;
pub use label::PrimeLabel;
pub use ordered::OrderedPrimeDoc;
pub use sc::ScTable;
pub use topdown::{PrimeOptions, TopDownPrime};
