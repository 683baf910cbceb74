//! # xp-query — a label-predicate query engine
//!
//! The paper evaluates XPath queries by translating them "into SQL using an
//! approach similar to \[15\]" and running them over a label table in an
//! RDBMS (§5.2): ancestor/descendant steps become label predicates (`mod`
//! for the prime scheme, interval containment for XISS, a prefix-test
//! user-defined function for the prefix schemes), and ordered axes compare
//! document-order numbers — for the prime scheme, derived on the fly from
//! the SC table.
//!
//! This crate is the equivalent substrate:
//!
//! * [`relstore::LabelTable`] — an in-memory columnar label table: one row
//!   per element with `(node, tag, parent, label)`, plus a tag index. The
//!   `parent` column mirrors the parent-label column such relational
//!   encodings carry for child-axis joins.
//! * [`engine`] — a small XPath subset (child/descendant axes, positional
//!   predicates, `following`, `preceding`, `following-sibling`,
//!   `preceding-sibling`) parsed into [`engine::Path`] and evaluated purely
//!   against labels + an order oracle.
//! * [`evaluators`] — one evaluator per scheme: Interval, Prefix-2, and
//!   Prime (whose order oracle *is* the SC table).
//! * [`queries`] — the nine test queries of Table 2.
//! * [`cache`] — an epoch-stamped query-result cache invalidated precisely
//!   from `RelabelReport`s (see DESIGN.md §14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Failures reachable from untrusted paths or runaway evaluation surface as
// typed `QueryError`s; the panicking conveniences that remain (`eval`,
// `eval_str`, `build`) are documented experiment-harness contracts built on
// `panic!`, not `unwrap`.
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod engine;
pub mod evaluators;
pub mod instrument;
pub mod join;
pub mod plan;
pub mod queries;
pub mod relstore;
pub mod sharded;
pub mod sql;

pub use cache::{QueryCache, TagFootprint, TouchedTags};
pub use engine::{Path, QueryError};
pub use evaluators::{Evaluator, IntervalEvaluator, Prefix2Evaluator, PrimeEvaluator};
pub use relstore::LabelTable;
pub use sharded::ShardedTables;
