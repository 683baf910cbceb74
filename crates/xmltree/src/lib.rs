//! # xp-xmltree — an ordered XML tree store, built from scratch
//!
//! The labeling schemes of the paper operate on *ordered* XML trees: the
//! relative order of siblings is semantically meaningful (§4, "The elements
//! in XML are intrinsically ordered"), and the update experiments (§5.3–5.4)
//! insert nodes as siblings, as children, and as *parents* of existing nodes.
//!
//! This crate provides:
//!
//! * [`XmlTree`] — an arena-based ordered tree with O(1) structural
//!   mutation (append, insert-before/after, wrap-with-parent, detach) and
//!   cheap preorder traversal.
//! * [`parse::parse`] — a from-scratch, non-validating XML parser
//!   (elements, attributes, text, comments, CDATA, processing instructions,
//!   character/entity references) with positioned errors.
//! * [`serialize`] — escaping serializer, compact or indented.
//! * [`stats::TreeStats`] — the structural statistics the paper's size model
//!   is written in: node count N, maximum depth D, maximum fan-out F.
//!
//! ```
//! use xp_xmltree::parse::parse;
//!
//! let tree = parse("<book><author>John</author><author>Jane</author></book>").unwrap();
//! let root = tree.root();
//! assert_eq!(tree.tag(root), Some("book"));
//! assert_eq!(tree.children(root).count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Failures reachable from untrusted input surface as positioned
// `ParseError`s; the panicking mutators that remain are documented
// API contracts, individually allow-listed.
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod parse;
pub mod serialize;
pub mod snapshot;
pub mod stats;
mod tree;

pub use parse::{parse, parse_with, ParseError, ParseErrorKind, ParseLimit, ParseOptions};
pub use snapshot::{SlotSnapshot, SnapshotError, TreeSnapshot};
pub use stats::TreeStats;
pub use tree::{NodeId, NodeKind, XmlTree};
