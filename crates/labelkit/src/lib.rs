//! # xp-labelkit — the shared labeling framework
//!
//! Every labeling scheme in this reproduction — the paper's prime scheme
//! (`xp-prime`) and the baselines it compares against (`xp-baselines`) —
//! speaks the vocabulary defined here:
//!
//! * [`LabelOps`] — what a label can do *by itself*: answer the
//!   ancestor/parent tests and report its size in bits (the paper's storage
//!   metric). Schemes whose labels also encode document order additionally
//!   implement [`OrderedLabel`].
//! * [`Scheme`] — a labeling algorithm: assigns a label to every element of
//!   an [`xp_xmltree::XmlTree`].
//! * [`LabeledDoc`] — the result: a per-node label table over the tree's
//!   arena, with size statistics and the label-diff accounting the update
//!   experiments (Figures 16–18) are measured in.
//! * [`BitString`] — bit-packed variable-length labels for the prefix
//!   schemes.
//! * [`DynamicScheme`] / [`LabeledStore`] — the mutation protocol: typed
//!   insert/delete/move operations with per-mutation [`RelabelReport`]s, so
//!   every scheme's update cost is measured by the same harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Runtime failures surface as typed errors; remaining panics are
// documented contracts built on `panic!`, not `unwrap`.
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bitstring;
pub mod codec;
pub mod doc;
pub mod dynamic;
pub mod scheme;
pub mod shard;

pub use bitstring::BitString;
pub use codec::{CodecError, LabelCodec};
pub use doc::{LabelSizeStats, LabeledDoc};
pub use dynamic::{
    copy_fragment, full_relabel, graft_fragment, DynamicError, DynamicScheme, InsertPos,
    LabeledStore, Mutation, RelabelReport,
};
pub use scheme::{assert_parent_contract, AncestorTester, LabelOps, OrderedLabel, Scheme};
pub use shard::{
    apply_batch_sharded, maintain_shards, split_shard, take_dirty_shards, ChainLink,
    ShardCapacityError, ShardCell, ShardId, ShardPart, ShardPolicy, ShardedLabel, ShardedScheme,
    ShardedState,
};
