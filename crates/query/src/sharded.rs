//! Per-shard [`LabelTable`] partitions over a sharded document.
//!
//! Under the shard facade ([`xp_labelkit::ShardedScheme`]) each shard owns
//! its slice of the label table, so table maintenance is per shard: after
//! a batch, [`ShardedTables::refresh`] rebuilds exactly the partitions of
//! the shards whose labels changed and drops those of shards that died,
//! never the document-sized table. The server's commit and the
//! shard-differential gate both refresh through it. Cross-shard queries
//! compose the per-shard answers through the shard boundary labels — a
//! [`ShardedLabel`] answers every axis test across shards by itself, so
//! [`ShardedTables::compose`] just concatenates the partitions into the one
//! table the engine evaluates; no per-axis stitching logic is needed.

use crate::cache::TouchedTags;
use crate::relstore::LabelTable;
use std::collections::BTreeMap;
use xp_labelkit::{DynamicScheme, LabelOps, LabeledStore, ShardId, ShardedLabel, ShardedScheme};
use xp_xmltree::NodeId;

/// Per-shard label-table partitions for a `LabeledStore<ShardedScheme<S>>`.
#[derive(Debug, Clone)]
pub struct ShardedTables<L: LabelOps> {
    parts: BTreeMap<ShardId, LabelTable<ShardedLabel<L>>>,
    root: NodeId,
}

impl<L: LabelOps> ShardedTables<L> {
    /// Builds one partition per live shard, each holding exactly the rows
    /// of that shard's members: a refresh of every shard from nothing.
    pub fn build<S>(store: &LabeledStore<ShardedScheme<S>>) -> Self
    where
        S: DynamicScheme<Label = L> + Send + Sync,
        S::State: Send,
    {
        let mut tables = ShardedTables { parts: BTreeMap::new(), root: store.tree().root() };
        tables.refresh(store, &store.state().live_shards(), None);
        tables
    }

    /// Live partitions in ascending shard order.
    pub fn partitions(&self) -> impl Iterator<Item = (ShardId, &LabelTable<ShardedLabel<L>>)> {
        self.parts.iter().map(|(&sid, t)| (sid, t))
    }

    /// Brings the partitions up to date after the store changed: drops the
    /// partitions of shards that no longer exist and rebuilds those of the
    /// `dirty` shards (what [`xp_labelkit::take_dirty_shards`] drained —
    /// every shard whose member labels changed, label cascades and splits
    /// included). With `touched`, also records every tag of every
    /// refreshed partition, before and after its rebuild, so removed and
    /// inserted rows are covered alike: shard-granular cache invalidation.
    pub fn refresh<S>(
        &mut self,
        store: &LabeledStore<ShardedScheme<S>>,
        dirty: &[ShardId],
        mut touched: Option<&mut TouchedTags>,
    ) where
        S: DynamicScheme<Label = L> + Send + Sync,
        S::State: Send,
    {
        let dead: Vec<ShardId> =
            self.parts.keys().copied().filter(|&sid| store.state().cell(sid).is_none()).collect();
        for sid in dead {
            if let Some(part) = self.parts.remove(&sid) {
                if let Some(t) = touched.as_deref_mut() {
                    add_tags(&part, t);
                }
            }
        }
        for &sid in dirty {
            if store.state().cell(sid).is_none() {
                continue;
            }
            let part = LabelTable::build_where(store.tree(), store.doc(), |n| {
                store.state().shard_of_node(n) == Some(sid)
            });
            if let Some(t) = touched.as_deref_mut() {
                if let Some(old) = self.parts.get(&sid) {
                    add_tags(old, t);
                }
                add_tags(&part, t);
            }
            self.parts.insert(sid, part);
        }
    }

    /// The composed table cross-shard queries evaluate against: the
    /// concatenation of every partition. The [`ShardedLabel`]s carry the
    /// boundary chains, so the engine's label predicates answer every axis
    /// across shard boundaries without further stitching.
    pub fn compose(&self) -> LabelTable<ShardedLabel<L>> {
        LabelTable::concat(self.root, self.parts.values())
    }
}

/// Folds every tag that appears in `part` into `touched`.
fn add_tags<L: LabelOps>(part: &LabelTable<ShardedLabel<L>>, touched: &mut TouchedTags) {
    for row in part.rows() {
        touched.add(part.tag_name(row.tag));
    }
}
