//! Epoch-stamped snapshots and their reclamation.
//!
//! The apply loop owns the authoritative document state (inside the
//! store). After each batch it *publishes* an immutable [`Snapshot`]
//! behind an `Arc`; readers clone the `Arc` and evaluate queries against a
//! labeling that never changes underneath them — the paper's query
//! machinery (structural joins over the label table, SC order materialised
//! at publish as a rank column) runs with zero coordination against the
//! writer. A flat document publishes [`EpochSnapshot`]s, a sharded one
//! [`ShardedEpochSnapshot`]s.
//!
//! # Order
//!
//! A snapshot keeps its document order as a [`TagRuns`]: a dense rank
//! column plus each tag's rows in rank order, and one run of every row for
//! `*`. A query's steps borrow their candidates from the runs, so a served
//! query neither ranks nor sorts them, and a rank lookup is an array read,
//! never an SC lookup.
//!
//! A flat snapshot reads `SC mod self-label` (§4.1) for every row once,
//! when it is first built, and sorts the runs once. Every mutation the
//! publisher replays onto it then folds its report into the column and
//! the runs the way the SC table moves orders: removals leave gaps and
//! leave the runs, inserted nodes take their SC order and enter the runs by
//! binary search, survivors shift past the inserted orders, which keeps
//! them in order, and rows the table moved to fill a removed row's slot
//! are re-pointed. Only a mutation that fails inside the scheme makes it
//! read the whole column again and rebuild the runs. A reclaimed buffer
//! usually lags by two batches, and the current snapshot already holds the
//! order after the first of them, so catch-up copies that order once
//! instead of folding those reports a second time. A sharded snapshot
//! fills its runs in the document-order pass that builds its column.
//!
//! # Reclamation
//!
//! Deep-copying a million-row label table plus SC state per epoch would
//! dominate the apply path, so a flat document's [`Publisher`] recycles
//! buffers with a simple epoch-based scheme:
//!
//! * Retired snapshots (previous epochs) are kept on a short list together
//!   with the mutation history of every batch since the oldest of them.
//! * To publish epoch `e`, the publisher looks for a retired buffer no
//!   reader holds (`Arc` strong count of exactly one — the list's own).
//!   Such a buffer is *caught up* by replaying the batches it missed:
//!   mutations are deterministic (the WAL-replay guarantee — a mutation
//!   that failed in the writer re-fails identically here), so the result
//!   is bit-equal to the writer's state without any copying.
//! * If every retired buffer is still referenced by some reader, or the
//!   needed history has been pruned, the publisher falls back to a deep
//!   copy of the current snapshot. Slow readers therefore cost memory and
//!   one clone, never writer stalls or torn reads.
//!
//! A sharded document needs no reclamation: its snapshot is a fresh
//! composition of the table partitions, published by `Arc` swap.
//!
//! The interleaving and isolation tests pin the invariant that matters:
//! every published snapshot is indistinguishable from a
//! relabel-from-scratch document at that epoch, on all nine query axes.

use std::collections::VecDeque;
use std::sync::Arc;

use xp_labelkit::{DynamicError, LabeledStore, Mutation, ShardId, ShardedLabel};
use xp_prime::dynamic::DynamicPrime;
use xp_prime::PrimeLabel;
use xp_query::engine::{eval_path, OrderOracle, Path, QueryError, TreeOrderOracle};
use xp_query::relstore::LabelTable;
use xp_query::{ShardedTables, TagRuns};
use xp_store::ShardedDocStore;
use xp_xmltree::NodeId;

/// What a reader needs from a published snapshot, whichever document kind
/// published it.
pub trait Snapshot: Send + Sync + 'static {
    /// Label epoch this snapshot was published at.
    fn epoch(&self) -> u64;

    /// Mutations folded in (the document's WAL sequence).
    fn seq(&self) -> u64;

    /// Attached element count at this epoch.
    fn elements(&self) -> u64;

    /// Evaluates a parsed path against this snapshot — all nine axes.
    fn query(&self, path: &Path) -> Result<Vec<NodeId>, QueryError>;
}

/// How many retired snapshots the publisher keeps as reclaim candidates.
/// Two suffices for the steady state (current + one being drained);
/// anything older is dropped outright, freeing memory instead of hoarding
/// catch-up work.
const RETIRED_CAP: usize = 2;

/// Batches of history retained for catch-up. Once a retired buffer lags
/// further than this, reclaiming it would replay more work than it saves;
/// the publisher clones instead and lets the laggard drop.
const HISTORY_CAP: usize = 64;

/// An immutable, epoch-stamped view of one document.
///
/// Holds everything a query needs — the label table for structural joins
/// and the rank column and runs for document order — so readers never
/// touch the store or the writer's tree. The labeled document (tree,
/// labels, SC state) rides along for the publisher's catch-up replay.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    seq: u64,
    labeled: LabeledStore<DynamicPrime>,
    table: LabelTable<PrimeLabel>,
    /// SC order of every row and each tag's rows in that order,
    /// materialised (see the module docs).
    order: TagRuns,
}

/// The SC order (`SC mod self-label`) of every row of `table`, read once,
/// and the runs it sorts `table`'s rows into.
fn sc_order(labeled: &LabeledStore<DynamicPrime>, table: &LabelTable<PrimeLabel>) -> TagRuns {
    let state = labeled.state();
    let column = TreeOrderOracle::from_ranks(
        table.rows().iter().filter_map(|row| Some((row.node, state.try_order_of(row.node).ok()?))),
    );
    TagRuns::build(table, column)
}

impl EpochSnapshot {
    /// Wraps a labeled document as the snapshot for `epoch`/`seq`, reading
    /// every row's SC order into the rank column and sorting the runs.
    pub fn new(
        epoch: u64,
        seq: u64,
        labeled: LabeledStore<DynamicPrime>,
        table: LabelTable<PrimeLabel>,
    ) -> Self {
        let order = sc_order(&labeled, &table);
        EpochSnapshot { epoch, seq, labeled, table, order }
    }

    /// Label epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mutations folded in (the document's WAL sequence).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The labeled document (tree + labels + SC state).
    pub fn labeled(&self) -> &LabeledStore<DynamicPrime> {
        &self.labeled
    }

    /// The relational label table queries join over.
    pub fn table(&self) -> &LabelTable<PrimeLabel> {
        &self.table
    }

    /// Attached element count at this epoch.
    pub fn elements(&self) -> u64 {
        self.table.len() as u64
    }

    /// Evaluates a parsed path against this snapshot.
    pub fn query(&self, path: &Path) -> Result<Vec<NodeId>, QueryError> {
        eval_path(&self.table, &self.order, path)
    }

    /// Document-order rank of a node — its SC order number, read from the
    /// rank column — or `u64::MAX` for a node outside this snapshot.
    pub fn rank(&self, node: NodeId) -> u64 {
        self.order.rank(node)
    }
}

impl Snapshot for EpochSnapshot {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn seq(&self) -> u64 {
        self.seq
    }

    fn elements(&self) -> u64 {
        EpochSnapshot::elements(self)
    }

    fn query(&self, path: &Path) -> Result<Vec<NodeId>, QueryError> {
        EpochSnapshot::query(self, path)
    }
}

/// An immutable, epoch-stamped view of a whole sharded document: one
/// snapshot per epoch, no matter how many shards the batch touched.
#[derive(Debug)]
pub struct ShardedEpochSnapshot {
    epoch: u64,
    seq: u64,
    shards: Vec<ShardId>,
    table: LabelTable<ShardedLabel<PrimeLabel>>,
    order: TagRuns,
}

impl ShardedEpochSnapshot {
    /// Snapshots `store`'s current state as `epoch`: the composed table (a
    /// row concat of the partitions — the [`ShardedLabel`]s answer every
    /// axis across shard boundaries by themselves) plus the dense rank
    /// column (per-shard SC order composed through the boundary chains) and
    /// the runs, filled in the same document-order pass. All are `O(n)` and
    /// involve no label arithmetic.
    pub fn new(store: &ShardedDocStore, tables: &ShardedTables<PrimeLabel>, epoch: u64) -> Self {
        let table = tables.compose();
        let order = TagRuns::from_order(&table, store.labeled().ordered_nodes());
        ShardedEpochSnapshot { epoch, seq: store.seq(), shards: store.live_shards(), table, order }
    }

    /// Live shards at this epoch, ascending.
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }

    /// The composed cross-shard label table queries join over.
    pub fn table(&self) -> &LabelTable<ShardedLabel<PrimeLabel>> {
        &self.table
    }
}

impl Snapshot for ShardedEpochSnapshot {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn seq(&self) -> u64 {
        self.seq
    }

    fn elements(&self) -> u64 {
        self.table.len() as u64
    }

    fn query(&self, path: &Path) -> Result<Vec<NodeId>, QueryError> {
        eval_path(&self.table, &self.order, path)
    }
}

/// Counters describing how snapshots were produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Published by catching up a retired buffer (no copy).
    pub reclaimed: u64,
    /// Published by deep-copying the current snapshot.
    pub cloned: u64,
}

/// Owns the publish/retire/reclaim cycle for one document. Driven only by
/// the single writer thread; readers interact through the `Arc`s it hands
/// out.
#[derive(Debug)]
pub struct Publisher {
    current: Arc<EpochSnapshot>,
    retired: Vec<Arc<EpochSnapshot>>,
    /// `(epoch, batch)` for every batch newer than the oldest retired
    /// buffer, oldest first.
    history: VecDeque<(u64, Vec<Mutation>)>,
    stats: PublishStats,
}

impl Publisher {
    /// Starts publishing with `base` as the initial epoch.
    pub fn new(base: EpochSnapshot) -> Self {
        Publisher {
            current: Arc::new(base),
            retired: Vec::new(),
            history: VecDeque::new(),
            stats: PublishStats::default(),
        }
    }

    /// The latest published snapshot. Cheap; readers hold the `Arc` for as
    /// long as they need a consistent view.
    pub fn current(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current)
    }

    /// How snapshots have been produced so far.
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// Publishes the state after `batch` was applied, as epoch `epoch`
    /// with document sequence `seq`. Must be called once per applied
    /// batch, in order, with exactly the mutations handed to
    /// [`xp_store::Store::apply_batch`].
    pub fn publish(&mut self, epoch: u64, seq: u64, batch: &[Mutation]) -> Arc<EpochSnapshot> {
        self.history.push_back((epoch, batch.to_vec()));
        let mut snapshot = match self.take_reclaimable() {
            Some(snap) => {
                self.stats.reclaimed += 1;
                snap
            }
            None => {
                // Copy the pre-batch state; the catch-up below replays the
                // new batch onto it (and is what makes the two paths
                // produce identical bytes).
                self.stats.cloned += 1;
                EpochSnapshot {
                    epoch: self.current.epoch,
                    seq: self.current.seq,
                    labeled: self.current.labeled.fork(),
                    table: self.current.table.clone(),
                    order: self.current.order.clone(),
                }
            }
        };
        self.catch_up(&mut snapshot, epoch, seq);
        let fresh = Arc::new(snapshot);
        let old = std::mem::replace(&mut self.current, Arc::clone(&fresh));
        self.retired.push(old);
        if self.retired.len() > RETIRED_CAP {
            // Oldest first: keep the most recently retired buffers, which
            // need the least catch-up.
            self.retired.remove(0);
        }
        self.prune_history();
        fresh
    }

    /// Pops a retired buffer that (a) no reader still references and
    /// (b) the retained history can catch up.
    fn take_reclaimable(&mut self) -> Option<EpochSnapshot> {
        let oldest_replayable = self.history.front().map(|&(e, _)| e)?;
        for i in (0..self.retired.len()).rev() {
            let lagging = self.retired[i].epoch;
            // Every batch with epoch > lagging must still be retained,
            // i.e. the history must reach back to lagging + 1.
            if Arc::strong_count(&self.retired[i]) == 1 && oldest_replayable <= lagging + 1 {
                let arc = self.retired.swap_remove(i);
                // The count was checked an instant ago and only this
                // thread mints clones, so the unwrap cannot race.
                return Arc::try_unwrap(arc).ok();
            }
        }
        None
    }

    /// Replays the batches `snap` missed, bringing it to `epoch`/`seq`.
    /// Labels and table replay every missed batch. For the batches the
    /// current snapshot already holds, the order (rank column and runs) is
    /// then copied from it: replay is deterministic, so both tables hold
    /// the same rows at the same indices, and the copy costs one pass where
    /// folding cost one per mutation. Each newer mutation's report is
    /// folded into the order right after the mutation applies and the table
    /// is patched, so the next one shifts from current orders and current
    /// row indices.
    fn catch_up(&self, snap: &mut EpochSnapshot, epoch: u64, seq: u64) {
        let current = &self.current;
        for (batch_epoch, batch) in &self.history {
            if *batch_epoch <= snap.epoch {
                continue;
            }
            let held = *batch_epoch <= current.epoch;
            for mutation in batch {
                // Mirrors Store::apply_batch: a mutation that failed in
                // the writer fails identically here (deterministic
                // schemes are the WAL-replay contract).
                match snap.labeled.apply(mutation) {
                    Ok(report) => {
                        snap.table.apply_report(snap.labeled.tree(), snap.labeled.doc(), &report);
                        if !held {
                            let state = snap.labeled.state();
                            snap.order.apply_report(&snap.table, &report, |n| {
                                state.try_order_of(n).ok()
                            });
                        }
                    }
                    // Validation failures change nothing. A scheme failure
                    // can strand SC shifts (a subtree insert that grafted
                    // some nodes before failing leaves gaps where they
                    // were), so the column is read again from the table
                    // and the runs are sorted again.
                    Err(DynamicError::Scheme(_)) if !held => {
                        snap.order = sc_order(&snap.labeled, &snap.table);
                    }
                    Err(_) => {}
                }
            }
            if *batch_epoch == current.epoch {
                snap.order.clone_from(&current.order);
            }
        }
        snap.epoch = epoch;
        snap.seq = seq;
    }

    /// Drops history no retired buffer needs any more.
    fn prune_history(&mut self) {
        let floor = self.retired.iter().map(|s| s.epoch).min().unwrap_or(u64::MAX);
        while let Some(&(e, _)) = self.history.front() {
            if e <= floor && self.history.len() > 1 {
                self.history.pop_front();
            } else {
                break;
            }
        }
        while self.history.len() > HISTORY_CAP {
            self.history.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_labelkit::InsertPos;
    use xp_query::relstore::LabelTable;

    fn base() -> EpochSnapshot {
        let tree = xp_xmltree::parse("<r><a/><b><c/></b></r>").unwrap();
        let labeled = LabeledStore::build(DynamicPrime::new(8), tree).unwrap();
        let table = LabelTable::build(labeled.tree(), labeled.doc());
        EpochSnapshot::new(0, 0, labeled, table)
    }

    /// Cycles through every kind the publisher must fold into the rank
    /// column and the runs, at the front of the document so each one moves
    /// every later order: a sibling insert, a two-node subtree insert, a
    /// wrap of that subtree (a relabel of every wrapped node) and the
    /// deletion of the wrapper's whole subtree. Then it deletes the root's
    /// last child, an older row, whose slot the table fills with its last
    /// row, so the runs must re-point that row.
    fn mutation_for(snap: &EpochSnapshot, i: u64) -> Mutation {
        let tree = snap.labeled.tree();
        let first = tree.first_child(tree.root()).unwrap();
        match i % 5 {
            0 => Mutation::InsertBefore { anchor: first, tag: "x".into() },
            1 => {
                Mutation::InsertSubtree { pos: InsertPos::Before(first), xml: "<y><z/></y>".into() }
            }
            2 => Mutation::InsertParent { target: first, tag: "w".into() },
            3 => Mutation::Delete { target: first },
            _ => Mutation::Delete { target: tree.last_child(tree.root()).unwrap() },
        }
    }

    /// Every element of `snap` ranks at its own SC order number, and the
    /// runs equal a fresh build from the snapshot's table.
    fn assert_order_is_sc_order(snap: &EpochSnapshot) {
        let state = snap.labeled().state();
        for n in snap.labeled().tree().elements() {
            assert_eq!(
                snap.rank(n),
                state.order_of(n),
                "epoch {}: the rank column diverged from SC order at {n}",
                snap.epoch()
            );
        }
        assert_eq!(
            snap.order,
            sc_order(&snap.labeled, &snap.table),
            "epoch {}: the patched runs diverged from a fresh build",
            snap.epoch()
        );
    }

    /// Applies `m` the way the writer does, returning the post state.
    fn writer_apply(snap: &EpochSnapshot, m: &Mutation, epoch: u64, seq: u64) -> EpochSnapshot {
        let mut labeled = snap.labeled.fork();
        let mut table = snap.table.clone();
        let report = labeled.apply(m).unwrap();
        table.apply_report(labeled.tree(), labeled.doc(), &report);
        EpochSnapshot::new(epoch, seq, labeled, table)
    }

    #[test]
    fn steady_state_reclaims_instead_of_cloning() {
        let mut publisher = Publisher::new(base());
        let mut writer = publisher.current();
        for epoch in 1..=10u64 {
            let m = mutation_for(&writer, epoch);
            writer = {
                let next = writer_apply(&writer, &m, epoch, epoch);
                publisher.publish(epoch, epoch, std::slice::from_ref(&m));
                Arc::new(next)
            };
            let published = publisher.current();
            assert_eq!(published.epoch(), epoch);
            assert_eq!(
                published.labeled().tree().snapshot(),
                writer.labeled().tree().snapshot(),
                "published tree equals writer tree at epoch {epoch}"
            );
            assert_order_is_sc_order(&published);
        }
        let stats = publisher.stats();
        assert!(
            stats.reclaimed >= 7,
            "with no readers, almost every publish reclaims: {stats:?}"
        );
    }

    #[test]
    fn held_snapshots_force_clones_but_stay_immutable() {
        let mut publisher = Publisher::new(base());
        let pinned = publisher.current();
        let elements_at_0 = pinned.elements();
        for epoch in 1..=4u64 {
            let m = mutation_for(&publisher.current(), epoch);
            publisher.publish(epoch, epoch, std::slice::from_ref(&m));
            assert_order_is_sc_order(&publisher.current());
        }
        // The reader's view never moved.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.elements(), elements_at_0);
        assert!(publisher.stats().cloned >= 1, "a held buffer forces the copy path");
        // Once released, the buffer becomes reclaimable again.
        drop(pinned);
        let before = publisher.stats().reclaimed;
        for epoch in 5..=8u64 {
            let m = mutation_for(&publisher.current(), epoch);
            publisher.publish(epoch, epoch, std::slice::from_ref(&m));
        }
        assert!(publisher.stats().reclaimed > before);
    }

    /// Replay-debt bound: the reclaim guard at `take_reclaimable` admits a
    /// lagging buffer only when the retained history reaches back to
    /// `lagging + 1` — one batch per missed epoch, never a gap. Driven
    /// well past `HISTORY_CAP` with a seeded pin/release pattern, every
    /// published snapshot must stay byte-identical to the writer's state:
    /// an off-by-one in the guard would let `catch_up` skip a pruned batch
    /// and publish a silently wrong document.
    #[test]
    fn reclaimed_buffers_never_replay_past_the_retained_history() {
        let mut publisher = Publisher::new(base());
        let mut writer = publisher.current();
        let mut pinned: Vec<(u64, Arc<EpochSnapshot>)> = Vec::new();
        for epoch in 1..=(HISTORY_CAP as u64 + 16) {
            // Seeded pin/release pattern: pin every 3rd epoch, hold each
            // pin for a pseudo-random 1..=13 epochs.
            pinned.retain(|&(release_at, _)| release_at > epoch);
            if epoch % 3 == 0 {
                let hold = 1 + (epoch * 7 + 3) % 13;
                pinned.push((epoch + hold, publisher.current()));
            }
            let m = mutation_for(&writer, epoch);
            writer = {
                let next = writer_apply(&writer, &m, epoch, epoch);
                publisher.publish(epoch, epoch, std::slice::from_ref(&m));
                Arc::new(next)
            };
            let published = publisher.current();
            assert_eq!(published.epoch(), epoch);
            assert_eq!(
                published.labeled().tree().snapshot(),
                writer.labeled().tree().snapshot(),
                "published tree diverged from the writer at epoch {epoch}"
            );
            assert_eq!(
                published.labeled().ordered_nodes(),
                writer.labeled().ordered_nodes(),
                "published document order diverged at epoch {epoch}"
            );
            assert_order_is_sc_order(&published);
            assert!(
                publisher.history.len() <= HISTORY_CAP,
                "history must stay bounded, holds {}",
                publisher.history.len()
            );
        }
        // History must stay a contiguous epoch suffix — the structural
        // fact the `lagging + 1` guard arithmetic rests on.
        for pair in publisher.history.make_contiguous().windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1, "history epochs must be gap-free");
        }
        let stats = publisher.stats();
        assert!(stats.reclaimed > 0, "the pattern must exercise the reclaim path");
        assert!(stats.cloned > 0, "the pattern must exercise the clone path");
    }

    /// Counter consistency: every publish is accounted exactly once, as
    /// either a reclaim or a clone — `reclaimed + cloned` equals the
    /// number of publishes regardless of how readers pin buffers.
    #[test]
    fn every_publish_is_counted_as_reclaim_or_clone() {
        let mut publisher = Publisher::new(base());
        let mut held = Vec::new();
        let mut publishes = 0u64;
        for epoch in 1..=20u64 {
            if epoch % 4 == 0 {
                held.push(publisher.current());
            }
            if epoch % 7 == 0 {
                held.clear();
            }
            let m = mutation_for(&publisher.current(), epoch);
            publisher.publish(epoch, epoch, std::slice::from_ref(&m));
            publishes += 1;
            let stats = publisher.stats();
            assert_eq!(
                stats.reclaimed + stats.cloned,
                publishes,
                "epoch {epoch}: a publish went uncounted or double-counted"
            );
        }
    }

    #[test]
    fn rank_outside_the_snapshot_is_u64_max() {
        let mut publisher = Publisher::new(base());
        // <r><a/><b><c/></b></r>: delete b's subtree.
        let elements: Vec<NodeId> = publisher.current().labeled().tree().elements().collect();
        let (b, c) = (elements[2], elements[3]);
        publisher.publish(1, 1, &[Mutation::Delete { target: b }]);
        let snap = publisher.current();
        assert_eq!(snap.rank(b), u64::MAX, "a deleted node ranks last, it does not panic");
        assert_eq!(snap.rank(c), u64::MAX, "so does every node of its subtree");
        assert_order_is_sc_order(&snap);
    }

    /// A subtree insert that fails after grafting its root leaves a gap in
    /// SC order where the root was. The column must follow, or the next
    /// insert, placed by SC order, lands on the wrong side of its anchor.
    #[test]
    fn a_failed_subtree_insert_keeps_the_column_on_sc_order() {
        let mut publisher = Publisher::new(base());
        // <r><a/><b><c/></b></r>: c has order 3 and self-label 5, so y
        // fits before it without an overflow relabel.
        let c = publisher.current().labeled().tree().elements().nth(3).unwrap();
        let batch = [
            Mutation::InsertSubtree { pos: InsertPos::Before(c), xml: "<y><z/></y>".into() },
            Mutation::InsertBefore { anchor: c, tag: "x".into() },
        ];
        // The second SC insert is z's: y is already in the table.
        xp_testkit::fault::arm("sc.insert:2");
        publisher.publish(1, 1, &batch);
        xp_testkit::fault::reset();
        let snap = publisher.current();
        assert!(snap.query(&Path::parse("//y").unwrap()).unwrap().is_empty(), "the graft failed");
        assert_order_is_sc_order(&snap);
        let order: Vec<String> = snap
            .query(&Path::parse("//*").unwrap())
            .unwrap()
            .into_iter()
            .map(|n| snap.labeled().tree().tag(n).unwrap().to_string())
            .collect();
        assert_eq!(order, ["r", "a", "b", "x", "c"]);
    }

    #[test]
    fn queries_run_against_the_published_epoch() {
        let mut publisher = Publisher::new(base());
        let path = Path::parse("//x").unwrap();
        assert_eq!(publisher.current().query(&path).unwrap().len(), 0);
        let m = mutation_for(&publisher.current(), 0);
        publisher.publish(1, 1, std::slice::from_ref(&m));
        assert_eq!(publisher.current().query(&path).unwrap().len(), 1);
    }
}
