//! The document kinds the epoch loop serves.
//!
//! [`crate::epoch::EpochLoop`] is written once: it owns batching under
//! [`crate::epoch::BatchPolicy`], rejection codes, epoch numbering, the
//! cache `advance` before each swap, counters and per-job replies. What
//! differs between a flat store of many documents and one sharded
//! document sits behind [`DocKind`]:
//!
//! * **flat** ([`Store`]) — commit is [`Store::apply_batch`]; touched tags
//!   come from the batch's relabel reports; each URI's [`Publisher`]
//!   publishes by catching up a retired snapshot or cloning the current
//!   one.
//! * **sharded** ([`ShardedDocStore`]) — commit is
//!   [`ShardedDocStore::apply_batch`] (one fsync, applies fanned across
//!   shards in parallel, then the split pass) followed by
//!   [`ShardedTables::refresh`], which rebuilds exactly the partitions of
//!   the dirtied shards (label cascades included) and drops dead ones;
//!   touched tags are those partitions' tag vocabulary; publish composes
//!   one [`ShardedEpochSnapshot`] covering all shards.

use std::collections::HashMap;
use std::sync::Arc;

use xp_labelkit::{DynamicError, Mutation, RelabelReport};
use xp_prime::PrimeLabel;
use xp_query::{ShardedTables, TouchedTags};
use xp_store::{ShardedDocStore, Store, StoreError};
use xp_xmltree::XmlTree;

use crate::epoch::Snapshots;
use crate::snapshot::{EpochSnapshot, PublishStats, Publisher, ShardedEpochSnapshot, Snapshot};

/// One result per committed mutation, in batch order: the scheme's relabel
/// report, or its error. A failed mutation still consumed a sequence
/// number and re-fails identically on replay.
pub type MutationResults = Vec<Result<RelabelReport, DynamicError>>;

/// A store the epoch loop can serve, plus how it publishes.
pub trait DocKind: Sized + Send + 'static {
    /// The immutable view readers query, one per document per epoch.
    type Snapshot: Snapshot;
    /// What the writer keeps beside the store to publish: the flat kind's
    /// per-URI publishers, the sharded kind's table partitions.
    type Publishing: Send + 'static;

    /// Builds the publishing state and every document's epoch-0 snapshot.
    fn start_publishing(&self) -> (Self::Publishing, Snapshots<Self::Snapshot>);

    /// The live tree of `uri`, which wire mutations decode against; `None`
    /// if the store holds no such document.
    fn tree(&self, uri: &str) -> Option<&XmlTree>;

    /// Group commit plus apply: logs `batch` under one WAL fsync, then
    /// applies it in order. With `track_tags` the returned [`TouchedTags`]
    /// hold every tag the batch may have changed (the cache's invalidation
    /// set); without, they are empty. A WAL-level error aborts the batch
    /// before any in-memory change and rolls the log back, so the loop can
    /// keep serving.
    fn commit(
        &mut self,
        publishing: &mut Self::Publishing,
        uri: &str,
        batch: &[Mutation],
        track_tags: bool,
    ) -> Result<(MutationResults, TouchedTags), StoreError>;

    /// Publishes `uri`'s state after the last commit as `epoch`; `batch` is
    /// exactly what that commit logged.
    fn publish(
        &self,
        publishing: &mut Self::Publishing,
        uri: &str,
        epoch: u64,
        batch: &[Mutation],
    ) -> Option<Arc<Self::Snapshot>>;

    /// Mutations of `uri` logged since its last checkpoint.
    fn wal_tail(&self, uri: &str) -> u64;

    /// Folds `uri`'s WAL tail into a checkpoint.
    fn checkpoint(&mut self, uri: &str) -> Result<(), StoreError>;

    /// Data syncs the WAL has issued.
    fn wal_fsyncs(&self) -> u64;

    /// How snapshots have been produced so far, over every document.
    fn publish_stats(publishing: &Self::Publishing) -> PublishStats;
}

impl DocKind for Store {
    type Snapshot = EpochSnapshot;
    type Publishing = HashMap<String, Publisher>;

    fn start_publishing(&self) -> (HashMap<String, Publisher>, Snapshots<EpochSnapshot>) {
        let mut publishers = HashMap::new();
        let mut initial = HashMap::new();
        for doc in self.docs() {
            let snap = EpochSnapshot::new(0, doc.seq(), doc.labeled().fork(), doc.table().clone());
            let publisher = Publisher::new(snap);
            initial.insert(doc.uri().to_owned(), publisher.current());
            publishers.insert(doc.uri().to_owned(), publisher);
        }
        (publishers, initial)
    }

    fn tree(&self, uri: &str) -> Option<&XmlTree> {
        self.doc(uri).map(|doc| doc.tree())
    }

    fn commit(
        &mut self,
        _: &mut HashMap<String, Publisher>,
        uri: &str,
        batch: &[Mutation],
        track_tags: bool,
    ) -> Result<(MutationResults, TouchedTags), StoreError> {
        let results = self.apply_batch(uri, batch)?;
        let mut touched = TouchedTags::new();
        if track_tags {
            // Tag attribution comes from the relabel reports, resolved
            // against the post-apply tree (removed subtrees keep their arena
            // tags); a failed mutation's effects cannot be attributed, so it
            // flushes the cache wholesale.
            match self.doc(uri) {
                Some(doc) => {
                    for r in &results {
                        match r {
                            Ok(report) => touched.add_report(report, doc.tree()),
                            Err(_) => touched.mark_unknown(),
                        }
                    }
                }
                None => touched.mark_unknown(),
            }
        }
        Ok((results, touched))
    }

    fn publish(
        &self,
        publishers: &mut HashMap<String, Publisher>,
        uri: &str,
        epoch: u64,
        batch: &[Mutation],
    ) -> Option<Arc<EpochSnapshot>> {
        let seq = self.doc(uri)?.seq();
        Some(publishers.get_mut(uri)?.publish(epoch, seq, batch))
    }

    fn wal_tail(&self, uri: &str) -> u64 {
        self.doc(uri).map_or(0, |doc| doc.seq().saturating_sub(doc.durable_seq()))
    }

    fn checkpoint(&mut self, uri: &str) -> Result<(), StoreError> {
        Store::checkpoint(self, uri)
    }

    fn wal_fsyncs(&self) -> u64 {
        Store::wal_fsyncs(self)
    }

    fn publish_stats(publishers: &HashMap<String, Publisher>) -> PublishStats {
        // Sum over *every* document's publisher, so `reclaimed + cloned`
        // counts every published epoch however many URIs the store serves.
        let mut total = PublishStats::default();
        for stats in publishers.values().map(Publisher::stats) {
            total.reclaimed += stats.reclaimed;
            total.cloned += stats.cloned;
        }
        total
    }
}

impl DocKind for ShardedDocStore {
    type Snapshot = ShardedEpochSnapshot;
    type Publishing = ShardedTables<PrimeLabel>;

    fn start_publishing(&self) -> (ShardedTables<PrimeLabel>, Snapshots<ShardedEpochSnapshot>) {
        let tables = ShardedTables::build(self.labeled());
        let initial = Arc::new(ShardedEpochSnapshot::new(self, &tables, 0));
        (tables, HashMap::from([(self.uri().to_owned(), initial)]))
    }

    fn tree(&self, uri: &str) -> Option<&XmlTree> {
        (uri == self.uri()).then(|| self.labeled().tree())
    }

    fn commit(
        &mut self,
        tables: &mut ShardedTables<PrimeLabel>,
        _: &str,
        batch: &[Mutation],
        track_tags: bool,
    ) -> Result<(MutationResults, TouchedTags), StoreError> {
        let outcome = self.apply_batch(batch)?;
        let mut touched = TouchedTags::new();
        if track_tags && outcome.results.iter().any(Result::is_err) {
            // A failed mutation's partial effects cannot be attributed.
            touched.mark_unknown();
        }
        tables.refresh(self.labeled(), &outcome.dirty, track_tags.then_some(&mut touched));
        Ok((outcome.results, touched))
    }

    fn publish(
        &self,
        tables: &mut ShardedTables<PrimeLabel>,
        _: &str,
        epoch: u64,
        _: &[Mutation],
    ) -> Option<Arc<ShardedEpochSnapshot>> {
        Some(Arc::new(ShardedEpochSnapshot::new(self, tables, epoch)))
    }

    fn wal_tail(&self, _: &str) -> u64 {
        self.seq().saturating_sub(self.durable_seq())
    }

    fn checkpoint(&mut self, _: &str) -> Result<(), StoreError> {
        ShardedDocStore::checkpoint(self)
    }

    fn wal_fsyncs(&self) -> u64 {
        ShardedDocStore::wal_fsyncs(self)
    }

    fn publish_stats(_: &ShardedTables<PrimeLabel>) -> PublishStats {
        // Every publish composes a fresh snapshot; nothing is reclaimed or
        // cloned.
        PublishStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::mpsc;
    use xp_labelkit::{InsertPos, LabeledStore, ShardPolicy};
    use xp_prime::DynamicPrime;
    use xp_query::engine::{eval_path, OrderOracle, Path, MAX_STEPS};
    use xp_query::relstore::LabelTable;
    use xp_xmltree::NodeId;

    use crate::epoch::{ApplyJob, ApplyOutcome, BatchPolicy, EpochLoop};
    use crate::protocol::{ErrCode, Request, Response};
    use crate::server::handle_request;

    const URI: &str = "doc";
    const SAMPLE: &str = "<lib><shelf><book><title>a</title><title>b</title></book><book/></shelf>\
                          <shelf><case><book/><book/></case></shelf><attic><box/></attic></lib>";

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xp-kind-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_tree() -> XmlTree {
        xp_xmltree::parse(SAMPLE).unwrap()
    }

    fn sharded_store(dir: &std::path::Path) -> ShardedDocStore {
        ShardedDocStore::create(dir, URI, sample_tree(), 8, ShardPolicy::at_depth(2)).unwrap()
    }

    fn start(name: &str) -> (EpochLoop<ShardedDocStore>, PathBuf) {
        let dir = tmpdir(name);
        (EpochLoop::start(sharded_store(&dir), BatchPolicy::default()), dir)
    }

    fn snapshot<K: DocKind>(lp: &EpochLoop<K>) -> Arc<K::Snapshot> {
        Arc::clone(&lp.docs().read().unwrap()[URI])
    }

    /// The first node `path` selects in the latest published snapshot.
    fn first<K: DocKind>(lp: &EpochLoop<K>, path: &str) -> NodeId {
        snapshot(lp).query(&Path::parse(path).unwrap()).unwrap()[0]
    }

    /// Submits `mutations`, wire-encoded, as one job and waits for the
    /// writer's reply.
    fn apply<K: DocKind>(
        lp: &EpochLoop<K>,
        mutations: &[Mutation],
    ) -> (u64, u64, Vec<Result<u64, String>>) {
        let encoded = mutations
            .iter()
            .map(|m| {
                let mut bytes = Vec::new();
                m.encode(&mut bytes);
                bytes
            })
            .collect();
        let (tx, rx) = mpsc::sync_channel(1);
        lp.submit(ApplyJob { uri: URI.into(), mutations: encoded, reply: tx }).ok().unwrap();
        match rx.recv().unwrap() {
            ApplyOutcome::Applied { epoch, seq, results } => (epoch, seq, results),
            ApplyOutcome::Rejected { code, msg } => panic!("rejected ({code:?}): {msg}"),
        }
    }

    /// Answers `path` through the request handler, as a connection does.
    fn query<K: DocKind>(lp: &EpochLoop<K>, path: &str) -> Vec<u64> {
        let req = Request::Query { uri: URI.into(), path: path.into() };
        match handle_request(req, &lp.docs(), lp.caches().as_ref(), &lp.sender(), &lp.counters()) {
            Response::Hits { nodes, .. } => nodes,
            other => panic!("query {path} got {other:?}"),
        }
    }

    /// Evaluates `path` cold against the latest published snapshot.
    fn cold<K: DocKind>(lp: &EpochLoop<K>, path: &str) -> Vec<u64> {
        let nodes = snapshot(lp).query(&Path::parse(path).unwrap()).unwrap();
        nodes.iter().map(|n| n.index() as u64).collect()
    }

    /// Every path in `paths` must answer through the request handler
    /// exactly as an unsharded prime document (SC chunk `chunk`) over
    /// `tree` answers after `muts`, ranked by its own SC order.
    fn assert_serves_like_oracle<K: DocKind>(
        lp: &EpochLoop<K>,
        tree: XmlTree,
        chunk: usize,
        muts: &[Mutation],
        paths: &[&str],
    ) {
        let mut oracle = LabeledStore::build(DynamicPrime::new(chunk), tree).unwrap();
        for m in muts {
            oracle.apply(m).unwrap();
        }
        let otable = LabelTable::build(oracle.tree(), oracle.doc());
        struct O<'a>(&'a LabeledStore<DynamicPrime>);
        impl OrderOracle for O<'_> {
            fn rank(&self, n: NodeId) -> u64 {
                self.0.state().order_of(n)
            }
        }
        for q in paths {
            let want: Vec<u64> = eval_path(&otable, &O(&oracle), &Path::parse(q).unwrap())
                .unwrap()
                .iter()
                .map(|n| n.index() as u64)
                .collect();
            assert_eq!(query(lp, q), want, "query {q}");
        }
    }

    #[test]
    fn one_batch_fans_across_shards_into_one_snapshot() {
        let (lp, dir) = start("fan");
        let snap0 = snapshot(&lp);
        assert!(snap0.shards().len() > 2);
        assert_eq!(snap0.table().len() as u64, snap0.elements());

        // Three mutations in three different shards, one job. Anchors are
        // resolved against the published snapshot — the writer's tree is
        // identical (single writer, no batch in flight yet).
        let title = first(&lp, "//title");
        let case = first(&lp, "//case");
        let bx = first(&lp, "//box");
        let muts = vec![
            Mutation::InsertBefore { anchor: title, tag: "neu".into() },
            Mutation::InsertSubtree {
                pos: InsertPos::LastChildOf(case),
                xml: "<disc><trk/></disc>".into(),
            },
            Mutation::InsertBefore { anchor: bx, tag: "crate".into() },
        ];
        let (epoch, seq, results) = apply(&lp, &muts);
        assert_eq!(epoch, snap0.epoch() + 1, "one batch publishes exactly one epoch");
        assert_eq!(seq, 3);
        assert!(results.iter().all(Result::is_ok));

        // The published snapshot answers cross-shard queries identically
        // to an unsharded oracle over the same mutations.
        let snap = snapshot(&lp);
        assert_eq!(snap.epoch(), epoch);
        let paths = ["//book", "//title", "/lib/shelf", "//book/following-sibling::*", "//neu"];
        assert_serves_like_oracle(&lp, sample_tree(), 8, &muts, &paths);

        // Old snapshot still answers the pre-batch state.
        assert_eq!(snap0.elements() + 4, snap.elements());
        let store = lp.shutdown().unwrap();
        assert_eq!(store.seq(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_after_shutdown_folds_the_wal_and_survives_restart() {
        let (lp, dir) = start("ckpt");
        let title = first(&lp, "//title");
        let neu = Mutation::InsertBefore { anchor: title, tag: "neu".into() };
        let (_, seq, _) = apply(&lp, &[neu]);
        let mut store = lp.shutdown().unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.durable_seq(), seq, "checkpoint folded the batch");
        let elements = store.labeled().doc().nodes().len();
        drop(store);

        let back = ShardedDocStore::open(&dir).unwrap();
        assert_eq!(back.durable_seq(), seq);
        assert_eq!(back.labeled().doc().nodes().len(), elements);
        // Restarting the loop over the recovered store publishes a
        // snapshot that sees the mutation.
        let lp2 = EpochLoop::start(back, BatchPolicy::default());
        assert_eq!(query(&lp2, "//neu").len(), 1);
        drop(lp2.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_answers_match_cold_evaluation_and_survive_disjoint_shards() {
        let dir = tmpdir("cache");
        let lp = EpochLoop::start_with_cache(sharded_store(&dir), BatchPolicy::default(), 64);
        let stats = |lp: &EpochLoop<ShardedDocStore>| lp.counters().stats();

        // Warm three entries (all misses), then re-query (all hits); every
        // answer must be byte-identical to cold evaluation on the snapshot.
        let warm = ["//attic/box", "//case", "//book"];
        for pass in 0..2 {
            for p in warm {
                assert_eq!(query(&lp, p), cold(&lp, p), "pass {pass} path {p}");
            }
        }
        let s0 = stats(&lp);
        assert_eq!((s0.cache_misses, s0.cache_hits), (3, 3));

        // A batch inside a book-under-shelf shard touches tags {book,
        // title} only. `//book` must die; `//attic/box` and `//case` have
        // disjoint footprints (the *case* partition contains books, but
        // the batch never dirtied it) and must keep hitting.
        let title = first(&lp, "//title");
        apply(&lp, &[Mutation::InsertBefore { anchor: title, tag: "title".into() }]);
        for p in warm {
            assert_eq!(query(&lp, p), cold(&lp, p), "post-batch path {p}");
        }
        let s1 = stats(&lp);
        assert_eq!(s1.cache_hits, s0.cache_hits + 2, "disjoint-shard entries survive the epoch");
        assert_eq!(s1.cache_misses, s0.cache_misses + 1, "only the touched tag re-evaluates");

        // A failing mutation cannot attribute its partial effects, so the
        // whole cache flushes: everything re-misses, still byte-identical.
        let root_target = first(&lp, "/lib");
        let (_, _, results) = apply(&lp, &[Mutation::Delete { target: root_target }]);
        assert!(results[0].is_err());
        for p in warm {
            assert_eq!(query(&lp, p), cold(&lp, p), "post-flush path {p}");
        }
        let s2 = stats(&lp);
        assert_eq!(s2.cache_misses, s1.cache_misses + 3, "a rejected mutation flushes the cache");
        drop(lp.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_mutations_report_per_mutation_not_per_batch() {
        let (lp, dir) = start("mixed");
        let title = first(&lp, "//title");
        let root_target = first(&lp, "/lib");
        let (_, _, results) = apply(
            &lp,
            &[
                Mutation::InsertBefore { anchor: title, tag: "ok".into() },
                Mutation::Delete { target: root_target }, // root delete must fail
                Mutation::InsertBefore { anchor: title, tag: "ok2".into() },
            ],
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert_eq!(query(&lp, "//ok").len(), 1);
        assert_eq!(query(&lp, "//ok2").len(), 1);
        drop(lp.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A front insert into the top shard relabels an overflow victim's
    /// subtree up to a stub, which changes every label in the shard below
    /// it. That shard's partition must be refreshed (and its cached
    /// answers dropped) although the mutation never touched its content.
    #[test]
    fn a_stub_relabel_cascade_is_served_fresh() {
        let tree = xp_xmltree::parse(
            "<t0><t0><t0><t1/></t0></t0><t1/><t2/><t3/><t2/><t3/><t0/><t1/><t2/></t0>",
        )
        .unwrap();
        let dir = tmpdir("cascade");
        let store =
            ShardedDocStore::create(&dir, URI, tree.clone(), 3, ShardPolicy::at_depth(2)).unwrap();
        let lp = EpochLoop::start_with_cache(store, BatchPolicy::default(), 64);
        let paths = ["//t1/ancestor::*", "//t1/ancestor-or-self::*", "//t0//t1"];
        for p in paths {
            query(&lp, p);
        }
        let anchor = first(&lp, "/t0/t0");
        let muts = [Mutation::InsertBefore { anchor, tag: "t1".into() }];
        let (_, _, results) = apply(&lp, &muts);
        assert!(results[0].is_ok());
        assert_serves_like_oracle(&lp, tree, 3, &muts, &paths);
        drop(lp.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Upward steps cache under their context's tags only, so wrapping an
    /// ancestor of `t1` nodes in a fresh `t9`, which no warmed path names,
    /// must still drop every warmed entry over `t1`: the wrap changes
    /// those nodes' ancestor sets, and the report (flat) or the stub
    /// cascade's dirty shards (sharded) name them. The first wrap sits
    /// above a stub at every cut depth.
    #[test]
    fn wrapping_an_ancestor_refreshes_upward_step_answers() {
        const XML: &str = "<t0><t0><t2><t0><t1/><t3/></t0><t1/></t2><t1/></t0>\
                           <t3><t1/></t3><t0><t2><t1/></t2></t0></t0>";
        const PATHS: [&str; 6] = [
            "//t1/parent::*",
            "//t1/ancestor::*",
            "//t1/ancestor-or-self::*",
            "//t1/ancestor::t9",
            "//t1/ancestor-or-self::t0[1]",
            "//t0//t1",
        ];
        fn check<K: DocKind>(lp: EpochLoop<K>) {
            for _ in 0..2 {
                for p in PATHS {
                    query(&lp, p);
                }
            }
            assert_eq!(lp.counters().stats().cache_hits, PATHS.len() as u64, "warm pass hits");
            // In document order: the root, then <t0>, <t2>, <t0>, <t3>,
            // <t0>, <t2>. Wrap the first <t0> (depth 1), the second (depth
            // 3) and the last <t2> (depth 2).
            let ancestors = snapshot(&lp).query(&Path::parse("//t1/ancestor::*").unwrap()).unwrap();
            assert_eq!(ancestors.len(), 7);
            let mut muts = Vec::new();
            for target in [ancestors[1], ancestors[3], ancestors[6]] {
                let wrap = Mutation::InsertParent { target, tag: "t9".into() };
                let (_, _, results) = apply(&lp, std::slice::from_ref(&wrap));
                assert!(results[0].is_ok());
                muts.push(wrap);
                assert_serves_like_oracle(&lp, xp_xmltree::parse(XML).unwrap(), 3, &muts, &PATHS);
            }
            drop(lp.shutdown());
        }

        let flat_dir = tmpdir("wrap-flat");
        let mut flat = Store::create(&flat_dir).unwrap();
        flat.add_document(URI, XML, 3).unwrap();
        check(EpochLoop::start_with_cache(flat, BatchPolicy::default(), 64));
        let _ = std::fs::remove_dir_all(&flat_dir);
        for depth in 1..=3 {
            let dir = tmpdir(&format!("wrap-sharded-{depth}"));
            let tree = xp_xmltree::parse(XML).unwrap();
            let store =
                ShardedDocStore::create(&dir, URI, tree, 3, ShardPolicy::at_depth(depth)).unwrap();
            check(EpochLoop::start_with_cache(store, BatchPolicy::default(), 64));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A batch that grows a shard past the size bound splits it inside the
    /// commit; the published snapshot covers the new shard and answers
    /// like the unsharded oracle.
    #[test]
    fn a_batch_that_splits_a_shard_is_served_like_the_oracle() {
        let dir = tmpdir("split");
        let policy = ShardPolicy::at_depth(2).with_max_shard_nodes(4);
        let store = ShardedDocStore::create(&dir, URI, sample_tree(), 8, policy).unwrap();
        let lp = EpochLoop::start(store, BatchPolicy::default());
        let before = snapshot(&lp).shards().len();
        let case = first(&lp, "//case");
        let muts = [Mutation::InsertSubtree {
            pos: InsertPos::LastChildOf(case),
            xml: "<disc><trk/><trk/></disc>".into(),
        }];
        let (_, _, results) = apply(&lp, &muts);
        assert!(results[0].is_ok());
        assert!(snapshot(&lp).shards().len() > before, "the batch must split the case shard");
        let paths = ["//book", "//case//trk", "//trk/ancestor::*", "//trk/following::*"];
        assert_serves_like_oracle(&lp, sample_tree(), 8, &muts, &paths);
        drop(lp.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both kinds count published epochs from 0, and a job with nothing to
    /// log publishes nothing: the next committed batch is exactly one
    /// epoch later.
    #[test]
    fn an_empty_job_does_not_skip_an_epoch() {
        fn check<K: DocKind>(lp: EpochLoop<K>) {
            assert_eq!(snapshot(&lp).epoch(), 0, "epochs count from 0");
            let (epoch, _, results) = apply(&lp, &[]);
            assert_eq!((epoch, results.len()), (0, 0), "an empty job publishes nothing");
            let anchor = first(&lp, "//title");
            let (epoch, _, _) = apply(&lp, &[Mutation::InsertBefore { anchor, tag: "n".into() }]);
            assert_eq!(epoch, 1, "the next batch advances the epoch by exactly one");
            assert_eq!(snapshot(&lp).epoch(), 1);
            drop(lp.shutdown());
        }

        let flat_dir = tmpdir("empty-flat");
        let mut flat = Store::create(&flat_dir).unwrap();
        flat.add_document(URI, SAMPLE, 8).unwrap();
        check(EpochLoop::start(flat, BatchPolicy::default()));
        let sharded_dir = tmpdir("empty-sharded");
        check(EpochLoop::start(sharded_store(&sharded_dir), BatchPolicy::default()));
        let _ = std::fs::remove_dir_all(&flat_dir);
        let _ = std::fs::remove_dir_all(&sharded_dir);
    }

    /// Every served query runs under the engine's one step budget: on the
    /// same snapshot, a path of exactly `MAX_STEPS` steps answers and one
    /// step more is refused with a typed `QueryLimit`.
    #[test]
    fn the_step_budget_holds_through_the_request_handler() {
        let dir = tmpdir("budget");
        let mut flat = Store::create(&dir).unwrap();
        flat.add_document(URI, SAMPLE, 8).unwrap();
        let lp = EpochLoop::start(flat, BatchPolicy::default());
        let path = |steps: usize| format!("/lib{}", "/ancestor-or-self::lib".repeat(steps - 1));
        let ask = |steps: usize| {
            let req = Request::Query { uri: URI.into(), path: path(steps) };
            handle_request(req, &lp.docs(), lp.caches().as_ref(), &lp.sender(), &lp.counters())
        };
        let root = query(&lp, "/lib");
        assert_eq!(root.len(), 1);
        match ask(MAX_STEPS) {
            Response::Hits { nodes, epoch, .. } => assert_eq!((nodes, epoch), (root, 0)),
            other => panic!("{MAX_STEPS} steps got {other:?}"),
        }
        match ask(MAX_STEPS + 1) {
            Response::Err { code: ErrCode::QueryLimit, .. } => {}
            other => panic!("{} steps got {other:?}", MAX_STEPS + 1),
        }
        assert_eq!(snapshot(&lp).epoch(), 0, "both paths ran on the same snapshot");
        drop(lp.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
