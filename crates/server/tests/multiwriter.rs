//! Multi-writer convergence and cache-transparency differential.
//!
//! N seeded writer scripts (disjoint regions, private tag vocabularies —
//! see `xp_datagen::multiwriter`) are merged under sampled
//! order-preserving interleavings and pushed through two real epoch
//! loops, one with the query-result cache enabled and one without. Per
//! step, for every writer's full query mix (all nine axes):
//!
//! * the cached loop, the uncached loop, and a cold re-evaluation against
//!   the published snapshot must return byte-identical node lists — the
//!   cache must be semantically invisible;
//! * the published snapshot must answer like a relabel-from-scratch
//!   document over the same tree (the oracle that cannot be wrong).
//!
//! At the end both loops' documents must equal the direct-apply oracle,
//! and the cached loop must actually have *used* its cache (hits > 0) —
//! a vacuous pass where everything misses proves nothing.
//!
//! The final test pins the multi-document stats fix: snapshot-lifecycle
//! counters must sum over every publisher, so `reclaimed + cloned` equals
//! the total number of published epochs across all URIs, not just the
//! last-touched one's.

use std::sync::{mpsc, Arc};

use xp_datagen::multiwriter::{initial_tree, interleave, query_paths, scripted, TraceParams};
use xp_labelkit::{LabeledStore, Mutation};
use xp_prime::DynamicPrime;
use xp_query::engine::{eval_path, Path, TreeOrderOracle};
use xp_query::relstore::LabelTable;
use xp_query::TagFootprint;
use xp_server::epoch::{ApplyJob, BatchPolicy, Counters, EpochLoop};
use xp_server::protocol::{Request, Response};
use xp_store::{verify, Store};
use xp_xmltree::XmlTree;

const URI: &str = "doc.xml";

struct Loop {
    epoch: EpochLoop,
    counters: Arc<Counters>,
    dir: std::path::PathBuf,
}

fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xp-server-multiwriter-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_loop(label: &str, xml: &str, cache: bool) -> Loop {
    let dir = scratch_dir(label);
    let mut store = Store::create(&dir).unwrap();
    store.add_document(URI, xml, 4).unwrap();
    let policy = BatchPolicy { max_mutations: 1, checkpoint_after: None };
    let epoch = if cache {
        EpochLoop::start_with_cache(store, policy, 256)
    } else {
        EpochLoop::start(store, policy)
    };
    let counters = epoch.counters();
    Loop { epoch, counters, dir }
}

impl Loop {
    fn snapshot(&self) -> Arc<xp_server::snapshot::EpochSnapshot> {
        self.epoch.docs().read().unwrap().get(URI).cloned().unwrap()
    }

    fn apply(&self, bytes: &[u8], context: &str) -> Result<u64, String> {
        let req = Request::Apply { uri: URI.into(), mutations: vec![bytes.to_vec()] };
        match self.epoch.handle(req) {
            Response::Applied { results, .. } => {
                assert_eq!(results.len(), 1, "{context}: one mutation, one result");
                results.into_iter().next().unwrap()
            }
            other => panic!("{context}: apply got {other:?}"),
        }
    }

    fn query(&self, path: &str, context: &str) -> Vec<u64> {
        let req = Request::Query { uri: URI.into(), path: path.into() };
        match self.epoch.handle(req) {
            Response::Hits { nodes, .. } => nodes,
            other => panic!("{context}: query {path} got {other:?}"),
        }
    }
}

/// All-axes differential of a published snapshot against a
/// relabel-from-scratch labeling of the identical tree.
fn check_scratch_oracle(
    snap: &xp_server::snapshot::EpochSnapshot,
    paths: &[String],
    context: &str,
) {
    let tree = XmlTree::from_snapshot(&snap.labeled().tree().snapshot())
        .unwrap_or_else(|e| panic!("{context}: snapshot tree invalid: {e}"));
    let fresh = LabeledStore::build(DynamicPrime::new(8), tree)
        .unwrap_or_else(|e| panic!("{context}: scratch relabel failed: {e}"));
    let table = LabelTable::build(fresh.tree(), fresh.doc());
    let ranks = TreeOrderOracle::of(fresh.tree());
    for p in paths {
        let path = Path::parse(p).unwrap();
        let got = snap
            .query(&path)
            .unwrap_or_else(|e| panic!("{context}: snapshot query {p} failed: {e}"));
        let want = eval_path(&table, &ranks, &path)
            .unwrap_or_else(|e| panic!("{context}: oracle query {p} failed: {e}"));
        assert_eq!(got, want, "{context}: {p} diverged from the scratch oracle");
    }
}

#[test]
fn sampled_interleavings_converge_with_and_without_the_cache() {
    for seed in [0xA11CEu64, 0xB0B, 0xCAFE, 0xD00D] {
        let params =
            TraceParams { writers: 3, steps_per_writer: 5, region_breadth: 6, seed };
        let xml = xp_xmltree::serialize::to_string(&initial_tree(&params));
        let cached = start_loop(&format!("cached-{seed}"), &xml, true);
        let plain = start_loop(&format!("plain-{seed}"), &xml, false);
        let mut oracle =
            LabeledStore::build(DynamicPrime::new(4), xp_xmltree::parse(&xml).unwrap()).unwrap();
        let all_paths: Vec<String> =
            (0..params.writers).flat_map(query_paths).collect();

        let mut steps = vec![0usize; params.writers];
        for (i, &w) in interleave(&params).iter().enumerate() {
            let step = steps[w];
            steps[w] += 1;
            let ctx = format!("seed {seed:#x}, op {i} = writer {w} step {step}");

            // Both loops and the oracle must agree on the document before
            // the op — the mutation's NodeIds are meaningful to all three.
            let snap = cached.snapshot();
            assert_eq!(
                snap.labeled().tree().snapshot(),
                oracle.tree().snapshot(),
                "{ctx}: cached loop drifted before the op"
            );
            assert_eq!(
                plain.snapshot().labeled().tree().snapshot(),
                oracle.tree().snapshot(),
                "{ctx}: uncached loop drifted before the op"
            );
            let mutation = scripted(&params, w, step, oracle.tree());
            let mut bytes = Vec::new();
            mutation.encode(&mut bytes);

            let r_cached = cached.apply(&bytes, &ctx);
            let r_plain = plain.apply(&bytes, &ctx);
            let r_oracle = oracle.apply(&mutation);
            assert_eq!(r_cached.is_ok(), r_oracle.is_ok(), "{ctx}: cached vs oracle outcome");
            assert_eq!(r_plain.is_ok(), r_oracle.is_ok(), "{ctx}: uncached vs oracle outcome");

            // Every writer's full query mix: cached loop == uncached loop
            // == cold evaluation on the same snapshot, at every epoch.
            let snap = cached.snapshot();
            for path in &all_paths {
                let hot = cached.query(path, &ctx);
                let cold_loop = plain.query(path, &ctx);
                let parsed = Path::parse(path).unwrap();
                let cold: Vec<u64> = snap
                    .query(&parsed)
                    .unwrap_or_else(|e| panic!("{ctx}: cold {path} failed: {e}"))
                    .iter()
                    .map(|n| n.index() as u64)
                    .collect();
                assert_eq!(hot, cold, "{ctx}: cached answer for {path} differs from cold");
                assert_eq!(hot, cold_loop, "{ctx}: cached and uncached loops disagree on {path}");
            }
            check_scratch_oracle(&snap, &all_paths, &ctx);
        }

        // Convergence: both loops' final documents equal the direct oracle.
        verify::equivalent(cached.snapshot().labeled(), &oracle)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: cached loop diverged: {e}"));
        verify::equivalent(plain.snapshot().labeled(), &oracle)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: uncached loop diverged: {e}"));

        // The run must have exercised the cache, and the uncached loop must
        // not have touched one.
        let hot_stats = cached.counters.stats();
        assert!(hot_stats.cache_hits > 0, "seed {seed:#x}: the cache never hit");
        assert!(hot_stats.cache_misses > 0, "seed {seed:#x}: the cache never missed");
        let cold_stats = plain.counters.stats();
        assert_eq!(cold_stats.cache_hits + cold_stats.cache_misses, 0);

        for l in [cached, plain] {
            l.epoch.shutdown();
            let _ = std::fs::remove_dir_all(&l.dir);
        }
    }
}

/// Per-label invalidation, demonstrated: after warming every writer's
/// queries, a mutation confined to writer 0's region must leave every
/// other writer's entry with a non-wildcard footprint hot — their tag
/// footprints are disjoint from everything the relabel touched. Upward
/// `*` steps (`parent::*`, `ancestor-or-self::*`) count among them.
#[test]
fn cache_hits_survive_mutations_to_disjoint_regions() {
    let params = TraceParams { writers: 3, steps_per_writer: 4, region_breadth: 8, seed: 77 };
    let xml = xp_xmltree::serialize::to_string(&initial_tree(&params));
    let server = start_loop("disjoint", &xml, true);

    // Warm: first round inserts, second round must hit across the board.
    for round in 0..2 {
        for w in 0..params.writers {
            for path in query_paths(w) {
                server.query(&path, &format!("warm round {round}"));
            }
        }
    }
    let warmed = server.counters.stats();
    let wildcard_per_writer = query_paths(0)
        .iter()
        .filter(|p| TagFootprint::of_path(&Path::parse(p).unwrap()).wildcard)
        .count() as u64;
    let cacheable_per_writer = query_paths(0).len() as u64 - wildcard_per_writer;
    assert_eq!(cacheable_per_writer, 11, "every path of the mix survives disjoint mutations");
    // No epoch advanced between the rounds, so round two hits on every
    // path — wildcard entries would only die at the next invalidation.
    assert_eq!(
        warmed.cache_hits,
        params.writers as u64 * query_paths(0).len() as u64,
        "round two must hit across the board"
    );

    // One mutation inside writer 0's region only.
    let snap = server.snapshot();
    let mutation = scripted(&params, 0, 0, snap.labeled().tree());
    let mut bytes = Vec::new();
    mutation.encode(&mut bytes);
    server.apply(&bytes, "disjoint mutation").unwrap_or_else(|e| panic!("apply failed: {e}"));

    // Writers 1 and 2: every cacheable entry must still be hot.
    let before = server.counters.stats();
    for w in 1..params.writers {
        for path in query_paths(w) {
            server.query(&path, "post-mutation survivor");
        }
    }
    let after = server.counters.stats();
    assert_eq!(
        after.cache_hits - before.cache_hits,
        (params.writers as u64 - 1) * cacheable_per_writer,
        "a mutation in region 0 must not evict other writers' entries"
    );

    // And the surviving answers are still correct: byte-identical to cold.
    let snap = server.snapshot();
    for w in 0..params.writers {
        for path in query_paths(w) {
            let hot = server.query(&path, "post-mutation differential");
            let parsed = Path::parse(&path).unwrap();
            let cold: Vec<u64> =
                snap.query(&parsed).unwrap().iter().map(|n| n.index() as u64).collect();
            assert_eq!(hot, cold, "stale cached answer for {path}");
        }
    }

    server.epoch.shutdown();
    let _ = std::fs::remove_dir_all(&server.dir);
}

/// Regression: with several documents behind one epoch loop, the
/// snapshot-lifecycle counters must sum over every publisher. (They used
/// to be overwritten with whichever document published last, so
/// `reclaimed + cloned` under-counted the published epochs.)
#[test]
fn snapshot_counters_sum_over_every_document() {
    let dir = scratch_dir("multidoc");
    let mut store = Store::create(&dir).unwrap();
    store.add_document("a.xml", "<t0><t1/><t2/></t0>", 4).unwrap();
    store.add_document("b.xml", "<t0><t1/><t2/></t0>", 4).unwrap();
    let epoch = EpochLoop::start(store, BatchPolicy { max_mutations: 1, checkpoint_after: None });
    let docs = epoch.docs();

    let mut published = 0u64;
    for (uri, batches) in [("a.xml", 3u64), ("b.xml", 2u64)] {
        for _ in 0..batches {
            let snap = docs.read().unwrap().get(uri).cloned().unwrap();
            let anchor = snap.labeled().tree().elements().nth(1).unwrap();
            let mutation = Mutation::InsertBefore { anchor, tag: "t1".into() };
            let mut bytes = Vec::new();
            mutation.encode(&mut bytes);
            let (tx, rx) = mpsc::sync_channel(1);
            epoch
                .submit(ApplyJob { uri: uri.into(), mutations: vec![bytes], reply: tx })
                .unwrap_or_else(|_| panic!("epoch loop died"));
            rx.recv().unwrap();
            published += 1;

            let stats = epoch.counters().stats();
            assert_eq!(
                stats.snapshots_reclaimed + stats.snapshots_cloned,
                published,
                "after {published} epochs across two documents"
            );
        }
    }

    epoch.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
