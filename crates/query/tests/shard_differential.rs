//! Sharded-document differential property test: random mutation scripts
//! run lockstep through a sharded prime store ([`ShardedPrime`]) and the
//! unsharded [`DynamicPrime`] oracle. After every mutation (and the split
//! pass the store runs after each batch) the per-shard [`ShardedTables`]
//! partitions are refreshed the way the server refreshes them — from the
//! drained dirty set, through [`ShardedTables::refresh`] — and must hold
//! exactly what a from-scratch build holds; composed, they must answer all
//! nine query axes (plus positional steps) byte-identically to a table
//! over the unsharded oracle's labels, at `XP_THREADS ∈ {1, 2, 8}`. One of
//! the three layouts bounds shard size, so splits run under the gate too.
//! A second property pins the batch applier: `apply_batch_sharded` must
//! leave the same tree, labels, and document order as the per-mutation
//! facade at every thread count.
//!
//! The final `shard_env_matrix` test is the CI hook: with
//! `XP_FAULT=<site>:<n>` armed, the sharded pipeline (per-op and batch,
//! which falls back to sequential per-shard application under faults) must
//! never panic, and whatever state survives must keep labels consistent
//! with the tree.

use std::panic::{catch_unwind, AssertUnwindSafe};
use xp_labelkit::{
    apply_batch_sharded, maintain_shards, take_dirty_shards, InsertPos, LabelOps, LabeledStore,
    Mutation, ShardId, ShardPolicy, ShardedLabel,
};
use xp_prime::{DynamicPrime, PrimeLabel, ShardedPrime};
use xp_query::engine::{eval_path, Path, TreeOrderOracle};
use xp_query::relstore::LabelTable;
use xp_query::sharded::ShardedTables;
use xp_testkit::propcheck::{usizes, vec_of, Gen};
use xp_testkit::{fault, prop_assert, propcheck};
use xp_xmltree::{NodeId, XmlTree};

/// Random tree over tags `t0..t3` (root `t0`), like the join tests use.
fn tree_strategy(max_nodes: usize) -> Gen<XmlTree> {
    vec_of(usizes(0..1 << 16), 0..max_nodes).map(|attach| {
        let mut tree = XmlTree::new("t0");
        let mut nodes = vec![tree.root()];
        for (i, seed) in attach.into_iter().enumerate() {
            let parent = nodes[seed % nodes.len()];
            let child = tree.append_element(parent, format!("t{}", i % 4));
            nodes.push(child);
        }
        tree
    })
}

/// One query per axis the engine supports, plus positional steps: a
/// first-step `[n]` and a mid-path `[n]` on every axis, so the one-pass
/// positional join runs on the composed partition table.
const PATHS: &[&str] = &[
    "//t0/t1",
    "/t0//t2",
    "//t2/parent::*",
    "//t3/ancestor::t1",
    "//t1/ancestor-or-self::*",
    "//t0/following::t1",
    "//t2/preceding::t1",
    "//t1/following-sibling::t2",
    "//t2/preceding-sibling::t1",
    "//t1[2]",
    "//t0/t1[2]",
    "//t0//t2[2]",
    "//t0/following::t1[1]",
    "//t2/preceding::t1[2]",
    "//t1/following-sibling::t2[1]",
    "//t2/preceding-sibling::t1[2]",
    "//t2/parent::*[1]",
    "//t3/ancestor::*[1]",
    "//t1/ancestor-or-self::*[2]",
];

/// Picks the `pick`-th non-root element, if the document has one.
fn non_root(tree: &XmlTree, pick: usize) -> Option<NodeId> {
    let n = tree.elements().count();
    if n < 2 {
        return None;
    }
    tree.elements().nth(1 + pick % (n - 1))
}

/// Derives one typed mutation from a seed against the current tree, so the
/// identical `Mutation` value drives the sharded store, the unsharded
/// oracle, and the batch applier. Returns `None` when the tree is too small
/// for the drawn shape.
fn random_mutation(tree: &XmlTree, seed: usize) -> Option<Mutation> {
    let n = tree.elements().count();
    let pick = seed / 8;
    Some(match seed % 8 {
        0 | 1 => Mutation::InsertBefore { anchor: non_root(tree, pick)?, tag: "t1".into() },
        2 => {
            let pos = match non_root(tree, pick) {
                Some(anchor) if pick % 2 == 0 => InsertPos::Before(anchor),
                _ => InsertPos::LastChildOf(tree.elements().nth(pick % n)?),
            };
            Mutation::InsertSubtree { pos, xml: "<t1><t2/><t3/></t1>".into() }
        }
        3 => Mutation::InsertParent { target: non_root(tree, pick)?, tag: "t2".into() },
        4 | 5 => {
            if n < 3 {
                return None;
            }
            Mutation::Delete { target: non_root(tree, pick)? }
        }
        _ => {
            let target = non_root(tree, pick)?;
            let dest = non_root(tree, pick / 3)?;
            let pos = if pick % 2 == 0 {
                InsertPos::Before(dest)
            } else {
                InsertPos::LastChildOf(dest)
            };
            Mutation::MoveSubtree { target, pos }
        }
    })
}

/// Structural equality of two trees (tags + shape), independent of arenas.
fn signature(tree: &XmlTree) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut stack = vec![(tree.root(), 0usize)];
    while let Some((n, d)) = stack.pop() {
        out.push((d, tree.tag(n).unwrap_or("").to_string()));
        for c in tree.element_children(n).collect::<Vec<_>>().into_iter().rev() {
            stack.push((c, d + 1));
        }
    }
    out
}

/// Runs `ops` lockstep through a sharded store under `policy` and the
/// unsharded oracle, running the split pass after every mutation and
/// refreshing the per-shard table partitions from the dirty set; after
/// every mutation the composed partitions must answer all paths
/// byte-identically to a table over the oracle's labels. Returns how many
/// splits ran, or the first divergence as an error.
fn check_sharded_vs_oracle(
    policy: ShardPolicy,
    tree: &XmlTree,
    ops: &[usize],
) -> Result<usize, String> {
    let scheme = ShardedPrime::new(DynamicPrime::new(3), policy);
    let mut s = LabeledStore::build(scheme, tree.clone())
        .map_err(|e| format!("sharded build: {e}"))?;
    let mut o = LabeledStore::build(DynamicPrime::new(3), tree.clone())
        .map_err(|e| format!("oracle build: {e}"))?;
    let mut tables: ShardedTables<PrimeLabel> = ShardedTables::build(&s);
    let mut splits = 0;

    for (step, &seed) in ops.iter().enumerate() {
        let ctx = |what: &str| format!("{policy:?}, step {step} (seed {seed}): {what}");
        let Some(m) = random_mutation(o.tree(), seed) else { continue };
        let rs = s.apply(&m);
        let ro = o.apply(&m);
        if rs.is_ok() != ro.is_ok() {
            return Err(ctx(&format!("outcome split: {rs:?} vs {ro:?}")));
        }
        splits += maintain_shards(&mut s);
        let dirty = take_dirty_shards(&mut s);
        tables.refresh(&s, &dirty, None);
        let (Ok(rs), Ok(ro)) = (rs, ro) else { continue };
        if rs.inserted != ro.inserted || rs.removed != ro.removed {
            return Err(ctx("inserted/removed diverged from the oracle"));
        }

        // Arena lockstep and document order.
        if signature(s.tree()) != signature(o.tree()) {
            return Err(ctx("trees diverged"));
        }
        if s.ordered_nodes() != o.ordered_nodes() {
            return Err(ctx("document order diverged"));
        }

        // The refreshed partitions must hold exactly what a from-scratch
        // build holds: the same shards, rows, and labels.
        if partition_rows(&tables) != partition_rows(&ShardedTables::build(&s)) {
            return Err(ctx("refreshed partitions drifted from a fresh build"));
        }

        // All nine axes + positional: composed partitions vs the oracle.
        let composed = tables.compose();
        let oracle_table = LabelTable::build(o.tree(), o.doc());
        let ranks = TreeOrderOracle::of(s.tree());
        for path_str in PATHS {
            let path = Path::parse(path_str).map_err(|e| ctx(&e.to_string()))?;
            let got = eval_path(&composed, &ranks, &path)
                .map_err(|e| ctx(&format!("{path_str}: {e}")))?;
            let expected = eval_path(&oracle_table, &ranks, &path)
                .map_err(|e| ctx(&format!("{path_str} (oracle): {e}")))?;
            if got != expected {
                return Err(ctx(&format!(
                    "{path_str}: sharded {got:?} vs oracle {expected:?}"
                )));
            }
        }
    }
    Ok(splits)
}

type Rows = Vec<(NodeId, ShardedLabel<PrimeLabel>)>;

/// Every partition's `(node, label)` rows in arena order, by shard.
fn partition_rows(tables: &ShardedTables<PrimeLabel>) -> Vec<(ShardId, Rows)> {
    let rows = |part: &LabelTable<ShardedLabel<PrimeLabel>>| {
        let mut rows: Rows = part.rows().iter().map(|r| (r.node, r.label.clone())).collect();
        rows.sort_by_key(|&(n, _)| n);
        rows
    };
    tables.partitions().map(|(sid, part)| (sid, rows(part))).collect()
}

/// Applies each round of mutations as one batch to one sharded store and
/// one at a time to another; trees, labels, and document order must be
/// byte-identical afterwards.
fn check_batch_vs_facade(cut: usize, tree: &XmlTree, ops: &[usize]) -> Result<(), String> {
    let mk = || {
        LabeledStore::build(
            ShardedPrime::new(DynamicPrime::new(3), ShardPolicy::at_depth(cut)),
            tree.clone(),
        )
    };
    let mut batch = mk().map_err(|e| format!("build: {e}"))?;
    let mut facade = mk().map_err(|e| format!("build: {e}"))?;
    for chunk in ops.chunks(4) {
        let muts: Vec<Mutation> =
            chunk.iter().filter_map(|&seed| random_mutation(facade.tree(), seed)).collect();
        let br = apply_batch_sharded(&mut batch, &muts);
        let fr: Vec<_> = muts.iter().map(|m| facade.apply(m)).collect();
        for (k, (b, f)) in br.iter().zip(fr.iter()).enumerate() {
            if b.is_ok() != f.is_ok() {
                return Err(format!("cut {cut} op {k}: batch {b:?} vs facade {f:?}"));
            }
        }
        if signature(batch.tree()) != signature(facade.tree()) {
            return Err(format!("cut {cut}: batch tree diverged"));
        }
        for n in batch.tree().elements() {
            if batch.doc().get(n) != facade.doc().get(n) {
                return Err(format!("cut {cut}: label of {n:?} diverged"));
            }
        }
        if batch.ordered_nodes() != facade.ordered_nodes() {
            return Err(format!("cut {cut}: document order diverged"));
        }
    }
    Ok(())
}

propcheck! {
    #![config(cases = 24)]

    /// Sharded store + composed partitions answer every axis like the
    /// unsharded oracle, in every layout and at every thread count.
    #[test]
    fn sharded_answers_match_unsharded_oracle(
        tree in tree_strategy(24),
        ops in vec_of(usizes(0..1 << 12), 1..7),
    ) {
        for threads in [1usize, 2, 8] {
            // A shard per element, one every two levels, and the latter with
            // a bound small enough that inserted subtrees get split off.
            for policy in [
                ShardPolicy::at_depth(1),
                ShardPolicy::at_depth(2),
                ShardPolicy::at_depth(2).with_max_shard_nodes(4),
            ] {
                let outcome = xp_par::with_threads(
                    threads,
                    || check_sharded_vs_oracle(policy, &tree, &ops),
                );
                prop_assert!(
                    outcome.is_ok(),
                    "threads {}: {}",
                    threads,
                    outcome.err().unwrap_or_default()
                );
            }
        }
    }

    /// The parallel batch applier leaves the same document as the
    /// per-mutation facade, at every thread count.
    #[test]
    fn batch_apply_equals_facade(
        tree in tree_strategy(24),
        ops in vec_of(usizes(0..1 << 12), 1..9),
    ) {
        for threads in [1usize, 2, 8] {
            let outcome = xp_par::with_threads(
                threads,
                || check_batch_vs_facade(2, &tree, &ops),
            );
            prop_assert!(
                outcome.is_ok(),
                "threads {}: {}",
                threads,
                outcome.err().unwrap_or_default()
            );
        }
    }
}

/// The size-bounded layout really splits: a fixed script that grows
/// subtrees past the bound keeps answering like the oracle across splits.
#[test]
fn splits_run_under_the_differential() {
    let tree =
        xp_xmltree::parse("<t0><t1><t2/><t3/></t1><t2/><t1><t3/><t2><t3/></t2></t1></t0>").unwrap();
    let ops = [2usize, 18, 3, 34, 11, 50, 2, 26];
    let policy = ShardPolicy::at_depth(2).with_max_shard_nodes(4);
    for threads in [1usize, 8] {
        match xp_par::with_threads(threads, || check_sharded_vs_oracle(policy, &tree, &ops)) {
            Ok(splits) => assert!(splits > 0, "threads {threads}: no split ran"),
            Err(e) => panic!("threads {threads}: {e}"),
        }
    }
}

/// Structural contract every surviving store must satisfy, faulted or not.
fn assert_labels_match_structure(store: &LabeledStore<ShardedPrime>) {
    let nodes: Vec<NodeId> = store.tree().elements().collect();
    for &x in &nodes {
        for &y in &nodes {
            assert_eq!(
                store.doc().label(x).is_ancestor_of(store.doc().label(y)),
                store.tree().is_ancestor(x, y),
                "ancestor({x},{y}) disagrees with the tree"
            );
        }
    }
}

/// CI matrix entry point: with `XP_FAULT=<site>:<trigger>` armed, drive the
/// sharded store through per-op mutations and a batch (which falls back to
/// sequential per-shard application under faults) and assert nothing
/// panics; failed mutations must leave labels consistent with the tree.
/// Without `XP_FAULT` this is a no-op.
#[test]
fn shard_env_matrix() {
    if std::env::var("XP_FAULT").is_err() {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(tree) = xp_xmltree::parse(
            "<t0><t1><t2/><t3/></t1><t2/><t1><t3/><t2><t3/></t2></t1></t0>",
        ) else {
            return;
        };
        let scheme = ShardedPrime::new(DynamicPrime::new(2), ShardPolicy::at_depth(1));
        let Ok(mut store) = LabeledStore::build(scheme, tree) else {
            return;
        };
        for seed in [0usize, 9, 2, 18, 3, 12, 6, 27, 35] {
            if let Some(m) = random_mutation(store.tree(), seed) {
                let _ = store.apply(&m);
            }
            assert_labels_match_structure(&store);
        }
        let muts: Vec<Mutation> =
            [1usize, 10, 19, 4].iter().filter_map(|&s| random_mutation(store.tree(), s)).collect();
        let _ = apply_batch_sharded(&mut store, &muts);
        assert_labels_match_structure(&store);
    }));
    fault::reset();
    assert!(outcome.is_ok(), "sharded pipeline panicked under XP_FAULT");
}
