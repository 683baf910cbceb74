//! Cross-scheme dynamic differential property test: random mutation
//! sequences run through [`LabeledStore`] for every scheme, and after each
//! mutation the incrementally-patched [`LabelTable`] must answer queries on
//! all nine axes exactly like a table rebuilt from a from-scratch
//! relabeling of the mutated tree — the oracle that cannot be wrong about
//! what the labels should say.
//!
//! `prime_rank_column_tracks_sc_order` checks the served order: a
//! [`TagRuns`] (rank column plus rank-ordered tag runs) folded report by
//! report must stay equal to the prime scheme's `SC mod self-label` order,
//! and its runs to a fresh build; and every path, batched through the runs
//! and through the tree-walk order, must answer like the per-context
//! reference on the patched table.
//!
//! The final `dynamic_env_matrix` test is the CI hook: with
//! `XP_FAULT=<site>:<n>` armed, the same mutation pipeline must never
//! panic, and whatever state survives must still satisfy the structural
//! label contract.

use std::panic::{catch_unwind, AssertUnwindSafe};
use xp_baselines::{
    DeweyScheme, FloatIntervalScheme, IntervalScheme, Prefix1Scheme, Prefix2Scheme,
};
use xp_labelkit::{DynamicScheme, InsertPos, LabelOps, LabeledStore, RelabelReport};
use xp_prime::DynamicPrime;
use xp_query::engine::{eval_path, eval_path_with, OrderOracle, Path, TreeOrderOracle};
use xp_query::relstore::LabelTable;
use xp_query::TagRuns;
use xp_testkit::propcheck::{usizes, vec_of, Gen};
use xp_testkit::{fault, prop_assert, propcheck};
use xp_xmltree::{parse, NodeId, XmlTree};

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

/// One query per axis the engine supports: child, descendant, parent,
/// ancestor, ancestor-or-self, following, preceding, following-sibling,
/// preceding-sibling — plus positional steps, which exercise the order
/// oracle: a first-step `[n]` and a mid-path `[n]` on every axis, so the
/// one-pass positional join runs on tag buckets a patch left out of
/// document order. The `*` positional sibling and child steps sort every
/// element by its parent's arena slot, and an inserted node's slot does
/// not follow document order, so the sort-merge meets unsorted keys.
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
    "//*/following-sibling::*[2]",
    "//*/preceding-sibling::*[1]",
    "//t0/*[3]",
];

/// Picks the `pick`-th non-root element, if the document has one.
fn non_root(tree: &XmlTree, pick: usize) -> Option<NodeId> {
    let n = tree.elements().count();
    if n < 2 {
        return None;
    }
    tree.elements().nth(1 + pick % (n - 1))
}

/// Applies one seed-derived mutation through the store. Structural
/// rejections the driver can provoke on purpose (moving into the own
/// subtree) are skipped; everything else must succeed.
fn apply_random_op<S: DynamicScheme>(
    store: &mut LabeledStore<S>,
    seed: usize,
) -> Result<Option<RelabelReport>, String> {
    let n = store.tree().elements().count();
    let pick = seed / 8;
    let report = match seed % 8 {
        0 | 1 => match non_root(store.tree(), pick) {
            Some(anchor) => store.insert_before(anchor, "t1"),
            None => return Ok(None),
        },
        2 => {
            let frag = parse("<t1><t2/><t3/></t1>").map_err(|e| e.to_string())?;
            let pos = match non_root(store.tree(), pick) {
                Some(anchor) if pick % 2 == 0 => InsertPos::Before(anchor),
                _ => {
                    let parent = store.tree().elements().nth(pick % n).unwrap_or_else(|| {
                        store.tree().root()
                    });
                    InsertPos::LastChildOf(parent)
                }
            };
            store.insert_subtree(pos, &frag)
        }
        3 => match non_root(store.tree(), pick) {
            Some(target) => store.insert_parent(target, "t2"),
            None => return Ok(None),
        },
        4 | 5 => match (n >= 3).then(|| non_root(store.tree(), pick)).flatten() {
            Some(target) => store.delete(target),
            None => return Ok(None),
        },
        _ => {
            let (Some(target), Some(dest)) =
                (non_root(store.tree(), pick), non_root(store.tree(), pick / 3))
            else {
                return Ok(None);
            };
            let pos = if pick % 2 == 0 {
                InsertPos::Before(dest)
            } else {
                InsertPos::LastChildOf(dest)
            };
            match store.move_subtree(target, pos) {
                Err(xp_labelkit::DynamicError::MoveIntoSelf { .. }) => return Ok(None),
                other => other,
            }
        }
    };
    report.map(Some).map_err(|e| e.to_string())
}

/// Runs `ops` through one scheme's store, patching a `LabelTable`
/// incrementally, and diffs query answers against the from-scratch oracle
/// after every mutation. Returns the first divergence as an error.
fn check_scheme<S: DynamicScheme>(
    scheme: S,
    tree: &XmlTree,
    ops: &[usize],
) -> Result<(), String> {
    let name = scheme.name().to_string();
    let mut store =
        LabeledStore::build(scheme, tree.clone()).map_err(|e| format!("{name}: build: {e}"))?;
    let mut table = LabelTable::build(store.tree(), store.doc());

    for (step, &seed) in ops.iter().enumerate() {
        let ctx = |what: &str| format!("{name}, step {step} (seed {seed}): {what}");
        // Apply through the dynamic API and patch the table with the report.
        let report = match apply_random_op(&mut store, seed) {
            Ok(Some(report)) => report,
            Ok(None) => continue,
            Err(e) => return Err(ctx(&format!("mutation failed: {e}"))),
        };
        table.apply_report(store.tree(), store.doc(), &report);

        // Document order must match the tree's preorder for every scheme.
        let doc_order: Vec<NodeId> = store.tree().elements().collect();
        if store.ordered_nodes() != doc_order {
            return Err(ctx("ordered_nodes diverged from document order"));
        }

        // Oracle: a from-scratch relabeling of the mutated tree.
        let fresh = store.scheme().label(store.tree());
        let oracle_table = LabelTable::build(store.tree(), &fresh);
        let ranks = TreeOrderOracle::of(store.tree());
        for path_str in PATHS {
            let path = Path::parse(path_str).map_err(|e| ctx(&e.to_string()))?;
            let patched = eval_path(&table, &ranks, &path)
                .map_err(|e| ctx(&format!("{path_str}: {e}")))?;
            let expected = eval_path(&oracle_table, &ranks, &path)
                .map_err(|e| ctx(&format!("{path_str} (oracle): {e}")))?;
            if patched != expected {
                return Err(ctx(&format!(
                    "{path_str}: patched {patched:?} vs oracle {expected:?}"
                )));
            }
        }
    }

    // The named oracle API must agree that nothing more needs fixing:
    // re-deriving every label from scratch and diffing against the store's
    // current doc may only report differences the scheme is allowed to
    // have (gap-consuming schemes keep non-canonical labels), but after
    // applying it the store must still answer identically.
    let snapshot: Vec<NodeId> = store.ordered_nodes();
    store.relabel_from_scratch().map_err(|e| format!("{name}: relabel_from_scratch: {e}"))?;
    if store.ordered_nodes() != snapshot {
        return Err(format!("{name}: relabel_from_scratch changed document order"));
    }
    Ok(())
}

propcheck! {
    #![config(cases = 40)]

    /// Every scheme, same random tree and mutation script: incremental
    /// stores + patched tables answer all nine axes like the oracle.
    #[test]
    fn all_schemes_agree_with_relabel_oracle(
        tree in tree_strategy(24),
        ops in vec_of(usizes(0..1 << 12), 1..7),
    ) {
        let outcomes = [
            check_scheme(DynamicPrime::new(3), &tree, &ops),
            check_scheme(IntervalScheme::dense(), &tree, &ops),
            check_scheme(IntervalScheme::with_gap(8), &tree, &ops),
            check_scheme(FloatIntervalScheme, &tree, &ops),
            check_scheme(Prefix1Scheme, &tree, &ops),
            check_scheme(Prefix2Scheme, &tree, &ops),
            check_scheme(DeweyScheme, &tree, &ops),
        ];
        for outcome in outcomes {
            prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
        }
    }
}

/// SC order of every row of `table`, read from the store's SC table.
fn sc_column(
    store: &LabeledStore<DynamicPrime>,
    table: &LabelTable<xp_prime::PrimeLabel>,
) -> Result<TreeOrderOracle, String> {
    let state = store.state();
    let ranks = table.rows().iter().map(|r| {
        let order = state.try_order_of(r.node).map_err(|e| format!("order of {}: {e}", r.node))?;
        Ok((r.node, order))
    });
    Ok(TreeOrderOracle::from_ranks(ranks.collect::<Result<Vec<_>, String>>()?))
}

/// Folds every mutation's report into a rank column and its tag runs the
/// way a served snapshot does, and checks them against the SC table after
/// each step: every element ranks at its SC order, every node ever removed
/// ranks last, the runs equal a fresh build from the patched table, and
/// every query answers, batched with the runs as its oracle and batched
/// with the tree-walk order, exactly as the per-context reference
/// `eval_path_with(.., false)` does on the patched table. Inserted nodes
/// take arena slots that do not follow document order, so this is where
/// the sibling steps' sort on parent slots meets unsorted keys.
fn check_rank_column(tree: &XmlTree, ops: &[usize]) -> Result<(), String> {
    let mut store = LabeledStore::build(DynamicPrime::new(3), tree.clone())
        .map_err(|e| format!("build: {e}"))?;
    let mut table = LabelTable::build(store.tree(), store.doc());
    let mut runs = TagRuns::build(&table, sc_column(&store, &table)?);
    let mut removed: Vec<NodeId> = Vec::new();

    for (step, &seed) in ops.iter().enumerate() {
        let ctx = |what: &str| format!("step {step} (seed {seed}): {what}");
        let report = match apply_random_op(&mut store, seed) {
            Ok(Some(report)) => report,
            Ok(None) => continue,
            Err(e) => return Err(ctx(&format!("mutation failed: {e}"))),
        };
        table.apply_report(store.tree(), store.doc(), &report);
        let state = store.state();
        runs.apply_report(&table, &report, |n| state.try_order_of(n).ok());
        removed.extend(&report.removed);

        for n in store.tree().elements() {
            let sc = state.try_order_of(n).map_err(|e| ctx(&format!("order of {n}: {e}")))?;
            if runs.rank(n) != sc {
                return Err(ctx(&format!("{n} ranks {} but its SC order is {sc}", runs.rank(n))));
            }
        }
        if let Some(n) = removed.iter().find(|&&n| runs.rank(n) != u64::MAX) {
            return Err(ctx(&format!("removed {n} still ranks {}", runs.rank(*n))));
        }
        let fresh = TagRuns::build(&table, sc_column(&store, &table).map_err(|e| ctx(&e))?);
        if runs != fresh {
            return Err(ctx(&format!("patched runs {runs:?} vs a fresh build {fresh:?}")));
        }
        let ranks = TreeOrderOracle::of(store.tree());
        for path_str in PATHS {
            let path = Path::parse(path_str).map_err(|e| ctx(&e.to_string()))?;
            let by_runs =
                eval_path(&table, &runs, &path).map_err(|e| ctx(&format!("{path_str}: {e}")))?;
            let by_tree = eval_path(&table, &ranks, &path)
                .map_err(|e| ctx(&format!("{path_str} (tree order): {e}")))?;
            let reference = eval_path_with(&table, &ranks, &path, false)
                .map_err(|e| ctx(&format!("{path_str} (per context): {e}")))?;
            if by_runs != reference || by_tree != reference {
                return Err(ctx(&format!(
                    "{path_str}: runs {by_runs:?}, tree order {by_tree:?}, \
                     per context {reference:?}"
                )));
            }
        }
    }
    Ok(())
}

propcheck! {
    #![config(cases = 200)]

    /// Scripts over every mutation kind — sibling insert, subtree insert,
    /// wrap, delete and move: the folded column is SC order throughout, and
    /// the folded runs equal a fresh build.
    #[test]
    fn prime_rank_column_tracks_sc_order(
        tree in tree_strategy(24),
        ops in vec_of(usizes(0..1 << 12), 1..13),
    ) {
        let outcome = check_rank_column(&tree, &ops);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }
}

/// Structural contract every surviving store must satisfy, faulted or not:
/// label-based ancestor answers equal tree structure for every pair.
fn assert_labels_match_structure<S: DynamicScheme>(store: &LabeledStore<S>) {
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
/// dynamic store through the whole mutation repertoire and assert nothing
/// panics; failed mutations must leave the store's labels consistent with
/// its tree. Without `XP_FAULT` this is a no-op (the propcheck test above
/// covers unarmed behavior).
#[test]
fn dynamic_env_matrix() {
    if std::env::var("XP_FAULT").is_err() {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(tree) = parse("<t0><t1><t2/><t3/></t1><t2/><t1><t3/></t1></t0>") else {
            return;
        };
        let Ok(mut store) = LabeledStore::build(DynamicPrime::new(2), tree) else {
            return;
        };
        for seed in [0usize, 9, 2, 18, 3, 12, 6, 27, 35] {
            let _ = apply_random_op(&mut store, seed);
            assert_labels_match_structure(&store);
        }
    }));
    fault::reset();
    assert!(outcome.is_ok(), "dynamic pipeline panicked under XP_FAULT");
}
