//! Report-coverage differential: every [`RelabelReport`] must *cover* the
//! real row delta of its mutation.
//!
//! The query-result cache (DESIGN.md §14) invalidates entries from the
//! tags of the nodes a report names, so an under-reporting scheme would
//! silently turn into stale cached answers: a node whose (tag, parent,
//! label) row changed but which no report list mentions is a row the cache
//! believes untouched. This test replays random mutation scripts through
//! every dynamic scheme in the workspace — the sharded composite included
//! — snapshots the full row set before and after each mutation, and
//! asserts the delta is contained in the report's membership lists:
//!
//! * a node present after but not before must be in `inserted`,
//! * a node present before but not after must be in `removed`,
//! * a surviving node whose label, parent **or ancestor list** changed
//!   must be in `inserted ∪ relabeled` (tags cannot change — there is no
//!   rename).
//!
//! The ancestor clause is what lets the cache give `parent`, `ancestor`
//! and `ancestor-or-self` steps no tag of their own (DESIGN.md §14.2):
//! their rows are read through the ancestor chains of rows the footprint
//! names, so a chain that changes must put its node in the report.
//!
//! Over-reporting (listing an untouched node) is deliberately allowed: it
//! costs cache precision, never correctness.

use std::collections::{HashMap, HashSet};
use xp_baselines::{
    DeweyScheme, FloatIntervalScheme, IntervalScheme, Prefix1Scheme, Prefix2Scheme,
};
use xp_labelkit::{
    DynamicScheme, InsertPos, LabeledStore, RelabelReport, ShardPolicy, ShardedScheme,
};
use xp_prime::DynamicPrime;
use xp_testkit::propcheck::{usizes, vec_of, Gen};
use xp_testkit::{prop_assert, propcheck};
use xp_xmltree::{parse, NodeId, XmlTree};

/// Random tree over tags `t0..t3` (root `t0`), the workspace's standard
/// differential-test shape.
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

/// Picks the `pick`-th non-root element, if the document has one.
fn non_root(tree: &XmlTree, pick: usize) -> Option<NodeId> {
    let n = tree.elements().count();
    if n < 2 {
        return None;
    }
    tree.elements().nth(1 + pick % (n - 1))
}

/// Applies one seed-derived mutation (same dispatch as the dynamic
/// differential, so the two tests walk the same state space).
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
                    let parent = store
                        .tree()
                        .elements()
                        .nth(pick % n)
                        .unwrap_or_else(|| store.tree().root());
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

/// One live row: everything the relational query layer derives answers
/// from, per node, plus its ancestors from the parent up.
type Row<L> = (String, Option<NodeId>, L, Vec<NodeId>);

fn rows<S: DynamicScheme>(store: &LabeledStore<S>) -> HashMap<NodeId, Row<S::Label>> {
    store
        .tree()
        .elements()
        .filter_map(|n| {
            let tree = store.tree();
            let tag = tree.tag(n)?.to_owned();
            let label = store.doc().get(n)?.clone();
            Some((n, (tag, tree.parent(n), label, tree.ancestors(n).collect())))
        })
        .collect()
}

/// Replays `ops` through one scheme and checks coverage after every
/// mutation. Returns the first violation as an error.
fn check_coverage<S: DynamicScheme>(
    scheme: S,
    tree: &XmlTree,
    ops: &[usize],
) -> Result<(), String> {
    let name = scheme.name().to_string();
    let mut store =
        LabeledStore::build(scheme, tree.clone()).map_err(|e| format!("{name}: build: {e}"))?;
    for (step, &seed) in ops.iter().enumerate() {
        let ctx = |what: String| format!("{name}, step {step} (seed {seed}): {what}");
        let before = rows(&store);
        let report = match apply_random_op(&mut store, seed) {
            Ok(Some(report)) => report,
            Ok(None) => continue,
            Err(e) => return Err(ctx(format!("mutation failed: {e}"))),
        };
        let after = rows(&store);

        let inserted: HashSet<NodeId> = report.inserted.iter().copied().collect();
        let relabeled: HashSet<NodeId> = report.relabeled.iter().copied().collect();
        let removed: HashSet<NodeId> = report.removed.iter().copied().collect();

        for (&node, row) in &after {
            match before.get(&node) {
                None => {
                    if !inserted.contains(&node) {
                        return Err(ctx(format!(
                            "node {node:?} appeared but the report's inserted list omits it"
                        )));
                    }
                }
                Some(old) if old != row => {
                    if !inserted.contains(&node) && !relabeled.contains(&node) {
                        return Err(ctx(format!(
                            "node {node:?} row changed ({old:?} -> {row:?}) but the report \
                             names it neither inserted nor relabeled"
                        )));
                    }
                }
                Some(_) => {}
            }
        }
        for &node in before.keys() {
            if !after.contains_key(&node) && !removed.contains(&node) {
                return Err(ctx(format!(
                    "node {node:?} vanished but the report's removed list omits it"
                )));
            }
        }
        // Light sanity on the lists themselves: the three sets are
        // documented disjoint, and inserted/removed must agree with
        // liveness. (Over-reporting in `relabeled` stays legal.)
        for &node in &inserted {
            if !after.contains_key(&node) {
                return Err(ctx(format!("report inserts {node:?}, which is not live after")));
            }
        }
        for &node in &removed {
            if after.contains_key(&node) {
                return Err(ctx(format!("report removes {node:?}, which is still live")));
            }
        }
        if inserted.intersection(&relabeled).next().is_some()
            || inserted.intersection(&removed).next().is_some()
            || relabeled.intersection(&removed).next().is_some()
        {
            return Err(ctx("report lists are not disjoint".to_owned()));
        }
    }
    Ok(())
}

propcheck! {
    #![config(cases = 40)]

    /// Every dynamic scheme, same random tree and mutation script: each
    /// report covers the true row delta of its mutation.
    #[test]
    fn reports_cover_the_row_delta(
        tree in tree_strategy(24),
        ops in vec_of(usizes(0..1 << 12), 1..7),
    ) {
        let outcomes = [
            check_coverage(DynamicPrime::new(3), &tree, &ops),
            check_coverage(IntervalScheme::dense(), &tree, &ops),
            check_coverage(IntervalScheme::with_gap(8), &tree, &ops),
            check_coverage(FloatIntervalScheme, &tree, &ops),
            check_coverage(Prefix1Scheme, &tree, &ops),
            check_coverage(Prefix2Scheme, &tree, &ops),
            check_coverage(DeweyScheme, &tree, &ops),
            check_coverage(
                ShardedScheme::new(DynamicPrime::new(3), ShardPolicy::at_depth(1)),
                &tree,
                &ops,
            ),
        ];
        for outcome in outcomes {
            prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
        }
    }
}
