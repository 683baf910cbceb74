//! Differential property test: the batched evaluator — descendant runs,
//! following/preceding boundaries, stack-join ancestor steps and one-pass
//! positional steps — must return exactly what the naive per-context
//! evaluator returns, on arbitrary trees and every axis, under interval
//! labels and under prime labels (whose ancestor test rejects by bit length
//! and self-label residue before it divides). Each batched path runs twice:
//! ranking and sorting its candidates through a plain oracle, and borrowing
//! them from rank-ordered tag runs ([`TagRuns`]) as a served snapshot does.

use xp_baselines::interval::IntervalScheme;
use xp_labelkit::{LabelOps, Scheme};
use xp_prime::TopDownPrime;
use xp_query::engine::{eval_path_with, OrderOracle, Path, TreeOrderOracle};
use xp_query::relstore::LabelTable;
use xp_query::TagRuns;
use xp_testkit::propcheck::{index, usizes, vec_of, Gen};
use xp_testkit::{prop_assert_eq, propcheck};
use xp_xmltree::{NodeId, XmlTree};

fn tree_strategy(max_nodes: usize) -> Gen<XmlTree> {
    vec_of(index(), 0..max_nodes).map(|attach| {
        let mut tree = XmlTree::new("t0");
        let mut nodes = vec![tree.root()];
        for (i, idx) in attach.into_iter().enumerate() {
            let parent = nodes[idx.index(nodes.len())];
            let child = tree.append_element(parent, format!("t{}", i % 4));
            nodes.push(child);
        }
        tree
    })
}

/// Like [`tree_strategy`], but every non-root element carries a direct
/// text child `x`, `y` or `z`, so `[="…"]` predicates select a real subset.
fn text_tree_strategy(max_nodes: usize) -> Gen<XmlTree> {
    vec_of(usizes(0..1 << 16), 0..max_nodes).map(|attach| {
        let mut tree = XmlTree::new("t0");
        let mut nodes = vec![tree.root()];
        for (i, seed) in attach.into_iter().enumerate() {
            let parent = nodes[seed % nodes.len()];
            let child = tree.append_element(parent, format!("t{}", i % 4));
            tree.append_text(child, ["x", "y", "z"][seed / 7 % 3]);
            nodes.push(child);
        }
        tree
    })
}

struct IntervalOracle<'a>(&'a LabelTable<xp_baselines::IntervalLabel>);

impl OrderOracle for IntervalOracle<'_> {
    fn rank(&self, node: NodeId) -> u64 {
            self.0.label(node).map_or(u64::MAX, |label| label.order)
    }
}

const PATHS: &[&str] = &[
    "//t0",
    "//t1",
    "/t0//t2",
    "//t1/t2",
    "//t0/following::t1",
    "//t2/preceding::t0",
    "//t1/following-sibling::t2",
    "//t2/preceding-sibling::t1",
    "//t3/parent::*",
    "//t3/ancestor::t0",
    "//t1/ancestor-or-self::*",
    "//*/t1",
    "//t0//t1//t2",
    "//t2/following::*",
    "//t0/preceding::*",
    // Nested contexts: a descendant step's context can lie inside another
    // context's subtree, on a named or a `*` side.
    "//t0//t0",
    "//*//t1",
    "//t1//*",
    "//t0//t1//t0",
    "//*//*",
    // Preceding steps whose last context has ancestors among the
    // candidates (`t0` nests `t1`; `*` holds every ancestor), filtered too.
    "//t1/preceding::t0",
    "//t2/preceding::*",
    "//t1[t2]/preceding::t0",
    "//t3/preceding::t1[t2]",
];

const AXES: [&str; 9] = [
    "child",
    "descendant",
    "following",
    "preceding",
    "following-sibling",
    "preceding-sibling",
    "parent",
    "ancestor",
    "ancestor-or-self",
];

/// Every axis at `[1]`, `[2]` and `[3]`, on a named and a `*` candidate
/// set, each with and without a `[tag]` existence predicate ahead of the
/// position. The `//t0` contexts nest, so a candidate can be several
/// contexts' n-th match at once.
fn positional_paths() -> Vec<String> {
    let mut paths = Vec::new();
    for axis in AXES {
        for target in ["t1", "*"] {
            for filter in ["", "[t2]"] {
                for n in 1..=3 {
                    paths.push(format!("//t0/{axis}::{target}{filter}[{n}]"));
                }
            }
        }
    }
    paths
}

/// Batched against per-context evaluation of every path, on the tree's
/// interval table and on its prime table (Opt1 + Opt2, ranked in preorder),
/// each batched once through the plain oracle and once through runs built
/// from the same ranks.
fn assert_batch_equals_naive(tree: &XmlTree, paths: &[String]) -> Result<(), String> {
    let doc = IntervalScheme::dense().label(tree);
    let table = LabelTable::build(tree, &doc);
    let oracle = IntervalOracle(&table);
    let ranks = table.rows().iter().map(|r| (r.node, r.label.order));
    let runs = TagRuns::build(&table, TreeOrderOracle::from_ranks(ranks));
    batch_equals_naive(&table, &oracle, &runs, paths).map_err(|e| format!("interval {e}"))?;
    let doc = TopDownPrime::optimized().label(tree);
    let table = LabelTable::build(tree, &doc);
    let oracle = TreeOrderOracle::of(tree);
    let runs = TagRuns::build(&table, oracle.clone());
    batch_equals_naive(&table, &oracle, &runs, paths).map_err(|e| format!("prime {e}"))
}

fn batch_equals_naive<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    runs: &TagRuns,
    paths: &[String],
) -> Result<(), String> {
    for path_str in paths {
        let path = Path::parse(path_str).map_err(|e| format!("{path_str}: {e}"))?;
        let slow = eval_path_with(table, oracle, &path, false);
        let fast = eval_path_with(table, oracle, &path, true);
        if fast != slow {
            return Err(format!("{path_str}: batch {fast:?} vs per-context {slow:?}"));
        }
        let served = eval_path_with(table, runs, &path, true);
        if served != slow {
            return Err(format!("{path_str}: batch over runs {served:?} vs per-context {slow:?}"));
        }
    }
    Ok(())
}

propcheck! {
    #![config(cases = 256)]

    #[test]
    fn batch_join_equals_naive_per_context(tree in tree_strategy(70)) {
        let paths: Vec<String> = PATHS.iter().map(|p| p.to_string()).collect();
        prop_assert_eq!(assert_batch_equals_naive(&tree, &paths), Ok(()));
    }

    #[test]
    fn batch_join_equals_naive_with_positions_mixed_in(tree in tree_strategy(50)) {
        // Positional steps before, between and after position-free ones.
        let paths: Vec<String> = [
            "//t0[2]/t1",
            "//t1/t2[1]/following::t3",
            "//t0[1]//t1//t2",
            "//t0//t1[2]/following-sibling::*[1]/ancestor::t0[1]",
            "//t3/preceding::t1[2]//*[1]",
        ]
        .iter()
        .map(|p| p.to_string())
        .collect();
        prop_assert_eq!(assert_batch_equals_naive(&tree, &paths), Ok(()));
    }

    #[test]
    fn positional_steps_equal_naive_on_every_axis(tree in tree_strategy(50)) {
        prop_assert_eq!(assert_batch_equals_naive(&tree, &positional_paths()), Ok(()));
    }

    #[test]
    fn value_predicates_apply_before_the_position(tree in text_tree_strategy(50)) {
        let paths: Vec<String> = [
            r#"//t0/t1[="x"][1]"#,
            r#"//t0//*[="y"][2]"#,
            r#"//t0/following::t2[="x"][1]"#,
            r#"//t2/preceding::*[="z"][2]"#,
            r#"//t1/following-sibling::*[="x"][1]"#,
            r#"//t3/ancestor::*[="y"][1]"#,
            r#"//t2/ancestor-or-self::*[="x"][2]"#,
            r#"//t1/parent::*[="z"][1]"#,
            r#"//t0//t1[="y"][t2][1]"#,
            r#"//t1[="x"]"#,
            r#"//t0[="y"]//t2[="x"]"#,
            r#"//t1/preceding::t0[="z"]"#,
            r#"//t2/preceding::*[="x"][t3]"#,
        ]
        .iter()
        .map(|p| p.to_string())
        .collect();
        prop_assert_eq!(assert_batch_equals_naive(&tree, &paths), Ok(()));
    }
}
