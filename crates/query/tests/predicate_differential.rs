//! End-to-end predicate differential: the prime label's own ancestor tests
//! against plain Knuth division, over the whole query pipeline.
//!
//! `PrimeLabel::ancestor_tester` answers the structural join with a
//! precomputed Barrett context instead of a fresh division per candidate,
//! and `PrimeLabel::is_ancestor_of` rejects most pairs by bit length or by
//! the self-label's residue before it divides. The contract is that both
//! are invisible: the nine Figure 15 queries must return byte-identical
//! node sets, and every node's order number (`SC mod self-label`) must
//! agree between the word-reducer and plain-division paths — at one worker
//! thread and at eight, and with the `bignum.mul` fault site armed (typed
//! errors, never panics, never a wrong answer).

use std::panic::{catch_unwind, AssertUnwindSafe};
use xp_bignum::reduce::Reducer64;
use xp_datagen::shakespeare::{PlayParams, ShakespeareCorpus};
use xp_labelkit::LabelOps;
use xp_prime::PrimeLabel;
use xp_query::engine::{eval_path, OrderOracle, Path};
use xp_query::evaluators::{Evaluator, PrimeEvaluator};
use xp_query::queries::TEST_QUERIES;
use xp_query::relstore::LabelTable;
use xp_testkit::fault;
use xp_xmltree::{NodeId, XmlTree};

/// A prime label that refuses every shortcut: each structural predicate is
/// Property 2 (Property 3 under Opt2) done by full division, with neither
/// the Barrett tester (the default `ancestor_tester`, plain delegation, is
/// kept) nor `PrimeLabel::is_ancestor_of`'s word-sized rejections.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlainDivisionLabel(PrimeLabel);

impl LabelOps for PlainDivisionLabel {
    fn is_ancestor_of(&self, other: &Self) -> bool {
        let (x, y) = (&self.0, &other.0);
        x.value() != y.value()
            && (!x.odd_internal_mode() || x.value().is_odd())
            && y.value().is_multiple_of(x.value())
    }
    fn is_parent_of(&self, other: &Self) -> bool {
        self.is_ancestor_of(other) && self.0.value() * other.0.self_label() == *other.0.value()
    }
    fn size_bits(&self) -> u64 {
        self.0.size_bits()
    }
    fn level_hint(&self) -> Option<usize> {
        self.0.level_hint()
    }
    // No ancestor_tester override: the default delegates per call.
}

fn corpus() -> XmlTree {
    // Two miniature plays: every tag Figure 15's queries touch, with enough
    // nesting that the structural join and both ordered axes do real work,
    // while keeping the 2 × 9 × 2-threads matrix fast.
    ShakespeareCorpus::generate_with(2, 7, &PlayParams::miniature()).tree
}

struct MapOracle(std::collections::HashMap<NodeId, u64>);

impl OrderOracle for MapOracle {
    fn rank(&self, node: NodeId) -> u64 {
        self.0[&node]
    }
}

/// Runs all nine queries through both predicate paths on `threads` workers
/// and asserts byte-identical answers.
fn assert_queries_agree(ev: &PrimeEvaluator, threads: usize) {
    let plain_table: LabelTable<PlainDivisionLabel> =
        ev.table().map_labels(|l| PlainDivisionLabel(l.clone()));
    let ranks: std::collections::HashMap<NodeId, u64> =
        ev.table().rows().iter().map(|r| (r.node, ev.ordered().order_of(r.node))).collect();
    let oracle = MapOracle(ranks);
    for q in &TEST_QUERIES {
        let path = Path::parse(q.path).unwrap();
        let (barrett, plain) = xp_par::with_threads(threads, || {
            (ev.try_eval(&path).unwrap(), eval_path(&plain_table, &oracle, &path).unwrap())
        });
        assert_eq!(barrett, plain, "{} diverged at {threads} thread(s)", q.id);
    }
}

/// Every node's order number must come out the same whether the SC residue
/// is taken by the Möller–Granlund word reducer or by plain division.
fn assert_order_numbers_agree(ev: &PrimeEvaluator) {
    let sc_table = ev.ordered().sc_table();
    for row in ev.table().rows() {
        let m = row.label.self_label_u64();
        let Some(idx) = sc_table.locate(m) else {
            continue; // the root's self-label 1 is not an SC member
        };
        let sc = sc_table.records()[idx].sc();
        let order = ev.ordered().order_of(row.node);
        assert_eq!(sc.rem_u64(m), order, "plain division disagrees for node {:?}", row.node);
        assert_eq!(Reducer64::new(m).rem(sc), order, "reducer disagrees for node {:?}", row.node);
    }
}

#[test]
fn fig15_queries_identical_under_barrett_and_plain_division() {
    let tree = corpus();
    let ev = PrimeEvaluator::build(&tree, 5);
    for threads in [1usize, 8] {
        assert_queries_agree(&ev, threads);
    }
    assert_order_numbers_agree(&ev);
}

#[test]
fn bignum_mul_fault_is_typed_on_both_predicate_paths() {
    let tree = corpus();
    // An armed bignum.mul site fires inside the budget-checked label
    // products of the ordered build, whichever multiply kernel runs: the
    // build must fail with the typed SC error on the nth hit, and succeed
    // once disarmed — then both predicate paths still agree.
    fault::arm("bignum.mul:4");
    let err = match PrimeEvaluator::try_build(&tree, 5) {
        Ok(_) => panic!("armed build unexpectedly succeeded"),
        Err(e) => e,
    };
    fault::reset();
    assert_eq!(
        err,
        xp_prime::Error::Sc(xp_prime::sc::ScError::FaultInjected("bignum.mul")),
        "got {err}"
    );
    let ev = PrimeEvaluator::try_build(&tree, 5).unwrap();
    assert_queries_agree(&ev, 1);
}

/// CI matrix entry point: with `XP_FAULT=<site>:<trigger>` armed by the
/// environment, drives build → nine queries on both predicate paths under
/// `catch_unwind` and asserts the armed site cannot panic the pipeline or
/// split the two paths' answers. A no-op without `XP_FAULT`.
#[test]
fn predicate_env_matrix() {
    if std::env::var("XP_FAULT").is_err() {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let tree = corpus();
        let Ok(ev) = PrimeEvaluator::try_build(&tree, 5) else { return };
        let plain_table: LabelTable<PlainDivisionLabel> =
            ev.table().map_labels(|l| PlainDivisionLabel(l.clone()));
        let ranks: std::collections::HashMap<NodeId, u64> =
            ev.table().rows().iter().map(|r| (r.node, ev.ordered().order_of(r.node))).collect();
        let oracle = MapOracle(ranks);
        for q in &TEST_QUERIES {
            let path = Path::parse(q.path).unwrap();
            // A query-stage fault may fail either path (typed); when both
            // succeed they must still agree exactly.
            if let (Ok(a), Ok(b)) = (ev.try_eval(&path), eval_path(&plain_table, &oracle, &path))
            {
                assert_eq!(a, b, "{} diverged under XP_FAULT", q.id);
            }
        }
    }));
    assert!(outcome.is_ok(), "predicate pipeline panicked under XP_FAULT");
}
