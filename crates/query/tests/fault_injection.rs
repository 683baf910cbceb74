//! Per-site fault-injection regressions: every `faultpoint!` compiled into
//! the pipeline is armed with an nth-hit trigger, the failure must surface
//! as the crate's typed error (never a panic), and the store must stay
//! queryable afterwards — its SC table exactly as before the failed call,
//! with answers matching a never-faulted oracle.
//!
//! The final `env_matrix` test is the CI hook: `scripts/ci.sh` runs it once
//! per site with `XP_FAULT=<site>:1`, driving the whole pipeline under
//! `catch_unwind` to prove no armed site can panic it.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xp_prime::ordered::OrderedPrimeDoc;
use xp_prime::sc::{ScError, ScTable};
use xp_prime::Error;
use xp_query::engine::{eval_path, OrderOracle, Path, QueryError};
use xp_query::evaluators::{Evaluator, PrimeEvaluator};
use xp_query::relstore::LabelTable;
use xp_testkit::fault;
use xp_testkit::propcheck::{u64s, usizes, vec_of};
use xp_testkit::{prop_assert, prop_assert_eq, propcheck};
use xp_xmltree::{parse, NodeId, ParseErrorKind, XmlTree};

/// A flat 20-item list: with `chunk_capacity = 5` the SC table has four
/// records, so a single insertion can touch several records — room for a
/// fault to land mid-update, after some records changed but not all.
fn list_src() -> String {
    let mut s = String::from("<list>");
    for _ in 0..20 {
        s.push_str("<item/>");
    }
    s.push_str("</list>");
    s
}

fn build(src: &str) -> (XmlTree, OrderedPrimeDoc) {
    let tree = parse(src).unwrap();
    let doc = OrderedPrimeDoc::build(&tree, 5).unwrap();
    (tree, doc)
}

/// Order oracle backed by the document's own SC table.
struct DocOracle<'a>(&'a OrderedPrimeDoc);

impl OrderOracle for DocOracle<'_> {
    fn rank(&self, node: NodeId) -> u64 {
        self.0.order_of(node)
    }
}

/// A query answer normalized for cross-document comparison: node ids differ
/// between a faulted document (whose arena also allocated the aborted
/// node) and the oracle, so results are compared as `(tag, order)` sets.
fn answer_keys(tree: &XmlTree, doc: &OrderedPrimeDoc, query: &str) -> BTreeSet<(String, u64)> {
    let table = LabelTable::build(tree, doc.labels());
    let path = Path::parse(query).unwrap();
    let nodes = eval_path(&table, &DocOracle(doc), &path).unwrap();
    nodes
        .into_iter()
        .map(|n| (tree.tag(n).unwrap().to_string(), doc.order_of(n)))
        .collect()
}

#[test]
fn parse_read_fault_surfaces_as_typed_parse_error() {
    fault::arm("parse.read:3");
    let err = parse(&list_src()).unwrap_err();
    fault::reset();
    assert!(
        matches!(err.kind, ParseErrorKind::FaultInjected("parse.read")),
        "got {err}"
    );
    assert!(parse(&list_src()).is_ok(), "disarmed parse succeeds");
}

#[test]
fn bignum_mul_fault_fails_the_build_with_a_typed_error() {
    let tree = parse(&list_src()).unwrap();
    fault::arm("bignum.mul:4");
    let err = OrderedPrimeDoc::build(&tree, 5).unwrap_err();
    fault::reset();
    assert_eq!(err, Error::Sc(ScError::FaultInjected("bignum.mul")), "got {err}");
    assert!(OrderedPrimeDoc::build(&tree, 5).is_ok(), "disarmed build succeeds");
}

#[test]
fn sc_insert_fault_leaves_every_existing_order_intact() {
    let (mut tree, mut doc) = build(&list_src());
    let originals: Vec<NodeId> = tree.elements().collect();
    let before: Vec<u64> = originals.iter().map(|&n| doc.order_of(n)).collect();

    let anchor = tree.last_child(tree.root()).unwrap();
    let pristine = doc.sc_table().clone();
    fault::arm("sc.insert:1");
    let err = doc.insert_sibling_before(&mut tree, anchor, "item").unwrap_err();
    fault::reset();

    assert_eq!(err, Error::Sc(ScError::FaultInjected("sc.insert")), "got {err}");
    assert_eq!(doc.sc_table(), &pristine, "fault fired before any record changed");
    for (&n, &o) in originals.iter().zip(&before) {
        assert_eq!(doc.order_of(n), o, "order of {n} drifted");
    }

    // The aborted insert left a labeled-but-orderless node in the tree;
    // delete it and retry — the store was never corrupted.
    let orphan = tree.elements().find(|n| !originals.contains(n)).unwrap();
    doc.delete(&mut tree, orphan).unwrap();
    doc.insert_sibling_before(&mut tree, anchor, "item").unwrap();
    doc.verify_order_consistency(&tree);
}

#[test]
fn sc_insert_record_fault_mid_update_rolls_back_and_matches_oracle() {
    // Two identical documents: arena node ids are deterministic, so the
    // faulted document and the never-faulted oracle agree node-for-node.
    let src = list_src();
    let (mut tree, mut doc) = build(&src);
    let (mut otree, mut oracle) = build(&src);
    let originals: Vec<NodeId> = tree.elements().collect();
    assert_eq!(originals, otree.elements().collect::<Vec<_>>());

    // Insert near the front so the update must re-solve several records,
    // and fault the SECOND record: the first record's change is already
    // staged and must never be written.
    let anchor = tree.element_children(tree.root()).nth(1).unwrap();
    fault::arm("sc.insert.record:2");
    let err = doc.insert_sibling_before(&mut tree, anchor, "item").unwrap_err();
    fault::reset();
    assert_eq!(err, Error::Sc(ScError::FaultInjected("sc.insert.record")), "got {err}");

    // The table is the pre-insert one, except for the overflow victim
    // (self-label 3 would reach order 3), whose relabel commits on its own
    // before the insert that failed.
    let mut expected = oracle.sc_table().clone();
    for &n in &originals {
        let (old, new) =
            (oracle.labels().label(n).self_label_u64(), doc.labels().label(n).self_label_u64());
        if old != new {
            expected.replace_self_label(old, new).unwrap();
        }
    }
    assert_ne!(&expected, oracle.sc_table(), "the insert relabels its overflow victim");
    assert_eq!(doc.sc_table(), &expected, "no record of the failed insert was written");

    // Differential check #1: every pre-existing node answers exactly as the
    // untouched oracle does.
    for &n in &originals {
        assert_eq!(doc.try_order_of(n).unwrap(), oracle.order_of(n), "order of {n} diverged");
    }

    // Drop the aborted node, then replay the identical insertion on both
    // documents — recovery must leave the store able to continue.
    let orphan = tree.elements().find(|n| !originals.contains(n)).unwrap();
    doc.delete(&mut tree, orphan).unwrap();
    let report = doc.insert_sibling_before(&mut tree, anchor, "item").unwrap();
    let oreport = oracle.insert_sibling_before(&mut otree, anchor, "item").unwrap();
    assert_eq!(doc.order_of(report.node), oracle.order_of(oreport.node));
    for &n in &originals {
        assert_eq!(doc.order_of(n), oracle.order_of(n), "post-replay order of {n} diverged");
    }
    doc.verify_order_consistency(&tree);

    // Differential check #2: query answers through the relational engine
    // match the oracle's for both structural and order-sensitive paths.
    for query in ["//item", "/list/item", "//item/following-sibling::item"] {
        assert_eq!(
            answer_keys(&tree, &doc, query),
            answer_keys(&otree, &oracle, query),
            "{query} diverged after recovery"
        );
    }
}

#[test]
fn sc_remove_fault_keeps_the_remaining_nodes_queryable() {
    let (mut tree, mut doc) = build(&list_src());
    let originals: Vec<NodeId> = tree.elements().collect();
    let victim = tree.element_children(tree.root()).nth(3).unwrap();
    let survivors: Vec<(NodeId, u64)> = originals
        .iter()
        .filter(|&&n| n != victim)
        .map(|&n| (n, doc.order_of(n)))
        .collect();

    let pristine = doc.sc_table().clone();
    fault::arm("sc.remove:1");
    let err = doc.delete(&mut tree, victim).unwrap_err();
    fault::reset();
    assert_eq!(err, Error::Sc(ScError::FaultInjected("sc.remove")), "got {err}");
    assert_eq!(doc.sc_table(), &pristine, "the failed removal left the table as it was");
    for &(n, o) in &survivors {
        assert_eq!(doc.try_order_of(n).unwrap(), o, "order of {n} drifted");
    }
}

#[test]
fn sc_relabel_fault_rolls_the_table_back() {
    let items: Vec<(u64, u64)> = [2u64, 3, 5, 7, 11, 13]
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64 + 1))
        .collect();
    let mut table = ScTable::build(3, &items).unwrap();
    let pristine = table.clone();

    fault::arm("sc.relabel:1");
    let err = table.replace_self_label(5, 17).unwrap_err();
    fault::reset();
    assert_eq!(err, ScError::FaultInjected("sc.relabel"), "got {err}");
    assert_eq!(table, pristine, "the failed relabel left the table as it was");
    for &(m, o) in &items {
        assert_eq!(table.order_of(m), Some(o), "member {m} lost its order");
    }
    assert_eq!(table.order_of(17), None, "aborted relabel left no trace");
}

#[test]
fn query_join_fault_surfaces_as_a_typed_query_error() {
    let tree = parse(&list_src()).unwrap();
    let ev = PrimeEvaluator::try_build(&tree, 5).unwrap();
    // Two steps so evaluation reaches the structural join (a single-step
    // path is answered by the tag scan alone).
    let path = Path::parse("//list/item").unwrap();

    fault::arm("query.join:1");
    let err = ev.try_eval(&path).unwrap_err();
    fault::reset();
    assert_eq!(err, QueryError::FaultInjected("query.join"), "got {err}");
    assert_eq!(ev.try_eval(&path).unwrap().len(), 20, "disarmed query succeeds");

    // A positional step after the first runs through the same join pass.
    let positional = Path::parse("//list/item[2]").unwrap();
    fault::arm("query.join:1");
    let err = ev.try_eval(&positional).unwrap_err();
    fault::reset();
    assert_eq!(err, QueryError::FaultInjected("query.join"), "got {err}");
    assert_eq!(ev.try_eval(&positional).unwrap().len(), 1, "disarmed query succeeds");
}

/// First point of divergence between two SC tables, or `None` when they are
/// indistinguishable record-for-record: same members, cached order columns,
/// SC values, modulus products, max keys, and locator assignments. This is
/// deliberately stronger than answer equality — the incremental maintenance
/// paths (`SC + 1` whole-record shifts, partial-shift re-solves,
/// `crt::extend` appends) must land on byte-identical state, not merely
/// equivalent answers.
fn table_mismatch(a: &ScTable, b: &ScTable) -> Option<String> {
    if a.record_count() != b.record_count() {
        return Some(format!("{} records vs {}", a.record_count(), b.record_count()));
    }
    for (i, (ra, rb)) in a.records().iter().zip(b.records()).enumerate() {
        if ra.members() != rb.members() {
            return Some(format!("record {i}: members {:?} vs {:?}", ra.members(), rb.members()));
        }
        if ra.cached_orders() != rb.cached_orders() {
            return Some(format!(
                "record {i}: orders {:?} vs {:?}",
                ra.cached_orders(),
                rb.cached_orders()
            ));
        }
        if ra.sc() != rb.sc() {
            return Some(format!("record {i}: SC {} vs {}", ra.sc(), rb.sc()));
        }
        if ra.product() != rb.product() {
            return Some(format!("record {i}: product {} vs {}", ra.product(), rb.product()));
        }
        if ra.max_self_label() != rb.max_self_label() {
            return Some(format!("record {i}: max keys differ"));
        }
    }
    for r in a.records() {
        for &m in r.members() {
            if a.locate(m) != b.locate(m) {
                return Some(format!("locator for {m}: {:?} vs {:?}", a.locate(m), b.locate(m)));
            }
        }
    }
    None
}

propcheck! {
    #![config(cases = 64)]

    /// A table grown one `insert` at a time must be record-for-record equal
    /// to `ScTable::build` over the final item set: the incremental path
    /// (cached orders, `SC + 1` shifts, partial-shift re-solves, `crt::extend`)
    /// may not drift from batch construction in any column.
    #[test]
    fn grown_table_equals_batch_built_table(
        cap in usizes(1..8),
        base in usizes(0..24),
        insert_seeds in vec_of(u64s(0..1_000_000), 1..12),
    ) {
        // Primes from the 21st on: every label exceeds 73, far above any
        // order this scenario can reach (≤ 35), so no insert can overflow.
        let pool = xp_primes::first_primes(60);
        let labels = &pool[20..];
        let base_items: Vec<(u64, u64)> =
            labels[..base].iter().enumerate().map(|(i, &p)| (p, i as u64 + 1)).collect();
        let mut grown = ScTable::build(cap, &base_items).unwrap();

        // doc_order holds labels by document position; an insert at
        // position p gives the new node order p+1 and shifts the rest.
        let mut doc_order: Vec<u64> = labels[..base].to_vec();
        let mut arrival: Vec<u64> = doc_order.clone();
        for (k, &seed) in insert_seeds.iter().enumerate() {
            let label = labels[base + k];
            let pos = (seed as usize) % (doc_order.len() + 1);
            grown.insert(label, pos as u64 + 1).unwrap();
            doc_order.insert(pos, label);
            arrival.push(label);
        }

        // Batch oracle: same arrival order (insert always appends to the
        // newest record, mirroring build's chunking), final shifted orders.
        let built_items: Vec<(u64, u64)> = arrival
            .iter()
            .map(|&l| {
                let pos = doc_order.iter().position(|&x| x == l).unwrap();
                (l, pos as u64 + 1)
            })
            .collect();
        let built = ScTable::build(cap, &built_items).unwrap();

        let mismatch = table_mismatch(&grown, &built);
        prop_assert!(mismatch.is_none(), "grown vs built: {}", mismatch.unwrap_or_default());
        let columns = grown.check_cached_columns();
        prop_assert!(columns.is_ok(), "{}", columns.err().unwrap_or_default());
    }

    /// A fault injected into any SC mutation must leave the table exactly
    /// as it was before the call — members, cached order columns, SC
    /// values, products, max keys and locator — and the same mutation must
    /// succeed once the fault is disarmed. Mutations stage every fallible
    /// step before their first write, so this holds with no repair step.
    /// Each case arms one of: `insert` under `sc.insert.record:k` or
    /// `bignum.mul:k`, `remove` under `sc.remove:1` or `bignum.mul:k`,
    /// `replace_self_label` under `sc.relabel:1` or `bignum.mul:k`. The
    /// `bignum.mul` site fires at every product multiply and before every
    /// CRT fold, so `k` up to 7 reaches past a five-member record's four
    /// multiplies into its re-solve, and into an insert's partial
    /// re-solves and its `crt::extend`.
    #[test]
    fn recovery_restores_cached_columns_and_bases(
        cap in usizes(1..6),
        base in usizes(4..20),
        seed in u64s(0..1_000_000),
        trigger in usizes(1..8),
        op in usizes(0..6),
    ) {
        let pool = xp_primes::first_primes(40);
        let labels = &pool[12..];
        let base_items: Vec<(u64, u64)> =
            labels[..base].iter().enumerate().map(|(i, &p)| (p, i as u64 + 1)).collect();
        let mut table = ScTable::build(cap, &base_items).unwrap();
        let snapshot = table.clone();

        // `fresh` is uncovered; `member` is covered. Every label exceeds
        // any order here, so no insert overflows.
        let fresh = labels[base];
        let member = labels[seed as usize % base];
        let order = (seed as usize % (base + 1)) as u64 + 1;
        let (site, armed) = match op {
            0 => ("sc.insert.record", format!("sc.insert.record:{trigger}")),
            2 => ("sc.remove", "sc.remove:1".to_string()),
            4 => ("sc.relabel", "sc.relabel:1".to_string()),
            _ => ("bignum.mul", format!("bignum.mul:{trigger}")),
        };
        let mutate = |t: &mut ScTable| match op / 2 {
            0 => t.insert(fresh, order).map(|_| ()),
            1 => t.remove(member).map(|_| ()),
            _ => t.replace_self_label(member, fresh),
        };
        fault::arm(&armed);
        let outcome = mutate(&mut table);
        fault::reset();
        match outcome {
            Err(ScError::FaultInjected(fired)) => {
                prop_assert_eq!(fired, site);
                let mismatch = table_mismatch(&table, &snapshot);
                prop_assert!(
                    mismatch.is_none(),
                    "failed call under {} drifted from the pre-call table: {}",
                    armed,
                    mismatch.unwrap_or_default()
                );
                prop_assert!(table == snapshot, "failed call under {} moved max_order or the budget", armed);
                let columns = table.check_cached_columns();
                prop_assert!(columns.is_ok(), "{}", columns.err().unwrap_or_default());
                let retry = mutate(&mut table);
                prop_assert!(retry.is_ok(), "disarmed retry under {} failed: {:?}", armed, retry);
            }
            // The call hit the site fewer times than the trigger count, so
            // the fault never fired and the mutation simply succeeded.
            Ok(()) => {}
            Err(other) => prop_assert!(false, "unexpected error {} under {}", other, armed),
        }
        let columns = table.check_cached_columns();
        prop_assert!(columns.is_ok(), "{}", columns.err().unwrap_or_default());
    }
}

/// CI matrix entry point: with `XP_FAULT=<site>:<trigger>` in the
/// environment, drives parse → label → ordered build → insert → delete →
/// query and asserts nothing panics — injected failures must surface as
/// typed errors at whatever stage they land. Without `XP_FAULT` the test is
/// a no-op (the per-site tests above cover the unarmed behavior).
#[test]
fn env_matrix() {
    if std::env::var("XP_FAULT").is_err() {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let src = list_src();
        let Ok(mut tree) = parse(&src) else { return };
        let Ok(mut doc) = OrderedPrimeDoc::build(&tree, 5) else { return };
        let anchor = tree.element_children(tree.root()).nth(1).unwrap();
        let _ = doc.insert_sibling_before(&mut tree, anchor, "item");
        let victim = tree.last_child(tree.root()).unwrap();
        let _ = doc.delete(&mut tree, victim);
        if let Ok(ev) = PrimeEvaluator::try_build(&tree, 5) {
            let _ = ev.try_eval(&Path::parse("//list/item").unwrap());
            let _ = ev.try_eval(&Path::parse("//list/item[2]").unwrap());
        }
    }));
    assert!(outcome.is_ok(), "pipeline panicked under XP_FAULT");
}
