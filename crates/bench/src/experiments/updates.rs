//! Update experiments: Figure 16 (leaf insertion), Figure 17 (non-leaf
//! insertion), Figure 18 (order-sensitive insertion), plus the SC
//! chunk-size ablation.
//!
//! Relabel counts are *measured*, not modeled (DESIGN.md §4.3): every
//! scheme runs the mutation through the unified dynamic API
//! ([`LabeledStore`]) and the [`RelabelReport`] is the cost. Schemes with
//! no incremental move fall back to a full relabel internally, which the
//! report exposes as the honest diff — the same number the old
//! label/mutate/relabel/diff harness measured.

use super::SEED;
use crate::report::Report;
use xp_baselines::dewey::DeweyScheme;
use xp_baselines::interval::IntervalScheme;
use xp_baselines::prefix::Prefix2Scheme;
use xp_datagen::builders::update_experiment_docs;
use xp_datagen::shakespeare::{generate_play, PlayParams};
use xp_labelkit::{DynamicScheme, InsertPos, LabeledStore, RelabelReport};
use xp_prime::dynamic::DynamicPrime;
use xp_prime::ordered::OrderedPrimeDoc;
use xp_prime::topdown::TopDownPrime;
use xp_xmltree::{parse, NodeId, XmlTree};

/// SC chunk capacity the update experiments run with — the paper's choice.
const SC_CHUNK: usize = 5;

/// Runs one mutation through a fresh [`LabeledStore`] and returns its
/// report. `NodeId`s from `tree` stay valid in the store's clone.
fn store_report<S: DynamicScheme>(
    scheme: S,
    tree: &XmlTree,
    mutate: impl FnOnce(&mut LabeledStore<S>) -> Result<RelabelReport, xp_labelkit::DynamicError>,
) -> RelabelReport {
    let mut store = LabeledStore::build(scheme, tree.clone()).expect("labelable doc");
    mutate(&mut store).expect("updatable doc")
}

/// The deepest element (first in document order among the deepest).
fn deepest_element(tree: &XmlTree) -> NodeId {
    let mut best = tree.root();
    let mut best_depth = 0;
    for node in tree.elements() {
        let d = tree.depth(node);
        if d > best_depth {
            best = node;
            best_depth = d;
        }
    }
    best
}

/// The first element at exactly `depth` in document order, if any.
fn first_at_depth(tree: &XmlTree, depth: usize) -> Option<NodeId> {
    tree.elements().find(|&n| tree.depth(n) == depth)
}

/// Figure 16: number of nodes relabeled when inserting a new node under the
/// node on the deepest level, for documents of 1000..=10000 nodes.
///
/// The insertion makes a previous leaf internal, so the optimized prime
/// scheme relabels 2 nodes (new + parent trading its `2^n` for a prime),
/// the unoptimized prime scheme and the prefix scheme relabel 1, and the
/// interval scheme renumbers everything after the insertion point.
pub fn fig16() -> Report {
    let mut r = Report::new(
        "fig16_update_leaf",
        "Figure 16: update on leaf nodes (nodes to relabel)",
        &["doc_nodes", "interval", "prime_optimized", "prime_original", "prefix2"],
    );
    let leaf = parse("<new/>").expect("fragment");
    for tree in update_experiment_docs(SEED) {
        let n = tree.elements().count();
        let target = deepest_element(&tree);
        let append = InsertPos::LastChildOf(target);

        let interval = store_report(IntervalScheme::dense(), &tree, |s| {
            s.insert_subtree(append, &leaf)
        })
        .labels_touched();
        let prefix2 =
            store_report(Prefix2Scheme, &tree, |s| s.insert_subtree(append, &leaf)).labels_touched();
        let prime_plain = store_report(DynamicPrime::new(SC_CHUNK), &tree, |s| {
            s.insert_subtree(append, &leaf)
        })
        .labels_touched();

        // Opt2's power-of-two leaf labels are not coprime, so the optimized
        // variant has no SC table and no dynamic store; it keeps the direct
        // PrimeDoc update path.
        let mut t_opt = tree.clone();
        let mut doc_opt = TopDownPrime::optimized().label_document(&t_opt);
        let prime_opt = doc_opt.insert_child(&mut t_opt, target, "new").expect("updatable doc").total_relabeled();

        r.push(&[n, interval, prime_opt, prime_plain, prefix2]);
    }
    r
}

/// Figure 17: number of nodes relabeled when inserting a new node as the
/// *parent* of the first level-4 node (wrapping its subtree).
pub fn fig17() -> Report {
    let mut r = Report::new(
        "fig17_update_nonleaf",
        "Figure 17: update on non-leaf nodes (nodes to relabel)",
        &["doc_nodes", "subtree_size", "interval", "prime", "prefix2"],
    );
    for tree in update_experiment_docs(SEED) {
        let n = tree.elements().count();
        let target = first_at_depth(&tree, 4).expect("update docs reach depth 4");
        let subtree = tree.element_descendants(target).count();

        let interval = store_report(IntervalScheme::dense(), &tree, |s| {
            s.insert_parent(target, "wrap")
        })
        .labels_touched();
        let prefix2 =
            store_report(Prefix2Scheme, &tree, |s| s.insert_parent(target, "wrap")).labels_touched();
        let prime = store_report(DynamicPrime::new(SC_CHUNK), &tree, |s| {
            s.insert_parent(target, "wrap")
        })
        .labels_touched();

        r.push(&[n, subtree, interval, prime, prefix2]);
    }
    r
}

/// The acts of a play, in document order.
fn acts(tree: &XmlTree) -> Vec<NodeId> {
    tree.elements().filter(|&n| tree.tag(n) == Some("ACT")).collect()
}

/// Figure 18: order-sensitive updates on Hamlet — a new `ACT` inserted
/// before act k, for k = 1..=5, each on a fresh document. The prime scheme
/// pays 1 (the new label) + one per touched SC record (+ rare small-prime
/// relabels); interval and prefix relabel everything whose label or order
/// encoding shifts.
pub fn fig18(chunk_capacity: usize) -> Report {
    let mut r = Report::new(
        "fig18_ordered_update",
        "Figure 18: order-sensitive updates (nodes to relabel; SC chunk = 5)",
        &["updated_act", "interval", "prefix2", "dewey", "prime", "prime_sc_records"],
    );
    let play = generate_play("Hamlet", SEED, &PlayParams::hamlet_like());
    for k in 1..=5usize {
        let act_k = acts(&play)[k - 1];

        let interval = store_report(IntervalScheme::dense(), &play, |s| {
            s.insert_before(act_k, "ACT")
        })
        .labels_touched();
        let prefix2 =
            store_report(Prefix2Scheme, &play, |s| s.insert_before(act_k, "ACT")).labels_touched();
        let dewey =
            store_report(DeweyScheme, &play, |s| s.insert_before(act_k, "ACT")).labels_touched();

        let report = store_report(DynamicPrime::new(chunk_capacity), &play, |s| {
            s.insert_before(act_k, "ACT")
        });
        // The prime column charges the SC-record side updates too — the
        // full price of keeping order out of the labels.
        r.push(&[k, interval, prefix2, dewey, report.total_cost(), report.side_updates]);
    }
    r
}

/// Ablation: Figure 18's prime cost as a function of the SC chunk size.
/// Larger chunks mean fewer records to touch but bigger CRT systems per
/// touch — the paper fixes 5; this sweep shows the trade-off, including
/// the SC table's own storage (which the paper never charges).
pub fn ablation_chunk_size() -> Report {
    let mut r = Report::new(
        "ablation_chunk_size",
        "Ablation: SC chunk size vs ordered-update cost (insert before act 3)",
        &["chunk_size", "sc_records_total", "sc_records_updated", "prime_total", "sc_storage_bits"],
    );
    let play = generate_play("Hamlet", SEED, &PlayParams::hamlet_like());
    for chunk in [1usize, 2, 5, 10, 25, 50, 100] {
        let mut t = play.clone();
        let act3 = acts(&t)[2];
        let mut ordered = OrderedPrimeDoc::build(&t, chunk).expect("coprime");
        let total_records = ordered.sc_table().record_count();
        let storage = ordered.sc_table().storage_bits();
        let report = ordered.insert_sibling_before(&mut t, act3, "ACT").expect("insert");
        r.push(&[
            chunk,
            total_records,
            report.sc_records_updated,
            report.total_relabeled(),
            storage as usize,
        ]);
    }
    r
}

/// `(prime, order)` items for an n-node SC table: odd primes assigned in
/// document order (the shape every SC bench in the workspace uses).
fn sc_items(n: usize) -> Vec<(u64, u64)> {
    xp_primes::first_primes(n + 1)[1..]
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64 + 1))
        .collect()
}

/// Median wall-clock numbers from [`sc_maintenance`], in nanoseconds.
#[derive(Debug, Clone)]
pub struct ScMaintenanceStats {
    /// `(table_nodes, median ns)` for one incremental tail-append insert.
    pub append_ns: Vec<(usize, f64)>,
    /// `(table_nodes, median ns)` for rebuilding the grown table from
    /// scratch — the cost floor the pre-incremental insert path hovered
    /// near, since it re-derived every member's order from the SC value.
    pub rebuild_ns: Vec<(usize, f64)>,
    /// Median ns of `front_insert/5`: an insert that shifts the last three
    /// quarters of the chunk-5 table's orders.
    pub front_insert_ns: f64,
    /// Median ns of `build/5`: building that table from scratch.
    pub build_ns: f64,
}

impl ScMaintenanceStats {
    /// `true` iff every size's incremental append is at or below the
    /// rebuild-from-scratch median. An insert that loses to a full rebuild
    /// means the incremental machinery is worthless at that size.
    pub fn incremental_beats_rebuild(&self) -> bool {
        !self.append_ns.is_empty()
            && self
                .append_ns
                .iter()
                .zip(&self.rebuild_ns)
                .all(|(&(_, append), &(_, rebuild))| append <= rebuild)
    }

    /// `true` iff the order-shifting insert costs no more than building the
    /// table: shifting records must beat rebuilding them, as appending does.
    pub fn shifting_insert_beats_build(&self) -> bool {
        self.front_insert_ns <= self.build_ns
    }

    /// `true` iff per-append cost grows no faster than linearly in the
    /// table size (within a noise `factor`): for every pair of sizes,
    /// `append(n₂)/append(n₁) ≤ factor · n₂/n₁`.
    ///
    /// Truly flat wall-clock is impossible — an SC value over n nodes is
    /// O(n) bits, so even a single fold step or product widening touches
    /// O(n/64) limbs. What the incremental path eliminates is the *extra*
    /// factor of n: the old pre-scan re-derived every member's order with a
    /// bignum division, making one append Θ(n) bignum ops ≈ Θ(n²) limb
    /// time. Quadratic growth fails this check at any realistic spread;
    /// linear-in-bits growth passes with room to spare.
    pub fn append_cost_scales_at_most_linearly(&self, factor: f64) -> bool {
        if self.append_ns.is_empty() {
            return false;
        }
        for (i, &(n1, a1)) in self.append_ns.iter().enumerate() {
            for &(n2, a2) in &self.append_ns[i + 1..] {
                if a2 / a1 > factor * (n2 as f64 / n1 as f64) {
                    return false;
                }
            }
        }
        true
    }
}

/// Wall-clock SC-maintenance experiment — the `sc_table` bench group.
///
/// Two families share the group:
///
/// * `build/{chunk}` and `front_insert/{chunk}`: construction and an
///   order-shifting insert at order `fixed_n / 4` (500 in the full sweep)
///   at `fixed_n` nodes across chunk sizes — the names earlier revisions
///   used, so `results/bench_sc_table.json` stays comparable across
///   history.
/// * `append_insert/{n}` and `rebuild_insert/{n}`: per-insert cost of a
///   tail append into an n-node table (chunk 5, the paper's choice) vs
///   rebuilding the grown table from scratch, for each n in `sizes`.
///
/// Returns the chunk-5 medians of the first family and those of the second;
/// callers assert [`ScMaintenanceStats::incremental_beats_rebuild`],
/// [`ScMaintenanceStats::append_cost_scales_at_most_linearly`] and
/// [`ScMaintenanceStats::shifting_insert_beats_build`] on them. Writes
/// `results/bench_sc_table.json` only when `write_json` is set (the CI
/// smoke run measures without clobbering the checked-in numbers).
pub fn sc_maintenance(fixed_n: usize, sizes: &[usize], write_json: bool) -> ScMaintenanceStats {
    use xp_prime::sc::ScTable;
    use xp_testkit::bench::Harness;

    let mut group = Harness::new("sc_table");
    group.sample_size(10);

    let items = sc_items(fixed_n);
    for chunk in [1usize, 5, 25, 100] {
        group.bench(&format!("build/{chunk}"), || ScTable::build(chunk, &items).expect("coprime"));
        let table = ScTable::build(chunk, &items).expect("coprime");
        let fresh = xp_primes::nth_prime(fixed_n as u64 + 10);
        group.bench_batched(
            &format!("front_insert/{chunk}"),
            || table.clone(),
            |mut t| t.insert(fresh, fixed_n as u64 / 4).expect("insert"),
        );
    }

    for &n in sizes {
        let items = sc_items(n);
        let fresh = xp_primes::nth_prime(n as u64 + 10);
        let table = ScTable::build(5, &items).expect("coprime");
        group.bench_batched(
            &format!("append_insert/{n}"),
            || table.clone(),
            |mut t| t.insert(fresh, n as u64 + 1).expect("insert"),
        );
        let mut grown = items.clone();
        grown.push((fresh, n as u64 + 1));
        group.bench(&format!("rebuild_insert/{n}"), || ScTable::build(5, &grown).expect("coprime"));
    }

    let median = |name: &str| {
        group
            .results()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .unwrap_or(f64::NAN)
    };
    let stats = ScMaintenanceStats {
        append_ns: sizes.iter().map(|&n| (n, median(&format!("append_insert/{n}")))).collect(),
        rebuild_ns: sizes.iter().map(|&n| (n, median(&format!("rebuild_insert/{n}")))).collect(),
        front_insert_ns: median("front_insert/5"),
        build_ns: median("build/5"),
    };
    if write_json {
        group.finish();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(r: &Report, idx: usize) -> Vec<u64> {
        r.rows().iter().map(|row| row[idx].parse().unwrap()).collect()
    }

    #[test]
    fn fig16_shape_dynamic_flat_static_grows() {
        let r = fig16();
        let interval = col(&r, 1);
        let prime_opt = col(&r, 2);
        let prime_plain = col(&r, 3);
        let prefix2 = col(&r, 4);
        // Paper: prefix relabels 1, optimized prime 2, original prime 1 —
        // independent of document size.
        assert!(prime_opt.iter().all(|&v| v == 2), "{prime_opt:?}");
        assert!(prime_plain.iter().all(|&v| v == 1), "{prime_plain:?}");
        assert!(prefix2.iter().all(|&v| v == 1), "{prefix2:?}");
        // Interval grows with the document (hundreds to thousands).
        assert!(interval[0] > 10);
        assert!(interval.last().unwrap() > &interval[0]);
    }

    #[test]
    fn fig17_shape_dynamic_pays_subtree_static_pays_suffix() {
        let r = fig17();
        for row in r.rows() {
            let subtree: u64 = row[1].parse().unwrap();
            let interval: u64 = row[2].parse().unwrap();
            let prime: u64 = row[3].parse().unwrap();
            let prefix2: u64 = row[4].parse().unwrap();
            assert_eq!(prime, subtree + 1, "prime pays the wrapped subtree + new node");
            assert_eq!(prefix2, subtree + 1, "prefix pays the same subtree");
            assert!(interval >= prime, "interval relabels a superset");
        }
    }

    #[test]
    fn fig18_shape_prime_is_an_order_of_magnitude_cheaper() {
        let r = fig18(5);
        assert_eq!(r.rows().len(), 5);
        for row in r.rows() {
            let interval: f64 = row[1].parse().unwrap();
            let prefix2: f64 = row[2].parse().unwrap();
            let dewey: f64 = row[3].parse().unwrap();
            let prime: f64 = row[4].parse().unwrap();
            // Interval, prefix, and Dewey all relabel thousands; prime
            // touches ~(nodes-after / 5) SC records.
            assert!(interval > 1000.0, "interval {interval}");
            assert!(prefix2 > 1000.0, "prefix {prefix2}");
            assert!(dewey > 1000.0, "dewey {dewey}");
            assert!(prime < interval / 3.0, "prime {prime} vs interval {interval}");
            assert!(prime < prefix2 / 3.0, "prime {prime} vs prefix {prefix2}");
        }
    }

    #[test]
    fn fig18_cost_declines_for_later_acts() {
        // Inserting before a later act shifts fewer following nodes.
        let r = fig18(5);
        let prime = col(&r, 4);
        assert!(prime.first().unwrap() > prime.last().unwrap(), "{prime:?}");
        let interval = col(&r, 1);
        assert!(interval.first().unwrap() > interval.last().unwrap(), "{interval:?}");
    }

    #[test]
    fn chunk_ablation_larger_chunks_touch_fewer_records() {
        let r = ablation_chunk_size();
        let updated = col(&r, 2);
        assert!(
            updated.first().unwrap() > updated.last().unwrap(),
            "chunk=1 must touch more records than chunk=100: {updated:?}"
        );
    }
}
