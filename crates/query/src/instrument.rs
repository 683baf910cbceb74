//! Predicate-cost instrumentation.
//!
//! Figure 15's timing argument rests on what each scheme's structural
//! predicate *costs*: native integer comparisons for interval, a multi-word
//! `mod` for prime, a byte-string UDF over long labels for prefix. Wall
//! clock on any one substrate hides that; this module measures the
//! substrate-independent quantities instead — how many ancestor tests a
//! query performs and how many label bits those tests touch — by wrapping
//! labels in a counting adapter and re-running the ordinary engine.

use crate::engine::{eval_path, OrderOracle, Path, QueryError};
use crate::relstore::LabelTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xp_labelkit::{AncestorTester, LabelOps};
use xp_xmltree::NodeId;

/// What a query's structural predicates cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredicateStats {
    /// Number of ancestor-test evaluations.
    pub ancestor_tests: u64,
    /// Total label bits fed into those tests (both operands) — the paper's
    /// "node labels in the prefix labeling schemes are relatively large,
    /// and may incur additional disk I/Os" made measurable.
    pub label_bits_touched: u64,
}

/// Shared counters behind one measurement run.
///
/// The engine compares labels on the caller's thread, but labels are
/// `Send + Sync` and may be compared on any thread; thread-local counters
/// would drop those increments and leak counts between tests sharing a
/// thread. One atomic pair per measurement, shared by `Arc` across every
/// label clone, keeps the stats exact on any thread and isolates concurrent
/// measurements from each other.
#[derive(Debug, Default)]
struct Counters {
    tests: AtomicU64,
    bits: AtomicU64,
}

impl Counters {
    fn record(&self, bits: u64) {
        // Relaxed suffices: the totals are read only after every comparing
        // thread has joined, which is already a synchronization point, and
        // the counters carry no ordering relationship with any other data.
        self.tests.fetch_add(1, Ordering::Relaxed);
        self.bits.fetch_add(bits, Ordering::Relaxed);
    }
}

/// A label wrapper that counts every ancestor test through it. All clones
/// made from one [`measure_predicates`] call share one counter block.
///
/// Equality ignores the counter handle — two counting labels are equal iff
/// the wrapped labels are, which is what `LabelOps: Eq` means for the
/// engine.
#[derive(Debug, Clone)]
pub struct CountingLabel<L> {
    inner: L,
    counters: Arc<Counters>,
}

impl<L: PartialEq> PartialEq for CountingLabel<L> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl<L: Eq> Eq for CountingLabel<L> {}

impl<L: LabelOps> LabelOps for CountingLabel<L> {
    fn is_ancestor_of(&self, other: &Self) -> bool {
        self.counters.record(self.inner.size_bits() + other.inner.size_bits());
        self.inner.is_ancestor_of(&other.inner)
    }

    fn is_parent_of(&self, other: &Self) -> bool {
        self.counters.record(self.inner.size_bits() + other.inner.size_bits());
        self.inner.is_parent_of(&other.inner)
    }

    fn size_bits(&self) -> u64 {
        self.inner.size_bits()
    }

    fn level_hint(&self) -> Option<usize> {
        self.inner.level_hint()
    }

    /// Counts exactly like [`LabelOps::is_ancestor_of`] while delegating to
    /// the wrapped scheme's own (possibly precomputed) tester — the stats
    /// stay identical whether the engine tests labels directly or through a
    /// hoisted tester, and the optimized path stays under measurement.
    fn ancestor_tester(&self) -> AncestorTester<'_, Self> {
        let inner_tester = self.inner.ancestor_tester();
        Box::new(move |other: &Self| {
            self.counters.record(self.inner.size_bits() + other.inner.size_bits());
            inner_tester(&other.inner)
        })
    }
}

struct MapOracle(HashMap<NodeId, u64>);

impl OrderOracle for MapOracle {
    fn rank(&self, node: NodeId) -> u64 {
        self.0[&node]
    }
}

/// Evaluates `path` while counting predicate work. Returns the (identical)
/// result set plus the stats. Ranks are materialized up front so the order
/// oracle's own cost does not pollute the predicate counters.
pub fn measure_predicates<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    path: &Path,
) -> Result<(Vec<NodeId>, PredicateStats), QueryError> {
    let counters = Arc::new(Counters::default());
    let counting =
        table.map_labels(|l| CountingLabel { inner: l.clone(), counters: Arc::clone(&counters) });
    let ranks: HashMap<NodeId, u64> =
        table.rows().iter().map(|r| (r.node, oracle.rank(r.node))).collect();
    let result = eval_path(&counting, &MapOracle(ranks), path)?;
    let stats = PredicateStats {
        ancestor_tests: counters.tests.load(Ordering::Relaxed),
        label_bits_touched: counters.bits.load(Ordering::Relaxed),
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluators::{Evaluator, IntervalEvaluator, Prefix2Evaluator, PrimeEvaluator};
    use xp_xmltree::parse;

    fn play() -> xp_xmltree::XmlTree {
        parse(
            "<play><act><scene><speech><line/><line/></speech></scene></act>\
             <act><scene><speech><line/></speech></scene></act></play>",
        )
        .unwrap()
    }

    #[test]
    fn results_are_unchanged_by_instrumentation() {
        let tree = play();
        let ev = IntervalEvaluator::build(&tree);
        for q in ["//act//line", "//act/following::line", "//play//scene"] {
            let path = Path::parse(q).unwrap();
            let plain = ev.eval(&path);
            let ranks: HashMap<NodeId, u64> =
                ev.table().rows().iter().map(|r| (r.node, r.label.order)).collect();
            let (counted, stats) = measure_predicates(ev.table(), &MapOracle(ranks), &path).unwrap();
            assert_eq!(plain, counted, "{q}");
            assert!(stats.ancestor_tests > 0, "{q} did structural work");
        }
    }

    #[test]
    fn predicate_bit_traffic_orders_the_schemes() {
        // Same query, same plan, same result — the only difference between
        // schemes is how many label bits their predicates chew through.
        // Prime labels are whole path products, so they are the widest;
        // interval labels are two fixed log₂(N) numbers. (Average CKM
        // prefix labels land between the two on this corpus — the paper's
        // prefix penalty came from its DBMS UDF, not raw bit traffic; see
        // EXPERIMENTS.md.)
        let tree = xp_datagen::shakespeare::generate_play(
            "x",
            3,
            &xp_datagen::shakespeare::PlayParams::hamlet_like(),
        );
        let path = Path::parse("//SCENE//LINE").unwrap();

        let interval = IntervalEvaluator::build(&tree);
        let iv_ranks: HashMap<NodeId, u64> =
            interval.table().rows().iter().map(|r| (r.node, r.label.order)).collect();
        let (r1, s_interval) = measure_predicates(interval.table(), &MapOracle(iv_ranks), &path).unwrap();

        let prefix = Prefix2Evaluator::build(&tree);
        let px_ranks: HashMap<NodeId, u64> = {
            let mut nodes: Vec<NodeId> = prefix.table().rows().iter().map(|r| r.node).collect();
            nodes.sort_by(|&a, &b| prefix.table().label(a).bits().cmp(prefix.table().label(b).bits()));
            nodes.into_iter().enumerate().map(|(i, n)| (n, i as u64)).collect()
        };
        let (r2, s_prefix) = measure_predicates(prefix.table(), &MapOracle(px_ranks), &path).unwrap();

        let prime = PrimeEvaluator::build(&tree, 5);
        let pr_ranks: HashMap<NodeId, u64> = prime
            .table()
            .rows()
            .iter()
            .map(|r| (r.node, prime.ordered().order_of(r.node)))
            .collect();
        let (r3, s_prime) = measure_predicates(prime.table(), &MapOracle(pr_ranks), &path).unwrap();

        assert_eq!(r1.len(), r2.len());
        assert_eq!(r1.len(), r3.len());
        assert_eq!(s_interval.ancestor_tests, s_prefix.ancestor_tests, "same plan");
        assert_eq!(s_interval.ancestor_tests, s_prime.ancestor_tests, "same plan");
        assert!(
            s_prime.label_bits_touched > s_interval.label_bits_touched,
            "prime {} vs interval {}",
            s_prime.label_bits_touched,
            s_interval.label_bits_touched
        );
        assert!(
            s_prime.label_bits_touched > s_prefix.label_bits_touched,
            "prime {} vs prefix {}",
            s_prime.label_bits_touched,
            s_prefix.label_bits_touched
        );
    }

    /// The counting adapter must see every ancestor test, whichever thread
    /// makes it. Every ordered label pair is compared on the `xp-par` pool
    /// at 1, 2 and 4 threads, and the counters must grow by exactly the
    /// number of comparisons. A measured query's stats must not depend on
    /// the thread count either.
    #[test]
    fn counters_are_exact_on_pool_threads() {
        let tree = play();
        let ev = IntervalEvaluator::build(&tree);
        let counters = Arc::new(Counters::default());
        let labels: Vec<CountingLabel<_>> = ev
            .table()
            .rows()
            .iter()
            .map(|r| CountingLabel { inner: r.label, counters: Arc::clone(&counters) })
            .collect();
        let n = labels.len() as u64;
        let mut found = None;
        for threads in [1, 2, 4] {
            let before = counters.tests.load(Ordering::Relaxed);
            let pairs: usize = xp_par::with_threads(threads, || {
                xp_par::par_map(&labels, |a| labels.iter().filter(|b| a.is_ancestor_of(b)).count())
            })
            .into_iter()
            .sum();
            assert_eq!(counters.tests.load(Ordering::Relaxed) - before, n * n, "{threads} threads");
            assert_eq!(*found.get_or_insert(pairs), pairs, "answers at {threads} threads");
        }

        let path = Path::parse("//scene//line").unwrap();
        let ranks: HashMap<NodeId, u64> =
            ev.table().rows().iter().map(|r| (r.node, r.label.order)).collect();
        let measure = |threads: usize| {
            let oracle = MapOracle(ranks.clone());
            xp_par::with_threads(threads, || {
                measure_predicates(ev.table(), &oracle, &path).unwrap()
            })
        };
        let (r1, s1) = measure(1);
        assert!(s1.ancestor_tests > 0);
        assert!(s1.label_bits_touched > 0);
        for threads in [2, 4] {
            assert_eq!(measure(threads), (r1.clone(), s1), "{threads} threads");
        }
    }

    #[test]
    fn prime_ordered_table_is_wide() {
        let tree = play();
        let prime = PrimeEvaluator::build(&tree, 5);
        let ranks: HashMap<NodeId, u64> = prime
            .table()
            .rows()
            .iter()
            .map(|r| (r.node, prime.ordered().order_of(r.node)))
            .collect();
        let path = Path::parse("//act//line").unwrap();
        let (_, stats) = measure_predicates(prime.table(), &MapOracle(ranks), &path).unwrap();
        assert!(stats.label_bits_touched > 0);
    }
}
