//! Count gate for query cost: rank lookups and ancestor tests for every
//! Table-2 query on the Figure-15 corpus (the Shakespeare corpus at seed
//! 2004), at 2 and 8 replicas, under the prime scheme.
//!
//! Wall-clock time is noisy on a shared host; these counts are exact, and
//! they are what a per-context rescan multiplies. A step that rescans its
//! candidates once per context does work proportional to contexts ×
//! candidates, which grows with the square of the corpus. A step that
//! matches all contexts in one pass does work proportional to the rows it
//! scans. The gate asserts, per query:
//!
//! * (a) the cost at 8 replicas is at most 5× the cost at 2 replicas
//!   (4× the data, so linear cost plus slack);
//! * (b) at most 8 rank lookups plus ancestor tests per result row, for
//!   every query returning at least 100 rows;
//! * (c) the same counts at 1 and 8 worker threads.
//!
//! "Cost" is rank lookups (through a counting [`OrderOracle`] around
//! [`eval_path`]) plus ancestor tests (through
//! [`measure_predicates`]).
//!
//! A second test applies (a) and (c) to the ancestor tests alone of the
//! structural steps over the large tags: descendant, following, preceding,
//! ancestor and ancestor-or-self from every `SPEECH` or `LINE`. A join that
//! re-pushes ancestors per chunk of targets, or a following/preceding step
//! that pushes every candidate through a stack, grows faster than the
//! corpus there. (Rule (b) does not fit: an ancestor step makes about ten
//! tests per result row.)

use std::sync::atomic::{AtomicU64, Ordering};
use xp_datagen::shakespeare::{PlayParams, ShakespeareCorpus};
use xp_query::engine::{eval_path, OrderOracle, Path};
use xp_query::instrument::measure_predicates;
use xp_query::queries::TEST_QUERIES;
use xp_query::PrimeEvaluator;
use xp_xmltree::NodeId;

/// Order numbers from the SC table, counting every lookup.
struct CountingOracle<'a> {
    ev: &'a PrimeEvaluator,
    calls: AtomicU64,
}

impl OrderOracle for CountingOracle<'_> {
    fn rank(&self, node: NodeId) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ev.ordered().order_of(node)
    }
}

/// What one query cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    rows: usize,
    rank_lookups: u64,
    ancestor_tests: u64,
}

impl Cost {
    fn total(&self) -> u64 {
        self.rank_lookups + self.ancestor_tests
    }
}

/// Runs every path once, counting its rank lookups and its ancestor tests.
fn costs(ev: &PrimeEvaluator, paths: &[&str]) -> Vec<Cost> {
    paths
        .iter()
        .map(|q| {
            let path = Path::parse(q).unwrap();
            let oracle = CountingOracle { ev, calls: AtomicU64::new(0) };
            let rows = eval_path(ev.table(), &oracle, &path).unwrap();
            // `measure_predicates` ranks every row up front; give it an
            // oracle of its own so those lookups are not counted.
            let plain = CountingOracle { ev, calls: AtomicU64::new(0) };
            let (same, stats) = measure_predicates(ev.table(), &plain, &path).unwrap();
            assert_eq!(rows, same, "{q}: instrumentation changed the answer");
            Cost {
                rows: rows.len(),
                rank_lookups: oracle.calls.load(Ordering::Relaxed),
                ancestor_tests: stats.ancestor_tests,
            }
        })
        .collect()
}

/// The Figure-15 corpus at `replicas`, the costs of `paths` on it at 1
/// thread, and (c): the same costs at 8 threads.
fn measured(replicas: usize, paths: &[&str]) -> Vec<Cost> {
    let tree = ShakespeareCorpus::generate_with(replicas, 2004, &PlayParams::hamlet_like()).tree;
    let ev = PrimeEvaluator::build(&tree, 5);
    let serial = xp_par::with_threads(1, || costs(&ev, paths));
    let parallel = xp_par::with_threads(8, || costs(&ev, paths));
    for ((q, s), p) in paths.iter().zip(&serial).zip(&parallel) {
        assert_eq!(s, p, "{q} at {replicas} replicas: counts depend on the thread count");
    }
    serial
}

#[test]
fn query_cost_is_linear_in_the_corpus_and_bounded_per_row() {
    let paths: Vec<&str> = TEST_QUERIES.iter().map(|q| q.path).collect();
    let small = measured(2, &paths);
    let large = measured(8, &paths);
    let mut failures = Vec::new();
    for ((q, s), l) in TEST_QUERIES.iter().zip(&small).zip(&large) {
        eprintln!(
            "{}: r=2 {} rows {} ranks {} tests | r=8 {} rows {} ranks {} tests | x{:.1}",
            q.id,
            s.rows,
            s.rank_lookups,
            s.ancestor_tests,
            l.rows,
            l.rank_lookups,
            l.ancestor_tests,
            l.total() as f64 / s.total().max(1) as f64,
        );
        if l.total() > 5 * s.total() {
            failures.push(format!(
                "{}: cost grew {} -> {} from 2 to 8 replicas (> 5x)",
                q.id,
                s.total(),
                l.total()
            ));
        }
        for (replicas, c) in [(2, s), (8, l)] {
            if c.rows >= 100 && c.total() > 8 * c.rows as u64 {
                failures.push(format!(
                    "{} at {replicas} replicas: {:.1} rank lookups + ancestor tests per row (> 8)",
                    q.id,
                    c.total() as f64 / c.rows as f64
                ));
            }
        }
    }
    assert!(failures.is_empty(), "query cost gate:\n{}", failures.join("\n"));
}

#[test]
fn structural_join_tests_are_linear_in_the_corpus() {
    let paths = [
        "//PLAY//SPEECH//LINE",
        "//PLAY//SPEECH/following::LINE",
        "//PLAY//SPEECH/preceding::LINE",
        "//PLAY//LINE/ancestor::SPEECH",
        "//PLAY//LINE/ancestor-or-self::*",
    ];
    let small = measured(2, &paths);
    let large = measured(8, &paths);
    let mut failures = Vec::new();
    for ((q, s), l) in paths.iter().zip(&small).zip(&large) {
        eprintln!(
            "{q}: r=2 {} rows {} tests | r=8 {} rows {} tests | x{:.1}",
            s.rows,
            s.ancestor_tests,
            l.rows,
            l.ancestor_tests,
            l.ancestor_tests as f64 / s.ancestor_tests.max(1) as f64,
        );
        if l.ancestor_tests > 5 * s.ancestor_tests {
            failures.push(format!(
                "{q}: ancestor tests grew {} -> {} from 2 to 8 replicas (> 5x)",
                s.ancestor_tests, l.ancestor_tests
            ));
        }
    }
    assert!(failures.is_empty(), "structural join gate:\n{}", failures.join("\n"));
}
