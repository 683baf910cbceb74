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
//!
//! A third test holds the position-free descendant steps of Q6, Q8 and Q9
//! to at most one ancestor test per 16 result rows at both sizes. A subtree
//! is one contiguous run in document order, so each outermost context's run
//! end is a galloping search away; a step that tests every candidate
//! against its contexts makes about one test per row.
//!
//! A fourth test holds Q5's position-free preceding step to at most one
//! ancestor test per 64 result rows at both sizes. The step drops the last
//! context's ancestors, which it reads up the parent column; a step that
//! tests every candidate before the context makes one test per row.
//!
//! A fifth test holds the descendant steps of Q3, Q7, Q8 and Q9 to at most
//! two ancestor tests per `//PLAY` context at both sizes. Each context's
//! run is first probed at the next context's start: when the candidate
//! just before it lies in the context's subtree and the one at it does
//! not, the run ends there; a search that gallops makes `O(log d)` tests
//! per context instead.
//!
//! A sixth test serves the queries the way a snapshot does: from
//! [`TagRuns`] built from SC ranks with one sort, behind a counting oracle.
//! Every Table-2 query must then make at most one rank lookup (a root step
//! ranks the root) and return the harness's answer, because every step
//! borrows or filters its tag's rank-ordered run instead of ranking and
//! sorting its candidates.

use std::sync::atomic::{AtomicU64, Ordering};
use xp_datagen::shakespeare::{PlayParams, ShakespeareCorpus};
use xp_query::engine::{eval_path, OrderOracle, Path, RankedRow, TreeOrderOracle};
use xp_query::instrument::measure_predicates;
use xp_query::queries::TEST_QUERIES;
use xp_query::{Evaluator, PrimeEvaluator, TagRuns};
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

/// The Figure-15 corpus at `replicas`, under the prime scheme.
fn corpus(replicas: usize) -> PrimeEvaluator {
    let tree = ShakespeareCorpus::generate_with(replicas, 2004, &PlayParams::hamlet_like()).tree;
    PrimeEvaluator::build(&tree, 5)
}

/// The Figure-15 corpus at `replicas`, the costs of `paths` on it at 1
/// thread, and (c): the same costs at 8 threads.
fn measured(replicas: usize, paths: &[&str]) -> Vec<Cost> {
    let ev = corpus(replicas);
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

#[test]
fn descendant_steps_test_per_context_not_per_candidate() {
    let queries: Vec<_> =
        TEST_QUERIES.iter().filter(|q| ["Q6", "Q8", "Q9"].contains(&q.id)).collect();
    let paths: Vec<&str> = queries.iter().map(|q| q.path).collect();
    let mut failures = Vec::new();
    for replicas in [2, 8] {
        for (q, c) in queries.iter().zip(measured(replicas, &paths)) {
            eprintln!("{}: r={replicas} {} rows {} tests", q.id, c.rows, c.ancestor_tests);
            if 16 * c.ancestor_tests > c.rows as u64 {
                failures.push(format!(
                    "{} at {replicas} replicas: {} ancestor tests for {} rows (> 1 per 16)",
                    q.id, c.ancestor_tests, c.rows
                ));
            }
        }
    }
    assert!(failures.is_empty(), "descendant step gate:\n{}", failures.join("\n"));
}

#[test]
fn preceding_steps_read_ancestors_from_the_parent_column() {
    let q5 = TEST_QUERIES.iter().find(|q| q.id == "Q5").map(|q| q.path).unwrap();
    let mut failures = Vec::new();
    for replicas in [2, 8] {
        let c = measured(replicas, &[q5])[0];
        eprintln!("Q5: r={replicas} {} rows {} tests", c.rows, c.ancestor_tests);
        if 64 * c.ancestor_tests > c.rows as u64 {
            failures.push(format!(
                "Q5 at {replicas} replicas: {} ancestor tests for {} rows (> 1 per 64)",
                c.ancestor_tests, c.rows
            ));
        }
    }
    assert!(failures.is_empty(), "preceding step gate:\n{}", failures.join("\n"));
}

#[test]
fn descendant_runs_end_at_the_next_context() {
    let queries: Vec<_> =
        TEST_QUERIES.iter().filter(|q| ["Q3", "Q7", "Q8", "Q9"].contains(&q.id)).collect();
    // The first path counts the contexts the others' descendant steps walk.
    let paths: Vec<&str> =
        std::iter::once("//PLAY").chain(queries.iter().map(|q| q.path)).collect();
    let mut failures = Vec::new();
    for replicas in [2, 8] {
        let costs = measured(replicas, &paths);
        let plays = costs[0].rows as u64;
        assert!(plays >= replicas as u64, "{plays} PLAY contexts at {replicas} replicas");
        for (q, c) in queries.iter().zip(&costs[1..]) {
            eprintln!("{}: r={replicas} {plays} contexts {} tests", q.id, c.ancestor_tests);
            if c.ancestor_tests > 2 * plays {
                failures.push(format!(
                    "{} at {replicas} replicas: {} ancestor tests for {plays} //PLAY contexts \
                     (> 2 per context)",
                    q.id, c.ancestor_tests
                ));
            }
        }
    }
    assert!(failures.is_empty(), "next-context probe gate:\n{}", failures.join("\n"));
}

/// A served snapshot's order — SC ranks and rank-ordered runs — counting
/// every rank lookup the engine makes through it.
struct CountingRuns {
    runs: TagRuns,
    calls: AtomicU64,
}

impl OrderOracle for CountingRuns {
    fn rank(&self, node: NodeId) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.runs.rank(node)
    }

    fn run(&self, tag: Option<u32>) -> Option<&[RankedRow]> {
        self.runs.run(tag)
    }
}

#[test]
fn served_steps_borrow_runs_instead_of_ranking() {
    let mut failures = Vec::new();
    for replicas in [2, 8] {
        let ev = corpus(replicas);
        let sc = ev.table().rows().iter().map(|r| (r.node, ev.ordered().order_of(r.node)));
        let served = CountingRuns {
            runs: TagRuns::build(ev.table(), TreeOrderOracle::from_ranks(sc)),
            calls: AtomicU64::new(0),
        };
        for q in &TEST_QUERIES {
            let path = Path::parse(q.path).unwrap();
            served.calls.store(0, Ordering::Relaxed);
            let answer = eval_path(ev.table(), &served, &path).unwrap();
            let lookups = served.calls.load(Ordering::Relaxed);
            eprintln!("{}: r={replicas} {} rows {lookups} rank lookups", q.id, answer.len());
            let at = format!("{} at {replicas} replicas", q.id);
            assert_eq!(answer, ev.eval(&path), "{at}: runs changed the answer");
            if lookups > 1 {
                failures.push(format!("{at}: {lookups} rank lookups through served runs (> 1)"));
            }
        }
    }
    assert!(failures.is_empty(), "served runs gate:\n{}", failures.join("\n"));
}
