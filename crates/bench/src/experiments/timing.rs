//! Timing experiments: Table 2 (query cardinalities) and Figure 15
//! (response times for Q1–Q9 across schemes).

use super::SEED;
use crate::report::Report;
use std::time::Instant;
use xp_datagen::shakespeare::{PlayParams, ShakespeareCorpus};
use xp_query::evaluators::{Evaluator, IntervalEvaluator, Prefix2Evaluator, PrimeEvaluator};
use xp_query::queries::TEST_QUERIES;
use xp_xmltree::XmlTree;

/// Builds the §5.2 corpus: the Shakespeare dataset replicated `replicas`
/// times (the paper uses 5).
pub fn corpus(replicas: usize) -> XmlTree {
    ShakespeareCorpus::generate_with(replicas, SEED, &PlayParams::hamlet_like()).tree
}

/// Builds the three evaluators on one corpus.
pub fn evaluators(tree: &XmlTree) -> Vec<Box<dyn Evaluator>> {
    vec![
        Box::new(IntervalEvaluator::build(tree)),
        Box::new(PrimeEvaluator::build(tree, 5)),
        Box::new(Prefix2Evaluator::build(tree)),
    ]
}

/// Table 2: the nine queries and their result cardinalities (as evaluated
/// by every scheme; a test asserts the schemes agree).
pub fn tab02(replicas: usize) -> Report {
    let tree = corpus(replicas);
    let ev = PrimeEvaluator::build(&tree, 5);
    let mut r = Report::new(
        "tab02_queries",
        "Table 2: test queries and result cardinalities",
        &["query", "paper_path", "executed_path", "nodes_retrieved"],
    );
    for q in &TEST_QUERIES {
        r.row(&[
            q.id.to_string(),
            q.paper_path.to_string(),
            q.path.to_string(),
            ev.eval_str(q.path).len().to_string(),
        ]);
    }
    r
}

/// Figure 15: wall-clock response time (ms, median of `runs`) per query per
/// scheme.
pub fn fig15(replicas: usize, runs: usize) -> Report {
    let tree = corpus(replicas);
    let evs = evaluators(&tree);
    let mut r = Report::new(
        "fig15_response_time",
        "Figure 15: response time for queries (ms)",
        &["query", "interval_ms", "prime_ms", "prefix2_ms", "rows"],
    );
    for q in &TEST_QUERIES {
        let mut cells = vec![q.id.to_string()];
        let mut rows = 0usize;
        for ev in &evs {
            let mut times: Vec<f64> = Vec::with_capacity(runs);
            for _ in 0..runs.max(1) {
                let t = Instant::now();
                rows = ev.eval_str(q.path).len();
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            cells.push(format!("{:.3}", times[times.len() / 2]));
        }
        cells.push(rows.to_string());
        r.row(&cells);
    }
    r
}

/// Companion to Figure 15 (beyond the paper): substrate-independent
/// predicate traffic — ancestor tests and label bits touched — per query
/// per scheme. This is the metric behind the paper's timing claims that
/// survives moving off its 2004 DBMS.
pub fn fig15_predicate_traffic(replicas: usize) -> Report {
    use std::collections::HashMap;
    use xp_query::engine::{OrderOracle, Path};
    use xp_query::instrument::measure_predicates;
    use xp_xmltree::NodeId;

    struct MapOracle(HashMap<NodeId, u64>);
    impl OrderOracle for MapOracle {
        fn rank(&self, node: NodeId) -> u64 {
            self.0[&node]
        }
    }

    let tree = corpus(replicas);
    let interval = IntervalEvaluator::build(&tree);
    let prime = PrimeEvaluator::build(&tree, 5);
    let prefix = Prefix2Evaluator::build(&tree);

    let iv_ranks: HashMap<NodeId, u64> =
        interval.table().rows().iter().map(|r| (r.node, r.label.order)).collect();
    let pr_ranks: HashMap<NodeId, u64> =
        prime.table().rows().iter().map(|r| (r.node, prime.ordered().order_of(r.node))).collect();
    let px_ranks: HashMap<NodeId, u64> = prefix.ranks().clone();

    let mut r = Report::new(
        "fig15_predicate_traffic",
        "Figure 15 companion: predicate traffic (ancestor tests / kilobits of labels touched)",
        &["query", "tests", "interval_kbit", "prime_kbit", "prefix2_kbit"],
    );
    for q in &TEST_QUERIES {
        let path = Path::parse(q.path).expect("valid");
        let (_, si) = measure_predicates(interval.table(), &MapOracle(iv_ranks.clone()), &path).expect("static experiment query");
        let (_, sp) = measure_predicates(prime.table(), &MapOracle(pr_ranks.clone()), &path).expect("static experiment query");
        let (_, sx) = measure_predicates(prefix.table(), &MapOracle(px_ranks.clone()), &path).expect("static experiment query");
        r.row(&[
            q.id.to_string(),
            si.ancestor_tests.to_string(),
            format!("{:.1}", si.label_bits_touched as f64 / 1e3),
            format!("{:.1}", sp.label_bits_touched as f64 / 1e3),
            format!("{:.1}", sx.label_bits_touched as f64 / 1e3),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_query::queries::run_all;

    #[test]
    fn tab02_counts_scale_with_replication() {
        let one = tab02(1);
        let two = tab02(2);
        // Q8/Q9 (plain descendant scans) must scale ~linearly in replicas.
        for id in ["Q8", "Q9"] {
            let c1: f64 = one.rows().iter().find(|r| r[0] == id).unwrap()[3].parse().unwrap();
            let c2: f64 = two.rows().iter().find(|r| r[0] == id).unwrap()[3].parse().unwrap();
            assert!(c2 > 1.5 * c1, "{id}: {c1} -> {c2}");
        }
    }

    #[test]
    fn schemes_agree_on_the_corpus() {
        let tree = ShakespeareCorpus::generate_with(2, SEED, &PlayParams::miniature()).tree;
        let counts: Vec<Vec<(&str, usize)>> =
            evaluators(&tree).iter().map(|e| run_all(e.as_ref())).collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }

    #[test]
    fn fig15_produces_a_row_per_query() {
        // Miniature corpus: this test checks plumbing, not timing claims.
        let r = fig15(1, 1);
        assert_eq!(r.rows().len(), 9);
        for row in r.rows() {
            for cell in &row[1..4] {
                let ms: f64 = cell.parse().unwrap();
                assert!(ms >= 0.0);
            }
        }
    }
}
