//! One query evaluator per labeling scheme.
//!
//! Each evaluator owns its scheme's label table plus whatever the scheme
//! uses for document order: the interval scheme reads its `order` field, the
//! prefix scheme compares labels lexicographically (we materialize the ranks
//! the RDBMS would get from `ORDER BY label`), and the prime scheme derives
//! order numbers from the SC table (`SC mod self-label`) at query time —
//! preserving the cost profile the paper measures in Figure 15.

use crate::engine::{eval_path, OrderOracle, Path, QueryError};
use crate::relstore::LabelTable;
use std::collections::HashMap;
use xp_baselines::interval::{IntervalLabel, IntervalScheme};
use xp_baselines::prefix::{Prefix2Scheme, PrefixLabel};
use xp_labelkit::Scheme;
use xp_prime::ordered::OrderedPrimeDoc;
use xp_prime::PrimeLabel;
use xp_xmltree::{NodeId, XmlTree};

/// A scheme-specific query evaluator.
pub trait Evaluator {
    /// Scheme name for experiment output.
    fn name(&self) -> &'static str;

    /// Evaluates a parsed path, returning matching nodes in document order,
    /// or a typed error when a resource budget is exceeded (or an armed
    /// fault point fires).
    fn try_eval(&self, path: &Path) -> Result<Vec<NodeId>, QueryError>;

    /// Evaluates a parsed path.
    ///
    /// # Panics
    /// Panics on evaluation failure (exceeded budgets, injected faults) —
    /// the experiment harnesses run trusted static queries. Untrusted
    /// callers (the CLI) use [`Evaluator::try_eval`].
    fn eval(&self, path: &Path) -> Vec<NodeId> {
        match self.try_eval(path) {
            Ok(nodes) => nodes,
            Err(e) => panic!("query evaluation failed: {e}"),
        }
    }

    /// Evaluates a path given as text.
    ///
    /// # Panics
    /// Panics on syntax errors and evaluation failures (experiment queries
    /// are static).
    fn eval_str(&self, path: &str) -> Vec<NodeId> {
        match Path::parse(path) {
            Ok(parsed) => self.eval(&parsed),
            Err(e) => panic!("invalid path {path:?}: {e}"),
        }
    }

    /// The fixed-width storage footprint of this evaluator's label table.
    fn fixed_width_bits(&self) -> u64;
}

// ---------------------------------------------------------------- interval

/// Interval-scheme evaluator (`order` comparisons, containment joins).
pub struct IntervalEvaluator {
    table: LabelTable<IntervalLabel>,
}

impl IntervalEvaluator {
    /// Labels `tree` densely and builds the table.
    pub fn build(tree: &XmlTree) -> Self {
        let doc = IntervalScheme::dense().label(tree);
        IntervalEvaluator { table: LabelTable::build(tree, &doc) }
    }

    /// The underlying table.
    pub fn table(&self) -> &LabelTable<IntervalLabel> {
        &self.table
    }
}

struct IntervalOracle<'a>(&'a LabelTable<IntervalLabel>);

impl OrderOracle for IntervalOracle<'_> {
    /// A node without a row ranks last, as in [`crate::engine::TreeOrderOracle`].
    fn rank(&self, node: NodeId) -> u64 {
        self.0.label(node).map_or(u64::MAX, |label| label.order)
    }
}

impl Evaluator for IntervalEvaluator {
    fn name(&self) -> &'static str {
        "Interval"
    }

    fn try_eval(&self, path: &Path) -> Result<Vec<NodeId>, QueryError> {
        eval_path(&self.table, &IntervalOracle(&self.table), path)
    }

    fn fixed_width_bits(&self) -> u64 {
        self.table.fixed_width_bits()
    }
}

// ---------------------------------------------------------------- prefix-2

/// Prefix-2 evaluator (prefix-test "UDF" joins, lexicographic order).
pub struct Prefix2Evaluator {
    table: LabelTable<PrefixLabel>,
    ranks: HashMap<NodeId, u64>,
}

impl Prefix2Evaluator {
    /// Labels `tree` with CKM codes and builds the table.
    pub fn build(tree: &XmlTree) -> Self {
        let doc = Prefix2Scheme.label(tree);
        let table = LabelTable::build(tree, &doc);
        // The RDBMS sorts byte-comparable labels; materialize those ranks.
        let mut rows: Vec<_> = table.rows().iter().collect();
        rows.sort_by(|a, b| a.label.bits().cmp(b.label.bits()));
        let ranks = rows.into_iter().zip(0..).map(|(row, rank)| (row.node, rank)).collect();
        Prefix2Evaluator { table, ranks }
    }

    /// The underlying table.
    pub fn table(&self) -> &LabelTable<PrefixLabel> {
        &self.table
    }

    /// Every row's rank in the byte order of its label, as `ORDER BY label`
    /// gives an RDBMS.
    pub fn ranks(&self) -> &HashMap<NodeId, u64> {
        &self.ranks
    }
}

struct PrefixOracle<'a>(&'a HashMap<NodeId, u64>);

impl OrderOracle for PrefixOracle<'_> {
    fn rank(&self, node: NodeId) -> u64 {
        self.0[&node]
    }
}

impl Evaluator for Prefix2Evaluator {
    fn name(&self) -> &'static str {
        "Prefix-2"
    }

    fn try_eval(&self, path: &Path) -> Result<Vec<NodeId>, QueryError> {
        eval_path(&self.table, &PrefixOracle(&self.ranks), path)
    }

    fn fixed_width_bits(&self) -> u64 {
        self.table.fixed_width_bits()
    }
}

// ------------------------------------------------------------------- prime

/// Prime-scheme evaluator: `mod` joins, order numbers from the SC table.
pub struct PrimeEvaluator {
    table: LabelTable<PrimeLabel>,
    ordered: OrderedPrimeDoc,
}

impl PrimeEvaluator {
    /// Labels `tree`, builds the SC table with the given chunk capacity
    /// (the paper's §5.4 uses 5), and builds the label table.
    ///
    /// # Panics
    /// Panics if the SC table cannot be built (see
    /// [`PrimeEvaluator::try_build`] for the fallible form).
    pub fn build(tree: &XmlTree, chunk_capacity: usize) -> Self {
        match Self::try_build(tree, chunk_capacity) {
            Ok(ev) => ev,
            Err(e) => panic!("prime labeling failed: {e}"),
        }
    }

    /// Fallible [`PrimeEvaluator::build`].
    pub fn try_build(tree: &XmlTree, chunk_capacity: usize) -> Result<Self, xp_prime::Error> {
        let ordered = OrderedPrimeDoc::build(tree, chunk_capacity)?;
        let table = LabelTable::build(tree, ordered.labels());
        Ok(PrimeEvaluator { table, ordered })
    }

    /// The underlying table.
    pub fn table(&self) -> &LabelTable<PrimeLabel> {
        &self.table
    }

    /// The ordered document (labels + SC table).
    pub fn ordered(&self) -> &OrderedPrimeDoc {
        &self.ordered
    }
}

struct ScOracle<'a>(&'a OrderedPrimeDoc);

impl OrderOracle for ScOracle<'_> {
    fn rank(&self, node: NodeId) -> u64 {
        self.0.order_of(node)
    }
}

impl Evaluator for PrimeEvaluator {
    fn name(&self) -> &'static str {
        "Prime"
    }

    fn try_eval(&self, path: &Path) -> Result<Vec<NodeId>, QueryError> {
        eval_path(&self.table, &ScOracle(&self.ordered), path)
    }

    fn fixed_width_bits(&self) -> u64 {
        self.table.fixed_width_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_xmltree::parse;

    fn play() -> XmlTree {
        parse(
            "<play><title/>\
             <act><title/><scene><speech><line/><line/></speech>\
                  <speech><line/></speech></scene></act>\
             <act><title/><scene><speech><line/></speech></scene>\
                  <scene><speech><line/><line/><line/></speech></scene></act>\
             <act><title/></act></play>",
        )
        .unwrap()
    }

    fn evaluators(tree: &XmlTree) -> Vec<Box<dyn Evaluator>> {
        vec![
            Box::new(IntervalEvaluator::build(tree)),
            Box::new(Prefix2Evaluator::build(tree)),
            Box::new(PrimeEvaluator::build(tree, 5)),
        ]
    }

    #[test]
    fn all_schemes_agree_on_every_axis() {
        let tree = play();
        let evs = evaluators(&tree);
        for path in [
            "/play/act",
            "/play//line",
            "//scene/speech",
            "/play//act[2]//line",
            "/play/act[1]/following::act",
            "/play//scene[2]/preceding::speech",
            "//act/following-sibling::act",
            "//act[3]/preceding-sibling::act[1]",
            "//speech/following-sibling::speech",
            "//line[2]",
        ] {
            let results: Vec<Vec<NodeId>> = evs.iter().map(|e| e.eval_str(path)).collect();
            assert_eq!(results[0], results[1], "{path}: Interval vs Prefix-2");
            assert_eq!(results[0], results[2], "{path}: Interval vs Prime");
        }
    }

    #[test]
    fn descendant_counts_match_the_tree() {
        let tree = play();
        for ev in evaluators(&tree) {
            assert_eq!(ev.eval_str("/play//line").len(), 7, "{}", ev.name());
            assert_eq!(ev.eval_str("/play//act").len(), 3, "{}", ev.name());
            assert_eq!(ev.eval_str("/play//speech").len(), 4, "{}", ev.name());
            assert_eq!(ev.eval_str("//title").len(), 4, "{}", ev.name());
        }
    }

    #[test]
    fn positional_predicate_selects_per_context() {
        let tree = play();
        for ev in evaluators(&tree) {
            // 2nd line within each speech: speeches have 2, 1, 1, 3 lines.
            assert_eq!(ev.eval_str("//speech/line[2]").len(), 2, "{}", ev.name());
            // 4th act does not exist.
            assert!(ev.eval_str("/play/act[4]").is_empty(), "{}", ev.name());
        }
    }

    #[test]
    fn following_excludes_descendants() {
        let tree = play();
        for ev in evaluators(&tree) {
            // From act[1]: its own lines are NOT "following"; act 2's are.
            let lines = ev.eval_str("/play/act[1]/following::line");
            assert_eq!(lines.len(), 4, "{}", ev.name());
        }
    }

    #[test]
    fn preceding_excludes_ancestors() {
        let tree = play();
        for ev in evaluators(&tree) {
            // From the last act: preceding acts are 1 and 2, but the play
            // (its ancestor) is excluded from preceding::play.
            assert_eq!(ev.eval_str("//act[3]/preceding::act").len(), 2, "{}", ev.name());
            assert!(ev.eval_str("//act[3]/preceding::play").is_empty(), "{}", ev.name());
        }
    }

    #[test]
    fn results_are_in_document_order_without_duplicates() {
        let tree = play();
        let prime = PrimeEvaluator::build(&tree, 5);
        // Multiple contexts (all 4 speeches) share following lines: dedup.
        let lines = prime.eval_str("//speech[1]/following::line");
        let mut sorted = lines.clone();
        sorted.sort_by_key(|&n| prime.ordered().order_of(n));
        sorted.dedup();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn unknown_tag_yields_empty() {
        let tree = play();
        for ev in evaluators(&tree) {
            assert!(ev.eval_str("//nothing").is_empty());
        }
    }

    #[test]
    fn wildcard_matches_everything() {
        let tree = play();
        let total = tree.elements().count();
        for ev in evaluators(&tree) {
            assert_eq!(ev.eval_str("//*").len(), total, "{}", ev.name());
            // All children of all scenes, whatever their tag.
            let under_scene = ev.eval_str("//scene/*").len();
            assert_eq!(under_scene, ev.eval_str("//scene/title").len() + ev.eval_str("//scene/speech").len());
        }
    }

    #[test]
    fn upward_axes_agree_across_schemes() {
        let tree = play();
        let evs = evaluators(&tree);
        for path in [
            "//line/parent::speech",
            "//line/ancestor::act",
            "//line/ancestor::*",
            "//line[1]/ancestor-or-self::*",
            "//speech/parent::*",
        ] {
            let results: Vec<Vec<NodeId>> = evs.iter().map(|e| e.eval_str(path)).collect();
            assert_eq!(results[0], results[1], "{path}");
            assert_eq!(results[0], results[2], "{path}");
            assert!(!results[0].is_empty(), "{path} found nothing");
        }
    }

    #[test]
    fn ancestor_or_self_includes_the_context() {
        let tree = play();
        let ev = PrimeEvaluator::build(&tree, 5);
        // From each act: itself + play = 2 nodes on the or-self chain
        // matching *; "ancestor::act" from an act is empty (acts don't nest).
        assert!(ev.eval_str("//act[1]/ancestor::act").is_empty());
        let chain = ev.eval_str("//act[1]/ancestor-or-self::*");
        assert_eq!(chain.len(), 2, "play + the act itself");
    }

    #[test]
    fn value_predicates_select_by_text() {
        let tree = xp_xmltree::parse::parse(
            r#"<book><author>Mary</author><author>Tom</author><author>John</author>
               <editor>John</editor></book>"#,
        )
        .unwrap();
        for ev in [
            Box::new(IntervalEvaluator::build(&tree)) as Box<dyn Evaluator>,
            Box::new(Prefix2Evaluator::build(&tree)),
            Box::new(PrimeEvaluator::build(&tree, 5)),
        ] {
            // §4's query: books whose author is "John".
            let johns = ev.eval_str(r#"/book/author[="John"]"#);
            assert_eq!(johns.len(), 1, "{}", ev.name());
            assert_eq!(tree.tag(johns[0]), Some("author"));
            // Value + position compose: the 1st John-valued author.
            assert_eq!(ev.eval_str(r#"//author[="John"][1]"#).len(), 1);
            // Value that only the editor has, on the author axis: empty.
            assert!(ev.eval_str(r#"/book/author[="nobody"]"#).is_empty());
        }
    }

    #[test]
    fn existence_predicates_filter_by_child_tag() {
        let tree = play();
        for ev in evaluators(&tree) {
            // Scenes that actually contain a speech (all of them here).
            let with_speech = ev.eval_str("//scene[speech]").len();
            assert_eq!(with_speech, ev.eval_str("//scene").len(), "{}", ev.name());
            // Acts that directly contain a scene: acts 1 and 2 but not 3.
            assert_eq!(ev.eval_str("//act[scene]").len(), 2, "{}", ev.name());
            // Nothing has a <nothing> child.
            assert!(ev.eval_str("//act[nothing]").is_empty(), "{}", ev.name());
            // Composition with position: the 2nd scene-bearing act.
            assert_eq!(ev.eval_str("//act[scene][2]").len(), 1, "{}", ev.name());
        }
    }

    #[test]
    fn parent_of_root_is_empty() {
        let tree = play();
        for ev in evaluators(&tree) {
            assert!(ev.eval_str("/play/parent::*").is_empty(), "{}", ev.name());
        }
    }
}
