//! Query plans: the steps the engine will run for a path, with
//! cardinality estimates — `EXPLAIN` for the label-table engine. Every
//! step runs the same way (one pass over its ranked candidates for the
//! whole context set, see [`crate::engine::eval_path`]), so a plan lists
//! each step's axis, predicates and tag-scan size.

use crate::engine::{Axis, Path};
use crate::relstore::LabelTable;
use std::fmt::Write;
use xp_labelkit::LabelOps;

/// The plan for one step.
#[derive(Debug, Clone)]
pub struct StepPlan {
    /// Rendered step (axis + tag + predicates).
    pub description: String,
    /// Rows the tag scan will produce (before structural predicates).
    pub scan_rows: usize,
}

/// A whole-path plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One entry per step.
    pub steps: Vec<StepPlan>,
}

impl Plan {
    /// Builds the plan for `path` over `table`.
    pub fn of<L: LabelOps>(table: &LabelTable<L>, path: &Path) -> Plan {
        let steps = path
            .steps
            .iter()
            .map(|step| {
                let scan_rows = if step.tag == "*" {
                    table.len()
                } else {
                    table.scan_tag(&step.tag).len()
                };
                let axis = match step.axis {
                    Axis::Child => "child",
                    Axis::Descendant => "descendant",
                    Axis::Following => "following",
                    Axis::Preceding => "preceding",
                    Axis::FollowingSibling => "following-sibling",
                    Axis::PrecedingSibling => "preceding-sibling",
                    Axis::Parent => "parent",
                    Axis::Ancestor => "ancestor",
                    Axis::AncestorOrSelf => "ancestor-or-self",
                };
                let mut description = format!("{axis}::{}", step.tag);
                if let Some(v) = &step.value {
                    let _ = write!(description, "[=\"{v}\"]");
                }
                if let Some(c) = &step.has_child {
                    let _ = write!(description, "[{c}]");
                }
                if let Some(n) = step.position {
                    let _ = write!(description, "[{n}]");
                }
                StepPlan { description, scan_rows }
            })
            .collect();
        Plan { steps }
    }

    /// Renders the plan as indented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:indent$}{}. {}  [{} rows scanned]",
                "",
                i + 1,
                step.description,
                step.scan_rows,
                indent = i * 2,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_baselines::interval::IntervalScheme;
    use xp_labelkit::Scheme;
    use xp_xmltree::parse;

    fn plan_for(src: &str, path: &str) -> Plan {
        let tree = parse(src).unwrap();
        let doc = IntervalScheme::dense().label(&tree);
        let table = LabelTable::build(&tree, &doc);
        Plan::of(&table, &Path::parse(path).unwrap())
    }

    #[test]
    fn scan_estimates_use_the_tag_index() {
        let p = plan_for("<a><b/><b/><c/></a>", "//b/following::c");
        assert_eq!(p.steps[0].scan_rows, 2);
        assert_eq!(p.steps[1].scan_rows, 1);
        let w = plan_for("<a><b/><b/><c/></a>", "//*");
        assert_eq!(w.steps[0].scan_rows, 4);
    }

    #[test]
    fn render_is_readable() {
        let p = plan_for("<a><b/></a>", "/a/b[1]");
        let text = p.render();
        assert!(text.contains("1. child::a"));
        assert!(text.contains("2. child::b[1]"));
    }

    #[test]
    fn predicates_appear_in_descriptions() {
        let tree = parse("<a><b>x</b></a>").unwrap();
        let doc = IntervalScheme::dense().label(&tree);
        let table = LabelTable::build(&tree, &doc);
        let p = Plan::of(&table, &Path::parse(r#"//b[="x"][1]"#).unwrap());
        assert!(p.steps[0].description.contains("[=\"x\"]"));
        assert!(p.steps[0].description.contains("[1]"));
        let q = Plan::of(&table, &Path::parse("//a[b]").unwrap());
        assert!(q.steps[0].description.contains("[b]"));
    }
}
