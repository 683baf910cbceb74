//! Path parsing and label-driven evaluation.
//!
//! The supported grammar covers §4's three classes of order-sensitive
//! queries plus the structural axes:
//!
//! ```text
//! path      := step+
//! step      := ("/" | "//") segment
//! segment   := (axis "::")? name predicate*
//! predicate := "[" number "]" | "[" "=" quoted-string "]"
//! name      := element-name | "*"
//! axis      := "following" | "preceding"
//!            | "following-sibling" | "preceding-sibling"
//!            | "parent" | "ancestor" | "ancestor-or-self"
//!            | "child" | "descendant"
//! ```
//!
//! `/name` is the child axis, `//name` the descendant axis. A positional
//! predicate `[n]` selects the n-th matching node *per context node*, in
//! document order — exactly the paper's evaluation strategy for
//! `book/author[2]`: "retrieve all the author nodes who are descendants …
//! sorted first according to their order numbers … return the author node
//! that is in the second position".

use std::collections::HashMap;

use crate::relstore::LabelTable;
use xp_labelkit::LabelOps;
use xp_testkit::faultpoint;
use xp_xmltree::{NodeId, XmlTree};

/// Axes the engine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/tag` — children of the context node.
    Child,
    /// `//tag` — proper descendants of the context node.
    Descendant,
    /// Nodes after the context node in document order, minus its
    /// descendants (§4 class a).
    Following,
    /// Nodes before the context node, minus its ancestors (§4 class a).
    Preceding,
    /// Later children of the same parent (§4 class b).
    FollowingSibling,
    /// Earlier children of the same parent (§4 class b).
    PrecedingSibling,
    /// The context node's parent (one step up).
    Parent,
    /// Proper ancestors of the context node.
    Ancestor,
    /// Ancestors plus the context node itself.
    AncestorOrSelf,
}

/// One step of a parsed path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The axis to walk.
    pub axis: Axis,
    /// The element name to match (`*` = any element).
    pub tag: String,
    /// Positional predicate (1-indexed, per context node) — §4 class c.
    /// Applied *after* the value predicate, like XPath's predicate chain.
    pub position: Option<usize>,
    /// Text-value predicate `[="…"]`: the element's direct text must equal
    /// this string (the paper's `book/author[2]/"John"` query shape).
    pub value: Option<String>,
    /// Existence predicate `[tag]`: the element must have an element child
    /// with this tag (the simplest twig branch).
    pub has_child: Option<String>,
}

/// A parsed query path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The steps, applied left to right from the document root.
    pub steps: Vec<Step>,
}

/// Path syntax errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path was empty or a step had no name.
    Empty,
    /// An unknown `axis::` prefix.
    UnknownAxis(String),
    /// A malformed `[n]` predicate.
    BadPredicate(String),
    /// Paths must start with `/` or `//`.
    MissingLeadingSlash,
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Empty => write!(f, "empty path or step"),
            PathError::UnknownAxis(a) => write!(f, "unknown axis {a:?}"),
            PathError::BadPredicate(p) => write!(f, "bad positional predicate {p:?}"),
            PathError::MissingLeadingSlash => write!(f, "paths must start with '/' or '//'"),
        }
    }
}

impl std::error::Error for PathError {}

/// Evaluation-time resource budgets.
///
/// The engine charges every intermediate result row and every path step
/// against these budgets and returns a typed
/// [`QueryError::LimitExceeded`] when a query would blow through them, so
/// a hostile or runaway path cannot exhaust memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLimits {
    /// Maximum size of any intermediate or final result set (default 2^24).
    pub max_rows: usize,
    /// Maximum number of path steps (default 256).
    pub max_steps: usize,
}

impl Default for QueryLimits {
    fn default() -> Self {
        QueryLimits { max_rows: 1 << 24, max_steps: 256 }
    }
}

/// Which [`QueryLimits`] budget a query exceeded (payload = the budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLimit {
    /// An intermediate result grew past `max_rows`.
    Rows(usize),
    /// The path has more than `max_steps` steps.
    Steps(usize),
}

/// Evaluation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The path could not be parsed.
    Path(PathError),
    /// The path had no steps (a hand-built [`Path`] can be empty even
    /// though [`Path::parse`] rejects it).
    EmptyPath,
    /// A [`QueryLimits`] budget was exceeded.
    LimitExceeded(QueryLimit),
    /// An armed [`xp_testkit::fault`] point fired in the engine.
    FaultInjected(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Path(e) => write!(f, "path: {e}"),
            QueryError::EmptyPath => write!(f, "path has no steps"),
            QueryError::LimitExceeded(QueryLimit::Rows(max)) => {
                write!(f, "intermediate result exceeds max_rows={max}")
            }
            QueryError::LimitExceeded(QueryLimit::Steps(max)) => {
                write!(f, "path exceeds max_steps={max}")
            }
            QueryError::FaultInjected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Path(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PathError> for QueryError {
    fn from(e: PathError) -> Self {
        QueryError::Path(e)
    }
}

impl From<xp_testkit::Injected> for QueryError {
    fn from(e: xp_testkit::Injected) -> Self {
        QueryError::FaultInjected(e.site)
    }
}

impl Path {
    /// Parses a path like `/play//act[3]/following::act`.
    pub fn parse(input: &str) -> Result<Path, PathError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(PathError::Empty);
        }
        if !input.starts_with('/') {
            return Err(PathError::MissingLeadingSlash);
        }
        let mut steps = Vec::new();
        let mut rest = input;
        while !rest.is_empty() {
            let descendant = if rest.starts_with("//") {
                rest = &rest[2..];
                true
            } else if rest.starts_with('/') {
                rest = &rest[1..];
                false
            } else {
                unreachable!("loop leaves rest at a separator");
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let (seg, tail) = rest.split_at(end);
            rest = tail;
            steps.push(parse_segment(seg, descendant)?);
        }
        if steps.is_empty() {
            return Err(PathError::Empty);
        }
        Ok(Path { steps })
    }
}

fn parse_segment(seg: &str, descendant: bool) -> Result<Step, PathError> {
    let seg = seg.trim();
    if seg.is_empty() {
        return Err(PathError::Empty);
    }
    let (axis_part, rest) = match seg.find("::") {
        Some(i) => (Some(&seg[..i]), &seg[i + 2..]),
        None => (None, seg),
    };
    let axis = match axis_part.map(|a| a.to_ascii_lowercase()) {
        None => {
            if descendant {
                Axis::Descendant
            } else {
                Axis::Child
            }
        }
        Some(a) => match a.as_str() {
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            other => return Err(PathError::UnknownAxis(other.to_string())),
        },
    };
    let (name, preds) = match rest.find('[') {
        None => (rest, ""),
        Some(i) => (&rest[..i], &rest[i..]),
    };
    if name.is_empty() {
        return Err(PathError::Empty);
    }
    let mut position = None;
    let mut value = None;
    let mut has_child = None;
    let mut remaining = preds;
    while !remaining.is_empty() {
        let Some(stripped) = remaining.strip_prefix('[') else {
            return Err(PathError::BadPredicate(remaining.to_string()));
        };
        let Some(close) = stripped.find(']') else {
            return Err(PathError::BadPredicate(remaining.to_string()));
        };
        let inner = stripped[..close].trim();
        remaining = &stripped[close + 1..];
        if let Some(val) = inner.strip_prefix('=') {
            let val = val.trim();
            let unquoted = val
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .or_else(|| val.strip_prefix('\'').and_then(|v| v.strip_suffix('\'')))
                .ok_or_else(|| PathError::BadPredicate(inner.to_string()))?;
            value = Some(unquoted.to_string());
        } else if inner.chars().all(|c| c.is_ascii_digit()) && !inner.is_empty() {
            let n: usize =
                inner.parse().map_err(|_| PathError::BadPredicate(inner.to_string()))?;
            if n == 0 {
                return Err(PathError::BadPredicate(inner.to_string()));
            }
            position = Some(n);
        } else if !inner.is_empty()
            && inner.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            has_child = Some(inner.to_string());
        } else {
            return Err(PathError::BadPredicate(inner.to_string()));
        }
    }
    Ok(Step { axis, tag: name.to_string(), position, value, has_child })
}

/// Supplies document-order ranks derived from the scheme's own machinery
/// (`order` field, lexicographic label rank, or `SC mod self-label`).
pub trait OrderOracle {
    /// A rank that sorts elements in document order (root smallest).
    fn rank(&self, node: NodeId) -> u64;
}

/// The reference order: a node's rank is its position in a given element
/// order, by default the tree walk. Differential suites check every
/// scheme's order against it. Nodes outside the order rank last
/// (`u64::MAX`).
#[derive(Debug, Clone, Default)]
pub struct TreeOrderOracle(HashMap<NodeId, u64>);

impl TreeOrderOracle {
    /// Ranks `tree`'s elements in preorder.
    pub fn of(tree: &XmlTree) -> Self {
        Self::from_order(tree.elements())
    }

    /// Ranks nodes by their position in `order`.
    pub fn from_order(order: impl IntoIterator<Item = NodeId>) -> Self {
        TreeOrderOracle(order.into_iter().enumerate().map(|(i, n)| (n, i as u64)).collect())
    }
}

impl OrderOracle for TreeOrderOracle {
    fn rank(&self, node: NodeId) -> u64 {
        self.0.get(&node).copied().unwrap_or(u64::MAX)
    }
}

/// Evaluates `path` against the label table, from the document root.
///
/// Every structural decision is made from labels (plus the table's
/// parent-label column for child/sibling axes) and the order oracle — the
/// tree itself is never consulted, which is the labeling-scheme contract.
///
/// Position-free steps run through the stack-based structural join
/// ([`crate::join`]); positional steps fall back to per-context selection
/// (the paper's own strategy: collect, sort by order number, index).
pub fn eval_path<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    path: &Path,
) -> Result<Vec<NodeId>, QueryError> {
    eval_path_with(table, oracle, path, true)
}

/// [`eval_path`] with an explicit choice of join strategy: `batch = false`
/// forces the naive per-context nested loops (used by the differential
/// tests and the join ablation bench).
pub fn eval_path_with<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    path: &Path,
    batch: bool,
) -> Result<Vec<NodeId>, QueryError> {
    eval_path_limited(table, oracle, path, batch, &QueryLimits::default())
}

/// [`eval_path_with`] with explicit [`QueryLimits`] budgets.
pub fn eval_path_limited<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    path: &Path,
    batch: bool,
    limits: &QueryLimits,
) -> Result<Vec<NodeId>, QueryError> {
    if path.steps.len() > limits.max_steps {
        return Err(QueryError::LimitExceeded(QueryLimit::Steps(limits.max_steps)));
    }
    // The initial context is the *document node*: `/play` selects the root
    // element itself when it is named `play`, and `//tag` selects every
    // element with that tag, the root included.
    let Some(first) = path.steps.first() else {
        return Err(QueryError::EmptyPath);
    };
    let mut ctx: Vec<NodeId> = match first.axis {
        Axis::Child => {
            let root = table.root();
            if first.tag == "*" || table.tag_name(table.row_of(root).tag) == first.tag {
                vec![root]
            } else {
                Vec::new()
            }
        }
        Axis::Descendant if first.tag == "*" => {
            table.rows().iter().map(|r| r.node).collect()
        }
        Axis::Descendant => {
            table.scan_tag(&first.tag).iter().map(|&i| table.rows()[i].node).collect()
        }
        // The document node has no siblings, ancestors, or surroundings.
        _ => Vec::new(),
    };
    if let Some(v) = &first.value {
        ctx.retain(|&n| table.row_of(n).text.as_deref() == Some(v.as_str()));
    }
    if let Some(child_tag) = &first.has_child {
        let parents = parents_with_child(table, child_tag);
        ctx.retain(|n| parents.contains(n));
    }
    ctx.sort_by_key(|&n| oracle.rank(n));
    if let Some(n) = first.position {
        ctx = match ctx.get(n - 1) {
            Some(&m) => vec![m],
            None => Vec::new(),
        };
    }
    if ctx.len() > limits.max_rows {
        return Err(QueryError::LimitExceeded(QueryLimit::Rows(limits.max_rows)));
    }
    for step in &path.steps[1..] {
        if ctx.is_empty() {
            break;
        }
        if batch && step.position.is_none() {
            ctx = select_batch(table, oracle, &ctx, step)?;
        } else {
            let mut next: Vec<NodeId> = Vec::new();
            for &c in &ctx {
                let mut matches = select(table, oracle, c, step);
                if let Some(n) = step.position {
                    matches = match matches.get(n - 1) {
                        Some(&m) => vec![m],
                        None => Vec::new(),
                    };
                }
                next.extend(matches);
            }
            // Union semantics: document order, duplicates removed.
            next.sort_by_key(|&n| oracle.rank(n));
            next.dedup();
            ctx = next;
        }
        if ctx.len() > limits.max_rows {
            return Err(QueryError::LimitExceeded(QueryLimit::Rows(limits.max_rows)));
        }
    }
    Ok(ctx)
}

/// Evaluates one position-free step for the whole context set at once,
/// using the stack-tree join for the containment axes.
fn select_batch<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    ctx: &[NodeId],
    step: &Step,
) -> Result<Vec<NodeId>, QueryError> {
    use std::collections::HashSet;

    faultpoint!("query.join")?;

    // Candidate rows (tag + value filtered), sorted by document order.
    let mut cands: Vec<(u64, NodeId, &L)> = Vec::new();
    let indices: Vec<usize> = if step.tag == "*" {
        (0..table.rows().len()).collect()
    } else {
        table.scan_tag(&step.tag).to_vec()
    };
    for idx in indices {
        let row = &table.rows()[idx];
        let value_ok = match &step.value {
            None => true,
            Some(v) => row.text.as_deref() == Some(v.as_str()),
        };
        if value_ok {
            cands.push((oracle.rank(row.node), row.node, &row.label));
        }
    }
    cands.sort_by_key(|&(r, _, _)| r);

    // Context set, sorted by document order.
    let mut ctx_ranked: Vec<(u64, NodeId, &L)> =
        ctx.iter().map(|&n| (oracle.rank(n), n, &table.row_of(n).label)).collect();
    ctx_ranked.sort_by_key(|&(r, _, _)| r);
    let ctx_ranks: Vec<u64> = ctx_ranked.iter().map(|&(r, _, _)| r).collect();

    let joined = |a: &[(u64, NodeId, &L)], t: &[(u64, NodeId, &L)]| {
        let a_view: Vec<(u64, &L)> = a.iter().map(|&(r, _, l)| (r, l)).collect();
        let t_view: Vec<(u64, &L)> = t.iter().map(|&(r, _, l)| (r, l)).collect();
        crate::join::ancestor_descendant_counts_par(&a_view, &t_view)
    };

    let keep: Vec<NodeId> = match step.axis {
        Axis::Child => {
            let ctx_set: HashSet<NodeId> = ctx.iter().copied().collect();
            cands
                .iter()
                .filter(|&&(_, n, _)| {
                    table.row_of(n).parent.is_some_and(|p| ctx_set.contains(&p) && p != n)
                })
                .map(|&(_, n, _)| n)
                .collect()
        }
        Axis::Descendant => {
            let counts = joined(&ctx_ranked, &cands);
            cands
                .iter()
                .zip(&counts.ancestors_of_target)
                .filter(|&(_, &a)| a > 0)
                .map(|(&(_, n, _), _)| n)
                .collect()
        }
        Axis::Following => {
            // Matches iff some context precedes it that is not an ancestor:
            // (#contexts before) > (#contexts that are ancestors).
            let counts = joined(&ctx_ranked, &cands);
            cands
                .iter()
                .zip(&counts.ancestors_of_target)
                .filter(|&(&(rank, _, _), &anc)| {
                    let before = ctx_ranks.partition_point(|&r| r < rank);
                    before > anc
                })
                .map(|(&(_, n, _), _)| n)
                .collect()
        }
        Axis::Preceding => {
            // Matches iff some context follows it that is not a descendant:
            // (#contexts after) > (#contexts in the candidate's subtree).
            let counts = joined(&cands, &ctx_ranked);
            cands
                .iter()
                .zip(&counts.targets_under_ancestor)
                .filter(|&(&(rank, _, _), &desc)| {
                    let after = ctx_ranks.len() - ctx_ranks.partition_point(|&r| r <= rank);
                    after > desc
                })
                .map(|(&(_, n, _), _)| n)
                .collect()
        }
        Axis::FollowingSibling => {
            let mut min_rank: std::collections::HashMap<NodeId, u64> =
                std::collections::HashMap::new();
            for &(r, n, _) in &ctx_ranked {
                if let Some(p) = table.row_of(n).parent {
                    min_rank.entry(p).and_modify(|m| *m = (*m).min(r)).or_insert(r);
                }
            }
            cands
                .iter()
                .filter(|&&(rank, n, _)| {
                    table
                        .row_of(n)
                        .parent
                        .and_then(|p| min_rank.get(&p))
                        .is_some_and(|&m| rank > m)
                })
                .map(|&(_, n, _)| n)
                .collect()
        }
        Axis::PrecedingSibling => {
            let mut max_rank: std::collections::HashMap<NodeId, u64> =
                std::collections::HashMap::new();
            for &(r, n, _) in &ctx_ranked {
                if let Some(p) = table.row_of(n).parent {
                    max_rank.entry(p).and_modify(|m| *m = (*m).max(r)).or_insert(r);
                }
            }
            cands
                .iter()
                .filter(|&&(rank, n, _)| {
                    table
                        .row_of(n)
                        .parent
                        .and_then(|p| max_rank.get(&p))
                        .is_some_and(|&m| rank < m)
                })
                .map(|&(_, n, _)| n)
                .collect()
        }
        Axis::Parent => {
            let parents: HashSet<NodeId> =
                ctx.iter().filter_map(|&n| table.row_of(n).parent).collect();
            cands.iter().filter(|&&(_, n, _)| parents.contains(&n)).map(|&(_, n, _)| n).collect()
        }
        Axis::Ancestor => {
            let counts = joined(&cands, &ctx_ranked);
            cands
                .iter()
                .zip(&counts.targets_under_ancestor)
                .filter(|&(_, &d)| d > 0)
                .map(|(&(_, n, _), _)| n)
                .collect()
        }
        Axis::AncestorOrSelf => {
            let counts = joined(&cands, &ctx_ranked);
            let ctx_set: HashSet<NodeId> = ctx.iter().copied().collect();
            cands
                .iter()
                .zip(&counts.targets_under_ancestor)
                .filter(|&(&(_, n, _), &d)| d > 0 || ctx_set.contains(&n))
                .map(|(&(_, n, _), _)| n)
                .collect()
        }
    };
    Ok(match &step.has_child {
        None => keep,
        Some(child_tag) => {
            let parents = parents_with_child(table, child_tag);
            keep.into_iter().filter(|n| parents.contains(n)).collect()
        }
    })
}

/// All nodes matching one step for a single context node, document order.
fn select<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    context: NodeId,
    step: &Step,
) -> Vec<NodeId> {
    let ctx_row = table.row_of(context);
    let ctx_rank = oracle.rank(context);
    let mut out: Vec<NodeId> = Vec::new();
    // The descendant and following axes test the *fixed* context label
    // against every candidate — exactly the shape `ancestor_tester` exists
    // for. Built once per step, so the prime scheme's Barrett context is
    // amortized across the whole candidate scan.
    let ctx_is_ancestor = matches!(step.axis, Axis::Descendant | Axis::Following)
        .then(|| ctx_row.label.ancestor_tester());
    // `*` matches every element (XPath wildcard).
    let candidates: Vec<usize> = if step.tag == "*" {
        (0..table.rows().len()).collect()
    } else {
        table.scan_tag(&step.tag).to_vec()
    };
    for idx in candidates {
        let row = &table.rows()[idx];
        if row.node == context && step.axis != Axis::AncestorOrSelf {
            continue;
        }
        let keep = match step.axis {
            Axis::Child => row.parent == Some(context),
            Axis::Descendant => {
                ctx_is_ancestor.as_ref().is_some_and(|tester| tester(&row.label))
            }
            Axis::Following => {
                oracle.rank(row.node) > ctx_rank
                    && !ctx_is_ancestor.as_ref().is_some_and(|tester| tester(&row.label))
            }
            Axis::Preceding => {
                oracle.rank(row.node) < ctx_rank && !row.label.is_ancestor_of(&ctx_row.label)
            }
            Axis::FollowingSibling => {
                row.parent == ctx_row.parent
                    && row.parent.is_some()
                    && oracle.rank(row.node) > ctx_rank
            }
            Axis::PrecedingSibling => {
                row.parent == ctx_row.parent
                    && row.parent.is_some()
                    && oracle.rank(row.node) < ctx_rank
            }
            Axis::Parent => Some(row.node) == ctx_row.parent,
            Axis::Ancestor => row.label.is_ancestor_of(&ctx_row.label),
            Axis::AncestorOrSelf => {
                row.node == context || row.label.is_ancestor_of(&ctx_row.label)
            }
        };
        let value_ok = match &step.value {
            None => true,
            Some(v) => row.text.as_deref() == Some(v.as_str()),
        };
        if keep && value_ok {
            out.push(row.node);
        }
    }
    if let Some(child_tag) = &step.has_child {
        let parents = parents_with_child(table, child_tag);
        out.retain(|n| parents.contains(n));
    }
    out.sort_by_key(|&n| oracle.rank(n));
    out
}

/// Nodes that have at least one element child with the given tag.
fn parents_with_child<L: LabelOps>(
    table: &LabelTable<L>,
    child_tag: &str,
) -> std::collections::HashSet<NodeId> {
    table
        .scan_tag(child_tag)
        .iter()
        .filter_map(|&i| table.rows()[i].parent)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_paths() {
        let p = Path::parse("/play//act/scene").unwrap();
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[0], Step { axis: Axis::Child, tag: "play".into(), position: None, value: None, has_child: None });
        assert_eq!(p.steps[1].axis, Axis::Descendant);
        assert_eq!(p.steps[2].axis, Axis::Child);
    }

    #[test]
    fn parses_predicates_and_axes() {
        let p = Path::parse("/play//act[3]/following::act").unwrap();
        assert_eq!(p.steps[1].position, Some(3));
        assert_eq!(p.steps[2], Step { axis: Axis::Following, tag: "act".into(), position: None, value: None, has_child: None });
        let p2 = Path::parse("//speech/following-sibling::speech[2]").unwrap();
        assert_eq!(p2.steps[1].axis, Axis::FollowingSibling);
        assert_eq!(p2.steps[1].position, Some(2));
        let p3 = Path::parse("/a/preceding-sibling::b").unwrap();
        assert_eq!(p3.steps[1].axis, Axis::PrecedingSibling);
        let p4 = Path::parse("//x/Preceding::y").unwrap();
        assert_eq!(p4.steps[1].axis, Axis::Preceding, "axes are case-insensitive");
    }

    #[test]
    fn rejects_malformed_paths() {
        assert_eq!(Path::parse(""), Err(PathError::Empty));
        assert_eq!(Path::parse("play"), Err(PathError::MissingLeadingSlash));
        assert_eq!(Path::parse("/"), Err(PathError::Empty));
        assert!(matches!(Path::parse("/a/b[x!]"), Err(PathError::BadPredicate(_))));
        assert!(matches!(Path::parse("/a/b[0]"), Err(PathError::BadPredicate(_))));
        assert!(matches!(Path::parse("/a/up::b"), Err(PathError::UnknownAxis(_))));
    }

    #[test]
    fn round_trips_double_slash_segments() {
        let p = Path::parse("//line").unwrap();
        assert_eq!(p.steps.len(), 1);
        assert_eq!(p.steps[0].axis, Axis::Descendant);
    }

    #[test]
    fn parses_value_predicates() {
        // The paper's §4 example: book/author[2]/"John" in our syntax.
        let p = Path::parse(r#"/book/author[2][="John"]"#).unwrap();
        assert_eq!(p.steps[1].position, Some(2));
        assert_eq!(p.steps[1].value.as_deref(), Some("John"));
        // Predicate order is irrelevant; single quotes work too.
        let q = Path::parse("/book/author[='John'][2]").unwrap();
        assert_eq!(q.steps[1].position, Some(2));
        assert_eq!(q.steps[1].value.as_deref(), Some("John"));
        // Value-only predicate.
        let r = Path::parse(r#"//speaker[="HAMLET"]"#).unwrap();
        assert_eq!(r.steps[0].value.as_deref(), Some("HAMLET"));
        assert_eq!(r.steps[0].position, None);
    }

    #[test]
    fn rejects_malformed_value_predicates() {
        assert!(matches!(Path::parse("/a[=John]"), Err(PathError::BadPredicate(_))));
        assert!(matches!(Path::parse("/a[=\"x]"), Err(PathError::BadPredicate(_))));
        assert!(matches!(Path::parse("/a[2"), Err(PathError::BadPredicate(_))));
    }

    #[test]
    fn parses_wildcards() {
        let p = Path::parse("//*").unwrap();
        assert_eq!(p.steps[0].tag, "*");
        let q = Path::parse("//scene/*[2]").unwrap();
        assert_eq!(q.steps[1].tag, "*");
        assert_eq!(q.steps[1].position, Some(2));
    }
}
