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
//! document order — the semantics of the paper's strategy for
//! `book/author[2]`: "retrieve all the author nodes who are descendants …
//! sorted first according to their order numbers … return the author node
//! that is in the second position".
//!
//! Evaluation runs each step once for the whole context set: the step's
//! candidates are its tag's rows that pass `[="…"]` and `[tag]`, in
//! document order, and steps hand each other [`RankedRow`]s — rank, row
//! index and node — in that order. An oracle that keeps each tag's rows in
//! rank order ([`OrderOracle::run`], a served snapshot's
//! [`crate::runs::TagRuns`]) lends the step its run, filtered without
//! ranking or sorting when the step has a predicate; any other oracle has
//! the candidates ranked once and sorted. A position-free step keeps the
//! candidates some context matches. A subtree is one contiguous run in rank
//! order, so the descendant axis keeps each outermost context's run, its
//! end found by galloping, and the following axis reduces to one boundary,
//! the earliest subtree end among the contexts. The preceding axis keeps
//! the candidates ranked before the last context, because
//! `preceding(S) = preceding(last(S))`, minus that context's ancestors,
//! which it reads up the parent column without a label test. The
//! stack-tree join ([`crate::join`]) decides the ancestor and
//! ancestor-or-self axes. A positional step takes each context's n-th
//! match by index into the sorted candidates, so the paper's "collect,
//! sort, index" costs one sort per step rather than one per context. A
//! step whose kept rows form one contiguous stretch of borrowed candidates
//! passes that stretch on without copying it, and the last step emits the
//! node ids the rows carry, so a query touches a row only to read a label,
//! a parent or a text. Every step runs on the caller's thread. The literal
//! per-context strategy survives as the reference
//! `eval_path_with(.., false)` the differential suites compare against.
//!
//! Ranks come from an [`OrderOracle`]. [`TreeOrderOracle`] is a dense rank
//! column: the tree-walk reference in tests, and the column inside a served
//! snapshot's [`crate::runs::TagRuns`], SC order materialised at publish,
//! so a served rank lookup is an array read. The Figure-15 harness ranks
//! through the SC table per call instead, the cost the paper measures.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::join::{self, Ranked};
use crate::relstore::LabelTable;
use xp_labelkit::{LabelOps, RelabelReport};
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

/// Evaluation-time budget on the size of any intermediate or final result
/// set. The engine charges every result row against it, and every path
/// step against [`MAX_STEPS`], and returns a typed
/// [`QueryError::LimitExceeded`] when a query would blow through either, so
/// a hostile or runaway path cannot exhaust memory.
pub const MAX_ROWS: usize = 1 << 24;

/// Evaluation-time budget on the number of path steps (see [`MAX_ROWS`]).
pub const MAX_STEPS: usize = 256;

/// Which budget a query exceeded (payload = the budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLimit {
    /// An intermediate result grew past [`MAX_ROWS`].
    Rows(usize),
    /// The path has more than [`MAX_STEPS`] steps.
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
    /// The [`MAX_ROWS`] or [`MAX_STEPS`] budget was exceeded.
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
                write!(f, "intermediate result exceeds the {max}-row budget")
            }
            QueryError::LimitExceeded(QueryLimit::Steps(max)) => {
                write!(f, "path exceeds the {max}-step budget")
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

    /// The rows of the evaluated table that carry tag id `tag` (every row
    /// for `None`), in rank order, if this oracle keeps them, as a served
    /// snapshot does ([`crate::runs::TagRuns`]). Tag ids are the table's
    /// ([`LabelTable::tag_id`]). The default keeps none, so the engine ranks
    /// and sorts each step's candidates per call.
    fn run(&self, _tag: Option<u32>) -> Option<&[RankedRow]> {
        None
    }
}

/// A dense rank column indexed by [`NodeId::index`]. It is the reference
/// order the differential suites check every scheme against (a node's
/// position in the tree walk, [`TreeOrderOracle::of`]), and the order
/// column a served snapshot reads its ranks from: SC order materialised
/// once ([`TreeOrderOracle::from_ranks`]) and kept current mutation by
/// mutation inside [`crate::runs::TagRuns`]. Nodes outside the column rank
/// last (`u64::MAX`).
#[derive(Debug, Default)]
pub struct TreeOrderOracle(Vec<u64>);

/// `clone_from` reuses the target's buffer.
impl Clone for TreeOrderOracle {
    fn clone(&self) -> Self {
        TreeOrderOracle(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

/// Two columns are equal when they rank every node alike: a slot past the
/// end ranks last, as a cleared slot does.
impl PartialEq for TreeOrderOracle {
    fn eq(&self, other: &Self) -> bool {
        let (long, short) =
            if self.0.len() >= other.0.len() { (&self.0, &other.0) } else { (&other.0, &self.0) };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&r| r == ABSENT)
    }
}

impl Eq for TreeOrderOracle {}

/// The rank of a node the column does not hold.
pub(crate) const ABSENT: u64 = u64::MAX;

impl TreeOrderOracle {
    /// Ranks `tree`'s elements in preorder.
    pub fn of(tree: &XmlTree) -> Self {
        Self::from_order(tree.elements())
    }

    /// Ranks nodes by their position in `order`.
    pub fn from_order(order: impl IntoIterator<Item = NodeId>) -> Self {
        Self::from_ranks(order.into_iter().zip(0..))
    }

    /// Ranks each node as given — for instance by its SC order number
    /// (`SC mod self-label`), gaps included.
    pub fn from_ranks(pairs: impl IntoIterator<Item = (NodeId, u64)>) -> Self {
        let mut column = TreeOrderOracle::default();
        for (node, rank) in pairs {
            column.set(node, rank);
        }
        column
    }

    fn set(&mut self, node: NodeId, rank: u64) {
        let i = node.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, ABSENT);
        }
        self.0[i] = rank;
    }

    /// Folds one mutation into the column the way the SC table moves order
    /// numbers (§4.2). Removed nodes leave without shifting anyone: their
    /// orders become gaps. Inserted nodes take their new order from
    /// `order_of`. Every surviving rank `r` becomes `r + j` for the least
    /// `j` with `j = #{inserted orders ≤ r + j}`, because each insertion
    /// opened a slot at its order and pushed everything at or after it one
    /// place on. Relabeled nodes are survivors: a relabel never moves an
    /// order number. One `u64` pass over the column, no bignum work.
    ///
    /// Returns the thresholds `o_m - m` (ascending): a survivor at `r` moved
    /// to `r + #{thresholds ≤ r}`, which [`crate::runs::TagRuns`] applies to
    /// its runs.
    pub(crate) fn apply_report(
        &mut self,
        report: &RelabelReport,
        order_of: impl Fn(NodeId) -> Option<u64>,
    ) -> Vec<u64> {
        for n in &report.removed {
            if let Some(rank) = self.0.get_mut(n.index()) {
                *rank = ABSENT;
            }
        }
        let inserted: Vec<(NodeId, u64)> =
            report.inserted.iter().filter_map(|&n| Some((n, order_of(n)?))).collect();
        let mut orders: Vec<u64> = inserted.iter().map(|&(_, o)| o).collect();
        orders.sort_unstable();
        // The least fixed point in closed form: below the m-th inserted
        // order `o_m` (ascending, from 0) lie `o_m - m` old slots, so a
        // survivor at `r` lands after `o_m` exactly when `o_m - m ≤ r`. The
        // thresholds `o_m - m` ascend, so `j` is one binary search.
        let thresholds: Vec<u64> =
            orders.iter().zip(0..).map(|(&o, m)| o.saturating_sub(m)).collect();
        if !thresholds.is_empty() {
            for rank in self.0.iter_mut().filter(|r| **r != ABSENT) {
                *rank += thresholds.partition_point(|&t| t <= *rank) as u64;
            }
        }
        for (n, o) in inserted {
            self.set(n, o);
        }
        thresholds
    }
}

impl OrderOracle for TreeOrderOracle {
    fn rank(&self, node: NodeId) -> u64 {
        self.0.get(node.index()).copied().unwrap_or(ABSENT)
    }
}

/// Evaluates `path` against the label table, from the document root.
///
/// Every structural decision is made from labels, the table's parent
/// column (for the child, parent and sibling axes, and for the ancestors a
/// preceding step drops) and the order oracle — the tree itself is never
/// consulted, which is the labeling-scheme contract.
///
/// Each step runs once for the whole context set. Its candidates are the
/// oracle's rank-ordered run for the step's tag when the oracle keeps runs
/// (a served snapshot), and otherwise the tag's rows ranked once and
/// sorted. Position-free steps match them through one descendant run per
/// outermost context, one following boundary, one preceding boundary less
/// the last context's ancestors, or the stack-based structural join
/// ([`crate::join`]) for the ancestor axes, and positional steps pick every
/// context's n-th match by index into the sorted candidate run.
pub fn eval_path<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    path: &Path,
) -> Result<Vec<NodeId>, QueryError> {
    eval_path_with(table, oracle, path, true)
}

/// [`eval_path`] with an explicit choice of evaluation: `batch = false`
/// runs the per-context reference instead — the paper's own strategy of
/// scanning the tag once per context node, then "collect, sort by order
/// number, index" — which the differential tests and the join ablation
/// bench compare the batched steps against. Either way the query runs
/// under the [`MAX_ROWS`] and [`MAX_STEPS`] budgets.
pub fn eval_path_with<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    path: &Path,
    batch: bool,
) -> Result<Vec<NodeId>, QueryError> {
    if path.steps.len() > MAX_STEPS {
        return Err(QueryError::LimitExceeded(QueryLimit::Steps(MAX_STEPS)));
    }
    fn within_budget(rows: Cow<'_, [RankedRow]>) -> Result<Cow<'_, [RankedRow]>, QueryError> {
        if rows.len() > MAX_ROWS {
            Err(QueryError::LimitExceeded(QueryLimit::Rows(MAX_ROWS)))
        } else {
            Ok(rows)
        }
    }
    // The initial context is the *document node*: `/play` selects the root
    // element itself when it is named `play`, and `//tag` selects every
    // element with that tag, the root included.
    let Some(first) = path.steps.first() else {
        return Err(QueryError::EmptyPath);
    };
    let mut ctx: Cow<'_, [RankedRow]> = match first.axis {
        Axis::Child => {
            let root = table.row_index(table.root()).filter(|&i| {
                first.tag == "*" || table.tag_name(table.rows()[i].tag) == first.tag
            });
            Cow::Owned(filter_and_rank(table, oracle, first, root))
        }
        Axis::Descendant => candidates(table, oracle, first),
        // The document node has no siblings, ancestors, or surroundings.
        _ => Cow::Borrowed(&[]),
    };
    if let Some(n) = first.position {
        ctx = Cow::Owned(ctx.get(n - 1).copied().into_iter().collect());
    }
    ctx = within_budget(ctx)?;
    for step in &path.steps[1..] {
        if ctx.is_empty() {
            break;
        }
        ctx = within_budget(if batch {
            select_batch(table, oracle, &ctx, step)?
        } else {
            Cow::Owned(select_per_context(table, oracle, &ctx, step))
        })?;
    }
    Ok(ctx.iter().map(|c| c.node).collect())
}

/// A multiplicative hasher (the Fx rotate-xor-multiply step) for the
/// engine's per-step maps and sets. Their keys are arena slots and row
/// indices the table assigns, never strings a client chose, so SipHash's
/// defence against crafted collisions buys nothing there.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// One row of an intermediate result: its document-order rank, its index
/// into [`LabelTable::rows`] and its element. Steps hand each other these
/// sorted by rank, so no row is ranked twice within a step, and the last
/// step emits the nodes without touching a row. Sixteen bytes; a table
/// holds fewer than 2³² rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RankedRow {
    /// Document-order rank.
    pub rank: u64,
    /// Index into [`LabelTable::rows`].
    pub row: u32,
    /// The row's element.
    pub node: NodeId,
}

/// The rows `step` can select before its axis is applied, in document
/// order: the tag's rows that pass the step's `[="…"]` and `[tag]`
/// filters. An oracle that keeps rank-ordered runs lends the tag's run,
/// filtered without ranking or sorting when the step has a predicate; any
/// other oracle has each passing row ranked once and the rows sorted.
fn candidates<'o, L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &'o dyn OrderOracle,
    step: &Step,
) -> Cow<'o, [RankedRow]> {
    let tag = match step.tag.as_str() {
        "*" => None,
        name => match table.tag_id(name) {
            Some(id) => Some(id),
            None => return Cow::Borrowed(&[]),
        },
    };
    let Some(run) = oracle.run(tag) else {
        return Cow::Owned(if tag.is_none() {
            filter_and_rank(table, oracle, step, 0..table.len())
        } else {
            filter_and_rank(table, oracle, step, table.scan_tag(&step.tag).iter().copied())
        });
    };
    debug_assert_eq!(
        run.len(),
        if tag.is_none() { table.len() } else { table.scan_tag(&step.tag).len() },
        "the oracle's run for {:?} does not cover the table's rows",
        step.tag
    );
    if step.value.is_none() && step.has_child.is_none() {
        return Cow::Borrowed(run);
    }
    let passes = predicate(table, step);
    Cow::Owned(run.iter().filter(|c| passes(c.row as usize, c.node)).copied().collect())
}

/// Keeps the `rows` that pass `step`'s value and existence predicates and
/// sorts them by rank.
fn filter_and_rank<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    step: &Step,
    rows: impl IntoIterator<Item = usize>,
) -> Vec<RankedRow> {
    let passes = predicate(table, step);
    let mut out: Vec<RankedRow> = rows
        .into_iter()
        .filter_map(|i| {
            let node = table.rows()[i].node;
            passes(i, node).then(|| RankedRow { rank: oracle.rank(node), row: i as u32, node })
        })
        .collect();
    // Stable sort on purpose: a patched table's tag buckets stay mostly in
    // document order, and the stable sort merges such runs in near-linear
    // time where the unstable one falls back to a full quicksort.
    out.sort();
    out
}

/// `step`'s `[="…"]` and `[tag]` filters as one test on a row index and
/// its node.
fn predicate<'a, L: LabelOps>(
    table: &'a LabelTable<L>,
    step: &'a Step,
) -> impl Fn(usize, NodeId) -> bool + 'a {
    let parents = step.has_child.as_deref().map(|tag| parents_with_child(table, tag));
    move |i, node| {
        step.value.as_deref().is_none_or(|v| table.rows()[i].text.as_deref() == Some(v))
            && parents.as_ref().is_none_or(|p| p.contains(&node))
    }
}

/// Evaluates one step for the whole context set at once. A position-free
/// step keeps every candidate some context matches ([`any_match`]), a
/// positional step every candidate that is some context's n-th match
/// ([`nth_match`]). The union comes out in candidate order — document
/// order, without duplicates — so it needs no re-sort.
fn select_batch<'o, L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &'o dyn OrderOracle,
    ctx: &[RankedRow],
    step: &Step,
) -> Result<Cow<'o, [RankedRow]>, QueryError> {
    faultpoint!("query.join")?;
    let cands = candidates(table, oracle, step);
    let keep = match step.position {
        None => any_match(table, oracle, ctx, &cands, step),
        Some(n) => nth_match(table, ctx, &cands, step.axis, n - 1),
    };
    Ok(kept(cands, &keep))
}

/// The candidates `keep` marks. When they are one contiguous stretch — a
/// descendant step under one context, every candidate past a following
/// boundary, everything before a preceding one — the stretch is passed on
/// as a slice, still borrowed if the candidates were.
fn kept<'o>(cands: Cow<'o, [RankedRow]>, keep: &[bool]) -> Cow<'o, [RankedRow]> {
    let start = keep.iter().position(|&k| k).unwrap_or(keep.len());
    let end = start + keep[start..].iter().take_while(|&&k| k).count();
    if keep[end..].contains(&true) {
        return Cow::Owned(cands.iter().zip(keep).filter(|&(_, &k)| k).map(|(c, _)| *c).collect());
    }
    match cands {
        Cow::Borrowed(run) => Cow::Borrowed(&run[start..end]),
        Cow::Owned(mut rows) => {
            rows.truncate(end);
            rows.drain(..start);
            Cow::Owned(rows)
        }
    }
}

/// `(rank, label)` views of ranked rows, the join's input shape.
fn labeled<'t, L: LabelOps>(table: &'t LabelTable<L>, rows: &[RankedRow]) -> Vec<Ranked<'t, L>> {
    rows.iter().map(|c| (c.rank, &table.rows()[c.row as usize].label)).collect()
}

/// The rows of `row`'s proper ancestors, nearest first, read up the parent
/// column: one node → row lookup per level. `None` if the walk reaches a
/// parent the table holds no row for, as at a partition's edge.
fn ancestor_rows<L: LabelOps>(table: &LabelTable<L>, row: usize) -> Option<Vec<usize>> {
    let mut chain = Vec::new();
    let mut parent = table.rows()[row].parent;
    while let Some(node) = parent {
        let r = table.row_index(node)?;
        chain.push(r);
        parent = table.rows()[r].parent;
    }
    Some(chain)
}

/// Marks the candidates at least one context matches on `step`'s axis: one
/// galloped run per outermost context for the descendant axis, one boundary
/// for the following axis, one boundary less the last context's ancestors
/// for the preceding axis, the stack-tree join for the ancestor axes.
fn any_match<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    ctx: &[RankedRow],
    cands: &[RankedRow],
    step: &Step,
) -> Vec<bool> {
    let rows = table.rows();
    let parent_of = |c: &RankedRow| rows[c.row as usize].parent;
    let label = |c: &RankedRow| &rows[c.row as usize].label;
    let targets_under =
        || join::ancestor_descendant_counts(&labeled(table, cands), &labeled(table, ctx));
    match step.axis {
        Axis::Child => {
            let ctx_nodes: IdSet<NodeId> = ctx.iter().map(|c| c.node).collect();
            cands.iter().map(|c| parent_of(c).is_some_and(|p| ctx_nodes.contains(&p))).collect()
        }
        Axis::Descendant => {
            // Each context's descendants are the candidate run right after
            // it. A context whose run would start inside the run kept so far
            // lies in that subtree, so its own run is already kept.
            let mut keep = vec![false; cands.len()];
            let mut end = 0;
            for c in ctx {
                let start = cands.partition_point(|d| d.rank <= c.rank);
                if start < end {
                    continue;
                }
                end = start + descendant_run(table, label(c), &cands[start..]);
                keep[start..end].fill(true);
            }
            keep
        }
        Axis::Following => {
            // following(S) is every candidate past the earliest subtree end
            // among the contexts. In rank order, each context's end is the
            // first candidate past its descendant run; a context that starts
            // at or past the best end so far cannot end earlier.
            let mut end = cands.len();
            for c in ctx {
                if cands.get(end).is_some_and(|d| c.rank >= d.rank) {
                    break;
                }
                let start = cands.partition_point(|d| d.rank <= c.rank);
                end = start + descendant_run(table, label(c), &cands[start..end]);
            }
            (0..cands.len()).map(|p| p >= end).collect()
        }
        Axis::Preceding => {
            // preceding(S) = preceding(last(S)): a candidate ends before some
            // context starts iff it ends before the last one starts. So the
            // step keeps every candidate ranked before the last context,
            // except that context's ancestors.
            let Some(last) = ctx.last() else {
                return vec![false; cands.len()];
            };
            let before = cands.partition_point(|d| d.rank < last.rank);
            let mut keep = vec![false; cands.len()];
            keep[..before].fill(true);
            match ancestor_rows(table, last.row as usize) {
                // An ancestor the step could select is found among the
                // candidates by its rank; no label is tested.
                Some(chain) => {
                    for row in chain.into_iter().map(|r| &rows[r]) {
                        if step.tag != "*" && table.tag_name(row.tag) != step.tag {
                            continue;
                        }
                        let rank = oracle.rank(row.node);
                        if let Ok(p) = cands[..before].binary_search_by_key(&rank, |d| d.rank) {
                            keep[p] &= cands[p].node != row.node;
                        }
                    }
                }
                None => {
                    for (k, c) in keep[..before].iter_mut().zip(cands) {
                        *k = !label(c).is_ancestor_of(label(last));
                    }
                }
            }
            keep
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            // Per parent, the earliest (latest) context: a candidate under
            // the same parent matches iff it comes after (before) it.
            let following = step.axis == Axis::FollowingSibling;
            let mut bound: IdMap<NodeId, u64> = IdMap::default();
            for c in ctx {
                if let Some(p) = parent_of(c) {
                    let b = bound.entry(p).or_insert(c.rank);
                    *b = if following { (*b).min(c.rank) } else { (*b).max(c.rank) };
                }
            }
            cands
                .iter()
                .map(|c| {
                    parent_of(c)
                        .and_then(|p| bound.get(&p))
                        .is_some_and(|&b| if following { c.rank > b } else { c.rank < b })
                })
                .collect()
        }
        Axis::Parent => {
            let parents: IdSet<NodeId> = ctx.iter().filter_map(parent_of).collect();
            cands.iter().map(|c| parents.contains(&c.node)).collect()
        }
        Axis::Ancestor => targets_under().into_iter().map(|d| d > 0).collect(),
        Axis::AncestorOrSelf => {
            let ctx_rows: IdSet<u32> = ctx.iter().map(|c| c.row).collect();
            cands
                .iter()
                .zip(targets_under())
                .map(|(c, d)| d > 0 || ctx_rows.contains(&c.row))
                .collect()
        }
    }
}

/// Marks, for every context, its `k`-th match on `axis` (0-based, document
/// order) — the paper's per-context "collect, sort by order number, index"
/// done for all contexts in one pass over the sorted candidate run. Each
/// context costs index arithmetic plus at most a few label tests:
///
/// * descendants of a context are the contiguous candidate run right after
///   it, so its k-th descendant is one test away, and the run's end — its
///   first following candidate — a galloping search away;
/// * child and sibling matches are positions in the candidates grouped by
///   the parent column, and the parent is a lookup;
/// * ancestor, ancestor-or-self and preceding read the context's ancestor
///   chain from the stack-tree join ([`join::visit_ancestor_chains`]).
fn nth_match<L: LabelOps>(
    table: &LabelTable<L>,
    ctx: &[RankedRow],
    cands: &[RankedRow],
    axis: Axis,
    k: usize,
) -> Vec<bool> {
    let rows = table.rows();
    let label = |c: &RankedRow| &rows[c.row as usize].label;
    // Position of the first candidate after a context.
    let after = |rank: u64| cands.partition_point(|d| d.rank <= rank);
    let mut picks: Vec<usize> = Vec::new();
    match axis {
        Axis::Descendant => {
            for c in ctx {
                let p = after(c.rank) + k;
                if p < cands.len() && label(c).is_ancestor_of(label(&cands[p])) {
                    picks.push(p);
                }
            }
        }
        Axis::Following => {
            for c in ctx {
                let start = after(c.rank);
                picks.push(start + descendant_run(table, label(c), &cands[start..]) + k);
            }
        }
        Axis::Child | Axis::FollowingSibling | Axis::PrecedingSibling => {
            // Candidate positions grouped by parent, each group in rank order.
            let mut children: IdMap<NodeId, Vec<usize>> = IdMap::default();
            for (p, c) in cands.iter().enumerate() {
                if let Some(parent) = rows[c.row as usize].parent {
                    children.entry(parent).or_default().push(p);
                }
            }
            for c in ctx {
                let siblings =
                    || rows[c.row as usize].parent.and_then(|parent| children.get(&parent));
                let pick = match axis {
                    Axis::Child => children.get(&c.node).and_then(|g| g.get(k)),
                    Axis::FollowingSibling => siblings()
                        .and_then(|g| g.get(g.partition_point(|&p| cands[p].rank <= c.rank) + k)),
                    _ => siblings()
                        .and_then(|g| g[..g.partition_point(|&p| cands[p].rank < c.rank)].get(k)),
                };
                picks.extend(pick);
            }
        }
        Axis::Parent => {
            if k == 0 {
                let position: IdMap<NodeId, usize> =
                    cands.iter().enumerate().map(|(p, c)| (c.node, p)).collect();
                picks.extend(ctx.iter().filter_map(|c| {
                    rows[c.row as usize].parent.and_then(|n| position.get(&n))
                }));
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::Preceding => {
            join::visit_ancestor_chains(&labeled(table, cands), &labeled(table, ctx), |t, chain| {
                let c = ctx[t];
                let pick = match axis {
                    Axis::Ancestor => chain.get(k).copied(),
                    // The chain, then the context itself if it is a candidate.
                    Axis::AncestorOrSelf if k == chain.len() => cands.binary_search(&c).ok(),
                    Axis::AncestorOrSelf => chain.get(k).copied(),
                    _ => {
                        // The k-th candidate before the context, skipping
                        // the chain (ascending, all before the context).
                        let mut p = k;
                        for &a in chain {
                            if a > p {
                                break;
                            }
                            p += 1;
                        }
                        cands.get(p).filter(|d| d.rank < c.rank).map(|_| p)
                    }
                };
                picks.extend(pick);
            });
        }
    }
    let mut keep = vec![false; cands.len()];
    for p in picks {
        if let Some(slot) = keep.get_mut(p) {
            *slot = true;
        }
    }
    keep
}

/// How many leading elements of `run` — candidates in document order, all
/// after the context — lie in the context's subtree. A subtree is
/// contiguous in document order, so the answer is found by galloping and
/// then bisecting: `O(log d)` ancestor tests for `d` descendants.
fn descendant_run<L: LabelOps>(table: &LabelTable<L>, ctx_label: &L, run: &[RankedRow]) -> usize {
    let inside = |p: usize| ctx_label.is_ancestor_of(&table.rows()[run[p].row as usize].label);
    // run[..lo] is known inside, run[hi..] known outside.
    let (mut lo, mut hi, mut stride) = (0, run.len(), 1);
    while lo < hi {
        let probe = (lo + stride - 1).min(hi - 1);
        if !inside(probe) {
            hi = probe;
            break;
        }
        lo = probe + 1;
        stride *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if inside(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The per-context reference for one step: each context's matches found
/// by [`select`], the n-th kept when the step is positional, and the union
/// sorted back into document order.
fn select_per_context<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    ctx: &[RankedRow],
    step: &Step,
) -> Vec<RankedRow> {
    let mut next: Vec<RankedRow> = Vec::new();
    for &c in ctx {
        let matches = select(table, oracle, c, step);
        match step.position {
            Some(n) => next.extend(matches.get(n - 1)),
            None => next.extend(matches),
        }
    }
    // Union semantics: document order, duplicates removed.
    next.sort();
    next.dedup();
    next
}

/// All rows matching one step for a single context row, document order.
fn select<L: LabelOps>(
    table: &LabelTable<L>,
    oracle: &dyn OrderOracle,
    ctx: RankedRow,
    step: &Step,
) -> Vec<RankedRow> {
    let ctx_row = &table.rows()[ctx.row as usize];
    let context = ctx.node;
    let ctx_rank = ctx.rank;
    let mut out: Vec<RankedRow> = Vec::new();
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
            out.push(RankedRow { rank: oracle.rank(row.node), row: idx as u32, node: row.node });
        }
    }
    if let Some(child_tag) = &step.has_child {
        let parents = parents_with_child(table, child_tag);
        out.retain(|c| parents.contains(&c.node));
    }
    out.sort();
    out
}

/// Nodes that have at least one element child with the given tag.
fn parents_with_child<L: LabelOps>(table: &LabelTable<L>, child_tag: &str) -> IdSet<NodeId> {
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
    fn empty_tables_answer_every_shape_with_no_rows() {
        use xp_baselines::interval::IntervalScheme;
        use xp_labelkit::Scheme;

        let tree = xp_xmltree::parse("<a><b/></a>").unwrap();
        let doc = IntervalScheme::dense().label(&tree);
        let full = LabelTable::build(&tree, &doc);
        // A composition of no partitions: the root has no row.
        let empty: LabelTable<xp_baselines::IntervalLabel> = LabelTable::concat(tree.root(), []);
        let oracle = TreeOrderOracle::of(&tree);
        for q in ["/a", "//a", "//a/b[1]", "/*", "//*[2]", "//a/b", "//a/ancestor::*[1]"] {
            let path = Path::parse(q).unwrap();
            for batch in [true, false] {
                assert_eq!(eval_path_with(&empty, &oracle, &path, batch), Ok(vec![]), "{q}");
            }
        }
        assert_eq!(eval_path(&full, &oracle, &Path::parse("//a/b[1]").unwrap()).unwrap().len(), 1);
    }

    /// A partition holds no row for the parents above its own root, so a
    /// preceding step's walk up the parent column stops short there, and
    /// the step tests labels instead.
    #[test]
    fn preceding_falls_back_to_labels_at_a_partition_edge() {
        use xp_baselines::interval::IntervalScheme;
        use xp_labelkit::Scheme;

        let tree = xp_xmltree::parse("<r><a/><b><c/><d/></b></r>").unwrap();
        let doc = IntervalScheme::dense().label(&tree);
        let part = LabelTable::build_where(&tree, &doc, |n| n != tree.root());
        let oracle = TreeOrderOracle::of(&tree);
        let tag = |n: &NodeId| tree.tag(*n).unwrap().to_string();
        let path = Path::parse("//d/preceding::*").unwrap();
        for batch in [true, false] {
            let got = eval_path_with(&part, &oracle, &path, batch).unwrap();
            assert_eq!(got.iter().map(tag).collect::<Vec<_>>(), ["a", "c"], "batch {batch}");
        }
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
