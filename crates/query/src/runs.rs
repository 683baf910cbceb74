//! Rank-ordered tag runs: the document order a served snapshot keeps beside
//! its label table.
//!
//! Every step needs its candidates in document order. An oracle that only
//! ranks ([`OrderOracle::rank`]) has the engine rank each candidate and sort
//! them, per step and per query: the per-call SC ranking the Figure-15
//! harness measures. A served snapshot answers many queries per epoch, so
//! [`TagRuns`] keeps, beside its rank column, each tag's rows already in
//! rank order, plus one run of every row for `*`, and lends them through
//! [`OrderOracle::run`]. A step without a predicate borrows its run, a step
//! with one filters it, and neither ranks nor sorts.
//!
//! The runs are built once, with one sort ([`TagRuns::build`]), or with
//! none when the rows arrive in document order ([`TagRuns::from_order`]).
//! Then they follow each mutation the way the column does
//! ([`TagRuns::apply_report`]):
//!
//! * removed rows leave the runs;
//! * survivors' ranks shift by the column's threshold rule, which keeps
//!   their order, so nothing is sorted;
//! * rows the table's `swap_remove` moved are re-pointed through the node
//!   each entry carries;
//! * inserted rows enter by binary search.

use crate::engine::{OrderOracle, RankedRow, TreeOrderOracle, ABSENT};
use crate::relstore::LabelTable;
use xp_labelkit::{LabelOps, RelabelReport};
use xp_xmltree::NodeId;

/// A rank column plus every tag's rows in rank order (see the module
/// docs). The runs are keyed by the tag ids of the table they were built
/// from, and must be patched with every report that table is patched with.
#[derive(Debug, PartialEq, Eq)]
pub struct TagRuns {
    column: TreeOrderOracle,
    /// Every row in rank order: the `*` run.
    all: Vec<RankedRow>,
    /// Per tag id, that tag's rows in rank order.
    by_tag: Vec<Vec<RankedRow>>,
}

impl TagRuns {
    /// Runs of `table`'s rows ranked by `column`, sorted once and dealt out
    /// by tag. A row the column does not hold ranks last, as it does when
    /// the engine ranks it.
    pub fn build<L: LabelOps>(table: &LabelTable<L>, column: TreeOrderOracle) -> Self {
        let mut all: Vec<RankedRow> = (table.rows().iter().zip(0..))
            .map(|(row, i)| RankedRow { rank: column.rank(row.node), row: i, node: row.node })
            .collect();
        all.sort_unstable();
        Self::deal(table, column, all)
    }

    /// Runs of `table`'s rows ranked by their position in `order`, a
    /// document-order walk, filled in the pass that builds the column: no
    /// sort. Should `order` miss a row, this falls back to
    /// [`TagRuns::build`], which ranks that row last.
    pub fn from_order<L: LabelOps>(
        table: &LabelTable<L>,
        order: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let nodes: Vec<NodeId> = order.into_iter().collect();
        let all: Vec<RankedRow> = (nodes.iter().zip(0..))
            .filter_map(|(&node, rank)| {
                Some(RankedRow { rank, row: table.row_index(node)? as u32, node })
            })
            .collect();
        let column = TreeOrderOracle::from_order(nodes);
        if all.len() == table.len() {
            Self::deal(table, column, all)
        } else {
            Self::build(table, column)
        }
    }

    /// Deals the rank-ordered `all` out into one run per tag.
    fn deal<L: LabelOps>(
        table: &LabelTable<L>,
        column: TreeOrderOracle,
        all: Vec<RankedRow>,
    ) -> Self {
        let mut by_tag = vec![Vec::new(); table.tag_count()];
        for &entry in &all {
            by_tag[table.rows()[entry.row as usize].tag as usize].push(entry);
        }
        TagRuns { column, all, by_tag }
    }

    /// Folds one mutation into the column and the runs. `table` must
    /// already hold the same report's patch ([`LabelTable::apply_report`]);
    /// `order_of` gives an inserted node its SC order, as for the column.
    ///
    /// Every entry a change can reach is found by binary search on rank:
    /// the removed rows by the span of ranks they held before the fold, a
    /// survivor's first shifted rank per threshold, a moved row by its rank
    /// after the fold. Only the entries past the first change in a run are
    /// written.
    pub fn apply_report<L: LabelOps>(
        &mut self,
        table: &LabelTable<L>,
        report: &RelabelReport,
        order_of: impl Fn(NodeId) -> Option<u64>,
    ) {
        let mut gone: Vec<u64> =
            report.removed.iter().map(|&n| self.column.rank(n)).filter(|&r| r != ABSENT).collect();
        gone.sort_unstable();
        // The slots the removed rows held. The table fills each with its
        // last row, so after the patch every one below the appended rows
        // holds a row that moved there.
        let outside = self.all.partition_point(|e| e.rank != ABSENT);
        let vacated: Vec<usize> = (report.removed.iter())
            .filter_map(|&node| {
                let at = match self.column.rank(node) {
                    ABSENT => outside + self.all[outside..].iter().position(|e| e.node == node)?,
                    rank => find(&self.all, rank)?,
                };
                Some(self.all[at].row as usize)
            })
            .collect();
        let thresholds = self.column.apply_report(report, order_of);
        let mut fresh: Vec<RankedRow> = (report.inserted.iter())
            .filter_map(|&node| {
                let row = table.row_index(node)? as u32;
                Some(RankedRow { rank: self.column.rank(node), row, node })
            })
            .collect();
        fresh.sort_unstable();
        self.by_tag.resize_with(table.tag_count(), Vec::new);
        for run in std::iter::once(&mut self.all).chain(&mut self.by_tag) {
            patch(run, &gone, &thresholds, table);
        }
        for idx in vacated.into_iter().filter(|&i| i < table.len() - fresh.len()) {
            let row = &table.rows()[idx];
            let rank = self.column.rank(row.node);
            if rank == ABSENT {
                continue; // re-pointed with the rows outside the column
            }
            for run in [&mut self.all, &mut self.by_tag[row.tag as usize]] {
                if let Some(p) = find(run, rank) {
                    run[p].row = idx as u32;
                }
            }
        }
        merge(&mut self.all, &fresh);
        let mut tags: Vec<u32> = fresh.iter().map(|e| table.rows()[e.row as usize].tag).collect();
        tags.sort_unstable();
        tags.dedup();
        for tag in tags {
            let mine: Vec<RankedRow> = (fresh.iter())
                .filter(|e| table.rows()[e.row as usize].tag == tag)
                .copied()
                .collect();
            merge(&mut self.by_tag[tag as usize], &mine);
        }
    }
}

/// The position of the entry ranked `rank` in `run`, if it holds one.
fn find(run: &[RankedRow], rank: u64) -> Option<usize> {
    run.binary_search_by_key(&rank, |e| e.rank).ok()
}

/// Drops `run`'s entries ranked in `gone` and moves every other rank `r`
/// to `r + #{thresholds ≤ r}`, in place; both keep the run in order.
/// Entries outside the column sit at the end: those whose node left the
/// table leave, and the rest are re-pointed from the table.
fn patch<L: LabelOps>(
    run: &mut Vec<RankedRow>,
    gone: &[u64],
    thresholds: &[u64],
    table: &LabelTable<L>,
) {
    if run.last().is_some_and(|e| e.rank == ABSENT) {
        let ranked = run.partition_point(|e| e.rank != ABSENT);
        let mut outside = run.split_off(ranked);
        outside.retain_mut(|e| table.row_index(e.node).map(|i| e.row = i as u32).is_some());
        outside.sort_unstable();
        run.append(&mut outside);
    }
    // Only entries ranked between the first and the last removed rank can
    // leave: match those against `gone`, then close the gap in one move.
    if let (Some(&low), Some(&high)) = (gone.first(), gone.last()) {
        let (mut next, mut read) = (0, run.partition_point(|e| e.rank < low));
        let mut kept = read;
        while read < run.len() && run[read].rank <= high {
            while gone[next] < run[read].rank {
                next += 1;
            }
            if gone[next] != run[read].rank {
                run[kept] = run[read];
                kept += 1;
            }
            read += 1;
        }
        if kept < read {
            run.copy_within(read.., kept);
            run.truncate(run.len() - (read - kept));
        }
    }
    // Each threshold adds one to every rank at or past it.
    let ranked = run.partition_point(|e| e.rank != ABSENT);
    let starts: Vec<usize> =
        thresholds.iter().map(|&t| run[..ranked].partition_point(|e| e.rank < t)).collect();
    for (j, &start) in starts.iter().enumerate() {
        let end = starts.get(j + 1).copied().unwrap_or(ranked);
        for entry in &mut run[start..end] {
            entry.rank += j as u64 + 1;
        }
    }
}

/// Merges `fresh` (ascending) into `run` (ascending) in place: each entry,
/// largest first, finds its slot by binary search, and only the entries
/// past the first slot move.
fn merge(run: &mut Vec<RankedRow>, fresh: &[RankedRow]) {
    let mut end = run.len();
    run.extend_from_slice(fresh);
    for (j, &entry) in fresh.iter().enumerate().rev() {
        let at = run[..end].partition_point(|e| *e < entry);
        run.copy_within(at..end, at + j + 1);
        run[at + j] = entry;
        end = at;
    }
}

/// `clone_from` reuses the target's buffers, so a publisher that copies
/// one snapshot's order into a recycled one allocates nothing.
impl Clone for TagRuns {
    fn clone(&self) -> Self {
        TagRuns { column: self.column.clone(), all: self.all.clone(), by_tag: self.by_tag.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.column.clone_from(&source.column);
        self.all.clone_from(&source.all);
        self.by_tag.clone_from(&source.by_tag);
    }
}

impl OrderOracle for TagRuns {
    fn rank(&self, node: NodeId) -> u64 {
        self.column.rank(node)
    }

    fn run(&self, tag: Option<u32>) -> Option<&[RankedRow]> {
        match tag {
            None => Some(&self.all),
            Some(id) => self.by_tag.get(id as usize).map(Vec::as_slice),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{eval_path, Path};
    use xp_labelkit::{InsertPos, LabeledStore, Scheme};
    use xp_prime::DynamicPrime;
    use xp_xmltree::parse;

    fn entry(rank: u64, row: u32) -> RankedRow {
        RankedRow { rank, row, node: parse("<a/>").unwrap().root() }
    }

    #[test]
    fn merge_places_every_entry_by_rank() {
        let ranks = |run: &[RankedRow]| run.iter().map(|e| e.rank).collect::<Vec<_>>();
        let mut run = vec![entry(2, 0), entry(5, 1), entry(9, 2)];
        merge(&mut run, &[entry(0, 3), entry(6, 4), entry(7, 5), entry(12, 6)]);
        assert_eq!(ranks(&run), [0, 2, 5, 6, 7, 9, 12]);
        let mut empty = Vec::new();
        merge(&mut empty, &[entry(4, 0)]);
        assert_eq!(ranks(&empty), [4]);
        merge(&mut empty, &[]);
        assert_eq!(ranks(&empty), [4]);
    }

    type Store = LabeledStore<DynamicPrime>;
    type Table = LabelTable<xp_prime::PrimeLabel>;

    /// SC order of every row of `table`, as a served snapshot reads it.
    fn sc_column(store: &Store, table: &Table) -> TreeOrderOracle {
        let state = store.state();
        TreeOrderOracle::from_ranks(table.rows().iter().map(|r| (r.node, state.order_of(r.node))))
    }

    /// Runs one script over every mutation kind, folding each report into
    /// `runs` with SC orders except for the nodes `unranked` names, and
    /// checks the runs against `fresh` and the answers against the bare
    /// column after every step.
    fn check_script(
        unranked: impl Fn(&Store, NodeId) -> bool,
        fresh: impl Fn(&Store, &Table, &TagRuns) -> TagRuns,
    ) {
        let tree = parse("<r><a><b/></a><c/><a><d/><b/></a></r>").unwrap();
        let mut store = Store::build(DynamicPrime::new(3), tree).unwrap();
        let mut table = Table::build(store.tree(), store.doc());
        let mut runs = TagRuns::build(&table, sc_column(&store, &table));
        for step in 0..10 {
            let elements: Vec<NodeId> = store.tree().elements().collect();
            let first = elements[1];
            let last = *elements.last().unwrap();
            let report = match step % 5 {
                0 => store.insert_before(first, "x"),
                1 => store.insert_subtree(
                    InsertPos::Before(last),
                    &parse("<y><b/><z/></y>").unwrap(),
                ),
                2 => store.insert_parent(first, "w"),
                3 => store.delete(first),
                _ => store.move_subtree(last, InsertPos::Before(first)),
            }
            .unwrap();
            table.apply_report(store.tree(), store.doc(), &report);
            let state = store.state();
            let order_of = |n| state.try_order_of(n).ok().filter(|_| !unranked(&store, n));
            runs.apply_report(&table, &report, order_of);
            assert_eq!(runs, fresh(&store, &table, &runs), "step {step}");
            for q in ["//b", "//*", "//a/b", "//b/preceding::*", "//z/preceding::a", "//y//z"] {
                let path = Path::parse(q).unwrap();
                let want = eval_path(&table, &runs.column, &path);
                assert_eq!(eval_path(&table, &runs, &path), want, "step {step}: {q}");
            }
        }
    }

    #[test]
    fn patched_runs_equal_a_fresh_build_after_every_mutation_kind() {
        let tree = parse("<r><a><b/></a><c/><a><d/><b/></a></r>").unwrap();
        let table = LabelTable::build(&tree, &xp_baselines::IntervalScheme::dense().label(&tree));
        assert_eq!(
            TagRuns::from_order(&table, tree.elements()),
            TagRuns::build(&table, TreeOrderOracle::of(&tree)),
            "the document-order pass deals the runs the sort does"
        );
        let fresh = |store: &Store, table: &Table, _: &TagRuns| {
            TagRuns::build(table, sc_column(store, table))
        };
        check_script(|_, _| false, fresh);
    }

    /// Inserted `z` elements get no rank: their rows rank last, leave with
    /// their nodes and follow the table's row moves like every other row.
    #[test]
    fn rows_outside_the_column_follow_the_table() {
        let is_z = |store: &Store, n| store.tree().tag(n) == Some("z");
        check_script(is_z, |_, table, runs| TagRuns::build(table, runs.column.clone()));
    }
}
