//! [`LabelTable`]: the columnar label table queries run against.

use std::collections::HashMap;
use xp_labelkit::{LabelOps, LabeledDoc, RelabelReport};
use xp_xmltree::{NodeId, XmlTree};

/// One row of the label table.
#[derive(Debug, Clone)]
pub struct Row<L> {
    /// The element this row describes.
    pub node: NodeId,
    /// Interned tag id (see [`LabelTable::tag_name`]).
    pub tag: u32,
    /// The parent element — the relational encoding's parent-label column.
    pub parent: Option<NodeId>,
    /// Concatenated *direct* text children — the value column relational
    /// XML encodings carry, used by `[="…"]` predicates (the paper's
    /// `book/author[2]/"John"` query shape).
    pub text: Option<String>,
    /// The scheme's label.
    pub label: L,
}

/// What [`LabelTable::apply_report`] actually did — the bench smoke gate
/// asserts these stay proportional to the report, not to the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Rows appended for inserted nodes.
    pub rows_added: usize,
    /// Rows patched in place for relabeled nodes.
    pub rows_updated: usize,
    /// Rows removed for deleted nodes.
    pub rows_removed: usize,
}

impl PatchStats {
    /// Total rows touched by the patch.
    pub fn rows_touched(&self) -> usize {
        self.rows_added + self.rows_updated + self.rows_removed
    }
}

/// An in-memory columnar label table with a tag index.
///
/// The node → row lookup is a dense vector indexed by the arena index of
/// the [`NodeId`] — arena slots are never reused, so the vector only ever
/// grows, and lookup is a bounds check away from a direct index.
#[derive(Debug, Clone)]
pub struct LabelTable<L> {
    rows: Vec<Row<L>>,
    tag_names: Vec<String>,
    tag_ids: HashMap<String, u32>,
    by_tag: Vec<Vec<usize>>,
    row_of_node: Vec<Option<usize>>,
    root: NodeId,
}

impl<L: LabelOps> LabelTable<L> {
    /// Builds the table from a tree and its labels, rows in document order.
    ///
    /// Three passes. Pass 1 (sequential) walks the elements once to intern
    /// tags — ids are assigned in first-occurrence document order, so the
    /// interning result is independent of how pass 2 is scheduled. Pass 2
    /// (parallel over the `xp-par` pool) constructs the rows: text
    /// concatenation and label clones dominate build time for big labels
    /// and are independent per node; `par_map` places each row at its input
    /// index, so `rows` comes back in document order at any thread count.
    /// Pass 3 (sequential) wires the tag buckets and the node → row map in
    /// row order, exactly as the incremental `push_row` path would.
    pub fn build(tree: &XmlTree, labels: &LabeledDoc<L>) -> Self {
        let mut table = LabelTable {
            rows: Vec::new(),
            tag_names: Vec::new(),
            tag_ids: HashMap::new(),
            by_tag: Vec::new(),
            row_of_node: Vec::new(),
            root: tree.root(),
        };
        let mut nodes: Vec<(NodeId, u32)> = Vec::new();
        for node in tree.elements() {
            // Only element nodes reach this point, and elements always
            // carry a tag; skip (rather than panic on) anything else.
            let Some(tag) = tree.tag(node) else { continue };
            let tag_id = table.intern(tag);
            nodes.push((node, tag_id));
        }
        let rows: Vec<Row<L>> = xp_par::par_map(&nodes, |&(node, tag)| {
            let text: String =
                tree.children(node).filter_map(|c| tree.text(c)).collect::<Vec<_>>().join("");
            Row {
                node,
                tag,
                parent: tree.parent(node),
                text: if text.is_empty() { None } else { Some(text) },
                label: labels.label(node).clone(),
            }
        });
        for (idx, row) in rows.iter().enumerate() {
            table.by_tag[row.tag as usize].push(idx);
            table.set_row_index(row.node, idx);
        }
        table.rows = rows;
        table
    }

    /// [`LabelTable::build`] restricted to the elements `keep` admits and
    /// that carry a label — the per-shard partition constructor (see
    /// [`crate::sharded`]). Unlabeled elements are skipped rather than an
    /// error: a partition by definition sees only its own slice of the
    /// document.
    pub fn build_where(
        tree: &XmlTree,
        labels: &LabeledDoc<L>,
        keep: impl Fn(NodeId) -> bool,
    ) -> Self {
        let mut table = LabelTable {
            rows: Vec::new(),
            tag_names: Vec::new(),
            tag_ids: HashMap::new(),
            by_tag: Vec::new(),
            row_of_node: Vec::new(),
            root: tree.root(),
        };
        for node in tree.elements() {
            if !keep(node) || labels.get(node).is_none() {
                continue;
            }
            let Some(tag) = tree.tag(node) else { continue };
            table.push_row(tree, labels, node, tag);
        }
        table
    }

    /// One table over the union of several disjoint tables' rows (tags
    /// re-interned) — how per-shard partitions compose into the table
    /// cross-shard queries run against. Row order is concatenation order;
    /// the engine orders results by the document-order oracle, never by row
    /// position, so any order is correct.
    pub fn concat<'a>(root: NodeId, parts: impl IntoIterator<Item = &'a Self>) -> Self
    where
        L: 'a,
    {
        let mut out = LabelTable {
            rows: Vec::new(),
            tag_names: Vec::new(),
            tag_ids: HashMap::new(),
            by_tag: Vec::new(),
            row_of_node: Vec::new(),
            root,
        };
        for part in parts {
            for row in &part.rows {
                let tag_id = out.intern(&part.tag_names[row.tag as usize]);
                let idx = out.rows.len();
                out.rows.push(Row { tag: tag_id, ..row.clone() });
                out.by_tag[tag_id as usize].push(idx);
                out.set_row_index(row.node, idx);
            }
        }
        out
    }

    /// Whether the table holds a row for `node`.
    pub fn contains(&self, node: NodeId) -> bool {
        self.row_index(node).is_some()
    }

    /// Appends a row for `node` and wires it into the tag index and the
    /// node → row map.
    fn push_row(&mut self, tree: &XmlTree, labels: &LabeledDoc<L>, node: NodeId, tag: &str) {
        let tag_id = self.intern(tag);
        let idx = self.rows.len();
        let text: String =
            tree.children(node).filter_map(|c| tree.text(c)).collect::<Vec<_>>().join("");
        self.rows.push(Row {
            node,
            tag: tag_id,
            parent: tree.parent(node),
            text: if text.is_empty() { None } else { Some(text) },
            label: labels.label(node).clone(),
        });
        self.by_tag[tag_id as usize].push(idx);
        self.set_row_index(node, idx);
    }

    fn set_row_index(&mut self, node: NodeId, idx: usize) {
        let slot = node.index();
        if slot >= self.row_of_node.len() {
            self.row_of_node.resize(slot + 1, None);
        }
        self.row_of_node[slot] = Some(idx);
    }

    /// The index into [`LabelTable::rows`] of `node`'s row, if the table
    /// holds one.
    pub(crate) fn row_index(&self, node: NodeId) -> Option<usize> {
        self.row_of_node.get(node.index()).copied().flatten()
    }

    fn intern(&mut self, tag: &str) -> u32 {
        if let Some(&id) = self.tag_ids.get(tag) {
            return id;
        }
        let id = self.tag_names.len() as u32;
        self.tag_names.push(tag.to_string());
        self.tag_ids.insert(tag.to_string(), id);
        self.by_tag.push(Vec::new());
        id
    }

    /// The document root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The interned name of a tag id.
    pub fn tag_name(&self, id: u32) -> &str {
        &self.tag_names[id as usize]
    }

    /// All rows, document order.
    pub fn rows(&self) -> &[Row<L>] {
        &self.rows
    }

    /// Row indices of elements with this tag, document order at build time.
    /// Unknown tags yield an empty scan.
    pub fn scan_tag(&self, tag: &str) -> &[usize] {
        match self.tag_ids.get(tag) {
            Some(&id) => &self.by_tag[id as usize],
            None => &[],
        }
    }

    /// The interned id of a tag, if some row ever carried it.
    pub fn tag_id(&self, tag: &str) -> Option<u32> {
        self.tag_ids.get(tag).copied()
    }

    /// How many tags are interned: every [`Row::tag`] is below this.
    pub fn tag_count(&self) -> usize {
        self.tag_names.len()
    }

    /// The row describing `node`, if the table holds one.
    pub fn row_of(&self, node: NodeId) -> Option<&Row<L>> {
        self.row_index(node).map(|idx| &self.rows[idx])
    }

    /// The label of `node`, if the table holds a row for it.
    pub fn label(&self, node: NodeId) -> Option<&L> {
        self.row_of(node).map(|row| &row.label)
    }

    /// Applies a [`RelabelReport`] incrementally: removed nodes drop their
    /// rows (`swap_remove`, with tag-index fixup for the displaced row),
    /// relabeled nodes patch label and parent in place, inserted nodes
    /// append fresh rows. Work is `O(rows touched)` — the point of the
    /// dynamic API is that a cheap mutation patches a cheap number of rows
    /// instead of rebuilding the table.
    ///
    /// Row order within a tag bucket is no longer document order after a
    /// patch; the query engine orders results by the document-order oracle,
    /// not by bucket position, so scans stay correct.
    pub fn apply_report(
        &mut self,
        tree: &XmlTree,
        labels: &LabeledDoc<L>,
        report: &RelabelReport,
    ) -> PatchStats {
        let mut stats = PatchStats::default();
        for &node in &report.removed {
            let Some(idx) = self.row_index(node) else { continue };
            let row = self.rows.swap_remove(idx);
            self.row_of_node[node.index()] = None;
            let bucket = &mut self.by_tag[row.tag as usize];
            if let Some(pos) = bucket.iter().position(|&i| i == idx) {
                bucket.swap_remove(pos);
            }
            // The former last row now lives at `idx`; repoint its entries.
            if idx < self.rows.len() {
                let (moved_node, moved_tag) = (self.rows[idx].node, self.rows[idx].tag);
                let old_idx = self.rows.len();
                self.set_row_index(moved_node, idx);
                let bucket = &mut self.by_tag[moved_tag as usize];
                if let Some(pos) = bucket.iter().position(|&i| i == old_idx) {
                    bucket[pos] = idx;
                }
            }
            stats.rows_removed += 1;
        }
        for &node in &report.relabeled {
            let Some(idx) = self.row_index(node) else { continue };
            self.rows[idx].label = labels.label(node).clone();
            self.rows[idx].parent = tree.parent(node);
            stats.rows_updated += 1;
        }
        for &node in &report.inserted {
            debug_assert!(self.row_index(node).is_none(), "inserted node already has a row");
            let Some(tag) = tree.tag(node) else { continue };
            self.push_row(tree, labels, node, tag);
            stats.rows_added += 1;
        }
        stats
    }

    /// Rebuilds the table with every label transformed — used by the
    /// instrumentation layer to wrap labels in counting adapters.
    pub fn map_labels<M: LabelOps>(&self, f: impl Fn(&L) -> M) -> LabelTable<M> {
        LabelTable {
            rows: self
                .rows
                .iter()
                .map(|r| Row {
                    node: r.node,
                    tag: r.tag,
                    parent: r.parent,
                    text: r.text.clone(),
                    label: f(&r.label),
                })
                .collect(),
            tag_names: self.tag_names.clone(),
            tag_ids: self.tag_ids.clone(),
            by_tag: self.by_tag.clone(),
            row_of_node: self.row_of_node.clone(),
            root: self.root,
        }
    }

    /// Self-check used by tests: every row reachable through both indexes,
    /// no dangling entries.
    #[cfg(test)]
    fn assert_indexes_consistent(&self) {
        let live: usize = self.row_of_node.iter().flatten().count();
        assert_eq!(live, self.rows.len());
        for (idx, row) in self.rows.iter().enumerate() {
            assert_eq!(self.row_index(row.node), Some(idx));
            assert!(self.by_tag[row.tag as usize].contains(&idx));
        }
        let indexed: usize = self.by_tag.iter().map(Vec::len).sum();
        assert_eq!(indexed, self.rows.len());
    }

    /// Total fixed-width storage footprint in bits: rows × the widest label
    /// (§5.1.2 compares "the size of fixed length labels").
    pub fn fixed_width_bits(&self) -> u64 {
        let widest = self.rows.iter().map(|r| r.label.size_bits()).max().unwrap_or(0);
        widest * self.rows.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_baselines::interval::IntervalScheme;
    use xp_labelkit::Scheme;
    use xp_xmltree::parse;

    fn table() -> (XmlTree, LabelTable<xp_baselines::IntervalLabel>) {
        let tree = parse("<play><act><scene/></act><act/></play>").unwrap();
        let doc = IntervalScheme::dense().label(&tree);
        let t = LabelTable::build(&tree, &doc);
        (tree, t)
    }

    #[test]
    fn rows_are_in_document_order() {
        let (tree, t) = table();
        assert_eq!(t.len(), 4);
        let nodes: Vec<NodeId> = tree.elements().collect();
        let row_nodes: Vec<NodeId> = t.rows().iter().map(|r| r.node).collect();
        assert_eq!(nodes, row_nodes);
    }

    #[test]
    fn tag_scan_finds_all_occurrences() {
        let (_, t) = table();
        assert_eq!(t.scan_tag("act").len(), 2);
        assert_eq!(t.scan_tag("scene").len(), 1);
        assert_eq!(t.scan_tag("play").len(), 1);
        assert!(t.scan_tag("nothing").is_empty());
    }

    #[test]
    fn parent_column_matches_tree() {
        let (tree, t) = table();
        for row in t.rows() {
            assert_eq!(row.parent, tree.parent(row.node));
        }
    }

    #[test]
    fn row_lookup_by_node() {
        let (tree, t) = table();
        let act = tree.first_child(tree.root()).unwrap();
        assert_eq!(t.row_of(act).unwrap().node, act);
        assert_eq!(t.tag_name(t.row_of(act).unwrap().tag), "act");
        // A node the table never saw has no row, and asking does not panic.
        let loose = tree.clone().create_element("loose");
        assert!(t.row_of(loose).is_none() && t.label(loose).is_none());
    }

    #[test]
    fn apply_report_patches_incrementally() {
        use xp_labelkit::{InsertPos, LabeledStore};

        let tree = parse("<play><act><scene/></act><act/></play>").unwrap();
        let mut store = LabeledStore::build(IntervalScheme::with_gap(32), tree).unwrap();
        let mut table = LabelTable::build(store.tree(), store.doc());
        table.assert_indexes_consistent();

        // Insert: one row appended, ancestors possibly patched.
        let act2 = store.tree().last_child(store.tree().root()).unwrap();
        let rep = store.insert_before(act2, "intermission").unwrap();
        let stats = table.apply_report(store.tree(), store.doc(), &rep);
        assert_eq!(stats.rows_added, 1);
        assert_eq!(stats.rows_touched(), rep.labels_touched() + rep.removed.len());
        table.assert_indexes_consistent();
        assert_eq!(table.len(), 5);
        assert_eq!(table.scan_tag("intermission").len(), 1);

        // Delete: rows drop, displaced rows stay reachable.
        let act1 = store.tree().first_child(store.tree().root()).unwrap();
        let rep = store.delete(act1).unwrap();
        let stats = table.apply_report(store.tree(), store.doc(), &rep);
        assert_eq!(stats.rows_removed, 2, "act + scene");
        table.assert_indexes_consistent();
        assert_eq!(table.len(), 3);
        assert_eq!(table.scan_tag("act").len(), 1);
        assert_eq!(table.scan_tag("scene").len(), 0);

        // Subtree move: fresh node ids replace the old ones.
        let root = store.tree().root();
        let inter =
            store.tree().elements().find(|&n| store.tree().tag(n) == Some("intermission")).unwrap();
        let rep = store.move_subtree(inter, InsertPos::LastChildOf(root)).unwrap();
        table.apply_report(store.tree(), store.doc(), &rep);
        table.assert_indexes_consistent();
        assert_eq!(table.scan_tag("intermission").len(), 1);

        // The patched table matches a from-scratch rebuild row-for-row.
        let rebuilt = LabelTable::build(store.tree(), store.doc());
        assert_eq!(table.len(), rebuilt.len());
        for row in rebuilt.rows() {
            let patched = table.row_of(row.node).unwrap();
            assert_eq!(table.tag_name(patched.tag), rebuilt.tag_name(row.tag));
            assert_eq!(patched.parent, row.parent);
            assert_eq!(patched.label, row.label);
        }
    }

    #[test]
    fn fixed_width_footprint() {
        let (_, t) = table();
        let widest = t.rows().iter().map(|r| r.label.size_bits()).max().unwrap();
        assert_eq!(t.fixed_width_bits(), widest * 4);
    }
}
