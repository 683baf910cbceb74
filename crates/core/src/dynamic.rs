//! [`DynamicPrime`]: the prime scheme behind the unified
//! [`DynamicScheme`] mutation protocol.
//!
//! The scheme-side state is a full [`OrderedPrimeDoc`] — labels, SC table,
//! and prime allocator — and the store's [`xp_labelkit::LabeledDoc`] mirrors
//! its label table. Mutations delegate to the §4.2 ordered protocol and then
//! copy exactly the labels it touched into the mirror, so the
//! [`RelabelReport`] is the ordered layer's own accounting: sibling inserts
//! cost one label plus SC record updates, overflow victims and wrapped
//! subtrees show up in `relabeled`, and deletions shift nothing.
//!
//! A failed mutation needs repair only on the tree side: an SC-table
//! mutation that fails leaves the table as it was (see [`crate::sc`]).
//! `repair_after_error` detaches whatever the mutation grafted into the
//! tree and re-mirrors the overflow-victim relabels it committed first.

use crate::error::Error;
use crate::label::PrimeLabel;
use crate::ordered::OrderedPrimeDoc;
use crate::topdown::TopDownPrime;
use std::cmp::Ordering;
use xp_labelkit::{
    DynamicError, DynamicScheme, InsertPos, LabeledDoc, RelabelReport, Scheme,
};
use xp_xmltree::{NodeId, XmlTree};

impl From<Error> for DynamicError {
    fn from(e: Error) -> Self {
        DynamicError::Scheme(Box::new(e))
    }
}

/// Default SC chunk capacity — matches the sweet spot of the Figure 18
/// chunk-size ablation (small enough that one insertion touches few
/// records, large enough that the table stays compact).
pub const DEFAULT_CHUNK_CAPACITY: usize = 16;

/// The prime scheme as a [`DynamicScheme`]: top-down labeling + the SC
/// delta path of §4.2.
#[derive(Debug, Clone)]
pub struct DynamicPrime {
    chunk_capacity: usize,
}

impl DynamicPrime {
    /// A dynamic prime scheme whose SC table holds `chunk_capacity` nodes
    /// per record.
    pub fn new(chunk_capacity: usize) -> Self {
        DynamicPrime { chunk_capacity }
    }

    /// The SC chunk capacity.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }
}

impl Default for DynamicPrime {
    fn default() -> Self {
        DynamicPrime::new(DEFAULT_CHUNK_CAPACITY)
    }
}

impl Scheme for DynamicPrime {
    type Label = PrimeLabel;

    fn name(&self) -> &'static str {
        "Prime"
    }

    fn label(&self, tree: &XmlTree) -> LabeledDoc<PrimeLabel> {
        // The ordered protocol forbids Opt1/Opt2 (see OrderedPrimeDoc::build),
        // so the static labeling is the plain in-order prime assignment.
        let doc = TopDownPrime::unoptimized().label_document(tree);
        doc.labels
    }
}

/// Copies the labels a mutation touched from the ordered document into the
/// store's mirror table.
fn mirror_labels(
    state: &OrderedPrimeDoc,
    doc: &mut LabeledDoc<PrimeLabel>,
    nodes: impl IntoIterator<Item = NodeId>,
) {
    for n in nodes {
        if let Some(label) = state.labels().get(n) {
            doc.set(n, label.clone());
        }
    }
}

/// Post-error repair: detach any node the failed mutation created (arena
/// indices at or past `mark` — slots are never reused, so everything there
/// is this mutation's), drop every trace of it, then re-mirror any label the
/// mutation committed before failing (overflow-victim relabels commit
/// independently of the insertion that triggered them).
fn repair_after_error(
    tree: &mut XmlTree,
    doc: &mut LabeledDoc<PrimeLabel>,
    state: &mut OrderedPrimeDoc,
    mark: usize,
) {
    let strays: Vec<NodeId> = tree.elements().filter(|n| n.index() >= mark).collect();
    for &n in &strays {
        tree.detach(n);
    }
    for n in strays {
        state.forget_node(n);
        doc.remove(n);
    }
    let changed: Vec<NodeId> = doc
        .nodes()
        .iter()
        .copied()
        .filter(|&n| {
            matches!(
                (doc.get(n), state.labels().get(n)),
                (Some(old), Some(new)) if old != new
            )
        })
        .collect();
    mirror_labels(state, doc, changed);
}

impl DynamicScheme for DynamicPrime {
    type State = OrderedPrimeDoc;

    fn init(&self, tree: &XmlTree) -> Result<(LabeledDoc<PrimeLabel>, Self::State), DynamicError> {
        let state = OrderedPrimeDoc::build(tree, self.chunk_capacity)?;
        let doc = state.labels().clone();
        Ok((doc, state))
    }

    fn insert_before(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<PrimeLabel>,
        state: &mut Self::State,
        anchor: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        let mark = tree.arena_len();
        match state.insert_sibling_before(tree, anchor, tag) {
            Ok(rep) => {
                mirror_labels(state, doc, std::iter::once(rep.node));
                mirror_labels(state, doc, rep.relabeled_nodes.iter().copied());
                Ok(RelabelReport {
                    inserted: vec![rep.node],
                    relabeled: rep.relabeled_nodes,
                    removed: Vec::new(),
                    side_updates: rep.sc_records_updated,
                })
            }
            Err(e) => {
                repair_after_error(tree, doc, state, mark);
                Err(e.into())
            }
        }
    }

    fn insert_subtree(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<PrimeLabel>,
        state: &mut Self::State,
        pos: InsertPos,
        fragment: &XmlTree,
    ) -> Result<RelabelReport, DynamicError> {
        let mark = tree.arena_len();
        match insert_subtree_inner(tree, state, pos, fragment) {
            Ok(report) => {
                mirror_labels(state, doc, report.inserted.iter().copied());
                mirror_labels(state, doc, report.relabeled.iter().copied());
                Ok(report)
            }
            Err(e) => {
                repair_after_error(tree, doc, state, mark);
                Err(e.into())
            }
        }
    }

    fn insert_parent(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<PrimeLabel>,
        state: &mut Self::State,
        target: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        match state.insert_parent(tree, target, tag) {
            Ok(rep) => {
                mirror_labels(state, doc, std::iter::once(rep.node));
                mirror_labels(state, doc, rep.relabeled_nodes.iter().copied());
                Ok(RelabelReport {
                    inserted: vec![rep.node],
                    relabeled: rep.relabeled_nodes,
                    removed: Vec::new(),
                    side_updates: rep.sc_records_updated,
                })
            }
            Err(e) => {
                // The wrap itself is infallible, so a failure means the SC
                // step died with the wrapper already in the tree and the
                // subtree's products already rewritten. Unwind the wrap,
                // restore the subtree's products from its original parent,
                // and drop the wrapper — labels committed by overflow
                // victims stay (they are valid either way) and get
                // re-mirrored.
                if let Some(wrapper) = tree.parent(target) {
                    if state.labels().get(wrapper).is_some()
                        && state.sc_table().order_of(order_self(state, wrapper)).is_none()
                    {
                        tree.detach(target);
                        tree.insert_before(wrapper, target);
                        tree.detach(wrapper);
                        state.forget_node(wrapper);
                        let _ = state.recompute_subtree_products(tree, target);
                    }
                }
                let mark = tree.arena_len();
                repair_after_error(tree, doc, state, mark);
                Err(e.into())
            }
        }
    }

    fn delete(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<PrimeLabel>,
        state: &mut Self::State,
        target: NodeId,
    ) -> Result<RelabelReport, DynamicError> {
        let subtree: Vec<NodeId> = tree.element_descendants(target).collect();
        let result = state.delete(tree, target);
        // Deletion detaches before touching the SC table, so even on error
        // the subtree is out of the tree: drop its labels either way. A
        // leftover SC entry for a detached node is inert (primes are never
        // reused), but the mirror must not keep labels for detached nodes.
        let mut side_updates = 0usize;
        match result {
            Ok(touched) => side_updates = touched,
            Err(e) => {
                if tree.parent(target).is_some() {
                    // Failed before the detach: nothing structural changed.
                    return Err(e.into());
                }
                for &n in &subtree {
                    state.forget_node(n);
                }
            }
        }
        for &n in &subtree {
            doc.remove(n);
        }
        Ok(RelabelReport {
            inserted: Vec::new(),
            relabeled: Vec::new(),
            removed: subtree,
            side_updates,
        })
    }

    fn doc_cmp(
        &self,
        _doc: &LabeledDoc<PrimeLabel>,
        state: &Self::State,
        a: NodeId,
        b: NodeId,
    ) -> Ordering {
        // A node with no order (its insert failed before reaching the SC
        // table) sorts last; the store never exposes such nodes through
        // its mirror table.
        let oa = state.try_order_of(a).unwrap_or(u64::MAX);
        let ob = state.try_order_of(b).unwrap_or(u64::MAX);
        oa.cmp(&ob)
    }
}

/// Self-label of `node` (for probing the SC table during repair).
fn order_self(state: &OrderedPrimeDoc, node: NodeId) -> u64 {
    state.labels().get(node).map(|l| l.self_label_u64()).unwrap_or(0)
}

/// Grafts `fragment` node by node through the ordered insert protocol: the
/// fragment root lands at `pos`, every descendant is appended under its
/// (new) parent in preorder, and the costs merge into one report.
fn insert_subtree_inner(
    tree: &mut XmlTree,
    state: &mut OrderedPrimeDoc,
    pos: InsertPos,
    fragment: &XmlTree,
) -> Result<RelabelReport, Error> {
    let frag_root = fragment.root();
    let root_tag = fragment.tag(frag_root).unwrap_or("node");
    let first = match pos {
        InsertPos::Before(anchor) => state.insert_sibling_before(tree, anchor, root_tag)?,
        InsertPos::LastChildOf(parent) => state.append_child(tree, parent, root_tag)?,
    };
    let mut report = RelabelReport {
        inserted: vec![first.node],
        relabeled: first.relabeled_nodes.clone(),
        removed: Vec::new(),
        side_updates: first.sc_records_updated,
    };
    // Walk the fragment in strict preorder, allocating each node at pop
    // time under its already-created parent. Children are pushed reversed
    // so siblings pop — and therefore append — in document order; the old
    // variant appended inside the reversed loop, which flipped sibling
    // order at every level.
    let mut stack: Vec<(NodeId, NodeId)> = {
        let kids: Vec<NodeId> = fragment.children(frag_root).collect();
        kids.into_iter().rev().map(|c| (c, first.node)).collect()
    };
    while let Some((src, dst)) = stack.pop() {
        if let Some(tag) = fragment.tag(src) {
            let rep = state.append_child(tree, dst, tag)?;
            report.merge(RelabelReport {
                inserted: vec![rep.node],
                relabeled: rep.relabeled_nodes,
                removed: Vec::new(),
                side_updates: rep.sc_records_updated,
            });
            let kids: Vec<NodeId> = fragment.children(src).collect();
            for child in kids.into_iter().rev() {
                stack.push((child, rep.node));
            }
        } else if let Some(text) = fragment.text(src) {
            tree.append_text(dst, text);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_labelkit::{LabelOps, LabeledStore};
    use xp_xmltree::parse;

    fn store(src: &str) -> LabeledStore<DynamicPrime> {
        let tree = parse(src).unwrap();
        LabeledStore::build(DynamicPrime::default(), tree).unwrap()
    }

    fn check_invariants(s: &LabeledStore<DynamicPrime>) {
        // Every attached element labeled, ancestor test = divisibility =
        // tree structure, SC order = preorder rank.
        let tree = s.tree();
        let nodes: Vec<NodeId> = tree.elements().collect();
        let mut prev_order = None;
        for &n in &nodes {
            let ln = s.doc().label(n);
            assert_eq!(
                ln,
                s.state().labels().label(n),
                "mirror diverged from ordered doc at {n}"
            );
            for &m in &nodes {
                let is_anc = tree.is_ancestor(n, m);
                assert_eq!(ln.is_ancestor_of(s.doc().label(m)), is_anc, "{n} anc {m}");
            }
            // Order numbers can have gaps (deletions shift nothing), but
            // they must rank the elements exactly in preorder.
            let o = s.state().order_of(n);
            if let Some(p) = prev_order {
                assert!(o > p, "order {o} of {n} not after {p}");
            }
            prev_order = Some(o);
        }
        assert_eq!(s.doc().len(), nodes.len(), "mirror holds exactly the attached elements");
    }

    #[test]
    fn sharded_prime_facade_matches_unsharded_oracle() {
        // Smoke check that `ShardedPrime` satisfies the facade bounds and
        // stays lockstep with an unsharded DynamicPrime store; the heavy
        // differential lives in xp-query's shard_differential test.
        let tree = parse("<r><a><x/><y/></a><b><x><z/></x></b><c/></r>").unwrap();
        let scheme =
            crate::ShardedPrime::new(DynamicPrime::default(), xp_labelkit::ShardPolicy::at_depth(1));
        let mut s = LabeledStore::build(scheme, tree.clone()).unwrap();
        let mut o = LabeledStore::build(DynamicPrime::default(), tree).unwrap();
        assert!(s.state().live_count() > 1, "cut 1 must shard");
        let first = s.tree().element_children(s.tree().root()).next().unwrap();
        let rs = s.insert_before(first, "n").unwrap();
        let ro = o.insert_before(first, "n").unwrap();
        assert_eq!(rs.inserted, ro.inserted);
        let victim = s.tree().elements().nth(4).unwrap();
        assert_eq!(s.delete(victim).unwrap().removed, o.delete(victim).unwrap().removed);
        assert_eq!(s.ordered_nodes(), o.ordered_nodes(), "document order lockstep");
        let nodes: Vec<NodeId> = s.tree().elements().collect();
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    s.doc().label(x).is_ancestor_of(s.doc().label(y)),
                    s.tree().is_ancestor(x, y),
                    "{x} anc {y}"
                );
            }
        }
    }

    #[test]
    fn insert_before_costs_one_label_plus_sc_records() {
        let mut s = store("<l><a/><b/><c/><d/><e/><f/><g/><h/></l>");
        let last = s.tree().last_child(s.tree().root()).unwrap();
        let rep = s.insert_before(last, "x").unwrap();
        assert_eq!(rep.inserted.len(), 1);
        assert!(rep.relabeled.is_empty(), "tail insert relabels nothing");
        assert!(rep.side_updates >= 1);
        check_invariants(&s);
    }

    #[test]
    fn front_insert_relabels_only_overflow_victims() {
        let mut s = store("<book><author/><author/><author/></book>");
        let tom = s.tree().element_children(s.tree().root()).nth(1).unwrap();
        let rep = s.insert_before(tom, "author").unwrap();
        assert_eq!(rep.inserted.len(), 1);
        assert_eq!(rep.relabeled.len(), 1, "exactly the Figure 8 overflow victim");
        check_invariants(&s);
    }

    #[test]
    fn insert_parent_relabels_the_wrapped_subtree() {
        let mut s = store("<a><b><c/><d/></b><e/></a>");
        let b = s.tree().first_child(s.tree().root()).unwrap();
        let rep = s.insert_parent(b, "wrap").unwrap();
        assert_eq!(rep.inserted.len(), 1);
        assert_eq!(rep.relabeled.len(), 3, "b, c, d inherit the wrapper's factor");
        check_invariants(&s);
    }

    #[test]
    fn insert_subtree_labels_every_fragment_node() {
        let mut s = store("<a><b/><c/></a>");
        let c = s.tree().last_child(s.tree().root()).unwrap();
        let frag = parse("<x><y/><z><w/></z></x>").unwrap();
        let rep = s.insert_subtree(InsertPos::Before(c), &frag).unwrap();
        assert_eq!(rep.inserted.len(), 4);
        check_invariants(&s);
        // The grafted subtree sits between b and c in document order.
        let x = rep.inserted[0];
        assert_eq!(s.tree().tag(x), Some("x"));
        assert_eq!(s.tree().next_sibling(x), Some(c));
        assert_eq!(s.tree().element_descendants(x).count(), 4);
    }

    #[test]
    fn insert_subtree_preserves_fragment_sibling_order() {
        let mut s = store("<a><b/></a>");
        let root = s.tree().root();
        let frag = parse("<t1>hi<t2/><t3/><t4><t5/>mid<t6/></t4></t1>").unwrap();
        let rep = s.insert_subtree(InsertPos::LastChildOf(root), &frag).unwrap();
        check_invariants(&s);
        let t1 = rep.inserted[0];
        let tags: Vec<&str> = s
            .tree()
            .element_descendants(t1)
            .filter_map(|n| s.tree().tag(n))
            .collect();
        assert_eq!(tags, ["t1", "t2", "t3", "t4", "t5", "t6"],
            "grafted fragment keeps its document order at every level");
        let t4 = s.tree().last_child(t1).unwrap();
        let texts: Vec<&str> = s
            .tree()
            .children(t4)
            .filter_map(|n| s.tree().text(n))
            .collect();
        assert_eq!(texts, ["mid"], "text children land under the right parent");
    }

    #[test]
    fn delete_shifts_nothing() {
        let mut s = store("<a><b><c/></b><d/><e/></a>");
        let b = s.tree().first_child(s.tree().root()).unwrap();
        let d = s.tree().element_children(s.tree().root()).nth(1).unwrap();
        let order_d_before = s.state().order_of(d);
        let rep = s.delete(b).unwrap();
        assert_eq!(rep.removed.len(), 2);
        assert!(rep.relabeled.is_empty());
        assert_eq!(s.state().order_of(d), order_d_before, "deletion shifts no orders");
        assert_eq!(s.doc().len(), 3);
    }

    #[test]
    fn move_subtree_reinserts_with_fresh_ids() {
        let mut s = store("<a><b><c/></b><d/></a>");
        let b = s.tree().first_child(s.tree().root()).unwrap();
        let d = s.tree().last_child(s.tree().root()).unwrap();
        let rep = s.move_subtree(b, InsertPos::LastChildOf(d)).unwrap();
        assert_eq!(rep.removed.len(), 2, "old ids are gone");
        assert_eq!(rep.inserted.len(), 2, "fresh ids under d");
        check_invariants(&s);
        let moved = rep.inserted[0];
        assert_eq!(s.tree().parent(moved), Some(d));
        assert_eq!(s.tree().tag(moved), Some("b"));
    }

    #[test]
    fn move_into_own_subtree_is_rejected_cleanly() {
        let mut s = store("<a><b><c/></b></a>");
        let b = s.tree().first_child(s.tree().root()).unwrap();
        let c = s.tree().first_child(b).unwrap();
        let before = s.doc().clone();
        let err = s.move_subtree(b, InsertPos::LastChildOf(c)).unwrap_err();
        assert!(matches!(err, DynamicError::MoveIntoSelf { .. }));
        assert_eq!(before.diff_count(s.doc()).total(), 0, "nothing changed");
        check_invariants(&s);
    }

    #[test]
    fn ordered_nodes_follow_document_order_across_mutations() {
        let mut s = store("<l><a/><b/><c/></l>");
        let b = s.tree().element_children(s.tree().root()).nth(1).unwrap();
        s.insert_before(b, "n").unwrap();
        let first = s.tree().first_child(s.tree().root()).unwrap();
        s.insert_before(first, "m").unwrap();
        let expect: Vec<NodeId> = s.tree().elements().collect();
        assert_eq!(s.ordered_nodes(), expect);
    }
}
