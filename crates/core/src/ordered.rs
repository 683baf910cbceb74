//! [`OrderedPrimeDoc`]: prime labels + SC table, the complete §4 system.
//!
//! Combines a top-down prime labeling (every node a distinct prime
//! self-label — Opt2's shared `2^n` leaf labels would violate Theorem 1's
//! pairwise-coprimality requirement and are therefore rejected here) with an
//! [`ScTable`] capturing global document order, and implements the
//! order-sensitive update protocol of §4.2 with the relabel accounting that
//! Figure 18 reports.
//!
//! Every [`ScTable`] mutation either completes or leaves the table as it
//! was (see [`crate::sc`]), so a failed update needs no rollback here. What
//! a failure can leave behind is on the tree side: a node the update
//! already labeled but never entered into the table, and any overflow
//! victim relabeled before the failing step (those relabels are valid on
//! their own). The dynamic-store layer detaches the former
//! ([`crate::DynamicPrime`]).

use crate::error::Error;
use crate::path::DecodeError;
use crate::sc::{ScError, ScTable};
use crate::topdown::{PrimeDoc, PrimeOptions, TopDownPrime};
use std::collections::HashMap;
use xp_bignum::UBig;
use xp_labelkit::LabeledDoc;
use xp_xmltree::{NodeId, XmlTree};

use crate::label::PrimeLabel;

/// An ordered, dynamically updatable prime-labeled document.
#[derive(Debug, Clone)]
pub struct OrderedPrimeDoc {
    doc: PrimeDoc,
    sc: ScTable,
    node_of_self: HashMap<u64, NodeId>,
}

/// Accounting for one order-sensitive insertion (Figure 18's metric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedInsertReport {
    /// The new node.
    pub node: NodeId,
    /// Existing node labels that changed. Normally 0 for sibling insertion;
    /// becomes positive only when an order number would have outgrown a
    /// small self-label (see [`ScError::OrderOverflow`]) and the node had to
    /// take a larger prime. Always `relabeled_nodes.len()`.
    pub relabeled_existing: usize,
    /// Exactly which pre-existing nodes were relabeled (overflow victims and
    /// their subtrees; the wrapped subtree for
    /// [`OrderedPrimeDoc::insert_parent`]) — what incremental consumers of
    /// the labels (the query layer's table patching) need to know.
    pub relabeled_nodes: Vec<NodeId>,
    /// SC records re-solved. The paper: "We consider a record update in the
    /// SC table as a node that requires re-labeling."
    pub sc_records_updated: usize,
}

impl OrderedInsertReport {
    /// Total cost under the paper's accounting: the new node's label, any
    /// forced relabelings, and one per touched SC record.
    pub fn total_relabeled(&self) -> usize {
        1 + self.relabeled_existing + self.sc_records_updated
    }
}

impl OrderedPrimeDoc {
    /// Labels `tree` with distinct primes assigned in document order and
    /// builds the SC table with `chunk_capacity` nodes per record.
    ///
    /// The ordered variant uses neither Opt1 nor Opt2: Opt2's shared `2^n`
    /// leaf labels violate Theorem 1's coprimality, and Opt1 would hand a
    /// *small* reserved prime to a top-level node that can sit arbitrarily
    /// late in document order, making its order number unrecoverable from
    /// `SC mod self`. Plain in-order assignment guarantees `order(v) <
    /// self(v)` (the n-th prime exceeds n).
    ///
    /// The root keeps order number 0 (§4.1) and is not entered into the
    /// table (its self-label 1 carries no congruence information).
    pub fn build(tree: &XmlTree, chunk_capacity: usize) -> Result<Self, Error> {
        let scheme = TopDownPrime::with_options(PrimeOptions {
            reserved_top_primes: 0,
            leaf_powers_of_two: false,
            ..Default::default()
        })?;
        let doc = scheme.label_document(tree);

        let mut items = Vec::new();
        let mut node_of_self = HashMap::new();
        let mut order = 0u64;
        for node in tree.elements() {
            if node == tree.root() {
                continue;
            }
            order += 1;
            let self_label = doc.labels.label(node).self_label_u64();
            items.push((self_label, order));
            node_of_self.insert(self_label, node);
        }
        let sc = ScTable::build(chunk_capacity, &items)?;
        Ok(OrderedPrimeDoc { doc, sc, node_of_self })
    }

    /// Reassembles an ordered document from persisted parts: the tree it
    /// labels, its per-node labels, a decoded SC table, and the prime-pool
    /// high-water mark ([`OrderedPrimeDoc::primes_handed_out`]).
    ///
    /// Validates that labels and table agree — every labeled non-root
    /// element's self-label must be covered by the table and vice versa —
    /// so a mismatched (labels, SC) pair from a corrupt checkpoint is
    /// rejected here instead of mis-answering order queries later.
    pub fn from_parts(
        tree: &XmlTree,
        labels: LabeledDoc<PrimeLabel>,
        sc: ScTable,
        primes_handed_out: u64,
    ) -> Result<Self, Error> {
        let mut node_of_self = HashMap::new();
        let mut covered = 0usize;
        for node in tree.elements() {
            if node == tree.root() {
                continue;
            }
            let label = labels.get(node).ok_or(Error::UnknownNode(node))?;
            let self_label = label.self_label_u64();
            if sc.order_of(self_label).is_none() {
                return Err(Error::Sc(ScError::UnknownSelfLabel(self_label)));
            }
            if node_of_self.insert(self_label, node).is_some() {
                return Err(Error::Sc(ScError::DuplicateSelfLabel(self_label)));
            }
            covered += 1;
        }
        if sc.len() != covered {
            // The table covers a self-label no reachable node carries.
            if let Some((orphan, _)) = sc.entries().find(|(m, _)| !node_of_self.contains_key(m)) {
                return Err(Error::Decode(DecodeError::UnknownSelfLabel(orphan)));
            }
        }
        let doc = PrimeDoc::from_persisted(labels, primes_handed_out);
        Ok(OrderedPrimeDoc { doc, sc, node_of_self })
    }

    /// The allocator high-water mark: how many general primes the document
    /// has drawn. Persisted alongside the labels so
    /// [`OrderedPrimeDoc::from_parts`] resumes the same sequence.
    pub fn primes_handed_out(&self) -> u64 {
        self.doc.primes_handed_out()
    }

    /// The labels.
    pub fn labels(&self) -> &LabeledDoc<PrimeLabel> {
        &self.doc.labels
    }

    /// The SC table.
    pub fn sc_table(&self) -> &ScTable {
        &self.sc
    }

    /// Global order number of a node (root = 0), derived as
    /// `SC mod self-label` (§4.1).
    ///
    /// Panics if the node is not covered — this is the indexing-style read
    /// accessor ([`crate::ordered::OrderedPrimeDoc::try_order_of`] is the
    /// fallible form every mutation path uses internally).
    pub fn order_of(&self, node: NodeId) -> u64 {
        match self.try_order_of(node) {
            Ok(o) => o,
            Err(e) => panic!("order_of({node}): {e}"),
        }
    }

    /// Global order number of a node (root = 0), or a typed error when the
    /// node carries no label or its self-label is not in the SC table.
    pub fn try_order_of(&self, node: NodeId) -> Result<u64, Error> {
        let label = self.doc.labels.get(node).ok_or(Error::UnknownNode(node))?;
        let self_label = label.self_label_u64();
        if self_label == 1 {
            return Ok(0); // the root
        }
        self.sc.order_of(self_label).ok_or(Error::Sc(ScError::UnknownSelfLabel(self_label)))
    }

    /// The node carrying a given self-label.
    pub fn node_with_self_label(&self, self_label: u64) -> Option<NodeId> {
        self.node_of_self.get(&self_label).copied()
    }

    /// Inserts a new element immediately before `anchor` in document order.
    ///
    /// The new node takes the next unused prime — no existing label changes
    /// — and the SC table shifts the order numbers at and after the
    /// insertion point (§4.2's protocol, exactly as the Figure 11 example).
    pub fn insert_sibling_before(
        &mut self,
        tree: &mut XmlTree,
        anchor: NodeId,
        tag: &str,
    ) -> Result<OrderedInsertReport, Error> {
        // Preorder: the anchor is the first node of its subtree, so the new
        // node (inserted just before it) takes the anchor's order number.
        let order = self.try_order_of(anchor)?;
        let outcome = self.doc.insert_sibling_before(tree, anchor, tag)?;
        debug_assert_eq!(outcome.relabeled_existing, 0, "sibling insert never relabels");
        self.finish_ordered_insert(tree, outcome.node, order, Vec::new())
    }

    /// Inserts a new element immediately after `anchor`'s subtree in
    /// document order (i.e. as `anchor`'s next sibling).
    pub fn insert_sibling_after(
        &mut self,
        tree: &mut XmlTree,
        anchor: NodeId,
        tag: &str,
    ) -> Result<OrderedInsertReport, Error> {
        // Document order position: one past the anchor subtree's last node.
        let subtree_max = self.subtree_max_order(tree, anchor)?;
        let parent = tree.parent(anchor).ok_or(Error::RootAnchor(anchor))?;
        let parent_label = self.doc.labels.get(parent).ok_or(Error::UnknownNode(parent))?.clone();
        let node = tree.create_element(tag);
        tree.insert_after(anchor, node);
        let self_label = UBig::from(self.doc.next_prime());
        let label = PrimeLabel::child_of(&parent_label, self_label);
        self.doc.labels.set(node, label);
        self.finish_ordered_insert(tree, node, subtree_max + 1, Vec::new())
    }

    /// Largest order number inside `node`'s subtree (including `node`).
    fn subtree_max_order(&self, tree: &XmlTree, node: NodeId) -> Result<u64, Error> {
        let mut max = self.try_order_of(node)?;
        for n in tree.element_descendants(node) {
            max = max.max(self.try_order_of(n)?);
        }
        Ok(max)
    }

    /// Appends a new element as the last child of `parent`.
    pub fn append_child(
        &mut self,
        tree: &mut XmlTree,
        parent: NodeId,
        tag: &str,
    ) -> Result<OrderedInsertReport, Error> {
        let subtree_max = self.subtree_max_order(tree, parent)?;
        let outcome = self.doc.insert_child(tree, parent, tag)?;
        debug_assert_eq!(outcome.relabeled_existing, 0, "plain scheme never relabels on append");
        self.finish_ordered_insert(tree, outcome.node, subtree_max + 1, Vec::new())
    }

    /// Wraps `target` in a new parent element (§5.3's non-leaf update,
    /// Figure 17, on the *ordered* document). The wrapper takes `target`'s
    /// old order number — preorder puts a parent immediately before its
    /// subtree — so the SC shift moves the wrapped subtree (and everything
    /// after it) one position down. The subtree's labels are recomputed with
    /// the wrapper's fresh prime as a new factor; self-labels stay put, so
    /// no SC record beyond the shift is touched for them.
    pub fn insert_parent(
        &mut self,
        tree: &mut XmlTree,
        target: NodeId,
        tag: &str,
    ) -> Result<OrderedInsertReport, Error> {
        let order = self.try_order_of(target)?;
        let subtree: Vec<NodeId> = tree.element_descendants(target).collect();
        let outcome = self.doc.insert_parent(tree, target, tag)?;
        debug_assert_eq!(outcome.relabeled_existing, subtree.len());
        self.finish_ordered_insert(tree, outcome.node, order, subtree)
    }

    /// Deletes a leaf-or-subtree node: labels are dropped and each covered
    /// self-label leaves its SC record (orders of other nodes are untouched,
    /// §4.2). Returns the number of SC records re-solved.
    pub fn delete(&mut self, tree: &mut XmlTree, target: NodeId) -> Result<usize, Error> {
        let mut items = Vec::new();
        for n in tree.element_descendants(target) {
            let label = self.doc.labels.get(n).ok_or(Error::UnknownNode(n))?;
            items.push((n, label.self_label_u64()));
        }
        self.doc.delete(tree, target)?;
        let mut touched = 0usize;
        for (n, s) in items {
            match self.sc.remove(s) {
                Ok(true) => touched += 1,
                Ok(false) => {}
                Err(e) => {
                    // The failed removal left the table as it was, so the
                    // remaining covered nodes stay queryable.
                    self.node_of_self.remove(&s);
                    self.doc.labels.remove(n);
                    return Err(e.into());
                }
            }
            self.node_of_self.remove(&s);
            self.doc.labels.remove(n);
        }
        Ok(touched)
    }

    /// Crate-internal repair hook for the dynamic-store layer: drops every
    /// trace of `node` (label, self-label mapping, SC entry). Best-effort on
    /// the SC side — the entry may legitimately be absent for a node whose
    /// insertion aborted before reaching the table, and a removal that
    /// fails leaves an inert entry (primes are never reused).
    pub(crate) fn forget_node(&mut self, node: NodeId) {
        if let Some(label) = self.doc.labels.remove(node) {
            let s = label.self_label_u64();
            self.node_of_self.remove(&s);
            let _ = self.sc.remove(s);
        }
    }

    /// Crate-internal repair hook: recomputes the label products of
    /// `target`'s subtree from its *current* parent, keeping every
    /// self-label (so the SC table needs no changes). Used to unwind a
    /// half-applied `insert_parent` after the wrapper is detached again.
    pub(crate) fn recompute_subtree_products(
        &mut self,
        tree: &XmlTree,
        target: NodeId,
    ) -> Result<(), Error> {
        let parent = tree.parent(target).ok_or(Error::RootAnchor(target))?;
        let parent_label = self.doc.labels.get(parent).ok_or(Error::UnknownNode(parent))?.clone();
        let mut stack = vec![(target, parent_label)];
        while let Some((n, parent_label)) = stack.pop() {
            let self_label =
                self.doc.labels.get(n).ok_or(Error::UnknownNode(n))?.self_label().clone();
            let updated = PrimeLabel::child_of(&parent_label, self_label);
            self.doc.labels.set(n, updated.clone());
            for c in tree.element_children(n) {
                stack.push((c, updated.clone()));
            }
        }
        Ok(())
    }

    /// Enters the freshly labeled `node` into the SC table at `order`,
    /// relabeling overflow victims until the insert fits. On error every
    /// pre-existing node keeps its order; `node` keeps its label but has no
    /// order, and retrying or detaching it is the caller's move.
    fn finish_ordered_insert(
        &mut self,
        tree: &XmlTree,
        node: NodeId,
        order: u64,
        mut relabeled: Vec<NodeId>,
    ) -> Result<OrderedInsertReport, Error> {
        let self_label =
            self.doc.labels.get(node).ok_or(Error::UnknownNode(node))?.self_label_u64();
        let report = loop {
            match self.sc.insert(self_label, order) {
                Ok(r) => break r,
                Err(ScError::OrderOverflow { self_label: victim, .. }) if victim != self_label => {
                    // A small-prime node's order number outgrew its modulus:
                    // give it (and, through the inherited product, its
                    // subtree) a fresh larger prime and retry. A victim's
                    // subtree can overlap nodes already relabeled by this
                    // mutation (e.g. the wrapped subtree of insert_parent):
                    // each node counts once.
                    for n in self.relabel_with_fresh_prime(tree, victim)? {
                        if !relabeled.contains(&n) {
                            relabeled.push(n);
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.node_of_self.insert(self_label, node);
        Ok(OrderedInsertReport {
            node,
            relabeled_existing: relabeled.len(),
            relabeled_nodes: relabeled,
            sc_records_updated: report.records_updated,
        })
    }

    /// Swaps the self-label of the node currently carrying `old_self` for a
    /// fresh prime and recomputes the label products of its subtree.
    /// Returns the existing nodes whose labels changed (the victim first,
    /// then its subtree).
    fn relabel_with_fresh_prime(
        &mut self,
        tree: &XmlTree,
        old_self: u64,
    ) -> Result<Vec<NodeId>, Error> {
        let node = *self
            .node_of_self
            .get(&old_self)
            .ok_or(Error::Sc(ScError::UnknownSelfLabel(old_self)))?;
        let fresh = self.doc.next_prime();
        self.sc.replace_self_label(old_self, fresh)?;
        self.node_of_self.remove(&old_self);
        self.node_of_self.insert(fresh, node);

        let parent_value = match tree.parent(node) {
            Some(p) => self.doc.labels.label(p).value().clone(),
            None => UBig::one(),
        };
        let odd_mode = self.doc.odd_internal_mode();
        let new_label =
            PrimeLabel::from_parts(&parent_value * &UBig::from(fresh), UBig::from(fresh), odd_mode);
        self.doc.labels.set(node, new_label.clone());
        let mut relabeled = vec![node];
        // Descendants inherit the new factor; self-labels stay put, so the
        // SC table needs no further changes.
        let mut stack: Vec<(NodeId, PrimeLabel)> = tree
            .element_children(node)
            .map(|c| (c, new_label.clone()))
            .collect();
        while let Some((n, parent_label)) = stack.pop() {
            let self_label = self.doc.labels.label(n).self_label().clone();
            let updated = PrimeLabel::child_of(&parent_label, self_label);
            self.doc.labels.set(n, updated.clone());
            relabeled.push(n);
            for c in tree.element_children(n) {
                stack.push((c, updated.clone()));
            }
        }
        Ok(relabeled)
    }

    /// Test/diagnostic helper: asserts that SC-derived order numbers rank
    /// the elements exactly in preorder document order.
    pub fn verify_order_consistency(&self, tree: &XmlTree) {
        let mut prev = None;
        for node in tree.elements() {
            let o = self.order_of(node);
            if let Some(p) = prev {
                assert!(o > p, "order {o} of {node} not after {p}");
            }
            prev = Some(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_xmltree::parse;

    fn build(src: &str) -> (XmlTree, OrderedPrimeDoc) {
        let tree = parse(src).unwrap();
        let doc = OrderedPrimeDoc::build(&tree, 5).unwrap();
        (tree, doc)
    }

    #[test]
    fn orders_match_preorder_positions() {
        let (tree, doc) = build("<a><b><c/><d/></b><e><f/></e></a>");
        let nodes: Vec<NodeId> = tree.elements().collect();
        for (i, &n) in nodes.iter().enumerate() {
            assert_eq!(doc.order_of(n), i as u64, "node {n}");
        }
        doc.verify_order_consistency(&tree);
    }

    #[test]
    fn figure8_second_author_insertion() {
        // §4's motivating update: insert a new author as the SECOND author —
        // Tom and John shift to 3rd and 4th position. (Tom carries
        // self-label 3 and shifts to order 3, tripping the residue-range
        // corner the paper leaves implicit, so exactly one node takes a
        // fresh prime; everything else stays put.)
        let (mut tree, mut doc) = build("<book><author/><author/><author/></book>");
        let tom = tree.element_children(tree.root()).nth(1).unwrap();
        let report = doc.insert_sibling_before(&mut tree, tom, "author").unwrap();
        assert_eq!(report.relabeled_existing, 1, "only the overflow victim");
        assert!(report.sc_records_updated >= 1);
        // Orders: root 0, Mary 1, new 2, Tom 3, John 4.
        let kids: Vec<NodeId> = tree.element_children(tree.root()).collect();
        let orders: Vec<u64> = kids.iter().map(|&k| doc.order_of(k)).collect();
        assert_eq!(orders, [1, 2, 3, 4]);
        doc.verify_order_consistency(&tree);
    }

    #[test]
    fn insertion_away_from_small_primes_relabels_nothing() {
        // Inserting past the small-prime region leaves every label intact.
        let (mut tree, mut doc) = build("<l><a/><b/><c/><d/><e/><f/><g/><h/></l>");
        let before_labels = doc.labels().clone();
        let last = tree.last_child(tree.root()).unwrap();
        let report = doc.insert_sibling_before(&mut tree, last, "x").unwrap();
        assert_eq!(report.relabeled_existing, 0);
        assert_eq!(before_labels.diff_count(doc.labels()).changed, 0);
        doc.verify_order_consistency(&tree);
    }

    #[test]
    fn insert_after_lands_past_the_subtree() {
        let (mut tree, mut doc) = build("<a><b><c/><d/></b><e/></a>");
        let b = tree.first_child(tree.root()).unwrap();
        let report = doc.insert_sibling_after(&mut tree, b, "x").unwrap();
        // Preorder: a(0) b(1) c(2) d(3) x(4) e(5).
        assert_eq!(doc.order_of(report.node), 4);
        let e = tree.last_child(tree.root()).unwrap();
        assert_eq!(doc.order_of(e), 5);
        doc.verify_order_consistency(&tree);
    }

    #[test]
    fn append_child_goes_to_the_end_of_the_subtree() {
        let (mut tree, mut doc) = build("<a><b><c/></b><e/></a>");
        let b = tree.first_child(tree.root()).unwrap();
        let report = doc.append_child(&mut tree, b, "z").unwrap();
        // Preorder: a(0) b(1) c(2) z(3) e(4).
        assert_eq!(doc.order_of(report.node), 3);
        doc.verify_order_consistency(&tree);
    }

    #[test]
    fn repeated_ordered_insertions_stay_consistent() {
        let (mut tree, mut doc) = build("<list><i/><i/><i/><i/><i/></list>");
        for _ in 0..10 {
            let second = tree.element_children(tree.root()).nth(1).unwrap();
            doc.insert_sibling_before(&mut tree, second, "i").unwrap();
            doc.verify_order_consistency(&tree);
        }
        assert_eq!(tree.element_children(tree.root()).count(), 15);
    }

    #[test]
    fn sc_update_cost_is_bounded_by_touched_records() {
        // 20 items, capacity 5 → 4 records. Inserting before the last item
        // touches the record holding it plus the receiving record.
        let mut src = String::from("<l>");
        for _ in 0..20 {
            src.push_str("<i/>");
        }
        src.push_str("</l>");
        let (mut tree, mut doc) = build(&src);
        let last = tree.last_child(tree.root()).unwrap();
        let report = doc.insert_sibling_before(&mut tree, last, "i").unwrap();
        assert!(report.sc_records_updated <= 2, "touched {}", report.sc_records_updated);
        // Inserting at the very front touches every record.
        let first = tree.first_child(tree.root()).unwrap();
        let report = doc.insert_sibling_before(&mut tree, first, "i").unwrap();
        assert!(report.sc_records_updated >= 4, "touched {}", report.sc_records_updated);
        doc.verify_order_consistency(&tree);
    }

    #[test]
    fn delete_keeps_remaining_orders() {
        let (mut tree, mut doc) = build("<a><b/><c/><d/></a>");
        let kids: Vec<NodeId> = tree.element_children(tree.root()).collect();
        let before: Vec<u64> = kids.iter().map(|&k| doc.order_of(k)).collect();
        doc.delete(&mut tree, kids[1]).unwrap();
        assert_eq!(doc.order_of(kids[0]), before[0]);
        assert_eq!(doc.order_of(kids[2]), before[2], "gap left, order preserved");
        doc.verify_order_consistency(&tree);
    }

    #[test]
    fn opt2_documents_cannot_be_ordered() {
        // Build with Opt2 by hand and check the SC build rejects shared
        // power-of-two self-labels (not coprime).
        let tree = parse("<a><b/><c/></a>").unwrap();
        let scheme = TopDownPrime::optimized();
        let doc = scheme.label_document(&tree);
        let items: Vec<(u64, u64)> = tree
            .elements()
            .skip(1)
            .enumerate()
            .map(|(i, n)| (doc.labels.label(n).self_label_u64(), i as u64 + 1))
            .collect();
        // Both leaves are 2^1 and 2^2 under the same parent: gcd = 2.
        assert!(ScTable::build(5, &items).is_err());
    }

    #[test]
    fn front_insertions_stay_consistent_despite_overflows() {
        // Hammer the small-prime region: every front insertion shifts the
        // earliest nodes, repeatedly tripping OrderOverflow relabels. The
        // derived order must stay a perfect preorder ranking throughout.
        let (mut tree, mut doc) = build("<l><a/><b/><c/></l>");
        for _ in 0..8 {
            let first = tree.first_child(tree.root()).unwrap();
            doc.insert_sibling_before(&mut tree, first, "n").unwrap();
            doc.verify_order_consistency(&tree);
        }
        assert_eq!(tree.element_children(tree.root()).count(), 11);
    }
}
