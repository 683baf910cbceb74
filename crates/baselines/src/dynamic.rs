//! [`DynamicScheme`] implementations for the baseline schemes.
//!
//! Each baseline carries its whole state in its labels (`State = ()`), and
//! each reports its *true* relabel cost through [`RelabelReport`]:
//!
//! * **Interval** — consumes numbering gaps when the scheme was built with
//!   one ([`IntervalScheme::with_gap`]); a dense document (gap 1, the
//!   configuration the paper measures) has no room, so order-sensitive
//!   insertions relabel from scratch — exactly the Figure 16/18 cost curve.
//!   Tail appends extend ancestors' `size` fields instead (the one cheap
//!   interval update), and deletions cost nothing: a stale, too-large
//!   `size` can never produce a false positive because the vacated order
//!   numbers are never reoccupied until an insertion reuses the gap.
//! * **Float-interval (QRS)** — midpoint subdivision between the two
//!   neighbouring boundaries; when the mantissa runs out (or an append hits
//!   a child interval packed against its parent's end) it relabels from
//!   scratch, reproducing §2's criticism.
//! * **Prefix-1 / Prefix-2 / Dewey** — positional schemes: a mutation
//!   recomputes the position-derived codes of the mutated node's sibling
//!   family and recurses only into children whose label actually changed,
//!   which is precisely "relabel the following siblings and their subtrees"
//!   (§2) with unchanged prefixes skipped at zero cost.

use crate::dewey::{DeweyLabel, DeweyScheme};
use crate::floatival::{midpoint, FloatIntervalScheme, FloatLabel};
use crate::interval::{IntervalLabel, IntervalScheme};
use crate::prefix::{prefix1_self_label, CkmCodes, Prefix1Scheme, Prefix2Scheme, PrefixLabel};
use std::cmp::Ordering;
use xp_labelkit::{
    full_relabel, graft_fragment, DynamicError, DynamicScheme, InsertPos, LabelOps, LabeledDoc,
    OrderedLabel, RelabelReport, Scheme,
};
use xp_xmltree::{NodeId, XmlTree};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn prev_element_sibling(tree: &XmlTree, node: NodeId) -> Option<NodeId> {
    let mut cur = tree.prev_sibling(node);
    while let Some(n) = cur {
        if tree.is_element(n) {
            return Some(n);
        }
        cur = tree.prev_sibling(n);
    }
    None
}

fn next_element_sibling(tree: &XmlTree, node: NodeId) -> Option<NodeId> {
    let mut cur = tree.next_sibling(node);
    while let Some(n) = cur {
        if tree.is_element(n) {
            return Some(n);
        }
        cur = tree.next_sibling(n);
    }
    None
}

fn last_element_child(tree: &XmlTree, node: NodeId) -> Option<NodeId> {
    tree.element_children(node).last()
}

/// Element nodes of `frag` in preorder with their depth below the fragment
/// root and their subtree element count (self included) — the shape data
/// the gap-assignment paths need.
fn frag_shape(frag: &XmlTree) -> Vec<(NodeId, u32, u64)> {
    frag.elements()
        .map(|n| {
            let depth = frag.depth(n) as u32;
            let count = frag.element_descendants(n).count() as u64;
            (n, depth, count)
        })
        .collect()
}

/// Detach + drop labels: the delete path shared by every baseline. None of
/// them relabels on deletion — interval/float ranges stay sound with the
/// vacated numbers unoccupied, and positional codes survive position gaps
/// because they are only ever recomputed (prefix-free and order-preserving
/// either way) on the next sibling-family relabel.
fn delete_dropping_labels<L: LabelOps>(
    tree: &mut XmlTree,
    doc: &mut LabeledDoc<L>,
    target: NodeId,
) -> RelabelReport {
    let subtree: Vec<NodeId> = tree.element_descendants(target).collect();
    tree.detach(target);
    for &n in &subtree {
        doc.remove(n);
    }
    RelabelReport { removed: subtree, ..Default::default() }
}

fn cmp_by_label<L: OrderedLabel>(doc: &LabeledDoc<L>, a: NodeId, b: NodeId) -> Ordering {
    doc.label(a).doc_cmp(doc.label(b))
}

// ---------------------------------------------------------------------------
// Interval
// ---------------------------------------------------------------------------

/// The numbering gap strictly between the end of what precedes the
/// insertion point under `parent` and the anchor itself: `(lower, upper)`
/// with every existing order outside the open interval.
fn interval_gap_before(
    tree: &XmlTree,
    doc: &LabeledDoc<IntervalLabel>,
    parent: NodeId,
    anchor: NodeId,
) -> (u64, u64) {
    let lower = match prev_element_sibling(tree, anchor) {
        Some(prev) => {
            let l = doc.label(prev);
            l.order + l.size
        }
        None => doc.label(parent).order,
    };
    (lower, doc.label(anchor).order)
}

/// End of `parent`'s current content and the first order number that must
/// stay out of reach (the next node after `parent`'s subtree in document
/// order, found by climbing to the first ancestor-or-self with a following
/// sibling). `None` means `parent`'s subtree is the document tail.
fn interval_append_bounds(
    tree: &XmlTree,
    doc: &LabeledDoc<IntervalLabel>,
    parent: NodeId,
) -> (u64, Option<u64>) {
    let pred_end = match last_element_child(tree, parent) {
        Some(last) => {
            let l = doc.label(last);
            l.order + l.size
        }
        None => doc.label(parent).order,
    };
    let mut n = parent;
    let succ = loop {
        if let Some(sib) = next_element_sibling(tree, n) {
            break Some(doc.label(sib).order);
        }
        match tree.parent(n) {
            Some(p) => n = p,
            None => break None,
        }
    };
    (pred_end, succ)
}

/// Extends ancestors' `size` fields upward from `parent` until `new_end` is
/// covered, recording each grown ancestor as relabeled. Safe by
/// construction: the caller has checked `new_end` against the successor
/// order, and every ancestor already covering `new_end` terminates the
/// walk.
fn interval_grow_ancestors(
    tree: &XmlTree,
    doc: &mut LabeledDoc<IntervalLabel>,
    parent: NodeId,
    new_end: u64,
    report: &mut RelabelReport,
) {
    let mut cur = Some(parent);
    while let Some(a) = cur {
        let l = *doc.label(a);
        if l.order + l.size >= new_end {
            break;
        }
        doc.set(a, IntervalLabel { size: new_end - l.order, ..l });
        report.relabeled.push(a);
        cur = tree.parent(a);
    }
}

impl DynamicScheme for IntervalScheme {
    type State = ();

    fn init(&self, tree: &XmlTree) -> Result<(LabeledDoc<IntervalLabel>, ()), DynamicError> {
        Ok((self.label(tree), ()))
    }

    fn insert_before(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<IntervalLabel>,
        _state: &mut (),
        anchor: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        let parent = tree.parent(anchor).ok_or(DynamicError::RootTarget(anchor))?;
        let (lower, upper) = interval_gap_before(tree, doc, parent, anchor);
        let level = doc.label(anchor).level;
        let node = tree.create_element(tag);
        tree.insert_before(anchor, node);
        if upper.saturating_sub(lower) >= 2 {
            let order = lower + (upper - lower) / 2;
            doc.set(node, IntervalLabel { order, size: 0, level });
            Ok(RelabelReport::single_insert(node))
        } else {
            Ok(full_relabel(self, tree, doc))
        }
    }

    fn insert_subtree(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<IntervalLabel>,
        _state: &mut (),
        pos: InsertPos,
        fragment: &XmlTree,
    ) -> Result<RelabelReport, DynamicError> {
        let shape = frag_shape(fragment);
        let k = shape.len() as u64;
        // (base order for the fragment root, depth offset, ancestors to grow)
        let plan = match pos {
            InsertPos::Before(anchor) => {
                let parent = tree.parent(anchor).ok_or(DynamicError::RootTarget(anchor))?;
                let (lower, upper) = interval_gap_before(tree, doc, parent, anchor);
                let level = doc.label(anchor).level;
                // k orders strictly inside (lower, upper).
                (upper.saturating_sub(lower) > k).then_some((lower + 1, level, None))
            }
            InsertPos::LastChildOf(parent) => {
                let (pred_end, succ) = interval_append_bounds(tree, doc, parent);
                let level = doc.label(parent).level + 1;
                succ.is_none_or(|s| pred_end + k < s)
                    .then_some((pred_end + 1, level, Some((parent, pred_end + k))))
            }
        };
        let created = graft_fragment(tree, pos, fragment);
        match plan {
            Some((base, base_level, grow)) => {
                let mut report = RelabelReport::new();
                for (i, (&node, &(_, depth, count))) in created.iter().zip(&shape).enumerate() {
                    doc.set(
                        node,
                        IntervalLabel {
                            order: base + i as u64,
                            size: count - 1,
                            level: base_level + depth,
                        },
                    );
                    report.inserted.push(node);
                }
                if let Some((parent, new_end)) = grow {
                    interval_grow_ancestors(tree, doc, parent, new_end, &mut report);
                }
                Ok(report)
            }
            None => Ok(full_relabel(self, tree, doc)),
        }
    }

    fn insert_parent(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<IntervalLabel>,
        _state: &mut (),
        target: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        let parent = tree.parent(target).ok_or(DynamicError::RootTarget(target))?;
        let (lower, upper) = interval_gap_before(tree, doc, parent, target);
        let target_label = *doc.label(target);
        let wrapper = tree.wrap_with_parent(target, tag);
        if upper.saturating_sub(lower) >= 2 {
            // The wrapper takes an order inside the gap and spans the
            // wrapped subtree; every wrapped node descends one level, and
            // level is part of the label, so the subtree relabels — the
            // same `subtree + 1` cost the prefix schemes pay here.
            let order = lower + (upper - lower) / 2;
            doc.set(
                wrapper,
                IntervalLabel {
                    order,
                    size: target_label.order + target_label.size - order,
                    level: target_label.level,
                },
            );
            let mut report = RelabelReport::single_insert(wrapper);
            for n in tree.element_descendants(target) {
                let l = *doc.label(n);
                doc.set(n, IntervalLabel { level: l.level + 1, ..l });
                report.relabeled.push(n);
            }
            Ok(report)
        } else {
            Ok(full_relabel(self, tree, doc))
        }
    }

    fn delete(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<IntervalLabel>,
        _state: &mut (),
        target: NodeId,
    ) -> Result<RelabelReport, DynamicError> {
        Ok(delete_dropping_labels(tree, doc, target))
    }

    fn doc_cmp(
        &self,
        doc: &LabeledDoc<IntervalLabel>,
        _state: &(),
        a: NodeId,
        b: NodeId,
    ) -> Ordering {
        cmp_by_label(doc, a, b)
    }
}

// ---------------------------------------------------------------------------
// Float-interval (QRS)
// ---------------------------------------------------------------------------

/// The open float range available immediately before `anchor`.
fn float_gap_before(
    tree: &XmlTree,
    doc: &LabeledDoc<FloatLabel>,
    parent: NodeId,
    anchor: NodeId,
) -> (f64, f64) {
    let lower = match prev_element_sibling(tree, anchor) {
        Some(prev) => doc.label(prev).end,
        None => doc.label(parent).start,
    };
    (lower, doc.label(anchor).start)
}

/// The open float range available after `parent`'s last child. The initial
/// labeling packs the last child's `end` against the parent's, so this
/// range is usually empty on untouched documents — the append path then
/// relabels, which is the honest QRS cost.
fn float_append_range(
    tree: &XmlTree,
    doc: &LabeledDoc<FloatLabel>,
    parent: NodeId,
) -> (f64, f64) {
    let p = *doc.label(parent);
    let lower = match last_element_child(tree, parent) {
        Some(last) => doc.label(last).end,
        None => midpoint(p.start, p.end),
    };
    (lower, p.end)
}

/// Recursively assigns fragment labels inside `(start, end)` the same way
/// the static scheme does, failing (returning `false`) on any mantissa
/// collapse. Labels come out in fragment preorder.
fn assign_float(
    frag: &XmlTree,
    node: NodeId,
    start: f64,
    end: f64,
    level: u32,
    out: &mut Vec<FloatLabel>,
) -> bool {
    if start.partial_cmp(&end) != Some(std::cmp::Ordering::Less) {
        return false;
    }
    out.push(FloatLabel { start, end, level });
    let kids: Vec<NodeId> = frag.element_children(node).collect();
    if kids.is_empty() {
        return true;
    }
    let inner = midpoint(start, end);
    if !(start < inner && inner < end) {
        return false;
    }
    let width = (end - inner) / kids.len() as f64;
    for (i, child) in kids.into_iter().enumerate() {
        let s = inner + width * i as f64;
        let e = inner + width * (i + 1) as f64;
        if !assign_float(frag, child, s, e, level + 1, out) {
            return false;
        }
    }
    true
}

impl DynamicScheme for FloatIntervalScheme {
    type State = ();

    fn init(&self, tree: &XmlTree) -> Result<(LabeledDoc<FloatLabel>, ()), DynamicError> {
        Ok((self.label(tree), ()))
    }

    fn insert_before(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<FloatLabel>,
        _state: &mut (),
        anchor: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        let parent = tree.parent(anchor).ok_or(DynamicError::RootTarget(anchor))?;
        let (lower, upper) = float_gap_before(tree, doc, parent, anchor);
        let level = doc.label(anchor).level;
        let node = tree.create_element(tag);
        tree.insert_before(anchor, node);
        let s = midpoint(lower, upper);
        let e = midpoint(s, upper);
        if lower < s && s < e && e < upper {
            doc.set(node, FloatLabel { start: s, end: e, level });
            Ok(RelabelReport::single_insert(node))
        } else {
            // Mantissa exhausted between the neighbours — §2's failure mode.
            Ok(full_relabel(self, tree, doc))
        }
    }

    fn insert_subtree(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<FloatLabel>,
        _state: &mut (),
        pos: InsertPos,
        fragment: &XmlTree,
    ) -> Result<RelabelReport, DynamicError> {
        let (lower, upper, base_level) = match pos {
            InsertPos::Before(anchor) => {
                let parent = tree.parent(anchor).ok_or(DynamicError::RootTarget(anchor))?;
                let (lo, up) = float_gap_before(tree, doc, parent, anchor);
                (lo, up, doc.label(anchor).level)
            }
            InsertPos::LastChildOf(parent) => {
                let (lo, up) = float_append_range(tree, doc, parent);
                (lo, up, doc.label(parent).level + 1)
            }
        };
        let mut labels = Vec::new();
        let s = midpoint(lower, upper);
        let e = midpoint(s, upper);
        let fits = lower < s
            && s < e
            && e < upper
            && assign_float(fragment, fragment.root(), s, e, base_level, &mut labels);
        let created = graft_fragment(tree, pos, fragment);
        if fits {
            let mut report = RelabelReport::new();
            for (&node, label) in created.iter().zip(labels) {
                doc.set(node, label);
                report.inserted.push(node);
            }
            Ok(report)
        } else {
            Ok(full_relabel(self, tree, doc))
        }
    }

    fn insert_parent(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<FloatLabel>,
        _state: &mut (),
        target: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        let parent = tree.parent(target).ok_or(DynamicError::RootTarget(target))?;
        let (lower, upper) = float_gap_before(tree, doc, parent, target);
        let target_label = *doc.label(target);
        let wrapper = tree.wrap_with_parent(target, tag);
        let s = midpoint(lower, upper);
        if lower < s && s < upper {
            doc.set(
                wrapper,
                FloatLabel { start: s, end: target_label.end, level: target_label.level },
            );
            let mut report = RelabelReport::single_insert(wrapper);
            for n in tree.element_descendants(target) {
                let l = *doc.label(n);
                doc.set(n, FloatLabel { level: l.level + 1, ..l });
                report.relabeled.push(n);
            }
            Ok(report)
        } else {
            Ok(full_relabel(self, tree, doc))
        }
    }

    fn delete(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<FloatLabel>,
        _state: &mut (),
        target: NodeId,
    ) -> Result<RelabelReport, DynamicError> {
        Ok(delete_dropping_labels(tree, doc, target))
    }

    fn doc_cmp(&self, doc: &LabeledDoc<FloatLabel>, _state: &(), a: NodeId, b: NodeId) -> Ordering {
        cmp_by_label(doc, a, b)
    }
}

// ---------------------------------------------------------------------------
// Positional schemes: Prefix-1, Prefix-2, Dewey
// ---------------------------------------------------------------------------

/// A scheme whose labels are derived from sibling positions along the root
/// path. One mutation machinery serves all three: recompute the mutated
/// family's codes, recurse only where a label actually changed.
trait PositionalScheme: Scheme {
    /// Labels for `n` children of a node labeled `parent`, by position.
    fn sibling_labels(&self, parent: &Self::Label, n: usize) -> Vec<Self::Label>;
}

impl PositionalScheme for Prefix1Scheme {
    fn sibling_labels(&self, parent: &PrefixLabel, n: usize) -> Vec<PrefixLabel> {
        (1..=n).map(|i| PrefixLabel::child_of(parent, &prefix1_self_label(i))).collect()
    }
}

impl PositionalScheme for Prefix2Scheme {
    fn sibling_labels(&self, parent: &PrefixLabel, n: usize) -> Vec<PrefixLabel> {
        CkmCodes::new().take(n).map(|c| PrefixLabel::child_of(parent, &c)).collect()
    }
}

impl PositionalScheme for DeweyScheme {
    fn sibling_labels(&self, parent: &DeweyLabel, n: usize) -> Vec<DeweyLabel> {
        (1..=n).map(|i| parent.child(i as u32)).collect()
    }
}

/// Recomputes the position-derived labels of `parent`'s children; children
/// whose label is unchanged are skipped (their subtrees cannot change),
/// fresh nodes are labeled and counted as inserted, changed ones recurse.
/// This is exactly `Scheme::label` restricted to the smallest subforest the
/// mutation could have affected.
fn relabel_family<S: PositionalScheme>(
    scheme: &S,
    tree: &XmlTree,
    doc: &mut LabeledDoc<S::Label>,
    parent: NodeId,
    report: &mut RelabelReport,
) {
    let parent_label = doc.label(parent).clone();
    let kids: Vec<NodeId> = tree.element_children(parent).collect();
    let labels = scheme.sibling_labels(&parent_label, kids.len());
    for (child, label) in kids.into_iter().zip(labels) {
        match doc.get(child) {
            Some(old) if *old == label => continue,
            Some(_) => report.relabeled.push(child),
            None => report.inserted.push(child),
        }
        doc.set(child, label);
        relabel_family(scheme, tree, doc, child, report);
    }
}

/// Implements [`DynamicScheme`] for a positional scheme; the three bodies
/// are identical, so one macro keeps them that way.
macro_rules! positional_dynamic_scheme {
    ($scheme:ty) => {
        impl DynamicScheme for $scheme {
            type State = ();

            fn init(
                &self,
                tree: &XmlTree,
            ) -> Result<(LabeledDoc<Self::Label>, ()), DynamicError> {
                Ok((self.label(tree), ()))
            }

            fn insert_before(
                &self,
                tree: &mut XmlTree,
                doc: &mut LabeledDoc<Self::Label>,
                _state: &mut (),
                anchor: NodeId,
                tag: &str,
            ) -> Result<RelabelReport, DynamicError> {
                let parent = tree.parent(anchor).ok_or(DynamicError::RootTarget(anchor))?;
                let node = tree.create_element(tag);
                tree.insert_before(anchor, node);
                let mut report = RelabelReport::new();
                relabel_family(self, tree, doc, parent, &mut report);
                debug_assert!(report.inserted.contains(&node));
                Ok(report)
            }

            fn insert_subtree(
                &self,
                tree: &mut XmlTree,
                doc: &mut LabeledDoc<Self::Label>,
                _state: &mut (),
                pos: InsertPos,
                fragment: &XmlTree,
            ) -> Result<RelabelReport, DynamicError> {
                let created = graft_fragment(tree, pos, fragment);
                let parent = match tree.parent(created[0]) {
                    Some(p) => p,
                    None => return Err(DynamicError::RootTarget(created[0])),
                };
                let mut report = RelabelReport::new();
                relabel_family(self, tree, doc, parent, &mut report);
                Ok(report)
            }

            fn insert_parent(
                &self,
                tree: &mut XmlTree,
                doc: &mut LabeledDoc<Self::Label>,
                _state: &mut (),
                target: NodeId,
                tag: &str,
            ) -> Result<RelabelReport, DynamicError> {
                let parent = tree.parent(target).ok_or(DynamicError::RootTarget(target))?;
                tree.wrap_with_parent(target, tag);
                // The wrapper takes the target's sibling position (hence its
                // old code); the target re-labels one level deeper, dragging
                // its subtree — followers keep their positions and codes.
                let mut report = RelabelReport::new();
                relabel_family(self, tree, doc, parent, &mut report);
                Ok(report)
            }

            fn delete(
                &self,
                tree: &mut XmlTree,
                doc: &mut LabeledDoc<Self::Label>,
                _state: &mut (),
                target: NodeId,
            ) -> Result<RelabelReport, DynamicError> {
                // Vacated positions leave code gaps; codes stay distinct and
                // ordered, so nothing relabels until the family next grows.
                Ok(delete_dropping_labels(tree, doc, target))
            }

            fn doc_cmp(
                &self,
                doc: &LabeledDoc<Self::Label>,
                _state: &(),
                a: NodeId,
                b: NodeId,
            ) -> Ordering {
                cmp_by_label(doc, a, b)
            }
        }
    };
}

positional_dynamic_scheme!(Prefix1Scheme);
positional_dynamic_scheme!(Prefix2Scheme);
positional_dynamic_scheme!(DeweyScheme);

#[cfg(test)]
mod tests {
    use super::*;
    use xp_labelkit::LabeledStore;
    use xp_xmltree::parse;

    /// Structural oracle: ancestor/order answers from the labels must match
    /// the tree, and the mirror must label exactly the attached elements.
    fn check_against_tree<S>(store: &LabeledStore<S>)
    where
        S: DynamicScheme,
    {
        let tree = store.tree();
        let nodes: Vec<NodeId> = tree.elements().collect();
        assert_eq!(store.doc().len(), nodes.len(), "one label per attached element");
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    store.doc().label(x).is_ancestor_of(store.doc().label(y)),
                    tree.is_ancestor(x, y),
                    "{}: ancestor({x},{y})",
                    store.scheme().name()
                );
            }
        }
        assert_eq!(store.ordered_nodes(), nodes, "{}: document order", store.scheme().name());
    }

    /// Drives one identical mutation script through a scheme and checks the
    /// oracle after every step.
    fn exercise<S>(scheme: S)
    where
        S: DynamicScheme + Clone,
    {
        let tree = parse("<a><b><c/><d/></b><e/><f><g/></f></a>").unwrap();
        let mut store = LabeledStore::build(scheme, tree).unwrap();
        check_against_tree(&store);

        // Order-sensitive sibling insert.
        let e = store.tree().element_children(store.tree().root()).nth(1).unwrap();
        let rep = store.insert_before(e, "n").unwrap();
        assert_eq!(rep.inserted.len() + rep.relabeled.len(), rep.labels_touched());
        check_against_tree(&store);

        // Subtree insert at the front.
        let b = store.tree().first_child(store.tree().root()).unwrap();
        let frag = parse("<x><y/><z/></x>").unwrap();
        let rep = store.insert_subtree(InsertPos::Before(b), &frag).unwrap();
        assert!(rep.inserted.len() >= 3, "fragment nodes all labeled");
        check_against_tree(&store);

        // Wrap a subtree.
        let rep = store.insert_parent(b, "wrap").unwrap();
        assert_eq!(rep.inserted.len(), 1);
        check_against_tree(&store);

        // Delete it again.
        let wrapper = store.tree().parent(b).unwrap();
        let rep = store.delete(wrapper).unwrap();
        assert!(rep.removed.len() >= 4, "wrapper + b + c + d");
        check_against_tree(&store);

        // Move a subtree to the end.
        let f = store.tree().elements().find(|&n| store.tree().tag(n) == Some("f")).unwrap();
        let root = store.tree().root();
        store.move_subtree(f, InsertPos::LastChildOf(root)).unwrap();
        check_against_tree(&store);
    }

    #[test]
    fn interval_handles_the_mutation_script() {
        exercise(IntervalScheme::dense());
        exercise(IntervalScheme::with_gap(64));
    }

    #[test]
    fn floatival_handles_the_mutation_script() {
        exercise(FloatIntervalScheme);
    }

    #[test]
    fn prefix1_handles_the_mutation_script() {
        exercise(Prefix1Scheme);
    }

    #[test]
    fn prefix2_handles_the_mutation_script() {
        exercise(Prefix2Scheme);
    }

    #[test]
    fn dewey_handles_the_mutation_script() {
        exercise(DeweyScheme);
    }

    #[test]
    fn gapped_interval_absorbs_a_middle_insert_without_relabeling() {
        let tree = parse("<a><b/><c/><d/></a>").unwrap();
        let mut store = LabeledStore::build(IntervalScheme::with_gap(16), tree).unwrap();
        let c = store.tree().element_children(store.tree().root()).nth(1).unwrap();
        let rep = store.insert_before(c, "n").unwrap();
        assert_eq!(rep.labels_touched(), 1, "the gap absorbs the insert");
        assert!(rep.relabeled.is_empty());
        check_against_tree(&store);
    }

    #[test]
    fn dense_interval_relabels_on_a_middle_insert() {
        let tree = parse("<a><b/><c/><d/></a>").unwrap();
        let mut store = LabeledStore::build(IntervalScheme::dense(), tree).unwrap();
        let c = store.tree().element_children(store.tree().root()).nth(1).unwrap();
        let rep = store.insert_before(c, "n").unwrap();
        // Static accounting: c and d shift, a's size grows, plus the new node.
        assert_eq!(rep.inserted.len(), 1);
        assert_eq!(rep.relabeled.len(), 3);
        check_against_tree(&store);
    }

    #[test]
    fn dense_interval_tail_append_only_grows_ancestors() {
        let tree = parse("<a><b><c/></b></a>").unwrap();
        let mut store = LabeledStore::build(IntervalScheme::dense(), tree).unwrap();
        let c = store.tree().elements().find(|&n| store.tree().tag(n) == Some("c")).unwrap();
        let rep = store.insert_subtree(InsertPos::LastChildOf(c), &parse("<z/>").unwrap()).unwrap();
        assert_eq!(rep.inserted.len(), 1);
        assert_eq!(rep.relabeled.len(), 3, "a, b, c sizes grow");
        check_against_tree(&store);
    }

    #[test]
    fn float_insert_before_consumes_no_relabels_until_exhaustion() {
        let tree = parse("<a><b/><c/></a>").unwrap();
        let mut store = LabeledStore::build(FloatIntervalScheme, tree).unwrap();
        // Siblings are packed contiguously, so the only float gap is the one
        // before the first child; each insert there burns ~2 mantissa bits.
        let b = store.tree().first_child(store.tree().root()).unwrap();
        let mut free_inserts = 0usize;
        for _ in 0..200 {
            let rep = store.insert_before(b, "n").unwrap();
            if rep.relabeled.is_empty() {
                free_inserts += 1;
            } else {
                break;
            }
        }
        assert!(
            (15..=60).contains(&free_inserts),
            "mantissa allows roughly 52/2 free inserts, got {free_inserts}"
        );
        check_against_tree(&store);
    }

    #[test]
    fn prefix2_middle_insert_relabels_following_sibling_subtrees() {
        let tree = parse("<a><b><x/><y/></b><c><z/></c></a>").unwrap();
        let mut store = LabeledStore::build(Prefix2Scheme, tree).unwrap();
        let b = store.tree().first_child(store.tree().root()).unwrap();
        let rep = store.insert_before(b, "n").unwrap();
        assert_eq!(rep.inserted.len(), 1);
        assert_eq!(rep.relabeled.len(), 5, "b, x, y, c, z all shift");
        check_against_tree(&store);
    }

    #[test]
    fn prefix2_tail_append_is_free() {
        let tree = parse("<a><b/><c/></a>").unwrap();
        let mut store = LabeledStore::build(Prefix2Scheme, tree).unwrap();
        let root = store.tree().root();
        let rep = store.insert_subtree(InsertPos::LastChildOf(root), &parse("<z/>").unwrap()).unwrap();
        assert_eq!(rep.labels_touched(), 1, "appending a sibling is free for prefix schemes");
        check_against_tree(&store);
    }

    #[test]
    fn dewey_wrap_costs_subtree_plus_one() {
        let tree = parse("<a><b><c/><d/></b><e/></a>").unwrap();
        let mut store = LabeledStore::build(DeweyScheme, tree).unwrap();
        let b = store.tree().first_child(store.tree().root()).unwrap();
        let rep = store.insert_parent(b, "wrap").unwrap();
        assert_eq!(rep.inserted.len(), 1);
        assert_eq!(rep.relabeled.len(), 3, "b, c, d gain a component");
        check_against_tree(&store);
    }

    #[test]
    fn positional_delete_then_insert_recovers_from_position_gaps() {
        // Deleting a middle sibling leaves a code gap; the next insert must
        // recompute codes without minting duplicates or breaking order.
        for_each_positional(|scheme| {
            let tree = parse("<a><b/><c/><d/><e/></a>").unwrap();
            let mut store = LabeledStore::build(scheme, tree).unwrap();
            let c = store.tree().element_children(store.tree().root()).nth(1).unwrap();
            store.delete(c).unwrap();
            check_against_tree(&store);
            let e = store.tree().last_child(store.tree().root()).unwrap();
            store.insert_before(e, "n").unwrap();
            check_against_tree(&store);
        });
    }

    fn for_each_positional(f: impl Fn(Prefix2Scheme) + Copy) {
        // Prefix-2 is the sharpest case (variable-length codes); Prefix-1
        // and Dewey share the machinery and are covered by `exercise`.
        f(Prefix2Scheme);
    }
}
