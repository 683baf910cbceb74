//! Exact arena snapshots of an [`XmlTree`].
//!
//! The persistence layer (`xp-store`) records mutations against arena slot
//! indices, so a checkpointed tree must reload with **byte-identical arena
//! layout** — the same slots, in the same order, including detached nodes.
//! Serializing to XML text and reparsing would reassign indices and drop
//! detached subtrees; a [`TreeSnapshot`] instead captures every slot verbatim.
//!
//! [`XmlTree::from_snapshot`] validates the structure before constructing a
//! tree, because snapshots cross a trust boundary (they are decoded from
//! disk): out-of-range links, sibling-chain corruption, multiple parents
//! claiming one child, and parent- or sibling-link cycles are all rejected
//! with a typed [`SnapshotError`] instead of looping or panicking later.

use std::fmt;

use crate::tree::{Node, NodeId, NodeKind, XmlTree};

/// One arena slot, links expressed as raw slot indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// The node payload (element tag + attrs, or text).
    pub kind: NodeKind,
    /// Parent slot, `None` for the root and detached nodes.
    pub parent: Option<u32>,
    /// First child slot.
    pub first_child: Option<u32>,
    /// Last child slot.
    pub last_child: Option<u32>,
    /// Previous sibling slot.
    pub prev_sibling: Option<u32>,
    /// Next sibling slot.
    pub next_sibling: Option<u32>,
}

/// A complete, order-preserving copy of an [`XmlTree`] arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSnapshot {
    /// Slot index of the root element.
    pub root: u32,
    /// Every arena slot in allocation order (detached slots included).
    pub slots: Vec<SlotSnapshot>,
}

/// Why a [`TreeSnapshot`] was rejected by [`XmlTree::from_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot has no slots at all.
    Empty,
    /// `root` does not name an existing slot.
    RootOutOfRange,
    /// The root slot is a text node.
    RootNotElement,
    /// The root slot has a parent or sibling links.
    RootAttached,
    /// Some link points past the end of the slot table.
    LinkOutOfRange,
    /// Following parent links never reaches a parentless node.
    ParentCycle,
    /// A child's `parent` back-link disagrees with the chain it sits in.
    BadParentLink,
    /// A sibling chain's prev/next links disagree, or it cycles.
    BadSiblingChain,
    /// Two different parents (or chain positions) claim the same slot.
    MultiParent,
    /// A slot records a parent but never appears in that parent's chain.
    UnlinkedChild,
    /// A detached slot (no parent) still carries sibling links.
    DetachedWithSiblings,
    /// A text slot claims to have children.
    TextWithChildren,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SnapshotError::Empty => "snapshot has no slots",
            SnapshotError::RootOutOfRange => "root index out of range",
            SnapshotError::RootNotElement => "root slot is not an element",
            SnapshotError::RootAttached => "root slot has parent or sibling links",
            SnapshotError::LinkOutOfRange => "node link out of range",
            SnapshotError::ParentCycle => "parent links form a cycle",
            SnapshotError::BadParentLink => "child's parent back-link mismatch",
            SnapshotError::BadSiblingChain => "sibling chain corrupt or cyclic",
            SnapshotError::MultiParent => "slot claimed by more than one parent",
            SnapshotError::UnlinkedChild => "slot has a parent but is not in its chain",
            SnapshotError::DetachedWithSiblings => "detached slot has sibling links",
            SnapshotError::TextWithChildren => "text slot has children",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SnapshotError {}

const UNKNOWN_DEPTH: u32 = u32::MAX;

impl XmlTree {
    /// Captures every arena slot, preserving indices exactly.
    pub fn snapshot(&self) -> TreeSnapshot {
        let to_u32 = |id: Option<NodeId>| id.map(|n| n.index() as u32);
        let slots = (0..self.arena_len())
            .map(|i| {
                // All indices below arena_len resolve.
                #[allow(clippy::expect_used)]
                let id = self.node_at(i).expect("index < arena_len");
                let n = self.raw_node(id);
                SlotSnapshot {
                    kind: n.kind.clone(),
                    parent: to_u32(n.parent),
                    first_child: to_u32(n.first_child),
                    last_child: to_u32(n.last_child),
                    prev_sibling: to_u32(n.prev_sibling),
                    next_sibling: to_u32(n.next_sibling),
                }
            })
            .collect();
        TreeSnapshot { root: self.root().index() as u32, slots }
    }

    /// Reconstructs a tree with the exact arena layout of `snap`, after
    /// validating that the slot links describe a well-formed forest (one
    /// rooted document tree plus zero or more detached subtrees).
    pub fn from_snapshot(snap: &TreeSnapshot) -> Result<XmlTree, SnapshotError> {
        validate(snap)?;
        // validate() bounds-checked every link.
        let id = |raw: Option<u32>| raw.map(XmlTree::node_id_unchecked);
        let nodes = snap
            .slots
            .iter()
            .map(|s| Node {
                kind: s.kind.clone(),
                parent: id(s.parent),
                first_child: id(s.first_child),
                last_child: id(s.last_child),
                prev_sibling: id(s.prev_sibling),
                next_sibling: id(s.next_sibling),
            })
            .collect();
        Ok(XmlTree::from_raw_parts(nodes, XmlTree::node_id_unchecked(snap.root)))
    }
}

fn validate(snap: &TreeSnapshot) -> Result<(), SnapshotError> {
    let n = snap.slots.len();
    if n == 0 {
        return Err(SnapshotError::Empty);
    }
    let root = snap.root as usize;
    if root >= n {
        return Err(SnapshotError::RootOutOfRange);
    }
    let root_slot = &snap.slots[root];
    if !matches!(root_slot.kind, NodeKind::Element { .. }) {
        return Err(SnapshotError::RootNotElement);
    }
    if root_slot.parent.is_some()
        || root_slot.prev_sibling.is_some()
        || root_slot.next_sibling.is_some()
    {
        return Err(SnapshotError::RootAttached);
    }

    // Bounds + per-slot shape.
    for s in &snap.slots {
        for l in [s.parent, s.first_child, s.last_child, s.prev_sibling, s.next_sibling]
            .into_iter()
            .flatten()
        {
            if l as usize >= n {
                return Err(SnapshotError::LinkOutOfRange);
            }
        }
        if matches!(s.kind, NodeKind::Text(_)) && s.first_child.is_some() {
            return Err(SnapshotError::TextWithChildren);
        }
    }

    // Parent links must be acyclic. Memoized depth walk: total O(n).
    let mut depth = vec![UNKNOWN_DEPTH; n];
    for start in 0..n {
        let mut path = Vec::new();
        let mut cur = start;
        while depth[cur] == UNKNOWN_DEPTH {
            path.push(cur);
            if path.len() > n {
                return Err(SnapshotError::ParentCycle);
            }
            match snap.slots[cur].parent {
                Some(p) => cur = p as usize,
                None => break,
            }
        }
        let mut d = if depth[cur] == UNKNOWN_DEPTH {
            // `cur` is parentless and unvisited: it is the last path entry.
            path.pop();
            depth[cur] = 0;
            0
        } else {
            depth[cur]
        };
        for &slot in path.iter().rev() {
            d = d.saturating_add(1);
            depth[slot] = d;
        }
    }

    // Every child chain must be mutually consistent with its members'
    // back-links, claim each slot at most once, and terminate.
    let mut claimed = vec![false; n];
    for (i, s) in snap.slots.iter().enumerate() {
        let mut prev: Option<u32> = None;
        let mut cur = s.first_child;
        let mut steps = 0usize;
        while let Some(c) = cur {
            let c = c as usize;
            steps += 1;
            if steps > n {
                return Err(SnapshotError::BadSiblingChain);
            }
            if claimed[c] {
                return Err(SnapshotError::MultiParent);
            }
            claimed[c] = true;
            if snap.slots[c].parent != Some(i as u32) {
                return Err(SnapshotError::BadParentLink);
            }
            if snap.slots[c].prev_sibling != prev {
                return Err(SnapshotError::BadSiblingChain);
            }
            prev = Some(c as u32);
            cur = snap.slots[c].next_sibling;
        }
        if s.last_child != prev {
            return Err(SnapshotError::BadSiblingChain);
        }
    }
    for (i, s) in snap.slots.iter().enumerate() {
        match s.parent {
            Some(_) if !claimed[i] => return Err(SnapshotError::UnlinkedChild),
            None if s.prev_sibling.is_some() || s.next_sibling.is_some() => {
                return Err(SnapshotError::DetachedWithSiblings)
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn sample() -> XmlTree {
        let mut t = parse("<a><b><c/>text</b><d x=\"1\"/></a>").unwrap();
        // Leave a detached subtree in the arena so round-trips cover it.
        let root = t.root();
        let d = t.children(root).nth(1).unwrap();
        t.detach(d);
        t
    }

    #[test]
    fn round_trip_is_arena_identical() {
        let t = sample();
        let snap = t.snapshot();
        let back = XmlTree::from_snapshot(&snap).unwrap();
        assert_eq!(back.arena_len(), t.arena_len());
        assert_eq!(back.root(), t.root());
        for i in 0..t.arena_len() {
            let a = t.node_at(i).unwrap();
            let b = back.node_at(i).unwrap();
            assert_eq!(t.kind(a), back.kind(b));
            assert_eq!(t.parent(a), back.parent(b));
            assert_eq!(t.first_child(a), back.first_child(b));
            assert_eq!(t.last_child(a), back.last_child(b));
            assert_eq!(t.prev_sibling(a), back.prev_sibling(b));
            assert_eq!(t.next_sibling(a), back.next_sibling(b));
        }
        assert_eq!(back.snapshot(), snap);
    }

    #[test]
    fn rejects_root_out_of_range() {
        let mut snap = sample().snapshot();
        snap.root = snap.slots.len() as u32;
        assert_eq!(XmlTree::from_snapshot(&snap).unwrap_err(), SnapshotError::RootOutOfRange);
    }

    #[test]
    fn rejects_link_out_of_range() {
        let mut snap = sample().snapshot();
        snap.slots[1].first_child = Some(snap.slots.len() as u32);
        assert_eq!(XmlTree::from_snapshot(&snap).unwrap_err(), SnapshotError::LinkOutOfRange);
    }

    #[test]
    fn rejects_parent_cycle() {
        let mut snap = sample().snapshot();
        // b (slot 1) and c (slot 2): make them each other's parent, with
        // coherent child chains so only the cycle check can catch it.
        snap.slots[1].parent = Some(2);
        snap.slots[1].prev_sibling = None;
        snap.slots[1].next_sibling = None;
        snap.slots[2].first_child = Some(1);
        snap.slots[2].last_child = Some(1);
        snap.slots[0].first_child = None;
        snap.slots[0].last_child = None;
        // Keep text node (slot 3) consistent: orphan it.
        snap.slots[3].parent = None;
        snap.slots[3].prev_sibling = None;
        snap.slots[3].next_sibling = None;
        snap.slots[1].first_child = Some(2);
        snap.slots[1].last_child = Some(2);
        assert_eq!(XmlTree::from_snapshot(&snap).unwrap_err(), SnapshotError::ParentCycle);
    }

    #[test]
    fn rejects_multi_parent() {
        let mut snap = sample().snapshot();
        // Splice c (slot 2) into the root's child chain after b while b's
        // own chain still lists it: root walks [b, c, text] coherently, then
        // b's chain re-claims c.
        snap.slots[2].parent = Some(0);
        snap.slots[2].prev_sibling = Some(1);
        snap.slots[2].next_sibling = Some(3);
        snap.slots[1].next_sibling = Some(2);
        snap.slots[3].prev_sibling = Some(2);
        snap.slots[0].last_child = Some(3);
        snap.slots[3].parent = Some(0);
        let err = XmlTree::from_snapshot(&snap).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::MultiParent
                    | SnapshotError::BadSiblingChain
                    | SnapshotError::BadParentLink
            ),
            "unexpected: {err:?}"
        );
    }

    #[test]
    fn rejects_detached_with_siblings() {
        let mut snap = sample().snapshot();
        let d = snap.slots.iter().position(|s| matches!(&s.kind, NodeKind::Element{tag,..} if tag == "d")).unwrap();
        snap.slots[d].next_sibling = Some(0);
        let err = XmlTree::from_snapshot(&snap).unwrap_err();
        assert!(
            matches!(err, SnapshotError::DetachedWithSiblings | SnapshotError::RootAttached),
            "unexpected: {err:?}"
        );
    }

    #[test]
    fn rejects_text_with_children() {
        let mut snap = sample().snapshot();
        let t = snap.slots.iter().position(|s| matches!(s.kind, NodeKind::Text(_))).unwrap();
        snap.slots[t].first_child = Some(0);
        assert_eq!(XmlTree::from_snapshot(&snap).unwrap_err(), SnapshotError::TextWithChildren);
    }

    #[test]
    fn node_at_resolves_and_bounds() {
        let t = sample();
        assert_eq!(t.node_at(0), Some(t.root()));
        assert!(t.node_at(t.arena_len()).is_none());
    }
}
