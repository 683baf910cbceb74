//! The dynamic mutation protocol: [`DynamicScheme`], [`RelabelReport`], and
//! the [`LabeledStore`] facade.
//!
//! The paper's subject is *dynamic* ordered trees, so a scheme is more than
//! its label ops: it is label ops **plus** an update protocol. This module
//! defines that protocol once, for every scheme in the workspace:
//!
//! * [`DynamicScheme`] extends [`Scheme`] with typed mutations
//!   (`insert_before`, `insert_subtree`, `insert_parent`, `delete`,
//!   `move_subtree`), each returning a [`RelabelReport`] that names exactly
//!   which labels the mutation touched.
//! * [`LabeledStore`] owns the [`XmlTree`], the [`LabeledDoc`], and the
//!   scheme's side state (the prime scheme's SC table lives there), so
//!   callers get one mutation API regardless of scheme.
//! * [`RelabelReport`] composes under [`RelabelReport::merge`] (sequential
//!   application), which is how multi-step mutations such as
//!   [`DynamicScheme::move_subtree`] account their true cost.
//!
//! Schemes report *true* relabel cost: a static scheme that must renumber
//! half the document after an insertion reports every one of those nodes,
//! which is precisely the measurement Figures 16–18 are built on.

use crate::codec::CodecError;
use crate::doc::LabeledDoc;
use crate::scheme::Scheme;
use std::cmp::Ordering;
use xp_xmltree::{NodeId, XmlTree};

/// Which labels a mutation changed.
///
/// The three node lists are disjoint: a node is *inserted* (labeled for the
/// first time), *relabeled* (existing label replaced), or *removed* (label
/// dropped). `side_updates` counts scheme-side bookkeeping that the paper's
/// accounting charges like a relabel — for the prime scheme, SC records
/// re-solved ("We consider a record update in the SC table as a node that
/// requires re-labeling").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelabelReport {
    /// Nodes labeled for the first time by this mutation.
    pub inserted: Vec<NodeId>,
    /// Pre-existing nodes whose labels changed.
    pub relabeled: Vec<NodeId>,
    /// Nodes whose labels were dropped (deleted subtrees).
    pub removed: Vec<NodeId>,
    /// Scheme-side record updates (SC records for the prime scheme; 0 for
    /// schemes whose state lives entirely in the labels).
    pub side_updates: usize,
}

impl RelabelReport {
    /// An empty report (the identity of [`RelabelReport::merge`]).
    pub fn new() -> Self {
        RelabelReport::default()
    }

    /// A report consisting of a single fresh node.
    pub fn single_insert(node: NodeId) -> Self {
        RelabelReport { inserted: vec![node], ..Default::default() }
    }

    /// Number of labels written (inserted + relabeled) — Figures 16/17's
    /// "nodes to relabel" metric.
    pub fn labels_touched(&self) -> usize {
        self.inserted.len() + self.relabeled.len()
    }

    /// Total cost under the paper's accounting: labels written plus one per
    /// scheme-side record update — Figure 18's metric.
    pub fn total_cost(&self) -> usize {
        self.labels_touched() + self.side_updates
    }

    /// `true` iff the mutation touched nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.relabeled.is_empty()
            && self.removed.is_empty()
            && self.side_updates == 0
    }

    /// Sequential composition: `self` happened first, `later` after it.
    ///
    /// The algebra (see DESIGN.md §8):
    /// * insert ∘ relabel = insert (relabeling a node this composite op
    ///   created is still just one insertion),
    /// * insert ∘ remove = nothing (the node never escaped the op),
    /// * remove ∘ insert = relabel (the node existed before and after, with
    ///   a possibly different label),
    /// * `side_updates` add.
    pub fn merge(&mut self, later: RelabelReport) {
        for n in later.removed {
            if let Some(i) = self.inserted.iter().position(|&x| x == n) {
                // Inserted then removed inside the composite op: cancels.
                self.inserted.swap_remove(i);
                continue;
            }
            if let Some(i) = self.relabeled.iter().position(|&x| x == n) {
                self.relabeled.swap_remove(i);
            }
            if !self.removed.contains(&n) {
                self.removed.push(n);
            }
        }
        for n in later.inserted {
            if let Some(i) = self.removed.iter().position(|&x| x == n) {
                // Removed then re-inserted: the node survived the composite
                // op with a (possibly) new label.
                self.removed.swap_remove(i);
                if !self.relabeled.contains(&n) {
                    self.relabeled.push(n);
                }
                continue;
            }
            if !self.inserted.contains(&n) {
                self.inserted.push(n);
            }
        }
        for n in later.relabeled {
            if !self.inserted.contains(&n) && !self.relabeled.contains(&n) {
                self.relabeled.push(n);
            }
        }
        self.side_updates += later.side_updates;
    }
}

/// A failure of a dynamic mutation. The structural validation errors are
/// raised before any state changes; `Scheme` wraps a scheme-specific error
/// (e.g. the prime pipeline's typed error), after which the store has rolled
/// the mutation back or repaired itself to a consistent state.
#[derive(Debug)]
pub enum DynamicError {
    /// The target or anchor node carries no label in this store.
    UnknownNode(NodeId),
    /// The mutation targeted the document root (which has no parent or
    /// siblings and cannot be deleted or moved).
    RootTarget(NodeId),
    /// `move_subtree` would place a subtree inside itself.
    MoveIntoSelf {
        /// The subtree being moved.
        subject: NodeId,
        /// The offending destination inside it.
        dest: NodeId,
    },
    /// A subtree fragment failed to parse.
    Fragment(String),
    /// The scheme's own mutation machinery failed.
    Scheme(Box<dyn std::error::Error + Send + Sync + 'static>),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::UnknownNode(n) => write!(f, "node {n} is not labeled in this store"),
            DynamicError::RootTarget(n) => {
                write!(f, "node {n} is the document root, which cannot anchor this mutation")
            }
            DynamicError::MoveIntoSelf { subject, dest } => {
                write!(f, "cannot move {subject} to {dest}: destination lies inside the subtree")
            }
            DynamicError::Fragment(msg) => write!(f, "bad subtree fragment: {msg}"),
            DynamicError::Scheme(e) => write!(f, "scheme mutation failed: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynamicError::Scheme(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

/// Where an insertion lands. `N` is the node reference: a [`NodeId`] in
/// the store, a raw arena index (`u64`) on a client that has no arena
/// (the server's `WirePos`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPos<N = NodeId> {
    /// Immediately before this node, as its previous sibling.
    Before(N),
    /// As the last child of this node.
    LastChildOf(N),
}

impl<N: Copy> InsertPos<N> {
    /// The node the position is expressed relative to.
    pub fn anchor(&self) -> N {
        match *self {
            InsertPos::Before(n) | InsertPos::LastChildOf(n) => n,
        }
    }
}

/// A mutation in data form — what the CLI and the property tests drive
/// [`LabeledStore::apply`] with, and what the WAL logs. `N` is the node
/// reference, as for [`InsertPos`]: the server's `WireMutation` is
/// `Mutation<u64>`, and both forms encode through the one codec below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation<N = NodeId> {
    /// Insert a new element named `tag` before `anchor`.
    InsertBefore {
        /// The sibling the new element precedes.
        anchor: N,
        /// Tag of the new element.
        tag: String,
    },
    /// Insert a parsed XML fragment at `pos`.
    InsertSubtree {
        /// Where the fragment root lands.
        pos: InsertPos<N>,
        /// The fragment, as XML source.
        xml: String,
    },
    /// Wrap `target` (and its subtree) in a new parent element named `tag`.
    InsertParent {
        /// The node being wrapped.
        target: N,
        /// Tag of the wrapper.
        tag: String,
    },
    /// Delete `target` and its subtree.
    Delete {
        /// The subtree root to delete.
        target: N,
    },
    /// Detach `target`'s subtree and re-insert it at `pos`.
    MoveSubtree {
        /// The subtree root being moved.
        target: N,
        /// Where it goes.
        pos: InsertPos<N>,
    },
}

/// A node reference the mutation codec can write: its arena slot index.
pub trait NodeRef: Copy {
    /// The arena slot index this reference names.
    fn slot(self) -> u64;
}

impl NodeRef for NodeId {
    fn slot(self) -> u64 {
        self.index() as u64
    }
}

impl NodeRef for u64 {
    fn slot(self) -> u64 {
        self
    }
}

// Wire tags of the mutation codec (WAL frame payloads and `Apply` request
// blobs — see DESIGN.md §11.1). The only copy in the workspace.
const MUT_INSERT_BEFORE: u64 = 0;
const MUT_INSERT_SUBTREE: u64 = 1;
const MUT_INSERT_PARENT: u64 = 2;
const MUT_DELETE: u64 = 3;
const MUT_MOVE_SUBTREE: u64 = 4;

const POS_BEFORE: u64 = 0;
const POS_LAST_CHILD_OF: u64 = 1;

fn write_node<N: NodeRef>(out: &mut Vec<u8>, node: N) {
    crate::codec::write_varint(out, node.slot());
}

fn read_node(input: &mut &[u8], tree: &XmlTree) -> Result<NodeId, CodecError> {
    let idx = crate::codec::read_varint(input)?;
    usize::try_from(idx)
        .ok()
        .and_then(|i| tree.node_at(i))
        .ok_or(CodecError::Corrupt("mutation names a node outside the arena"))
}

fn write_pos<N: NodeRef>(out: &mut Vec<u8>, pos: InsertPos<N>) {
    match pos {
        InsertPos::Before(n) => {
            crate::codec::write_varint(out, POS_BEFORE);
            write_node(out, n);
        }
        InsertPos::LastChildOf(n) => {
            crate::codec::write_varint(out, POS_LAST_CHILD_OF);
            write_node(out, n);
        }
    }
}

fn read_pos(input: &mut &[u8], tree: &XmlTree) -> Result<InsertPos, CodecError> {
    match crate::codec::read_varint(input)? {
        POS_BEFORE => Ok(InsertPos::Before(read_node(input, tree)?)),
        POS_LAST_CHILD_OF => Ok(InsertPos::LastChildOf(read_node(input, tree)?)),
        _ => Err(CodecError::Corrupt("unknown insert position tag")),
    }
}

fn read_string(input: &mut &[u8]) -> Result<String, CodecError> {
    let bytes = crate::codec::read_bytes(input)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| CodecError::Corrupt("mutation string is not UTF-8"))
}

impl<N: NodeRef> Mutation<N> {
    /// Appends the wire form of this mutation to `out`. Node references are
    /// stored as arena slot indices — valid across process restarts because
    /// slots are never reused and checkpoints preserve arena layout exactly
    /// ([`xp_xmltree::TreeSnapshot`]). A `Mutation<u64>` and the
    /// `Mutation<NodeId>` it names encode to the same bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Mutation::InsertBefore { anchor, tag } => {
                crate::codec::write_varint(out, MUT_INSERT_BEFORE);
                write_node(out, *anchor);
                crate::codec::write_bytes(out, tag.as_bytes());
            }
            Mutation::InsertSubtree { pos, xml } => {
                crate::codec::write_varint(out, MUT_INSERT_SUBTREE);
                write_pos(out, *pos);
                crate::codec::write_bytes(out, xml.as_bytes());
            }
            Mutation::InsertParent { target, tag } => {
                crate::codec::write_varint(out, MUT_INSERT_PARENT);
                write_node(out, *target);
                crate::codec::write_bytes(out, tag.as_bytes());
            }
            Mutation::Delete { target } => {
                crate::codec::write_varint(out, MUT_DELETE);
                write_node(out, *target);
            }
            Mutation::MoveSubtree { target, pos } => {
                crate::codec::write_varint(out, MUT_MOVE_SUBTREE);
                write_node(out, *target);
                write_pos(out, *pos);
            }
        }
    }

    /// The encoded bytes as an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

impl Mutation {
    /// Decodes one mutation from the front of `input`, resolving node
    /// references against `tree`'s arena. Fails with a typed
    /// [`CodecError`] on unknown tags, non-UTF-8 strings, or node indices
    /// the arena does not (yet) contain.
    pub fn decode(input: &mut &[u8], tree: &XmlTree) -> Result<Mutation, CodecError> {
        match crate::codec::read_varint(input)? {
            MUT_INSERT_BEFORE => Ok(Mutation::InsertBefore {
                anchor: read_node(input, tree)?,
                tag: read_string(input)?,
            }),
            MUT_INSERT_SUBTREE => Ok(Mutation::InsertSubtree {
                pos: read_pos(input, tree)?,
                xml: read_string(input)?,
            }),
            MUT_INSERT_PARENT => Ok(Mutation::InsertParent {
                target: read_node(input, tree)?,
                tag: read_string(input)?,
            }),
            MUT_DELETE => Ok(Mutation::Delete { target: read_node(input, tree)? }),
            MUT_MOVE_SUBTREE => Ok(Mutation::MoveSubtree {
                target: read_node(input, tree)?,
                pos: read_pos(input, tree)?,
            }),
            _ => Err(CodecError::Corrupt("unknown mutation tag")),
        }
    }
}

/// A [`Scheme`] that additionally supports incremental mutations.
///
/// Mutations operate on three pieces the [`LabeledStore`] owns: the tree,
/// the label table, and `State` — whatever the scheme keeps beside the
/// labels (the prime scheme's SC table and prime allocator; `()` for schemes
/// whose labels are self-contained).
///
/// # Contract
///
/// * On `Ok(report)`, tree / labels / state are mutually consistent and the
///   report lists exactly the label writes that happened.
/// * On `Err`, the implementation must leave the store consistent: either
///   the mutation was fully rolled back, or (for multi-step mutations) a
///   prefix of it was applied cleanly. Labels and tree must agree — every
///   attached element labeled, every label on an attached element.
/// * `insert_subtree` copies the fragment's element structure and text
///   content; attributes are not part of the label-store model.
pub trait DynamicScheme: Scheme {
    /// Scheme-side state beyond the labels (e.g. SC table + prime pool).
    type State;

    /// Labels `tree` from scratch and builds the scheme state.
    fn init(&self, tree: &XmlTree) -> Result<(LabeledDoc<Self::Label>, Self::State), DynamicError>;

    /// Inserts one new element named `tag` immediately before `anchor`.
    fn insert_before(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        anchor: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError>;

    /// Inserts a copy of `fragment` (root element and all) at `pos`.
    fn insert_subtree(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        pos: InsertPos,
        fragment: &XmlTree,
    ) -> Result<RelabelReport, DynamicError>;

    /// Wraps `target` in a new parent element named `tag` (Figure 17's
    /// non-leaf insertion).
    fn insert_parent(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        target: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError>;

    /// Deletes `target` and its subtree.
    fn delete(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        target: NodeId,
    ) -> Result<RelabelReport, DynamicError>;

    /// Moves `target`'s subtree to `pos`.
    ///
    /// The default implementation is delete + re-insert of a structural
    /// copy, merged into one report — the honest cost for schemes without a
    /// cheaper move. The moved subtree receives **fresh node ids** (arena
    /// slots are never reused); callers needing the new ids read them from
    /// the report's `inserted` list (preorder).
    fn move_subtree(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        target: NodeId,
        pos: InsertPos,
    ) -> Result<RelabelReport, DynamicError> {
        validate_move(tree, doc, target, pos)?;
        let fragment = copy_fragment(tree, target);
        let mut report = self.delete(tree, doc, state, target)?;
        let insert = self.insert_subtree(tree, doc, state, pos, &fragment)?;
        report.merge(insert);
        Ok(report)
    }

    /// Document-order comparison of two labeled nodes, from the scheme's own
    /// order machinery (label comparison, or `SC mod self` for prime).
    fn doc_cmp(
        &self,
        doc: &LabeledDoc<Self::Label>,
        state: &Self::State,
        a: NodeId,
        b: NodeId,
    ) -> Ordering;
}

/// Shared validation for [`DynamicScheme::move_subtree`]: the subject must
/// be a labeled non-root node and the destination must not lie inside it.
pub fn validate_move<L: crate::LabelOps>(
    tree: &XmlTree,
    doc: &LabeledDoc<L>,
    target: NodeId,
    pos: InsertPos,
) -> Result<(), DynamicError> {
    if doc.get(target).is_none() {
        return Err(DynamicError::UnknownNode(target));
    }
    if target == tree.root() {
        return Err(DynamicError::RootTarget(target));
    }
    let dest = pos.anchor();
    if doc.get(dest).is_none() {
        return Err(DynamicError::UnknownNode(dest));
    }
    if dest == target || tree.is_ancestor(target, dest) {
        return Err(DynamicError::MoveIntoSelf { subject: target, dest });
    }
    if let InsertPos::Before(anchor) = pos {
        if anchor == tree.root() {
            return Err(DynamicError::RootTarget(anchor));
        }
    }
    Ok(())
}

/// Deep-copies `node`'s subtree (element structure and text content) into a
/// fresh single-rooted tree. Attributes are not copied — see the
/// [`DynamicScheme`] contract.
pub fn copy_fragment(tree: &XmlTree, node: NodeId) -> XmlTree {
    let mut frag = XmlTree::new(tree.tag(node).unwrap_or("node"));
    let frag_root = frag.root();
    copy_children(tree, node, &mut frag, frag_root);
    frag
}

fn copy_children(src: &XmlTree, from: NodeId, dst: &mut XmlTree, to: NodeId) {
    let kids: Vec<NodeId> = src.children(from).collect();
    for child in kids {
        if let Some(tag) = src.tag(child) {
            let new = dst.append_element(to, tag);
            copy_children(src, child, dst, new);
        } else if let Some(text) = src.text(child) {
            dst.append_text(to, text);
        }
    }
}

/// Grafts a copy of `fragment` into `tree` at `pos` and returns the new
/// **element** node ids in preorder (fragment root first). Purely
/// structural — the caller labels the returned nodes.
pub fn graft_fragment(tree: &mut XmlTree, pos: InsertPos, fragment: &XmlTree) -> Vec<NodeId> {
    let root_tag = fragment.tag(fragment.root()).unwrap_or("node").to_string();
    let new_root = tree.create_element(root_tag);
    match pos {
        InsertPos::Before(anchor) => tree.insert_before(anchor, new_root),
        InsertPos::LastChildOf(parent) => tree.append_child(parent, new_root),
    }
    let mut created = vec![new_root];
    graft_children(fragment, fragment.root(), tree, new_root, &mut created);
    created
}

fn graft_children(
    src: &XmlTree,
    from: NodeId,
    dst: &mut XmlTree,
    to: NodeId,
    created: &mut Vec<NodeId>,
) {
    let kids: Vec<NodeId> = src.children(from).collect();
    for child in kids {
        if let Some(tag) = src.tag(child) {
            let tag = tag.to_string();
            let new = dst.append_element(to, tag);
            created.push(new);
            graft_children(src, child, dst, new, created);
        } else if let Some(text) = src.text(child) {
            let text = text.to_string();
            dst.append_text(to, text);
        }
    }
}

/// Relabel-on-exhaustion fallback: relabels the whole document from scratch
/// with `scheme` and replaces `doc`, reporting the true diff (every changed
/// label, every fresh label, every dropped one). This is the honest cost a
/// static scheme pays when a mutation leaves no room for local repair.
pub fn full_relabel<S: Scheme + ?Sized>(
    scheme: &S,
    tree: &XmlTree,
    doc: &mut LabeledDoc<S::Label>,
) -> RelabelReport {
    let fresh = scheme.label(tree);
    let mut report = RelabelReport::new();
    for (node, label) in fresh.iter() {
        match doc.get(node) {
            Some(old) if old == label => {}
            Some(_) => report.relabeled.push(node),
            None => report.inserted.push(node),
        }
    }
    for &node in doc.nodes() {
        if fresh.get(node).is_none() {
            report.removed.push(node);
        }
    }
    *doc = fresh;
    report
}

/// The unified dynamic-labeling facade: one store that owns the tree, the
/// labels, and the scheme state, with a single mutation API for every
/// scheme.
///
/// ```
/// # use xp_labelkit::{LabeledStore, DynamicScheme};
/// # fn demo<S: DynamicScheme>(scheme: S, tree: xp_xmltree::XmlTree)
/// #     -> Result<(), xp_labelkit::DynamicError> {
/// let mut store = LabeledStore::build(scheme, tree)?;
/// let anchor = store.tree().first_child(store.tree().root()).unwrap();
/// let report = store.insert_before(anchor, "item")?;
/// assert_eq!(report.inserted.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LabeledStore<S: DynamicScheme> {
    scheme: S,
    tree: XmlTree,
    doc: LabeledDoc<S::Label>,
    state: S::State,
}

impl<S: DynamicScheme + Clone> Clone for LabeledStore<S>
where
    S::State: Clone,
{
    fn clone(&self) -> Self {
        self.fork()
    }
}

impl<S: DynamicScheme> LabeledStore<S> {
    /// Labels `tree` with `scheme` and takes ownership of everything.
    pub fn build(scheme: S, tree: XmlTree) -> Result<Self, DynamicError> {
        let (doc, state) = scheme.init(&tree)?;
        Ok(LabeledStore { scheme, tree, doc, state })
    }

    /// Reassembles a store from previously captured parts (a persistence
    /// layer's checkpoint). The caller asserts the parts are mutually
    /// consistent — scheme-side validation (e.g. the prime scheme's
    /// label/SC cross-check) happens while constructing `state`.
    pub fn from_parts(scheme: S, tree: XmlTree, doc: LabeledDoc<S::Label>, state: S::State) -> Self {
        LabeledStore { scheme, tree, doc, state }
    }

    /// The scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The document tree.
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The label table.
    pub fn doc(&self) -> &LabeledDoc<S::Label> {
        &self.doc
    }

    /// The scheme-side state (the prime scheme's ordered document — SC table
    /// and all — lives here).
    pub fn state(&self) -> &S::State {
        &self.state
    }

    /// Simultaneous mutable access to every part of the store, for
    /// crate-internal maintenance paths (the shard layer's split / merge /
    /// relabel operations and its batch applier) that must coordinate tree,
    /// labels, and scheme state in one motion.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&S, &mut XmlTree, &mut LabeledDoc<S::Label>, &mut S::State) {
        (&self.scheme, &mut self.tree, &mut self.doc, &mut self.state)
    }

    /// The snapshot API: a deep, fully independent copy of the store —
    /// tree, labels, and scheme state. A fork cut at epoch *e* answers
    /// every query exactly as the original did at *e*, no matter what is
    /// applied to either side afterwards; this is what gives a concurrent
    /// reader an isolated, consistent labeling while the single writer
    /// applies the next epoch (see `xp-server`).
    pub fn fork(&self) -> Self
    where
        S: Clone,
        S::State: Clone,
    {
        LabeledStore {
            scheme: self.scheme.clone(),
            tree: self.tree.clone(),
            doc: self.doc.clone(),
            state: self.state.clone(),
        }
    }

    /// Inserts a new element named `tag` immediately before `anchor`.
    pub fn insert_before(
        &mut self,
        anchor: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        if self.doc.get(anchor).is_none() {
            return Err(DynamicError::UnknownNode(anchor));
        }
        if anchor == self.tree.root() {
            return Err(DynamicError::RootTarget(anchor));
        }
        self.scheme.insert_before(&mut self.tree, &mut self.doc, &mut self.state, anchor, tag)
    }

    /// Inserts a copy of `fragment` at `pos`.
    pub fn insert_subtree(
        &mut self,
        pos: InsertPos,
        fragment: &XmlTree,
    ) -> Result<RelabelReport, DynamicError> {
        let anchor = pos.anchor();
        if self.doc.get(anchor).is_none() {
            return Err(DynamicError::UnknownNode(anchor));
        }
        if let InsertPos::Before(a) = pos {
            if a == self.tree.root() {
                return Err(DynamicError::RootTarget(a));
            }
        }
        self.scheme.insert_subtree(&mut self.tree, &mut self.doc, &mut self.state, pos, fragment)
    }

    /// Wraps `target` in a new parent element named `tag`.
    pub fn insert_parent(
        &mut self,
        target: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        if self.doc.get(target).is_none() {
            return Err(DynamicError::UnknownNode(target));
        }
        if target == self.tree.root() {
            return Err(DynamicError::RootTarget(target));
        }
        self.scheme.insert_parent(&mut self.tree, &mut self.doc, &mut self.state, target, tag)
    }

    /// Deletes `target` and its subtree.
    pub fn delete(&mut self, target: NodeId) -> Result<RelabelReport, DynamicError> {
        if self.doc.get(target).is_none() {
            return Err(DynamicError::UnknownNode(target));
        }
        if target == self.tree.root() {
            return Err(DynamicError::RootTarget(target));
        }
        self.scheme.delete(&mut self.tree, &mut self.doc, &mut self.state, target)
    }

    /// Moves `target`'s subtree to `pos`. See
    /// [`DynamicScheme::move_subtree`] for the node-id caveat.
    pub fn move_subtree(
        &mut self,
        target: NodeId,
        pos: InsertPos,
    ) -> Result<RelabelReport, DynamicError> {
        self.scheme.move_subtree(&mut self.tree, &mut self.doc, &mut self.state, target, pos)
    }

    /// Applies a [`Mutation`], dispatching to the typed methods. Fragment
    /// XML is parsed here.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<RelabelReport, DynamicError> {
        match mutation {
            Mutation::InsertBefore { anchor, tag } => self.insert_before(*anchor, tag),
            Mutation::InsertSubtree { pos, xml } => {
                let fragment = xp_xmltree::parse(xml)
                    .map_err(|e| DynamicError::Fragment(e.to_string()))?;
                self.insert_subtree(*pos, &fragment)
            }
            Mutation::InsertParent { target, tag } => self.insert_parent(*target, tag),
            Mutation::Delete { target } => self.delete(*target),
            Mutation::MoveSubtree { target, pos } => self.move_subtree(*target, *pos),
        }
    }

    /// Document-order comparison of two labeled nodes.
    pub fn doc_cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        self.scheme.doc_cmp(&self.doc, &self.state, a, b)
    }

    /// Every labeled node, sorted into document order by the scheme's own
    /// order machinery — the basis for an order oracle over the store.
    pub fn ordered_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.doc.nodes().to_vec();
        nodes.sort_by(|&a, &b| self.scheme.doc_cmp(&self.doc, &self.state, a, b));
        nodes
    }

    /// Throws the labels and state away and relabels from scratch,
    /// reporting the diff. This is the relabel-from-scratch oracle the
    /// differential tests compare against, and the recovery of last resort.
    pub fn relabel_from_scratch(&mut self) -> Result<RelabelReport, DynamicError> {
        let (fresh, state) = self.scheme.init(&self.tree)?;
        let mut report = RelabelReport::new();
        for (node, label) in fresh.iter() {
            match self.doc.get(node) {
                Some(old) if old == label => {}
                Some(_) => report.relabeled.push(node),
                None => report.inserted.push(node),
            }
        }
        for &node in self.doc.nodes() {
            if fresh.get(node).is_none() {
                report.removed.push(node);
            }
        }
        self.doc = fresh;
        self.state = state;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        // NodeId has no public constructor; manufacture ids through a tree.
        let mut tree = XmlTree::new("r");
        let mut last = tree.root();
        for _ in 0..i {
            last = tree.append_element(tree.root(), "x");
        }
        last
    }

    #[test]
    fn merge_cancels_insert_then_remove() {
        let a = n(1);
        let mut r = RelabelReport::single_insert(a);
        r.merge(RelabelReport { removed: vec![a], ..Default::default() });
        assert!(r.is_empty());
    }

    #[test]
    fn merge_turns_remove_then_insert_into_relabel() {
        let a = n(1);
        let mut r = RelabelReport { removed: vec![a], side_updates: 2, ..Default::default() };
        r.merge(RelabelReport { inserted: vec![a], side_updates: 3, ..Default::default() });
        assert_eq!(r.relabeled, vec![a]);
        assert!(r.removed.is_empty() && r.inserted.is_empty());
        assert_eq!(r.side_updates, 5);
        assert_eq!(r.total_cost(), 1 + 5);
    }

    #[test]
    fn merge_keeps_insert_over_later_relabel() {
        let a = n(1);
        let b = n(2);
        let mut r = RelabelReport::single_insert(a);
        r.merge(RelabelReport { relabeled: vec![a, b], ..Default::default() });
        assert_eq!(r.inserted, vec![a]);
        assert_eq!(r.relabeled, vec![b]);
        assert_eq!(r.labels_touched(), 2);
    }

    #[test]
    fn mutation_bytes_are_pinned_for_both_node_references() {
        // The WAL stores exactly these bytes, and a client's `Apply` blob
        // carries the same ones: a codec change that moves them strands
        // every existing log. Slot 300 takes a two-byte varint.
        let mut tree = XmlTree::new("r");
        for _ in 0..300 {
            tree.append_element(tree.root(), "x");
        }
        let node = |i: usize| tree.node_at(i).unwrap();
        let cases: [(Mutation, Mutation<u64>, &[u8]); 5] = [
            (
                Mutation::InsertBefore { anchor: node(1), tag: "x".into() },
                Mutation::InsertBefore { anchor: 1, tag: "x".into() },
                &[0x00, 0x01, 0x01, b'x'],
            ),
            (
                Mutation::InsertSubtree {
                    pos: InsertPos::LastChildOf(node(3)),
                    xml: "<s/>".into(),
                },
                Mutation::InsertSubtree { pos: InsertPos::LastChildOf(3), xml: "<s/>".into() },
                &[0x01, 0x01, 0x03, 0x04, b'<', b's', b'/', b'>'],
            ),
            (
                Mutation::InsertParent { target: node(300), tag: "w".into() },
                Mutation::InsertParent { target: 300, tag: "w".into() },
                &[0x02, 0xac, 0x02, 0x01, b'w'],
            ),
            (
                Mutation::Delete { target: node(3) },
                Mutation::Delete { target: 3 },
                &[0x03, 0x03],
            ),
            (
                Mutation::MoveSubtree { target: node(300), pos: InsertPos::Before(node(1)) },
                Mutation::MoveSubtree { target: 300, pos: InsertPos::Before(1) },
                &[0x04, 0xac, 0x02, 0x00, 0x01],
            ),
        ];
        for (real, wire, bytes) in cases {
            assert_eq!(real.to_bytes(), bytes, "{real:?}");
            assert_eq!(wire.to_bytes(), bytes, "{wire:?}");
            let mut input = bytes;
            assert_eq!(Mutation::decode(&mut input, &tree).unwrap(), real);
            assert!(input.is_empty(), "{real:?} decodes to its last byte");
        }
    }

    #[test]
    fn copy_and_graft_round_trip_structure_and_text() {
        let src = xp_xmltree::parse("<a><b>hi<c/></b><d/></a>").unwrap();
        let b = src.first_child(src.root()).unwrap();
        let frag = copy_fragment(&src, b);
        assert_eq!(frag.tag(frag.root()), Some("b"));
        assert_eq!(frag.elements().count(), 2, "b and c");

        let mut dst = xp_xmltree::parse("<r><x/></r>").unwrap();
        let x = dst.first_child(dst.root()).unwrap();
        let created = graft_fragment(&mut dst, InsertPos::Before(x), &frag);
        assert_eq!(created.len(), 2);
        assert_eq!(dst.tag(created[0]), Some("b"));
        assert_eq!(dst.first_child(dst.root()), Some(created[0]));
        let text: Vec<&str> = dst.children(created[0]).filter_map(|c| dst.text(c)).collect();
        assert_eq!(text, ["hi"]);
    }
}
