//! Sharded documents: §3.2 subtree decomposition promoted to the unit of
//! scale.
//!
//! A [`ShardedScheme`] wraps any [`DynamicScheme`] and labels a document as
//! a forest of **shards** — decomposition subtrees in the sense of the
//! paper's §3.2. Each shard owns a private *shadow tree* (its subtree with
//! every child-shard root replaced by a leaf **stub** element), a private
//! inner label document, and a private copy of the inner scheme's state
//! (for the prime scheme: its own prime pool and SC chunk set). Because
//! every shard starts its own prime pool from scratch, label magnitude —
//! and therefore §4.2 relabel-storm radius — is bounded by the shard, not
//! the document: the fig16–18 update costs become O(shard).
//!
//! A node's public label is a [`ShardedLabel`]: its shard id, its local
//! label inside the shard's shadow, and the **anchor chain** — the stub
//! labels of every enclosing shard root, shared per-shard behind an `Arc`.
//! The ancestor test composes exactly as in §3.2: same shard ⇒ local test;
//! different shards ⇒ test the would-be ancestor's local label against the
//! stub on the descendant's chain for that shard (absent ⇒ not related).
//! The chain takes the place of §3.2's labeled global tree over the subtree
//! roots; it is per-shard data, so a label's size is its shard id at its
//! own bit width plus its local label.
//!
//! Mutations route to the owning shard and run against its shadow;
//! [`apply_batch_sharded`] fans a batch out across shards via `xp-par`,
//! applying mutations that touch different shards in parallel while
//! preserving sequential semantics (global arena ids, labels, and
//! outcomes are byte-identical to the one-at-a-time facade at every
//! `XP_THREADS`; see its docs for the one relabel-attribution caveat).
//! Shards that outgrow [`ShardPolicy::max_shard_nodes`] are split by
//! [`maintain_shards`] / [`split_shard`].
//!
//! Every mutation and split marks *dirty* each shard it changed — its
//! content or its members' labels, including the child shards a relabeled
//! stub cascades into. [`take_dirty_shards`] drains that set: the
//! persistence layer rewrites exactly those shards' files and the query
//! layer rebuilds exactly those table partitions. A fresh labeling and a
//! recovered checkpoint are glued together by the same
//! [`ShardedScheme::assemble`].

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use xp_xmltree::{NodeId, XmlTree};

use crate::doc::LabeledDoc;
use crate::dynamic::{
    graft_fragment, DynamicError, DynamicScheme, InsertPos, LabeledStore, Mutation, RelabelReport,
};
use crate::scheme::{AncestorTester, LabelOps, Scheme};

// ---------------------------------------------------------------------------
// Shard identity and capacity guard
// ---------------------------------------------------------------------------

/// Identity of one shard (decomposition subtree) within a sharded document.
///
/// Ids are allocated densely from zero (the top shard, which contains the
/// document root, is always shard 0) and are never reused: a purged or
/// merged shard leaves a permanent gap, exactly like the node arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The id as a slot index into per-shard tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Hard ceiling on shard ids: they are stored as `u32`, so at most
/// `u32::MAX` ids exist (the all-ones value is kept as a sentinel and never
/// allocated).
const SHARD_ID_CAPACITY: usize = u32::MAX as usize;

/// A shard id allocation overflowed the `u32` id space.
///
/// Raised instead of silently truncating the id to 32 bits — truncation
/// would alias two different shards and corrupt every cross-shard
/// ancestor test. It reaches callers boxed in [`DynamicError::Scheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCapacityError {
    /// The index that was requested.
    pub next_index: usize,
    /// The capacity it collided with.
    pub capacity: usize,
}

impl fmt::Display for ShardCapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard id overflow: next index {} exceeds capacity {}",
            self.next_index, self.capacity
        )
    }
}

impl std::error::Error for ShardCapacityError {}

/// Allocates the shard id for slot `next_index`, or fails with a typed
/// [`ShardCapacityError`] once the `u32` id space is used up.
fn next_shard_id(next_index: usize) -> Result<ShardId, DynamicError> {
    if next_index < SHARD_ID_CAPACITY {
        Ok(ShardId(next_index as u32))
    } else {
        Err(DynamicError::Scheme(Box::new(ShardCapacityError {
            next_index,
            capacity: SHARD_ID_CAPACITY,
        })))
    }
}

fn internal(msg: &'static str) -> DynamicError {
    #[derive(Debug)]
    struct ShardInternal(&'static str);
    impl fmt::Display for ShardInternal {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "shard layer invariant violated: {}", self.0)
        }
    }
    impl std::error::Error for ShardInternal {}
    DynamicError::Scheme(Box::new(ShardInternal(msg)))
}

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// One link of a [`ShardedLabel`]'s anchor chain: an enclosing shard and
/// the local label of this subtree's stub inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink<L> {
    /// The enclosing shard.
    pub shard: ShardId,
    /// The stub's label inside that shard's shadow tree.
    pub stub: L,
}

/// Public label of a node in a sharded document: shard id, anchor chain,
/// and the inner scheme's label local to the shard's shadow tree.
///
/// The chain lists every enclosing shard from the top shard down to this
/// shard's parent; it is shared per shard behind an `Arc`, so its storage
/// cost amortizes to O(1) per node. `size_bits`, the paper's per-node
/// storage metric, charges the shard id at its own bit width plus the
/// local label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedLabel<L> {
    /// The shard that canonically owns this node.
    pub shard: ShardId,
    /// Stub labels of every enclosing shard root, outermost first.
    pub chain: Arc<Vec<ChainLink<L>>>,
    /// The inner scheme's label inside the shard's shadow tree.
    pub local: L,
    /// `true` iff this node is its shard's root (it then also appears as a
    /// stub in the parent shard).
    pub at_root: bool,
}

impl<L: LabelOps> LabelOps for ShardedLabel<L> {
    fn is_ancestor_of(&self, other: &Self) -> bool {
        if self.shard == other.shard {
            return self.local.is_ancestor_of(&other.local);
        }
        // §3.2 composition: `self` can only be an ancestor if its shard
        // encloses `other`'s, i.e. appears on `other`'s anchor chain; the
        // test then runs locally against the stub recorded there. The stub
        // *is* the chain shard's root seen from `self`'s shard, so
        // ancestor-or-self of the stub means proper ancestor of `other`.
        match other.chain.iter().find(|link| link.shard == self.shard) {
            Some(link) => self.local == link.stub || self.local.is_ancestor_of(&link.stub),
            None => false,
        }
    }

    fn is_parent_of(&self, other: &Self) -> bool {
        if self.shard == other.shard {
            return self.local.is_parent_of(&other.local);
        }
        // Cross-shard parenthood happens exactly at a shard boundary: the
        // child is a shard root and its stub's parent in our shadow is us.
        other.at_root
            && other.chain.last().is_some_and(|link| {
                link.shard == self.shard && self.local.is_parent_of(&link.stub)
            })
    }

    fn size_bits(&self) -> u64 {
        // The shard id at its own bit width plus the local label; the chain
        // is stored once per shard, not per node (DESIGN.md §13.1).
        u64::from(32 - self.shard.0.max(1).leading_zeros()) + self.local.size_bits()
    }

    fn level_hint(&self) -> Option<usize> {
        // Global depth = Σ stub depths along the chain + local depth.
        let mut depth = self.local.level_hint()?;
        for link in self.chain.iter() {
            depth += link.stub.level_hint()?;
        }
        Some(depth)
    }

    fn ancestor_tester(&self) -> AncestorTester<'_, Self> {
        let tester = self.local.ancestor_tester();
        let sid = self.shard;
        let local = &self.local;
        Box::new(move |other: &Self| {
            if other.shard == sid {
                tester(&other.local)
            } else {
                match other.chain.iter().find(|link| link.shard == sid) {
                    Some(link) => *local == link.stub || tester(&link.stub),
                    None => false,
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// How a document is cut into shards and when shards split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Every element whose depth is a positive multiple of `cut_depth`
    /// starts a new shard; `0` keeps the whole document in one shard.
    pub cut_depth: usize,
    /// [`maintain_shards`] splits any shard holding more than this many
    /// member elements; `0` disables splitting.
    pub max_shard_nodes: usize,
}

impl ShardPolicy {
    /// One shard for the whole document (sharding off).
    pub fn single() -> Self {
        ShardPolicy { cut_depth: 0, max_shard_nodes: 0 }
    }

    /// Cut at every depth that is a positive multiple of `d`.
    pub fn at_depth(d: usize) -> Self {
        ShardPolicy { cut_depth: d, max_shard_nodes: 0 }
    }

    /// Pick a cut depth from the document size: small documents stay
    /// unsharded, larger ones cut at depth 2 (the Table-1 shape puts the
    /// bulk of nodes below depth 2, giving wide fan-out of mid-size
    /// shards).
    pub fn auto(node_count: usize) -> Self {
        if node_count < 4096 {
            ShardPolicy::single()
        } else {
            ShardPolicy::at_depth(2)
        }
    }

    /// Sets the split threshold (see [`ShardPolicy::max_shard_nodes`]).
    pub fn with_max_shard_nodes(mut self, n: usize) -> Self {
        self.max_shard_nodes = n;
        self
    }
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy::single()
    }
}

// ---------------------------------------------------------------------------
// Shard cells and sharded state
// ---------------------------------------------------------------------------

/// One shard's private world: shadow tree, inner labels/state, and the
/// id maps stitching shadow arena slots to global arena slots.
pub struct ShardCell<S: DynamicScheme> {
    /// The shard's subtree with each child-shard root copied as a leaf
    /// stub element.
    shadow: XmlTree,
    /// Inner labels over the shadow tree (stubs included).
    local_doc: LabeledDoc<S::Label>,
    /// The inner scheme's private state (prime pool, SC chunks, …).
    state: S::State,
    /// Enclosing shard, `None` for the top shard.
    parent: Option<ShardId>,
    /// Global node that is this shard's root.
    root_global: NodeId,
    /// Global arena index → local shadow node, canonical members only
    /// (the shard root maps to the shadow root; stubs are *not* listed —
    /// a stub's global node belongs to the child shard).
    to_local: HashMap<usize, NodeId>,
    /// Local shadow arena index → global node (stubs map to the child
    /// shard's root, i.e. the same global node as the child's shadow root).
    to_global: Vec<Option<NodeId>>,
    /// Local shadow arena index → child shard, for stub leaves.
    stubs: BTreeMap<usize, ShardId>,
    /// Child shard → its stub node in this shadow (inverse of `stubs`).
    stub_node: BTreeMap<ShardId, NodeId>,
    /// Canonical member count (shard root included, stubs excluded).
    members: usize,
    /// Set by every mutation that touched this shard; drained by
    /// [`ShardedState::take_dirty`] for per-shard checkpointing.
    dirty: bool,
}

impl<S: DynamicScheme> ShardCell<S> {
    /// The shard's shadow tree.
    pub fn shadow(&self) -> &XmlTree {
        &self.shadow
    }

    /// Enclosing shard, `None` for the top shard.
    pub fn parent(&self) -> Option<ShardId> {
        self.parent
    }

    /// Global node that is this shard's root.
    pub fn root_global(&self) -> NodeId {
        self.root_global
    }

    /// Canonical member count (shard root included, stubs excluded).
    pub fn members(&self) -> usize {
        self.members
    }

    /// The local shadow node for a global node, if this shard owns it.
    pub fn local_of(&self, global: NodeId) -> Option<NodeId> {
        self.to_local.get(&global.index()).copied()
    }

    /// The global node a local shadow node stands for (stubs map to the
    /// child shard's root).
    pub fn global_of(&self, local: NodeId) -> Option<NodeId> {
        self.to_global.get(local.index()).copied().flatten()
    }

    /// Child shards and their stub nodes in this shadow.
    pub fn stub_children(&self) -> impl Iterator<Item = (NodeId, ShardId)> + '_ {
        self.stub_node.iter().map(|(&sid, &n)| (n, sid))
    }

    /// `true` iff `local` is a stub leaf standing for a child shard.
    pub fn is_stub(&self, local: NodeId) -> bool {
        self.stubs.contains_key(&local.index())
    }
}

impl<S: DynamicScheme> Clone for ShardCell<S>
where
    S::State: Clone,
{
    fn clone(&self) -> Self {
        ShardCell {
            shadow: self.shadow.clone(),
            local_doc: self.local_doc.clone(),
            state: self.state.clone(),
            parent: self.parent,
            root_global: self.root_global,
            to_local: self.to_local.clone(),
            to_global: self.to_global.clone(),
            stubs: self.stubs.clone(),
            stub_node: self.stub_node.clone(),
            members: self.members,
            dirty: self.dirty,
        }
    }
}

impl<S: DynamicScheme> fmt::Debug for ShardCell<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCell")
            .field("root_global", &self.root_global)
            .field("parent", &self.parent)
            .field("members", &self.members)
            .field("stubs", &self.stubs.len())
            .field("dirty", &self.dirty)
            .finish()
    }
}

const NO_SHARD: u32 = u32::MAX;

/// A sharded document's labels and shard registry, as
/// [`ShardedScheme::assemble`] builds them.
type Assembled<S> = (LabeledDoc<ShardedLabel<<S as Scheme>::Label>>, ShardedState<S>);

/// Scheme state of a sharded document: the shard registry.
pub struct ShardedState<S: DynamicScheme> {
    /// Slot per ever-allocated shard id; purged/merged shards leave `None`.
    shards: Vec<Option<ShardCell<S>>>,
    /// Anchor chain per shard id (empty for the top shard), shared with
    /// every member label via `Arc`.
    chains: Vec<Arc<Vec<ChainLink<S::Label>>>>,
    /// Global arena index → owning shard id (`NO_SHARD` = unlabeled).
    shard_of: Vec<u32>,
}

impl<S: DynamicScheme> ShardedState<S> {
    fn empty() -> Self {
        ShardedState { shards: Vec::new(), chains: Vec::new(), shard_of: Vec::new() }
    }

    /// Number of shard id slots ever allocated (including purged gaps).
    pub fn shard_slots(&self) -> usize {
        self.shards.len()
    }

    /// Ids of the live shards, ascending.
    pub fn live_shards(&self) -> Vec<ShardId> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| ShardId(i as u32)))
            .collect()
    }

    /// Number of live shards.
    pub fn live_count(&self) -> usize {
        self.shards.iter().filter(|c| c.is_some()).count()
    }

    /// The cell for `sid`, if live.
    pub fn cell(&self, sid: ShardId) -> Option<&ShardCell<S>> {
        self.shards.get(sid.index()).and_then(|c| c.as_ref())
    }

    fn cell_mut(&mut self, sid: ShardId) -> Option<&mut ShardCell<S>> {
        self.shards.get_mut(sid.index()).and_then(|c| c.as_mut())
    }

    fn take_cell(&mut self, sid: ShardId) -> Option<ShardCell<S>> {
        self.shards.get_mut(sid.index()).and_then(|c| c.take())
    }

    fn put_cell(&mut self, sid: ShardId, cell: ShardCell<S>) {
        if let Some(slot) = self.shards.get_mut(sid.index()) {
            *slot = Some(cell);
        }
    }

    fn drop_cell(&mut self, sid: ShardId) {
        if let Some(slot) = self.shards.get_mut(sid.index()) {
            *slot = None;
        }
    }

    /// The shard canonically owning a global node.
    pub fn shard_of_node(&self, global: NodeId) -> Option<ShardId> {
        match self.shard_of.get(global.index()) {
            Some(&s) if s != NO_SHARD => Some(ShardId(s)),
            _ => None,
        }
    }

    fn set_shard_of(&mut self, global: NodeId, sid: ShardId) {
        if self.shard_of.len() <= global.index() {
            self.shard_of.resize(global.index() + 1, NO_SHARD);
        }
        self.shard_of[global.index()] = sid.0;
    }

    fn clear_shard_of(&mut self, global: NodeId) {
        if let Some(slot) = self.shard_of.get_mut(global.index()) {
            *slot = NO_SHARD;
        }
    }

    /// The anchor chain of `sid` (empty for the top shard).
    pub fn chain_links(&self, sid: ShardId) -> &[ChainLink<S::Label>] {
        self.chains.get(sid.index()).map_or(&[], |c| c.as_slice())
    }

    fn chain_arc(&self, sid: ShardId) -> Arc<Vec<ChainLink<S::Label>>> {
        self.chains.get(sid.index()).cloned().unwrap_or_default()
    }

    /// Shard ids from the top shard down to `sid`, inclusive.
    pub fn shard_path(&self, sid: ShardId) -> Vec<ShardId> {
        let mut path: Vec<ShardId> =
            self.chain_links(sid).iter().map(|l| l.shard).collect();
        path.push(sid);
        path
    }

    /// Drains the dirty flags: ids of every shard touched since the last
    /// call. This is what per-shard checkpointing keys on.
    pub fn take_dirty(&mut self) -> Vec<ShardId> {
        let mut out = Vec::new();
        for (i, slot) in self.shards.iter_mut().enumerate() {
            if let Some(cell) = slot {
                if cell.dirty {
                    cell.dirty = false;
                    out.push(ShardId(i as u32));
                }
            }
        }
        out
    }

    /// Re-derives the mirror labels of every member of `start`, then
    /// cascades into child shards whose recorded anchor chain no longer
    /// matches (their stub was relabeled, or their chain prefix changed).
    /// Every shard whose member labels it rewrites is marked dirty. Returns
    /// the globals whose mirror label actually changed, sorted by arena
    /// index.
    fn sync_from(
        &mut self,
        doc: &mut LabeledDoc<ShardedLabel<S::Label>>,
        start: ShardId,
    ) -> Vec<NodeId> {
        let mut changed: Vec<NodeId> = Vec::new();
        let mut queue: Vec<ShardId> = vec![start];
        let mut qi = 0;
        while qi < queue.len() {
            let sid = queue[qi];
            qi += 1;
            let parent = match self.cell(sid) {
                Some(c) => c.parent,
                None => continue,
            };
            // 1. Refresh this shard's chain from the parent's current stub.
            if let Some(p) = parent {
                let stub_label = self.cell(p).and_then(|pc| {
                    pc.stub_node
                        .get(&sid)
                        .copied()
                        .and_then(|sn| pc.local_doc.get(sn).cloned())
                });
                if let Some(sl) = stub_label {
                    let mut links: Vec<ChainLink<S::Label>> =
                        self.chain_links(p).to_vec();
                    links.push(ChainLink { shard: p, stub: sl });
                    if self.chain_links(sid) != links.as_slice() {
                        self.chains[sid.index()] = Arc::new(links);
                    }
                }
            }
            // 2. Re-mirror members; collect child shards whose chain is
            //    now stale (pruning subtrees whose stub didn't change).
            let chain = self.chain_arc(sid);
            let mut updates: Vec<(NodeId, ShardedLabel<S::Label>)> = Vec::new();
            let mut kids: Vec<ShardId> = Vec::new();
            if let Some(cell) = self.cell(sid) {
                for (local, llabel) in cell.local_doc.iter() {
                    if let Some(&child) = cell.stubs.get(&local.index()) {
                        let rec = self.chain_links(child);
                        let fresh = rec.len() == chain.len() + 1
                            && rec[..chain.len()] == chain[..]
                            && rec
                                .last()
                                .is_some_and(|l| l.shard == sid && l.stub == *llabel);
                        if !fresh {
                            kids.push(child);
                        }
                    } else if let Some(g) =
                        cell.to_global.get(local.index()).copied().flatten()
                    {
                        let label = ShardedLabel {
                            shard: sid,
                            chain: chain.clone(),
                            local: llabel.clone(),
                            at_root: g == cell.root_global,
                        };
                        if doc.get(g) != Some(&label) {
                            updates.push((g, label));
                        }
                    }
                }
            }
            if !updates.is_empty() {
                if let Some(cell) = self.cell_mut(sid) {
                    cell.dirty = true;
                }
            }
            for (g, l) in updates {
                doc.set(g, l);
                changed.push(g);
            }
            queue.extend(kids);
        }
        changed.sort_by_key(|n| n.index());
        changed.dedup();
        changed
    }
}

impl<S: DynamicScheme> Clone for ShardedState<S>
where
    S::State: Clone,
{
    fn clone(&self) -> Self {
        ShardedState {
            shards: self.shards.clone(),
            chains: self.chains.clone(),
            shard_of: self.shard_of.clone(),
        }
    }
}

impl<S: DynamicScheme> fmt::Debug for ShardedState<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedState")
            .field("live_shards", &self.live_count())
            .field("shard_slots", &self.shards.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Decomposition plan
// ---------------------------------------------------------------------------

struct PreShard {
    shadow: XmlTree,
    parent: Option<ShardId>,
    root_global: NodeId,
    to_global: Vec<Option<NodeId>>,
    stubs: Vec<(NodeId, ShardId)>,
}

/// Records `local ↦ global` in a shadow's local→global map, growing it.
fn set_global(to_global: &mut Vec<Option<NodeId>>, local: NodeId, global: Option<NodeId>) {
    if to_global.len() <= local.index() {
        to_global.resize(local.index() + 1, None);
    }
    to_global[local.index()] = global;
}

/// Pure decomposition: cut `tree` into shadow trees at every depth that is
/// a positive multiple of `cut_depth` (0 ⇒ single shard), mapping ids both
/// ways and recording stub sites. Mutates nothing.
fn decompose_plan(tree: &XmlTree, cut_depth: usize) -> Result<Vec<PreShard>, DynamicError> {
    let root = tree.root();
    let root_tag = tree.tag(root).ok_or_else(|| internal("document root is not an element"))?;
    let mut shards: Vec<PreShard> = vec![PreShard {
        shadow: XmlTree::new(root_tag),
        parent: None,
        root_global: root,
        to_global: Vec::new(),
        stubs: Vec::new(),
    }];
    let top_root = shards[0].shadow.root();
    set_global(&mut shards[0].to_global, top_root, Some(root));

    // Work items: a global node to place, the shard and local parent it
    // lands under, and its global depth. Children are pushed reversed so
    // they pop — and append into the shadow — in document order.
    let mut stack: Vec<(NodeId, ShardId, NodeId, usize)> = tree
        .children(root)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .map(|c| (c, ShardId(0), top_root, 1))
        .collect();

    while let Some((g, sid, lparent, depth)) = stack.pop() {
        if let Some(text) = tree.text(g) {
            shards[sid.index()].shadow.append_text(lparent, text);
            continue;
        }
        let Some(tag) = tree.tag(g) else { continue };
        let cut = cut_depth > 0 && depth % cut_depth == 0;
        let (child_sid, child_local) = if cut {
            // Stub leaf in the current shard, fresh shard for the subtree.
            let new_sid = next_shard_id(shards.len())?;
            let stub = shards[sid.index()].shadow.append_element(lparent, tag);
            set_global(&mut shards[sid.index()].to_global, stub, Some(g));
            shards[sid.index()].stubs.push((stub, new_sid));
            let mut pre = PreShard {
                shadow: XmlTree::new(tag),
                parent: Some(sid),
                root_global: g,
                to_global: Vec::new(),
                stubs: Vec::new(),
            };
            let r = pre.shadow.root();
            set_global(&mut pre.to_global, r, Some(g));
            shards.push(pre);
            (new_sid, r)
        } else {
            let l = shards[sid.index()].shadow.append_element(lparent, tag);
            set_global(&mut shards[sid.index()].to_global, l, Some(g));
            (sid, l)
        };
        let kids: Vec<NodeId> = tree.children(g).collect();
        for c in kids.into_iter().rev() {
            stack.push((c, child_sid, child_local, depth + 1));
        }
    }
    Ok(shards)
}

// ---------------------------------------------------------------------------
// The sharded scheme
// ---------------------------------------------------------------------------

/// A [`DynamicScheme`] adaptor that labels a document as a set of shards,
/// each labeled independently by the inner scheme, and routes every
/// mutation to the shard owning its target.
#[derive(Debug, Clone)]
pub struct ShardedScheme<S> {
    inner: S,
    policy: ShardPolicy,
}

impl<S> ShardedScheme<S> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: S, policy: ShardPolicy) -> Self {
        ShardedScheme { inner, policy }
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The sharding policy.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }
}

impl<S> Scheme for ShardedScheme<S>
where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    type Label = ShardedLabel<S::Label>;

    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn label(&self, tree: &XmlTree) -> LabeledDoc<Self::Label> {
        // Static labeling is init minus the retained state; a capacity
        // overflow (practically unreachable) degrades to an empty doc,
        // matching this method's infallible signature.
        match self.init(tree) {
            Ok((doc, _)) => doc,
            Err(_) => LabeledDoc::new(tree),
        }
    }
}

/// Routes a *sibling-position* reference (insert-before anchor,
/// insert-parent target, delete target): a shard root is represented by
/// its stub in the parent shard, everything else by its own local node.
fn try_route_sibling<S: DynamicScheme>(
    state: &ShardedState<S>,
    node: NodeId,
) -> Option<(ShardId, NodeId)> {
    let sid = state.shard_of_node(node)?;
    let cell = state.cell(sid)?;
    if node == cell.root_global {
        let p = cell.parent?;
        let stub = state.cell(p)?.stub_node.get(&sid).copied()?;
        Some((p, stub))
    } else {
        cell.local_of(node).map(|l| (sid, l))
    }
}

fn route_sibling<S: DynamicScheme>(
    state: &ShardedState<S>,
    node: NodeId,
) -> Result<(ShardId, NodeId), DynamicError> {
    try_route_sibling(state, node)
        .ok_or_else(|| internal("node is not routable to a shard"))
}

/// Routes a *member* reference (last-child-of parent): always the node's
/// own canonical shard (a shard root maps to its shadow root).
fn try_route_member<S: DynamicScheme>(
    state: &ShardedState<S>,
    node: NodeId,
) -> Option<(ShardId, NodeId)> {
    let sid = state.shard_of_node(node)?;
    state.cell(sid)?.local_of(node).map(|l| (sid, l))
}

fn route_pos<S: DynamicScheme>(
    state: &ShardedState<S>,
    pos: InsertPos,
) -> Result<(ShardId, InsertPos), DynamicError> {
    try_route_pos(state, pos).ok_or_else(|| internal("insert position is not routable"))
}

fn try_route_pos<S: DynamicScheme>(
    state: &ShardedState<S>,
    pos: InsertPos,
) -> Option<(ShardId, InsertPos)> {
    match pos {
        InsertPos::Before(anchor) => {
            let (sid, la) = try_route_sibling(state, anchor)?;
            Some((sid, InsertPos::Before(la)))
        }
        InsertPos::LastChildOf(p) => {
            let (sid, lp) = try_route_member(state, p)?;
            Some((sid, InsertPos::LastChildOf(lp)))
        }
    }
}

/// After a successful inner insert: register the created nodes (global ↔
/// local, shard ownership), mirror their labels plus every relabeled
/// member, and cascade through child shards if a stub was relabeled.
/// `created` and `rep.inserted` must align one-to-one (both are fragment
/// preorder — the [`DynamicScheme`] contract).
fn post_op<S: DynamicScheme>(
    state: &mut ShardedState<S>,
    doc: &mut LabeledDoc<ShardedLabel<S::Label>>,
    sid: ShardId,
    created: &[NodeId],
    rep: RelabelReport,
) -> Result<RelabelReport, DynamicError> {
    let mut out = RelabelReport { side_updates: rep.side_updates, ..Default::default() };
    if created.len() != rep.inserted.len() {
        return Err(internal("inner scheme inserted a different node count than the graft"));
    }
    {
        let cell = state
            .cell_mut(sid)
            .ok_or_else(|| internal("mutation routed to a purged shard"))?;
        for (&g, &l) in created.iter().zip(rep.inserted.iter()) {
            cell.to_local.insert(g.index(), l);
            set_global(&mut cell.to_global, l, Some(g));
            cell.members += 1;
        }
        cell.dirty = true;
    }
    for &g in created {
        state.set_shard_of(g, sid);
    }
    let chain = state.chain_arc(sid);
    {
        let cell = state
            .cell(sid)
            .ok_or_else(|| internal("mutation routed to a purged shard"))?;
        for (&g, &l) in created.iter().zip(rep.inserted.iter()) {
            let local = cell
                .local_doc
                .get(l)
                .cloned()
                .ok_or_else(|| internal("inserted node has no local label"))?;
            doc.set(
                g,
                ShardedLabel { shard: sid, chain: chain.clone(), local, at_root: false },
            );
            out.inserted.push(g);
        }
    }
    mirror_relabels(state, doc, sid, &rep.relabeled, &mut out)?;
    Ok(out)
}

/// After a successful inner delete (the global subtree is already
/// detached): unregister every global in the deleted subtree, purge child
/// shards that lived inside it, and mirror surviving relabels.
fn finish_delete<S: DynamicScheme>(
    state: &mut ShardedState<S>,
    doc: &mut LabeledDoc<ShardedLabel<S::Label>>,
    sid: ShardId,
    subtree: Vec<NodeId>,
    rep: RelabelReport,
) -> Result<RelabelReport, DynamicError> {
    let mut out = RelabelReport { side_updates: rep.side_updates, ..Default::default() };
    let mut purged: BTreeSet<ShardId> = BTreeSet::new();
    for &g in &subtree {
        if let Some(s) = state.shard_of_node(g) {
            if s != sid {
                purged.insert(s);
            }
        }
    }
    for &g in &subtree {
        doc.remove(g);
        state.clear_shard_of(g);
    }
    {
        let cell = state
            .cell_mut(sid)
            .ok_or_else(|| internal("delete routed to a purged shard"))?;
        for &g in &subtree {
            if let Some(l) = cell.to_local.remove(&g.index()) {
                if let Some(slot) = cell.to_global.get_mut(l.index()) {
                    *slot = None;
                }
                cell.members = cell.members.saturating_sub(1);
            }
        }
        // Stubs of purged direct children (a stub's global belongs to the
        // child shard, so the loop above never sees it).
        for &child in &purged {
            if let Some(stub_l) = cell.stub_node.remove(&child) {
                cell.stubs.remove(&stub_l.index());
                if let Some(slot) = cell.to_global.get_mut(stub_l.index()) {
                    *slot = None;
                }
            }
        }
        cell.dirty = true;
    }
    for &s in &purged {
        state.drop_cell(s);
    }
    mirror_relabels(state, doc, sid, &rep.relabeled, &mut out)?;
    out.removed = subtree;
    Ok(out)
}

/// Mirrors the inner scheme's relabels of shard `sid`'s members into the
/// global doc and, if one reached a stub, cascades through the shards
/// below it ([`ShardedState::sync_from`]). Each changed global lands in
/// `out.relabeled` once, unless `out` already reports it inserted.
fn mirror_relabels<S: DynamicScheme>(
    state: &mut ShardedState<S>,
    doc: &mut LabeledDoc<ShardedLabel<S::Label>>,
    sid: ShardId,
    relabeled: &[NodeId],
    out: &mut RelabelReport,
) -> Result<(), DynamicError> {
    let chain = state.chain_arc(sid);
    let cell = state.cell(sid).ok_or_else(|| internal("mutation routed to a purged shard"))?;
    let mut cascade = false;
    for &l in relabeled {
        if cell.is_stub(l) {
            cascade = true;
        } else if let (Some(g), Some(ll)) = (cell.global_of(l), cell.local_doc.get(l)) {
            let at_root = g == cell.root_global;
            let local = ll.clone();
            doc.set(g, ShardedLabel { shard: sid, chain: chain.clone(), local, at_root });
            out.relabeled.push(g);
        }
    }
    if cascade {
        for g in state.sync_from(doc, sid) {
            if !out.relabeled.contains(&g) && !out.inserted.contains(&g) {
                out.relabeled.push(g);
            }
        }
    }
    Ok(())
}

impl<S> DynamicScheme for ShardedScheme<S>
where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    type State = ShardedState<S>;

    fn init(
        &self,
        tree: &XmlTree,
    ) -> Result<(LabeledDoc<Self::Label>, Self::State), DynamicError> {
        let pre = decompose_plan(tree, self.policy.cut_depth)?;
        // Label every shard independently — in parallel when the pool is
        // on and no fault spec is armed (armed faults fire on global
        // trigger counters, so parallel interleaving would make the
        // failing shard nondeterministic; sequential keeps it exact) —
        // then glue the parts together exactly as recovery does.
        let inited: Vec<_> =
            if xp_testkit::fault::active() || xp_par::threads() <= 1 {
                pre.iter().map(|p| self.inner.init(&p.shadow)).collect()
            } else {
                xp_par::par_map(&pre, |p| self.inner.init(&p.shadow))
            };
        let mut parts = Vec::with_capacity(pre.len());
        for (i, (p, res)) in pre.into_iter().zip(inited).enumerate() {
            let (local_doc, state) = res?;
            parts.push(ShardPart {
                id: ShardId(i as u32),
                shadow: p.shadow,
                local_doc,
                state,
                parent: p.parent,
                root_global: p.root_global,
                to_global: p.to_global,
                stubs: p.stubs,
            });
        }
        self.assemble(tree, parts)
    }

    fn insert_before(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        anchor: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        let (sid, la) = route_sibling(state, anchor)?;
        let g = tree.create_element(tag);
        tree.insert_before(anchor, g);
        let inner_res = {
            let cell = state
                .cell_mut(sid)
                .ok_or_else(|| internal("mutation routed to a purged shard"))?;
            let ShardCell { shadow, local_doc, state: lstate, .. } = cell;
            self.inner.insert_before(shadow, local_doc, lstate, la, tag)
        };
        match inner_res {
            Ok(rep) => post_op(state, doc, sid, &[g], rep),
            Err(e) => {
                tree.detach(g);
                let _ = state.sync_from(doc, sid);
                Err(e)
            }
        }
    }

    fn insert_subtree(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        pos: InsertPos,
        fragment: &XmlTree,
    ) -> Result<RelabelReport, DynamicError> {
        let (sid, lpos) = route_pos(state, pos)?;
        let created = graft_fragment(tree, pos, fragment);
        let inner_res = {
            let cell = state
                .cell_mut(sid)
                .ok_or_else(|| internal("mutation routed to a purged shard"))?;
            let ShardCell { shadow, local_doc, state: lstate, .. } = cell;
            self.inner.insert_subtree(shadow, local_doc, lstate, lpos, fragment)
        };
        match inner_res {
            Ok(rep) => post_op(state, doc, sid, &created, rep),
            Err(e) => {
                if let Some(&root) = created.first() {
                    tree.detach(root);
                }
                let _ = state.sync_from(doc, sid);
                Err(e)
            }
        }
    }

    fn insert_parent(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        target: NodeId,
        tag: &str,
    ) -> Result<RelabelReport, DynamicError> {
        // The wrapper takes the target's sibling position: for a shard
        // root, that position is the stub's in the parent shard — the
        // wrapper becomes a member there and the stub moves under it,
        // cascading the child shard's chain.
        let (sid, lt) = route_sibling(state, target)?;
        let wrapper = tree.wrap_with_parent(target, tag);
        let inner_res = {
            let cell = state
                .cell_mut(sid)
                .ok_or_else(|| internal("mutation routed to a purged shard"))?;
            let ShardCell { shadow, local_doc, state: lstate, .. } = cell;
            self.inner.insert_parent(shadow, local_doc, lstate, lt, tag)
        };
        match inner_res {
            Ok(rep) => post_op(state, doc, sid, &[wrapper], rep),
            Err(e) => {
                // Unwind the wrap: target back to the wrapper's slot, then
                // drop the wrapper (same recipe as the inner schemes).
                tree.detach(target);
                tree.insert_before(wrapper, target);
                tree.detach(wrapper);
                let _ = state.sync_from(doc, sid);
                Err(e)
            }
        }
    }

    fn delete(
        &self,
        tree: &mut XmlTree,
        doc: &mut LabeledDoc<Self::Label>,
        state: &mut Self::State,
        target: NodeId,
    ) -> Result<RelabelReport, DynamicError> {
        // A shard root deletes as its stub in the parent shard; the child
        // shard (and every shard nested below the target) is then purged
        // wholesale in finish_delete.
        let (sid, lt) = route_sibling(state, target)?;
        let subtree: Vec<NodeId> = tree.element_descendants(target).collect();
        let inner_res = {
            let cell = state
                .cell_mut(sid)
                .ok_or_else(|| internal("mutation routed to a purged shard"))?;
            let ShardCell { shadow, local_doc, state: lstate, .. } = cell;
            self.inner.delete(shadow, local_doc, lstate, lt)
        };
        match inner_res {
            Ok(rep) => {
                tree.detach(target);
                finish_delete(state, doc, sid, subtree, rep)
            }
            Err(e) => {
                // Mirror the inner schemes' convention: a failure *after*
                // the detach committed means the delete stands (labels
                // dropped, side maintenance abandoned at zero cost).
                let detached = state
                    .cell(sid)
                    .is_some_and(|c| c.shadow.parent(lt).is_none());
                if detached {
                    tree.detach(target);
                    finish_delete(state, doc, sid, subtree, RelabelReport::default())
                } else {
                    let _ = state.sync_from(doc, sid);
                    Err(e)
                }
            }
        }
    }

    fn doc_cmp(
        &self,
        _doc: &LabeledDoc<Self::Label>,
        state: &Self::State,
        a: NodeId,
        b: NodeId,
    ) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (Some(sa), Some(sb)) = (state.shard_of_node(a), state.shard_of_node(b)) else {
            return Ordering::Equal;
        };
        // Walk both shard paths to their divergence point; each side is
        // then represented inside the deepest common shard either by its
        // own local node (if it lives there) or by the stub of the next
        // shard down its path.
        let path_a = state.shard_path(sa);
        let path_b = state.shard_path(sb);
        let mut p = 0;
        while p < path_a.len() && p < path_b.len() && path_a[p] == path_b[p] {
            p += 1;
        }
        if p == 0 {
            return Ordering::Equal;
        }
        let (c, ra, rb) = if p == path_a.len() && p == path_b.len() {
            let Some(cell) = state.cell(sa) else { return Ordering::Equal };
            (sa, cell.local_of(a), cell.local_of(b))
        } else if p == path_a.len() {
            let Some(cell) = state.cell(sa) else { return Ordering::Equal };
            (sa, cell.local_of(a), cell.stub_node.get(&path_b[p]).copied())
        } else if p == path_b.len() {
            let Some(cell) = state.cell(sb) else { return Ordering::Equal };
            (sb, cell.stub_node.get(&path_a[p]).copied(), cell.local_of(b))
        } else {
            let common = path_a[p - 1];
            let Some(cell) = state.cell(common) else { return Ordering::Equal };
            (
                common,
                cell.stub_node.get(&path_a[p]).copied(),
                cell.stub_node.get(&path_b[p]).copied(),
            )
        };
        match (state.cell(c), ra, rb) {
            (Some(cell), Some(ra), Some(rb)) => {
                self.inner.doc_cmp(&cell.local_doc, &cell.state, ra, rb)
            }
            _ => Ordering::Equal,
        }
    }
}

// ---------------------------------------------------------------------------
// Shard maintenance: split
// ---------------------------------------------------------------------------

struct RebuiltShadow {
    shadow: XmlTree,
    to_global: Vec<Option<NodeId>>,
    stubs: Vec<(NodeId, ShardId)>,
}

/// Copies `cell.shadow`'s subtree rooted at `from` into a fresh tree.
/// Existing stubs stay stubs (same child shard); if `cut` names a node,
/// that node is copied as a leaf and becomes a stub for `cut`'s shard.
fn rebuild_shadow<S: DynamicScheme>(
    cell: &ShardCell<S>,
    from: NodeId,
    cut: Option<(NodeId, ShardId)>,
) -> Result<RebuiltShadow, DynamicError> {
    let src = &cell.shadow;
    let tag = src.tag(from).ok_or_else(|| internal("shadow root is not an element"))?;
    let mut out = RebuiltShadow {
        shadow: XmlTree::new(tag),
        to_global: Vec::new(),
        stubs: Vec::new(),
    };
    let root = out.shadow.root();
    set_global(&mut out.to_global, root, cell.global_of(from));
    let mut stack: Vec<(NodeId, NodeId)> = src
        .children(from)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .map(|c| (c, root))
        .collect();
    while let Some((old, dst)) = stack.pop() {
        if let Some(text) = src.text(old) {
            out.shadow.append_text(dst, text);
            continue;
        }
        let Some(tag) = src.tag(old) else { continue };
        let l = out.shadow.append_element(dst, tag);
        set_global(&mut out.to_global, l, cell.global_of(old));
        if let Some(&existing_child) = cell.stubs.get(&old.index()) {
            out.stubs.push((l, existing_child));
            continue; // stubs are leaves
        }
        if let Some((v, new_sid)) = cut {
            if old == v {
                out.stubs.push((l, new_sid));
                continue; // the cut subtree moves to the new shard
            }
        }
        let kids: Vec<NodeId> = src.children(old).collect();
        for c in kids.into_iter().rev() {
            stack.push((c, l));
        }
    }
    Ok(out)
}

fn make_cell<S: DynamicScheme>(
    built: RebuiltShadow,
    local_doc: LabeledDoc<S::Label>,
    inner_state: S::State,
    parent: Option<ShardId>,
    root_global: NodeId,
) -> ShardCell<S> {
    let stubs: BTreeMap<usize, ShardId> =
        built.stubs.iter().map(|&(n, s)| (n.index(), s)).collect();
    let stub_node: BTreeMap<ShardId, NodeId> =
        built.stubs.iter().map(|&(n, s)| (s, n)).collect();
    let mut to_local = HashMap::new();
    for (li, slot) in built.to_global.iter().enumerate() {
        if let Some(g) = slot {
            if !stubs.contains_key(&li) {
                if let Some(l) = built.shadow.node_at(li) {
                    to_local.insert(g.index(), l);
                }
            }
        }
    }
    ShardCell {
        shadow: built.shadow,
        local_doc,
        state: inner_state,
        parent,
        root_global,
        members: to_local.len(),
        to_local,
        to_global: built.to_global,
        stubs,
        stub_node,
        dirty: true,
    }
}

/// Splits the heaviest eligible child subtree of `sid` off into a new
/// shard. Atomic: both replacement shards are fully rebuilt and relabeled
/// *before* the registry is touched — an inner-scheme failure leaves the
/// store exactly as it was. Returns `None` if nothing in the shard is
/// worth splitting (no non-stub child with at least two elements).
pub fn split_shard<S>(
    store: &mut LabeledStore<ShardedScheme<S>>,
    sid: ShardId,
) -> Result<Option<RelabelReport>, DynamicError>
where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    let (scheme, _tree, doc, state) = store.parts_mut();
    let Some(cell) = state.cell(sid) else {
        return Err(internal("split of a missing shard"));
    };
    // Victim: the element child of the shadow root owning the most
    // non-stub descendants (at least two, so the split actually moves
    // weight); ties break to document order.
    let root_l = cell.shadow.root();
    let mut victim: Option<(usize, NodeId)> = None;
    for c in cell.shadow.element_children(root_l) {
        if cell.is_stub(c) {
            continue;
        }
        let weight = cell
            .shadow
            .element_descendants(c)
            .filter(|d| !cell.is_stub(*d))
            .count();
        if weight >= 2 && victim.is_none_or(|(w, _)| weight > w) {
            victim = Some((weight, c));
        }
    }
    let Some((_, victim)) = victim else { return Ok(None) };
    let new_sid = next_shard_id(state.shard_slots())?;
    let child_built = rebuild_shadow(cell, victim, None)?;
    let parent_built = rebuild_shadow(cell, root_l, Some((victim, new_sid)))?;
    let victim_global = cell
        .global_of(victim)
        .ok_or_else(|| internal("split victim has no global mapping"))?;
    let (child_doc, child_state) = scheme.inner().init(&child_built.shadow)?;
    let (parent_doc, parent_state) = scheme.inner().init(&parent_built.shadow)?;
    // Commit point — everything below is infallible bookkeeping.
    let old = state
        .take_cell(sid)
        .ok_or_else(|| internal("split of a missing shard"))?;
    let cell_c = make_cell::<S>(parent_built, parent_doc, parent_state, old.parent, old.root_global);
    let cell_t = make_cell::<S>(child_built, child_doc, child_state, Some(sid), victim_global);
    let moved_children: Vec<ShardId> = cell_t.stub_node.keys().copied().collect();
    drop(old);
    state.put_cell(sid, cell_c);
    state.shards.push(Some(cell_t));
    state.chains.push(Arc::new(Vec::new()));
    // Grandchild shards that moved under the new shard re-parent to it.
    for child in moved_children {
        if let Some(c) = state.cell_mut(child) {
            c.parent = Some(new_sid);
        }
    }
    // Ownership transfer for the members that moved.
    let moved_globals: Vec<usize> = state
        .cell(new_sid)
        .map(|c| c.to_local.keys().copied().collect())
        .unwrap_or_default();
    for gi in moved_globals {
        if gi < state.shard_of.len() {
            state.shard_of[gi] = new_sid.0;
        } else {
            state.shard_of.resize(gi + 1, NO_SHARD);
            state.shard_of[gi] = new_sid.0;
        }
    }
    let changed = state.sync_from(doc, sid);
    Ok(Some(RelabelReport { relabeled: changed, ..Default::default() }))
}

/// Splits every shard that outgrew [`ShardPolicy::max_shard_nodes`],
/// repeatedly, until all shards fit (or can't be split further), and
/// returns how many splits it made. Called after each batch and after WAL
/// replay, so split timing never differs between the per-mutation facade
/// and the batch applier. A failed split changed nothing ([`split_shard`]
/// is atomic), so its shard is skipped for this pass like an unsplittable
/// one and retried on the next call: an applied batch never turns into
/// an error here.
pub fn maintain_shards<S>(store: &mut LabeledStore<ShardedScheme<S>>) -> usize
where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    let max = store.scheme().policy().max_shard_nodes;
    let mut splits = 0;
    if max == 0 {
        return splits;
    }
    let mut skipped: BTreeSet<ShardId> = BTreeSet::new();
    loop {
        let next = store
            .state()
            .live_shards()
            .into_iter()
            .find(|&sid| {
                !skipped.contains(&sid)
                    && store.state().cell(sid).is_some_and(|c| c.members > max)
            });
        let Some(sid) = next else { break };
        match split_shard(store, sid) {
            Ok(Some(_)) => splits += 1,
            Ok(None) | Err(_) => {
                skipped.insert(sid);
            }
        }
    }
    splits
}

/// Drains the dirty flags of a sharded store: the shards mutated since the
/// last drain, in ascending id order. The persistence layer checkpoints
/// exactly these shards' segments; the query layer refreshes exactly these
/// partitions.
pub fn take_dirty_shards<S>(store: &mut LabeledStore<ShardedScheme<S>>) -> Vec<ShardId>
where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    let (_, _, _, state) = store.parts_mut();
    state.take_dirty()
}

// ---------------------------------------------------------------------------
// Parallel batch apply
// ---------------------------------------------------------------------------

enum LocalOp {
    InsertBefore { anchor: NodeId, tag: String },
    InsertSubtree { pos: InsertPos, fragment: XmlTree },
    Delete { target: NodeId },
}

enum PlanKind {
    Insert { created: Vec<NodeId> },
    Delete { target: NodeId, subtree: Vec<NodeId> },
}

struct PlanMeta {
    op_idx: usize,
    sid: ShardId,
    kind: PlanKind,
}

enum Decision {
    Planned(PlanMeta, LocalOp),
    Done(Result<RelabelReport, DynamicError>),
    Barrier,
}

/// Classifies one mutation against the current state. Plannable mutations
/// get their *global* tree edit eagerly, in mutation order — so the global
/// arena allocates ids exactly as the sequential facade would — while the
/// shard-local edit is deferred to the parallel workers. `Barrier` means
/// "flush the segment and run this one sequentially" and is always safe.
#[allow(clippy::too_many_arguments)]
fn plan_one<S: DynamicScheme>(
    tree: &mut XmlTree,
    doc: &LabeledDoc<ShardedLabel<S::Label>>,
    state: &ShardedState<S>,
    mutation: &Mutation,
    op_idx: usize,
    pending_deleted: &mut HashSet<usize>,
    seg_created: &mut HashSet<usize>,
) -> Decision {
    match mutation {
        Mutation::InsertBefore { anchor, tag } => {
            if pending_deleted.contains(&anchor.index()) || seg_created.contains(&anchor.index())
            {
                return Decision::Barrier;
            }
            if doc.get(*anchor).is_none() {
                return Decision::Done(Err(DynamicError::UnknownNode(*anchor)));
            }
            if *anchor == tree.root() {
                return Decision::Done(Err(DynamicError::RootTarget(*anchor)));
            }
            let Some((sid, la)) = try_route_sibling(state, *anchor) else {
                return Decision::Barrier;
            };
            let g = tree.create_element(tag.as_str());
            tree.insert_before(*anchor, g);
            seg_created.insert(g.index());
            Decision::Planned(
                PlanMeta { op_idx, sid, kind: PlanKind::Insert { created: vec![g] } },
                LocalOp::InsertBefore { anchor: la, tag: tag.clone() },
            )
        }
        Mutation::InsertSubtree { pos, xml } => {
            let anchor = pos.anchor();
            if pending_deleted.contains(&anchor.index()) || seg_created.contains(&anchor.index())
            {
                return Decision::Barrier;
            }
            // Parse first: the sequential facade reports a bad fragment
            // before looking at the anchor.
            let fragment = match xp_xmltree::parse(xml) {
                Ok(f) => f,
                Err(e) => return Decision::Done(Err(DynamicError::Fragment(e.to_string()))),
            };
            if doc.get(anchor).is_none() {
                return Decision::Done(Err(DynamicError::UnknownNode(anchor)));
            }
            if let InsertPos::Before(a) = pos {
                if *a == tree.root() {
                    return Decision::Done(Err(DynamicError::RootTarget(*a)));
                }
            }
            let Some((sid, lpos)) = try_route_pos(state, *pos) else {
                return Decision::Barrier;
            };
            let created = graft_fragment(tree, *pos, &fragment);
            for &g in &created {
                seg_created.insert(g.index());
            }
            Decision::Planned(
                PlanMeta { op_idx, sid, kind: PlanKind::Insert { created } },
                LocalOp::InsertSubtree { pos: lpos, fragment },
            )
        }
        Mutation::Delete { target } => {
            if pending_deleted.contains(&target.index())
                || seg_created.contains(&target.index())
            {
                return Decision::Barrier;
            }
            if doc.get(*target).is_none() {
                return Decision::Done(Err(DynamicError::UnknownNode(*target)));
            }
            if *target == tree.root() {
                return Decision::Done(Err(DynamicError::RootTarget(*target)));
            }
            let Some(sid) = state.shard_of_node(*target) else { return Decision::Barrier };
            let Some(cell) = state.cell(sid) else { return Decision::Barrier };
            // Shard-root and stub-spanning deletes purge whole shards —
            // run those through the sequential facade.
            if *target == cell.root_global {
                return Decision::Barrier;
            }
            let Some(lt) = cell.local_of(*target) else { return Decision::Barrier };
            if cell.shadow.element_descendants(lt).any(|d| cell.is_stub(d)) {
                return Decision::Barrier;
            }
            let subtree: Vec<NodeId> = tree.element_descendants(*target).collect();
            if subtree.iter().any(|g| pending_deleted.contains(&g.index())) {
                return Decision::Barrier;
            }
            for g in &subtree {
                pending_deleted.insert(g.index());
            }
            Decision::Planned(
                PlanMeta { op_idx, sid, kind: PlanKind::Delete { target: *target, subtree } },
                LocalOp::Delete { target: lt },
            )
        }
        // Parent-wraps can reroute shard roots and moves are composite:
        // both go through the sequential facade.
        Mutation::InsertParent { .. } | Mutation::MoveSubtree { .. } => Decision::Barrier,
    }
}

struct CellWork<S: DynamicScheme> {
    sid: ShardId,
    cell: ShardCell<S>,
    ops: Vec<(usize, LocalOp)>,
}

fn run_cell<S: DynamicScheme>(
    inner: &S,
    work: &mut CellWork<S>,
) -> Vec<(usize, Result<RelabelReport, DynamicError>)> {
    let CellWork { cell, ops, .. } = work;
    let mut out = Vec::with_capacity(ops.len());
    for (pi, op) in ops.drain(..) {
        let ShardCell { shadow, local_doc, state, .. } = &mut *cell;
        let res = match op {
            LocalOp::InsertBefore { anchor, tag } => {
                inner.insert_before(shadow, local_doc, state, anchor, &tag)
            }
            LocalOp::InsertSubtree { pos, fragment } => {
                inner.insert_subtree(shadow, local_doc, state, pos, &fragment)
            }
            LocalOp::Delete { target } => match inner.delete(shadow, local_doc, state, target) {
                Ok(rep) => Ok(rep),
                // Same error-after-detach convention as the facade.
                Err(e) if shadow.parent(target).is_some() => Err(e),
                Err(_) => Ok(RelabelReport::default()),
            },
        };
        out.push((pi, res));
    }
    out
}

fn flush_segment<S>(
    store: &mut LabeledStore<ShardedScheme<S>>,
    metas: Vec<PlanMeta>,
    mut locals: Vec<Option<LocalOp>>,
    out: &mut [Option<Result<RelabelReport, DynamicError>>],
) where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    let (scheme, tree, doc, state) = store.parts_mut();
    let mut groups: BTreeMap<ShardId, Vec<usize>> = BTreeMap::new();
    for (pi, meta) in metas.iter().enumerate() {
        groups.entry(meta.sid).or_default().push(pi);
    }
    let mut results: BTreeMap<usize, Result<RelabelReport, DynamicError>> = BTreeMap::new();
    let mut work: Vec<CellWork<S>> = Vec::new();
    for (sid, pis) in groups {
        match state.take_cell(sid) {
            Some(cell) => {
                let mut ops = Vec::with_capacity(pis.len());
                for pi in pis {
                    match locals.get_mut(pi).and_then(Option::take) {
                        Some(op) => ops.push((pi, op)),
                        None => {
                            results.insert(pi, Err(internal("batch plan lost a local op")));
                        }
                    }
                }
                work.push(CellWork { sid, cell, ops });
            }
            None => {
                for pi in pis {
                    results.insert(pi, Err(internal("batch routed to a purged shard")));
                }
            }
        }
    }
    // Shard-local mutations run concurrently — one worker per cell, no
    // shared state between cells. The plan (and therefore the global
    // arena) is already fixed, so the outcome is identical at any
    // XP_THREADS.
    let inner = scheme.inner();
    let worker_out: Vec<Vec<(usize, Result<RelabelReport, DynamicError>)>> =
        if work.len() <= 1 || xp_par::threads() <= 1 {
            work.iter_mut().map(|w| run_cell(inner, w)).collect()
        } else {
            xp_par::par_map_mut(&mut work, |_, w| run_cell(inner, w))
        };
    for w in work {
        state.put_cell(w.sid, w.cell);
    }
    for (pi, res) in worker_out.into_iter().flatten() {
        results.insert(pi, res);
    }
    // Post phase, strictly in plan (= mutation) order: registration,
    // mirror labels, cascades, and global detaches for deletes.
    for (pi, meta) in metas.into_iter().enumerate() {
        let res = results
            .remove(&pi)
            .unwrap_or_else(|| Err(internal("batch worker lost a result")));
        let outcome = match res {
            Ok(rep) => match meta.kind {
                PlanKind::Insert { ref created } => post_op(state, doc, meta.sid, created, rep),
                PlanKind::Delete { target, subtree } => {
                    tree.detach(target);
                    finish_delete(state, doc, meta.sid, subtree, rep)
                }
            },
            Err(e) => {
                if let PlanKind::Insert { ref created } = meta.kind {
                    if let Some(&root) = created.first() {
                        tree.detach(root);
                    }
                }
                let _ = state.sync_from(doc, meta.sid);
                Err(e)
            }
        };
        if let Some(slot) = out.get_mut(meta.op_idx) {
            *slot = Some(outcome);
        }
    }
}

/// Applies a batch of mutations, fanning independent shard-local work out
/// across `xp-par` workers while preserving sequential semantics: the
/// resulting tree, labels, global arena ids, per-mutation success/failure,
/// `inserted`/`removed` lists, and `side_updates` are identical to applying
/// the batch one mutation at a time through [`LabeledStore::apply`] — and
/// the whole outcome (reports included) is identical at every `XP_THREADS`
/// setting. The one permitted difference from the one-at-a-time facade is
/// relabel *attribution*: a chain cascade posted for an early mutation of
/// the batch can absorb relabels a later mutation of the same batch would
/// otherwise report, so individual `relabeled` lists may shift between ops
/// (the batch-wide union never exceeds the facade's union — net-no-op
/// relabels within one batch are simply not reported). With a fault spec
/// armed the whole batch runs sequentially (the facade path), keeping
/// fault sites deterministic.
pub fn apply_batch_sharded<S>(
    store: &mut LabeledStore<ShardedScheme<S>>,
    mutations: &[Mutation],
) -> Vec<Result<RelabelReport, DynamicError>>
where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    if mutations.len() <= 1 || xp_testkit::fault::active() {
        return mutations.iter().map(|m| store.apply(m)).collect();
    }
    let mut out: Vec<Option<Result<RelabelReport, DynamicError>>> =
        (0..mutations.len()).map(|_| None).collect();
    let mut i = 0;
    while i < mutations.len() {
        let mut metas: Vec<PlanMeta> = Vec::new();
        let mut locals: Vec<Option<LocalOp>> = Vec::new();
        let mut pending_deleted: HashSet<usize> = HashSet::new();
        let mut seg_created: HashSet<usize> = HashSet::new();
        let mut j = i;
        let mut barrier = false;
        while j < mutations.len() {
            let (_, tree, doc, state) = store.parts_mut();
            match plan_one(
                tree,
                doc,
                state,
                &mutations[j],
                j,
                &mut pending_deleted,
                &mut seg_created,
            ) {
                Decision::Planned(meta, op) => {
                    metas.push(meta);
                    locals.push(Some(op));
                    j += 1;
                }
                Decision::Done(res) => {
                    out[j] = Some(res);
                    j += 1;
                }
                Decision::Barrier => {
                    barrier = true;
                    break;
                }
            }
        }
        if !metas.is_empty() {
            flush_segment(store, metas, locals, &mut out);
        }
        if barrier && j < mutations.len() {
            out[j] = Some(store.apply(&mutations[j]));
            j += 1;
        }
        i = j;
    }
    out.into_iter()
        .map(|o| o.unwrap_or_else(|| Err(internal("batch mutation was never applied"))))
        .collect()
}

// ---------------------------------------------------------------------------
// Shard parts: the one assembly path
// ---------------------------------------------------------------------------

/// One shard's pieces: what [`ShardedScheme::init`] labels fresh, what
/// [`ShardCell::export`] clones for a per-shard checkpoint segment in
/// `xp-store`, and what a recovered checkpoint decodes to. A full set plus
/// the global tree becomes a live store through [`ShardedScheme::assemble`].
pub struct ShardPart<S: DynamicScheme> {
    /// The shard's id (gaps allowed — purged ids simply don't appear).
    pub id: ShardId,
    /// The shadow tree.
    pub shadow: XmlTree,
    /// Inner labels over the shadow.
    pub local_doc: LabeledDoc<S::Label>,
    /// Inner scheme state.
    pub state: S::State,
    /// Enclosing shard.
    pub parent: Option<ShardId>,
    /// Global node that is this shard's root.
    pub root_global: NodeId,
    /// Local shadow arena index → global node.
    pub to_global: Vec<Option<NodeId>>,
    /// Stub node → child shard.
    pub stubs: Vec<(NodeId, ShardId)>,
}

impl<S: DynamicScheme> ShardCell<S> {
    /// Clones this cell's persistable pieces for checkpointing.
    pub fn export(&self, id: ShardId) -> ShardPart<S>
    where
        S::State: Clone,
    {
        ShardPart {
            id,
            shadow: self.shadow.clone(),
            local_doc: self.local_doc.clone(),
            state: self.state.clone(),
            parent: self.parent,
            root_global: self.root_global,
            to_global: self.to_global.clone(),
            stubs: self.stubs.iter().filter_map(|(&li, &s)| {
                self.shadow.node_at(li).map(|n| (n, s))
            }).collect(),
        }
    }
}

impl<S> ShardedScheme<S>
where
    S: DynamicScheme + Send + Sync,
    S::State: Send,
{
    /// Assembles a live sharded document from shard parts — freshly
    /// labeled by [`ShardedScheme::init`], or recovered from a checkpoint:
    /// derives the id maps, ownership table, anchor chains, and mirror
    /// labels. `tree` must be the *global* tree the parts were cut from.
    /// The assembled shards start clean (not dirty), except one whose
    /// recorded parent disagrees with the stub that names it.
    pub fn assemble(
        &self,
        tree: &XmlTree,
        parts: Vec<ShardPart<S>>,
    ) -> Result<Assembled<S>, DynamicError> {
        let slots = parts.iter().map(|p| p.id.index() + 1).max().unwrap_or(0);
        let mut state = ShardedState::empty();
        state.shards.resize_with(slots, || None);
        state.chains.resize_with(slots, || Arc::new(Vec::new()));
        for part in parts {
            let built =
                RebuiltShadow { shadow: part.shadow, to_global: part.to_global, stubs: part.stubs };
            let mut cell =
                make_cell::<S>(built, part.local_doc, part.state, part.parent, part.root_global);
            cell.dirty = false;
            state.shards[part.id.index()] = Some(cell);
        }
        // Anchor chains, parents before children: walk down the stubs from
        // the top shard. Ids do not order them, because a split re-parents
        // existing shards under a fresh, higher id. Every live shard must
        // be reached exactly once.
        let live = state.live_count();
        let mut order: Vec<ShardId> = state
            .live_shards()
            .into_iter()
            .filter(|&sid| state.cell(sid).is_some_and(|c| c.parent.is_none()))
            .collect();
        let mut qi = 0;
        while qi < order.len() && order.len() <= live {
            let p = order[qi];
            qi += 1;
            let Some(pc) = state.cell(p) else { break };
            let mut kids = Vec::with_capacity(pc.stub_node.len());
            for (&child, &stub_l) in &pc.stub_node {
                let stub = pc
                    .local_doc
                    .get(stub_l)
                    .cloned()
                    .ok_or_else(|| internal("shard parts lost a stub label"))?;
                let mut links = state.chain_links(p).to_vec();
                links.push(ChainLink { shard: p, stub });
                kids.push((child, Arc::new(links)));
            }
            for (child, chain) in kids {
                if let Some(slot) = state.chains.get_mut(child.index()) {
                    *slot = chain;
                }
                // The stub decides the parent. A checkpoint written while
                // cascades did not dirty a split's re-parented shards can
                // record a stale one; fix it and let the next checkpoint
                // rewrite that shard.
                if let Some(c) = state.cell_mut(child).filter(|c| c.parent != Some(p)) {
                    c.parent = Some(p);
                    c.dirty = true;
                }
                order.push(child);
            }
        }
        if order.len() != live || order.iter().any(|&sid| state.cell(sid).is_none()) {
            return Err(internal("shard parts do not form one tree of shards"));
        }
        for i in 0..slots {
            let sid = ShardId(i as u32);
            let globals: Vec<NodeId> = match state.cell(sid) {
                Some(c) => c.to_local.keys().filter_map(|&gi| tree.node_at(gi)).collect(),
                None => continue,
            };
            for g in globals {
                state.set_shard_of(g, sid);
            }
        }
        // The mirror doc, in global document order.
        let mut doc = LabeledDoc::new(tree);
        for g in tree.elements() {
            let sid = state
                .shard_of_node(g)
                .ok_or_else(|| internal("shard parts miss an element"))?;
            let chain = state.chain_arc(sid);
            let cell = state.cell(sid).ok_or_else(|| internal("shard parts lost a shard"))?;
            let l = cell
                .local_of(g)
                .ok_or_else(|| internal("shard parts lost a node mapping"))?;
            let local = cell
                .local_doc
                .get(l)
                .cloned()
                .ok_or_else(|| internal("inner scheme left a node unlabeled"))?;
            doc.set(
                g,
                ShardedLabel { shard: sid, chain, local, at_root: g == cell.root_global },
            );
        }
        Ok((doc, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_testkit::rng::{SeedableRng, Xoshiro256};

    // -- A toy Dewey-path inner scheme ------------------------------------
    //
    // labelkit cannot depend on xp-prime (cycle), so the shard layer is
    // exercised with a deliberately relabel-happy inner scheme: labels are
    // element-child-index paths, every structural edit recomputes all of
    // them, and document order is lexicographic path order. Sibling shifts
    // relabel whole suffixes — which is exactly what stresses the mirror
    // mapping, the stub cascade, and the report plumbing.

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Dewey(Vec<u32>);

    impl LabelOps for Dewey {
        fn is_ancestor_of(&self, other: &Self) -> bool {
            other.0.len() > self.0.len() && other.0[..self.0.len()] == self.0[..]
        }
        fn size_bits(&self) -> u64 {
            (self.0.len() as u64) * 32
        }
        fn level_hint(&self) -> Option<usize> {
            Some(self.0.len())
        }
    }

    #[derive(Debug, Clone)]
    struct DeweyScheme;

    fn assign(tree: &XmlTree) -> LabeledDoc<Dewey> {
        let mut doc = LabeledDoc::new(tree);
        let root = tree.root();
        doc.set(root, Dewey(Vec::new()));
        let mut stack: Vec<(NodeId, Vec<u32>)> = vec![(root, Vec::new())];
        while let Some((n, path)) = stack.pop() {
            let kids: Vec<NodeId> = tree.element_children(n).collect();
            for (i, &c) in kids.iter().enumerate().rev() {
                let mut p = path.clone();
                p.push(i as u32);
                doc.set(c, Dewey(p.clone()));
                stack.push((c, p));
            }
        }
        // Re-set in preorder so insertion order is deterministic.
        let mut ordered = LabeledDoc::new(tree);
        for e in tree.elements() {
            if let Some(l) = doc.get(e) {
                ordered.set(e, l.clone());
            }
        }
        ordered
    }

    fn diff_relabel(
        tree: &XmlTree,
        doc: &mut LabeledDoc<Dewey>,
        created: &[NodeId],
    ) -> RelabelReport {
        let fresh = assign(tree);
        let mut rep = RelabelReport { inserted: created.to_vec(), ..Default::default() };
        for (n, l) in fresh.iter() {
            if doc.get(n) != Some(l) {
                doc.set(n, l.clone());
                if !created.contains(&n) {
                    rep.relabeled.push(n);
                }
            }
        }
        rep
    }

    impl Scheme for DeweyScheme {
        type Label = Dewey;
        fn name(&self) -> &'static str {
            "dewey-toy"
        }
        fn label(&self, tree: &XmlTree) -> LabeledDoc<Dewey> {
            assign(tree)
        }
    }

    impl DynamicScheme for DeweyScheme {
        type State = ();
        fn init(&self, tree: &XmlTree) -> Result<(LabeledDoc<Dewey>, ()), DynamicError> {
            Ok((assign(tree), ()))
        }
        fn insert_before(
            &self,
            tree: &mut XmlTree,
            doc: &mut LabeledDoc<Dewey>,
            _state: &mut (),
            anchor: NodeId,
            tag: &str,
        ) -> Result<RelabelReport, DynamicError> {
            let n = tree.create_element(tag);
            tree.insert_before(anchor, n);
            Ok(diff_relabel(tree, doc, &[n]))
        }
        fn insert_subtree(
            &self,
            tree: &mut XmlTree,
            doc: &mut LabeledDoc<Dewey>,
            _state: &mut (),
            pos: InsertPos,
            fragment: &XmlTree,
        ) -> Result<RelabelReport, DynamicError> {
            let created = graft_fragment(tree, pos, fragment);
            Ok(diff_relabel(tree, doc, &created))
        }
        fn insert_parent(
            &self,
            tree: &mut XmlTree,
            doc: &mut LabeledDoc<Dewey>,
            _state: &mut (),
            target: NodeId,
            tag: &str,
        ) -> Result<RelabelReport, DynamicError> {
            let w = tree.wrap_with_parent(target, tag);
            Ok(diff_relabel(tree, doc, &[w]))
        }
        fn delete(
            &self,
            tree: &mut XmlTree,
            doc: &mut LabeledDoc<Dewey>,
            _state: &mut (),
            target: NodeId,
        ) -> Result<RelabelReport, DynamicError> {
            let subtree: Vec<NodeId> = tree.element_descendants(target).collect();
            tree.detach(target);
            for &g in &subtree {
                doc.remove(g);
            }
            let mut rep = diff_relabel(tree, doc, &[]);
            rep.removed = subtree;
            Ok(rep)
        }
        fn doc_cmp(
            &self,
            doc: &LabeledDoc<Dewey>,
            _state: &(),
            a: NodeId,
            b: NodeId,
        ) -> Ordering {
            match (doc.get(a), doc.get(b)) {
                (Some(x), Some(y)) => x.0.cmp(&y.0),
                _ => Ordering::Equal,
            }
        }
    }

    // -- helpers ----------------------------------------------------------

    fn random_tree(seed: u64, nodes: usize) -> XmlTree {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut tree = XmlTree::new("r");
        let mut elems = vec![tree.root()];
        for i in 0..nodes {
            let parent = elems[(rng.next_u64() as usize) % elems.len()];
            let tag = format!("t{}", i % 5);
            let e = tree.append_element(parent, tag);
            if rng.next_u64() % 4 == 0 {
                tree.append_text(parent, "x");
            }
            elems.push(e);
        }
        tree
    }

    fn sharded(
        tree: &XmlTree,
        cut: usize,
    ) -> LabeledStore<ShardedScheme<DeweyScheme>> {
        let scheme = ShardedScheme::new(DeweyScheme, ShardPolicy::at_depth(cut));
        match LabeledStore::build(scheme, tree.clone()) {
            Ok(s) => s,
            Err(e) => panic!("sharded build failed: {e}"),
        }
    }

    fn unsharded(tree: &XmlTree) -> LabeledStore<DeweyScheme> {
        match LabeledStore::build(DeweyScheme, tree.clone()) {
            Ok(s) => s,
            Err(e) => panic!("unsharded build failed: {e}"),
        }
    }

    /// Every pairwise relation and the total order must agree with the
    /// tree's ground truth.
    fn check_against_tree(store: &LabeledStore<ShardedScheme<DeweyScheme>>) {
        let tree = store.tree();
        let elems: Vec<NodeId> = tree.elements().collect();
        for &a in &elems {
            let la = match store.doc().get(a) {
                Some(l) => l,
                None => panic!("{a:?} unlabeled"),
            };
            if let Some(hint) = la.level_hint() {
                assert_eq!(hint, tree.depth(a), "level_hint of {a:?}");
            }
            for &b in &elems {
                let lb = match store.doc().get(b) {
                    Some(l) => l,
                    None => panic!("{b:?} unlabeled"),
                };
                let truth = a != b && tree.is_ancestor(a, b);
                assert_eq!(la.is_ancestor_of(lb), truth, "ancestor({a:?},{b:?})");
                let tester = la.ancestor_tester();
                assert_eq!(tester(lb), truth, "tester({a:?},{b:?})");
                assert_eq!(
                    la.is_parent_of(lb),
                    tree.parent(b) == Some(a),
                    "parent({a:?},{b:?})"
                );
            }
        }
        // Total document order == preorder.
        let ordered = store.ordered_nodes();
        assert_eq!(ordered, elems, "ordered_nodes is preorder");
    }

    fn trees_equal(a: &XmlTree, b: &XmlTree) -> bool {
        fn sig(t: &XmlTree, n: NodeId, out: &mut Vec<String>) {
            if let Some(tag) = t.tag(n) {
                out.push(format!("<{tag}"));
                for c in t.children(n) {
                    sig(t, c, out);
                }
                out.push(">".into());
            } else if let Some(text) = t.text(n) {
                out.push(format!("[{text}]"));
            }
        }
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        sig(a, a.root(), &mut sa);
        sig(b, b.root(), &mut sb);
        sa == sb
    }

    // -- tests ------------------------------------------------------------

    #[test]
    fn capacity_check_guards_the_boundary() {
        assert_eq!(next_shard_id(0).unwrap(), ShardId(0));
        let last = u32::MAX as usize - 1;
        assert_eq!(next_shard_id(last).unwrap(), ShardId(u32::MAX - 1));
        // The all-ones id is the sentinel: refused with the typed error,
        // which callers downcast out of `DynamicError::Scheme`.
        let err = match next_shard_id(u32::MAX as usize) {
            Err(DynamicError::Scheme(e)) => e,
            other => panic!("expected a capacity error, got {other:?}"),
        };
        let cap = u32::MAX as usize;
        assert_eq!(
            err.downcast_ref::<ShardCapacityError>(),
            Some(&ShardCapacityError { next_index: cap, capacity: cap })
        );
        assert!(err.to_string().contains("overflow"), "got: {err}");
    }

    #[test]
    fn subtree_capacity_overflow_is_a_typed_error_not_truncation() {
        // Indices past the id space would wrap onto live ids under `as u32`
        // (2^32 onto the root shard's 0, 2^32 + 1 onto 1). Each is refused
        // with the typed error, which keeps the index untruncated.
        let cap = SHARD_ID_CAPACITY;
        let past = [cap.checked_add(1), cap.checked_add(2), Some(usize::MAX)];
        for next_index in past.into_iter().flatten() {
            match next_shard_id(next_index) {
                Err(DynamicError::Scheme(e)) => {
                    assert_eq!(
                        e.downcast_ref::<ShardCapacityError>(),
                        Some(&ShardCapacityError { next_index, capacity: cap })
                    );
                    assert!(e.to_string().contains("capacity"), "got: {e}");
                }
                other => panic!("index {next_index}: expected a capacity error, got {other:?}"),
            }
        }
    }

    #[test]
    fn size_charges_the_shard_id_at_its_bit_width() {
        let bits = |shard: u32| {
            let label = ShardedLabel {
                shard: ShardId(shard),
                chain: Arc::new(vec![ChainLink { shard: ShardId(0), stub: Dewey(vec![0; 9]) }]),
                local: Dewey(vec![0]),
                at_root: false,
            };
            label.size_bits() - 32
        };
        assert_eq!([bits(0), bits(1), bits(2), bits(3), bits(4)], [1, 1, 2, 2, 3]);
        assert_eq!([bits(255), bits(256), bits(u32::MAX - 1)], [8, 9, 32]);
    }

    #[test]
    fn sharded_labels_match_tree_truth_at_every_cut_depth() {
        for seed in [1u64, 7, 42] {
            let tree = random_tree(seed, 60);
            for cut in [0usize, 1, 2, 3] {
                let store = sharded(&tree, cut);
                if cut == 0 {
                    assert_eq!(store.state().live_count(), 1, "cut 0 is one shard");
                } else if cut == 1 {
                    assert!(store.state().live_count() > 1, "cut 1 must shard");
                }
                check_against_tree(&store);
            }
        }
    }

    #[test]
    fn mutations_stay_lockstep_with_unsharded_oracle() {
        let tree = random_tree(11, 40);
        for cut in [1usize, 2, 3] {
            let mut s = sharded(&tree, cut);
            let mut o = unsharded(&tree);
            let mut rng = Xoshiro256::seed_from_u64(99);
            for step in 0..60 {
                let elems: Vec<NodeId> = o.tree().elements().collect();
                let pick = elems[(rng.next_u64() as usize) % elems.len()];
                let m = match rng.next_u64() % 5 {
                    0 => Mutation::InsertBefore { anchor: pick, tag: "n".into() },
                    1 => Mutation::InsertSubtree {
                        pos: InsertPos::LastChildOf(pick),
                        xml: "<f><g/>txt<h><i/></h></f>".into(),
                    },
                    2 => Mutation::InsertParent { target: pick, tag: "w".into() },
                    3 => Mutation::Delete { target: pick },
                    _ => Mutation::InsertSubtree {
                        pos: InsertPos::Before(pick),
                        xml: "<f/>".into(),
                    },
                };
                let rs = s.apply(&m);
                let ro = o.apply(&m);
                assert_eq!(rs.is_ok(), ro.is_ok(), "cut {cut} step {step} {m:?}");
                if let (Ok(rs), Ok(ro)) = (&rs, &ro) {
                    assert_eq!(rs.inserted, ro.inserted, "cut {cut} step {step}");
                    assert_eq!(rs.removed, ro.removed, "cut {cut} step {step}");
                }
                assert!(
                    trees_equal(s.tree(), o.tree()),
                    "cut {cut} step {step}: trees diverged"
                );
            }
            check_against_tree(&s);
            assert_eq!(s.ordered_nodes(), o.ordered_nodes(), "cut {cut}: order");
        }
    }

    #[test]
    fn mutation_in_one_shard_leaves_sibling_shards_untouched() {
        // r -> a,b ; cut at depth 1 puts a and b in separate shards.
        let mut tree = XmlTree::new("r");
        let a = tree.append_element(tree.root(), "a");
        let b = tree.append_element(tree.root(), "b");
        for _ in 0..10 {
            let x = tree.append_element(a, "x");
            tree.append_element(x, "y");
            let x = tree.append_element(b, "x");
            tree.append_element(x, "y");
        }
        let mut s = sharded(&tree, 1);
        let b_members: Vec<(NodeId, ShardedLabel<Dewey>)> = s
            .tree()
            .element_descendants(b)
            .filter_map(|n| s.doc().get(n).map(|l| (n, l.clone())))
            .collect();
        assert!(!b_members.is_empty());
        // Front-insert storm inside a's shard.
        let first = match s.tree().element_children(a).next() {
            Some(n) => n,
            None => panic!("a has children"),
        };
        let rep = match s.insert_before(first, "z") {
            Ok(r) => r,
            Err(e) => panic!("insert failed: {e}"),
        };
        // O(shard): everything touched lives under a (or is a itself).
        for &n in rep.relabeled.iter().chain(rep.inserted.iter()) {
            assert!(
                n == a || s.tree().is_ancestor(a, n),
                "touched {n:?} outside the mutated shard"
            );
        }
        for (n, before) in b_members {
            assert_eq!(s.doc().get(n), Some(&before), "b-shard label {n:?} changed");
        }
        check_against_tree(&s);
    }

    fn export_all(store: &LabeledStore<ShardedScheme<DeweyScheme>>) -> Vec<ShardPart<DeweyScheme>> {
        let state = store.state();
        let live = state.live_shards().into_iter();
        live.filter_map(|sid| state.cell(sid).map(|c| c.export(sid))).collect()
    }

    /// Exports every live shard and reassembles them against the same
    /// tree, as recovery does: labels and topology must come back intact.
    fn assert_reassembles(store: &LabeledStore<ShardedScheme<DeweyScheme>>) {
        let live = store.state().live_shards();
        let (doc, state) = match store.scheme().assemble(store.tree(), export_all(store)) {
            Ok(x) => x,
            Err(e) => panic!("assemble failed: {e}"),
        };
        for n in store.tree().elements() {
            assert_eq!(store.doc().get(n), doc.get(n), "label of {n:?}");
        }
        assert_eq!(state.live_shards(), live);
        for sid in live {
            let (a, b) = match (store.state().cell(sid), state.cell(sid)) {
                (Some(a), Some(b)) => (a, b),
                _ => panic!("{sid} lost in roundtrip"),
            };
            assert_eq!(a.members(), b.members(), "{sid} members");
            assert_eq!(a.root_global(), b.root_global(), "{sid} root");
            assert_eq!(a.parent(), b.parent(), "{sid} parent");
        }
    }

    #[test]
    fn split_preserves_truth() {
        // A deep spine with a side branch per level: at cut depth 3 each
        // shadow spans three levels, so the top shard has a shadow-root
        // child with ≥ 2 non-stub descendants — i.e. it is splittable.
        let mut tree = XmlTree::new("r");
        let mut cur = tree.root();
        for _ in 0..9 {
            let next = tree.append_element(cur, "c");
            let side = tree.append_element(cur, "s");
            tree.append_element(side, "t");
            cur = next;
        }
        let mut s = sharded(&tree, 3);
        assert!(s.state().live_count() > 1, "deep tree must shard at cut 3");
        let before_order = s.ordered_nodes();
        // Split the heaviest shard (whichever splits first).
        let mut split_id = None;
        for sid in s.state().live_shards() {
            match split_shard(&mut s, sid) {
                Ok(Some(_)) => {
                    split_id = Some(sid);
                    break;
                }
                Ok(None) => continue,
                Err(e) => panic!("split failed: {e}"),
            }
        }
        let split_id = match split_id {
            Some(i) => i,
            None => panic!("no shard was splittable"),
        };
        check_against_tree(&s);
        assert_eq!(s.ordered_nodes(), before_order, "split must not reorder");
        // The new shard is the last slot, under the split shard, and it
        // adopted the stubs below the victim: shards with lower ids now
        // hang below it.
        let new_sid = ShardId((s.state().shard_slots() - 1) as u32);
        let new_cell = match s.state().cell(new_sid) {
            Some(c) => c,
            None => panic!("the split's new shard is missing"),
        };
        assert_eq!(new_cell.parent(), Some(split_id));
        let adopted: Vec<ShardId> = new_cell.stub_children().map(|(_, child)| child).collect();
        assert!(
            adopted.iter().any(|&child| child < new_sid),
            "the victim must carry stubs of older shards"
        );
        // Recovery assembles the split topology back to the same labels.
        assert_reassembles(&s);
        // A checkpoint that never rewrote the adopted shards still records
        // their old parent: assembly takes the parent from the stub and
        // marks those shards dirty, so the next checkpoint rewrites them.
        let mut parts = export_all(&s);
        for part in parts.iter_mut().filter(|p| adopted.contains(&p.id)) {
            part.parent = Some(split_id);
        }
        let (doc, mut state) = match s.scheme().assemble(s.tree(), parts) {
            Ok(x) => x,
            Err(e) => panic!("assemble of stale parents failed: {e}"),
        };
        for n in s.tree().elements() {
            assert_eq!(s.doc().get(n), doc.get(n), "label of {n:?}");
        }
        for &child in &adopted {
            assert_eq!(state.cell(child).and_then(|c| c.parent()), Some(new_sid));
        }
        assert_eq!(state.take_dirty(), adopted);
    }

    #[test]
    fn maintain_shards_enforces_max_members() {
        // Cut depth 3: a shadow then spans three levels, so a shadow-root
        // child can own two or more members and a split has weight to move.
        let tree = random_tree(21, 80);
        let scheme =
            ShardedScheme::new(DeweyScheme, ShardPolicy::at_depth(3).with_max_shard_nodes(8));
        let mut s = match LabeledStore::build(scheme, tree.clone()) {
            Ok(s) => s,
            Err(e) => panic!("build failed: {e}"),
        };
        assert!(maintain_shards(&mut s) > 0, "the bound must force splits");
        for sid in s.state().live_shards() {
            let cell = match s.state().cell(sid) {
                Some(c) => c,
                None => continue,
            };
            // Either within bounds or genuinely unsplittable (no child
            // subtree with ≥ 2 members).
            if cell.members() > 8 {
                let root = cell.shadow().root();
                let splittable = cell.shadow().element_children(root).any(|c| {
                    !cell.is_stub(c)
                        && cell
                            .shadow()
                            .element_descendants(c)
                            .filter(|d| !cell.is_stub(*d))
                            .count()
                            >= 2
                });
                assert!(!splittable, "{sid} oversized but splittable");
            }
        }
        check_against_tree(&s);
    }

    /// The batch contract: every per-op outcome (`Ok`/`Err`), `inserted`,
    /// `removed`, and `side_updates` match the one-at-a-time facade, the
    /// final tree/labels/order are byte-identical, and the full report
    /// vector (relabel attribution included) is identical at every thread
    /// count. Relabel *attribution* may shift between ops of one batch
    /// relative to the facade, so for `relabeled` we assert the batch-wide
    /// union is a subset of the facade's union (the batch never invents a
    /// relabel, it may only skip net-no-op ones).
    #[test]
    fn batch_apply_matches_facade_and_is_thread_deterministic() {
        let tree = random_tree(3, 40);
        let mut seq_store = sharded(&tree, 2);
        let thread_counts = [1usize, 2, 8];
        let mut batch_stores: Vec<LabeledStore<ShardedScheme<DeweyScheme>>> =
            thread_counts.iter().map(|_| sharded(&tree, 2)).collect();
        let mut rng = Xoshiro256::seed_from_u64(1234);
        for round in 0..6 {
            let elems: Vec<NodeId> = seq_store.tree().elements().collect();
            let mut muts = Vec::new();
            for _ in 0..8 {
                let pick = elems[(rng.next_u64() as usize) % elems.len()];
                muts.push(match rng.next_u64() % 6 {
                    0 | 1 => Mutation::InsertBefore { anchor: pick, tag: "n".into() },
                    2 => Mutation::InsertSubtree {
                        pos: InsertPos::LastChildOf(pick),
                        xml: "<f><g/><h/></f>".into(),
                    },
                    3 => Mutation::Delete { target: pick },
                    4 => Mutation::InsertParent { target: pick, tag: "w".into() },
                    _ => Mutation::InsertSubtree {
                        pos: InsertPos::Before(pick),
                        xml: "<f>t</f>".into(),
                    },
                });
            }
            let seq_res: Vec<_> = muts.iter().map(|m| seq_store.apply(m)).collect();
            let batch_res: Vec<Vec<Result<RelabelReport, DynamicError>>> = thread_counts
                .iter()
                .zip(batch_stores.iter_mut())
                .map(|(&t, store)| xp_par::with_threads(t, || apply_batch_sharded(store, &muts)))
                .collect();
            // Determinism across thread counts: full reports byte-identical.
            for (i, res) in batch_res.iter().enumerate().skip(1) {
                for (k, (a, b)) in batch_res[0].iter().zip(res.iter()).enumerate() {
                    match (a, b) {
                        (Ok(a), Ok(b)) => assert_eq!(
                            a, b,
                            "threads {} vs {} round {round} op {k}",
                            thread_counts[0], thread_counts[i]
                        ),
                        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                        _ => panic!("round {round} op {k}: outcome varies by threads"),
                    }
                }
            }
            // Against the facade: outcomes, inserted, removed, side_updates
            // per op; relabeled union is a subset of the facade's union.
            let mut seq_union: Vec<NodeId> = Vec::new();
            let mut batch_union: Vec<NodeId> = Vec::new();
            for (k, (br, sr)) in batch_res[0].iter().zip(seq_res.iter()).enumerate() {
                match (br, sr) {
                    (Ok(b), Ok(s)) => {
                        assert_eq!(b.inserted, s.inserted, "round {round} op {k}");
                        assert_eq!(b.removed, s.removed, "round {round} op {k}");
                        assert_eq!(b.side_updates, s.side_updates, "round {round} op {k}");
                        batch_union.extend(b.relabeled.iter().copied());
                        seq_union.extend(s.relabeled.iter().copied());
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!("round {round} op {k}: {br:?} vs {sr:?}"),
                }
            }
            seq_union.sort();
            seq_union.dedup();
            batch_union.sort();
            batch_union.dedup();
            for n in &batch_union {
                assert!(
                    seq_union.contains(n),
                    "round {round}: batch relabeled {n:?} but the facade never did"
                );
            }
            // Final state byte-identical to the facade for every store.
            for (t, store) in thread_counts.iter().zip(batch_stores.iter()) {
                assert!(
                    trees_equal(store.tree(), seq_store.tree()),
                    "threads {t} round {round}: trees diverged"
                );
                for n in store.tree().elements() {
                    assert_eq!(
                        store.doc().get(n),
                        seq_store.doc().get(n),
                        "threads {t} round {round}: label of {n:?}"
                    );
                }
                assert_eq!(
                    store.ordered_nodes(),
                    seq_store.ordered_nodes(),
                    "threads {t} round {round}: order diverged"
                );
            }
        }
        for store in &batch_stores {
            check_against_tree(store);
        }
    }

    #[test]
    fn dirty_tracking_names_exactly_the_touched_shards() {
        let mut tree = XmlTree::new("r");
        let a = tree.append_element(tree.root(), "a");
        let b = tree.append_element(tree.root(), "b");
        tree.append_element(a, "x");
        tree.append_element(b, "x");
        let mut s = sharded(&tree, 1);
        let (_, _, _, state) = s.parts_mut();
        let _ = state.take_dirty(); // clear build-time flags
        let target = match s.tree().element_children(a).next() {
            Some(n) => n,
            None => panic!("a has a child"),
        };
        match s.insert_before(target, "z") {
            Ok(_) => {}
            Err(e) => panic!("insert failed: {e}"),
        }
        let a_sid = match s.state().shard_of_node(a) {
            Some(x) => x,
            None => panic!("a owned"),
        };
        // `target` roots its own shard, so the insert lands before its stub
        // in a's shard and renumbers that stub: every label in the target's
        // shard changes with its anchor chain, so that shard is dirty too.
        let x_sid = match s.state().shard_of_node(target) {
            Some(x) => x,
            None => panic!("x owned"),
        };
        let (_, _, _, state) = s.parts_mut();
        assert_eq!(state.take_dirty(), vec![a_sid, x_sid]);
        assert!(state.take_dirty().is_empty(), "flags drained");
    }

    #[test]
    fn export_assemble_roundtrip() {
        assert_reassembles(&sharded(&random_tree(17, 45), 2));
    }
}
