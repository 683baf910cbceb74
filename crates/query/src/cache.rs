//! An epoch-stamped query-result cache with precise relabel invalidation.
//!
//! The paper's core claim is that prime labels confine relabeling cost to
//! the SC table: a mutation renumbers *order*, not labels, outside the
//! touched region. That locality is exactly what makes a query cache
//! worthwhile — a cached result can survive a mutation if (and only if)
//! the mutation provably touched nothing the query looked at. This module
//! supplies that cache for the server's epoch-stamped snapshots:
//!
//! * [`TagFootprint`] — the set of element tags a parsed [`Path`] can read:
//!   every `step.tag` plus every `[tag]` has-child predicate, except that
//!   an upward step (`parent`, `ancestor`, `ancestor-or-self`) adds only
//!   its `[tag]` predicate. A `*` on a non-upward axis, or a `[*]`
//!   predicate, makes the footprint universal (never survives).
//! * [`TouchedTags`] — the set of tags a mutation batch touched, built from
//!   [`RelabelReport`]s (tentpole invariant: the report's
//!   inserted/relabeled/removed lists must cover every changed row — see
//!   the `report_coverage` differential) or, shard-granularly, from the
//!   tag vocabulary of dirtied [`crate::ShardedTables`] partitions.
//! * [`QueryCache`] — path text → node list, stamped with the epoch range
//!   over which the entry is valid. The single writer calls
//!   [`QueryCache::advance`] with the batch's touched tags *before*
//!   publishing the new snapshot; only entries whose footprint intersects
//!   the touched set are dropped, so unchanged regions keep serving cached
//!   rows across mutations (per-label invalidation, not per-epoch flush).
//!
//! # Soundness
//!
//! A hit requires `entry.valid_from <= reader_epoch <= cache epoch`. Within
//! that range the entry is exact because a path's result is a function of
//! (a) the tag-filtered row sets of its footprint tags, (b) those rows'
//! parent/label columns and ancestor chains, (c) the text values of those
//! rows and their ancestors, and (d) the relative document order of all of
//! them — and every mutation that can change any of (a)–(d) for a tag
//! appears in the touched set: inserts and relabels by the report's
//! lists, deletes by the removed list (subtrees are removed whole, so no
//! surviving row's parent changes), moves by their delete+insert halves
//! (fresh node ids on re-insert), and text is immutable for a live node.
//! Pairwise order of untouched nodes is invariant under all five mutations.
//!
//! The ancestor-chain clause is why an upward step adds no tag of its own:
//! its rows are ancestors of the previous step's rows, so the chains of
//! rows already in the footprint determine them. It needs one report
//! property beyond row coverage: a surviving node whose ancestor set
//! changed is listed as inserted or relabeled. A wrap relabels the wrapped
//! subtree, a move re-inserts it with fresh ids, and a sharded stub relabel
//! dirties every shard below the stub; the `report_coverage` differential
//! checks the property for every scheme.
//!
//! Any uncertainty (a failed multi-step mutation, a `*` on a non-upward
//! axis) is handled conservatively: [`TouchedTags::mark_unknown`] flushes
//! everything, and wildcard footprints never survive an advance.

use crate::engine::{Axis, Path};
use std::collections::{HashMap, HashSet};
use xp_labelkit::dynamic::RelabelReport;
use xp_xmltree::{NodeId, XmlTree};

/// The element tags a parsed path can read: its step tags and has-child
/// predicate tags, minus the step tags of upward steps. `wildcard` paths
/// (a `*` on a non-upward axis, or a `[*]` predicate) read every tag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagFootprint {
    /// `true` iff some non-upward step or some `[tag]` predicate matches
    /// any element (`*`).
    pub wildcard: bool,
    /// The named tags the path filters on.
    pub tags: HashSet<String>,
}

impl TagFootprint {
    /// The footprint of `path`: every step tag and every `[tag]` existence
    /// predicate (a `*` flips the `wildcard` bit instead). A `parent`,
    /// `ancestor` or `ancestor-or-self` step adds only its predicate: its
    /// rows are ancestors of rows the footprint already covers, and a
    /// node's ancestor set changes only when a report names that node.
    pub fn of_path(path: &Path) -> TagFootprint {
        let mut fp = TagFootprint::default();
        for step in &path.steps {
            let upward = matches!(step.axis, Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf);
            let step_tag = (!upward).then_some(&step.tag);
            for tag in step_tag.into_iter().chain(&step.has_child) {
                if tag == "*" {
                    fp.wildcard = true;
                } else {
                    fp.tags.insert(tag.clone());
                }
            }
        }
        fp
    }

    /// `true` iff a result with this footprint is unaffected by a mutation
    /// that touched exactly `touched`.
    pub fn survives(&self, touched: &TouchedTags) -> bool {
        if touched.unknown || self.wildcard {
            return false;
        }
        self.tags.is_disjoint(&touched.tags)
    }
}

/// The set of element tags a mutation batch touched, or `unknown` when the
/// batch's effect could not be attributed precisely (conservative flush).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchedTags {
    /// `true` iff attribution failed and every cached entry must go.
    pub unknown: bool,
    /// Tags of every inserted, relabeled, or removed node.
    pub tags: HashSet<String>,
}

impl TouchedTags {
    /// An empty touched-set (a batch that changed nothing).
    pub fn new() -> TouchedTags {
        TouchedTags::default()
    }

    /// Records that attribution failed; [`TagFootprint::survives`] is then
    /// `false` for every footprint.
    pub fn mark_unknown(&mut self) {
        self.unknown = true;
    }

    /// Adds one touched tag.
    pub fn add(&mut self, tag: &str) {
        if !self.unknown {
            self.tags.insert(tag.to_string());
        }
    }

    /// Folds a mutation's [`RelabelReport`] in, resolving node ids to tags
    /// against the *post-apply* tree. Removed nodes resolve too: `detach`
    /// only unlinks a subtree, the arena slot keeps its element tag. A node
    /// id the tree cannot resolve marks the set unknown (never silently
    /// under-invalidate).
    pub fn add_report(&mut self, report: &RelabelReport, tree: &XmlTree) {
        if self.unknown {
            return;
        }
        let all = report
            .inserted
            .iter()
            .chain(report.relabeled.iter())
            .chain(report.removed.iter());
        for &node in all {
            match tree.tag(node) {
                Some(tag) => {
                    self.tags.insert(tag.to_string());
                }
                None => {
                    self.unknown = true;
                    return;
                }
            }
        }
    }

    /// `true` iff nothing was touched and attribution succeeded.
    pub fn is_empty(&self) -> bool {
        !self.unknown && self.tags.is_empty()
    }
}

struct CacheEntry {
    nodes: Vec<NodeId>,
    /// First epoch at which this result is known valid (the epoch it was
    /// computed against). Valid through the cache's current epoch, because
    /// [`QueryCache::advance`] drops it the moment a mutation intersects
    /// its footprint.
    valid_from: u64,
    footprint: TagFootprint,
}

/// A per-document query-result cache stamped with the writer's epoch
/// counter.
///
/// Single-writer discipline: the epoch loop calls [`QueryCache::advance`]
/// with each batch's [`TouchedTags`] *before* swapping the published
/// snapshot pointer, so by the time a reader can hold epoch `E+1`, every
/// entry the batch could have stalled is gone. Readers at an older epoch
/// `E` remain safe: an entry surviving `advance` is valid at both `E` and
/// `E+1` (its footprint is disjoint from the mutation), and an entry
/// inserted at `E+1` has `valid_from = E+1 > E` and misses for them.
pub struct QueryCache {
    epoch: u64,
    entries: HashMap<String, CacheEntry>,
    capacity: usize,
}

/// Default maximum number of cached query results per document.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl QueryCache {
    /// An empty cache holding at most `capacity` entries, starting at
    /// epoch `epoch` (the epoch of the currently published snapshot).
    pub fn new(capacity: usize, epoch: u64) -> QueryCache {
        QueryCache { epoch, entries: HashMap::new(), capacity: capacity.max(1) }
    }

    /// The epoch the cache was last advanced to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `path_text` for a reader holding a snapshot stamped
    /// `reader_epoch`. Returns the cached node list on a hit, and `None`
    /// when the entry is absent or was computed against a newer epoch than
    /// the reader's snapshot. The server counts hits and misses itself.
    pub fn lookup(&self, path_text: &str, reader_epoch: u64) -> Option<Vec<NodeId>> {
        self.entries
            .get(path_text)
            .filter(|e| e.valid_from <= reader_epoch && reader_epoch <= self.epoch)
            .map(|e| e.nodes.clone())
    }

    /// Caches a cold-evaluated result. `computed_epoch` is the epoch of the
    /// snapshot the result was evaluated against; the insert is dropped if
    /// the writer has advanced past it in the meantime (the result may
    /// already be stale) or if the cache is full and `path_text` is new.
    pub fn insert(
        &mut self,
        path_text: &str,
        path: &Path,
        computed_epoch: u64,
        nodes: Vec<NodeId>,
    ) {
        if computed_epoch != self.epoch {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(path_text) {
            return;
        }
        let footprint = TagFootprint::of_path(path);
        self.entries.insert(
            path_text.to_string(),
            CacheEntry { nodes, valid_from: computed_epoch, footprint },
        );
    }

    /// Advances the cache to `new_epoch`, dropping exactly the entries
    /// whose footprint intersects `touched` (all of them when `touched` is
    /// unknown). Returns the number of entries invalidated. Must be called
    /// by the writer before the `new_epoch` snapshot becomes visible.
    pub fn advance(&mut self, new_epoch: u64, touched: &TouchedTags) -> u64 {
        let before = self.entries.len();
        if touched.unknown {
            self.entries.clear();
        } else if !touched.tags.is_empty() {
            self.entries.retain(|_, e| e.footprint.survives(touched));
        }
        self.epoch = new_epoch;
        (before - self.entries.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(text: &str) -> Path {
        match Path::parse(text) {
            Ok(p) => p,
            Err(e) => panic!("bad test path {text:?}: {e}"),
        }
    }

    fn touched(tags: &[&str]) -> TouchedTags {
        let mut t = TouchedTags::new();
        for tag in tags {
            t.add(tag);
        }
        t
    }

    fn nodes(tree: &XmlTree, n: usize) -> Vec<NodeId> {
        tree.elements().take(n).collect()
    }

    #[test]
    fn footprint_collects_step_and_predicate_tags() {
        let fp = TagFootprint::of_path(&path("/play//act[scene]/title"));
        assert!(!fp.wildcard);
        for tag in ["play", "act", "scene", "title"] {
            assert!(fp.tags.contains(tag), "missing {tag}");
        }
        assert_eq!(fp.tags.len(), 4);
    }

    #[test]
    fn upward_steps_add_only_their_existence_predicate() {
        let tags = |text: &str| {
            let fp = TagFootprint::of_path(&path(text));
            assert!(!fp.wildcard, "{text} must not be universal");
            let mut tags: Vec<String> = fp.tags.into_iter().collect();
            tags.sort();
            tags
        };
        for axis in ["parent", "ancestor", "ancestor-or-self"] {
            for step in ["act", "*", "*[1]", "act[2]", "*[=\"x\"]"] {
                assert_eq!(tags(&format!("//line/{axis}::{step}")), ["line"], "{axis}::{step}");
            }
            assert_eq!(tags(&format!("//line/{axis}::*[scene]")), ["line", "scene"]);
            let below = tags(&format!("//line/{axis}::act[scene]/title"));
            assert_eq!(below, ["line", "scene", "title"]);
            // The parser rejects `[*]`, but a built step with one still reads
            // every tag.
            let mut p = path(&format!("//line/{axis}::act"));
            p.steps[1].has_child = Some("*".into());
            assert!(TagFootprint::of_path(&p).wildcard);
        }
        // A path that starts upward reads nothing: the document node has no
        // ancestors.
        assert_eq!(tags("/ancestor-or-self::*"), Vec::<String>::new());
        // An entry over `line` survives a mutation that touched only the
        // tags its upward steps might select.
        let fp = TagFootprint::of_path(&path("//line/ancestor::act/parent::*"));
        assert!(fp.survives(&touched(&["act", "scene", "play"])));
        assert!(!fp.survives(&touched(&["line"])));
    }

    #[test]
    fn a_star_on_any_other_axis_stays_universal() {
        for axis in [
            "child",
            "descendant",
            "following",
            "preceding",
            "following-sibling",
            "preceding-sibling",
        ] {
            let fp = TagFootprint::of_path(&path(&format!("//line/{axis}::*")));
            assert!(fp.wildcard, "{axis}::* must be universal");
            assert!(!fp.survives(&touched(&["unrelated"])));
        }
        assert!(TagFootprint::of_path(&path("//*/parent::act")).wildcard);
    }

    #[test]
    fn wildcard_paths_never_survive() {
        let fp = TagFootprint::of_path(&path("/play//*"));
        assert!(fp.wildcard);
        assert!(!fp.survives(&touched(&[])));
    }

    #[test]
    fn disjoint_mutations_keep_entries() {
        let tree = XmlTree::new("play");
        let mut cache = QueryCache::new(8, 0);
        cache.insert("//act", &path("//act"), 0, nodes(&tree, 1));
        cache.insert("//speech", &path("//speech"), 0, nodes(&tree, 1));
        // A mutation touching only <line> elements invalidates neither.
        assert_eq!(cache.advance(1, &touched(&["line"])), 0);
        assert!(cache.lookup("//act", 1).is_some());
        assert!(cache.lookup("//speech", 1).is_some());
        // Touching <act> drops exactly the act entry.
        assert_eq!(cache.advance(2, &touched(&["act"])), 1);
        assert!(cache.lookup("//act", 2).is_none());
        assert!(cache.lookup("//speech", 2).is_some());
    }

    #[test]
    fn unknown_touched_set_flushes_everything() {
        let tree = XmlTree::new("r");
        let mut cache = QueryCache::new(8, 0);
        cache.insert("//a", &path("//a"), 0, nodes(&tree, 1));
        cache.insert("//b", &path("//b"), 0, nodes(&tree, 1));
        let mut t = TouchedTags::new();
        t.mark_unknown();
        let invalidated = cache.advance(1, &t);
        assert!(cache.is_empty());
        assert_eq!(invalidated, 2);
    }

    #[test]
    fn old_readers_never_see_results_from_the_future() {
        let tree = XmlTree::new("r");
        let mut cache = QueryCache::new(8, 0);
        cache.advance(1, &TouchedTags::new());
        // Result computed at epoch 1; a reader still holding epoch 0 must
        // miss (its snapshot predates the cached computation).
        cache.insert("//a", &path("//a"), 1, nodes(&tree, 1));
        assert!(cache.lookup("//a", 0).is_none());
        assert!(cache.lookup("//a", 1).is_some());
    }

    #[test]
    fn stale_computations_are_not_inserted() {
        let tree = XmlTree::new("r");
        let mut cache = QueryCache::new(8, 0);
        // Reader evaluated against epoch 0, but the writer advanced first.
        cache.advance(1, &TouchedTags::new());
        cache.insert("//a", &path("//a"), 0, nodes(&tree, 1));
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_bounds_the_entry_count() {
        let tree = XmlTree::new("r");
        let mut cache = QueryCache::new(2, 0);
        cache.insert("//a", &path("//a"), 0, nodes(&tree, 1));
        cache.insert("//b", &path("//b"), 0, nodes(&tree, 1));
        cache.insert("//c", &path("//c"), 0, nodes(&tree, 1));
        assert_eq!(cache.len(), 2);
        // Overwriting a resident key is always allowed.
        cache.insert("//a", &path("//a"), 0, Vec::new());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn report_tags_resolve_against_the_post_apply_tree() {
        let mut tree = XmlTree::new("play");
        let act = tree.append_element(tree.root(), "act");
        let scene = tree.append_element(act, "scene");
        tree.detach(scene); // removed subtrees keep their arena tags
        let report = RelabelReport {
            inserted: vec![act],
            relabeled: vec![],
            removed: vec![scene],
            side_updates: 0,
        };
        let mut t = TouchedTags::new();
        t.add_report(&report, &tree);
        assert!(!t.unknown);
        assert!(t.tags.contains("act") && t.tags.contains("scene"));
        assert_eq!(t.tags.len(), 2);
    }

    #[test]
    fn hit_and_miss_counters_accumulate() {
        let tree = XmlTree::new("r");
        let mut cache = QueryCache::new(8, 0);
        let mut outcomes = vec![cache.lookup("//a", 0).is_some()];
        cache.insert("//a", &path("//a"), 0, nodes(&tree, 1));
        outcomes.push(cache.lookup("//a", 0).is_some());
        outcomes.push(cache.lookup("//a", 0).is_some());
        assert_eq!(outcomes, [false, true, true]);
        let hits = outcomes.iter().filter(|&&hit| hit).count();
        assert_eq!((hits, outcomes.len() - hits), (2, 1));
    }
}
