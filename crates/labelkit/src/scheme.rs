//! The [`LabelOps`] / [`OrderedLabel`] / [`Scheme`] traits.

use crate::doc::LabeledDoc;
use std::cmp::Ordering;
use xp_xmltree::XmlTree;

/// Operations every node label supports, *using only the labels themselves* —
/// the defining property of a labeling scheme (§1: "the relationships between
/// two nodes can be uniquely and quickly determined simply by examining their
/// labels").
///
/// Labels are plain values (`Send + Sync`): table builds construct rows on
/// the `xp-par` worker pool and served snapshots share labels across
/// connection threads, so a label type must be safe to share and move
/// across threads. Every label in this workspace is an owned integer/string
/// structure, and instrumentation wrappers use atomics, so the bounds cost
/// nothing.
pub trait LabelOps: Clone + Eq + std::fmt::Debug + Send + Sync {
    /// `true` iff the node labeled `self` is a **proper ancestor** of the
    /// node labeled `other`.
    fn is_ancestor_of(&self, other: &Self) -> bool;

    /// `true` iff the node labeled `self` is the **parent** of the node
    /// labeled `other`.
    ///
    /// # Contract
    ///
    /// The default refines the ancestor test via [`LabelOps::level_hint`]:
    /// it returns `true` only when **both** labels report a level and they
    /// differ by exactly one. A label type without `level_hint` therefore
    /// gets a default that **silently answers `false` even for true
    /// parents** — it degrades, it does not panic. Such schemes MUST
    /// override this method with a direct test or the parent axis is
    /// unusable. In this workspace:
    ///
    /// * prime overrides it (`parent.value * child.self_label ==
    ///   child.value`, no levels involved),
    /// * the prefix and Dewey labels override it (ancestor + one extra
    ///   component, cheaper than the two-level comparison),
    /// * interval and floatival labels carry levels and rely on the default.
    ///
    /// Overrides must agree with the default's semantics: `is_parent_of`
    /// implies `is_ancestor_of`, and when both labels do expose levels, a
    /// parent's level is exactly one less than its child's.
    /// [`assert_parent_contract`] checks this coherence under
    /// `debug_assertions`; scheme test suites run it over whole documents.
    fn is_parent_of(&self, other: &Self) -> bool {
        self.is_ancestor_of(other)
            && match (self.level_hint(), other.level_hint()) {
                (Some(a), Some(b)) => b == a + 1,
                _ => false,
            }
    }

    /// Storage size of this label in bits — the metric of Figures 13–14.
    fn size_bits(&self) -> u64;

    /// The node's depth if the label encodes it (prefix/Dewey labels do;
    /// interval labels don't).
    fn level_hint(&self) -> Option<usize> {
        None
    }

    /// Returns a reusable predicate answering "is `self` a proper ancestor
    /// of the argument?" — for call sites that test **one fixed ancestor
    /// candidate against many nodes**: the stack tops of the structural
    /// join, and the per-context reference's descendant and following
    /// scans. Call sites that test a label only a few times (the engine's
    /// following/preceding boundaries and positional steps) call
    /// [`LabelOps::is_ancestor_of`] directly.
    ///
    /// The default just delegates to [`LabelOps::is_ancestor_of`], so every
    /// scheme gets it for free. Schemes whose ancestor test repeats
    /// per-`self` setup work may override it to front-load that work: the
    /// prime scheme's test divides by `self`'s label, so its override
    /// captures a Barrett reduction context (precomputed reciprocal) and
    /// answers each call with multiplications only, where its plain test
    /// first tries two word-sized rejections.
    ///
    /// # Contract
    /// For all `x`: `tester(&x) == self.is_ancestor_of(&x)`, bit for bit —
    /// an override changes cost, never answers. The end-to-end differential
    /// suites (`predicate_differential`) pin this across whole documents.
    fn ancestor_tester(&self) -> AncestorTester<'_, Self> {
        Box::new(move |other| self.is_ancestor_of(other))
    }
}

/// A boxed fixed-ancestor predicate borrowed from the ancestor's label; see
/// [`LabelOps::ancestor_tester`].
pub type AncestorTester<'a, L> = Box<dyn Fn(&L) -> bool + Send + Sync + 'a>;

/// Debug-checks the [`LabelOps::is_parent_of`] contract on one label pair:
///
/// * parent ⇒ ancestor (an override must never claim parenthood over a
///   non-descendant);
/// * ancestor + both levels present + levels adjacent ⇒ parent (an override
///   must not be *stricter* than the level-refined ancestor test);
/// * parent + both levels present ⇒ levels adjacent.
///
/// Compiles to nothing in release builds. Call it from scheme tests over
/// every (or a sampled) label pair of a labeled document; it panics with a
/// description of the violated clause.
pub fn assert_parent_contract<L: LabelOps>(a: &L, b: &L) {
    if cfg!(debug_assertions) {
        let parent = a.is_parent_of(b);
        let ancestor = a.is_ancestor_of(b);
        debug_assert!(
            !parent || ancestor,
            "is_parent_of claims {a:?} is parent of {b:?} but is_ancestor_of denies it"
        );
        if let (Some(la), Some(lb)) = (a.level_hint(), b.level_hint()) {
            debug_assert!(
                !(ancestor && lb == la + 1) || parent,
                "{a:?} is an ancestor of {b:?} one level up, but is_parent_of denies it"
            );
            debug_assert!(
                !parent || lb == la + 1,
                "is_parent_of claims {a:?} (level {la}) is parent of {b:?} (level {lb})"
            );
        }
    }
}

/// Labels that additionally encode **document order**, so `preceding` /
/// `following` queries can be answered by comparison alone. The prime scheme
/// deliberately does *not* implement this — its order lives in the external
/// SC table (§4), which is what makes its order-sensitive updates cheap.
pub trait OrderedLabel: LabelOps {
    /// Total document order: `Less` means `self`'s node precedes `other`'s.
    fn doc_cmp(&self, other: &Self) -> Ordering;
}

/// A labeling algorithm.
pub trait Scheme {
    /// The label type this scheme produces.
    type Label: LabelOps;

    /// Human-readable name used in experiment output ("Prime", "Interval", …).
    fn name(&self) -> &'static str;

    /// Labels every element node of `tree`.
    fn label(&self, tree: &XmlTree) -> LabeledDoc<Self::Label>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy label: the node's preorder interval, for exercising defaults.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Toy {
        start: u64,
        end: u64,
        level: usize,
    }

    impl LabelOps for Toy {
        fn is_ancestor_of(&self, other: &Self) -> bool {
            self.start < other.start && other.end <= self.end
        }
        fn size_bits(&self) -> u64 {
            64 - self.end.leading_zeros() as u64
        }
        fn level_hint(&self) -> Option<usize> {
            Some(self.level)
        }
    }

    #[test]
    fn default_parent_test_uses_level_hint() {
        let root = Toy { start: 1, end: 10, level: 0 };
        let child = Toy { start: 2, end: 9, level: 1 };
        let grandchild = Toy { start: 3, end: 4, level: 2 };
        assert!(root.is_parent_of(&child));
        assert!(!root.is_parent_of(&grandchild), "ancestor but not parent");
        assert!(child.is_parent_of(&grandchild));
        assert!(!grandchild.is_parent_of(&child));
        for x in [&root, &child, &grandchild] {
            for y in [&root, &child, &grandchild] {
                assert_parent_contract(x, y);
            }
        }
    }

    /// A label with no level information: the default parent test degrades
    /// to constant `false` — the documented contract, checked explicitly.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Levelless {
        start: u64,
        end: u64,
    }

    impl LabelOps for Levelless {
        fn is_ancestor_of(&self, other: &Self) -> bool {
            self.start < other.start && other.end <= self.end
        }
        fn size_bits(&self) -> u64 {
            128
        }
    }

    #[test]
    fn default_ancestor_tester_delegates_exactly() {
        let root = Toy { start: 1, end: 10, level: 0 };
        let child = Toy { start: 2, end: 9, level: 1 };
        let sibling = Toy { start: 11, end: 12, level: 1 };
        let tester = root.ancestor_tester();
        for other in [&root, &child, &sibling] {
            assert_eq!(tester(other), root.is_ancestor_of(other));
        }
    }

    #[test]
    fn default_parent_test_degrades_to_false_without_level_hint() {
        let parent = Levelless { start: 1, end: 10 };
        let child = Levelless { start: 2, end: 9 };
        assert!(parent.is_ancestor_of(&child));
        assert!(!parent.is_parent_of(&child), "true parent, but no levels to refine with");
        // The degraded answer still satisfies the coherence contract.
        assert_parent_contract(&parent, &child);
    }
}
