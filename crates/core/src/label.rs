//! [`PrimeLabel`]: the label type of the top-down prime scheme.

use xp_bignum::reduce::Reducer;
use xp_bignum::UBig;
use xp_labelkit::codec::{read_bytes, read_varint, write_bytes, write_varint, CodecError};
use xp_labelkit::{AncestorTester, LabelCodec, LabelOps};

/// A top-down prime label.
///
/// `value = parent_label × self_label` (the root has value 1 and self-label
/// 1). `self_label` is a prime under the basic scheme, or `2^n` for leaf
/// nodes under Opt2; it is kept alongside the product because both the
/// parent test and the SC order table need it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimeLabel {
    value: UBig,
    self_label: UBig,
    /// `true` when the document was labeled with Opt2, whose ancestor test
    /// is Property 3 (`odd(label(x)) && label(y) mod label(x) == 0`) instead
    /// of Property 2's plain divisibility.
    odd_internal_mode: bool,
}

impl PrimeLabel {
    /// The root label: value 1, self-label 1.
    pub fn root(odd_internal_mode: bool) -> Self {
        PrimeLabel { value: UBig::one(), self_label: UBig::one(), odd_internal_mode }
    }

    /// A child label under `parent` with the given self-label.
    pub fn child_of(parent: &PrimeLabel, self_label: UBig) -> Self {
        PrimeLabel {
            value: &parent.value * &self_label,
            self_label,
            odd_internal_mode: parent.odd_internal_mode,
        }
    }

    /// Builds a label from raw parts (used by tests and deserialization).
    ///
    /// Callers must keep `self_label | value`, as [`PrimeLabel::root`],
    /// [`PrimeLabel::child_of`] and [`LabelCodec::decode`] do:
    /// [`LabelOps::is_ancestor_of`] rejects a pair whose residue modulo the
    /// ancestor's self-label is nonzero, which is sound only under that
    /// invariant.
    pub fn from_parts(value: UBig, self_label: UBig, odd_internal_mode: bool) -> Self {
        PrimeLabel { value, self_label, odd_internal_mode }
    }

    /// The full label value (the product along the root path).
    pub fn value(&self) -> &UBig {
        &self.value
    }

    /// The self-label (prime, or a power of two for Opt2 leaves).
    pub fn self_label(&self) -> &UBig {
        &self.self_label
    }

    /// Self-label as `u64` — always fits for realistic documents (the
    /// `2^63` Opt2 threshold and sub-billion prime streams guarantee it).
    ///
    /// # Panics
    /// Panics if the self-label exceeds `u64`.
    pub fn self_label_u64(&self) -> u64 {
        // Documented panic contract (see `# Panics` above).
        #[allow(clippy::expect_used)]
        self.self_label.to_u64().expect("self-label fits in u64")
    }

    /// The "parent-label" part: `value / self_label` (§3's terminology).
    pub fn parent_part(&self) -> UBig {
        let (q, r) = self.value.divrem(&self.self_label);
        debug_assert!(r.is_zero(), "label must be divisible by its self-label");
        q
    }

    /// `true` iff this label was produced under Opt2.
    pub fn odd_internal_mode(&self) -> bool {
        self.odd_internal_mode
    }
}

impl LabelOps for PrimeLabel {
    /// Property 2 (basic) / Property 3 (Opt2): `x` is an ancestor of `y` iff
    /// `label(y) mod label(x) = 0` — with the extra `odd(label(x))` guard in
    /// Opt2 mode, which excludes the power-of-two leaf labels that would
    /// otherwise spuriously divide their siblings' labels.
    ///
    /// Two word-sized necessary conditions reject most unrelated pairs
    /// before the division: a proper multiple of a nonzero value is at least
    /// twice as large, so it has more bits; and the self-label divides
    /// `value`, so it divides every multiple of it. A pair that passes both
    /// still gets the full divisibility test.
    fn is_ancestor_of(&self, other: &Self) -> bool {
        if self.value == other.value {
            return false;
        }
        if self.odd_internal_mode && !self.value.is_odd() {
            return false;
        }
        if !other.value.is_zero() && self.value.bit_len() >= other.value.bit_len() {
            return false;
        }
        if let Some(s) = self.self_label.to_u64().filter(|&s| s >= 2) {
            if other.value.rem_u64(s) != 0 {
                return false;
            }
        }
        other.value.is_multiple_of(&self.value)
    }

    /// Parent test: ancestor, and the quotient is exactly the child's
    /// self-label (`x.value · y.self = y.value`).
    fn is_parent_of(&self, other: &Self) -> bool {
        self.is_ancestor_of(other) && &self.value * &other.self_label == other.value
    }

    fn size_bits(&self) -> u64 {
        self.value.bit_len()
    }

    /// Fixed-ancestor test with the division front-loaded: one Barrett
    /// context ([`Reducer`]) is built for `self.value`, so each candidate
    /// costs two multiplications instead of a full Knuth division — the
    /// hot path of the descendant axis and the structural join, where one
    /// ancestor label is tested against many node labels.
    ///
    /// Answers are identical to [`LabelOps::is_ancestor_of`] (the
    /// `predicate_differential` suite pins this end to end).
    fn ancestor_tester(&self) -> AncestorTester<'_, Self> {
        if self.odd_internal_mode && !self.value.is_odd() {
            // Property 3's odd-guard rejects this label as an ancestor of
            // anything; no division will ever run.
            return Box::new(|_| false);
        }
        if self.value.is_zero() {
            // Degenerate hand-built label; keep the plain path's semantics.
            return Box::new(move |other| self.is_ancestor_of(other));
        }
        let reducer = Reducer::new(self.value.clone());
        Box::new(move |other| self.value != other.value && reducer.is_multiple_of(&other.value))
    }
}

impl LabelCodec for PrimeLabel {
    fn encode(&self, out: &mut Vec<u8>) {
        write_bytes(out, &self.value.to_le_bytes());
        write_bytes(out, &self.self_label.to_le_bytes());
        write_varint(out, u64::from(self.odd_internal_mode));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let value = UBig::from_le_bytes(read_bytes(input)?);
        let self_label = UBig::from_le_bytes(read_bytes(input)?);
        let odd = read_varint(input)? != 0;
        if !value.is_multiple_of(&self_label) {
            return Err(CodecError::Corrupt("label not divisible by its self-label"));
        }
        Ok(PrimeLabel { value, self_label, odd_internal_mode: odd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbl(value: u64, self_label: u64, odd: bool) -> PrimeLabel {
        PrimeLabel::from_parts(UBig::from(value), UBig::from(self_label), odd)
    }

    #[test]
    fn figure2_topdown_example() {
        // Figure 2: root=1; children 2, 3; node "10" has parent-label 2 and
        // self-label 5.
        let root = PrimeLabel::root(false);
        let left = PrimeLabel::child_of(&root, UBig::from(2u64));
        let ten = PrimeLabel::child_of(&left, UBig::from(5u64));
        assert_eq!(ten.value(), &UBig::from(10u64));
        assert_eq!(ten.parent_part(), UBig::from(2u64));
        assert!(root.is_ancestor_of(&ten));
        assert!(left.is_ancestor_of(&ten));
        assert!(left.is_parent_of(&ten));
        assert!(!root.is_parent_of(&ten));
        assert!(!ten.is_ancestor_of(&left));
    }

    #[test]
    fn labels_are_not_their_own_ancestors() {
        let l = lbl(6, 3, false);
        assert!(!l.is_ancestor_of(&l));
        assert!(!l.is_parent_of(&l));
    }

    #[test]
    fn property3_guard_rejects_even_leaf_labels() {
        // Two Opt2 leaves under the same parent (value 3): 3·2=6 and 3·4=12.
        // 12 is a multiple of 6, but 6 is even, so it must NOT be an ancestor.
        let parent = lbl(3, 3, true);
        let leaf1 = lbl(6, 2, true);
        let leaf2 = lbl(12, 4, true);
        assert!(leaf2.value().is_multiple_of(leaf1.value()), "raw divisibility holds");
        assert!(!leaf1.is_ancestor_of(&leaf2), "Property 3 guard must reject it");
        assert!(parent.is_ancestor_of(&leaf1));
        assert!(parent.is_ancestor_of(&leaf2));
        assert!(parent.is_parent_of(&leaf1));
        assert!(parent.is_parent_of(&leaf2));
    }

    #[test]
    fn plain_mode_allows_even_internal_labels() {
        // Without Opt2, the prime 2 labels an internal node: value 2 must be
        // a valid ancestor of value 10.
        let two = lbl(2, 2, false);
        let ten = lbl(10, 5, false);
        assert!(two.is_ancestor_of(&ten));
    }

    #[test]
    fn parent_test_requires_exact_quotient() {
        // 30 = 2·3·5. Node 2 is an ancestor but not the parent of 30 when
        // 30's self-label is 5 (its parent is 6).
        let two = lbl(2, 2, false);
        let six = lbl(6, 3, false);
        let thirty = lbl(30, 5, false);
        assert!(two.is_ancestor_of(&thirty));
        assert!(!two.is_parent_of(&thirty));
        assert!(six.is_parent_of(&thirty));
    }

    #[test]
    fn size_is_bit_length_of_the_product() {
        assert_eq!(lbl(1, 1, false).size_bits(), 1);
        assert_eq!(lbl(255, 5, false).size_bits(), 8);
        assert_eq!(lbl(256, 2, false).size_bits(), 9);
    }

    #[test]
    fn codec_round_trips() {
        use xp_labelkit::LabelCodec;
        for label in [
            PrimeLabel::root(false),
            PrimeLabel::root(true),
            lbl(30, 5, false),
            lbl(12, 4, true),
            PrimeLabel::from_parts(UBig::from(3u64).pow(100), UBig::from(3u64), false),
        ] {
            let mut buf = Vec::new();
            label.encode(&mut buf);
            let mut slice = buf.as_slice();
            let decoded = PrimeLabel::decode(&mut slice).unwrap();
            assert_eq!(decoded, label);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn codec_rejects_inconsistent_labels() {
        use xp_labelkit::LabelCodec;
        let mut buf = Vec::new();
        lbl(30, 7, false).encode(&mut buf); // 7 does not divide 30
        assert!(PrimeLabel::decode(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn ancestor_tester_matches_plain_test_everywhere() {
        // A small forest of labels covering both modes, the odd-guard, huge
        // values, and self-comparison; the Barrett-backed tester must agree
        // with the division-based test on every ordered pair.
        let labels = [
            PrimeLabel::root(false),
            PrimeLabel::root(true),
            lbl(2, 2, false),
            lbl(6, 3, false),
            lbl(30, 5, false),
            lbl(6, 2, true),
            lbl(12, 4, true),
            lbl(3, 3, true),
            PrimeLabel::from_parts(UBig::from(3u64).pow(200), UBig::from(3u64), false),
            PrimeLabel::from_parts(UBig::from(3u64).pow(100), UBig::from(3u64), false),
        ];
        for a in &labels {
            let tester = a.ancestor_tester();
            for b in &labels {
                assert_eq!(
                    tester(b),
                    a.is_ancestor_of(b),
                    "tester disagrees for {a:?} vs {b:?}"
                );
            }
        }
    }

    /// The ancestor test without the word-sized rejections: the equality and
    /// Opt2 guards, then plain division.
    fn unfiltered(a: &PrimeLabel, b: &PrimeLabel) -> bool {
        a.value() != b.value()
            && (!a.odd_internal_mode() || a.value().is_odd())
            && b.value().is_multiple_of(a.value())
    }

    /// Checks `is_ancestor_of` and `ancestor_tester` against
    /// [`unfiltered`] on every ordered pair; returns the number of ancestor
    /// pairs found.
    fn assert_filtered_agrees(labels: &[&PrimeLabel]) -> usize {
        let mut ancestors = 0;
        for a in labels {
            let tester = a.ancestor_tester();
            for b in labels {
                let truth = unfiltered(a, b);
                assert_eq!(a.is_ancestor_of(b), truth, "is_ancestor_of({a:?}, {b:?})");
                assert_eq!(tester(b), truth, "ancestor_tester({a:?})({b:?})");
                ancestors += usize::from(truth);
            }
        }
        ancestors
    }

    /// Proper ancestor pairs of `tree`: the sum of the element depths.
    fn ancestor_pairs(tree: &xp_xmltree::XmlTree) -> usize {
        tree.elements()
            .map(|n| std::iter::successors(tree.parent(n), |&p| tree.parent(p)).count())
            .sum()
    }

    #[test]
    fn word_rejections_agree_with_plain_division_on_whole_documents() {
        use crate::dynamic::DynamicPrime;
        use crate::topdown::TopDownPrime;
        use xp_datagen::builders::{random_tree, RandomTreeParams};
        use xp_labelkit::DynamicScheme;

        let params = RandomTreeParams { nodes: 120, max_depth: 8, max_fanout: 5, tag_variety: 4 };
        for (seed, scheme) in [(3, TopDownPrime::unoptimized()), (4, TopDownPrime::optimized())] {
            let tree = random_tree(seed, &params);
            let doc = scheme.label_document(&tree);
            let labels: Vec<&PrimeLabel> = doc.labels.iter().map(|(_, l)| l).collect();
            assert_eq!(assert_filtered_agrees(&labels), ancestor_pairs(&tree), "seed {seed}");
        }

        // Front insertions into a chunk-5 SC table: every one shifts the
        // earliest orders, and the ones that overflow a small self-label
        // replace it with a fresh prime (the report's `relabeled` list).
        let scheme = DynamicPrime::new(5);
        let mut tree = xp_xmltree::parse("<l><a><x/></a><b/><c/></l>").unwrap();
        let (mut doc, mut state) = scheme.init(&tree).unwrap();
        let mut replaced = 0;
        for _ in 0..8 {
            let first = tree.first_child(tree.root()).unwrap();
            let report = scheme.insert_before(&mut tree, &mut doc, &mut state, first, "n").unwrap();
            replaced += report.relabeled.len();
        }
        assert!(replaced > 0, "no self-label was replaced");
        let labels: Vec<&PrimeLabel> = doc.iter().map(|(_, l)| l).collect();
        assert_eq!(assert_filtered_agrees(&labels), ancestor_pairs(&tree));
    }

    #[test]
    fn each_word_rejection_is_reached_and_sound() {
        let six = lbl(6, 3, false);
        let big = UBig::from(3u64).pow(50); // a self-label wider than u64
        let wide = PrimeLabel::from_parts(&big * &big, big.clone(), false);
        let wide_child = |factor: UBig| PrimeLabel::from_parts(&big * &big * &factor, factor, false);
        let cases = [
            // Equal bit length: 15 is a multiple of ten's self-label 5, so
            // only the bit test rejects it.
            (lbl(10, 5, false), lbl(15, 3, false), false),
            // More bits, but 14 is not a multiple of the self-label 3.
            (six.clone(), lbl(14, 7, false), false),
            // Both word tests pass; the division rejects 21.
            (six.clone(), lbl(21, 7, false), false),
            (six.clone(), lbl(42, 7, false), true),
            // The root's self-label 1 skips the residue test.
            (PrimeLabel::root(false), lbl(2, 2, false), true),
            (PrimeLabel::root(false), PrimeLabel::root(false), false),
            (lbl(2, 2, false), PrimeLabel::root(false), false),
            // Zero values: zero is a multiple of everything, and nothing
            // nonzero is a multiple of zero.
            (six.clone(), lbl(0, 3, false), true),
            (lbl(0, 3, false), six.clone(), false),
            (lbl(0, 0, false), lbl(0, 3, false), false),
            (lbl(0, 0, false), six.clone(), false),
            // Opt2's odd guard runs first: 12 is a multiple of 6.
            (lbl(6, 2, true), lbl(12, 4, true), false),
            // A self-label wider than u64 skips the residue test.
            (wide.clone(), wide_child(UBig::from(7u64)), true),
            (wide.clone(), PrimeLabel::from_parts(&big << 90, UBig::from(2u64), false), false),
        ];
        for (a, b, expected) in &cases {
            assert_eq!(unfiltered(a, b), *expected, "{a:?} vs {b:?}");
            assert_eq!(a.is_ancestor_of(b), *expected, "{a:?} vs {b:?}");
            assert_eq!(a.ancestor_tester()(b), *expected, "tester {a:?} vs {b:?}");
        }
    }

    #[test]
    fn siblings_are_unrelated() {
        let root = PrimeLabel::root(false);
        let a = PrimeLabel::child_of(&root, UBig::from(2u64));
        let b = PrimeLabel::child_of(&root, UBig::from(3u64));
        assert!(!a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
    }
}
