//! Stack-based structural joins.
//!
//! The paper's §1 frames query evaluation around "containment joins and
//! structural joins whereby the pattern tree is composed by matching
//! ancestor and descendant pairs". The naive way to match an ancestor set
//! `A` against a candidate set `D` is the O(|A|·|D|) nested loop; the
//! classic stack-tree join does it in one merged pass over both sets in
//! document order, exploiting two facts:
//!
//! * an ancestor always precedes its descendants in document order, and
//! * the `A`-elements that are ancestors of the current node form a nested
//!   chain — a stack.
//!
//! [`visit_ancestor_chains`] is the single primitive: one pass that hands
//! every target the chain of `A`-elements that are its proper ancestors.
//! [`ancestor_descendant_counts`] folds those chains into, for every
//! `A`-element, how many targets lie in its subtree; the engine's
//! position-free ancestor and ancestor-or-self steps reduce to it, on the
//! caller's thread. Positional `ancestor`, `ancestor-or-self` and
//! `preceding` steps read the chains themselves: a context's n-th match is
//! an index into its chain, or into the candidates before it with the chain
//! skipped. The other steps need no join: a subtree is one contiguous run
//! in document order, so a descendant step keeps one galloped run per
//! outermost context, a following step reduces to one boundary, and a
//! preceding step to one boundary less the last context's ancestors, which
//! it reads up the parent column.

use xp_labelkit::{AncestorTester, LabelOps};

/// One element of a join input: `(document-order rank, label)`.
pub type Ranked<'a, L> = (u64, &'a L);

/// Tests `ancestors[idx]` against `target` through a per-ancestor memoized
/// [`AncestorTester`]: the stack-tree join probes each stacked ancestor many
/// times (once per incoming element while it sits on the chain), so the
/// per-ancestor setup — the prime scheme's Barrett context — is paid at most
/// once per join input element. Never-stacked ancestors pay nothing.
fn test_ancestor<'a, L: LabelOps>(
    testers: &mut [Option<AncestorTester<'a, L>>],
    ancestors: &[Ranked<'a, L>],
    idx: usize,
    target: &L,
) -> bool {
    testers[idx].get_or_insert_with(|| ancestors[idx].1.ancestor_tester())(target)
}

/// The stack-tree join as a visitor: calls `visit(t, chain)` for every
/// target in order, where `chain` holds the indices into `ancestors` of
/// exactly the elements that are proper ancestors of `targets[t]`,
/// outermost (smallest rank) first. Both inputs must be sorted by rank
/// (strictly increasing); ranks must come from one common document order,
/// and a rank may appear in both lists (a node joined with itself is never
/// its own ancestor).
///
/// Runs in `O(|A| + Σ_t chain-depth(t))` after the inputs are sorted.
///
/// # Panics
/// Panics (debug assertion) if an input is not strictly increasing in rank.
pub fn visit_ancestor_chains<L: LabelOps>(
    ancestors: &[Ranked<'_, L>],
    targets: &[Ranked<'_, L>],
    mut visit: impl FnMut(usize, &[usize]),
) {
    debug_assert!(ancestors.windows(2).all(|w| w[0].0 < w[1].0), "ancestors unsorted");
    debug_assert!(targets.windows(2).all(|w| w[0].0 < w[1].0), "targets unsorted");

    // Lazily-built fixed-ancestor predicates, one slot per ancestor (see
    // [`test_ancestor`]).
    let mut testers: Vec<Option<AncestorTester<'_, L>>> =
        (0..ancestors.len()).map(|_| None).collect();
    // Stack of indices into `ancestors`, always a nested ancestor chain.
    let mut stack: Vec<usize> = Vec::new();
    let mut next_a = 0usize;

    for (t_idx, &(t_rank, t_label)) in targets.iter().enumerate() {
        // Consume every ancestor that starts before this target.
        while next_a < ancestors.len() && ancestors[next_a].0 < t_rank {
            let (_, a_label) = ancestors[next_a];
            // Maintain the chain invariant: pop everything that does not
            // enclose the incoming element.
            while let Some(&top) = stack.last() {
                if test_ancestor(&mut testers, ancestors, top, a_label) {
                    break;
                }
                stack.pop();
            }
            stack.push(next_a);
            next_a += 1;
        }
        // Pop chain elements whose subtrees ended before this target.
        while let Some(&top) = stack.last() {
            if test_ancestor(&mut testers, ancestors, top, t_label) {
                break;
            }
            stack.pop();
        }
        // Everything remaining on the stack is an ancestor of the target.
        visit(t_idx, &stack);
    }
}

/// The stack-tree join folded into counts: for each ancestor (in the order
/// given), the number of targets that are proper descendants of it —
/// [`visit_ancestor_chains`] with each chain member credited one target.
/// Same input contract.
pub fn ancestor_descendant_counts<L: LabelOps>(
    ancestors: &[Ranked<'_, L>],
    targets: &[Ranked<'_, L>],
) -> Vec<usize> {
    let mut targets_under_ancestor = vec![0usize; ancestors.len()];
    visit_ancestor_chains(ancestors, targets, |_, chain| {
        for &a_idx in chain {
            targets_under_ancestor[a_idx] += 1;
        }
    });
    targets_under_ancestor
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_baselines::interval::{IntervalLabel, IntervalScheme};
    use xp_labelkit::Scheme;
    use xp_xmltree::{parse, NodeId, XmlTree};

    fn ranked<'a>(
        tree: &XmlTree,
        doc: &'a xp_labelkit::LabeledDoc<IntervalLabel>,
        nodes: &[NodeId],
    ) -> Vec<(u64, &'a IntervalLabel)> {
        let mut v: Vec<(u64, &IntervalLabel)> =
            nodes.iter().map(|&n| (doc.label(n).order, doc.label(n))).collect();
        let _ = tree;
        v.sort_by_key(|&(r, _)| r);
        v
    }

    /// Brute-force reference: per target, its ancestors' indices; per
    /// ancestor, the targets under it.
    fn naive<L: LabelOps>(
        ancestors: &[Ranked<'_, L>],
        targets: &[Ranked<'_, L>],
    ) -> (Vec<Vec<usize>>, Vec<usize>) {
        let chains = targets
            .iter()
            .map(|(_, t)| {
                (0..ancestors.len()).filter(|&a| ancestors[a].1.is_ancestor_of(t)).collect()
            })
            .collect();
        let counts = ancestors
            .iter()
            .map(|(_, a)| targets.iter().filter(|(_, t)| a.is_ancestor_of(t)).count())
            .collect();
        (chains, counts)
    }

    /// Every target's chain, in target order.
    fn chains<L: LabelOps>(
        ancestors: &[Ranked<'_, L>],
        targets: &[Ranked<'_, L>],
    ) -> Vec<Vec<usize>> {
        let mut chains = Vec::new();
        visit_ancestor_chains(ancestors, targets, |t, chain| {
            assert_eq!(t, chains.len(), "targets visited in order");
            chains.push(chain.to_vec());
        });
        chains
    }

    fn check(tree: &XmlTree, a_nodes: &[NodeId], t_nodes: &[NodeId]) {
        let doc = IntervalScheme::dense().label(tree);
        let a = ranked(tree, &doc, a_nodes);
        let t = ranked(tree, &doc, t_nodes);
        assert_eq!((chains(&a, &t), ancestor_descendant_counts(&a, &t)), naive(&a, &t));
    }

    #[test]
    fn matches_naive_on_a_small_tree() {
        let tree = parse("<a><b><c/><d/></b><e><f><g/></f></e><h/></a>").unwrap();
        let all: Vec<NodeId> = tree.elements().collect();
        check(&tree, &all, &all);
        check(&tree, &all[..3], &all[3..]);
        check(&tree, &all[4..], &all[..4]);
        check(&tree, &[], &all);
        check(&tree, &all, &[]);
    }

    #[test]
    fn matches_naive_on_random_trees() {
        for seed in 0..8 {
            let tree = xp_datagen::builders::random_tree(
                seed,
                &xp_datagen::builders::RandomTreeParams {
                    nodes: 150,
                    max_depth: 8,
                    max_fanout: 6,
                    tag_variety: 4,
                },
            );
            let all: Vec<NodeId> = tree.elements().collect();
            let evens: Vec<NodeId> = all.iter().copied().step_by(2).collect();
            let thirds: Vec<NodeId> = all.iter().copied().step_by(3).collect();
            check(&tree, &evens, &thirds);
            check(&tree, &thirds, &evens);
            check(&tree, &all, &evens);
        }
    }

    #[test]
    fn chains_list_exactly_the_ancestors_outermost_first() {
        let tree = parse("<a><b><c/><d/></b><e><f><g/></f></e><h/></a>").unwrap();
        let all: Vec<NodeId> = tree.elements().collect();
        let doc = IntervalScheme::dense().label(&tree);
        let both = ranked(&tree, &doc, &all);
        // c, d under a/b; e under a; f, g under a/e(/f); h under a.
        let expected: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![0, 1], vec![0], vec![0, 4], vec![0, 4, 5], vec![0]];
        assert_eq!(chains(&both, &both[2..]), expected);
    }

    #[test]
    fn self_pairs_are_not_ancestors() {
        let tree = parse("<a><b/></a>").unwrap();
        let all: Vec<NodeId> = tree.elements().collect();
        let doc = IntervalScheme::dense().label(&tree);
        let both = ranked(&tree, &doc, &all);
        let depths: Vec<usize> = chains(&both, &both).iter().map(Vec::len).collect();
        // a has no ancestors in the set; b has one (a). a covers b only.
        assert_eq!(depths, vec![0, 1]);
        assert_eq!(ancestor_descendant_counts(&both, &both), vec![1, 0]);
    }

    #[test]
    fn deep_chain_counts_full_depth() {
        let tree = xp_datagen::builders::chain(30);
        let all: Vec<NodeId> = tree.elements().collect();
        let doc = IntervalScheme::dense().label(&tree);
        let both = ranked(&tree, &doc, &all);
        let depths: Vec<usize> = chains(&both, &both).iter().map(Vec::len).collect();
        // The i-th node (0-based) has exactly i ancestors above it.
        assert_eq!(depths, (0..=30).collect::<Vec<_>>());
        // And covers the 30 - i nodes below.
        assert_eq!(ancestor_descendant_counts(&both, &both), (0..=30).rev().collect::<Vec<_>>());
    }
}
