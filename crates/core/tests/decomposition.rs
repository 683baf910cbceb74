//! §3.2's tree decomposition as the system serves it: [`ShardedPrime`], the
//! shard facade over [`DynamicPrime`], cut at every `d` levels.
//!
//! The facade must keep what the paper claims for the decomposition:
//! ancestry across subtrees decided exactly from labels alone, one subtree
//! per cut, local labels that restart in every subtree, and much smaller
//! labels on deep documents.

use xp_datagen::builders::{chain, random_tree, RandomTreeParams};
use xp_labelkit::{
    DynamicScheme, LabelOps, LabeledDoc, Scheme, ShardPolicy, ShardedLabel, ShardedState,
};
use xp_prime::{DynamicPrime, PrimeLabel, ShardedPrime, TopDownPrime};
use xp_xmltree::{parse, NodeId, XmlTree};

type Decomposed = (LabeledDoc<ShardedLabel<PrimeLabel>>, ShardedState<DynamicPrime>);

fn decompose(tree: &XmlTree, cut: usize) -> Decomposed {
    ShardedPrime::new(DynamicPrime::default(), ShardPolicy::at_depth(cut)).init(tree).unwrap()
}

fn check_against_tree(tree: &XmlTree, cut: usize) {
    let (doc, _) = decompose(tree, cut);
    let nodes: Vec<NodeId> = tree.elements().collect();
    for &x in &nodes {
        for &y in &nodes {
            assert_eq!(
                doc.label(x).is_ancestor_of(doc.label(y)),
                tree.is_ancestor(x, y),
                "cut={cut} ancestor({x},{y})"
            );
        }
    }
}

#[test]
fn exact_on_small_trees_for_all_cut_depths() {
    let tree = parse("<a><b><c><d><e/><f/></d></c></b><g><h><i/></h></g></a>").unwrap();
    for cut in 1..=6 {
        check_against_tree(&tree, cut);
    }
}

#[test]
fn exact_on_random_trees() {
    for seed in 0..5 {
        let tree = random_tree(
            seed,
            &RandomTreeParams { nodes: 120, max_depth: 10, max_fanout: 5, tag_variety: 3 },
        );
        for cut in [1, 2, 3, 5] {
            check_against_tree(&tree, cut);
        }
    }
}

#[test]
fn cut_one_makes_every_node_a_subtree_root() {
    let tree = parse("<a><b/><c><d/></c></a>").unwrap();
    let (_, shards) = decompose(&tree, 1);
    assert_eq!(shards.live_count(), 4);
    check_against_tree(&tree, 1);
}

#[test]
fn deep_chains_get_dramatically_smaller_labels() {
    // Depth is the prime scheme's weakness; decomposition caps the product
    // at `cut` factors.
    let deep = chain(120);
    let flat = TopDownPrime::unoptimized().label(&deep).size_stats().max_bits;
    let (doc, _) = decompose(&deep, 8);
    let decomposed = doc.size_stats().max_bits;
    assert!(decomposed * 4 < flat, "decomposed {decomposed} bits vs flat {flat} bits");
    check_against_tree(&deep, 8);
}

#[test]
fn shallow_documents_pay_almost_nothing() {
    let tree = parse("<a><b><c/></b><d><e/></d></a>").unwrap();
    let (doc, shards) = decompose(&tree, 10);
    assert_eq!(shards.live_count(), 1, "no cut is ever reached");
    // One shard holds the flat labels; its id 0 costs one bit.
    let flat = DynamicPrime::default().label(&tree).size_stats().max_bits;
    assert_eq!(doc.size_stats().max_bits, flat + 1);
    check_against_tree(&tree, 10);
}

#[test]
fn subtree_ids_and_locals_are_consistent() {
    let tree = parse("<a><b><c><d/></c></b></a>").unwrap();
    let (doc, shards) = decompose(&tree, 2);
    // Depths: a=0 b=1 c=2 d=3 → shards {a,b} and {c,d}.
    assert_eq!(shards.live_count(), 2);
    let nodes: Vec<NodeId> = tree.elements().collect();
    let shard = |i: usize| doc.label(nodes[i]).shard;
    assert_eq!(shard(0), shard(1));
    assert_eq!(shard(2), shard(3));
    assert_ne!(shard(0), shard(2));
    // Local roots restart at label 1 in each shard.
    assert!(doc.label(nodes[0]).local.value().is_one());
    assert!(doc.label(nodes[2]).local.value().is_one());
}
