//! Deep documents: tree decomposition and label-to-path decoding.
//!
//! Depth is the prime scheme's weak axis (Figure 5): every level multiplies
//! another prime into the label. This example shows the two §3.2 answers:
//!
//! 1. **Tree decomposition** — cut the document into shards every few
//!    levels and label each shard with its own prime pool (the shard
//!    facade over `DynamicPrime`); a 100-level document's labels shrink
//!    from hundreds of bits to a few dozen, and each label's anchor chain
//!    still answers ancestor tests across shards.
//! 2. And the flip side of path-product labels: a label *is* its ancestor
//!    path — factorizing it recovers the full root chain with no tree
//!    access (`xp_prime::path::decode_path`).
//!
//! ```text
//! cargo run -p xmlprime --example deep_documents
//! ```

use xmlprime::prelude::*;
use xmlprime::prime::path::decode_path;

fn main() {
    // A deep document: a 100-level section hierarchy.
    let mut tree = XmlTree::new("doc");
    let mut at = tree.root();
    for i in 0..100 {
        at = tree.append_element(at, format!("sec{i}"));
    }
    let deepest = at;

    // Flat labeling: the deepest label is a product of 100 primes.
    let flat = TopDownPrime::unoptimized().label(&tree);
    println!("flat labeling:       max label {:>4} bits", flat.size_stats().max_bits);

    // Decomposed labeling at several cut depths.
    for cut in [4usize, 8, 16] {
        let scheme = ShardedScheme::new(DynamicPrime::default(), ShardPolicy::at_depth(cut));
        let (doc, shards) = scheme.init(&tree).unwrap();
        println!(
            "decomposed (cut {cut:>2}): max label {:>4} bits across {} shards",
            doc.size_stats().max_bits,
            shards.live_count(),
        );
        // The cross-shard ancestor test still answers from labels alone.
        let (top, bottom) = (doc.label(tree.root()), doc.label(deepest));
        assert_ne!(top.shard, bottom.shard);
        assert!(top.is_ancestor_of(bottom));
        assert!(!bottom.is_ancestor_of(top));
    }

    // Path decoding on a shallow-but-bushy document: one integer holds the
    // whole ancestry.
    let mut bush = XmlTree::new("library");
    let shelf = bush.append_element(bush.root(), "shelf");
    let book = bush.append_element(shelf, "book");
    let chapter = bush.append_element(book, "chapter");
    bush.append_element(bush.root(), "catalogue");
    let ordered = OrderedPrimeDoc::build(&bush, 5).unwrap();
    let label = ordered.labels().label(chapter);
    println!("\nchapter label = {} (self {})", label.value(), label.self_label());
    let path = decode_path(&ordered, label).unwrap();
    let tags: Vec<&str> = path.iter().map(|&n| bush.tag(n).unwrap()).collect();
    println!("decoded root path from the label alone: /{}", tags.join("/"));
    assert_eq!(tags, ["shelf", "book", "chapter"]);
}
