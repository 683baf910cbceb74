//! Soak test: the full pipeline at dataset scale — generate the largest
//! Table 1 document plus an XMark-like site, label under every scheme,
//! churn the ordered document, query it, and round-trip the persistence
//! layer. One test, end to end, nothing mocked.

use xmlprime::datagen::auction::{generate_site, AuctionParams};
use xmlprime::datagen::datasets::dataset;
use xmlprime::labelkit::codec::{decode_doc, encode_doc};
use xmlprime::prelude::*;

#[test]
fn full_pipeline_on_d9() {
    // 1. Generate + label D9 (10 052 elements) under every scheme.
    let tree = dataset("D9").unwrap().generate(1);
    let n = tree.elements().count();
    assert_eq!(n, 10_052);

    let prime = TopDownPrime::optimized().label(&tree);
    let interval = IntervalScheme::dense().label(&tree);
    let prefix = Prefix2Scheme.label(&tree);
    assert_eq!(prime.len(), n);
    assert_eq!(interval.len(), n);
    assert_eq!(prefix.len(), n);

    // 2. Sampled ancestor agreement at scale.
    let nodes: Vec<NodeId> = tree.elements().collect();
    for i in (0..nodes.len()).step_by(509) {
        for j in (0..nodes.len()).step_by(401) {
            let truth = tree.is_ancestor(nodes[i], nodes[j]);
            assert_eq!(prime.label(nodes[i]).is_ancestor_of(prime.label(nodes[j])), truth);
            assert_eq!(interval.label(nodes[i]).is_ancestor_of(interval.label(nodes[j])), truth);
            assert_eq!(prefix.label(nodes[i]).is_ancestor_of(prefix.label(nodes[j])), truth);
        }
    }

    // 3. The persistence layer round-trips the full prime table.
    let bytes = encode_doc(&prime);
    let decoded: LabeledDoc<PrimeLabel> = decode_doc(&tree, &bytes).unwrap();
    for &node in nodes.iter().step_by(97) {
        assert_eq!(decoded.label(node), prime.label(node));
    }
}

#[test]
fn ordered_churn_on_an_auction_site() {
    // An XMark-like site under sustained ordered churn.
    let mut tree = generate_site(7, &AuctionParams::small());
    let mut doc = OrderedPrimeDoc::build(&tree, 5).unwrap();

    let open_auctions = |t: &XmlTree| -> Vec<NodeId> {
        t.elements().filter(|&n| t.tag(n) == Some("open_auction")).collect()
    };

    // 30 rounds: prepend a hot auction, close (delete) a stale one.
    for round in 0..30 {
        let auctions = open_auctions(&tree);
        let first = auctions[0];
        doc.insert_sibling_before(&mut tree, first, "open_auction").unwrap();
        if round % 3 == 2 {
            let auctions = open_auctions(&tree);
            let stale = *auctions.last().unwrap();
            doc.delete(&mut tree, stale).unwrap();
        }
        doc.verify_order_consistency(&tree);
    }

    // Queries still answer correctly from labels + SC alone, across schemes.
    let prime_ev = PrimeEvaluator::build(&tree, 5);
    let interval_ev = IntervalEvaluator::build(&tree);
    for path in [
        "//open_auction",
        "//open_auction/bidder",
        "//person[address]",
        "//regions//item/following::open_auction",
    ] {
        assert_eq!(prime_ev.eval_str(path), interval_ev.eval_str(path), "{path}");
    }
}
