//! End-to-end socket tests: protocol round trips over real TCP and Unix
//! connections, concurrent readers against a mutating document, and
//! clean shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use xp_labelkit::ShardPolicy;
use xp_server::{serve, BatchPolicy, Client, ListenConfig, WireMutation, WirePos};
use xp_store::{ShardedDocStore, Store};

const DOC_XML: &str = "<t0><t1><t2/></t1><t1/></t0>";

fn scratch_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xp-server-sock-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(label: &str) -> (xp_server::Handle, PathBuf) {
    let dir = scratch_dir(label);
    let mut store = Store::create(&dir).unwrap();
    store.add_document("doc.xml", DOC_XML, 4).unwrap();
    let listen = ListenConfig {
        tcp: Some("127.0.0.1:0".into()),
        unix: Some(dir.join("server.sock")),
    };
    let handle = serve(store, listen, BatchPolicy::default()).unwrap();
    (handle, dir)
}

#[test]
fn tcp_round_trip_ping_docs_query_apply() {
    let (handle, dir) = start_server("tcp");
    let addr = handle.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();

    client.ping().unwrap();
    let docs = client.docs().unwrap();
    assert_eq!(docs.len(), 1);
    assert_eq!(docs[0].uri, "doc.xml");
    assert_eq!(docs[0].epoch, 0);
    assert_eq!(docs[0].elements, 4);

    let hits = client.query("doc.xml", "//t1").unwrap();
    assert_eq!(hits.nodes.len(), 2);
    assert_eq!(hits.epoch, 0);

    // Apply: insert one subtree; the ack carries the publishing epoch.
    let root = 0u64; // arena slot of the document root
    let applied = client
        .apply(
            "doc.xml",
            &[WireMutation::InsertSubtree {
                pos: WirePos::LastChildOf(root),
                xml: "<t1><t3/></t1>".into(),
            }],
        )
        .unwrap();
    assert_eq!(applied.results.len(), 1);
    assert!(applied.results[0].is_ok());
    assert!(applied.epoch >= 1);

    // The next query must see the new epoch and the new element.
    let hits = client.query("doc.xml", "//t1").unwrap();
    assert_eq!(hits.nodes.len(), 3);
    assert!(hits.epoch >= applied.epoch);

    let stats = client.stats().unwrap();
    assert_eq!(stats.applied, 1);
    assert_eq!(stats.epochs, 1);

    // Typed errors for bad inputs.
    assert!(client.query("missing.xml", "//t1").is_err());
    assert!(client.query("doc.xml", "//t1[").is_err());

    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_speaks_the_same_protocol() {
    let (handle, dir) = start_server("unix");
    let path = handle.unix_path().unwrap().clone();
    let mut client = Client::connect_unix(&path).unwrap();
    client.ping().unwrap();
    let hits = client.query("doc.xml", "/t0//t2").unwrap();
    assert_eq!(hits.nodes.len(), 1);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_request_stops_the_server_and_recovers_cleanly() {
    let (handle, dir) = start_server("shutdown");
    let addr = handle.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();
    client
        .apply(
            "doc.xml",
            &[WireMutation::InsertBefore { anchor: 1, tag: "t2".into() }],
        )
        .unwrap();
    client.shutdown().unwrap();
    // join() returns the store; the document reflects the applied
    // mutation and reopening from disk agrees.
    let store = handle.join().unwrap();
    assert_eq!(store.doc("doc.xml").unwrap().seq(), 1);
    drop(store);
    let reopened = Store::open(&dir).unwrap();
    reopened.verify().unwrap();
    assert_eq!(reopened.doc("doc.xml").unwrap().seq(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same server answers a sharded document: the one epoch loop runs
/// either document kind behind the same protocol.
#[test]
fn a_sharded_document_serves_over_the_same_socket() {
    let dir = scratch_dir("sharded");
    let tree = xp_xmltree::parse(DOC_XML).unwrap();
    let store =
        ShardedDocStore::create(&dir, "doc.xml", tree, 4, ShardPolicy::at_depth(1)).unwrap();
    assert!(store.live_shards().len() > 1);
    let listen = ListenConfig { tcp: None, unix: Some(dir.join("server.sock")) };
    let handle = serve(store, listen, BatchPolicy::default()).unwrap();
    let mut client = Client::connect_unix(handle.unix_path().unwrap()).unwrap();

    let docs = client.docs().unwrap();
    assert_eq!((docs.len(), docs[0].epoch, docs[0].elements), (1, 0, 4));
    let applied = client
        .apply(
            "doc.xml",
            &[WireMutation::InsertSubtree {
                pos: WirePos::LastChildOf(0),
                xml: "<t1><t3/></t1>".into(),
            }],
        )
        .unwrap();
    assert!(applied.results[0].is_ok());
    assert_eq!(applied.epoch, 1);
    let hits = client.query("doc.xml", "//t1").unwrap();
    assert_eq!((hits.epoch, hits.nodes.len()), (1, 3));
    assert_eq!(client.query("doc.xml", "/t0//t3").unwrap().nodes.len(), 1);
    assert!(client.query("missing.xml", "//t1").is_err());
    assert_eq!(client.stats().unwrap().applied, 1);

    let store = handle.join().unwrap();
    assert_eq!(store.seq(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent readers against a mutating document, checked from the
/// *client* side: the writer only ever inserts `<p><x/><y/></p>` as one
/// atomic subtree, so in any consistent labeling `count(//x) ==
/// count(//y)`. Every query response is epoch-stamped; whenever a reader
/// sees two responses from the same epoch, the counts must match — a torn
/// labeling (snapshot mutated mid-query, or a half-applied batch made
/// visible) would break the pair.
#[test]
fn concurrent_readers_never_observe_a_torn_labeling() {
    let (handle, dir) = start_server("isolation");
    let addr = handle.tcp_addr().unwrap().to_string();
    const WRITES: u64 = 40;
    const READERS: usize = 8;

    let done = Arc::new(AtomicBool::new(false));
    let same_epoch_pairs = Arc::new(AtomicU64::new(0));

    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).unwrap();
            for _ in 0..WRITES {
                let applied = client
                    .apply(
                        "doc.xml",
                        &[WireMutation::InsertSubtree {
                            pos: WirePos::LastChildOf(0),
                            xml: "<p><x/><y/></p>".into(),
                        }],
                    )
                    .unwrap();
                assert!(applied.results[0].is_ok());
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let addr = addr.clone();
            let done = Arc::clone(&done);
            let pairs = Arc::clone(&same_epoch_pairs);
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).unwrap();
                while !done.load(Ordering::Relaxed) {
                    let xs = client.query("doc.xml", "//x").unwrap();
                    let ys = client.query("doc.xml", "//y").unwrap();
                    if xs.epoch == ys.epoch {
                        assert_eq!(
                            xs.nodes.len(),
                            ys.nodes.len(),
                            "torn labeling at epoch {}",
                            xs.epoch
                        );
                        pairs.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    writer.join().unwrap();
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    // Quiesced state: everything the writer inserted is visible.
    let mut client = Client::connect_tcp(&addr).unwrap();
    let xs = client.query("doc.xml", "//x").unwrap();
    let ys = client.query("doc.xml", "//y").unwrap();
    assert_eq!(xs.nodes.len() as u64, WRITES);
    assert_eq!(ys.nodes.len() as u64, WRITES);
    assert!(
        same_epoch_pairs.load(Ordering::Relaxed) > 0,
        "the isolation check never got a same-epoch pair — no coverage"
    );

    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
