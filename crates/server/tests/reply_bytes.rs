//! Reply bytes per result row: a count gate on the `Hits` wire format.
//!
//! A query reply carries its node list as zigzag deltas between
//! consecutive arena ids (see `xp_server::protocol`). Answers come in
//! document order and a parsed document's arena slots follow document
//! order, so a reply should cost about one payload byte per row. These
//! tests encode real answers with `Response::encode` and bound the payload
//! size per row — a count, not a clock, so it holds on any host:
//!
//! * the Table-2 answers on the Figure-15 corpus at 10 replicas, and the
//!   88 hot region paths of the `mixed_cached` document (8 regions ×
//!   2,500), each at most [`MAX_BYTES_PER_ROW`] (absolute ids took 2.85
//!   and 2.38 bytes per row);
//! * after a few hundred seeded mutations through a real epoch loop,
//!   where ids that inserts handed out appear out of order and cost
//!   backward deltas, every answer still round-trips exactly, framed and
//!   unframed.
//!
//! The server parses the document text it is given, so the answers here
//! are taken on the parsed text too, from the interval evaluator (an
//! evaluator independent of the prime labels the server answers from).

use xp_datagen::multiwriter::{initial_tree, query_paths, scripted, TraceParams};
use xp_datagen::shakespeare::ShakespeareCorpus;
use xp_query::engine::Path;
use xp_query::queries::TEST_QUERIES;
use xp_query::{Evaluator, IntervalEvaluator};
use xp_server::epoch::{BatchPolicy, EpochLoop};
use xp_server::protocol::{read_message, write_message, Request, Response};
use xp_store::Store;
use xp_xmltree::{serialize, XmlTree};

/// Ceiling on payload bytes per result row over a whole answer set.
const MAX_BYTES_PER_ROW: f64 = 1.1;

/// The Figure-15 corpus seed, as the response-time figure and the
/// benchmark's `paper_queries` workload use it.
const FIG15_SEED: u64 = 2004;

fn answers(tree: &XmlTree, paths: &[String]) -> Vec<Vec<u64>> {
    let ev = IntervalEvaluator::build(tree);
    paths
        .iter()
        .map(|p| ev.eval(&Path::parse(p).unwrap()).iter().map(|n| n.index() as u64).collect())
        .collect()
}

fn reply(nodes: Vec<u64>) -> Response {
    Response::Hits { epoch: 0, seq: 0, nodes }
}

/// Payload bytes per row over every answer, each encoded as one reply
/// (the empty reply's bytes are the fixed header and count, not rows).
fn bytes_per_row(name: &str, paths: &[String], answers: &[Vec<u64>]) -> f64 {
    let header = reply(Vec::new()).encode().len();
    let (mut bytes, mut rows) = (0usize, 0usize);
    let mut report = String::new();
    for (path, nodes) in paths.iter().zip(answers) {
        let payload = reply(nodes.clone()).encode();
        report += &format!("  {path}: {} rows, {} bytes\n", nodes.len(), payload.len());
        bytes += payload.len() - header;
        rows += nodes.len();
    }
    assert!(rows > 0, "{name}: no rows to measure");
    let per_row = bytes as f64 / rows as f64;
    println!("{name}: {bytes} node-list bytes for {rows} rows = {per_row:.3} B/row\n{report}");
    per_row
}

#[test]
fn table2_answers_cost_about_a_byte_per_row() {
    let xml = serialize::to_string(&ShakespeareCorpus::generate(10, FIG15_SEED).tree);
    let served = xp_xmltree::parse(&xml).unwrap();
    let paths: Vec<String> = TEST_QUERIES.iter().map(|q| q.path.to_string()).collect();
    let answers = answers(&served, &paths);
    let per_row = bytes_per_row("Table 2", &paths, &answers);
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "Table-2 replies take {per_row:.3} payload bytes per row (ceiling {MAX_BYTES_PER_ROW})"
    );
}

#[test]
fn region_paths_cost_about_a_byte_per_row() {
    let params = TraceParams { writers: 8, steps_per_writer: 0, region_breadth: 2_500, seed: 0 };
    let xml = serialize::to_string(&initial_tree(&params));
    let served = xp_xmltree::parse(&xml).unwrap();
    let paths: Vec<String> = (0..params.writers).flat_map(query_paths).collect();
    assert_eq!(paths.len(), 88);
    let answers = answers(&served, &paths);
    let per_row = bytes_per_row("region paths", &paths, &answers);
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "region replies take {per_row:.3} payload bytes per row (ceiling {MAX_BYTES_PER_ROW})"
    );
}

/// Sends `resp` through the frame codec and back, then through the
/// unframed codec, and checks both return it exactly.
fn assert_round_trips(resp: &Response, context: &str) {
    let mut wire = Vec::new();
    write_message(&mut wire, |out| resp.encode_into(out)).unwrap();
    let payload = read_message(&mut wire.as_slice()).unwrap().unwrap();
    assert_eq!(&Response::decode(&payload).unwrap(), resp, "{context}: framed round trip");
    assert_eq!(&Response::decode(&resp.encode()).unwrap(), resp, "{context}: round trip");
}

#[test]
fn answers_after_mutations_round_trip_exactly() {
    let params =
        TraceParams { writers: 8, steps_per_writer: 40, region_breadth: 500, seed: 0x2117 };
    let xml = serialize::to_string(&initial_tree(&params));
    let dir = std::env::temp_dir().join(format!("xp-server-reply-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::create(&dir).unwrap();
    store.add_document("doc.xml", &xml, 4).unwrap();
    let policy = BatchPolicy { max_mutations: 16, checkpoint_after: None };
    let epoch = EpochLoop::start(store, policy);
    let paths: Vec<String> = (0..params.writers).flat_map(query_paths).collect();

    let mut backward = 0usize;
    for step in 0..params.steps_per_writer {
        // One batch per step: every writer's next scripted mutation,
        // derived from the published tree.
        let snap = epoch.docs().read().unwrap().get("doc.xml").cloned().unwrap();
        let tree = snap.labeled().tree();
        let mutations = (0..params.writers)
            .map(|w| {
                let mut bytes = Vec::new();
                scripted(&params, w, step, tree).encode(&mut bytes);
                bytes
            })
            .collect();
        match epoch.handle(Request::Apply { uri: "doc.xml".into(), mutations }) {
            Response::Applied { .. } => {}
            other => panic!("step {step}: apply got {other:?}"),
        }
        if step % 8 != 7 {
            continue;
        }
        for path in &paths {
            let resp = epoch.handle(Request::Query { uri: "doc.xml".into(), path: path.clone() });
            let Response::Hits { nodes, .. } = &resp else {
                panic!("step {step}: query {path} got {resp:?}");
            };
            backward += nodes.windows(2).filter(|w| w[1] < w[0]).count();
            assert_round_trips(&resp, &format!("step {step}, {path}"));
        }
    }
    // The mutations must have put inserted ids out of document order, or
    // this test never saw a backward delta.
    assert!(backward > 0, "no answer had an id below its predecessor");
    epoch.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
