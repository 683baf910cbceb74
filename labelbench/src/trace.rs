//! The traced run: an in-process replay of a workload's seeded operation
//! stream that calls each layer's public functions in the order the server
//! does, with a span around every call.
//!
//! Nothing inside the program is instrumented. Spans record name, start,
//! end, parent span and operation id; they stay in memory and are written
//! out when the run ends. A layer's self time is its span's duration minus
//! its children's. Work the server does not do per operation (the lockstep
//! twin that splits `Store::apply_batch` into apply, patch and WAL, and the
//! engine's counting passes) runs outside the operation spans, so it never
//! counts toward an operation's time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xp_labelkit::{AncestorTester, LabelOps, LabeledStore, Mutation};
use xp_prime::DynamicPrime;
use xp_query::cache::DEFAULT_CACHE_CAPACITY;
use xp_query::engine::{eval_path, OrderOracle, Path as XPath};
use xp_query::instrument::measure_predicates;
use xp_query::{LabelTable, QueryCache, TouchedTags};
use xp_server::protocol::WireApply;
use xp_server::{EpochSnapshot, Publisher, Request, Response};
use xp_store::Store;
use xp_xmltree::NodeId;

use crate::inputs::{Op, Plan, Workload, URI};
use crate::stats::median;

/// SC chunk capacity `xmlprime save` uses by default.
const CHUNK: usize = 5;

/// Operation id of the set-up spans.
const SETUP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `crate.function` style.
    pub name: &'static str,
    /// Operation id (index in the global stream; [`SETUP`] for set-up).
    pub op: u64,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started.
    pub end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span and returns its result and duration (ns).
    fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        (out, self.spans[id].ns())
    }
}

/// What the traced run measured.
#[derive(Debug, Default)]
pub struct TraceResult {
    /// Per-layer values, by `BENCHMARK.json` name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Share of in-process operation time inside layer spans.
    pub coverage: f64,
    /// Median in-process query operation, ms.
    pub query_op_p50_ms: Option<f64>,
    /// Median in-process mutation operation, ms.
    pub mutation_op_p50_ms: Option<f64>,
    /// Traced answers that differ from the precomputed ones.
    pub wrong_answers: u64,
    /// The per-layer breakdown as a Markdown table.
    pub table: String,
    /// Every span, for writing out.
    pub spans: Vec<Span>,
}

/// Order oracle over a published snapshot, as the server's.
struct SnapRank<'a>(&'a EpochSnapshot);

impl OrderOracle for SnapRank<'_> {
    fn rank(&self, node: NodeId) -> u64 {
        self.0.rank(node)
    }
}

/// Counts and times every rank lookup (`order_of`) the engine makes.
struct TimedRank<'a> {
    snap: &'a EpochSnapshot,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl OrderOracle for TimedRank<'_> {
    fn rank(&self, node: NodeId) -> u64 {
        let t = Instant::now();
        let r = self.snap.rank(node);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// A label wrapper that times every ancestor and parent test.
#[derive(Debug, Clone)]
struct TimedLabel<L> {
    inner: L,
    ns: Arc<AtomicU64>,
}

impl<L: PartialEq> PartialEq for TimedLabel<L> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl<L: Eq> Eq for TimedLabel<L> {}

impl<L: LabelOps> TimedLabel<L> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<L: LabelOps> LabelOps for TimedLabel<L> {
    fn is_ancestor_of(&self, other: &Self) -> bool {
        self.timed(|| self.inner.is_ancestor_of(&other.inner))
    }

    fn is_parent_of(&self, other: &Self) -> bool {
        self.timed(|| self.inner.is_parent_of(&other.inner))
    }

    fn size_bits(&self) -> u64 {
        self.inner.size_bits()
    }

    fn level_hint(&self) -> Option<usize> {
        self.inner.level_hint()
    }

    fn ancestor_tester(&self) -> AncestorTester<'_, Self> {
        let inner = self.timed(|| self.inner.ancestor_tester());
        Box::new(move |other: &Self| self.timed(|| inner(&other.inner)))
    }
}

fn err(what: &str) -> impl Fn(String) -> String + '_ {
    move |e| format!("traced run, {what}: {e}")
}

/// Replays `plan`'s window in process. `scratch` holds the traced store.
pub fn run(plan: &Plan, scratch: &Path) -> Result<TraceResult, String> {
    let mut tr = Tracer::new();

    // Set-up, layer by layer, then the store's own add_document.
    let (tree, _) = tr.time("xmltree.parse", SETUP, || xp_xmltree::parse(&plan.xml));
    let tree = tree.map_err(|e| err("parse")(e.to_string()))?;
    let (twin, _) = tr.time("label.build", SETUP, || {
        LabeledStore::build(DynamicPrime::new(CHUNK), tree)
    });
    let mut twin = twin.map_err(|e| err("label build")(e.to_string()))?;
    let (mut twin_table, _) = tr.time("relstore.build", SETUP, || {
        LabelTable::build(twin.tree(), twin.doc())
    });
    let store_dir = scratch.join("trace-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = Store::create(&store_dir).map_err(|e| err("store create")(e.to_string()))?;
    let (added, _) = tr.time("store.add_document", SETUP, || {
        store.add_document(URI, &plan.xml, CHUNK)
    });
    added.map_err(|e| err("add_document")(e.to_string()))?;
    let labels = twin.doc();
    let bits_per_element = labels
        .iter()
        .map(|(_, l)| l.size_bits() as f64)
        .sum::<f64>()
        / labels.len().max(1) as f64;

    let doc = store.doc(URI).ok_or("traced store lost its document")?;
    let mut publisher = Publisher::new(EpochSnapshot::new(
        0,
        doc.seq(),
        doc.labeled().fork(),
        doc.table().clone(),
    ));
    let mut cache = (plan.workload == Workload::MixedCached)
        .then(|| QueryCache::new(DEFAULT_CACHE_CAPACITY, 0));
    let mut epoch = 0u64;

    let mut evals: Vec<(usize, u64)> = Vec::new(); // (path, ns) per engine.eval
    let mut wal_ns: Vec<f64> = Vec::new();
    let (mut touched, mut sc_updates, mut rows) = (0usize, 0usize, 0usize);
    let mut wrong_answers = 0u64;
    let mut query_ops = Vec::new();
    let mut mutation_ops = Vec::new();

    for (g, op) in plan.window.iter().enumerate() {
        let g = g as u64;
        let op_span = tr.begin("op", g);
        match op {
            Op::Query(p) => {
                let text = &plan.paths[*p];
                let (req, _) = tr.time("wire.codec", g, || {
                    Request::Query {
                        uri: URI.into(),
                        path: text.clone(),
                    }
                    .encode()
                });
                let (req, _) = tr.time("wire.codec", g, || Request::decode(&req));
                let Ok(Request::Query { path, .. }) = req else {
                    return Err("traced run: query request did not round-trip".into());
                };
                let (snap, _) = tr.time("snapshot.acquire", g, || publisher.current());
                let (parsed, _) = tr.time("engine.parse", g, || XPath::parse(&path));
                let parsed = parsed.map_err(|e| err("path parse")(e.to_string()))?;
                let hit = match cache.as_mut() {
                    Some(c) => {
                        tr.time("cache.lookup", g, || c.lookup(&path, snap.epoch()))
                            .0
                    }
                    None => None,
                };
                let nodes = match hit {
                    Some(nodes) => nodes,
                    None => {
                        let (nodes, ns) = tr.time("engine.eval", g, || snap.query(&parsed));
                        let nodes = nodes.map_err(|e| err("eval")(e.to_string()))?;
                        evals.push((*p, ns));
                        if let Some(c) = cache.as_mut() {
                            tr.time("cache.insert", g, || {
                                c.insert(&path, &parsed, snap.epoch(), nodes.clone())
                            });
                        }
                        nodes
                    }
                };
                let (resp, _) = tr.time("wire.codec", g, || {
                    Response::Hits {
                        epoch: snap.epoch(),
                        seq: snap.seq(),
                        nodes: nodes.iter().map(|n| n.index() as u64).collect(),
                    }
                    .encode()
                });
                let (resp, _) = tr.time("wire.codec", g, || Response::decode(&resp));
                if let (Ok(Response::Hits { nodes, .. }), Some(want)) =
                    (resp, plan.expected.get(*p))
                {
                    wrong_answers += u64::from(&nodes != want);
                }
                tr.end(op_span);
                query_ops.push(tr.spans[op_span].ns() as f64 / 1e6);
            }
            Op::Mutate(m) => {
                let (req, _) = tr.time("wire.codec", g, || {
                    Request::Apply {
                        uri: URI.into(),
                        mutations: vec![m.to_bytes()],
                    }
                    .encode()
                });
                let (req, _) = tr.time("wire.codec", g, || Request::decode(&req));
                let Ok(Request::Apply { mutations, .. }) = req else {
                    return Err("traced run: apply request did not round-trip".into());
                };
                let (mutation, _) = tr.time("store.decode", g, || {
                    let doc = store.doc(URI).ok_or("traced store lost its document")?;
                    Mutation::decode(&mut mutations[0].as_slice(), doc.tree())
                        .map_err(|e| e.to_string())
                });
                let mutation = mutation.map_err(err("decode"))?;
                let (results, apply_ns) = tr.time("store.apply_batch", g, || {
                    store.apply_batch(URI, std::slice::from_ref(&mutation))
                });
                let results = results.map_err(|e| err("apply_batch")(e.to_string()))?;
                let doc = store.doc(URI).ok_or("traced store lost its document")?;
                epoch += 1;
                let seq = doc.seq();
                tr.time("snapshot.publish", g, || {
                    publisher.publish(epoch, seq, std::slice::from_ref(&mutation))
                });
                if let Some(c) = cache.as_mut() {
                    tr.time("cache.invalidate", g, || {
                        let mut t = TouchedTags::new();
                        for r in &results {
                            match r {
                                Ok(report) => t.add_report(report, doc.tree()),
                                Err(_) => t.mark_unknown(),
                            }
                        }
                        c.advance(epoch, &t)
                    });
                }
                let wire: Vec<WireApply> = results
                    .iter()
                    .map(|r| match r {
                        Ok(report) => Ok(report.labels_touched() as u64),
                        Err(e) => Err(e.to_string()),
                    })
                    .collect();
                let (resp, _) = tr.time("wire.codec", g, || {
                    Response::Applied {
                        epoch,
                        seq,
                        results: wire,
                    }
                    .encode()
                });
                let (resp, _) = tr.time("wire.codec", g, || Response::decode(&resp));
                resp.map_err(|e| err("response decode")(e.to_string()))?;
                tr.end(op_span);
                mutation_ops.push(tr.spans[op_span].ns() as f64 / 1e6);

                // The lockstep twin splits apply_batch into its parts.
                let (report, label_ns) = tr.time("label.apply", g, || twin.apply(&mutation));
                let report = report.map_err(|e| err("twin apply")(e.to_string()))?;
                let (patch, patch_ns) = tr.time("relstore.patch", g, || {
                    twin_table.apply_report(twin.tree(), twin.doc(), &report)
                });
                wal_ns.push(apply_ns as f64 - label_ns as f64 - patch_ns as f64);
                touched += report.labels_touched();
                sc_updates += report.side_updates;
                rows += patch.rows_touched();
            }
        }
    }

    let mut out = TraceResult {
        wrong_answers,
        ..TraceResult::default()
    };
    let spans = &tr.spans;
    let (self_ns, coverage) = self_times(spans);
    out.coverage = coverage;
    out.query_op_p50_ms = (!query_ops.is_empty()).then(|| median(&query_ops));
    out.mutation_op_p50_ms = (!mutation_ops.is_empty()).then(|| median(&mutation_ops));

    let durations = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / scale)
            .collect()
    };
    let setup_ms = |name: &str| durations(name, 1e6).first().copied().unwrap_or(0.0);
    let m = &mut out.metrics;
    let (parse, build, table) = (
        setup_ms("xmltree.parse"),
        setup_ms("label.build"),
        setup_ms("relstore.build"),
    );
    m.insert("xmltree.parse_ms", parse);
    m.insert("label.build_ms", build);
    m.insert("relstore.build_ms", table);
    m.insert(
        "store.checkpoint_ms",
        setup_ms("store.add_document") - parse - build - table,
    );
    m.insert("label.bits_per_element", bits_per_element);
    m.insert("engine.parse_us", median(&durations("engine.parse", 1e3)));
    m.insert("cache.lookup_us", median(&durations("cache.lookup", 1e3)));
    m.insert("cache.insert_us", median(&durations("cache.insert", 1e3)));
    m.insert(
        "cache.invalidate_us",
        median(&durations("cache.invalidate", 1e3)),
    );
    m.insert("store.decode_us", median(&durations("store.decode", 1e3)));
    m.insert("label.apply_us", median(&durations("label.apply", 1e3)));
    m.insert(
        "relstore.patch_us",
        median(&durations("relstore.patch", 1e3)),
    );
    m.insert(
        "snapshot.publish_us",
        median(&durations("snapshot.publish", 1e3)),
    );
    m.insert("store.wal_us", median(&wal_ns) / 1e3);
    let codec_per_op: Vec<f64> = {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == "wire.codec") {
            *per_op.entry(s.op).or_default() += s.ns();
        }
        per_op.values().map(|&ns| ns as f64 / 1e3).collect()
    };
    m.insert("wire.codec_us", median(&codec_per_op));
    let mutations = mutation_ops.len().max(1) as f64;
    m.insert(
        "label.labels_touched_per_mutation",
        touched as f64 / mutations,
    );
    m.insert(
        "label.sc_updates_per_mutation",
        sc_updates as f64 / mutations,
    );
    m.insert(
        "relstore.rows_touched_per_mutation",
        rows as f64 / mutations,
    );
    m.insert("engine.eval_calls", evals.len() as f64);
    m.insert("label.apply_calls", mutation_ops.len() as f64);
    m.insert("trace.coverage", coverage);
    let eval_ms = |p: usize| -> Vec<f64> {
        evals
            .iter()
            .filter(|(q, _)| *q == p)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect()
    };
    let miss_ms: Vec<f64> = evals.iter().map(|(_, ns)| *ns as f64 / 1e6).collect();
    let cached = plan.workload == Workload::MixedCached;
    m.insert(
        "engine.miss_eval_ms",
        if cached { median(&miss_ms) } else { 0.0 },
    );
    for (i, name) in Q_METRICS.iter().enumerate() {
        let v = if plan.query_ids.len() > i {
            median(&eval_ms(i))
        } else {
            0.0
        };
        m.insert(name, v);
    }
    let engine = if plan.workload == Workload::PaperQueries {
        engine_profile(&publisher.current(), plan)?
    } else {
        EngineProfile::default()
    };
    m.insert("engine.rank_calls_per_row", engine.rank_calls_per_row);
    m.insert("engine.rank_share", engine.rank_share);
    m.insert("engine.ancestor_tests_per_row", engine.tests_per_row);
    m.insert("engine.label_bits_per_test", engine.bits_per_test);
    m.insert("engine.predicate_share", engine.predicate_share);

    out.table = breakdown(spans, &self_ns, coverage, &wal_ns);
    out.spans = tr.spans;
    Ok(out)
}

/// Per-query eval metrics, in Table-2 order.
const Q_METRICS: [&str; 9] = [
    "engine.q1_ms",
    "engine.q2_ms",
    "engine.q3_ms",
    "engine.q4_ms",
    "engine.q5_ms",
    "engine.q6_ms",
    "engine.q7_ms",
    "engine.q8_ms",
    "engine.q9_ms",
];

#[derive(Debug, Default)]
struct EngineProfile {
    rank_calls_per_row: f64,
    rank_share: f64,
    tests_per_row: f64,
    bits_per_test: f64,
    predicate_share: f64,
}

/// Counting and timing passes over each distinct query, outside the
/// operation spans: rank lookups through a timing oracle, ancestor tests
/// through `instrument::measure_predicates`, and predicate time through a
/// timing label wrapper built with `LabelTable::map_labels`. Every query
/// appears equally often in the stream, so per-query totals weight the mix
/// correctly.
fn engine_profile(snap: &EpochSnapshot, plan: &Plan) -> Result<EngineProfile, String> {
    let predicate_ns = Arc::new(AtomicU64::new(0));
    let timed_table = snap.table().map_labels(|l| TimedLabel {
        inner: l.clone(),
        ns: Arc::clone(&predicate_ns),
    });
    let (mut rows, mut rank_calls, mut rank_ns, mut rank_eval_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut tests, mut bits, mut pred_eval_ns) = (0u64, 0u64, 0u64);
    for text in &plan.paths {
        let path = XPath::parse(text).map_err(|e| err("path parse")(e.to_string()))?;
        let oracle = TimedRank {
            snap,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        };
        let t = Instant::now();
        let result =
            eval_path(snap.table(), &oracle, &path).map_err(|e| err("eval")(e.to_string()))?;
        rank_eval_ns += t.elapsed().as_nanos() as u64;
        rows += result.len() as u64;
        rank_calls += oracle.calls.load(Ordering::Relaxed);
        rank_ns += oracle.ns.load(Ordering::Relaxed);

        let (_, stats) = measure_predicates(snap.table(), &SnapRank(snap), &path)
            .map_err(|e| err("measure_predicates")(e.to_string()))?;
        tests += stats.ancestor_tests;
        bits += stats.label_bits_touched;

        let t = Instant::now();
        eval_path(&timed_table, &SnapRank(snap), &path).map_err(|e| err("eval")(e.to_string()))?;
        pred_eval_ns += t.elapsed().as_nanos() as u64;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Ok(EngineProfile {
        rank_calls_per_row: ratio(rank_calls, rows),
        rank_share: ratio(rank_ns, rank_eval_ns),
        tests_per_row: ratio(tests, rows),
        bits_per_test: ratio(bits, tests),
        predicate_share: ratio(predicate_ns.load(Ordering::Relaxed), pred_eval_ns),
    })
}

/// Self time per span, and the share of operation time inside layer spans.
fn self_times(spans: &[Span]) -> (Vec<u64>, f64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let self_ns: Vec<u64> = spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.ns().saturating_sub(*c))
        .collect();
    let (mut op_ns, mut covered) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name == "op" {
            op_ns += s.ns();
            covered += child_ns[i];
        }
    }
    let coverage = if op_ns == 0 {
        0.0
    } else {
        covered as f64 / op_ns as f64
    };
    (self_ns, coverage)
}

/// The per-layer table: every layer span inside operations, the untraced
/// remainder, and the lockstep split of `store.apply_batch`.
fn breakdown(spans: &[Span], self_ns: &[u64], coverage: f64, wal_ns: &[f64]) -> String {
    let op_total: u64 = spans.iter().filter(|s| s.name == "op").map(Span::ns).sum();
    let ops = spans.iter().filter(|s| s.name == "op").count();
    let mut layers: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.op != SETUP && s.name != "op" && s.parent.is_some() {
            layers.entry(s.name).or_default().push(self_ns[i]);
        }
    }
    let mut rows: Vec<(&str, Vec<u64>)> = layers.into_iter().collect();
    rows.sort_by_key(|(_, v)| std::cmp::Reverse(v.iter().sum::<u64>()));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| layer (span) | calls | self ms | share of op time | p50 us |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|");
    let row = |out: &mut String, name: &str, v: &[u64]| {
        let total: u64 = v.iter().sum();
        let p50 = median(&v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
        let share = if op_total == 0 {
            0.0
        } else {
            100.0 * total as f64 / op_total as f64
        };
        let _ = writeln!(
            out,
            "| {name} | {} | {:.1} | {share:.1}% | {p50:.1} |",
            v.len(),
            total as f64 / 1e6
        );
    };
    for (name, v) in &rows {
        row(&mut out, name, v);
    }
    let untraced: Vec<u64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "op")
        .map(|(i, _)| self_ns[i])
        .collect();
    row(&mut out, "untraced", &untraced);
    let _ = writeln!(
        out,
        "\n{ops} operations, {:.1} ms in process, {:.1}% inside layer spans.",
        op_total as f64 / 1e6,
        100.0 * coverage
    );
    let twin: Vec<(&str, Vec<u64>)> = ["label.apply", "relstore.patch"]
        .iter()
        .map(|&n| {
            (
                n,
                spans.iter().filter(|s| s.name == n).map(Span::ns).collect(),
            )
        })
        .collect();
    if !wal_ns.is_empty() {
        let _ = writeln!(
            out,
            "\n`store.apply_batch` split on a lockstep twin (outside the operations):\n"
        );
        let _ = writeln!(out, "| part | calls | ms | p50 us |");
        let _ = writeln!(out, "|---|---:|---:|---:|");
        let mut part = |name: &str, v: Vec<f64>| {
            let _ = writeln!(
                out,
                "| {name} | {} | {:.1} | {:.1} |",
                v.len(),
                v.iter().sum::<f64>() / 1e6,
                median(&v) / 1e3
            );
        };
        for (name, v) in twin {
            part(name, v.iter().map(|&ns| ns as f64).collect());
        }
        part("store.wal (apply_batch − apply − patch)", wal_ns.to_vec());
    }
    let setup: Vec<&Span> = spans.iter().filter(|s| s.op == SETUP).collect();
    if !setup.is_empty() {
        let _ = writeln!(out, "\nSet-up, in process:\n");
        let _ = writeln!(out, "| call | ms |");
        let _ = writeln!(out, "|---|---:|");
        for s in setup {
            let _ = writeln!(out, "| {} | {:.1} |", s.name, s.ns() as f64 / 1e6);
        }
    }
    out
}

/// Writes every span as tab-separated `op name parent start_ns end_ns`.
pub fn write_spans(spans: &[Span], file: &Path) -> std::io::Result<()> {
    let mut out = String::from("op\tname\tparent\tstart_ns\tend_ns\n");
    for s in spans {
        let op = if s.op == SETUP {
            "setup".to_string()
        } else {
            s.op.to_string()
        };
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(out, "{op}\t{}\t{parent}\t{}\t{}", s.name, s.start, s.end);
    }
    std::fs::write(file, out)
}
