//! The epoch-stamped query-result cache under a read-heavy mixed
//! workload: 95% queries / 5% mutations over a document split into
//! disjoint writer regions with private tag vocabularies
//! (`xp_datagen::multiwriter`), every mutation confined to the *last*
//! region. (Last, not first: an order shift re-solves every following
//! SC record, so churning the final region keeps each mutation
//! O(region tail) instead of O(document) at the 10⁶-element scale —
//! which region churns is irrelevant to the invalidation semantics.)
//!
//! The run measures and *checks* four things:
//!
//! * **Hit rate** (> 50% acceptance gate): with precise tag-footprint
//!   invalidation, only the mutated region's entries churn (the mix has
//!   no wildcard footprint: its `parent::*` step is upward); the other
//!   regions' entries survive every epoch.
//! * **Zero stale answers**: sampled reads re-evaluate cold against the
//!   published snapshot and, whenever the epochs match, the cached answer
//!   must be byte-identical.
//! * **Per-label invalidation**, demonstrated after quiescing: one more
//!   mutation to the churned region must leave every other region's
//!   non-wildcard entry hot — counted exactly, not approximately.
//! * **Cached vs uncached latency** on the identical workload (the same
//!   seeds, paths, and pacing with the cache disabled).
//!
//! The mutator keeps a direct-apply [`LabeledStore`] oracle in lockstep
//! and the run ends with `verify::equivalent` plus the store's own
//! consistency suite, so a cache bug cannot hide behind fast numbers.

use super::inproc::InprocServer;
use super::SEED;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use xp_datagen::multiwriter::{initial_tree, region_tag, scripted, writer_tags, TraceParams};
use xp_labelkit::LabeledStore;
use xp_prime::DynamicPrime;
use xp_query::engine::Path;
use xp_query::TagFootprint;
use xp_store::verify;
use xp_testkit::rng::{RngExt, SeedableRng, StdRng};
use xp_xmltree::serialize;

/// Workload shape for [`query_cache_bench`].
#[derive(Debug, Clone)]
pub struct CacheWorkload {
    /// Initial elements in the served document (split across regions).
    pub nodes: usize,
    /// Disjoint writer regions (distinct tag vocabularies).
    pub regions: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Queries per reader.
    pub ops_per_reader: usize,
}

/// Reads per mutation — the 95/5 mix. The mutator paces itself against
/// the readers' shared op counter, so the ratio holds throughout the run
/// instead of front-loading the mutations.
pub const READS_PER_MUTATION: usize = 19;

/// Every `DIFF_EVERY`-th read re-evaluates cold and compares (when the
/// snapshot still answers for the same epoch).
const DIFF_EVERY: usize = 8;

const CACHE_CAPACITY: usize = 4096;

/// Per-region query mix: cheap-axis paths over the region's private
/// vocabulary, plus one upward wildcard (`parent::*`) entry, which caches
/// under its context tag alone and so survives other regions' epochs too.
pub fn bench_paths(w: usize) -> Vec<String> {
    let [a, b, c] = writer_tags(w);
    let region = region_tag(w);
    vec![
        format!("//{region}/{a}"),
        format!("//{b}"),
        format!("/db//{c}"),
        format!("//{a}[1]"),
        // Single context node: at bench scale a region root has tens of
        // thousands of direct children, and a whole-set sibling axis
        // would be quadratic in that width.
        format!("//{a}[1]/following-sibling::{b}"),
        format!("//{c}/parent::*"),
    ]
}

/// Measurements and invariant-check outcomes from [`query_cache_bench`].
#[derive(Debug, Clone)]
pub struct CacheBenchStats {
    /// The workload that produced these numbers.
    pub workload: CacheWorkload,
    /// Completed reads per pass (cached pass == uncached pass).
    pub reads: u64,
    /// Acknowledged mutations per pass.
    pub mutations: u64,
    /// hits ÷ (hits + misses) over the cached pass.
    pub hit_rate: f64,
    /// Cache hits (cached pass).
    pub hits: u64,
    /// Cache misses (cached pass).
    pub misses: u64,
    /// Entries dropped by invalidation (cached pass).
    pub invalidated: u64,
    /// Read latency percentiles with the cache on, microseconds.
    pub cached_p50_us: f64,
    /// 99th percentile, cache on.
    pub cached_p99_us: f64,
    /// Read latency percentiles with the cache off, microseconds.
    pub uncached_p50_us: f64,
    /// 99th percentile, cache off.
    pub uncached_p99_us: f64,
    /// Same-epoch hot-vs-cold comparisons performed (both passes).
    pub differential_checked: u64,
    /// Comparisons that disagreed — any nonzero is a stale answer.
    pub differential_mismatches: u64,
    /// Non-wildcard entries of the untouched regions warmed before the
    /// survivor probe.
    pub survivors_expected: u64,
    /// How many of them were still hot after one more mutation to the
    /// churned region.
    pub survivors_hot: u64,
    /// Both passes' final documents equal the direct-apply oracle.
    pub converged: bool,
    /// Both stores passed `verify()` after shutdown.
    pub final_consistent: bool,
}

fn percentile(sorted: &[u64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)] as f64 / 1e3
}

struct ReaderRun {
    read_ns: Vec<u64>,
    checked: u64,
    mismatches: u64,
}

fn reader(
    server: &InprocServer,
    paths: &[Vec<String>],
    reader: usize,
    ops: usize,
    read_counter: &AtomicU64,
) -> ReaderRun {
    let mut rng = StdRng::seed_from_u64(SEED ^ ((reader as u64 + 1) << 32));
    let mut run = ReaderRun { read_ns: Vec::with_capacity(ops), checked: 0, mismatches: 0 };
    for i in 0..ops {
        let region = rng.gen_range(0..paths.len());
        let mix = &paths[region];
        let path = &mix[rng.gen_range(0..mix.len())];
        let t = Instant::now();
        let (epoch, nodes) = server.query(path);
        run.read_ns.push(t.elapsed().as_nanos() as u64);
        read_counter.fetch_add(1, Ordering::Relaxed);
        if i % DIFF_EVERY == reader % DIFF_EVERY {
            // Hot-vs-cold differential, off the timed path. Only a
            // same-epoch snapshot is a valid oracle for the answer.
            let snap = server.snapshot();
            if snap.epoch() == epoch {
                let parsed = Path::parse(path).expect("bench path parses");
                let cold: Vec<u64> = snap
                    .query(&parsed)
                    .expect("cold evaluation")
                    .iter()
                    .map(|n| n.index() as u64)
                    .collect();
                run.checked += 1;
                if cold != nodes {
                    run.mismatches += 1;
                }
            }
        }
    }
    run
}

struct MutatorRun {
    acked: u64,
    oracle: LabeledStore<DynamicPrime>,
}

/// Applies `total` script steps against the last region, paced at one
/// mutation per [`READS_PER_MUTATION`] reads, keeping a direct-apply
/// oracle in lockstep with the served document.
fn mutator(
    server: &InprocServer,
    params: &TraceParams,
    xml: &str,
    total: usize,
    read_counter: &AtomicU64,
    readers_done: &AtomicBool,
) -> MutatorRun {
    // Parse the same serialized form the store ingested, so the oracle's
    // arena NodeIds line up with the served document's.
    let mut oracle = LabeledStore::build(DynamicPrime::new(4), xp_xmltree::parse(xml).expect("xml"))
        .expect("oracle build");
    let mut acked = 0u64;
    for step in 0..total {
        let due = (step as u64 + 1) * READS_PER_MUTATION as u64;
        while read_counter.load(Ordering::Relaxed) < due && !readers_done.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let mutation = scripted(params, params.writers - 1, step, oracle.tree());
        let got = server.apply(&mutation);
        let want = oracle.apply(&mutation);
        assert_eq!(
            got.is_ok(),
            want.is_ok(),
            "step {step}: served document and oracle disagree on the outcome"
        );
        if got.is_ok() {
            acked += 1;
        }
    }
    MutatorRun { acked, oracle }
}

struct PassResult {
    read_ns: Vec<u64>,
    checked: u64,
    mismatches: u64,
    acked: u64,
    converged: bool,
    consistent: bool,
    hits: u64,
    misses: u64,
    invalidated: u64,
    survivors_expected: u64,
    survivors_hot: u64,
}

fn run_pass(
    tag: &str,
    xml: &str,
    params: &TraceParams,
    workload: &CacheWorkload,
    cache: Option<usize>,
) -> PassResult {
    let server = InprocServer::start(tag, xml, cache);
    let paths: Vec<Vec<String>> = (0..workload.regions).map(bench_paths).collect();
    let total_reads = workload.readers * workload.ops_per_reader;
    let total_mutations = total_reads / READS_PER_MUTATION;
    let read_counter = AtomicU64::new(0);
    let readers_done = AtomicBool::new(false);

    let (runs, mut_run) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workload.readers)
            .map(|r| {
                let server = &server;
                let paths = &paths;
                let counter = &read_counter;
                let ops = workload.ops_per_reader;
                s.spawn(move || reader(server, paths, r, ops, counter))
            })
            .collect();
        let m = s.spawn(|| {
            mutator(&server, params, xml, total_mutations, &read_counter, &readers_done)
        });
        let runs: Vec<ReaderRun> =
            handles.into_iter().map(|h| h.join().expect("bench reader thread")).collect();
        readers_done.store(true, Ordering::Relaxed);
        (runs, m.join().expect("bench mutator thread"))
    });
    let MutatorRun { acked, mut oracle } = mut_run;

    // Per-label invalidation, counted exactly: warm every region's mix,
    // mutate the churned (last) region once more, and require every
    // other region's entries with a non-wildcard footprint to answer from
    // the cache.
    let (mut survivors_expected, mut survivors_hot) = (0u64, 0u64);
    if cache.is_some() {
        for _pass in 0..2 {
            for mix in &paths {
                for p in mix {
                    server.query(p);
                }
            }
        }
        let mutation = scripted(params, params.writers - 1, total_mutations, oracle.tree());
        let got = server.apply(&mutation);
        let want = oracle.apply(&mutation);
        assert_eq!(got.is_ok(), want.is_ok(), "survivor-probe mutation outcome");
        let survives = |p: &&String| {
            !TagFootprint::of_path(&Path::parse(p).expect("bench path parses")).wildcard
        };
        let before = server.counters().stats();
        for mix in paths.iter().take(paths.len() - 1) {
            for p in mix.iter().filter(survives) {
                server.query(p);
                survivors_expected += 1;
            }
        }
        let after = server.counters().stats();
        survivors_hot = after.cache_hits - before.cache_hits;
    }

    let stats = server.counters().stats();
    let snap = server.snapshot();
    let converged = verify::equivalent(snap.labeled(), &oracle).is_ok();
    drop(snap);
    let consistent = server.shutdown_and_verify();

    let mut read_ns: Vec<u64> = runs.iter().flat_map(|r| r.read_ns.iter().copied()).collect();
    read_ns.sort_unstable();
    PassResult {
        read_ns,
        checked: runs.iter().map(|r| r.checked).sum(),
        mismatches: runs.iter().map(|r| r.mismatches).sum(),
        acked,
        converged,
        consistent,
        hits: stats.cache_hits,
        misses: stats.cache_misses,
        invalidated: stats.cache_invalidated,
        survivors_expected,
        survivors_hot,
    }
}

/// Runs the mixed workload twice — cache on, then cache off — over the
/// identical document, seeds, and pacing, and folds both into one stats
/// record. Writes `results/bench_query_cache.json` when asked.
pub fn query_cache_bench(workload: &CacheWorkload, write_json: bool) -> CacheBenchStats {
    let params = TraceParams {
        writers: workload.regions,
        steps_per_writer: 0, // scripts are derived per step; unused here
        region_breadth: (workload.nodes / workload.regions.max(1)).max(1),
        seed: SEED,
    };
    let t = Instant::now();
    let xml = serialize::to_string(&initial_tree(&params));
    eprintln!(
        "[bench_query_cache] generated {} regions / ~{} elements in {:.1}s",
        workload.regions,
        workload.nodes,
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let hot = run_pass("cache-on", &xml, &params, workload, Some(CACHE_CAPACITY));
    let hot_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cold = run_pass("cache-off", &xml, &params, workload, None);
    let cold_secs = t.elapsed().as_secs_f64();
    eprintln!("[bench_query_cache] cached pass {hot_secs:.1}s, uncached pass {cold_secs:.1}s");

    let stats = CacheBenchStats {
        workload: workload.clone(),
        reads: hot.read_ns.len() as u64,
        mutations: hot.acked,
        hit_rate: hot.hits as f64 / (hot.hits + hot.misses).max(1) as f64,
        hits: hot.hits,
        misses: hot.misses,
        invalidated: hot.invalidated,
        cached_p50_us: percentile(&hot.read_ns, 50),
        cached_p99_us: percentile(&hot.read_ns, 99),
        uncached_p50_us: percentile(&cold.read_ns, 50),
        uncached_p99_us: percentile(&cold.read_ns, 99),
        differential_checked: hot.checked + cold.checked,
        differential_mismatches: hot.mismatches + cold.mismatches,
        survivors_expected: hot.survivors_expected,
        survivors_hot: hot.survivors_hot,
        converged: hot.converged && cold.converged,
        final_consistent: hot.consistent && cold.consistent,
    };
    if write_json {
        write_results(&stats);
    }
    stats
}

/// Handwritten JSON, same shape family as `results/bench_server.json`.
fn write_results(stats: &CacheBenchStats) {
    let mut out = String::new();
    let w = &stats.workload;
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"group\": \"query_cache\",");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"nodes\": {}, \"regions\": {}, \"readers\": {}, \
         \"ops_per_reader\": {}, \"read_percent\": 95}},",
        w.nodes, w.regions, w.readers, w.ops_per_reader,
    );
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hit_rate\": {:.3}, \"hits\": {}, \"misses\": {}, \"invalidated\": {}}},",
        stats.hit_rate, stats.hits, stats.misses, stats.invalidated,
    );
    let _ = writeln!(
        out,
        "  \"reads\": {{\"count\": {}, \"cached_p50_us\": {:.1}, \"cached_p99_us\": {:.1}, \
         \"uncached_p50_us\": {:.1}, \"uncached_p99_us\": {:.1}}},",
        stats.reads,
        stats.cached_p50_us,
        stats.cached_p99_us,
        stats.uncached_p50_us,
        stats.uncached_p99_us,
    );
    let _ = writeln!(out, "  \"mutations\": {{\"count\": {}}},", stats.mutations);
    let _ = writeln!(
        out,
        "  \"differential\": {{\"checked\": {}, \"mismatches\": {}}},",
        stats.differential_checked, stats.differential_mismatches,
    );
    let _ = writeln!(
        out,
        "  \"survivors\": {{\"expected\": {}, \"hot\": {}}},",
        stats.survivors_expected, stats.survivors_hot,
    );
    let _ = writeln!(
        out,
        "  \"converged\": {}, \"final_consistent\": {}",
        stats.converged, stats.final_consistent,
    );
    let _ = write!(out, "}}");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_ok()
        && std::fs::write(dir.join("bench_query_cache.json"), out).is_ok()
    {
        println!("[written results/bench_query_cache.json]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_cache_bench_round_trips_a_small_workload() {
        let stats = query_cache_bench(
            &CacheWorkload { nodes: 600, regions: 3, readers: 2, ops_per_reader: 60 },
            false,
        );
        assert_eq!(stats.reads, 120);
        assert!(stats.mutations > 0, "the mix must include mutations");
        assert!(stats.differential_checked > 0, "differential had no coverage");
        assert_eq!(stats.differential_mismatches, 0, "stale cached answer");
        assert!(stats.hits > 0 && stats.misses > 0);
        assert_eq!(stats.survivors_hot, stats.survivors_expected);
        assert!(stats.converged && stats.final_consistent);
    }
}
