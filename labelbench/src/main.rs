//! The label-server benchmark.
//!
//! One run serves one workload's document with the shipped server
//! (`xmlprime save`, then `xmlprime serve` over a Unix socket, in a process
//! of its own), drives it from this process over `xp_server::Client`
//! connections, checks every answer, kills the server after the last ack,
//! restarts it to time recovery, and checks that every acknowledged
//! mutation survived. With `--trace 1` it also replays the same stream in
//! process with a span around every layer call, and reports per-layer
//! metrics instead of end-to-end ones.
//!
//! ```text
//! labelbench --workload <paper_queries|mixed_cached|write_storm> --seed <n>
//!            --seconds <s> --trace <0|1> --server-bin <path to xmlprime>
//!            [--smoke] [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod calib;
mod drive;
mod inputs;
mod server;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use xp_query::IntervalEvaluator;
use xp_server::{Client, ServerStats};
use xp_store::Store;

use calib::Timeline;
use drive::{ConnRun, Outcome, Sample, StreamSpec};
use inputs::{Plan, Scale, Workload, URI};
use server::Layout;
use stats::{class_p50, median, ms, quantile, Metric};

/// End-to-end metrics, printed with `--trace 0`. `op_p50_per_cal` covers
/// the window's own requests (queries, mutations, or the 95/5 mix): each
/// round trip divided by the calibration job's time around it (see
/// [`calib`]), then [`class_p50`] over the request classes. The raw ms
/// figures (that p50 undivided, per-kind p50 and p99 of window and probe,
/// throughput) are printed beside it but not gated, because host drift
/// spreads them run to run by more than any useful bound.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("disk_bytes_per_element", "B"),
    ("op_p50_per_cal", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload bypasses
/// reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("xmltree.parse_ms", "ms"),
    ("label.build_ms", "ms"),
    ("relstore.build_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("label.bits_per_element", "bit"),
    ("engine.parse_us", "us"),
    ("engine.q1_ms", "ms"),
    ("engine.q2_ms", "ms"),
    ("engine.q3_ms", "ms"),
    ("engine.q4_ms", "ms"),
    ("engine.q5_ms", "ms"),
    ("engine.q6_ms", "ms"),
    ("engine.q7_ms", "ms"),
    ("engine.q8_ms", "ms"),
    ("engine.q9_ms", "ms"),
    ("engine.rank_calls_per_row", "count"),
    ("engine.rank_share", "ratio"),
    ("engine.ancestor_tests_per_row", "count"),
    ("engine.label_bits_per_test", "bit"),
    ("engine.predicate_share", "ratio"),
    ("engine.miss_eval_ms", "ms"),
    ("engine.eval_calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidated_per_epoch", "count"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.invalidate_us", "us"),
    ("cache.ops", "count"),
    ("wire.codec_us", "us"),
    ("wire.query_overhead_us", "us"),
    ("store.decode_us", "us"),
    ("label.apply_us", "us"),
    ("label.apply_calls", "count"),
    ("label.labels_touched_per_mutation", "count"),
    ("label.sc_updates_per_mutation", "count"),
    ("relstore.patch_us", "us"),
    ("relstore.rows_touched_per_mutation", "count"),
    ("store.wal_us", "us"),
    ("store.wal_frames", "count"),
    ("store.wal_bytes_per_mutation", "B"),
    ("store.fsyncs_per_mutation", "count"),
    ("snapshot.publish_us", "us"),
    ("snapshot.publishes", "count"),
    ("snapshot.clone_ratio", "ratio"),
    ("epoch.mutations_per_epoch", "count"),
    ("epoch.queue_wait_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.replay_frames", "count"),
    ("trace.coverage", "ratio"),
    ("trace.untraced_share", "ratio"),
];

/// The layer spans must cover at least this share of operation time.
const MIN_COVERAGE: f64 = 0.9;

/// `mixed_cached` keeps every this-many-th answer per connection for the
/// oracle spot check.
const SPOT_EVERY: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    smoke: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed wants an integer".to_string())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number".to_string())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
    };
    let server_bin =
        std::fs::canonicalize(need("--server-bin")?).map_err(|e| format!("--server-bin: {e}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server_bin,
        smoke: argv.iter().any(|a| a == "--smoke"),
        work_dir: PathBuf::from(value("--work-dir").unwrap_or(".bench_run")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labelbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("labelbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything the checks established.
#[derive(Debug, Default)]
struct Checks {
    answers_checked: u64,
    wrong_answers: u64,
    acked: u64,
    durable: bool,
    verified: bool,
    oracle_match: bool,
    coverage: Option<f64>,
}

impl Checks {
    fn pass(&self) -> bool {
        self.wrong_answers == 0
            && self.durable
            && self.verified
            && self.oracle_match
            && self.coverage.is_none_or(|c| c >= MIN_COVERAGE)
    }

    fn json(&self) -> String {
        format!(
            "{{\"answers_checked\": {}, \"wrong_answers\": {}, \"acked_mutations\": {}, \
             \"durable\": {}, \"verified\": {}, \"oracle_match\": {}, \
             \"coverage\": {}}}",
            self.answers_checked,
            self.wrong_answers,
            self.acked,
            self.durable,
            self.verified,
            self.oracle_match,
            self.coverage.map_or("null".to_string(), |c| c.to_string()),
        )
    }
}

fn wal_bytes(store_dir: &Path) -> u64 {
    std::fs::metadata(store_dir.join(xp_store::WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0)
}

fn client_err(what: &str) -> impl Fn(xp_server::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn run(args: &Args, run_dir: &Path) -> Result<String, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let workload = args.workload;
    let t = Instant::now();
    let plan = inputs::plan(workload, args.seed, args.seconds, &scale);
    let plan_s = t.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(run_dir);
    std::fs::create_dir_all(run_dir).map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    std::fs::write(run_dir.join("doc.xml"), &plan.xml)
        .map_err(|e| format!("writing doc.xml: {e}"))?;
    let layout = Layout {
        bin: args.server_bin.clone(),
        run_dir: run_dir.to_path_buf(),
    };
    let flags = workload.server_flags();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "labelbench {} seed {} seconds {} trace {}: {} elements, {} window ops on one connection, \
         {} probe ops, server flags [{}], nproc {}, store fs {}, inputs built in {:.2}s",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.elements,
        plan.window.len(),
        plan.probe.len(),
        flags.join(" "),
        nproc,
        server::fs_type(run_dir),
        plan_s,
    );

    // Set-up, several times: save, serve, first Ping.
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..scale.setups {
        let store = format!("store{k}");
        let t = Instant::now();
        server::save(&layout, "doc.xml", &store, URI)?;
        let (proc, client, _) = server::serve(&layout, &store, flags)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < scale.setups {
            drop(client);
            proc.kill();
            let _ = std::fs::remove_dir_all(run_dir.join(&store));
        } else {
            live = Some((proc, client, store));
        }
    }
    let (proc, mut control, store) = live.ok_or("no set-up ran")?;
    let store_dir = run_dir.join(&store);
    let disk_per_element = server::dir_bytes(&store_dir) as f64 / plan.elements as f64;
    let stats0 = control.stats().map_err(client_err("stats"))?;
    let wal0 = wal_bytes(&store_dir);
    drop(control);

    // The measured window.
    let expected = (!plan.expected.is_empty()).then_some(plan.expected.as_slice());
    let spot_every = if workload == Workload::MixedCached {
        SPOT_EVERY
    } else {
        0
    };
    let spec = StreamSpec {
        ops: &plan.window,
        paths: &plan.paths,
        expected,
        spot_every,
        calibrate: true,
    };
    let t = Instant::now();
    let window = drive::run_stream(&layout.socket(), &spec)?;
    let window_time = t.elapsed();
    let mut control = Client::connect_unix(&layout.socket()).map_err(client_err("connect"))?;
    let stats1 = control.stats().map_err(client_err("stats"))?;
    let wal1 = wal_bytes(&store_dir);
    drop(control);

    // The probe: the operation kind the window lacks, checked in full.
    let probe_spec = StreamSpec {
        ops: &plan.probe,
        paths: &plan.paths,
        expected: None,
        spot_every: 1,
        calibrate: false,
    };
    let t = Instant::now();
    let probe = drive::run_stream(&layout.socket(), &probe_spec)?;
    let probe_time = t.elapsed();

    // SIGKILL after the last ack, keep the killed store, time recoveries.
    proc.kill();
    let killed = run_dir.join("killed");
    server::copy_dir(&store_dir, &killed)?;
    let mut recovery_s = Vec::new();
    let mut reopened_seq = None;
    for _ in 0..scale.recoveries {
        let (proc, mut client, took) = server::serve(&layout, &store, flags)?;
        recovery_s.push(took.as_secs_f64());
        if reopened_seq.is_none() {
            let docs = client.docs().map_err(client_err("list docs"))?;
            reopened_seq = docs.iter().find(|d| d.uri == URI).map(|d| d.seq);
        }
        drop(client);
        proc.kill();
    }

    let mut checks = Checks::default();
    let runs = [&window, &probe];
    let mut acked: Vec<(u64, xp_server::WireMutation)> =
        runs.iter().flat_map(|r| r.acked.iter().cloned()).collect();
    acked.sort_by_key(|(seq, _)| *seq);
    checks.acked = acked.len() as u64;
    let contiguous = acked
        .iter()
        .enumerate()
        .all(|(i, (seq, _))| *seq == i as u64 + 1);
    checks.durable = contiguous && reopened_seq == Some(checks.acked);

    // The killed store, reopened in process: verify, compare, time.
    let t = Instant::now();
    let reopened = Store::open(&killed).map_err(|e| format!("reopening the killed store: {e}"))?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let doc = reopened
        .doc(URI)
        .ok_or("the reopened store lost the document")?;
    let replay_frames = doc.seq() - doc.durable_seq();
    checks.durable &= doc.seq() == checks.acked;
    checks.verified = reopened.verify().is_ok();
    let served_xml = xp_xmltree::serialize::to_string(doc.tree());
    checks.oracle_match = served_xml == plan.oracle_xml;
    drop(reopened);

    // Answers: exact ones were checked as they arrived; sampled ones are
    // checked against the document replayed in the server's commit order.
    let samples: Vec<&Sample> = runs.iter().flat_map(|r| r.samples.iter()).collect();
    let exact = if expected.is_some() {
        samples.iter().filter(|s| s.query).count() as u64
    } else {
        0
    };
    checks.answers_checked = exact;
    checks.wrong_answers = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Wrong)
        .count() as u64;
    let (spots, spot_wrong, replay_matches) = spot_check(&plan, &acked, &runs);
    checks.answers_checked += spots;
    checks.wrong_answers += spot_wrong;
    checks.oracle_match &= replay_matches;

    let failed = samples.iter().filter(|s| s.outcome != Outcome::Ok).count() as u64 + spot_wrong;
    let attempted = samples.len() as u64;
    for s in samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Error(_)))
        .take(3)
    {
        eprintln!("labelbench: failed request: {:?}", s.outcome);
    }

    let per_s = |n: usize, d: Duration| n as f64 / d.as_secs_f64().max(1e-9);
    let window_ms: Vec<f64> = ms(window.samples.iter().map(|s| s.latency));
    let timeline = Timeline::new(&window.calib);
    let window_samples = || window.samples.iter();
    let op_p50_per_cal = class_p50(window_samples().map(|s| {
        (
            s.class,
            s.latency.as_secs_f64() * 1e3 / timeline.around(s.sent),
        )
    }));
    let op_p50_ms = class_p50(window_samples().map(|s| (s.class, s.latency.as_secs_f64() * 1e3)));
    let e2e = [median(&setup_s), disk_per_element, op_p50_per_cal];
    println!(
        "samples: {} setups, {} window ops, {} probe ops; recovery_s median {:.4} fastest {:.4} \
         over {} restarts; failed_op_ratio {} ({failed}/{attempted})",
        setup_s.len(),
        window_ms.len(),
        probe.samples.len(),
        median(&recovery_s),
        recovery_s.iter().copied().fold(f64::INFINITY, f64::min),
        recovery_s.len(),
        failed as f64 / attempted.max(1) as f64,
    );
    println!(
        "window: {:.2}/s; class-balanced p50 {:.4} ms; calibration job median {:.4} ms over {} \
         timings",
        per_s(window_ms.len(), window_time),
        op_p50_ms,
        timeline.median_ms(),
        timeline.len(),
    );
    let phases: [(&str, Vec<&ConnRun>, Duration); 2] = [
        ("window", vec![&window], window_time),
        ("probe", vec![&probe], probe_time),
    ];
    for (phase, phase_runs, span) in &phases {
        for (kind, query) in [("query", true), ("mutation", false)] {
            let v = ms(phase_runs
                .iter()
                .flat_map(|r| r.samples.iter())
                .filter(|s| s.query == query)
                .map(|s| s.latency));
            if !v.is_empty() {
                println!(
                    "  {phase} {kind:<8} n {:>5}  p50 {:>10.3} ms  p99 {:>10.3} ms  {:>9.2}/s",
                    v.len(),
                    median(&v),
                    quantile(&v, 0.99).unwrap_or(0.0),
                    per_s(v.len(), *span),
                );
            }
        }
    }
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        println!("  {name:<24} {value:>14.4} {unit}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let traced = trace::run(&plan, run_dir)?;
        let spans_file =
            args.work_dir
                .join(format!("spans-{}-seed{}.tsv", workload.name(), args.seed));
        trace::write_spans(&traced.spans, &spans_file)
            .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;
        checks.coverage = Some(traced.coverage);
        checks.wrong_answers += traced.wrong_answers;
        let mut layer = traced.metrics;
        let d = Delta(stats0, stats1);
        let applied = d.get(|s| s.applied);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        layer.insert(
            "cache.hit_ratio",
            ratio(
                d.get(|s| s.cache_hits),
                d.get(|s| s.cache_hits + s.cache_misses),
            ),
        );
        layer.insert(
            "cache.invalidated_per_epoch",
            ratio(d.get(|s| s.cache_invalidated), d.get(|s| s.epochs)),
        );
        layer.insert("cache.ops", d.get(|s| s.cache_hits + s.cache_misses) as f64);
        layer.insert("store.wal_frames", d.get(|s| s.applied + s.failed) as f64);
        layer.insert(
            "store.wal_bytes_per_mutation",
            ratio(wal1.saturating_sub(wal0), applied),
        );
        layer.insert(
            "store.fsyncs_per_mutation",
            ratio(d.get(|s| s.wal_fsyncs), applied),
        );
        layer.insert("snapshot.publishes", d.get(|s| s.epochs) as f64);
        layer.insert(
            "snapshot.clone_ratio",
            ratio(
                d.get(|s| s.snapshots_cloned),
                d.get(|s| s.snapshots_cloned + s.snapshots_reclaimed),
            ),
        );
        layer.insert(
            "epoch.mutations_per_epoch",
            ratio(applied, d.get(|s| s.epochs)),
        );
        let window_p50 = |query: bool| -> Option<f64> {
            let v = ms(window
                .samples
                .iter()
                .filter(|s| s.query == query)
                .map(|s| s.latency));
            (!v.is_empty()).then(|| median(&v))
        };
        let gap = |untraced: Option<f64>, traced: Option<f64>| match (untraced, traced) {
            (Some(u), Some(t)) => u - t,
            _ => 0.0,
        };
        layer.insert(
            "wire.query_overhead_us",
            1e3 * gap(window_p50(true), traced.query_op_p50_ms),
        );
        layer.insert(
            "epoch.queue_wait_ms",
            gap(window_p50(false), traced.mutation_op_p50_ms),
        );
        layer.insert("store.open_ms", open_ms);
        layer.insert("store.replay_frames", replay_frames as f64);
        layer.insert("trace.untraced_share", 1.0 - traced.coverage);
        println!(
            "\nper-layer breakdown ({} seed {}):\n",
            workload.name(),
            args.seed
        );
        print!("{}", traced.table);
        println!(
            "\nper-operation latency, untraced over the socket vs traced in process: \
             query p50 {} vs {} ms, mutation p50 {} vs {} ms",
            fmt_opt(window_p50(true)),
            fmt_opt(traced.query_op_p50_ms),
            fmt_opt(window_p50(false)),
            fmt_opt(traced.mutation_op_p50_ms),
        );
        println!("spans written to {}", spans_file.display());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: layer.get(name).copied().unwrap_or(f64::NAN),
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    if args.trace {
        for m in &metrics {
            println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("checks: {}", checks.json());
    Ok(stats::result_line(
        checks.pass() && failed == 0,
        attempted,
        failed,
        &metrics,
    ))
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |v| format!("{v:.3}"))
}

/// Server counters before and after the window.
struct Delta(ServerStats, ServerStats);

impl Delta {
    fn get(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        f(&self.1).saturating_sub(f(&self.0))
    }
}

/// Replays the acknowledged mutations in the server's commit order on a
/// label-free tree and checks every sampled answer at the sequence it was
/// answered at. Returns (answers checked, wrong answers, whether the
/// replay ends at the writer-major oracle).
fn spot_check(
    plan: &Plan,
    acked: &[(u64, xp_server::WireMutation)],
    runs: &[&ConnRun],
) -> (u64, u64, bool) {
    let mut spots: Vec<&drive::Spot> = runs.iter().flat_map(|r| r.spots.iter()).collect();
    spots.sort_by_key(|s| s.seq);
    let mut tree = inputs::parse(&plan.xml);
    let mut applied = 0usize;
    let (mut checked, mut wrong) = (0u64, 0u64);
    let mut i = 0;
    while i < spots.len() {
        let seq = spots[i].seq;
        while applied < acked.len() && acked[applied].0 <= seq {
            if inputs::apply_wire(&mut tree, &acked[applied].1).is_err() {
                return (checked, wrong + 1, false);
            }
            applied += 1;
        }
        let ev = IntervalEvaluator::build(&tree);
        while i < spots.len() && spots[i].seq == seq {
            checked += 1;
            wrong += u64::from(inputs::answer(&ev, &plan.paths[spots[i].path]) != spots[i].nodes);
            i += 1;
        }
    }
    for (_, m) in &acked[applied..] {
        if inputs::apply_wire(&mut tree, m).is_err() {
            return (checked, wrong + 1, false);
        }
    }
    (
        checked,
        wrong,
        xp_xmltree::serialize::to_string(&tree) == plan.oracle_xml,
    )
}
