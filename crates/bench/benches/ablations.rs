//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * CRT solver: extended-Euclid folding vs the paper's Euler-totient form.
//! * SC table construction and update cost across chunk sizes.
//! * Query join strategy: batched steps vs per-context nested loops.
//!
//! Results land in `results/bench_<group>.json`, one group per ablation.
//! `cargo bench --bench ablations -- <group>…` runs only the named groups
//! (`crt_solver`, `sc_table`, `join_strategy`, `ordered_update`), so
//! regenerating one file leaves the others alone; with no group named, all
//! four run.

use xp_prime::crt;
use xp_primes::first_primes;
use xp_testkit::bench::Harness;

fn bench_crt_solvers() {
    let mut group = Harness::new("crt_solver");
    for k in [5usize, 15, 40] {
        let moduli: Vec<u64> = first_primes(k + 1)[1..].to_vec(); // odd primes
        let residues: Vec<u64> = moduli.iter().map(|&m| m / 2).collect();
        group.bench(&format!("egcd/{k}"), || crt::solve(&moduli, &residues).unwrap());
        group.bench(&format!("euler_totient/{k}"), || crt::solve_euler(&moduli, &residues).unwrap());
    }
    group.finish();
}

fn bench_sc_chunk_sizes() {
    // Shared with the `sc_maintenance` binary: chunk-size sweep at 2000
    // nodes plus the append-vs-rebuild size sweep, written to
    // results/bench_sc_table.json.
    let stats =
        xp_bench::experiments::updates::sc_maintenance(2000, &[250, 500, 1000, 2000, 4000], true);
    assert!(stats.incremental_beats_rebuild(), "append slower than rebuild: {stats:?}");
}

fn bench_join_strategies() {
    use xp_bench::experiments::timing::corpus;
    use xp_query::engine::{eval_path_with, Path};
    use xp_query::evaluators::{Evaluator, IntervalEvaluator};
    use xp_query::relstore::LabelTable;

    // A query with a large context set × large candidate set: the shape
    // where nested loops blow up. The batched side answers the last
    // descendant step with one run of LINEs per SPEECH, which ends at the
    // next SPEECH's start after two ancestor tests (or is galloped when
    // that probe fails); the nested-loop side tests every LINE against
    // every SPEECH.
    let tree = corpus(2);
    let ev = IntervalEvaluator::build(&tree);
    let _ = &ev as &dyn Evaluator;
    let path = Path::parse("//PLAY//SPEECH//LINE").unwrap();

    struct Oracle<'a>(&'a LabelTable<xp_baselines::IntervalLabel>);
    impl xp_query::engine::OrderOracle for Oracle<'_> {
        fn rank(&self, node: xp_xmltree::NodeId) -> u64 {
            self.0.label(node).map_or(u64::MAX, |label| label.order)
        }
    }
    let oracle = Oracle(ev.table());

    let mut group = Harness::new("join_strategy");
    group.sample_size(10);
    group.bench("batched", || eval_path_with(ev.table(), &oracle, &path, true).expect("static query").len());
    group.bench("nested_loop", || eval_path_with(ev.table(), &oracle, &path, false).expect("static query").len());
    group.finish();
}

fn bench_ordered_update_throughput() {
    use xp_baselines::interval::IntervalScheme;
    use xp_datagen::shakespeare::{generate_play, PlayParams};
    use xp_labelkit::Scheme;
    use xp_prime::ordered::OrderedPrimeDoc;

    // Wall-clock for one order-sensitive ACT insertion: the prime scheme's
    // incremental SC maintenance vs the full relabel a static scheme needs.
    let play = generate_play("Hamlet", 2004, &PlayParams::hamlet_like());
    let acts = |t: &xp_xmltree::XmlTree| -> Vec<xp_xmltree::NodeId> {
        t.elements().filter(|&n| t.tag(n) == Some("ACT")).collect()
    };

    let mut group = Harness::new("ordered_update");
    group.sample_size(10);
    group.bench_batched(
        "prime_sc_incremental",
        || {
            let t = play.clone();
            let doc = OrderedPrimeDoc::build(&t, 5).unwrap();
            (t, doc)
        },
        |(mut t, mut doc)| {
            let act3 = acts(&t)[2];
            doc.insert_sibling_before(&mut t, act3, "ACT").unwrap()
        },
    );
    group.bench_batched(
        "interval_full_relabel",
        || play.clone(),
        |mut t| {
            let act3 = acts(&t)[2];
            let new = t.create_element("ACT");
            t.insert_before(act3, new);
            IntervalScheme::dense().label(&t).len()
        },
    );
    group.finish();
}

/// Every group, by the name of the file it writes.
const GROUPS: [(&str, fn()); 4] = [
    ("crt_solver", bench_crt_solvers),
    ("sc_table", bench_sc_chunk_sizes),
    ("join_strategy", bench_join_strategies),
    ("ordered_update", bench_ordered_update_throughput),
];

fn main() {
    // Cargo passes its own `--bench` flag along; every other argument
    // names a group.
    let named: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    if let Some(unknown) = named.iter().find(|n| !GROUPS.iter().any(|(group, _)| group == n)) {
        let known: Vec<&str> = GROUPS.iter().map(|(group, _)| *group).collect();
        eprintln!("ablations: unknown group {unknown:?}; the groups are {}", known.join(", "));
        std::process::exit(2);
    }
    for (group, run) in GROUPS {
        if named.is_empty() || named.iter().any(|n| n == group) {
            run();
        }
    }
}
