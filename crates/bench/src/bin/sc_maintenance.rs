//! Before/after experiment for the incremental SC maintenance path.
//!
//! Default mode regenerates `results/bench_sc_table.json` with the full
//! sweep (chunk-size family at 2000 nodes, append-vs-rebuild family at
//! 250..=4000 nodes) and asserts the three claims the incremental algebra
//! makes: a tail append never costs more than rebuilding the table from
//! scratch, per-insert cost grows at most linearly in the table's bit
//! size — not quadratically, as the old order-recomputing pre-scan did —
//! and an insert that shifts three quarters of a chunk-5 table's orders
//! (`front_insert/5`) costs no more than building that table (`build/5`).
//!
//! `--smoke` runs the same checks on small sizes without touching the
//! checked-in JSON — the `scripts/ci.sh` bench gate. Exits nonzero when a
//! check fails either way.

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (fixed_n, sizes, linear_factor): (usize, &[usize], f64) = if smoke {
        // Keep the smoke gate quick but preserve an 8x size spread so a
        // reintroduced quadratic append path cannot hide in noise.
        (400, &[100, 800], 2.0)
    } else {
        (2000, &[250, 500, 1000, 2000, 4000], 2.0)
    };
    let stats = xp_bench::experiments::updates::sc_maintenance(fixed_n, sizes, !smoke);

    println!();
    println!(
        "n={fixed_n:>5}: shifting insert {:>12.0} ns  vs build {:>14.0} ns  (chunk 5)",
        stats.front_insert_ns, stats.build_ns
    );
    for (&(n, append), &(_, rebuild)) in stats.append_ns.iter().zip(&stats.rebuild_ns) {
        println!(
            "n={n:>5}: append {append:>12.0} ns  vs rebuild {rebuild:>14.0} ns  ({:.0}x)",
            rebuild / append.max(1.0)
        );
    }

    let mut failed = false;
    if !stats.incremental_beats_rebuild() {
        eprintln!("FAIL: incremental per-insert median exceeds rebuild-from-scratch median");
        failed = true;
    }
    if !stats.append_cost_scales_at_most_linearly(linear_factor) {
        eprintln!("FAIL: per-insert append cost grows superlinearly in table size");
        failed = true;
    }
    if !stats.shifting_insert_beats_build() {
        eprintln!("FAIL: an order-shifting insert (front_insert/5) costs more than build/5");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "sc-maintenance checks passed: appends and shifting inserts beat rebuilds, \
         appends scale at most linearly"
    );
}
