//! Space experiments: Figure 3 (prime estimate), Figures 4–5 (analytic
//! self-label sizes), Table 1 (datasets), Figure 13 (optimizations),
//! Figure 14 (scheme comparison).

use super::SEED;
use crate::report::Report;
use xp_baselines::interval::IntervalScheme;
use xp_baselines::prefix::Prefix2Scheme;
use xp_datagen::DATASETS;
use xp_labelkit::{DynamicScheme, Scheme, ShardPolicy};
use xp_prime::size_model;
use xp_prime::topdown::TopDownPrime;
use xp_prime::{DynamicPrime, ShardedPrime};
use xp_primes::{estimate, PrimeIterator};
use xp_xmltree::TreeStats;

/// Figure 3: bit length of the actual n-th prime vs the paper's
/// `n·log₂(n)` estimate, for the first `max_n` primes (the paper plots
/// 10 000). Sampled every `step` to keep the table readable.
pub fn fig03(max_n: u64, step: u64) -> Report {
    let mut r = Report::new(
        "fig03_prime_estimate",
        "Figure 3: actual vs estimated prime number (bit length)",
        &["n", "actual_prime", "actual_bits", "estimated_bits"],
    );
    let mut primes = PrimeIterator::new();
    for n in 1..=max_n {
        let p = primes.next().expect("unbounded");
        if n == 1 || n == max_n || n % step == 0 {
            r.push(&[
                n.to_string(),
                p.to_string(),
                estimate::bits_of(p).to_string(),
                estimate::nth_prime_estimate_bits(n).to_string(),
            ]);
        }
    }
    r
}

/// Figure 4: maximum self-label size vs fan-out at depth 2.
pub fn fig04() -> Report {
    let mut r = Report::new(
        "fig04_fanout_size",
        "Figure 4: effect of fan-out on self-label size (D=2), bits",
        &["fanout", "prefix1", "prefix2", "prime"],
    );
    for row in size_model::figure4_series(2, 50) {
        r.push(&[row.x, row.prefix1, row.prefix2, row.prime]);
    }
    r
}

/// Figure 5: maximum self-label size vs depth at fan-out 15.
pub fn fig05() -> Report {
    let mut r = Report::new(
        "fig05_depth_size",
        "Figure 5: effect of depth on self-label size (F=15), bits",
        &["depth", "prefix1", "prefix2", "prime"],
    );
    for row in size_model::figure5_series(15, 10) {
        r.push(&[row.x, row.prefix1, row.prefix2, row.prime]);
    }
    r
}

/// Table 1: characteristics of the synthesized datasets.
pub fn tab01() -> Report {
    let mut r = Report::new(
        "tab01_datasets",
        "Table 1: characteristics of datasets (synthesized)",
        &["dataset", "topic", "max_nodes", "max_depth", "max_fanout", "leaf_share_%"],
    );
    for d in &DATASETS {
        let tree = d.generate(SEED);
        let s = TreeStats::compute(&tree);
        r.row(&[
            d.id.to_string(),
            d.topic.to_string(),
            s.node_count.to_string(),
            s.max_depth.to_string(),
            s.max_fanout.to_string(),
            format!("{:.0}", 100.0 * s.leaf_fraction()),
        ]);
    }
    r
}

/// Figure 13: effect of the optimizations on the maximum label size, per
/// dataset. Cumulative configurations, as in §5.1.1: Original, +Opt1,
/// +Opt1+Opt2, +Opt1+Opt2+Opt3.
pub fn fig13() -> Report {
    let mut r = Report::new(
        "fig13_optimizations",
        "Figure 13: effect of optimizations on space requirement (max label bits)",
        &["dataset", "original", "opt1", "opt2", "opt3"],
    );
    let original = TopDownPrime::unoptimized();
    let opt1 = TopDownPrime::with_reserved(16);
    let opt2 = TopDownPrime::optimized();
    let opt3 = TopDownPrime::fully_optimized();
    for d in &DATASETS {
        let tree = d.generate(SEED);
        r.row(&[
            d.id.to_string(),
            original.label(&tree).size_stats().max_bits.to_string(),
            opt1.label(&tree).size_stats().max_bits.to_string(),
            opt2.label(&tree).size_stats().max_bits.to_string(),
            opt3.label(&tree).size_stats().max_bits.to_string(),
        ]);
    }
    r
}

/// Figure 14: fixed-length label size for Interval, Prime (optimized), and
/// Prefix-2, per dataset.
pub fn fig14() -> Report {
    let mut r = Report::new(
        "fig14_space",
        "Figure 14: space requirements of the labeling schemes (max / avg label bits)",
        &["dataset", "interval", "prime", "prefix2", "interval_avg", "prime_avg", "prefix2_avg"],
    );
    let interval = IntervalScheme::dense();
    let prime = TopDownPrime::optimized();
    let prefix2 = Prefix2Scheme;
    for d in &DATASETS {
        let tree = d.generate(SEED);
        let i = interval.label(&tree).size_stats();
        let p = prime.label(&tree).size_stats();
        let x = prefix2.label(&tree).size_stats();
        r.row(&[
            d.id.to_string(),
            i.max_bits.to_string(),
            p.max_bits.to_string(),
            x.max_bits.to_string(),
            format!("{:.1}", i.avg_bits()),
            format!("{:.1}", p.avg_bits()),
            format!("{:.1}", x.avg_bits()),
        ]);
    }
    r
}

/// Ablation (beyond the paper's figures, §3.2's last remark): effect of
/// tree decomposition on the maximum label size for deep documents — a
/// 120-level chain and the deep NASA dataset (D7). Each cut labels through
/// the shard facade ([`ShardedPrime`] at [`ShardPolicy::at_depth`]), where a
/// label costs its shard id at its own bit width plus its local prime label.
pub fn ablation_decompose() -> Report {
    use xp_datagen::builders::chain;

    let mut r = Report::new(
        "ablation_decompose",
        "Ablation: tree decomposition vs max label bits (flat = no decomposition)",
        &["document", "flat_bits", "cut2", "cut4", "cut8", "cut16"],
    );
    let deep_chain = chain(120);
    let d7 = xp_datagen::datasets::dataset("D7").expect("D7 exists").generate(SEED);
    for (name, tree) in [("chain-120", &deep_chain), ("D7-nasa", &d7)] {
        let flat = TopDownPrime::unoptimized().label(tree).size_stats().max_bits;
        let mut cells = vec![name.to_string(), flat.to_string()];
        for cut in [2usize, 4, 8, 16] {
            let scheme = ShardedPrime::new(DynamicPrime::default(), ShardPolicy::at_depth(cut));
            let (doc, _) = scheme
                .init(tree)
                .unwrap_or_else(|e| panic!("{name} does not label at cut {cut}: {e}"));
            cells.push(doc.size_stats().max_bits.to_string());
        }
        r.row(&cells);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(r: &Report, idx: usize) -> Vec<i64> {
        r.rows().iter().map(|row| row[idx].parse().unwrap()).collect()
    }

    #[test]
    fn decomposition_shrinks_deep_documents() {
        let r = ablation_decompose();
        for row in r.rows() {
            let flat: u64 = row[1].parse().unwrap();
            let cut8: u64 = row[4].parse().unwrap();
            assert!(cut8 < flat, "{}: cut8 {cut8} vs flat {flat}", row[0]);
        }
        // The chain is the extreme case: an order-of-magnitude cut.
        let chain_row = &r.rows()[0];
        let flat: u64 = chain_row[1].parse().unwrap();
        let cut8: u64 = chain_row[4].parse().unwrap();
        assert!(cut8 * 4 < flat, "chain: {cut8} vs {flat}");
        // Pinned byte for byte: the facade labels its shards on the worker
        // pool, and no cell may depend on the thread count.
        assert_eq!(r.to_csv(), include_str!("../../../../results/ablation_decompose.csv"));
    }

    #[test]
    fn fig03_estimate_tracks_actual_within_a_couple_bits() {
        let r = fig03(10_000, 500);
        for row in r.rows() {
            let actual: i64 = row[2].parse().unwrap();
            let est: i64 = row[3].parse().unwrap();
            assert!((actual - est).abs() <= 2, "n={}: {actual} vs {est}", row[0]);
        }
    }

    #[test]
    fn fig04_shape_prefix1_linear_prime_flat() {
        let r = fig04();
        let prefix1 = col(&r, 1);
        let prime = col(&r, 3);
        assert_eq!(prefix1.last().unwrap() - prefix1[0], 49);
        assert!(prime.last().unwrap() - prime[0] <= 12);
        // Crossover: prime beats prefix-1 for large fan-out.
        assert!(prime.last().unwrap() < prefix1.last().unwrap());
    }

    #[test]
    fn fig05_shape_prime_grows_with_depth() {
        let r = fig05();
        let prefix2 = col(&r, 2);
        let prime = col(&r, 3);
        assert!(prefix2.windows(2).all(|w| w[0] == w[1]), "prefix flat in depth");
        assert!(prime.windows(2).all(|w| w[0] <= w[1]), "prime monotone in depth");
        assert!(prime.last().unwrap() > &prefix2[0], "prime overtakes at high depth");
    }

    #[test]
    fn fig13_optimizations_shrink_labels() {
        let r = fig13();
        for row in r.rows() {
            let original: u64 = row[1].parse().unwrap();
            let opt2: u64 = row[3].parse().unwrap();
            let opt3: u64 = row[4].parse().unwrap();
            assert!(opt2 <= original, "{}: opt2 {opt2} vs {original}", row[0]);
            assert!(opt3 <= opt2, "{}: opt3 {opt3} vs opt2 {opt2}", row[0]);
        }
        // §5.1.1's headline: Opt2 reaches ~63% reduction and Opt3 ~83% on
        // the most repetitive datasets. Our synthesized shapes give Opt2 up
        // to ~45% (recorded in EXPERIMENTS.md); require >=40% / >=70%.
        let best_opt2 = r
            .rows()
            .iter()
            .map(|row| {
                let o: f64 = row[1].parse().unwrap();
                let v: f64 = row[3].parse().unwrap();
                1.0 - v / o
            })
            .fold(0.0f64, f64::max);
        assert!(best_opt2 >= 0.4, "best Opt2 cut only {best_opt2:.2}");
        let best_opt3 = r
            .rows()
            .iter()
            .map(|row| {
                let o: f64 = row[1].parse().unwrap();
                let v: f64 = row[4].parse().unwrap();
                1.0 - v / o
            })
            .fold(0.0f64, f64::max);
        assert!(best_opt3 >= 0.7, "best Opt3 cut only {best_opt3:.2}");
    }

    #[test]
    fn fig14_shape_interval_smallest_prefix_loses_on_fanout_wins_on_depth() {
        let r = fig14();
        // "the maximum label size for the interval-based labeling scheme is
        // smaller compared [to] the prefix and prime number labeling
        // schemes" — an aggregate claim; our Opt2 prime labels undercut the
        // interval pair on a couple of shallow leafy datasets, so assert the
        // totals rather than every row.
        let total = |idx: usize| -> u64 {
            r.rows().iter().map(|row| row[idx].parse::<u64>().unwrap()).sum()
        };
        assert!(total(1) <= total(2), "interval total vs prime total");
        assert!(total(1) < total(3), "interval total vs prefix total");
        let get = |id: &str, idx: usize| -> u64 {
            r.rows().iter().find(|row| row[0] == id).unwrap()[idx].parse().unwrap()
        };
        // D4 (actor, huge fan-out): "the prefix labeling scheme suffers".
        assert!(get("D4", 3) > get("D4", 2), "prefix must lose on the actor dataset");
        // D7 (NASA, deep & narrow): "ideal for the prefix labeling scheme".
        assert!(get("D7", 3) < get("D7", 2), "prefix must win on the NASA dataset");
        // Prime beats prefix on most datasets ("best savings ... for the
        // majority of the datasets").
        let prime_wins = r
            .rows()
            .iter()
            .filter(|row| row[2].parse::<u64>().unwrap() <= row[3].parse::<u64>().unwrap())
            .count();
        assert!(prime_wins >= 5, "prime only won {prime_wins}/9");
    }
}
