//! Reproducibility: every experiment is a pure function of the fixed seed,
//! so its rows must regenerate bit-identically — and the analytic /
//! seeded-data figures must match checked-in golden values.

use xp_bench::experiments::{sizes, timing, updates};

#[test]
fn experiments_are_deterministic() {
    assert_eq!(sizes::tab01().to_csv(), sizes::tab01().to_csv());
    assert_eq!(sizes::fig13().to_csv(), sizes::fig13().to_csv());
    assert_eq!(sizes::fig14().to_csv(), sizes::fig14().to_csv());
    assert_eq!(updates::fig16().to_csv(), updates::fig16().to_csv());
    assert_eq!(updates::fig18(5).to_csv(), updates::fig18(5).to_csv());
}

#[test]
fn fig04_matches_golden_values() {
    // Pure analytics: these can never drift without a formula change.
    let r = sizes::fig04();
    let row = |x: &str| -> Vec<String> {
        r.rows().iter().find(|row| row[0] == x).unwrap().clone()
    };
    assert_eq!(row("1"), ["1", "1", "1", "3"]);
    assert_eq!(row("15"), ["15", "15", "16", "11"]);
    assert_eq!(row("50"), ["50", "50", "24", "15"]);
}

#[test]
fn fig05_matches_golden_values() {
    let r = sizes::fig05();
    assert_eq!(r.rows()[0], ["0", "15", "16", "2"]);
    assert_eq!(r.rows()[10], ["10", "15", "16", "45"]);
}

#[test]
fn fig13_matches_golden_values() {
    // Seeded generation: stable for a fixed seed and generator version.
    let r = sizes::fig13();
    let row = |id: &str| -> Vec<String> {
        r.rows().iter().find(|row| row[0] == id).unwrap().clone()
    };
    assert_eq!(row("D1"), ["D1", "26", "26", "18", "13"]);
    assert_eq!(row("D4"), ["D4", "16", "16", "15", "3"]);
    assert_eq!(row("D7"), ["D7", "140", "140", "130", "53"]);
}

#[test]
fn fig16_matches_golden_values() {
    let r = updates::fig16();
    // Row for the 5000-node document: interval ≈ N, the rest constant.
    let row = r.rows().iter().find(|row| row[0] == "5000").unwrap();
    assert_eq!(row[2], "2", "optimized prime");
    assert_eq!(row[3], "1", "original prime");
    assert_eq!(row[4], "1", "prefix-2");
    let interval: usize = row[1].parse().unwrap();
    assert!((4000..=5001).contains(&interval));
}

#[test]
fn update_counts_match_the_checked_in_csvs() {
    // Figures 17 and 18 and the chunk-size ablation are pure counts (the
    // storage column holds bit lengths of canonical SC values), so any
    // change to SC maintenance must leave them byte-identical to what
    // `emit()` wrote.
    assert_eq!(updates::fig17().to_csv(), include_str!("../../../results/fig17_update_nonleaf.csv"));
    assert_eq!(updates::fig18(5).to_csv(), include_str!("../../../results/fig18_ordered_update.csv"));
    assert_eq!(
        updates::ablation_chunk_size().to_csv(),
        include_str!("../../../results/ablation_chunk_size.csv")
    );
}

#[test]
fn tab02_matches_golden_values() {
    // Table 2's cardinalities on the seeded 5-replica Shakespeare corpus:
    // every evaluation strategy must reproduce them exactly.
    let r = timing::tab02(5);
    let counts: Vec<(&str, &str)> =
        r.rows().iter().map(|row| (row[0].as_str(), row[3].as_str())).collect();
    assert_eq!(
        counts,
        [
            ("Q1", "5"),
            ("Q2", "22"),
            ("Q3", "130"),
            ("Q4", "3511"),
            ("Q5", "19605"),
            ("Q6", "3619"),
            ("Q7", "4004"),
            ("Q8", "4397"),
            ("Q9", "19751"),
        ]
    );
}
