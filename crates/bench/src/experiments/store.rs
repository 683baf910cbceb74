//! Wall-clock experiment for the crash-safe disk store: what durability
//! costs per mutation (WAL append + fsync vs the same apply in memory),
//! what a checkpoint costs, and how long recovery takes to reopen a store
//! whose WAL still holds a replayable tail.
//!
//! Alongside the timings the run proves the store round-trips: the
//! reopened document must pass the full consistency suite and be logically
//! byte-identical to the live one, and a full checkpoint must leave the
//! WAL empty.

use super::SEED;
use std::path::PathBuf;
use xp_datagen::builders::{random_tree, RandomTreeParams};
use xp_labelkit::{InsertPos, LabeledStore, Mutation};
use xp_prime::dynamic::DynamicPrime;
use xp_store::{verify, Store, WAL_FILE};
use xp_testkit::bench::Harness;
use xp_xmltree::serialize;

/// Frames deliberately left in the WAL before the recovery bench, so every
/// `Store::open` pays for a segment load *and* a replay tail.
const REPLAY_TAIL: usize = 100;

/// Medians and invariant-check outcomes from [`store_bench`].
#[derive(Debug, Clone)]
pub struct StoreBenchStats {
    /// `(doc_nodes, median ns)` for one leaf insert through the in-memory
    /// [`LabeledStore`] alone.
    pub apply_memory_ns: Vec<(usize, f64)>,
    /// `(doc_nodes, median ns)` for the same insert through the durable
    /// store: WAL append + fsync, then the in-memory apply.
    pub apply_durable_ns: Vec<(usize, f64)>,
    /// `(doc_nodes, median ns)` for folding the WAL into a fresh
    /// checkpoint segment.
    pub checkpoint_ns: Vec<(usize, f64)>,
    /// `(doc_nodes, median ns)` for `Store::open`: manifest + segment load
    /// plus a `REPLAY_TAIL`-frame WAL replay.
    pub recover_ns: Vec<(usize, f64)>,
    /// Every reopened store passed `verify()` and was logically
    /// byte-identical to its live twin.
    pub recovery_consistent: bool,
    /// `checkpoint_all` left the WAL empty at every size.
    pub wal_truncated: bool,
}

impl StoreBenchStats {
    /// Durable-apply ÷ in-memory-apply median at each size.
    pub fn wal_overhead(&self) -> Vec<(usize, f64)> {
        self.apply_durable_ns
            .iter()
            .zip(&self.apply_memory_ns)
            .map(|(&(n, durable), &(_, memory))| (n, durable / memory.max(1.0)))
            .collect()
    }
}

fn scratch_dir(n: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-bench-store-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `store` bench group over documents of `sizes` elements. Writes
/// `results/bench_store.json` only when `write_json` is set (the CI smoke
/// run measures without clobbering the checked-in numbers).
pub fn store_bench(sizes: &[usize], write_json: bool) -> StoreBenchStats {
    let mut group = Harness::new("store");
    group.sample_size(10);

    let mut stats = StoreBenchStats {
        apply_memory_ns: Vec::new(),
        apply_durable_ns: Vec::new(),
        checkpoint_ns: Vec::new(),
        recover_ns: Vec::new(),
        recovery_consistent: true,
        wal_truncated: true,
    };

    for &n in sizes {
        let tree = random_tree(
            SEED,
            &RandomTreeParams { nodes: n, max_depth: 8, max_fanout: 40, tag_variety: 10 },
        );
        let xml = serialize::to_string(&tree);
        let uri = "bench.xml";
        let dir = scratch_dir(n);

        let mut live = Store::create(&dir).expect("bench store create");
        live.add_document(uri, &xml, 5).expect("bench document");
        let root = live.doc(uri).expect("bench doc").tree().root();
        let leaf = Mutation::InsertSubtree {
            pos: InsertPos::LastChildOf(root),
            xml: "<x/>".into(),
        };

        // The same apply with and without the durability tax. Both stores
        // grow by one leaf per iteration; a leaf insert is O(1) labels, so
        // the per-iteration cost stays flat. The in-memory twin starts from
        // the store's own (parsed, preorder-arena) tree so the two applies
        // walk identical memory layouts.
        let mut memory =
            LabeledStore::build(DynamicPrime::new(5), live.doc(uri).expect("bench doc").tree().clone())
                .expect("bench labeling");
        group.bench(&format!("apply_memory/{n}"), || {
            memory.apply(&leaf).expect("in-memory apply")
        });
        group.bench(&format!("apply_durable/{n}"), || {
            live.apply(uri, &leaf).expect("durable apply")
        });

        // Checkpoint: fold the WAL into a fresh full segment.
        group.bench(&format!("checkpoint/{n}"), || {
            live.checkpoint(uri).expect("checkpoint")
        });

        // Recovery: reopen with a deterministic replay tail. A full
        // checkpoint first empties the WAL, then exactly REPLAY_TAIL
        // durable mutations land in it.
        live.checkpoint_all().expect("checkpoint_all");
        if std::fs::metadata(dir.join(WAL_FILE)).map(|m| m.len()).unwrap_or(u64::MAX) != 0 {
            stats.wal_truncated = false;
        }
        for _ in 0..REPLAY_TAIL {
            live.apply(uri, &leaf).expect("replay-tail apply");
        }
        group.bench(&format!("recover/{n}"), || Store::open(&dir).expect("recovery"));

        // The round-trip proof: the last reopen must match the live store.
        let reopened = Store::open(&dir).expect("final recovery");
        let ok = reopened.verify().is_ok()
            && verify::equivalent(
                reopened.doc(uri).expect("reopened doc").labeled(),
                live.doc(uri).expect("live doc").labeled(),
            )
            .is_ok();
        if !ok {
            stats.recovery_consistent = false;
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    let median = |name: &str| {
        group.results().iter().find(|r| r.name == name).map(|r| r.median_ns).unwrap_or(f64::NAN)
    };
    for &n in sizes {
        stats.apply_memory_ns.push((n, median(&format!("apply_memory/{n}"))));
        stats.apply_durable_ns.push((n, median(&format!("apply_durable/{n}"))));
        stats.checkpoint_ns.push((n, median(&format!("checkpoint/{n}"))));
        stats.recover_ns.push((n, median(&format!("recover/{n}"))));
    }
    if write_json {
        group.finish();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_bench_round_trips_a_small_doc() {
        // Cheap settings so the test is a correctness check, not a bench.
        std::env::set_var("XP_BENCH_SAMPLES", "2");
        std::env::set_var("XP_BENCH_MIN_WINDOW_MS", "1");
        let stats = store_bench(&[200], false);
        assert!(stats.recovery_consistent);
        assert!(stats.wal_truncated);
        assert_eq!(stats.apply_memory_ns.len(), 1);
        assert!(stats.wal_overhead()[0].1.is_finite());
    }
}
