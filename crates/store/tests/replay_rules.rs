//! One frame rule for every WAL reader.
//!
//! A flat [`Store::open`], a read-only [`fsck`] and a
//! [`ShardedDocStore::open`] all decide each WAL frame by the same rule: a
//! frame the checkpoint already folds in (seq at or below the durable
//! seq) is skipped; any other frame must be the next one, so a gap or a
//! repeated seq is corruption; and a frame holds exactly one mutation, so
//! trailing bytes are corruption. Each case writes its frames through
//! [`Wal::append`], so every checksum holds and only the rule can refuse
//! them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xp_labelkit::codec::write_varint;
use xp_labelkit::{Mutation, ShardPolicy};
use xp_store::wal::Wal;
use xp_store::{fsck, ShardedDocStore, Store, StoreError};

const DOC_XML: &str = "<r><a/><b/></r>";
/// Arena slot of `<a>` in [`DOC_XML`] (the root is slot 0).
const A: u64 = 1;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(label: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "xp-store-rules-{label}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A new element named `tag` before `<a>`.
fn insert(tag: &str) -> Mutation<u64> {
    Mutation::InsertBefore { anchor: A, tag: tag.into() }
}

/// The two store kinds; a flat frame carries its document id first.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Flat,
    Sharded,
}

impl Kind {
    /// Creates a store holding [`DOC_XML`] whose checkpoint folds in the
    /// first `durable` inserts of `n…`, and leaves its WAL empty.
    fn create(self, dir: &Path, durable: usize) {
        match self {
            Kind::Flat => {
                let mut store = Store::create(dir).unwrap();
                store.add_document("d.xml", DOC_XML, 8).unwrap();
                for _ in 0..durable {
                    let a = store.doc("d.xml").unwrap().tree().node_at(A as usize).unwrap();
                    let n = Mutation::InsertBefore { anchor: a, tag: "n".into() };
                    store.apply("d.xml", &n).unwrap();
                }
                store.checkpoint_all().unwrap();
            }
            Kind::Sharded => {
                let tree = xp_xmltree::parse(DOC_XML).unwrap();
                let mut store =
                    ShardedDocStore::create(dir, "d.xml", tree, 8, ShardPolicy::at_depth(1))
                        .unwrap();
                for _ in 0..durable {
                    let a = store.labeled().tree().node_at(A as usize).unwrap();
                    store.apply_batch(&[Mutation::InsertBefore { anchor: a, tag: "n".into() }])
                        .unwrap();
                }
                store.checkpoint().unwrap();
            }
        }
        assert_eq!(std::fs::metadata(dir.join(xp_store::WAL_FILE)).unwrap().len(), 0);
    }

    /// Appends one frame at `seq` carrying `mutation` and then `extra`.
    fn append(self, dir: &Path, seq: u64, mutation: &Mutation<u64>, extra: &[u8]) {
        let mut payload = Vec::new();
        if let Kind::Flat = self {
            write_varint(&mut payload, 1); // the document's id
        }
        write_varint(&mut payload, seq);
        mutation.encode(&mut payload);
        payload.extend_from_slice(extra);
        let (mut wal, _) = Wal::open(dir).unwrap();
        wal.append(&payload).unwrap();
    }

    /// Every reader of this kind, each with what it made of the log.
    fn read(self, dir: &Path) -> Vec<(&'static str, Outcome)> {
        let count_m = |tree: &xp_xmltree::XmlTree| {
            tree.elements().filter(|&n| tree.tag(n) == Some("m")).count()
        };
        match self {
            Kind::Flat => {
                // fsck first: it is read-only, and an open may truncate.
                let fsck = fsck(dir).map(|r| (r.replayed, None));
                let open = Store::open(dir).map(|s| {
                    let doc = s.doc("d.xml").unwrap();
                    (count_m(doc.tree()), Some(doc.seq()))
                });
                vec![("fsck", fsck), ("Store::open", open)]
            }
            Kind::Sharded => {
                let open = ShardedDocStore::open(dir)
                    .map(|s| (count_m(s.labeled().tree()), Some(s.seq())));
                vec![("ShardedDocStore::open", open)]
            }
        }
    }
}

/// What one reader made of the log: the frames it replayed (each adds one
/// `<m>`) and, for an open, the document's seq after replay.
type Outcome = Result<(usize, Option<u64>), StoreError>;

fn assert_all_corrupt(kind: Kind, dir: &Path, case: &str) {
    for (reader, outcome) in kind.read(dir) {
        match outcome {
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => panic!("{kind:?} {reader}, {case}: wrong error: {other}"),
            Ok(got) => panic!("{kind:?} {reader}, {case}: accepted the log ({got:?})"),
        }
    }
}

#[test]
fn a_frame_with_trailing_bytes_is_corrupt() {
    for kind in [Kind::Flat, Kind::Sharded] {
        let dir = scratch_dir("trailing");
        kind.create(&dir, 0);
        kind.append(&dir, 1, &insert("m"), &[0x00]);
        assert_all_corrupt(kind, &dir, "trailing byte");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_repeated_frame_is_corrupt() {
    for kind in [Kind::Flat, Kind::Sharded] {
        let dir = scratch_dir("repeat");
        kind.create(&dir, 0);
        for seq in [1, 2, 1] {
            kind.append(&dir, seq, &insert("m"), &[]);
        }
        assert_all_corrupt(kind, &dir, "seq 1, 2, 1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_gap_is_corrupt() {
    for kind in [Kind::Flat, Kind::Sharded] {
        let dir = scratch_dir("gap");
        kind.create(&dir, 0);
        for seq in [1, 3] {
            kind.append(&dir, seq, &insert("m"), &[]);
        }
        assert_all_corrupt(kind, &dir, "seq 1, 3");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn frames_the_checkpoint_folds_in_are_skipped() {
    for kind in [Kind::Flat, Kind::Sharded] {
        let dir = scratch_dir("skip");
        kind.create(&dir, 2);
        // Seqs 1 and 2 are in the checkpoint (as `<n>`s); replaying them
        // again would add two `<m>`s. Only seq 3 is new.
        for seq in [1, 2, 1, 3] {
            kind.append(&dir, seq, &insert("m"), &[]);
        }
        for (reader, outcome) in kind.read(&dir) {
            let (replayed, seq) = outcome.unwrap_or_else(|e| panic!("{kind:?} {reader}: {e}"));
            assert_eq!(replayed, 1, "{kind:?} {reader}");
            assert!(seq.is_none() || seq == Some(3), "{kind:?} {reader}: seq {seq:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
