//! The fault-site × failure-mode crash matrix (in-process half).
//!
//! Every store I/O fault site is fired in `error` and `torn` mode at every
//! hit index the driver scenario reaches, the failed operation's error is
//! observed, and the directory is reopened and compared against the
//! legitimate oracle states. The `abort` mode — a real `kill -9`-style
//! death — lives in `kill_harness.rs`; `short` mode is covered on the read
//! path here.

use std::path::{Path, PathBuf};

use xp_labelkit::{InsertPos, LabeledStore, Mutation, ShardPolicy};
use xp_prime::DynamicPrime;
use xp_store::{fsck, verify, ShardedDocStore, Store, StoreError};
use xp_testkit::fault;
use xp_xmltree::{NodeId, XmlTree};

const DOC_XML: &str = "<t0><t1><t2/><t3/></t1><t2/><t1><t3/></t1></t0>";

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xp-store-matrix-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn nth(tree: &XmlTree, n: usize) -> NodeId {
    tree.elements().nth(n).unwrap_or_else(|| tree.root())
}

/// The scripted mutations, derived against the current tree so node ids
/// stay valid however many previous steps committed.
fn scripted_mutation(step: usize, tree: &XmlTree) -> Mutation {
    match step {
        0 => Mutation::InsertBefore { anchor: nth(tree, 2), tag: "t1".into() },
        1 => Mutation::InsertSubtree {
            pos: InsertPos::LastChildOf(tree.root()),
            xml: "<t2><t3/></t2>".into(),
        },
        2 => Mutation::Delete { target: nth(tree, 1) },
        _ => Mutation::InsertParent { target: nth(tree, 1), tag: "t3".into() },
    }
}

const SCRIPT_LEN: usize = 4;

/// In-memory oracle after `k` scripted mutations.
fn oracle_after(k: usize) -> LabeledStore<DynamicPrime> {
    let tree = xp_xmltree::parse(DOC_XML).unwrap();
    let mut oracle = LabeledStore::build(DynamicPrime::new(4), tree).unwrap();
    for step in 0..k {
        let m = scripted_mutation(step, oracle.tree());
        oracle.apply(&m).unwrap();
    }
    oracle
}

/// Reopens `dir` and asserts the surviving document matches one of the
/// `accept`able mutation-prefix oracles. Returns which one it was.
fn assert_recovers_to_prefix(dir: &Path, accept: &[usize]) -> usize {
    let reopened = Store::open(dir).unwrap();
    reopened.verify().unwrap();
    let doc = reopened.doc("doc.xml").unwrap();
    for &k in accept {
        if verify::equivalent(doc.labeled(), &oracle_after(k)).is_ok() {
            // fsck agrees the on-disk state (post-recovery) is clean.
            drop(reopened);
            fsck(dir).unwrap();
            return k;
        }
    }
    panic!(
        "reopened store matches none of the acceptable prefixes {accept:?} \
         (doc has {} elements)",
        doc.tree().elements().count()
    );
}

/// Drives the scripted scenario with `spec` armed, stopping at the first
/// injected failure. Returns how many mutations had fully succeeded.
fn drive_until_fault(dir: &Path, spec: &str) -> (usize, bool) {
    fault::reset();
    let mut live = Store::create(dir).unwrap();
    live.add_document("doc.xml", DOC_XML, 4).unwrap();
    fault::arm(spec);
    let mut committed = 0usize;
    let mut faulted = false;
    for step in 0..SCRIPT_LEN {
        let m = scripted_mutation(step, live.doc("doc.xml").unwrap().tree());
        match live.apply("doc.xml", &m) {
            Ok(_) => committed += 1,
            Err(StoreError::FaultInjected(_)) | Err(StoreError::Io { .. }) => {
                faulted = true;
                break;
            }
            Err(other) => panic!("unexpected scheme error at step {step}: {other}"),
        }
    }
    fault::reset();
    (committed, faulted)
}

#[test]
fn wal_append_faults_at_every_hit_recover_to_the_exact_prefix() {
    for mode in ["error", "torn"] {
        for hit in 1..=SCRIPT_LEN {
            let dir = scratch_dir(&format!("append-{mode}-{hit}"));
            let spec = format!("store.wal.append:{hit}:{mode}");
            let (committed, faulted) = drive_until_fault(&dir, &spec);
            assert!(faulted, "{spec}: fault never fired");
            assert_eq!(committed, hit - 1);
            // An append-site failure never persists a complete frame: the
            // reopened store holds exactly the committed prefix.
            let k = assert_recovers_to_prefix(&dir, &[committed]);
            assert_eq!(k, hit - 1, "{spec}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn wal_fsync_faults_recover_to_either_prefix() {
    // The frame is fully written before the sync fails. A crash in that
    // window may leave it durable, so the reopened store may legitimately
    // contain the "failed" mutation; both prefixes are internally
    // consistent. Without a crash, the live store rolls the frame back and
    // it is the shorter one.
    for hit in 1..=SCRIPT_LEN {
        let dir = scratch_dir(&format!("fsync-{hit}"));
        let spec = format!("store.wal.fsync:{hit}");
        let (committed, faulted) = drive_until_fault(&dir, &spec);
        assert!(faulted, "{spec}: fault never fired");
        assert_eq!(committed, hit - 1);
        let k = assert_recovers_to_prefix(&dir, &[committed, committed + 1]);
        assert!(k == committed || k == committed + 1, "{spec}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_write_faults_leave_the_old_checkpoint_live() {
    for mode in ["error", "torn"] {
        let dir = scratch_dir(&format!("ckpt-{mode}"));
        fault::reset();
        let mut live = Store::create(&dir).unwrap();
        live.add_document("doc.xml", DOC_XML, 4).unwrap();
        for step in 0..SCRIPT_LEN {
            let m = scripted_mutation(step, live.doc("doc.xml").unwrap().tree());
            live.apply("doc.xml", &m).unwrap();
        }
        fault::arm(&format!("store.checkpoint.write:1:{mode}"));
        let err = live.checkpoint("doc.xml").unwrap_err();
        fault::reset();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        // Epoch unchanged: the manifest still points at the old segment,
        // and every mutation is still in the WAL.
        assert_eq!(live.doc("doc.xml").unwrap().epoch(), 1);
        assert_eq!(live.doc("doc.xml").unwrap().durable_seq(), 0);
        drop(live);
        assert_recovers_to_prefix(&dir, &[SCRIPT_LEN]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn manifest_swap_faults_leave_the_old_manifest_live() {
    for mode in ["error", "torn"] {
        let dir = scratch_dir(&format!("swap-{mode}"));
        fault::reset();
        let mut live = Store::create(&dir).unwrap();
        live.add_document("doc.xml", DOC_XML, 4).unwrap();
        for step in 0..SCRIPT_LEN {
            let m = scripted_mutation(step, live.doc("doc.xml").unwrap().tree());
            live.apply("doc.xml", &m).unwrap();
        }
        // Hit 1 of the armed spec is the checkpoint's swap (arming happens
        // after add_document's own swap).
        fault::arm(&format!("store.manifest.swap:1:{mode}"));
        let err = live.checkpoint("doc.xml").unwrap_err();
        fault::reset();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        drop(live);
        // The new segment was written but never referenced; recovery GCs it
        // and replays the WAL onto the old checkpoint.
        assert_recovers_to_prefix(&dir, &[SCRIPT_LEN]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn add_document_swap_fault_recovers_to_an_empty_store() {
    for mode in ["error", "torn"] {
        let dir = scratch_dir(&format!("add-swap-{mode}"));
        fault::reset();
        let mut live = Store::create(&dir).unwrap();
        fault::arm(&format!("store.manifest.swap:1:{mode}"));
        assert!(live.add_document("doc.xml", DOC_XML, 4).is_err());
        fault::reset();
        drop(live);
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.docs().count(), 0, "document never became durable");
        // The orphaned epoch-1 segment was GC'd.
        assert!(!dir.join(xp_store::segment_file(1, 1)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_read_fault_surfaces_as_typed_error_and_is_transient() {
    let dir = scratch_dir("read-short");
    fault::reset();
    {
        let mut live = Store::create(&dir).unwrap();
        live.add_document("doc.xml", DOC_XML, 4).unwrap();
        let m = scripted_mutation(0, live.doc("doc.xml").unwrap().tree());
        live.apply("doc.xml", &m).unwrap();
    }
    for mode in ["short", "error"] {
        fault::arm(&format!("store.wal.read:1:{mode}"));
        let err = Store::open(&dir).unwrap_err();
        fault::reset();
        assert!(matches!(err, StoreError::Io { op: "read", .. }), "{err}");
    }
    // The failure was transient — nothing was truncated or lost.
    assert_recovers_to_prefix(&dir, &[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faults_during_recovery_replay_do_not_corrupt_the_disk() {
    // Arm a WAL-append fault, crash an apply, reopen (which replays), and
    // make sure reopening again still works: recovery itself never appends,
    // so an armed append site must not fire during open.
    let dir = scratch_dir("replay-inert");
    fault::reset();
    {
        let mut live = Store::create(&dir).unwrap();
        live.add_document("doc.xml", DOC_XML, 4).unwrap();
        let m = scripted_mutation(0, live.doc("doc.xml").unwrap().tree());
        live.apply("doc.xml", &m).unwrap();
        fault::arm("store.wal.append:1:torn");
        let m = scripted_mutation(1, live.doc("doc.xml").unwrap().tree());
        assert!(live.apply("doc.xml", &m).is_err());
        fault::reset();
    }
    fault::arm("store.wal.append:1:torn");
    let reopened = Store::open(&dir).unwrap();
    let append_hits = fault::hits("store.wal.append");
    fault::reset();
    reopened.verify().unwrap();
    assert_eq!(append_hits, 0, "recovery never appends");
    drop(reopened);
    assert_recovers_to_prefix(&dir, &[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every single-fault spec of the continue-after-failure cases: a failed
/// append (nothing written, or a torn frame) or a failed sync, at each
/// write of the script.
fn failed_append_specs() -> Vec<String> {
    (1..=SCRIPT_LEN)
        .flat_map(|k| {
            [
                format!("store.wal.append:{k}:error"),
                format!("store.wal.append:{k}:torn"),
                format!("store.wal.fsync:{k}"),
            ]
        })
        .collect()
}

#[test]
fn writes_after_a_failed_append_survive_reopen() {
    for spec in failed_append_specs() {
        let dir = scratch_dir("after-failure");
        fault::reset();
        let mut live = Store::create(&dir).unwrap();
        live.add_document("doc.xml", DOC_XML, 4).unwrap();
        fault::arm(&spec);
        // One step past the script, so a fault at its last write is still
        // followed by an acknowledged one.
        let mut failed = 0;
        for step in 0..=SCRIPT_LEN {
            let m = scripted_mutation(step, live.doc("doc.xml").unwrap().tree());
            match live.apply("doc.xml", &m) {
                Ok(_) => {}
                Err(StoreError::Io { .. }) => failed += 1,
                Err(other) => panic!("{spec}: unexpected error at step {step}: {other}"),
            }
        }
        fault::reset();
        assert_eq!(failed, 1, "{spec}: exactly one write fails");
        let reopened = Store::open(&dir).unwrap();
        reopened.verify().unwrap();
        let (live_doc, back) = (live.doc("doc.xml").unwrap(), reopened.doc("doc.xml").unwrap());
        assert_eq!(back.seq(), live_doc.seq(), "{spec}");
        verify::equivalent(live_doc.labeled(), back.labeled())
            .unwrap_or_else(|e| panic!("{spec}: reopened != live: {e}"));
        drop(reopened);
        fsck(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sharded_writes_after_a_failed_append_survive_reopen() {
    for spec in failed_append_specs() {
        let dir = scratch_dir("sharded-after-failure");
        fault::reset();
        let tree = xp_xmltree::parse(DOC_XML).unwrap();
        let mut live =
            ShardedDocStore::create(&dir, "doc.xml", tree, 4, ShardPolicy::at_depth(1)).unwrap();
        fault::arm(&spec);
        let mut failed = 0;
        for step in 0..=SCRIPT_LEN {
            let m = scripted_mutation(step, live.labeled().tree());
            match live.apply_batch(&[m]) {
                Ok(_) => {}
                Err(StoreError::Io { .. }) => failed += 1,
                Err(other) => panic!("{spec}: unexpected error at step {step}: {other}"),
            }
        }
        fault::reset();
        assert_eq!(failed, 1, "{spec}: exactly one write fails");
        let reopened = ShardedDocStore::open(&dir)
            .unwrap_or_else(|e| panic!("{spec}: reopen failed: {e}"));
        assert_eq!(reopened.seq(), live.seq(), "{spec}");
        let (a, b) = (live.labeled(), reopened.labeled());
        assert!(a.tree().snapshot() == b.tree().snapshot(), "{spec}: trees differ");
        assert_eq!(a.ordered_nodes(), b.ordered_nodes(), "{spec}: document orders differ");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
