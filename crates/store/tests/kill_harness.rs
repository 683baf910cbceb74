//! The kill-anywhere recovery harness: a *real* process death at every
//! I/O fault site.
//!
//! The parent test re-executes this test binary as a child with
//! `XP_FAULT=<site>:<hit>:abort` in its environment. The child runs a
//! deterministic store scenario; the armed site calls
//! `std::process::abort()` mid-write — no unwinding, no destructors, the
//! closest in-tree approximation of `kill -9`. The parent then opens the
//! directory the dead child left behind and asserts it recovers to one of
//! the scenario's legitimate mutation-prefix states.

use std::path::{Path, PathBuf};
use std::process::Command;

use xp_labelkit::{InsertPos, LabeledStore, Mutation};
use xp_prime::DynamicPrime;
use xp_store::{fsck, verify, Store, StoreError};
use xp_xmltree::{NodeId, XmlTree};

const DOC_XML: &str = "<t0><t1><t2/><t3/></t1><t2/><t1><t3/></t1></t0>";
const SCRIPT_LEN: usize = 4;

fn nth(tree: &XmlTree, n: usize) -> NodeId {
    tree.elements().nth(n).unwrap_or_else(|| tree.root())
}

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

fn oracle_after(k: usize) -> LabeledStore<DynamicPrime> {
    let tree = xp_xmltree::parse(DOC_XML).unwrap();
    let mut oracle = LabeledStore::build(DynamicPrime::new(4), tree).unwrap();
    for step in 0..k {
        let m = scripted_mutation(step, oracle.tree());
        oracle.apply(&m).unwrap();
    }
    oracle
}

/// The child's scenario: create, add a document, apply the script, then
/// checkpoint everything. With an `abort`-mode fault armed via the
/// environment, the process dies mid-write at the armed hit.
///
/// This "test" is inert under a normal `cargo test` run — it only acts
/// when the parent harness sets `XP_KILL_CHILD`.
#[test]
fn kill_child_scenario() {
    let Ok(dir) = std::env::var("XP_KILL_CHILD") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let mut store = Store::create(&dir).unwrap();
    store.add_document("doc.xml", DOC_XML, 4).unwrap();
    for step in 0..SCRIPT_LEN {
        let m = scripted_mutation(step, store.doc("doc.xml").unwrap().tree());
        store.apply("doc.xml", &m).unwrap();
    }
    store.checkpoint_all().unwrap();
}

/// Runs the child scenario in a subprocess with `spec` armed, returning
/// whether the child died (vs. ran to completion because the hit index was
/// past what the scenario reaches).
fn run_child(dir: &PathBuf, spec: &str) -> bool {
    let exe = std::env::current_exe().unwrap();
    let out = Command::new(exe)
        .args(["--exact", "kill_child_scenario", "--nocapture", "--test-threads=1"])
        .env("XP_KILL_CHILD", dir)
        .env("XP_FAULT", spec)
        .output()
        .unwrap();
    !out.status.success()
}

/// After a child death, the directory must open to a store whose document
/// (if it became durable at all) matches one of the scripted prefixes.
fn assert_killed_store_recovers(dir: &Path, spec: &str, accept: &[usize]) -> usize {
    let reopened = match Store::open(dir) {
        Ok(s) => s,
        Err(StoreError::NotAStore(_)) => {
            // Killed before the very first manifest swap: the store never
            // came into being. That is a legitimate prefix (nothing).
            assert!(
                accept.contains(&usize::MAX),
                "{spec}: store missing but scenario should have created one"
            );
            return usize::MAX;
        }
        Err(e) => panic!("{spec}: reopen failed: {e}"),
    };
    reopened.verify().unwrap_or_else(|e| panic!("{spec}: verify: {e}"));
    let Some(doc) = reopened.doc("doc.xml") else {
        // Killed between store creation and the document's manifest swap.
        assert!(
            accept.contains(&usize::MAX),
            "{spec}: document missing but should have been durable"
        );
        drop(reopened);
        fsck(dir).unwrap_or_else(|e| panic!("{spec}: fsck: {e}"));
        return usize::MAX;
    };
    for &k in accept {
        if k == usize::MAX {
            continue;
        }
        if verify::equivalent(doc.labeled(), &oracle_after(k)).is_ok() {
            drop(reopened);
            fsck(dir).unwrap_or_else(|e| panic!("{spec}: fsck: {e}"));
            return k;
        }
    }
    panic!(
        "{spec}: reopened store matches none of the acceptable prefixes {accept:?} \
         (doc has {} elements)",
        doc.tree().elements().count()
    );
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xp-store-kill-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_during_wal_append_recovers_the_exact_prefix() {
    for hit in 1..=SCRIPT_LEN {
        let dir = scratch_dir(&format!("append-{hit}"));
        let spec = format!("store.wal.append:{hit}:abort");
        assert!(run_child(&dir, &spec), "{spec}: child survived");
        // A torn append frame never replays: exactly hit-1 mutations.
        let k = assert_killed_store_recovers(&dir, &spec, &[hit - 1]);
        assert_eq!(k, hit - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_during_wal_fsync_recovers_either_prefix() {
    for hit in 1..=SCRIPT_LEN {
        let dir = scratch_dir(&format!("fsync-{hit}"));
        let spec = format!("store.wal.fsync:{hit}:abort");
        assert!(run_child(&dir, &spec), "{spec}: child survived");
        // The frame was fully written before the abort: the mutation is on
        // disk and replays (hit), though a real power cut could also have
        // lost the unsynced write (hit-1). Both are legitimate.
        assert_killed_store_recovers(&dir, &spec, &[hit - 1, hit]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_during_checkpoint_write_recovers() {
    // Hit 1 is add_document's initial segment; hit 2 is checkpoint_all's.
    // Hit 1: killed before the document became durable → empty store.
    // Hit 2: the WAL still holds every mutation → full script.
    for (hit, accept) in [(1, vec![usize::MAX]), (2, vec![SCRIPT_LEN])] {
        let dir = scratch_dir(&format!("ckpt-{hit}"));
        let spec = format!("store.checkpoint.write:{hit}:abort");
        assert!(run_child(&dir, &spec), "{spec}: child survived");
        assert_killed_store_recovers(&dir, &spec, &accept);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_during_manifest_swap_recovers() {
    // Hit 1 is Store::create's initial swap (no store yet), hit 2 is
    // add_document's (empty store), hit 3 is checkpoint_all's (the old
    // checkpoint plus the full WAL stays live).
    for (hit, accept) in [
        (1, vec![usize::MAX]),
        (2, vec![usize::MAX]),
        (3, vec![SCRIPT_LEN]),
    ] {
        let dir = scratch_dir(&format!("swap-{hit}"));
        let spec = format!("store.manifest.swap:{hit}:abort");
        assert!(run_child(&dir, &spec), "{spec}: child survived");
        assert_killed_store_recovers(&dir, &spec, &accept);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unfired_fault_lets_the_child_finish_cleanly() {
    let dir = scratch_dir("clean");
    // Hit index far past anything the scenario reaches: no abort.
    let spec = "store.wal.append:999:abort";
    assert!(!run_child(&dir, spec), "child should have finished");
    let k = assert_killed_store_recovers(&dir, spec, &[SCRIPT_LEN]);
    assert_eq!(k, SCRIPT_LEN);
    let _ = std::fs::remove_dir_all(&dir);
}
