//! Exhaustive interleaving differential for the epoch loop.
//!
//! N client scripts are merged in *every* serialized order (all
//! order-preserving interleavings of the per-client mutation sequences)
//! and pushed through a real [`EpochLoop`]. Two properties must hold, per
//! interleaving:
//!
//! 1. **Convergence** — the loop's final document is bit-identical to a
//!    plain [`LabeledStore`] that applied the same serialized sequence
//!    directly: same tree arena, same labels, same SC state. The epoch
//!    machinery (WAL batching, publish, reclaim/clone) must be
//!    semantically invisible.
//! 2. **Per-epoch oracle** — after every published epoch, the snapshot
//!    answers all nine query axes (plus a positional predicate) exactly
//!    like a relabel-from-scratch document built from the same tree — the
//!    oracle that cannot be wrong about what the labels should say.
//!
//! Batching is part of the matrix: the same interleavings run with group
//! commit disabled (`max_mutations = 1`, one epoch per mutation) and
//! enabled (`max_mutations = 4`); both must satisfy both properties.

use std::sync::mpsc;

use xp_labelkit::{LabeledStore, Mutation};
use xp_prime::DynamicPrime;
use xp_query::engine::{eval_path, Path, TreeOrderOracle};
use xp_query::relstore::LabelTable;
use xp_server::epoch::{ApplyJob, ApplyOutcome, BatchPolicy, EpochLoop};
use xp_server::snapshot::EpochSnapshot;
use xp_store::{verify, Store};
use xp_xmltree::XmlTree;

const DOC_XML: &str = "<t0><t1><t2/><t3/></t1><t2/><t1><t3/></t1></t0>";
const URI: &str = "doc.xml";

/// One query per axis the engine supports, plus a positional step.
const PATHS: &[&str] = &[
    "//t0/t1",
    "/t0//t2",
    "//t2/parent::*",
    "//t3/ancestor::t1",
    "//t1/ancestor-or-self::*",
    "//t0/following::t1",
    "//t2/preceding::t1",
    "//t1/following-sibling::t2",
    "//t2/preceding-sibling::t1",
    "//t1[2]",
];

fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("xp-server-interleave-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The step a client takes, derived deterministically from `(client,
/// step)` against the current document tree. Both the server path and the
/// direct oracle derive from identical trees, so they produce identical
/// mutations.
fn scripted(client: usize, step: usize, tree: &XmlTree) -> Mutation {
    let n = tree.elements().count();
    let pick = |k: usize| {
        let idx = 1 + (client * 3 + step * 5 + k) % (n - 1);
        tree.elements().nth(idx).unwrap_or_else(|| tree.root())
    };
    match (client + 2 * step) % 5 {
        0 => Mutation::InsertBefore { anchor: pick(0), tag: "t1".into() },
        1 => Mutation::InsertSubtree {
            pos: xp_labelkit::InsertPos::LastChildOf(tree.root()),
            xml: "<t2><t3/></t2>".into(),
        },
        2 => Mutation::InsertParent { target: pick(1), tag: "t2".into() },
        3 => Mutation::Delete { target: pick(2) },
        _ => Mutation::MoveSubtree {
            target: pick(0),
            pos: xp_labelkit::InsertPos::Before(pick(3)),
        },
    }
}

/// All order-preserving interleavings of `counts[i]` steps per client.
fn interleavings(counts: &[usize]) -> Vec<Vec<usize>> {
    fn rec(remaining: &mut Vec<usize>, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.iter().all(|&r| r == 0) {
            out.push(prefix.clone());
            return;
        }
        for c in 0..remaining.len() {
            if remaining[c] > 0 {
                remaining[c] -= 1;
                prefix.push(c);
                rec(remaining, prefix, out);
                prefix.pop();
                remaining[c] += 1;
            }
        }
    }
    let mut out = Vec::new();
    rec(&mut counts.to_vec(), &mut Vec::new(), &mut out);
    out
}

/// Nine-axis differential of a published snapshot against a
/// relabel-from-scratch document over the same tree.
fn check_against_scratch_oracle(snap: &EpochSnapshot, context: &str) {
    let tree = XmlTree::from_snapshot(&snap.labeled().tree().snapshot())
        .unwrap_or_else(|e| panic!("{context}: snapshot tree invalid: {e}"));
    let fresh = LabeledStore::build(DynamicPrime::new(8), tree)
        .unwrap_or_else(|e| panic!("{context}: scratch relabel failed: {e}"));
    let table = LabelTable::build(fresh.tree(), fresh.doc());
    let ranks = TreeOrderOracle::of(fresh.tree());
    for p in PATHS {
        let path = Path::parse(p).unwrap();
        let got = snap
            .query(&path)
            .unwrap_or_else(|e| panic!("{context}: snapshot query {p} failed: {e}"));
        let want = eval_path(&table, &ranks, &path)
            .unwrap_or_else(|e| panic!("{context}: oracle query {p} failed: {e}"));
        assert_eq!(got, want, "{context}: axis query {p} diverged from scratch oracle");
    }
}

/// Runs one interleaving through a real epoch loop and checks both
/// properties. Returns the number of epochs that were published.
fn run_interleaving(order: &[usize], steps_done: &mut [usize], policy: BatchPolicy, label: &str) {
    let dir = scratch_dir(label);
    let mut store = Store::create(&dir).unwrap();
    store.add_document(URI, DOC_XML, 4).unwrap();
    let epoch_loop = EpochLoop::start(store, policy);
    let docs = epoch_loop.docs();

    // The direct-apply oracle: same scheme, same sequence, no server.
    let oracle_tree = xp_xmltree::parse(DOC_XML).unwrap();
    let mut oracle = LabeledStore::build(DynamicPrime::new(4), oracle_tree).unwrap();

    steps_done.iter_mut().for_each(|s| *s = 0);
    for &client in order {
        let step = steps_done[client];
        steps_done[client] += 1;
        // Derive the mutation from the *published* tree — what a real
        // client can see — which equals the oracle tree because every
        // prior submission has been acknowledged.
        let snap = docs.read().unwrap().get(URI).cloned().unwrap();
        assert_eq!(
            snap.labeled().tree().snapshot(),
            oracle.tree().snapshot(),
            "{label}: published tree drifted from the oracle before ({client},{step})"
        );
        let mutation = scripted(client, step, snap.labeled().tree());
        let mut bytes = Vec::new();
        mutation.encode(&mut bytes);

        let (tx, rx) = mpsc::sync_channel(1);
        epoch_loop
            .submit(ApplyJob { uri: URI.into(), mutations: vec![bytes], reply: tx })
            .unwrap_or_else(|_| panic!("{label}: epoch loop died"));
        let outcome = rx.recv().unwrap();
        let server_result = match outcome {
            ApplyOutcome::Applied { results, .. } => {
                assert_eq!(results.len(), 1);
                results.into_iter().next().unwrap()
            }
            ApplyOutcome::Rejected { code, msg } => {
                panic!("{label}: job rejected ({code:?}): {msg}")
            }
        };
        // Mirror on the oracle: a failure must fail on both sides.
        let oracle_result = oracle.apply(&mutation);
        assert_eq!(
            server_result.is_ok(),
            oracle_result.is_ok(),
            "{label}: server and oracle disagree on whether ({client},{step}) applies"
        );

        // Per-epoch oracle: the freshly published snapshot answers all
        // nine axes like a from-scratch relabeling.
        let snap = docs.read().unwrap().get(URI).cloned().unwrap();
        check_against_scratch_oracle(&snap, &format!("{label} after ({client},{step})"));
    }

    // Convergence: the loop's final document equals the direct oracle,
    // bit for bit (tree arena, labels, SC state).
    let final_snap = docs.read().unwrap().get(URI).cloned().unwrap();
    verify::equivalent(final_snap.labeled(), &oracle)
        .unwrap_or_else(|e| panic!("{label}: final state diverged from direct oracle: {e}"));

    // And the durable store recovered from disk agrees too.
    let store = epoch_loop.shutdown().unwrap_or_else(|| panic!("{label}: writer lost the store"));
    drop(final_snap);
    drop(store);
    let reopened = Store::open(&dir).unwrap();
    verify::equivalent(reopened.doc(URI).unwrap().labeled(), &oracle)
        .unwrap_or_else(|e| panic!("{label}: recovered state diverged: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_serialized_interleaving_converges_and_answers_like_the_oracle() {
    // 3 clients × 2 steps: 6!/(2!·2!·2!) = 90 interleavings.
    let counts = [2usize, 2, 2];
    let all = interleavings(&counts);
    assert_eq!(all.len(), 90);
    let mut steps = [0usize; 3];
    for (i, order) in all.iter().enumerate() {
        run_interleaving(
            order,
            &mut steps,
            BatchPolicy { max_mutations: 1, checkpoint_after: None },
            &format!("unbatched-{i}"),
        );
    }
}

#[test]
fn group_commit_batching_is_semantically_invisible() {
    // A subset of interleavings under an aggressive batch window: multiple
    // queued jobs may fold into one epoch, yet results must be identical.
    let counts = [2usize, 2, 2];
    let all = interleavings(&counts);
    let mut steps = [0usize; 3];
    for (i, order) in all.iter().step_by(7).enumerate() {
        run_interleaving(
            order,
            &mut steps,
            BatchPolicy { max_mutations: 4, checkpoint_after: Some(8) },
            &format!("batched-{i}"),
        );
    }
}
