//! The central crash-safety property: **every** WAL prefix recovers, for
//! both store kinds.
//!
//! A random document and mutation script run through a durable store: the
//! flat [`Store`], or a [`ShardedDocStore`] (cut depth 1, one
//! `apply_batch` per mutation). Then, for every byte-length prefix of the
//! resulting WAL (with a little garbage appended to odd cuts, modeling a
//! torn tail), a scratch copy of the store directory is reopened. The
//! reopened store must (a) be logically identical to an in-memory oracle
//! that applied exactly the mutations whose frames fit in the prefix — for
//! the flat store the quadruple consistency check and byte-identity, for
//! the sharded store the same tree and document order — and (b) answer
//! all nine query axes exactly like the oracle's label table (the sharded
//! store through freshly built, composed table partitions).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xp_labelkit::{InsertPos, LabelOps, LabeledStore, Mutation, ShardPolicy};
use xp_prime::{DynamicPrime, PrimeLabel};
use xp_query::engine::{eval_path, Path as QueryPath, TreeOrderOracle};
use xp_query::relstore::LabelTable;
use xp_query::ShardedTables;
use xp_store::frame::decode_frames;
use xp_store::{verify, ShardedDocStore, Store, WAL_FILE};
use xp_testkit::propcheck::{usizes, vec_of, Gen};
use xp_testkit::{prop_assert, propcheck};
use xp_xmltree::{NodeId, XmlTree};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(label: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "xp-store-prefix-{label}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Random element-only tree over tags `t0..t3` (root `t0`), the same shape
/// the dynamic differential tests use.
fn tree_strategy(max_nodes: usize) -> Gen<XmlTree> {
    vec_of(usizes(0..1 << 16), 0..max_nodes).map(|attach| {
        let mut tree = XmlTree::new("t0");
        let mut nodes = vec![tree.root()];
        for (i, seed) in attach.into_iter().enumerate() {
            let parent = nodes[seed % nodes.len()];
            let child = tree.append_element(parent, format!("t{}", i % 4));
            nodes.push(child);
        }
        tree
    })
}

/// Serializes an element-only tree back to XML source for `add_document`.
fn to_xml(tree: &XmlTree, node: NodeId, out: &mut String) {
    let tag = tree.tag(node).unwrap_or("t0");
    out.push('<');
    out.push_str(tag);
    let kids: Vec<NodeId> = tree.children(node).collect();
    if kids.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for kid in kids {
        to_xml(tree, kid, out);
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

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

fn non_root(tree: &XmlTree, pick: usize) -> Option<NodeId> {
    let n = tree.elements().count();
    if n < 2 {
        return None;
    }
    tree.elements().nth(1 + pick % (n - 1))
}

/// Derives one data-form mutation from a seed against the current tree.
/// Mirrors the dynamic differential driver, but produces [`Mutation`]
/// values so the same bytes flow through the WAL.
fn random_mutation(tree: &XmlTree, seed: usize) -> Option<Mutation> {
    let n = tree.elements().count();
    let pick = seed / 8;
    match seed % 8 {
        0 | 1 => non_root(tree, pick)
            .map(|anchor| Mutation::InsertBefore { anchor, tag: "t1".into() }),
        2 => {
            let pos = match non_root(tree, pick) {
                Some(anchor) if pick % 2 == 0 => InsertPos::Before(anchor),
                _ => InsertPos::LastChildOf(
                    tree.elements().nth(pick % n).unwrap_or_else(|| tree.root()),
                ),
            };
            Some(Mutation::InsertSubtree { pos, xml: "<t1><t2/><t3/></t1>".into() })
        }
        3 => non_root(tree, pick).map(|target| Mutation::InsertParent { target, tag: "t2".into() }),
        4 | 5 => {
            if n >= 3 {
                non_root(tree, pick).map(|target| Mutation::Delete { target })
            } else {
                None
            }
        }
        _ => {
            let target = non_root(tree, pick)?;
            let dest = non_root(tree, pick / 3)?;
            let pos = if pick % 2 == 0 {
                InsertPos::Before(dest)
            } else {
                InsertPos::LastChildOf(dest)
            };
            // MoveIntoSelf rejections are fine: the frame is durable and the
            // failed apply consumes a sequence number, live and on replay.
            Some(Mutation::MoveSubtree { target, pos })
        }
    }
}

/// Copies everything except the WAL from `src` to `dst`.
fn copy_store_sans_wal(src: &Path, dst: &Path) {
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_str() == Some(WAL_FILE) {
            continue;
        }
        std::fs::copy(entry.path(), dst.join(name)).unwrap();
    }
}

/// Which durable store a case drives.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Flat,
    Sharded,
}

/// Runs `ops` through a fresh store of `kind` in `dir`, returning the
/// mutations it logged, in order.
fn drive(
    kind: Kind,
    dir: &Path,
    xml: &str,
    base: &XmlTree,
    ops: &[usize],
) -> Result<Vec<Mutation>, String> {
    let mut muts: Vec<Mutation> = Vec::new();
    // Scheme rejections are allowed; WAL faults are not armed here.
    match kind {
        Kind::Flat => {
            let mut live = Store::create(dir).map_err(|e| format!("create: {e}"))?;
            live.add_document("doc.xml", xml, 3).map_err(|e| format!("add: {e}"))?;
            for &seed in ops {
                let tree = live.doc("doc.xml").ok_or("doc vanished")?.tree();
                let Some(m) = random_mutation(tree, seed) else { continue };
                let _ = live.apply("doc.xml", &m);
                muts.push(m);
            }
        }
        Kind::Sharded => {
            let mut live =
                ShardedDocStore::create(dir, "doc.xml", base.clone(), 3, ShardPolicy::at_depth(1))
                    .map_err(|e| format!("create: {e}"))?;
            for &seed in ops {
                let Some(m) = random_mutation(live.labeled().tree(), seed) else { continue };
                live.apply_batch(std::slice::from_ref(&m)).map_err(|e| format!("apply: {e}"))?;
                muts.push(m);
            }
        }
    }
    Ok(muts)
}

/// Nine axes: `table` answers every path exactly like the oracle's table.
fn answers_match<L: LabelOps>(
    table: &LabelTable<L>,
    oracle_table: &LabelTable<PrimeLabel>,
    ranks: &TreeOrderOracle,
    at: &str,
) -> Result<(), String> {
    for path_str in PATHS {
        let path = QueryPath::parse(path_str).map_err(|e| e.to_string())?;
        let got = eval_path(table, ranks, &path).map_err(|e| format!("{at}: {path_str}: {e}"))?;
        let want = eval_path(oracle_table, ranks, &path)
            .map_err(|e| format!("{at}: {path_str} (oracle): {e}"))?;
        if got != want {
            return Err(format!("{at}: {path_str}: recovered {got:?} vs oracle {want:?}"));
        }
    }
    Ok(())
}

fn run_case(kind: Kind, tree: &XmlTree, ops: &[usize]) -> Result<(), String> {
    let dir = scratch_dir("live");
    let mut xml = String::new();
    to_xml(tree, tree.root(), &mut xml);
    // The store parses the XML, which assigns arena slots in document
    // order — not necessarily the generated tree's insertion order. The
    // oracle (and the sharded store) must start from the identical arena.
    let base = xp_xmltree::parse(&xml).map_err(|e| format!("reparse: {e}"))?;
    let muts = drive(kind, &dir, &xml, &base, ops)?;
    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).map_err(|e| e.to_string())?;

    for cut in 0..=wal_bytes.len() {
        let scratch = scratch_dir("cut");
        copy_store_sans_wal(&dir, &scratch);
        let mut prefix = wal_bytes[..cut].to_vec();
        // Odd cuts get a sprinkle of garbage: a crash can leave trailing
        // junk as well as a clean truncation. Up to 2 bytes can never form
        // a valid frame header, so it must scan as a torn tail.
        prefix.extend(std::iter::repeat_n(0xC3, cut % 3));
        std::fs::write(scratch.join(WAL_FILE), &prefix).map_err(|e| e.to_string())?;

        // How many complete frames fit in this prefix = how many mutations
        // the oracle applies.
        let k = decode_frames(&wal_bytes[..cut]).frames.len();
        let at = format!("{kind:?} cut {cut} (k={k})");

        let mut oracle = LabeledStore::build(DynamicPrime::new(3), base.clone())
            .map_err(|e| format!("oracle build: {e}"))?;
        let mut oracle_table = LabelTable::build(oracle.tree(), oracle.doc());
        for m in &muts[..k] {
            if let Ok(report) = oracle.apply(m) {
                oracle_table.apply_report(oracle.tree(), oracle.doc(), &report);
            }
        }
        let ranks = TreeOrderOracle::of(oracle.tree());

        match kind {
            Kind::Flat => {
                let reopened =
                    Store::open(&scratch).map_err(|e| format!("{at}: open failed: {e}"))?;
                reopened.verify().map_err(|e| format!("{at}: verify: {e}"))?;
                let redoc = reopened.doc("doc.xml").ok_or_else(|| format!("{at}: doc lost"))?;
                verify::equivalent(redoc.labeled(), &oracle)
                    .map_err(|e| format!("{at}: reopened != oracle: {e}"))?;
                answers_match(redoc.table(), &oracle_table, &ranks, &at)?;
            }
            Kind::Sharded => {
                let reopened = ShardedDocStore::open(&scratch)
                    .map_err(|e| format!("{at}: open failed: {e}"))?;
                let labeled = reopened.labeled();
                if labeled.tree().snapshot() != oracle.tree().snapshot() {
                    return Err(format!("{at}: reopened tree != oracle tree"));
                }
                if labeled.ordered_nodes() != oracle.ordered_nodes() {
                    return Err(format!("{at}: reopened document order != oracle order"));
                }
                let table = ShardedTables::build(labeled).compose();
                answers_match(&table, &oracle_table, &ranks, &at)?;
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

propcheck! {
    #![config(cases = 10)]

    /// Every byte prefix of every random WAL recovers to the matching
    /// mutation-prefix oracle, consistent on all nine query axes.
    #[test]
    fn every_wal_prefix_recovers_to_a_consistent_prefix_oracle(
        tree in tree_strategy(14),
        ops in vec_of(usizes(0..1 << 12), 1..6),
    ) {
        let outcome = run_case(Kind::Flat, &tree, &ops);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }

    /// The same property for a sharded document: every WAL prefix reopens
    /// to the prefix oracle's tree and order, and its partitions answer
    /// all nine axes like the oracle.
    #[test]
    fn every_sharded_wal_prefix_recovers_to_a_consistent_prefix_oracle(
        tree in tree_strategy(14),
        ops in vec_of(usizes(0..1 << 12), 1..6),
    ) {
        let outcome = run_case(Kind::Sharded, &tree, &ops);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }
}

/// The fixed tree and script every deterministic case below runs.
fn fixed_script() -> (XmlTree, Vec<usize>) {
    let tree = xp_xmltree::parse("<t0><t1><t2/><t3/></t1><t2/><t1><t3/></t1></t0>").unwrap();
    (tree, vec![0, 9, 2, 18, 3, 12, 6, 27, 35])
}

/// Deterministic single case for quick CI runs and debugging: a fixed tree
/// and script through the same prefix machinery.
#[test]
fn fixed_script_every_prefix() {
    let (tree, ops) = fixed_script();
    run_case(Kind::Flat, &tree, &ops).unwrap();
}

/// The fixed script through a sharded store.
#[test]
fn fixed_script_every_sharded_prefix() {
    let (tree, ops) = fixed_script();
    run_case(Kind::Sharded, &tree, &ops).unwrap();
}
