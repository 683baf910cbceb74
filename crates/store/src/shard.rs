//! Per-shard checkpoint segments: durable storage for one sharded document
//! ([`xp_prime::ShardedPrime`], the §3.2 decomposition promoted to the unit
//! of scale).
//!
//! A [`ShardedDocStore`] directory holds:
//!
//! * `MANIFEST` — the same atomic-swap manifest as [`crate::Store`], reused
//!   with a fixed id map: entry id 0 is the **skeleton**, entry id `s + 1`
//!   is shard `s`. Each entry records the epoch of that piece's current
//!   file, so shards checkpointed at different times coexist at different
//!   epochs — that is what makes checkpoints `O(dirty shards)`.
//! * `shard-skel-e{epoch}.dat` — the skeleton: document URI, sharding
//!   policy, SC chunk capacity, and the exact global tree arena (the shard
//!   shadows name global nodes by arena index, so the skeleton is the frame
//!   of reference every part is glued to).
//! * `shard-{sid}-e{epoch}.dat` — one file per live shard: the shard's
//!   linkage (parent shard, global root, local→global node map, stub→child
//!   map) followed by a standard columnar segment of its shadow tree, inner
//!   labels, and private SC table.
//! * `wal.log` — the same group-commit WAL as the flat store; frames are
//!   `varint seq` + the encoded mutation (no doc id — one document).
//!
//! Checkpointing drains [`xp_labelkit::take_dirty_shards`] and rewrites
//! only the skeleton plus the dirty shards' files at the new epoch; clean
//! shards keep their old files and only their manifest entries are
//! re-pointed. A checkpoint that fails part-way keeps its dirty set
//! pending, so the next attempt re-covers those shards; recovery is
//! unaffected either way because the manifest swap is the only commit
//! point and the WAL replays everything past the durable seq.
//!
//! The dirty set covers label cascades, so a shard below a relabeled stub
//! is rewritten too although only its (unpersisted) anchor chain changed;
//! under the prime scheme that is rare.
//!
//! Recovery (`open`) mirrors [`crate::Store::open`]: manifest load, stale
//! file GC, skeleton + part loads, [`ShardedScheme::assemble`], torn-tail
//! WAL truncation, replay, and one [`maintain_shards`] pass (split timing
//! during replay may differ from the crashed process, which changes only
//! shard topology, never document content or query answers). Every label
//! change comes from a logged mutation or a split, so the WAL over the
//! last checkpoint always reproduces the live document.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::error::{io_err, StoreError};
use crate::manifest::{Manifest, ManifestEntry};
use crate::segment::{self, read_framed_file, write_framed_file};
use crate::wal::Wal;
use xp_labelkit::codec::{read_bytes, read_varint, write_bytes, write_varint};
use xp_labelkit::{
    apply_batch_sharded, maintain_shards, take_dirty_shards, DynamicError, LabeledStore, Mutation,
    RelabelReport, ShardId, ShardPart, ShardPolicy, ShardedScheme,
};
use xp_prime::{DynamicPrime, OrderedPrimeDoc, ShardedPrime};
use xp_xmltree::{NodeId, XmlTree};

const SKEL_MAGIC: &[u8; 8] = b"XPSKL01\n";
const SHARD_MAGIC: &[u8; 8] = b"XPSHD01\n";

/// Manifest entry id of the skeleton record.
const SKEL_ID: u64 = 0;

fn file_id(sid: ShardId) -> u64 {
    u64::from(sid.0) + 1
}

/// The file name the skeleton checkpoints to at `epoch`.
pub fn skeleton_file(epoch: u64) -> String {
    format!("shard-skel-e{epoch}.dat")
}

/// The file name shard `sid` checkpoints to at `epoch`.
pub fn shard_file(sid: ShardId, epoch: u64) -> String {
    format!("shard-{}-e{epoch}.dat", sid.0)
}

/// Parses a sharded-store file name: `None` shard means the skeleton.
fn parse_shard_file(name: &str) -> Option<(Option<u32>, u64)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".dat")?;
    let (who, epoch) = rest.rsplit_once("-e")?;
    let epoch: u64 = epoch.parse().ok()?;
    if who == "skel" {
        Some((None, epoch))
    } else {
        Some((Some(who.parse().ok()?), epoch))
    }
}

// ---------------------------------------------------------------------------
// Skeleton and shard-part codecs
// ---------------------------------------------------------------------------

struct Skeleton {
    uri: String,
    epoch: u64,
    seq: u64,
    chunk_capacity: u64,
    policy: ShardPolicy,
    tree: XmlTree,
}

fn encode_skeleton(skel: &Skeleton) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SKEL_MAGIC);
    write_bytes(&mut out, skel.uri.as_bytes());
    for v in [
        skel.epoch,
        skel.seq,
        skel.chunk_capacity,
        skel.policy.cut_depth as u64,
        skel.policy.max_shard_nodes as u64,
    ] {
        write_varint(&mut out, v);
    }
    segment::encode_tree(&mut out, &skel.tree);
    out
}

fn decode_skeleton(payload: &[u8], path: &Path) -> Result<Skeleton, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt { path: path.to_path_buf(), what: what.into() };
    if payload.len() < SKEL_MAGIC.len() || &payload[..SKEL_MAGIC.len()] != SKEL_MAGIC {
        return Err(corrupt("bad skeleton magic"));
    }
    let mut input = &payload[SKEL_MAGIC.len()..];
    let uri = std::str::from_utf8(read_bytes(&mut input)?)
        .map_err(|_| corrupt("skeleton URI is not UTF-8"))?
        .to_owned();
    let epoch = read_varint(&mut input)?;
    let seq = read_varint(&mut input)?;
    let chunk_capacity = read_varint(&mut input)?;
    let cut_depth = usize::try_from(read_varint(&mut input)?)
        .map_err(|_| corrupt("cut depth overflows"))?;
    let max_shard_nodes = usize::try_from(read_varint(&mut input)?)
        .map_err(|_| corrupt("shard size bound overflows"))?;
    let tree = segment::decode_tree(&mut input, path)?;
    if !input.is_empty() {
        return Err(corrupt("trailing skeleton bytes"));
    }
    Ok(Skeleton {
        uri,
        epoch,
        seq,
        chunk_capacity,
        policy: ShardPolicy { cut_depth, max_shard_nodes },
        tree,
    })
}

fn write_node_opt(out: &mut Vec<u8>, node: Option<NodeId>) {
    write_varint(out, node.map_or(0, |n| n.index() as u64 + 1));
}

fn read_node_opt(
    input: &mut &[u8],
    tree: &XmlTree,
    path: &Path,
) -> Result<Option<NodeId>, StoreError> {
    match read_varint(input)? {
        0 => Ok(None),
        n => {
            let idx = usize::try_from(n - 1).map_err(|_| StoreError::Corrupt {
                path: path.to_path_buf(),
                what: "node index overflows".into(),
            })?;
            tree.node_at(idx).map(Some).ok_or_else(|| StoreError::Corrupt {
                path: path.to_path_buf(),
                what: "shard part names a node outside its arena".into(),
            })
        }
    }
}

/// Serializes one shard's checkpoint payload: linkage header, then the
/// shadow tree + inner labels + private SC table as a standard columnar
/// segment (doc id = the shard's manifest id).
fn encode_shard_part(
    uri: &str,
    epoch: u64,
    seq: u64,
    chunk_capacity: u64,
    part: &ShardPart<DynamicPrime>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SHARD_MAGIC);
    write_varint(&mut out, part.parent.map_or(0, |p| u64::from(p.0) + 1));
    write_varint(&mut out, part.root_global.index() as u64);
    write_varint(&mut out, part.to_global.len() as u64);
    for &slot in &part.to_global {
        write_node_opt(&mut out, slot);
    }
    write_varint(&mut out, part.stubs.len() as u64);
    for &(stub, child) in &part.stubs {
        write_varint(&mut out, stub.index() as u64);
        write_varint(&mut out, u64::from(child.0));
    }
    let inner = segment::encode_segment(
        uri,
        file_id(part.id),
        epoch,
        seq,
        chunk_capacity,
        part.state.primes_handed_out(),
        &part.shadow,
        &part.local_doc,
        part.state.sc_table(),
    );
    write_bytes(&mut out, &inner);
    out
}

/// Parses one shard's checkpoint payload back into a [`ShardPart`].
/// `global` is the skeleton tree the part's global node indices refer to.
fn decode_shard_part(
    payload: &[u8],
    sid: ShardId,
    global: &XmlTree,
    path: &Path,
) -> Result<ShardPart<DynamicPrime>, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt { path: path.to_path_buf(), what: what.into() };
    if payload.len() < SHARD_MAGIC.len() || &payload[..SHARD_MAGIC.len()] != SHARD_MAGIC {
        return Err(corrupt("bad shard magic"));
    }
    let mut input = &payload[SHARD_MAGIC.len()..];
    let parent = match read_varint(&mut input)? {
        0 => None,
        n => Some(ShardId(
            u32::try_from(n - 1).map_err(|_| corrupt("parent shard id overflows"))?,
        )),
    };
    let root_idx =
        usize::try_from(read_varint(&mut input)?).map_err(|_| corrupt("root index overflows"))?;
    let root_global = global
        .node_at(root_idx)
        .ok_or_else(|| corrupt("shard root is outside the skeleton arena"))?;
    let nslots =
        usize::try_from(read_varint(&mut input)?).map_err(|_| corrupt("map length overflows"))?;
    let mut to_global = Vec::with_capacity(nslots.min(1 << 20));
    for _ in 0..nslots {
        to_global.push(read_node_opt(&mut input, global, path)?);
    }
    let nstubs =
        usize::try_from(read_varint(&mut input)?).map_err(|_| corrupt("stub count overflows"))?;
    let mut raw_stubs = Vec::with_capacity(nstubs.min(1 << 20));
    for _ in 0..nstubs {
        let local =
            usize::try_from(read_varint(&mut input)?).map_err(|_| corrupt("stub index overflows"))?;
        let child = u32::try_from(read_varint(&mut input)?)
            .map_err(|_| corrupt("stub shard id overflows"))?;
        raw_stubs.push((local, ShardId(child)));
    }
    let inner = read_bytes(&mut input)?;
    if !input.is_empty() {
        return Err(corrupt("trailing shard bytes"));
    }
    let seg = segment::decode_segment(inner, path)?;
    if seg.doc_id != file_id(sid) {
        return Err(corrupt("shard segment header disagrees with its file name"));
    }
    let stubs = raw_stubs
        .into_iter()
        .map(|(local, child)| {
            seg.tree
                .node_at(local)
                .map(|n| (n, child))
                .ok_or_else(|| corrupt("stub is outside the shadow arena"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let state =
        OrderedPrimeDoc::from_parts(&seg.tree, seg.labels.clone(), seg.sc, seg.primes_handed_out)?;
    Ok(ShardPart {
        id: sid,
        shadow: seg.tree,
        local_doc: seg.labels,
        state,
        parent,
        root_global,
        to_global,
        stubs,
    })
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Outcome of one [`ShardedDocStore::apply_batch`]: per-mutation results
/// in submission order, plus the shards the batch (including its split
/// pass) dirtied.
#[derive(Debug, Default)]
pub struct ShardedBatch {
    /// One entry per submitted mutation.
    pub results: Vec<Result<RelabelReport, DynamicError>>,
    /// Live shards whose member labels this batch changed, ascending —
    /// label cascades and splits included. The unit of table refresh and
    /// checkpoint rewrite. A shard a delete purged is absent; callers drop
    /// dead partitions against [`ShardedDocStore::live_shards`].
    pub dirty: Vec<ShardId>,
}

/// A crash-safe store for **one** sharded document, with per-shard
/// checkpoint segments (see the module docs for the file layout and the
/// `O(dirty shards)` checkpoint contract).
pub struct ShardedDocStore {
    dir: PathBuf,
    wal: Wal,
    uri: String,
    chunk_capacity: usize,
    epoch: u64,
    durable_seq: u64,
    seq: u64,
    labeled: LabeledStore<ShardedPrime>,
    /// Epoch of each live shard's current on-disk file.
    shard_epochs: BTreeMap<ShardId, u64>,
    /// Shards mutated since their current file was written; a failed
    /// checkpoint leaves them here so the next attempt re-covers them.
    pending_dirty: BTreeSet<ShardId>,
}

impl ShardedDocStore {
    /// Creates a sharded store in the (empty or fresh) directory `dir`,
    /// labels `tree` under `policy`, and checkpoints every shard at
    /// epoch 1.
    pub fn create(
        dir: &Path,
        uri: &str,
        tree: XmlTree,
        chunk_capacity: usize,
        policy: ShardPolicy,
    ) -> Result<ShardedDocStore, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create", dir, e))?;
        let scheme = ShardedScheme::new(DynamicPrime::new(chunk_capacity), policy);
        let labeled = LabeledStore::build(scheme, tree)?;
        let (wal, _) = Wal::open(dir)?;
        let mut store = ShardedDocStore {
            dir: dir.to_path_buf(),
            wal,
            uri: uri.to_owned(),
            chunk_capacity,
            epoch: 0,
            durable_seq: 0,
            seq: 0,
            labeled,
            shard_epochs: BTreeMap::new(),
            pending_dirty: BTreeSet::new(),
        };
        store.pending_dirty = store.labeled.state().live_shards().into_iter().collect();
        store.persist(1)?;
        Ok(store)
    }

    /// Opens (= recovers) the sharded store in `dir`: manifest load, stale
    /// file GC, skeleton + shard-part loads, reassembly, WAL replay, and a
    /// post-replay [`maintain_shards`] pass.
    pub fn open(dir: &Path) -> Result<ShardedDocStore, StoreError> {
        let manifest = Manifest::load(dir)?;
        let skel_entry = manifest
            .entry(SKEL_ID)
            .ok_or_else(|| StoreError::Corrupt {
                path: dir.join(crate::manifest::MANIFEST_FILE),
                what: "sharded store manifest has no skeleton entry".into(),
            })?
            .clone();
        gc_shard_files(dir, &manifest)?;

        let skel_name = skeleton_file(skel_entry.epoch);
        let skel = decode_skeleton(&read_framed_file(dir, &skel_name)?, &dir.join(&skel_name))?;
        if skel.uri != skel_entry.uri || skel.epoch != skel_entry.epoch || skel.seq != skel_entry.seq
        {
            return Err(StoreError::Corrupt {
                path: dir.join(&skel_name),
                what: "skeleton header disagrees with the manifest".into(),
            });
        }

        let mut parts = Vec::new();
        let mut shard_epochs = BTreeMap::new();
        for entry in manifest.entries.iter().filter(|e| e.doc_id != SKEL_ID) {
            let sid = ShardId(u32::try_from(entry.doc_id - 1).map_err(|_| StoreError::Corrupt {
                path: dir.join(crate::manifest::MANIFEST_FILE),
                what: "manifest shard id overflows u32".into(),
            })?);
            let name = shard_file(sid, entry.epoch);
            let part =
                decode_shard_part(&read_framed_file(dir, &name)?, sid, &skel.tree, &dir.join(&name))?;
            parts.push(part);
            shard_epochs.insert(sid, entry.epoch);
        }

        let chunk_capacity = usize::try_from(skel.chunk_capacity).unwrap_or(usize::MAX);
        let scheme = ShardedScheme::new(DynamicPrime::new(chunk_capacity), skel.policy);
        let (doc, state) = scheme.assemble(&skel.tree, parts)?;
        let labeled = LabeledStore::from_parts(scheme, skel.tree, doc, state);

        let (wal, scan) = Wal::open(dir)?;
        let mut store = ShardedDocStore {
            dir: dir.to_path_buf(),
            wal,
            uri: skel.uri,
            chunk_capacity,
            epoch: skel_entry.epoch,
            durable_seq: skel_entry.seq,
            seq: skel_entry.seq,
            labeled,
            shard_epochs,
            pending_dirty: BTreeSet::new(),
        };
        for frame in &scan.frames {
            store.replay_frame(frame)?;
        }
        if store.seq > store.durable_seq {
            maintain_shards(&mut store.labeled);
        }
        let drained = take_dirty_shards(&mut store.labeled);
        store.pending_dirty.extend(drained);
        Ok(store)
    }

    /// Replays one WAL frame (the [`crate::wal::next_mutation`] body: no
    /// doc id, one document), re-failing what failed live — failed applies
    /// consumed a sequence number too.
    fn replay_frame(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        let next = crate::wal::next_mutation(
            frame,
            self.durable_seq,
            &mut self.seq,
            self.labeled.tree(),
            &self.dir,
        )?;
        if let Some(mutation) = next {
            let _ = self.labeled.apply(&mutation);
        }
        Ok(())
    }

    /// Applies one epoch batch: WAL-logs every mutation (group commit, one
    /// fsync), fans the applies across shards via [`apply_batch_sharded`],
    /// then runs the split pass. Per-mutation outcomes come back in order
    /// together with the shards the batch dirtied (the unit the query layer
    /// refreshes and the next checkpoint rewrites); a WAL-level error
    /// aborts the whole batch before any in-memory change and rolls the log
    /// back, as for [`crate::Store::apply_batch`]. Once logged, the
    /// batch is never reported as failed: a split that fails leaves its
    /// shard as it was, to be split after a later batch.
    pub fn apply_batch(&mut self, mutations: &[Mutation]) -> Result<ShardedBatch, StoreError> {
        if mutations.is_empty() {
            return Ok(ShardedBatch::default());
        }
        let payloads: Vec<Vec<u8>> = mutations
            .iter()
            .enumerate()
            .map(|(i, mutation)| {
                let mut payload = Vec::new();
                write_varint(&mut payload, self.seq + 1 + i as u64);
                mutation.encode(&mut payload);
                payload
            })
            .collect();
        self.wal.append_batch(&payloads)?;
        self.seq += mutations.len() as u64;
        let results = apply_batch_sharded(&mut self.labeled, mutations);
        maintain_shards(&mut self.labeled);
        let dirty = take_dirty_shards(&mut self.labeled);
        self.pending_dirty.extend(dirty.iter().copied());
        Ok(ShardedBatch { results, dirty })
    }

    /// Checkpoints at the next epoch, rewriting only the skeleton and the
    /// dirty shards' files; clean shards keep their existing files. On
    /// success the WAL truncates. A no-op when nothing changed since the
    /// last checkpoint.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let drained = take_dirty_shards(&mut self.labeled);
        self.pending_dirty.extend(drained);
        for sid in self.labeled.state().live_shards() {
            if !self.shard_epochs.contains_key(&sid) {
                self.pending_dirty.insert(sid);
            }
        }
        let topology_changed = self
            .shard_epochs
            .keys()
            .any(|sid| self.labeled.state().cell(*sid).is_none());
        if self.seq == self.durable_seq && self.pending_dirty.is_empty() && !topology_changed {
            return Ok(());
        }
        self.persist(self.epoch + 1)
    }

    /// Writes the skeleton plus every pending-dirty live shard at
    /// `new_epoch`, swaps the manifest, then garbage-collects superseded
    /// files and truncates the WAL. The manifest swap is the only commit
    /// point; any earlier failure leaves the old checkpoint fully live.
    fn persist(&mut self, new_epoch: u64) -> Result<(), StoreError> {
        let live: Vec<ShardId> = self.labeled.state().live_shards();
        let skel = Skeleton {
            uri: self.uri.clone(),
            epoch: new_epoch,
            seq: self.seq,
            chunk_capacity: self.chunk_capacity as u64,
            policy: self.labeled.scheme().policy(),
            tree: self.labeled.tree().clone(),
        };
        write_framed_file(&self.dir, &skeleton_file(new_epoch), &encode_skeleton(&skel))?;

        let mut manifest = Manifest {
            next_doc_id: live.iter().map(|s| file_id(*s) + 1).max().unwrap_or(1),
            entries: vec![ManifestEntry {
                uri: self.uri.clone(),
                doc_id: SKEL_ID,
                epoch: new_epoch,
                seq: self.seq,
            }],
        };
        let mut new_epochs = BTreeMap::new();
        for &sid in &live {
            let dirty = self.pending_dirty.contains(&sid);
            let epoch = if dirty {
                let cell = self.labeled.state().cell(sid).ok_or_else(|| {
                    StoreError::Dynamic(DynamicError::Fragment("shard vanished mid-persist".into()))
                })?;
                let part = cell.export(sid);
                let payload =
                    encode_shard_part(&self.uri, new_epoch, self.seq, self.chunk_capacity as u64, &part);
                write_framed_file(&self.dir, &shard_file(sid, new_epoch), &payload)?;
                new_epoch
            } else {
                *self.shard_epochs.get(&sid).unwrap_or(&new_epoch)
            };
            new_epochs.insert(sid, epoch);
            manifest.upsert(ManifestEntry {
                uri: self.uri.clone(),
                doc_id: file_id(sid),
                epoch,
                seq: self.seq,
            });
        }
        manifest.swap(&self.dir)?;

        self.epoch = new_epoch;
        self.durable_seq = self.seq;
        self.shard_epochs = new_epochs;
        self.pending_dirty.clear();
        gc_shard_files(&self.dir, &manifest)?;
        self.wal.truncate()?;
        Ok(())
    }

    /// The live sharded label store.
    pub fn labeled(&self) -> &LabeledStore<ShardedPrime> {
        &self.labeled
    }

    /// The document URI.
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current checkpoint epoch (the skeleton's epoch; individual shards
    /// may sit at older epochs if they have not been dirtied since).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mutations accepted so far (WAL sequence).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Mutations folded into the current checkpoint.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Live shard ids, ascending.
    pub fn live_shards(&self) -> Vec<ShardId> {
        self.labeled.state().live_shards()
    }

    /// The sharding policy the document was created under.
    pub fn policy(&self) -> ShardPolicy {
        self.labeled.scheme().policy()
    }

    /// Data syncs the WAL has issued through this handle.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }
}

/// Removes sharded-store files no manifest entry references (superseded
/// epochs, torn checkpoint writes, stale manifest staging files).
fn gc_shard_files(dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = if name.ends_with(".tmp") {
            true
        } else if let Some((who, epoch)) = parse_shard_file(name) {
            let id = who.map_or(SKEL_ID, |sid| u64::from(sid) + 1);
            manifest.entry(id).map(|e| e.epoch) != Some(epoch)
        } else {
            false
        };
        if stale {
            std::fs::remove_file(entry.path()).map_err(|e| io_err("remove", &entry.path(), e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_labelkit::InsertPos;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xp-store-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_tree() -> XmlTree {
        xp_xmltree::parse(
            "<lib><shelf><book><title>a</title><title>b</title></book><book/></shelf>\
             <shelf><case><book/><book/></case></shelf><attic><box/></attic></lib>",
        )
        .unwrap()
    }

    fn nth_element(tree: &XmlTree, n: usize) -> NodeId {
        tree.elements().nth(n).unwrap()
    }

    /// Document order and ancestry of the recovered store must agree with
    /// a fresh unsharded labeling of the identical tree.
    fn assert_consistent(store: &ShardedDocStore) {
        let tree = store.labeled().tree().clone();
        let oracle = LabeledStore::build(DynamicPrime::new(8), tree.clone()).unwrap();
        assert_eq!(store.labeled().ordered_nodes(), oracle.ordered_nodes());
        let nodes: Vec<NodeId> = tree.elements().collect();
        for &a in &nodes {
            for &b in &nodes {
                let truth = a != b && tree.ancestors(b).any(|x| x == a);
                let claimed = xp_labelkit::LabelOps::is_ancestor_of(
                    store.labeled().doc().get(a).unwrap(),
                    store.labeled().doc().get(b).unwrap(),
                );
                assert_eq!(claimed, truth, "{a:?} vs {b:?}");
            }
        }
    }

    fn shard_files(dir: &Path) -> BTreeMap<String, u64> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().to_str().unwrap().to_owned();
                parse_shard_file(&name).map(|(who, epoch)| {
                    (who.map_or("skel".to_owned(), |s| s.to_string()), epoch)
                })
            })
            .collect()
    }

    #[test]
    fn create_reopen_round_trips() {
        let dir = tmpdir("roundtrip");
        let store =
            ShardedDocStore::create(&dir, "doc.xml", sample_tree(), 8, ShardPolicy::at_depth(1))
                .unwrap();
        assert!(store.live_shards().len() > 1, "cut 1 must produce several shards");
        let labels: Vec<_> =
            store.labeled().tree().elements().map(|n| store.labeled().doc().get(n).cloned()).collect();
        let ordered = store.labeled().ordered_nodes();
        let shards = store.live_shards();
        drop(store);

        let back = ShardedDocStore::open(&dir).unwrap();
        assert_eq!(back.uri(), "doc.xml");
        assert_eq!(back.epoch(), 1);
        assert_eq!(back.live_shards(), shards);
        assert_eq!(back.labeled().tree().snapshot(), sample_tree().snapshot());
        let back_labels: Vec<_> =
            back.labeled().tree().elements().map(|n| back.labeled().doc().get(n).cloned()).collect();
        assert_eq!(back_labels, labels, "labels must survive reassembly byte-identically");
        assert_eq!(back.labeled().ordered_nodes(), ordered);
        assert_consistent(&back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_replay_recovers_an_uncheckpointed_batch() {
        let dir = tmpdir("replay");
        let mut store =
            ShardedDocStore::create(&dir, "d", sample_tree(), 8, ShardPolicy::at_depth(1)).unwrap();
        let anchor = nth_element(store.labeled().tree(), 3);
        let target = nth_element(store.labeled().tree(), 9);
        let results = store
            .apply_batch(&[
                Mutation::InsertBefore { anchor, tag: "neu".into() },
                Mutation::InsertSubtree {
                    pos: InsertPos::LastChildOf(anchor),
                    xml: "<x><y/></x>".into(),
                },
                Mutation::Delete { target },
            ])
            .unwrap();
        assert!(results.results.iter().all(Result::is_ok));
        assert!(!results.dirty.is_empty());
        assert_eq!(store.seq(), 3);
        let snap = store.labeled().tree().snapshot();
        let ordered = store.labeled().ordered_nodes();
        drop(store);

        let back = ShardedDocStore::open(&dir).unwrap();
        assert_eq!(back.seq(), 3);
        assert_eq!(back.durable_seq(), 0);
        assert_eq!(back.labeled().tree().snapshot(), snap);
        assert_eq!(back.labeled().ordered_nodes(), ordered);
        assert_consistent(&back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rewrites_only_dirty_shards() {
        let dir = tmpdir("dirty");
        // Cut every 2 levels: <title> sits mid-shard, so inserting beside
        // it touches exactly one shard (before a shard *root* it would
        // route to the parent shard instead).
        let mut store =
            ShardedDocStore::create(&dir, "d", sample_tree(), 8, ShardPolicy::at_depth(2)).unwrap();
        let before = shard_files(&dir);
        assert!(before.values().all(|&e| e == 1));
        let nshards = store.live_shards().len();
        assert!(nshards > 2);

        let anchor = nth_element(store.labeled().tree(), 3); // <title>a</title>
        let touched = store.labeled().state().shard_of_node(anchor).unwrap();
        assert_ne!(
            store.labeled().state().cell(touched).unwrap().root_global(),
            anchor,
            "anchor must not be a shard root for this test"
        );
        store.apply_batch(&[Mutation::InsertBefore { anchor, tag: "neu".into() }]).unwrap();
        store.checkpoint().unwrap();

        let after = shard_files(&dir);
        assert_eq!(after.len(), nshards + 1, "one file per shard plus the skeleton");
        assert_eq!(after["skel"], 2, "skeleton always rides the new epoch");
        for (who, epoch) in &after {
            if who == "skel" {
                continue;
            }
            let expected = if *who == touched.0.to_string() { 2 } else { 1 };
            assert_eq!(*epoch, expected, "shard {who} file epoch");
        }

        // A clean checkpoint is a no-op.
        store.checkpoint().unwrap();
        assert_eq!(store.epoch(), 2);
        drop(store);
        let back = ShardedDocStore::open(&dir).unwrap();
        assert_eq!(back.durable_seq(), 1);
        assert_consistent(&back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_topology_survives_reopen() {
        let dir = tmpdir("split");
        let policy = ShardPolicy::at_depth(2).with_max_shard_nodes(4);
        let mut store = ShardedDocStore::create(&dir, "d", sample_tree(), 8, policy).unwrap();
        let start = store.live_shards().len();
        // Grow one subtree past the bound so maintain_shards splits it.
        for _ in 0..4 {
            let anchor = nth_element(store.labeled().tree(), 3);
            store
                .apply_batch(&[Mutation::InsertSubtree {
                    pos: InsertPos::LastChildOf(anchor),
                    xml: "<g><h/><h/></g>".into(),
                }])
                .unwrap();
        }
        assert!(store.live_shards().len() > start, "growth must have split a shard");
        // Wrapping a top-shard child gives it weight, so that split moves
        // it into a fresh, higher-id shard together with the shards below
        // it, whose files must then be rewritten with their new parent.
        let shelf = nth_element(store.labeled().tree(), 1);
        store.apply_batch(&[Mutation::InsertParent { target: shelf, tag: "w".into() }]).unwrap();
        let grown = store.live_shards();
        let newest = store.labeled().state().cell(*grown.last().unwrap()).unwrap();
        assert!(newest.stub_children().count() > 0, "the wrap's split must move shards");
        store.checkpoint().unwrap();
        let snap = store.labeled().tree().snapshot();
        let labels = element_labels(&store);
        drop(store);

        let back = ShardedDocStore::open(&dir).unwrap();
        assert_eq!(back.live_shards(), grown);
        assert_eq!(back.labeled().tree().snapshot(), snap);
        assert_eq!(element_labels(&back), labels);
        assert_consistent(&back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn element_labels(
        store: &ShardedDocStore,
    ) -> Vec<Option<xp_labelkit::ShardedLabel<xp_prime::PrimeLabel>>> {
        store
            .labeled()
            .tree()
            .elements()
            .map(|n| store.labeled().doc().get(n).cloned())
            .collect()
    }

    /// The split pass runs after the batch is logged and applied, so a
    /// split that fails must not turn the batch into an error: the mutation
    /// reports `Ok`, the shard stays whole, and it splits after the next
    /// batch. Recovery replays to the same document and topology.
    #[test]
    fn a_failed_split_leaves_the_batch_applied() {
        use xp_testkit::fault;
        let grow = Mutation::InsertSubtree {
            pos: InsertPos::LastChildOf(nth_element(&sample_tree(), 3)),
            xml: "<g><h/><h/><h/><h/></g>".into(),
        };
        // Count the batch's own multiplications on a twin with no size
        // bound, where no split runs.
        let batch_hits = {
            let dir = tmpdir("split-fault-twin");
            let mut twin =
                ShardedDocStore::create(&dir, "d", sample_tree(), 8, ShardPolicy::at_depth(1))
                    .unwrap();
            fault::arm("bignum.mul:1000000000");
            let batch = twin.apply_batch(std::slice::from_ref(&grow));
            let hits = fault::hits("bignum.mul");
            fault::reset();
            assert!(batch.unwrap().results[0].is_ok());
            let _ = std::fs::remove_dir_all(&dir);
            hits
        };

        let dir = tmpdir("split-fault");
        let policy = ShardPolicy { cut_depth: 1, max_shard_nodes: 4 };
        let mut store = ShardedDocStore::create(&dir, "d", sample_tree(), 8, policy).unwrap();
        let start = store.live_shards().len();
        // The first multiplication past the batch's own is the split's.
        fault::arm(&format!("bignum.mul:{}", batch_hits + 1));
        let batch = store.apply_batch(std::slice::from_ref(&grow));
        let fired = fault::hits("bignum.mul") > batch_hits;
        fault::reset();
        assert!(fired, "the armed fault must land in the split");
        let batch = batch.unwrap_or_else(|e| panic!("a failed split failed the batch: {e}"));
        assert!(batch.results[0].is_ok());
        assert_eq!(store.seq(), 1);
        assert_eq!(store.labeled().tree().elements().count(), 17);
        assert_eq!(store.live_shards().len(), start, "the failed split changed nothing");
        assert_consistent(&store);

        let anchor = nth_element(store.labeled().tree(), 1);
        store.apply_batch(&[Mutation::InsertBefore { anchor, tag: "n".into() }]).unwrap();
        assert!(store.live_shards().len() > start, "the next batch retries the split");
        let labels = element_labels(&store);
        let shards = store.live_shards();
        let snap = store.labeled().tree().snapshot();
        drop(store);

        let back = ShardedDocStore::open(&dir).unwrap();
        assert_eq!(back.labeled().tree().snapshot(), snap);
        assert_eq!(back.live_shards(), shards);
        assert_eq!(element_labels(&back), labels);
        assert_consistent(&back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_fault_site_leaves_the_store_recoverable() {
        use xp_testkit::fault;
        let sites = [
            "store.wal.append:1",
            "store.wal.append:1:torn",
            "store.wal.fsync:1",
            "store.checkpoint.write:1",
            "store.checkpoint.write:2:torn",
            "store.manifest.swap:1",
            "store.manifest.swap:1:torn",
        ];
        for (i, site) in sites.iter().enumerate() {
            let dir = tmpdir(&format!("fault{i}"));
            fault::reset();
            let mut store =
                ShardedDocStore::create(&dir, "d", sample_tree(), 8, ShardPolicy::at_depth(1))
                    .unwrap();
            let pre = store.labeled().tree().snapshot();
            let anchor = nth_element(store.labeled().tree(), 3);
            let mutation = Mutation::InsertBefore { anchor, tag: "f".into() };
            // The document as it would look with the batch applied — an
            // fsync-site fault leaves the frame durable even though the
            // caller saw an error, so recovery may land on either side.
            let post = {
                let mut oracle = LabeledStore::build(
                    DynamicPrime::new(8),
                    store.labeled().tree().clone(),
                )
                .unwrap();
                oracle.apply(&mutation).unwrap();
                oracle.tree().snapshot()
            };
            fault::arm(site);
            let batch = store.apply_batch(std::slice::from_ref(&mutation));
            let ckpt = store.checkpoint();
            fault::reset();
            assert!(batch.is_err() || ckpt.is_err(), "{site}: a fault must surface");
            drop(store);

            let back = ShardedDocStore::open(&dir)
                .unwrap_or_else(|e| panic!("{site}: reopen failed: {e}"));
            let got = back.labeled().tree().snapshot();
            assert!(
                got == pre || got == post,
                "{site}: recovered tree is neither the pre- nor the post-batch document"
            );
            assert_consistent(&back);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
