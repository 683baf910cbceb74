//! # xp-store: the crash-safe disk-backed label store
//!
//! Persistence for the prime labeling pipeline (paper §4: the labels must
//! survive as a *database* of XML documents, not a process's heap). A store
//! is one directory holding many documents, each a
//! [`LabeledStore<DynamicPrime>`] quadruple — tree, labels, SC table,
//! relational label table — with three kinds of files:
//!
//! * `MANIFEST` — one checksummed frame naming every document's current
//!   checkpoint ([`manifest`]), atomically replaced via tmp + rename.
//! * `seg-{doc}-e{epoch}.dat` — columnar checkpoint segments ([`segment`]).
//! * `wal.log` — the write-ahead log ([`wal`]): every [`Mutation`] is
//!   framed and fsynced here *before* any in-memory state changes.
//!
//! ## Recovery contract
//!
//! [`Store::open`] **is** recovery; there is no separate repair step. It
//! loads the manifest, garbage-collects swap leftovers and unreferenced
//! segments, reassembles each document from its segment, discards the
//! torn WAL tail (the only bytes ever discarded — everything else corrupt
//! is *reported*, never guessed at), and replays every remaining frame
//! whose sequence number the checkpoint has not already folded in. Every
//! reader — this open, [`fsck`] and [`ShardedDocStore::open`] — decides a
//! frame by the one rule in [`wal`]: skip what the checkpoint folds in,
//! refuse a gap, a repeated sequence number or bytes after the mutation.
//! A failed append is rolled back, so a store that keeps taking writes
//! never logs a sequence number twice. A
//! process killed at any fault site — `store.wal.append`,
//! `store.wal.fsync`, `store.checkpoint.write`, `store.manifest.swap` —
//! reopens byte-identical to a never-crashed twin, with one documented
//! latitude: a crash *after* a frame hit the disk but *before* the caller
//! learned of it (the fsync window) legitimately reopens with that one
//! extra mutation applied. Both outcomes are internally consistent; the
//! crash harness accepts either prefix.
//!
//! Replay determinism: a mutation that failed validation when applied live
//! fails identically on replay (validation reads only tree state, which
//! replay reconstructs exactly), so failed applies still consume a sequence
//! number and the WAL can log frames unconditionally. The one exception is
//! a fault *injected* into the in-memory scheme (`sc.*` sites) during a
//! durable apply — replay would not reproduce it — so crash tests arm only
//! `store.*` sites; see DESIGN.md §11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Everything that touches the disk can fail; failures surface as typed
// [`StoreError`]s, never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod frame;
pub mod manifest;
pub mod segment;
pub mod shard;
pub mod verify;
pub mod wal;

pub use error::StoreError;
pub use frame::MAX_FRAME_PAYLOAD;
pub use manifest::{Manifest, ManifestEntry, MANIFEST_FILE, MANIFEST_TMP};
pub use segment::{segment_file, Segment};
pub use shard::{ShardedBatch, ShardedDocStore};
pub use wal::{WalScan, WAL_FILE};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use xp_labelkit::codec::{read_varint, write_varint};
use xp_labelkit::dynamic::{DynamicError, LabeledStore};
use xp_labelkit::{Mutation, RelabelReport};
use xp_prime::{DynamicPrime, PrimeLabel};
use xp_query::LabelTable;
use xp_xmltree::XmlTree;

/// One open document: the live quadruple plus its durability coordinates.
#[derive(Debug)]
pub struct OpenDoc {
    uri: String,
    doc_id: u64,
    /// Checkpoint epoch of the segment currently on disk.
    epoch: u64,
    /// WAL sequence folded into that segment (the manifest's `seq`).
    durable_seq: u64,
    /// WAL sequence of the last frame processed in memory. Always `>=
    /// durable_seq`; equality means the WAL holds nothing this document
    /// needs.
    seq: u64,
    chunk_capacity: usize,
    labeled: LabeledStore<DynamicPrime>,
    table: LabelTable<PrimeLabel>,
}

impl OpenDoc {
    /// The document's URI key.
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// Stable numeric id (embeds into WAL frames and segment names).
    pub fn doc_id(&self) -> u64 {
        self.doc_id
    }

    /// Current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Last WAL sequence applied in memory.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// WAL sequence already folded into the on-disk segment.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// The live labeled store (tree + labels + scheme state).
    pub fn labeled(&self) -> &LabeledStore<DynamicPrime> {
        &self.labeled
    }

    /// The relational label table, patched in step with every mutation.
    pub fn table(&self) -> &LabelTable<PrimeLabel> {
        &self.table
    }

    /// The document tree.
    pub fn tree(&self) -> &XmlTree {
        self.labeled.tree()
    }

    fn segment_payload(&self, epoch: u64) -> Vec<u8> {
        segment::encode_segment(
            &self.uri,
            self.doc_id,
            epoch,
            self.seq,
            self.chunk_capacity as u64,
            self.labeled.state().primes_handed_out(),
            self.labeled.tree(),
            self.labeled.doc(),
            self.labeled.state().sc_table(),
        )
    }
}

/// A disk-backed collection of labeled documents. See the crate docs for
/// the durability contract.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: wal::Wal,
    next_doc_id: u64,
    docs: BTreeMap<u64, OpenDoc>,
}

/// What a read-only [`fsck`] pass established.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Documents the manifest names, all loaded and verified.
    pub docs: usize,
    /// Complete WAL frames on disk.
    pub wal_frames: usize,
    /// Frames a recovering open would replay (sequence past the segments).
    pub replayed: usize,
    /// Bytes of torn tail after the last complete frame (discarded on a
    /// recovering open, merely reported here).
    pub torn_tail_bytes: u64,
}

impl Store {
    /// Creates a fresh, empty store in `dir` (created if missing). Refuses
    /// a directory that already holds a store.
    pub fn create(dir: &Path) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| error::io_err("create", dir, e))?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(StoreError::Io {
                op: "create",
                path: dir.to_path_buf(),
                msg: "directory already holds a store".into(),
            });
        }
        let manifest = Manifest { next_doc_id: 1, entries: Vec::new() };
        manifest.swap(dir)?;
        let (wal, _) = wal::Wal::open(dir)?;
        Ok(Store { dir: dir.to_path_buf(), wal, next_doc_id: 1, docs: BTreeMap::new() })
    }

    /// Opens (= recovers) the store in `dir`. See the crate docs: manifest
    /// load, stale-file GC, segment loads, torn-tail truncation, replay.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let manifest = Manifest::load(dir)?;
        gc_stale_files(dir, &manifest)?;

        let mut docs = BTreeMap::new();
        for entry in &manifest.entries {
            let (chunk_capacity, labeled) = load_doc(dir, entry)?;
            let table = LabelTable::build(labeled.tree(), labeled.doc());
            docs.insert(
                entry.doc_id,
                OpenDoc {
                    uri: entry.uri.clone(),
                    doc_id: entry.doc_id,
                    epoch: entry.epoch,
                    durable_seq: entry.seq,
                    seq: entry.seq,
                    chunk_capacity,
                    labeled,
                    table,
                },
            );
        }

        let (wal, scan) = wal::Wal::open(dir)?;
        let mut store =
            Store { dir: dir.to_path_buf(), wal, next_doc_id: manifest.next_doc_id, docs };
        for frame in &scan.frames {
            store.replay_frame(frame)?;
        }
        Ok(store)
    }

    /// Replays one WAL frame (`varint doc id` + the [`wal::next_mutation`]
    /// body) onto its document, re-failing a mutation that failed live
    /// (failed applies consumed a sequence number too). A frame for a
    /// document the manifest no longer names is inert.
    fn replay_frame(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        let mut body = frame;
        let doc_id = read_varint(&mut body)?;
        let Some(doc) = self.docs.get_mut(&doc_id) else { return Ok(()) };
        let (durable_seq, tree) = (doc.durable_seq, doc.labeled.tree());
        let Some(mutation) = wal::next_mutation(body, durable_seq, &mut doc.seq, tree, &self.dir)?
        else {
            return Ok(());
        };
        if let Ok(report) = doc.labeled.apply(&mutation) {
            doc.table.apply_report(doc.labeled.tree(), doc.labeled.doc(), &report);
        }
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every open document, in id order.
    pub fn docs(&self) -> impl Iterator<Item = &OpenDoc> + '_ {
        self.docs.values()
    }

    /// The document keyed by `uri`, if the store holds it.
    pub fn doc(&self, uri: &str) -> Option<&OpenDoc> {
        self.docs.values().find(|d| d.uri == uri)
    }

    fn doc_id_of(&self, uri: &str) -> Result<u64, StoreError> {
        self.doc(uri)
            .map(|d| d.doc_id)
            .ok_or_else(|| StoreError::UnknownUri(uri.to_owned()))
    }

    /// Parses `xml`, labels it with an SC chunk capacity of
    /// `chunk_capacity`, and adds it under `uri` — durably: the document is
    /// checkpointed (epoch 1) and the manifest swapped before this returns.
    pub fn add_document(
        &mut self,
        uri: &str,
        xml: &str,
        chunk_capacity: usize,
    ) -> Result<u64, StoreError> {
        if self.doc(uri).is_some() {
            return Err(StoreError::DuplicateUri(uri.to_owned()));
        }
        let tree = xp_xmltree::parse(xml)
            .map_err(|e| StoreError::Dynamic(xp_labelkit::DynamicError::Fragment(e.to_string())))?;
        let labeled = LabeledStore::build(DynamicPrime::new(chunk_capacity), tree)?;
        let table = LabelTable::build(labeled.tree(), labeled.doc());
        let doc_id = self.next_doc_id;
        let doc = OpenDoc {
            uri: uri.to_owned(),
            doc_id,
            epoch: 1,
            durable_seq: 0,
            seq: 0,
            chunk_capacity,
            labeled,
            table,
        };
        segment::write_segment(&self.dir, doc_id, 1, &doc.segment_payload(1))?;
        let mut manifest = self.manifest_snapshot();
        manifest.next_doc_id = doc_id + 1;
        manifest.upsert(ManifestEntry { uri: uri.to_owned(), doc_id, epoch: 1, seq: 0 });
        manifest.swap(&self.dir)?;
        self.next_doc_id = doc_id + 1;
        self.docs.insert(doc_id, doc);
        Ok(doc_id)
    }

    /// The manifest describing current *durable* state (what a crash right
    /// now would recover to).
    fn manifest_snapshot(&self) -> Manifest {
        Manifest {
            next_doc_id: self.next_doc_id,
            entries: self
                .docs
                .values()
                .map(|d| ManifestEntry {
                    uri: d.uri.clone(),
                    doc_id: d.doc_id,
                    epoch: d.epoch,
                    seq: d.durable_seq,
                })
                .collect(),
        }
    }

    /// Applies one mutation to the document at `uri`, write-ahead: the WAL
    /// frame is appended and fsynced *before* any in-memory state changes.
    ///
    /// On a WAL error nothing in memory moved and the frame was rolled back
    /// (see [`Store::apply_batch`]). On a scheme error the frame *is*
    /// durable and the failed apply still consumed a sequence number;
    /// replay fails it identically.
    pub fn apply(&mut self, uri: &str, mutation: &Mutation) -> Result<RelabelReport, StoreError> {
        match self.apply_batch(uri, std::slice::from_ref(mutation))?.pop() {
            Some(Ok(report)) => Ok(report),
            Some(Err(e)) => Err(StoreError::Dynamic(e)),
            None => Err(StoreError::Io {
                op: "apply",
                path: self.dir.clone(),
                msg: "single-mutation batch returned no result".into(),
            }),
        }
    }

    /// Group commit: frames every mutation, appends them all to the WAL with
    /// **one** fsync, then applies them in memory in order. Per-mutation
    /// scheme failures come back in the result vector (each failed apply
    /// still consumed a sequence number and re-fails identically on replay).
    /// A WAL-level error aborts the whole batch before any in-memory change
    /// and rolls the log back to where the batch began, so the store can
    /// keep taking writes: the next batch reuses the failed one's sequence
    /// numbers. Only a crash inside the fsync window can leave the failed
    /// frames for replay; if the rollback itself fails, every later append
    /// is refused with [`StoreError::WalPoisoned`] until the store is
    /// reopened.
    ///
    /// This is the server's epoch-apply primitive: an epoch of `k` batched
    /// mutations costs `1/k` fsyncs per mutation instead of 1.
    pub fn apply_batch(
        &mut self,
        uri: &str,
        mutations: &[Mutation],
    ) -> Result<Vec<Result<RelabelReport, DynamicError>>, StoreError> {
        if mutations.is_empty() {
            return Ok(Vec::new());
        }
        let doc_id = self.doc_id_of(uri)?;
        let payloads: Vec<Vec<u8>> = {
            let doc = self
                .docs
                .get(&doc_id)
                .ok_or_else(|| StoreError::UnknownUri(uri.to_owned()))?;
            mutations
                .iter()
                .enumerate()
                .map(|(i, mutation)| {
                    let mut payload = Vec::new();
                    write_varint(&mut payload, doc_id);
                    write_varint(&mut payload, doc.seq + 1 + i as u64);
                    mutation.encode(&mut payload);
                    payload
                })
                .collect()
        };
        self.wal.append_batch(&payloads)?;
        let doc = self
            .docs
            .get_mut(&doc_id)
            .ok_or_else(|| StoreError::UnknownUri(uri.to_owned()))?;
        let mut results = Vec::with_capacity(mutations.len());
        for mutation in mutations {
            doc.seq += 1;
            match doc.labeled.apply(mutation) {
                Ok(report) => {
                    doc.table.apply_report(doc.labeled.tree(), doc.labeled.doc(), &report);
                    results.push(Ok(report));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        Ok(results)
    }

    /// Data syncs the WAL has issued since this store was opened. With
    /// group commit ([`Store::apply_batch`]) this grows by 1 per batch, not
    /// per mutation — the `bench_server` gate divides it by mutations.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Checkpoints one document: writes a fresh segment at the next epoch,
    /// swaps the manifest to it, then drops the old segment. A crash
    /// between the segment write and the swap leaves an unreferenced
    /// segment for GC; the old checkpoint stays live either way.
    pub fn checkpoint(&mut self, uri: &str) -> Result<(), StoreError> {
        let doc_id = self.doc_id_of(uri)?;
        let (next_epoch, payload, seq) = {
            let doc = self
                .docs
                .get(&doc_id)
                .ok_or_else(|| StoreError::UnknownUri(uri.to_owned()))?;
            (doc.epoch + 1, doc.segment_payload(doc.epoch + 1), doc.seq)
        };
        segment::write_segment(&self.dir, doc_id, next_epoch, &payload)?;
        let mut manifest = self.manifest_snapshot();
        manifest.upsert(ManifestEntry {
            uri: uri.to_owned(),
            doc_id,
            epoch: next_epoch,
            seq,
        });
        manifest.swap(&self.dir)?;
        let old_epoch = if let Some(doc) = self.docs.get_mut(&doc_id) {
            let old = doc.epoch;
            doc.epoch = next_epoch;
            doc.durable_seq = seq;
            Some(old)
        } else {
            None
        };
        if let Some(epoch) = old_epoch {
            // Best-effort: an undeleted old segment is unreferenced and the
            // next open garbage-collects it.
            let _ = std::fs::remove_file(self.dir.join(segment_file(doc_id, epoch)));
        }
        Ok(())
    }

    /// Checkpoints every document, then — once nothing in the WAL is needed
    /// for recovery — truncates the log.
    pub fn checkpoint_all(&mut self) -> Result<(), StoreError> {
        let uris: Vec<String> = self.docs.values().map(|d| d.uri.clone()).collect();
        for uri in &uris {
            self.checkpoint(uri)?;
        }
        if self.docs.values().all(|d| d.durable_seq == d.seq) {
            self.wal.truncate()?;
        }
        Ok(())
    }

    /// Runs [`verify::check_doc`] over every open document.
    pub fn verify(&self) -> Result<(), StoreError> {
        for doc in self.docs.values() {
            verify::check_doc(&doc.labeled, &doc.table).map_err(|what| StoreError::Corrupt {
                path: self.dir.join(segment_file(doc.doc_id, doc.epoch)),
                what: format!("document `{}`: {what}", doc.uri),
            })?;
        }
        Ok(())
    }
}

/// Loads `entry`'s checkpoint segment and reassembles its labeled
/// document; returns it with its SC chunk capacity.
fn load_doc(
    dir: &Path,
    entry: &ManifestEntry,
) -> Result<(usize, LabeledStore<DynamicPrime>), StoreError> {
    let seg = segment::load_segment(dir, entry.doc_id, entry.epoch)?;
    if seg.uri != entry.uri || seg.seq != entry.seq {
        return Err(StoreError::Corrupt {
            path: dir.join(segment_file(entry.doc_id, entry.epoch)),
            what: "segment header disagrees with the manifest".into(),
        });
    }
    let chunk_capacity = usize::try_from(seg.chunk_capacity).unwrap_or(usize::MAX);
    let state = xp_prime::OrderedPrimeDoc::from_parts(
        &seg.tree,
        seg.labels.clone(),
        seg.sc,
        seg.primes_handed_out,
    )?;
    let scheme = DynamicPrime::new(chunk_capacity);
    Ok((chunk_capacity, LabeledStore::from_parts(scheme, seg.tree, seg.labels, state)))
}

/// Removes swap leftovers (`*.tmp`) and segment files no manifest entry
/// references — the debris a crash mid-checkpoint or mid-swap leaves.
/// Only the recovering open calls this; read-only [`fsck`] never deletes.
fn gc_stale_files(dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| error::io_err("read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| error::io_err("read", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = if name.ends_with(".tmp") {
            true
        } else if let Some((doc_id, epoch)) = segment::parse_segment_file(name) {
            manifest.entry(doc_id).map(|e| e.epoch) != Some(epoch)
        } else {
            false
        };
        if stale {
            std::fs::remove_file(entry.path())
                .map_err(|e| error::io_err("remove", &entry.path(), e))?;
        }
    }
    Ok(())
}

/// Read-only integrity check of the store in `dir`: verifies the manifest,
/// every referenced segment, the WAL frame chain, and that replaying the
/// outstanding frames yields consistent documents — all in memory, without
/// truncating the torn tail, deleting stale files, or writing anything.
pub fn fsck(dir: &Path) -> Result<FsckReport, StoreError> {
    let manifest = Manifest::load(dir)?;
    let mut docs = BTreeMap::new();
    for entry in &manifest.entries {
        let (_, labeled) = load_doc(dir, entry)?;
        docs.insert(entry.doc_id, (entry.seq, entry.seq, labeled));
    }

    let scan = wal::scan(dir)?;
    let mut replayed = 0usize;
    for frame in &scan.frames {
        let mut body = frame.as_slice();
        let doc_id = read_varint(&mut body)?;
        let Some((durable_seq, seq, labeled)) = docs.get_mut(&doc_id) else { continue };
        if let Some(mutation) = wal::next_mutation(body, *durable_seq, seq, labeled.tree(), dir)? {
            let _ = labeled.apply(&mutation);
            replayed += 1;
        }
    }

    for (doc_id, (_, _, labeled)) in &docs {
        let table = LabelTable::build(labeled.tree(), labeled.doc());
        verify::check_doc(labeled, &table).map_err(|what| StoreError::Corrupt {
            path: dir.to_path_buf(),
            what: format!("document id {doc_id}: {what}"),
        })?;
    }

    Ok(FsckReport {
        docs: docs.len(),
        wal_frames: scan.frames.len(),
        replayed,
        torn_tail_bytes: scan.torn_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_labelkit::InsertPos;
    use xp_xmltree::NodeId;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xp-store-lib-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn nth_element(tree: &XmlTree, n: usize) -> NodeId {
        let mut it = tree.elements();
        let mut id = tree.root();
        for _ in 0..=n {
            id = match it.next() {
                Some(x) => x,
                None => panic!("tree has fewer than {n} elements"),
            };
        }
        id
    }

    #[test]
    fn create_add_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        {
            let mut store = Store::create(&dir).unwrap();
            store.add_document("a.xml", "<r><x/><y/></r>", 8).unwrap();
            store.add_document("b.xml", "<doc><p>hi</p></doc>", 16).unwrap();
            store.verify().unwrap();
        }
        let store = Store::open(&dir).unwrap();
        store.verify().unwrap();
        assert_eq!(store.docs().count(), 2);
        let a = store.doc("a.xml").unwrap();
        assert_eq!(a.tree().elements().count(), 3);
        assert_eq!(a.epoch(), 1);
        assert_eq!(store.doc("b.xml").unwrap().doc_id(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_uri_is_rejected() {
        let dir = tmpdir("dup");
        let mut store = Store::create(&dir).unwrap();
        store.add_document("a.xml", "<r/>", 8).unwrap();
        assert!(matches!(
            store.add_document("a.xml", "<r/>", 8),
            Err(StoreError::DuplicateUri(_))
        ));
        let target = store.doc("a.xml").unwrap().tree().root();
        assert!(matches!(
            store.apply("nope", &Mutation::Delete { target }),
            Err(StoreError::UnknownUri(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutations_survive_reopen_via_wal() {
        let dir = tmpdir("wal-replay");
        {
            let mut store = Store::create(&dir).unwrap();
            store.add_document("d.xml", "<r><a/><b/><c/></r>", 8).unwrap();
            let anchor = nth_element(store.doc("d.xml").unwrap().tree(), 2);
            store
                .apply("d.xml", &Mutation::InsertBefore { anchor, tag: "n".into() })
                .unwrap();
            let target = nth_element(store.doc("d.xml").unwrap().tree(), 1);
            store.apply("d.xml", &Mutation::Delete { target }).unwrap();
            store.verify().unwrap();
            // No checkpoint: reopen must recover from segment + WAL replay.
        }
        let store = Store::open(&dir).unwrap();
        store.verify().unwrap();
        let d = store.doc("d.xml").unwrap();
        assert_eq!(d.seq(), 2);
        assert_eq!(d.durable_seq(), 0);
        let tags: Vec<&str> =
            d.tree().elements().filter_map(|n| d.tree().tag(n)).collect();
        assert_eq!(tags, vec!["r", "n", "b", "c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_folds_wal_and_truncates() {
        let dir = tmpdir("checkpoint");
        {
            let mut store = Store::create(&dir).unwrap();
            store.add_document("d.xml", "<r><a/><b/></r>", 8).unwrap();
            let anchor = nth_element(store.doc("d.xml").unwrap().tree(), 1);
            store
                .apply("d.xml", &Mutation::InsertBefore { anchor, tag: "z".into() })
                .unwrap();
            store.checkpoint_all().unwrap();
            let d = store.doc("d.xml").unwrap();
            assert_eq!(d.epoch(), 2);
            assert_eq!(d.durable_seq(), 1);
        }
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        assert!(dir.join(segment_file(1, 2)).exists());
        assert!(!dir.join(segment_file(1, 1)).exists(), "old epoch dropped");
        let store = Store::open(&dir).unwrap();
        store.verify().unwrap();
        let tags: Vec<&str> = {
            let d = store.doc("d.xml").unwrap();
            d.tree().elements().filter_map(|n| d.tree().tag(n)).collect()
        };
        assert_eq!(tags, vec!["r", "z", "a", "b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_is_equivalent_to_live_one() {
        let dir = tmpdir("equiv");
        let mut live = Store::create(&dir).unwrap();
        live.add_document("d.xml", "<r><a/><b/><c/><d/></r>", 4).unwrap();
        let anchor = nth_element(live.doc("d.xml").unwrap().tree(), 2);
        live.apply("d.xml", &Mutation::InsertBefore { anchor, tag: "m".into() }).unwrap();
        let frag_pos = InsertPos::LastChildOf(live.doc("d.xml").unwrap().tree().root());
        live.apply(
            "d.xml",
            &Mutation::InsertSubtree { pos: frag_pos, xml: "<s><t/></s>".into() },
        )
        .unwrap();
        let reopened = Store::open(&dir).unwrap();
        verify::equivalent(
            live.doc("d.xml").unwrap().labeled(),
            reopened.doc("d.xml").unwrap().labeled(),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_without_repairing() {
        let dir = tmpdir("fsck");
        {
            let mut store = Store::create(&dir).unwrap();
            store.add_document("d.xml", "<r><a/><b/></r>", 8).unwrap();
            let anchor = nth_element(store.doc("d.xml").unwrap().tree(), 1);
            store
                .apply("d.xml", &Mutation::InsertBefore { anchor, tag: "z".into() })
                .unwrap();
        }
        // Simulate a torn tail by appending garbage to the WAL.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        }
        let len_before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let report = fsck(&dir).unwrap();
        assert_eq!(report.docs, 1);
        assert_eq!(report.wal_frames, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.torn_tail_bytes, 3);
        // Read-only: the torn tail is still there.
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), len_before);
        // A recovering open truncates it.
        let _ = Store::open(&dir).unwrap();
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            len_before - 3
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_rejects_a_corrupt_segment() {
        let dir = tmpdir("fsck-bad");
        {
            let mut store = Store::create(&dir).unwrap();
            store.add_document("d.xml", "<r><a/></r>", 8).unwrap();
        }
        let path = dir.join(segment_file(1, 1));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(fsck(&dir), Err(StoreError::Corrupt { .. })));
        assert!(matches!(Store::open(&dir), Err(StoreError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_whose_sc_table_covers_an_unlabeled_prime_is_refused() {
        let dir = tmpdir("sc-orphan");
        {
            let mut store = Store::create(&dir).unwrap();
            store.add_document("d.xml", "<r><a/><b/></r>", 8).unwrap();
        }
        // Rewrite the checkpoint with one SC member no node carries. The
        // segment goes through the normal writer, so its frame checksum
        // holds and only the label/SC cross-check can catch it.
        let mut seg = segment::load_segment(&dir, 1, 1).unwrap();
        let orphan = 101;
        seg.sc.insert(orphan, 9).unwrap();
        let payload = segment::encode_segment(
            &seg.uri,
            seg.doc_id,
            seg.epoch,
            seg.seq,
            seg.chunk_capacity,
            seg.primes_handed_out,
            &seg.tree,
            &seg.labels,
            &seg.sc,
        );
        segment::write_segment(&dir, 1, 1, &payload).unwrap();
        let want = xp_prime::Error::Decode(xp_prime::path::DecodeError::UnknownSelfLabel(orphan));
        for err in [fsck(&dir).unwrap_err(), Store::open(&dir).unwrap_err()] {
            assert!(matches!(&err, StoreError::Scheme(e) if *e == want), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_stale_segments_and_tmp() {
        let dir = tmpdir("gc");
        {
            let mut store = Store::create(&dir).unwrap();
            store.add_document("d.xml", "<r><a/></r>", 8).unwrap();
        }
        std::fs::write(dir.join("MANIFEST.tmp"), b"half-written").unwrap();
        std::fs::write(dir.join(segment_file(1, 9)), b"orphan").unwrap();
        let store = Store::open(&dir).unwrap();
        store.verify().unwrap();
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert!(!dir.join(segment_file(1, 9)).exists());
        assert!(dir.join(segment_file(1, 1)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_apply_consumes_a_seq_and_replays_identically() {
        let dir = tmpdir("failed-apply");
        let mut live = Store::create(&dir).unwrap();
        live.add_document("d.xml", "<r><a><b/></a></r>", 8).unwrap();
        let (a, b) = {
            let t = live.doc("d.xml").unwrap().tree();
            (nth_element(t, 1), nth_element(t, 2))
        };
        // Moving a into its own subtree fails validation — after the frame
        // is already durable.
        let bad = Mutation::MoveSubtree { target: a, pos: InsertPos::LastChildOf(b) };
        assert!(matches!(live.apply("d.xml", &bad), Err(StoreError::Dynamic(_))));
        assert_eq!(live.doc("d.xml").unwrap().seq(), 1);
        // A further good mutation lands at seq 2.
        live.apply("d.xml", &Mutation::InsertBefore { anchor: a, tag: "n".into() }).unwrap();
        assert_eq!(live.doc("d.xml").unwrap().seq(), 2);
        let reopened = Store::open(&dir).unwrap();
        reopened.verify().unwrap();
        assert_eq!(reopened.doc("d.xml").unwrap().seq(), 2);
        verify::equivalent(
            live.doc("d.xml").unwrap().labeled(),
            reopened.doc("d.xml").unwrap().labeled(),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_batch_is_one_fsync_and_matches_sequential_applies() {
        let dir = tmpdir("batch");
        let dir2 = tmpdir("batch-seq");
        let mut batched = Store::create(&dir).unwrap();
        let mut sequential = Store::create(&dir2).unwrap();
        for store in [&mut batched, &mut sequential] {
            store.add_document("d.xml", "<r><a/><b/><c/></r>", 8).unwrap();
        }
        let fsyncs_before = batched.wal_fsyncs();
        let muts: Vec<Mutation> = {
            let t = batched.doc("d.xml").unwrap().tree();
            vec![
                Mutation::InsertBefore { anchor: nth_element(t, 1), tag: "x".into() },
                Mutation::InsertSubtree {
                    pos: InsertPos::LastChildOf(t.root()),
                    xml: "<s><t/></s>".into(),
                },
                Mutation::Delete { target: nth_element(t, 2) },
            ]
        };
        let results = batched.apply_batch("d.xml", &muts).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(batched.wal_fsyncs() - fsyncs_before, 1, "group commit: one sync per batch");
        for m in &muts {
            sequential.apply("d.xml", m).unwrap();
        }
        assert_eq!(batched.doc("d.xml").unwrap().seq(), 3);
        verify::equivalent(
            batched.doc("d.xml").unwrap().labeled(),
            sequential.doc("d.xml").unwrap().labeled(),
        )
        .unwrap();
        // And the batch replays from the WAL like any other frames.
        let reopened = Store::open(&dir).unwrap();
        reopened.verify().unwrap();
        verify::equivalent(
            reopened.doc("d.xml").unwrap().labeled(),
            batched.doc("d.xml").unwrap().labeled(),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = tmpdir("recreate");
        let _ = Store::create(&dir).unwrap();
        assert!(Store::create(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
