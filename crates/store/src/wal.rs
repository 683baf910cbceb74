//! The write-ahead log: one frame per durable mutation, append-only.
//!
//! Every [`Mutation`] a [`Store`](crate::Store) or
//! [`ShardedDocStore`](crate::ShardedDocStore) applies is framed
//! ([`crate::frame`]) and appended here *before* any in-memory state
//! changes — write-ahead in the classic sense. A crash can therefore leave
//! at most one torn frame at the tail, which recovery detects by checksum
//! and discards; every complete frame prefix replays to a consistent store.
//!
//! An append that fails without killing the process is rolled back: the
//! log is cut back to its length after the last successful sync, so the
//! next batch, which reuses the failed batch's sequence numbers, lands
//! where the failed one began. If the rollback itself fails, the handle
//! refuses every later append ([`StoreError::WalPoisoned`]) until the
//! store is reopened. Only a crash inside the fsync window can leave a
//! failed frame for replay.
//!
//! Every reader decides each frame by one rule, `next_mutation`: skip a
//! frame the checkpoint folds in, refuse a gap or a repeated sequence
//! number, refuse bytes after the mutation.
//!
//! Fault sites (see `xp_testkit::fault`):
//!
//! * `store.wal.append` — fires before/during the frame write. `torn` mode
//!   persists half the frame then errors; `abort` persists half then kills
//!   the process; `error` writes nothing more.
//! * `store.wal.fsync` — fires after the frame is fully written. `abort`
//!   syncs and dies, so the frame is durable although the caller never
//!   learned of it; recovery tests accept either prefix.
//! * `store.wal.rollback` — fires when the log is cut back (rolling back a
//!   failed append, or [`Wal::truncate`]), leaving the handle poisoned.
//! * `store.wal.read` — fires on the recovery read path. `short` mode
//!   models a read that returned fewer bytes than the file holds; it is a
//!   typed error, **not** a silent tail truncation — truncating on a short
//!   read would discard durable frames.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::error::{ensure_frameable, io_err, StoreError};
use crate::frame::{decode_frames, encode_frame};
use xp_labelkit::codec::read_varint;
use xp_labelkit::Mutation;
use xp_testkit::FaultMode;
use xp_xmltree::XmlTree;

/// Name of the log file inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// An open append handle on the log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Log length after the last successful sync: a failed append is cut
    /// back to it.
    synced_len: u64,
    /// The log could not be cut back (after a failed append, or in
    /// [`Wal::truncate`]); every later append is refused until the store
    /// is reopened.
    poisoned: bool,
    /// Data syncs issued since open — the group-commit bench gate divides
    /// this by mutations applied to prove batching amortizes the fsync.
    fsyncs: u64,
}

/// What a (recovery-time) scan of the log found.
#[derive(Debug)]
pub struct WalScan {
    /// Every complete, checksum-verified frame payload, in append order.
    pub frames: Vec<Vec<u8>>,
    /// Length of the valid prefix.
    pub valid_len: u64,
    /// Total file length; `> valid_len` iff the tail is torn.
    pub total_len: u64,
}

impl WalScan {
    /// Bytes of torn tail after the last complete frame.
    pub fn torn_bytes(&self) -> u64 {
        self.total_len - self.valid_len
    }
}

/// Reads and scans the log without modifying it (the fsck path — a missing
/// file scans as empty, matching a store that never logged a mutation).
pub fn scan(dir: &Path) -> Result<WalScan, StoreError> {
    let path = dir.join(WAL_FILE);
    let bytes = read_all(&path)?;
    let scanned = decode_frames(&bytes);
    Ok(WalScan {
        frames: scanned.frames.iter().map(|f| f.to_vec()).collect(),
        valid_len: scanned.valid_len as u64,
        total_len: bytes.len() as u64,
    })
}

fn read_all(path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("read", path, e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(|e| io_err("read", path, e))?;
    // A short read delivers fewer bytes than the file holds; surfacing it as
    // a typed error (rather than scanning the partial buffer) is what keeps
    // durable frames from being mistaken for a torn tail and truncated.
    if let Err(inj) = xp_testkit::faultpoint!("store.wal.read") {
        let what = match inj.mode {
            FaultMode::Short => "short read (fewer bytes than the file holds)",
            _ => "injected read failure",
        };
        return Err(StoreError::Io { op: "read", path: path.to_path_buf(), msg: what.into() });
    }
    Ok(bytes)
}

/// The one rule every WAL reader applies to a frame: [`crate::Store`]'s
/// open, [`crate::fsck`] and [`crate::ShardedDocStore`]'s open. `body` is
/// the frame past its document id (a flat store's frames start with one):
/// `varint seq` + one encoded mutation. `durable_seq` is the seq the
/// document's checkpoint folds in, `seq` the last one replayed.
///
/// * A frame at or below `durable_seq` is already folded in: `Ok(None)`.
///   A flat store's log interleaves documents and survives single-document
///   checkpoints, so such frames are legal.
/// * Any other frame must be the next one, `seq + 1`: a gap or a repeat
///   is [`StoreError::Corrupt`].
/// * It must hold exactly one mutation: trailing bytes are corruption.
///
/// On `Some`, `seq` has advanced to the frame's.
pub(crate) fn next_mutation(
    body: &[u8],
    durable_seq: u64,
    seq: &mut u64,
    tree: &XmlTree,
    dir: &Path,
) -> Result<Option<Mutation>, StoreError> {
    let mut input = body;
    let frame_seq = read_varint(&mut input)?;
    if frame_seq <= durable_seq {
        return Ok(None);
    }
    let corrupt = |what: String| StoreError::Corrupt { path: dir.join(WAL_FILE), what };
    if frame_seq != *seq + 1 {
        let kind = if frame_seq <= *seq { "repeated WAL frame" } else { "WAL gap" };
        return Err(corrupt(format!("{kind}: frame seq {frame_seq} after seq {seq}")));
    }
    let mutation = Mutation::decode(&mut input, tree)?;
    if !input.is_empty() {
        return Err(corrupt("trailing bytes after a WAL mutation".into()));
    }
    *seq = frame_seq;
    Ok(Some(mutation))
}

impl Wal {
    /// Opens the log for recovery + append: scans it, truncates any torn
    /// tail (the only bytes recovery ever discards), and returns the handle
    /// together with every complete frame.
    pub fn open(dir: &Path) -> Result<(Wal, WalScan), StoreError> {
        let path = dir.join(WAL_FILE);
        let bytes = read_all(&path)?;
        let scanned = decode_frames(&bytes);
        let scan = WalScan {
            frames: scanned.frames.iter().map(|f| f.to_vec()).collect(),
            valid_len: scanned.valid_len as u64,
            total_len: bytes.len() as u64,
        };
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        if scan.torn_bytes() > 0 {
            file.set_len(scan.valid_len).map_err(|e| io_err("truncate", &path, e))?;
            file.sync_data().map_err(|e| io_err("fsync", &path, e))?;
        }
        let mut wal = Wal { path, file, synced_len: scan.valid_len, poisoned: false, fsyncs: 0 };
        wal.seek_end()?;
        Ok((wal, scan))
    }

    fn seek_end(&mut self) -> Result<(), StoreError> {
        use std::io::Seek;
        self.file
            .seek(std::io::SeekFrom::End(0))
            .map(|_| ())
            .map_err(|e| io_err("seek", &self.path, e))
    }

    /// Appends one frame and syncs it to disk. On success the payload is
    /// durable; on an error it is rolled back (see [`Wal::append_batch`]).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.append_batch(&[payload])
    }

    /// Group commit: appends every payload as its own frame, then issues
    /// **one** `fsync` for the whole batch. On success every payload is
    /// durable. On a write or fsync error the log is cut back to where the
    /// batch began, so no frame of it is replayed and the next batch can
    /// reuse its sequence numbers; if that rollback fails too, the handle
    /// is poisoned. Only a crash inside the fsync window (the `abort`
    /// fault modes) can leave a failed batch's frames for replay.
    pub fn append_batch<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::WalPoisoned { path: self.path.clone() });
        }
        if payloads.is_empty() {
            return Ok(());
        }
        for payload in payloads {
            ensure_frameable(payload.as_ref().len())?;
        }
        match self.write_and_sync(payloads) {
            Ok(len) => {
                self.synced_len = len;
                Ok(())
            }
            Err(e) => {
                self.poisoned = self.roll_back().is_err();
                Err(e)
            }
        }
    }

    /// Writes the batch's frames and syncs them; returns the new length.
    fn write_and_sync<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<u64, StoreError> {
        let mut len = self.synced_len;
        for payload in payloads {
            let frame = encode_frame(payload.as_ref());
            if let Err(inj) = xp_testkit::faultpoint!("store.wal.append") {
                return self.fail_write(&frame, inj, "store.wal.append");
            }
            self.file.write_all(&frame).map_err(|e| io_err("write", &self.path, e))?;
            len += frame.len() as u64;
        }
        if let Err(inj) = xp_testkit::faultpoint!("store.wal.fsync") {
            if inj.mode == FaultMode::Abort {
                let _ = self.file.sync_data();
                std::process::abort();
            }
            return Err(StoreError::Io {
                op: "fsync",
                path: self.path.clone(),
                msg: format!("{inj}"),
            });
        }
        self.fsyncs += 1;
        self.file.sync_data().map_err(|e| io_err("fsync", &self.path, e))?;
        Ok(len)
    }

    /// Cuts the log back to its last synced length, moves the write
    /// position to the new end, and syncs the cut.
    fn roll_back(&mut self) -> Result<(), StoreError> {
        xp_testkit::faultpoint!("store.wal.rollback")?;
        self.file.set_len(self.synced_len).map_err(|e| io_err("truncate", &self.path, e))?;
        self.seek_end()?;
        self.file.sync_data().map_err(|e| io_err("fsync", &self.path, e))
    }

    /// Data syncs issued through this handle since it was opened.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The injected-failure half of [`Wal::append`]: leave the disk in the
    /// state the fault mode dictates, then error or die.
    fn fail_write(
        &mut self,
        frame: &[u8],
        inj: xp_testkit::Injected,
        site: &str,
    ) -> Result<u64, StoreError> {
        match inj.mode {
            FaultMode::Torn | FaultMode::Abort => {
                // A torn write persists a strict prefix of the frame — the
                // checksum over the partial payload cannot verify, so
                // recovery sees it as the torn tail.
                let half = frame.len() / 2;
                let _ = self.file.write_all(&frame[..half]);
                let _ = self.file.sync_data();
                if inj.mode == FaultMode::Abort {
                    std::process::abort();
                }
                Err(StoreError::Io {
                    op: "write",
                    path: self.path.clone(),
                    msg: format!("injected torn write at {site}"),
                })
            }
            FaultMode::Error | FaultMode::Short => Err(StoreError::Io {
                op: "write",
                path: self.path.clone(),
                msg: format!("{inj}"),
            }),
        }
    }

    /// Discards the entire log. Only called once every document's durable
    /// checkpoint has caught up with the in-memory sequence — at that point
    /// no frame is needed for recovery. It cuts the log the way a rollback
    /// does, and a failure poisons the handle the same way: the write
    /// position and the file's length are then unknown.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.synced_len = 0;
        self.roll_back().inspect_err(|_| self.poisoned = true)
    }

    /// Current log length in bytes.
    pub fn len(&self) -> Result<u64, StoreError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| io_err("stat", &self.path, e))
    }

    /// `true` iff the log holds no frames.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_HEADER;
    use xp_testkit::fault;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xp-store-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_reopen_reads_back() {
        let dir = tmpdir("roundtrip");
        {
            let (mut wal, scan) = Wal::open(&dir).unwrap();
            assert!(scan.frames.is_empty());
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
        }
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(scan.torn_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends `bytes` to the log behind the store's back, as a crash mid
    /// write leaves them.
    fn append_raw(dir: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn torn_append_leaves_recoverable_prefix() {
        let dir = tmpdir("torn");
        fault::reset();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(b"durable").unwrap();
            let len = wal.len().unwrap();
            fault::arm("store.wal.append:1:torn");
            let err = wal.append(b"lost-to-the-crash").unwrap_err();
            fault::reset();
            assert!(matches!(err, StoreError::Io { .. }), "{err}");
            // The live handle cut the half frame back off.
            assert_eq!(wal.len().unwrap(), len, "a failed append is rolled back");
        }
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames, vec![b"durable".to_vec()]);
        assert_eq!(scan.torn_bytes(), 0);
        // A crash mid-write leaves the half frame behind; reopening
        // truncates it away.
        let frame = encode_frame(b"lost-to-the-crash");
        append_raw(&dir, &frame[..frame.len() / 2]);
        let before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames, vec![b"durable".to_vec()]);
        assert!(scan.torn_bytes() > 0, "tail was torn");
        let after = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(after < before);
        assert_eq!(after, scan.valid_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_append_leaves_file_untouched() {
        let dir = tmpdir("error");
        fault::reset();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(b"kept").unwrap();
        let len = wal.len().unwrap();
        fault::arm("store.wal.append:1");
        assert!(wal.append(b"never-written").is_err());
        fault::reset();
        assert_eq!(wal.len().unwrap(), len, "error mode writes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_fault_rolls_the_frame_back() {
        let dir = tmpdir("fsync");
        fault::reset();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            fault::arm("store.wal.fsync:1");
            let err = wal.append(b"never-acknowledged").unwrap_err();
            fault::reset();
            assert!(matches!(err, StoreError::Io { op: "fsync", .. }));
            assert!(wal.is_empty().unwrap(), "the unsynced frame is cut back off");
        }
        let (_, scan) = Wal::open(&dir).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.torn_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_append_after_a_failed_one_lands_in_its_place() {
        for spec in ["store.wal.append:2", "store.wal.append:2:torn", "store.wal.fsync:1"] {
            let dir = tmpdir("after-failure");
            fault::reset();
            {
                let (mut wal, _) = Wal::open(&dir).unwrap();
                wal.append(b"kept").unwrap();
                fault::arm(spec);
                let err = wal.append_batch(&[b"failed-1".as_slice(), b"failed-2"]).unwrap_err();
                fault::reset();
                assert!(matches!(err, StoreError::Io { .. }), "{spec}: {err}");
                wal.append(b"next").unwrap();
            }
            let (_, scan) = Wal::open(&dir).unwrap();
            assert_eq!(scan.frames, vec![b"kept".to_vec(), b"next".to_vec()], "{spec}");
            assert_eq!(scan.torn_bytes(), 0, "{spec}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failed_cut_poisons_the_handle_until_reopen() {
        let dir = tmpdir("poisoned");
        fault::reset();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(b"kept").unwrap();
            fault::arm("store.wal.fsync:1,store.wal.rollback:1");
            let err = wal.append(b"maybe-durable").unwrap_err();
            fault::reset();
            assert!(matches!(err, StoreError::Io { op: "fsync", .. }), "{err}");
            let fsyncs = wal.fsyncs();
            for _ in 0..2 {
                let err = wal.append(b"refused").unwrap_err();
                assert!(matches!(err, StoreError::WalPoisoned { .. }), "{err}");
            }
            assert_eq!(wal.fsyncs(), fsyncs, "a refused append touches nothing");
        }
        // The frame the rollback could not remove is there to replay, and
        // nothing was logged after it; the reopened handle appends again.
        let (mut wal, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames, vec![b"kept".to_vec(), b"maybe-durable".to_vec()]);
        wal.append(b"next").unwrap();
        // A truncate that fails leaves the length and write position
        // unknown, so it poisons the handle too.
        fault::arm("store.wal.rollback:1");
        assert!(matches!(wal.truncate(), Err(StoreError::FaultInjected(_))));
        fault::reset();
        assert!(matches!(wal.append(b"refused"), Err(StoreError::WalPoisoned { .. })));
        let (mut wal, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames.len(), 3, "the failed truncate cut nothing");
        wal.truncate().unwrap();
        wal.append(b"after-truncate").unwrap();
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames, vec![b"after-truncate".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_is_a_typed_error_not_truncation() {
        let dir = tmpdir("short");
        fault::reset();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(b"durable-frame").unwrap();
        }
        let len_before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        fault::arm("store.wal.read:1:short");
        let err = Wal::open(&dir).unwrap_err();
        fault::reset();
        assert!(matches!(err, StoreError::Io { op: "read", .. }), "{err}");
        // Crucially the durable frame was NOT truncated away.
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), len_before);
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_costs_one_fsync() {
        let dir = tmpdir("batch");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append_batch(&[b"a".as_slice(), b"bb", b"ccc"]).unwrap();
            assert_eq!(wal.fsyncs(), 1, "the whole batch shares one sync");
            wal.append(b"d").unwrap();
            assert_eq!(wal.fsyncs(), 2);
            assert!(wal.append_batch::<&[u8]>(&[]).is_ok());
            assert_eq!(wal.fsyncs(), 2, "an empty batch syncs nothing");
        }
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(
            scan.frames,
            vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec(), b"d".to_vec()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_batch_recovers_to_the_complete_frame_prefix() {
        let dir = tmpdir("batch-torn");
        fault::reset();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            fault::arm("store.wal.append:2:torn");
            let err = wal
                .append_batch(&[b"first-lands".as_slice(), b"second-tears", b"third-never"])
                .unwrap_err();
            fault::reset();
            assert!(matches!(err, StoreError::Io { .. }), "{err}");
            assert!(wal.is_empty().unwrap(), "the live handle rolls the whole batch back");
        }
        // A crash mid-batch leaves the complete first frame and half the
        // second; recovery keeps the complete-frame prefix.
        let second = encode_frame(b"second-tears");
        append_raw(&dir, &encode_frame(b"first-lands"));
        append_raw(&dir, &second[..second.len() / 2]);
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames, vec![b"first-lands".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_empties_the_log() {
        let dir = tmpdir("truncate");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(b"a").unwrap();
        wal.truncate().unwrap();
        assert!(wal.is_empty().unwrap());
        wal.append(b"b").unwrap();
        let (_, scan) = Wal::open(&dir).unwrap();
        assert_eq!(scan.frames, vec![b"b".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_prefix_of_a_log_recovers() {
        let dir = tmpdir("prefix");
        let mut payloads = Vec::new();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for i in 0..5u32 {
                let p = format!("frame-{i}-{}", "x".repeat(i as usize * 3)).into_bytes();
                wal.append(&p).unwrap();
                payloads.push(p);
            }
        }
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let pdir = tmpdir("prefix-scratch");
        for cut in 0..=bytes.len() {
            std::fs::write(pdir.join(WAL_FILE), &bytes[..cut]).unwrap();
            let (_, scan) = Wal::open(&pdir).unwrap();
            // Frames recovered must be a prefix of the appended payloads.
            assert!(scan.frames.len() <= payloads.len());
            assert_eq!(scan.frames[..], payloads[..scan.frames.len()]);
            // And the number recovered only drops at frame boundaries.
            let mut complete = 0usize;
            let mut off = 0usize;
            for p in &payloads {
                off += FRAME_HEADER + p.len();
                if off <= cut {
                    complete += 1;
                }
            }
            assert_eq!(scan.frames.len(), complete, "cut at byte {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&pdir);
    }
}
