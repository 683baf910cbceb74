//! Checksummed length-prefixed frames — the atom of every on-disk file.
//!
//! Layout (DESIGN.md §11): `[len: u32 le][crc: u32 le][payload: len bytes]`,
//! where `crc` is the CRC-32 (IEEE/ISO-HDLC polynomial, the zlib/PNG one)
//! of the payload. A file is a concatenation of frames; any suffix that
//! fails the length or checksum check is a *torn tail* — the signature a
//! crash mid-write leaves — and decoding reports exactly where the valid
//! prefix ends so recovery can discard the rest.
//!
//! WAL frames, segments, manifests and socket messages (`xp-server`'s
//! protocol) all go through [`crc32`] and [`encode_frame_with`], so one
//! checksum and one header layout cover every byte the system writes.
//! [`crc32`] runs slicing-by-16 — sixteen bytes per step through sixteen
//! const-built tables — and returns the same value as the byte-at-a-time
//! loop for every input, so frames written by either read back unchanged.
//! [`encode_frame_with`] builds a frame in one buffer: the caller appends
//! the payload after a reserved header, and the length and checksum are
//! filled in afterwards, so no payload is copied into a second buffer.

/// Bytes of frame header preceding each payload.
pub const FRAME_HEADER: usize = 8;

/// Largest payload a frame can carry: the length field is a `u32`, so
/// anything longer cannot be framed. Writers must reject oversized payloads
/// *before* encoding — a silent `as u32` truncation would emit a frame whose
/// CRC covers the wrong byte span, which recovery would then misread as a
/// torn tail followed by garbage.
pub const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// `true` iff a payload of `len` bytes fits the frame length field. This is
/// the guard every write path checks before calling [`encode_frame`].
pub const fn payload_fits(len: usize) -> bool {
    len <= MAX_FRAME_PAYLOAD
}

/// `CRC_TABLES[k][b]` is the CRC register contribution of byte `b`
/// followed by `k` zero bytes; table 0 is the classic byte-at-a-time table.
static CRC_TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32 (IEEE 802.3 polynomial, reflected: 0xEDB88320), slicing-by-16:
/// each 16-byte block costs sixteen table lookups and no per-bit work; the
/// tail shorter than a block goes byte by byte through table 0.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // One more zero byte after `b`: shift the register a byte and fold
    // the byte that fell out back in through table 0.
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Builds one frame in one buffer: reserves the header, lets `append`
/// write the payload after it, then fills in the length and the CRC. The
/// payload must satisfy [`payload_fits`]; callers (WAL append, segment
/// write, manifest swap) reject oversized payloads with a typed error
/// before reaching this point, and socket messages stay far below it.
pub fn encode_frame_with(append: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0u8; FRAME_HEADER];
    append(&mut out);
    let payload = &out[FRAME_HEADER..];
    debug_assert!(payload_fits(payload.len()), "oversized payload must be rejected upstream");
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[..4].copy_from_slice(&len);
    out[4..FRAME_HEADER].copy_from_slice(&crc);
    out
}

/// Wraps an existing `payload` in one frame ([`encode_frame_with`] over a
/// copy of it).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    encode_frame_with(|out| out.extend_from_slice(payload))
}

/// Result of scanning a byte stream as consecutive frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan<'a> {
    /// Every frame payload whose length and checksum verified, in order.
    pub frames: Vec<&'a [u8]>,
    /// Length of the valid prefix (offset where the torn tail, if any,
    /// begins). Equal to the input length iff the stream is clean.
    pub valid_len: usize,
}

impl FrameScan<'_> {
    /// `true` iff the stream ended exactly on a frame boundary.
    pub fn is_clean(&self, total_len: usize) -> bool {
        self.valid_len == total_len
    }
}

/// Scans `bytes` as consecutive frames, stopping at the first frame whose
/// header is incomplete, whose declared payload runs past the end, or whose
/// checksum fails — the three shapes a torn write can leave.
pub fn decode_frames(bytes: &[u8]) -> FrameScan<'_> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while bytes.len() - off >= FRAME_HEADER {
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
            as usize;
        let crc =
            u32::from_le_bytes([bytes[off + 4], bytes[off + 5], bytes[off + 6], bytes[off + 7]]);
        let start = off + FRAME_HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            break; // truncated payload
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // torn or corrupted mid-frame
        }
        frames.push(payload);
        off = end;
    }
    FrameScan { frames, valid_len: off }
}

/// Decodes a file that must consist of exactly one clean frame (manifests
/// and segments), returning its payload.
pub fn decode_single_frame(bytes: &[u8]) -> Result<&[u8], &'static str> {
    let scan = decode_frames(bytes);
    if !scan.is_clean(bytes.len()) {
        return Err("torn or corrupt frame");
    }
    match scan.frames.as_slice() {
        [one] => Ok(one),
        [] => Err("empty file"),
        _ => Err("expected exactly one frame"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use xp_testkit::rng::{SeedableRng, StdRng};

    /// The byte-at-a-time loop `crc32` replaced: the reference it must
    /// equal on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_16_equals_the_bytewise_reference() {
        // Every length across the block boundary, at every alignment of
        // the start within a block.
        let buf = seeded_bytes(256 + 16, 0xC3C3_2004);
        for start in 0..16 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start} len {len}");
            }
        }
        let big = seeded_bytes(1 << 20, 7);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        let zeros = vec![0u8; 4099];
        assert_eq!(crc32(&zeros), crc32_bytewise(&zeros));
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // The on-disk frame shape: length, then CRC, both little-endian,
        // then the payload. Stores written before slicing-by-16 must open.
        assert_eq!(
            encode_frame(b"123456789"),
            b"\x09\x00\x00\x00\x26\x39\xF4\xCB123456789".to_vec()
        );
        assert_eq!(encode_frame(b""), vec![0u8; FRAME_HEADER]);
        let built = encode_frame_with(|out| out.extend_from_slice(b"1234"));
        assert_eq!(built, encode_frame(b"1234"));
    }

    #[test]
    fn frames_round_trip() {
        let mut stream = Vec::new();
        let payloads: &[&[u8]] = &[b"first", b"", b"third frame with more bytes"];
        for p in payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let scan = decode_frames(&stream);
        assert!(scan.is_clean(stream.len()));
        assert_eq!(scan.frames, payloads);
    }

    #[test]
    fn every_truncation_point_yields_a_valid_prefix() {
        let mut stream = Vec::new();
        for p in [&b"alpha"[..], b"beta", b"gamma-gamma"] {
            stream.extend_from_slice(&encode_frame(p));
        }
        for cut in 0..=stream.len() {
            let scan = decode_frames(&stream[..cut]);
            // The valid prefix must itself rescan cleanly to the same frames.
            let again = decode_frames(&stream[..scan.valid_len]);
            assert!(again.is_clean(scan.valid_len));
            assert_eq!(again.frames, scan.frames);
            assert!(scan.valid_len <= cut);
        }
        // Full stream decodes all three.
        assert_eq!(decode_frames(&stream).frames.len(), 3);
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut stream = encode_frame(b"good");
        let tail_at = stream.len();
        stream.extend_from_slice(&encode_frame(b"bad"));
        stream[tail_at + FRAME_HEADER] ^= 0x40; // flip a payload bit
        let scan = decode_frames(&stream);
        assert_eq!(scan.frames, vec![&b"good"[..]]);
        assert_eq!(scan.valid_len, tail_at);
    }

    #[test]
    fn absurd_length_is_a_torn_tail_not_a_panic() {
        let mut stream = encode_frame(b"ok");
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&[0u8; 20]);
        let scan = decode_frames(&stream);
        assert_eq!(scan.frames.len(), 1);
    }

    #[test]
    fn payload_size_boundary() {
        // The exact boundary: u32::MAX bytes is the largest frameable
        // payload; one more byte cannot be expressed by the length field.
        assert!(payload_fits(MAX_FRAME_PAYLOAD));
        assert!(payload_fits(0));
        // On 64-bit targets the +1 case is representable as a usize and
        // must be rejected — this is the silent-`as u32`-truncation bug.
        if let Some(over) = MAX_FRAME_PAYLOAD.checked_add(1) {
            assert!(!payload_fits(over));
        }
        // And the frame a truncating cast *would* have produced really does
        // describe the wrong byte span: (u32::MAX as u64 + 1) as u32 == 0.
        assert_eq!((MAX_FRAME_PAYLOAD as u64 + 1) as u32, 0);
    }

    #[test]
    fn single_frame_decoder() {
        let f = encode_frame(b"payload");
        assert_eq!(decode_single_frame(&f), Ok(&b"payload"[..]));
        assert!(decode_single_frame(&f[..f.len() - 1]).is_err());
        let mut two = f.clone();
        two.extend_from_slice(&encode_frame(b"second"));
        assert!(decode_single_frame(&two).is_err());
        assert!(decode_single_frame(b"").is_err());
    }
}
