//! The wire protocol: length-prefixed, checksummed message frames carrying
//! varint-encoded requests and responses.
//!
//! # Framing
//!
//! Every message — both directions — is one store frame
//! (`[len: u32 le][crc: u32 le][payload]`, CRC-32/IEEE over the payload;
//! see [`xp_store::frame`]). Reusing the WAL's frame codec means a message
//! that survives the socket is bit-identical in shape to one that survives
//! the disk, and the same corruption checks guard both. [`write_message`]
//! encodes the payload straight into the frame buffer
//! ([`xp_store::frame::encode_frame_with`]), so a reply is never copied
//! into a second buffer. Messages are additionally capped at
//! [`MAX_MESSAGE`] bytes so a garbage length prefix cannot make the server
//! allocate gigabytes.
//!
//! # Requests and responses
//!
//! Payloads are a varint tag followed by tag-specific fields, encoded with
//! the same varint/length-prefixed-bytes primitives as the store's
//! manifest ([`xp_labelkit::codec`]). Strings are UTF-8. Node references
//! cross the wire as arena slot indices (`NodeId::index()`), which are
//! stable for the lifetime of a document because slots are never reused —
//! the same representation the WAL itself uses.
//!
//! A [`Response::Hits`] node list is a count followed by one zigzag varint
//! per id: the wrapping difference from the previous id (the first from
//! 0). Answers come in document order and the parser hands out arena slots
//! in document order, so on a loaded document almost every delta is small
//! and takes one byte; only ids that later inserts handed out cost a jump,
//! which may be backward. Every `u64` sequence round-trips exactly. This
//! format took a new response tag; tag 2 carried absolute ids and is
//! retired, so a stale peer fails with "unknown response tag" instead of
//! misreading ids.
//!
//! Client-side mutations are [`WireMutation`]s: the labelkit
//! [`Mutation`] with raw `u64` node indices, because the client has no
//! arena to resolve them against. Both node forms encode through the one
//! codec in `xp-labelkit`, so a client's bytes are the bytes the WAL logs;
//! the server decodes them against the live tree with [`Mutation::decode`],
//! which also validates that every referenced slot exists.

use std::io::{Read, Write};

use xp_labelkit::codec::{read_bytes, read_varint, write_bytes, write_varint, CodecError};
use xp_labelkit::{InsertPos, Mutation};
use xp_store::frame::{crc32, encode_frame_with, FRAME_HEADER};

/// Hard cap on one protocol message (16 MiB). Mutation batches and query
/// results both fit comfortably; anything larger is a corrupt or hostile
/// length prefix.
pub const MAX_MESSAGE: usize = 16 << 20;

/// Wire error codes carried by [`Response::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Internal server failure (I/O, store corruption, …).
    Internal,
    /// The request referenced a document URI the store does not hold.
    UnknownDoc,
    /// The query path failed to parse.
    BadPath,
    /// The query ran past an evaluation limit.
    QueryLimit,
    /// A request or mutation payload failed to decode.
    BadRequest,
}

impl ErrCode {
    fn to_u64(self) -> u64 {
        match self {
            ErrCode::Internal => 0,
            ErrCode::UnknownDoc => 1,
            ErrCode::BadPath => 2,
            ErrCode::QueryLimit => 3,
            ErrCode::BadRequest => 4,
        }
    }

    fn from_u64(v: u64) -> Option<ErrCode> {
        Some(match v {
            0 => ErrCode::Internal,
            1 => ErrCode::UnknownDoc,
            2 => ErrCode::BadPath,
            3 => ErrCode::QueryLimit,
            4 => ErrCode::BadRequest,
            _ => return None,
        })
    }
}

/// Where a client-side insertion lands: [`xp_labelkit::InsertPos`] over a
/// raw arena index.
pub type WirePos = InsertPos<u64>;

/// A client-side mutation: [`xp_labelkit::Mutation`] over raw arena
/// indices, so it encodes through the same codec as the WAL. The server
/// decodes these bytes with `Mutation::decode`, resolving the indices
/// against the live tree.
pub type WireMutation = Mutation<u64>;

/// A summary of one document the server holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocInfo {
    /// Document URI.
    pub uri: String,
    /// Published label epoch (number of applied batches).
    pub epoch: u64,
    /// Mutations folded into the published snapshot.
    pub seq: u64,
    /// Attached elements at that epoch.
    pub elements: u64,
}

/// Per-mutation apply outcome carried by [`Response::Applied`]. A failed
/// mutation still consumed a WAL sequence number — the error is the
/// scheme's message, and replay re-fails it identically.
pub type WireApply = Result<u64, String>;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enumerate documents.
    ListDocs,
    /// Evaluate a query path against the latest published snapshot.
    Query {
        /// Document URI.
        uri: String,
        /// Path expression (the engine's XPath subset).
        path: String,
    },
    /// Apply a batch of mutations through the epoch loop.
    Apply {
        /// Document URI.
        uri: String,
        /// Encoded [`Mutation`]s (a [`WireMutation`] or a `Mutation<NodeId>`
        /// — the same codec), one length-prefixed blob each.
        mutations: Vec<Vec<u8>>,
    },
    /// Server counters.
    Stats,
    /// Stop the server once in-flight work drains.
    Shutdown,
}

const REQ_PING: u64 = 0;
const REQ_LIST: u64 = 1;
const REQ_QUERY: u64 = 2;
const REQ_APPLY: u64 = 3;
const REQ_STATS: u64 = 4;
const REQ_SHUTDOWN: u64 = 5;

/// Server counters reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Label epochs published (batches applied).
    pub epochs: u64,
    /// Mutations applied successfully.
    pub applied: u64,
    /// Mutations that consumed a sequence number but failed in the scheme.
    pub failed: u64,
    /// WAL data syncs issued.
    pub wal_fsyncs: u64,
    /// Snapshots published by catching up a retired buffer (cheap path).
    pub snapshots_reclaimed: u64,
    /// Snapshots published by deep-copying the current one (slow path).
    pub snapshots_cloned: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that fell through to cold evaluation (0 when caching is
    /// off — every query then skips the cache entirely).
    pub cache_misses: u64,
    /// Cached results dropped by relabel-driven invalidation.
    pub cache_invalidated: u64,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// [`Request::Ping`] reply.
    Pong,
    /// Document listing.
    Docs(Vec<DocInfo>),
    /// Query hits, stamped with the snapshot they were computed against.
    Hits {
        /// Label epoch of the snapshot.
        epoch: u64,
        /// Mutation sequence folded into it.
        seq: u64,
        /// Matching nodes, as arena indices in document order.
        nodes: Vec<u64>,
    },
    /// Apply outcome, stamped with the epoch the batch produced.
    Applied {
        /// Label epoch that published this batch.
        epoch: u64,
        /// Document sequence after the batch.
        seq: u64,
        /// Per-mutation outcome: labels touched, or the scheme error.
        results: Vec<WireApply>,
    },
    /// Counter snapshot.
    Stats(ServerStats),
    /// The server acknowledged shutdown.
    Bye,
    /// A typed failure.
    Err {
        /// What kind of failure.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
}

const RESP_PONG: u64 = 0;
const RESP_DOCS: u64 = 1;
// Tag 2 carried `Hits` with absolute ids; it is retired, not reused.
const RESP_APPLIED: u64 = 3;
const RESP_STATS: u64 = 4;
const RESP_BYE: u64 = 5;
const RESP_ERR: u64 = 6;
const RESP_HITS: u64 = 7;

fn read_string(input: &mut &[u8]) -> Result<String, CodecError> {
    std::str::from_utf8(read_bytes(input)?)
        .map(str::to_owned)
        .map_err(|_| CodecError::Corrupt("protocol string is not UTF-8"))
}

/// The zigzag map of a wrapping id difference: small steps either way
/// become small varints.
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64) >> 63) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Appends a node list as its count and the zigzag deltas between
/// consecutive ids. The buffer is sized once, before encoding, for the
/// common case of one byte per id (measuring each delta first cost more
/// than the encoding itself); a list with wider deltas grows it.
fn write_node_list(out: &mut Vec<u8>, nodes: &[u64]) {
    out.reserve(nodes.len() + 10);
    write_varint(out, nodes.len() as u64);
    let mut prev = 0u64;
    for &n in nodes {
        write_varint(out, zigzag(n.wrapping_sub(prev)));
        prev = n;
    }
}

fn read_node_list(input: &mut &[u8]) -> Result<Vec<u64>, CodecError> {
    let count = read_varint(input)?;
    let mut nodes = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut prev = 0u64;
    for _ in 0..count {
        prev = prev.wrapping_add(unzigzag(read_varint(input)?));
        nodes.push(prev);
    }
    Ok(nodes)
}

impl Request {
    /// Serializes the request payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the request payload to `out` (how [`write_message`] frames
    /// it in place).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => write_varint(out, REQ_PING),
            Request::ListDocs => write_varint(out, REQ_LIST),
            Request::Query { uri, path } => {
                write_varint(out, REQ_QUERY);
                write_bytes(out, uri.as_bytes());
                write_bytes(out, path.as_bytes());
            }
            Request::Apply { uri, mutations } => {
                write_varint(out, REQ_APPLY);
                write_bytes(out, uri.as_bytes());
                write_varint(out, mutations.len() as u64);
                for m in mutations {
                    write_bytes(out, m);
                }
            }
            Request::Stats => write_varint(out, REQ_STATS),
            Request::Shutdown => write_varint(out, REQ_SHUTDOWN),
        }
    }

    /// Parses a request payload.
    pub fn decode(mut input: &[u8]) -> Result<Request, CodecError> {
        let input = &mut input;
        let req = match read_varint(input)? {
            REQ_PING => Request::Ping,
            REQ_LIST => Request::ListDocs,
            REQ_QUERY => Request::Query {
                uri: read_string(input)?,
                path: read_string(input)?,
            },
            REQ_APPLY => {
                let uri = read_string(input)?;
                let count = read_varint(input)?;
                let mut mutations = Vec::new();
                for _ in 0..count {
                    mutations.push(read_bytes(input)?.to_vec());
                }
                Request::Apply { uri, mutations }
            }
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            _ => return Err(CodecError::Corrupt("unknown request tag")),
        };
        if !input.is_empty() {
            return Err(CodecError::Corrupt("trailing request bytes"));
        }
        Ok(req)
    }
}

impl Response {
    /// Serializes the response payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the response payload to `out` (how [`write_message`] frames
    /// it in place).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => write_varint(out, RESP_PONG),
            Response::Docs(docs) => {
                write_varint(out, RESP_DOCS);
                write_varint(out, docs.len() as u64);
                for d in docs {
                    write_bytes(out, d.uri.as_bytes());
                    write_varint(out, d.epoch);
                    write_varint(out, d.seq);
                    write_varint(out, d.elements);
                }
            }
            Response::Hits { epoch, seq, nodes } => {
                write_varint(out, RESP_HITS);
                write_varint(out, *epoch);
                write_varint(out, *seq);
                write_node_list(out, nodes);
            }
            Response::Applied { epoch, seq, results } => {
                write_varint(out, RESP_APPLIED);
                write_varint(out, *epoch);
                write_varint(out, *seq);
                write_varint(out, results.len() as u64);
                for r in results {
                    match r {
                        Ok(touched) => {
                            write_varint(out, 0);
                            write_varint(out, *touched);
                        }
                        Err(msg) => {
                            write_varint(out, 1);
                            write_bytes(out, msg.as_bytes());
                        }
                    }
                }
            }
            Response::Stats(s) => {
                write_varint(out, RESP_STATS);
                for v in [
                    s.epochs,
                    s.applied,
                    s.failed,
                    s.wal_fsyncs,
                    s.snapshots_reclaimed,
                    s.snapshots_cloned,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_invalidated,
                ] {
                    write_varint(out, v);
                }
            }
            Response::Bye => write_varint(out, RESP_BYE),
            Response::Err { code, msg } => {
                write_varint(out, RESP_ERR);
                write_varint(out, code.to_u64());
                write_bytes(out, msg.as_bytes());
            }
        }
    }

    /// Parses a response payload.
    pub fn decode(mut input: &[u8]) -> Result<Response, CodecError> {
        let input = &mut input;
        let resp = match read_varint(input)? {
            RESP_PONG => Response::Pong,
            RESP_DOCS => {
                let count = read_varint(input)?;
                let mut docs = Vec::new();
                for _ in 0..count {
                    docs.push(DocInfo {
                        uri: read_string(input)?,
                        epoch: read_varint(input)?,
                        seq: read_varint(input)?,
                        elements: read_varint(input)?,
                    });
                }
                Response::Docs(docs)
            }
            RESP_HITS => Response::Hits {
                epoch: read_varint(input)?,
                seq: read_varint(input)?,
                nodes: read_node_list(input)?,
            },
            RESP_APPLIED => {
                let epoch = read_varint(input)?;
                let seq = read_varint(input)?;
                let count = read_varint(input)?;
                let mut results = Vec::new();
                for _ in 0..count {
                    results.push(match read_varint(input)? {
                        0 => Ok(read_varint(input)?),
                        1 => Err(read_string(input)?),
                        _ => return Err(CodecError::Corrupt("unknown apply outcome tag")),
                    });
                }
                Response::Applied { epoch, seq, results }
            }
            RESP_STATS => Response::Stats(ServerStats {
                epochs: read_varint(input)?,
                applied: read_varint(input)?,
                failed: read_varint(input)?,
                wal_fsyncs: read_varint(input)?,
                snapshots_reclaimed: read_varint(input)?,
                snapshots_cloned: read_varint(input)?,
                cache_hits: read_varint(input)?,
                cache_misses: read_varint(input)?,
                cache_invalidated: read_varint(input)?,
            }),
            RESP_BYE => Response::Bye,
            RESP_ERR => {
                let code = ErrCode::from_u64(read_varint(input)?)
                    .ok_or(CodecError::Corrupt("unknown error code"))?;
                Response::Err { code, msg: read_string(input)? }
            }
            _ => return Err(CodecError::Corrupt("unknown response tag")),
        };
        if !input.is_empty() {
            return Err(CodecError::Corrupt("trailing response bytes"));
        }
        Ok(resp)
    }
}

/// Writes one framed message whose payload `encode` appends, straight
/// into the frame buffer (e.g. `|out| response.encode_into(out)`).
pub fn write_message(
    w: &mut impl Write,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    w.write_all(&encode_frame_with(encode))?;
    w.flush()
}

/// Reads one framed message. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary; corruption (bad CRC, oversized
/// length, torn frame) is an [`std::io::ErrorKind::InvalidData`] error.
pub fn read_message(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        n if n < FRAME_HEADER => {
            return Err(bad_data("torn frame header"));
        }
        _ => {}
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let want_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_MESSAGE {
        return Err(bad_data("message exceeds MAX_MESSAGE"));
    }
    let mut payload = vec![0u8; len];
    if read_full(r, &mut payload)? < len {
        return Err(bad_data("torn frame payload"));
    }
    if crc32(&payload) != want_crc {
        return Err(bad_data("frame checksum mismatch"));
    }
    Ok(Some(payload))
}

/// Reads until `buf` is full or EOF; returns bytes read. A read timeout
/// (used by the server to poll its stop flag) only propagates when it
/// strikes at a frame boundary — once any byte of a frame has arrived,
/// the rest is waited for, so timeouts never tear messages.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if filled > 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

fn bad_data(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_testkit::rng::SeedableRng;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Ping,
            Request::ListDocs,
            Request::Query { uri: "a.xml".into(), path: "//act/scene".into() },
            Request::Apply {
                uri: "a.xml".into(),
                mutations: vec![vec![1, 2, 3], vec![]],
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Pong,
            Response::Docs(vec![DocInfo {
                uri: "a.xml".into(),
                epoch: 3,
                seq: 17,
                elements: 42,
            }]),
            Response::Hits { epoch: 9, seq: 40, nodes: vec![0, 5, 1 << 40] },
            Response::Applied {
                epoch: 10,
                seq: 41,
                results: vec![Ok(7), Err("nope".into())],
            },
            Response::Stats(ServerStats {
                epochs: 1,
                applied: 2,
                failed: 3,
                wal_fsyncs: 4,
                snapshots_reclaimed: 5,
                snapshots_cloned: 6,
                cache_hits: 7,
                cache_misses: 8,
                cache_invalidated: 9,
            }),
            Response::Bye,
            Response::Err { code: ErrCode::BadPath, msg: "unparsable".into() },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    fn hits(nodes: Vec<u64>) -> Response {
        Response::Hits { epoch: 12, seq: 345, nodes }
    }

    #[test]
    fn hits_round_trip_any_id_sequence() {
        let mut rng = xp_testkit::rng::StdRng::seed_from_u64(0x2117);
        let random: Vec<u64> = (0..2_000).map(|_| rng.next_u64()).collect();
        let lists = [
            vec![],
            vec![42],
            vec![0, u64::MAX, 0],
            vec![u64::MAX, 1 << 63, 1 << 40, 300, 7, 0],
            (0..1_000).rev().collect(),
            random,
        ];
        for nodes in lists {
            let resp = hits(nodes);
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn hits_payload_bytes_are_pinned() {
        // Tag 7, epoch 3, seq 17, five ids as zigzag deltas from 0:
        // +5, +1, +1, -3, +296.
        let resp = Response::Hits { epoch: 3, seq: 17, nodes: vec![5, 6, 7, 4, 300] };
        assert_eq!(
            resp.encode(),
            [0x07, 0x03, 0x11, 0x05, 0x0a, 0x02, 0x02, 0x05, 0xd0, 0x04]
        );
        // A run of consecutive ids, as a freshly parsed document answers:
        // after the first (2 bytes for zigzag 2000), one byte per id.
        let run = hits((1_000..3_000).collect()).encode();
        let header = hits(Vec::new()).encode().len() - 1; // less the count byte
        assert_eq!(run.len(), header + 2 + 2 + 1_999);
    }

    #[test]
    fn retired_and_truncated_hits_fail_typed() {
        // Tag 2 carried absolute ids; a peer still sending it is refused,
        // never misread as deltas.
        let mut stale = Vec::new();
        for v in [2u64, 3, 17, 2, 5, 6] {
            write_varint(&mut stale, v);
        }
        assert_eq!(Response::decode(&stale), Err(CodecError::Corrupt("unknown response tag")));

        let full = hits(vec![10, 11, 12, 1 << 30]).encode();
        for cut in 1..full.len() {
            assert_eq!(
                Response::decode(&full[..cut]),
                Err(CodecError::UnexpectedEnd),
                "cut at {cut}"
            );
        }
        // A count far past the bytes present is a truncation, not a huge
        // allocation.
        let mut lying = Vec::new();
        for v in [RESP_HITS, 1, 1, u64::MAX, 0] {
            write_varint(&mut lying, v);
        }
        assert_eq!(Response::decode(&lying), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn write_message_frames_the_encoded_payload() {
        let resp = hits(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let mut wire = Vec::new();
        write_message(&mut wire, |out| resp.encode_into(out)).unwrap();
        assert_eq!(wire, xp_store::frame::encode_frame(&resp.encode()));
        let payload = read_message(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn wire_mutation_bytes_match_the_labelkit_codec() {
        let tree = xp_xmltree::parse("<r><a><b/></a><c/></r>").unwrap();
        let a = tree.elements().nth(1).unwrap();
        let c = tree.elements().nth(3).unwrap();
        let pairs: Vec<(WireMutation, Mutation)> = vec![
            (
                WireMutation::InsertBefore { anchor: a.index() as u64, tag: "x".into() },
                Mutation::InsertBefore { anchor: a, tag: "x".into() },
            ),
            (
                WireMutation::InsertSubtree {
                    pos: WirePos::LastChildOf(c.index() as u64),
                    xml: "<s/>".into(),
                },
                Mutation::InsertSubtree { pos: InsertPos::LastChildOf(c), xml: "<s/>".into() },
            ),
            (
                WireMutation::InsertParent { target: a.index() as u64, tag: "w".into() },
                Mutation::InsertParent { target: a, tag: "w".into() },
            ),
            (
                WireMutation::Delete { target: c.index() as u64 },
                Mutation::Delete { target: c },
            ),
            (
                WireMutation::MoveSubtree {
                    target: c.index() as u64,
                    pos: WirePos::Before(a.index() as u64),
                },
                Mutation::MoveSubtree { target: c, pos: InsertPos::Before(a) },
            ),
        ];
        for (wire, real) in pairs {
            let mut expected = Vec::new();
            real.encode(&mut expected);
            assert_eq!(wire.to_bytes(), expected, "{wire:?}");
            // And the server-side decode resolves back to the original.
            let bytes = wire.to_bytes();
            let mut input = bytes.as_slice();
            assert_eq!(Mutation::decode(&mut input, &tree).unwrap(), real);
            assert!(input.is_empty());
        }
    }

    #[test]
    fn framed_stream_round_trips_and_rejects_corruption() {
        let mut buf = Vec::new();
        write_message(&mut buf, |out| Request::Ping.encode_into(out)).unwrap();
        write_message(&mut buf, |out| Request::Stats.encode_into(out)).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            Request::decode(&read_message(&mut r).unwrap().unwrap()).unwrap(),
            Request::Ping
        );
        assert_eq!(
            Request::decode(&read_message(&mut r).unwrap().unwrap()).unwrap(),
            Request::Stats
        );
        assert!(read_message(&mut r).unwrap().is_none(), "clean EOF");

        // Flip a payload bit: the checksum catches it.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let mut r = corrupt.as_slice();
        assert!(read_message(&mut r).is_ok(), "first frame untouched");
        assert_eq!(
            read_message(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );

        // An absurd length prefix is rejected before allocation.
        let mut huge = ((MAX_MESSAGE + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 4]);
        assert_eq!(
            read_message(&mut huge.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
