//! Binary (de)serialization of labeled documents.
//!
//! The paper's storage discussion (§3.1, §5.1) is about how labels sit in a
//! database: fixed-width columns when the maximum label is small, variable
//! width otherwise. This module provides the variable-width on-disk form:
//! LEB128 varints for numbers, length-prefixed bytes for big labels, one
//! record per node.
//!
//! Every scheme's label type implements [`LabelCodec`]; a [`LabeledDoc`]
//! round-trips through [`encode_doc`] / [`decode_doc`].

use crate::doc::LabeledDoc;
use crate::scheme::LabelOps;
use xp_xmltree::XmlTree;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-record.
    UnexpectedEnd,
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// A structural invariant failed (e.g. node index out of range).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as a LEB128 varint. Inlined across crates: the server's
/// reply encoder calls it once per result row.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint, advancing the slice. A one-byte varint (below
/// 128) returns from the inlined fast path.
#[inline]
pub fn read_varint(input: &mut &[u8]) -> Result<u64, CodecError> {
    if let Some((&byte, rest)) = input.split_first() {
        if byte < 0x80 {
            *input = rest;
            return Ok(u64::from(byte));
        }
    }
    read_varint_multi(input)
}

fn read_varint_multi(input: &mut &[u8]) -> Result<u64, CodecError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().ok_or(CodecError::UnexpectedEnd)?;
        *input = rest;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::VarintOverflow);
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte string, advancing the slice.
pub fn read_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = read_varint(input)? as usize;
    if input.len() < len {
        return Err(CodecError::UnexpectedEnd);
    }
    let (bytes, rest) = input.split_at(len);
    *input = rest;
    Ok(bytes)
}

/// A label type that can serialize itself.
pub trait LabelCodec: Sized {
    /// Appends the label's encoding.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one label, advancing the slice.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Serializes a labeled document: node count, then `(arena index, label)`
/// records in document order.
pub fn encode_doc<L: LabelOps + LabelCodec>(doc: &LabeledDoc<L>) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, doc.len() as u64);
    for (node, label) in doc.iter() {
        write_varint(&mut out, node.index() as u64);
        label.encode(&mut out);
    }
    out
}

/// Deserializes a labeled document over `tree`'s arena.
///
/// The arena indices must resolve to element nodes of `tree` — decoding a
/// document against the wrong tree is reported as corruption.
pub fn decode_doc<L: LabelOps + LabelCodec>(
    tree: &XmlTree,
    mut input: &[u8],
) -> Result<LabeledDoc<L>, CodecError> {
    let input = &mut input;
    let count = read_varint(input)? as usize;
    if count > tree.arena_len() {
        return Err(CodecError::Corrupt("more labels than arena slots"));
    }
    let by_index: std::collections::HashMap<usize, xp_xmltree::NodeId> =
        tree.elements().map(|n| (n.index(), n)).collect();
    let mut doc = LabeledDoc::new(tree);
    for _ in 0..count {
        let idx = read_varint(input)? as usize;
        let node = *by_index.get(&idx).ok_or(CodecError::Corrupt("unknown node index"))?;
        let label = L::decode(input)?;
        doc.set(node, label);
    }
    if !input.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes"));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_xmltree::parse;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Toy(u64);

    impl LabelOps for Toy {
        fn is_ancestor_of(&self, other: &Self) -> bool {
            other.0 % self.0 == 0 && self.0 != other.0
        }
        fn size_bits(&self) -> u64 {
            64 - self.0.leading_zeros() as u64
        }
    }

    impl LabelCodec for Toy {
        fn encode(&self, out: &mut Vec<u8>) {
            write_varint(out, self.0);
        }
        fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
            read_varint(input).map(Toy)
        }
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 255, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(read_varint(&mut slice), Ok(v));
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_bytes_are_pinned() {
        // Segments, WAL frames and socket messages store these bytes.
        let cases: [(u64, &[u8]); 5] = [
            (0, &[0x00]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (u64::MAX, &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]),
        ];
        for (v, bytes) in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf, bytes, "{v}");
        }
        // Every bit length takes ceil(bits / 7) bytes and reads back, from
        // the one-byte fast path and the multi-byte loop alike.
        for bits in 0..64 {
            for v in [1u64 << bits, (1u64 << bits) - 1] {
                let mut buf = Vec::new();
                write_varint(&mut buf, v);
                let want = (64 - v.leading_zeros()).div_ceil(7).max(1) as usize;
                assert_eq!(buf.len(), want, "{v}");
                assert_eq!(read_varint(&mut buf.as_slice()), Ok(v));
            }
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        let mut eleven_bytes = vec![0xffu8; 10];
        eleven_bytes.push(0x01);
        assert_eq!(read_varint(&mut eleven_bytes.as_slice()), Err(CodecError::VarintOverflow));
        assert_eq!(read_varint(&mut [0x80u8, 0x80].as_slice()), Err(CodecError::UnexpectedEnd));
        assert_eq!(read_varint(&mut [].as_slice()), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn byte_strings_round_trip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello");
        write_bytes(&mut buf, b"");
        let mut slice = buf.as_slice();
        assert_eq!(read_bytes(&mut slice).unwrap(), b"hello");
        assert_eq!(read_bytes(&mut slice).unwrap(), b"");
        assert!(slice.is_empty());
        assert_eq!(read_bytes(&mut [5u8, 1, 2].as_slice()), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn doc_round_trips() {
        let tree = parse("<a><b/><c><d/></c></a>").unwrap();
        let mut doc: LabeledDoc<Toy> = LabeledDoc::new(&tree);
        for (i, node) in tree.elements().enumerate() {
            doc.set(node, Toy(i as u64 * 37 + 2));
        }
        let bytes = encode_doc(&doc);
        let decoded: LabeledDoc<Toy> = decode_doc(&tree, &bytes).unwrap();
        assert_eq!(decoded.len(), doc.len());
        for node in tree.elements() {
            assert_eq!(decoded.label(node), doc.label(node));
        }
    }

    #[test]
    fn decoding_against_the_wrong_tree_is_detected() {
        let tree = parse("<a><b/><c/></a>").unwrap();
        let mut doc: LabeledDoc<Toy> = LabeledDoc::new(&tree);
        for node in tree.elements() {
            doc.set(node, Toy(7));
        }
        let bytes = encode_doc(&doc);
        let smaller = parse("<a/>").unwrap();
        let err = decode_doc::<Toy>(&smaller, &bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let tree = parse("<a/>").unwrap();
        let mut doc: LabeledDoc<Toy> = LabeledDoc::new(&tree);
        doc.set(tree.root(), Toy(3));
        let mut bytes = encode_doc(&doc);
        bytes.push(0xAA);
        let err = decode_doc::<Toy>(&tree, &bytes).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("trailing bytes"));
    }
}
