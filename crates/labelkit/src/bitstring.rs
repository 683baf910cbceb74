//! [`BitString`]: bit-packed variable-length binary strings.
//!
//! The prefix labeling schemes (\[7\], §2 of the paper) label nodes with binary
//! strings; the ancestor test is "is one label a proper prefix of the other",
//! and document order is prefix-respecting lexicographic order.

use std::cmp::Ordering;
use std::fmt;

/// A sequence of bits, packed 8 per byte, MSB-first within each byte.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bytes: Vec<u8>,
    len: usize,
}

impl BitString {
    /// The empty bit string.
    pub fn new() -> Self {
        BitString::default()
    }

    /// Parses a string of `'0'`/`'1'` characters (other characters panic) —
    /// test and doc convenience.
    ///
    /// # Panics
    /// Panics on characters other than `0` and `1`.
    pub fn from_bits(s: &str) -> Self {
        let mut out = BitString::new();
        for c in s.chars() {
            match c {
                '0' => out.push(false),
                '1' => out.push(true),
                c => panic!("invalid bit character {c:?}"),
            }
        }
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let byte_idx = self.len / 8;
        if byte_idx == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_idx] |= 0x80 >> (self.len % 8);
        }
        self.len += 1;
    }

    /// Bit at position `i` (0-indexed from the start).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        self.bytes[i / 8] & (0x80 >> (i % 8)) != 0
    }

    /// Appends all bits of `other`.
    pub fn extend_from(&mut self, other: &BitString) {
        // Fast path: byte-aligned append.
        if self.len % 8 == 0 {
            self.bytes.extend_from_slice(&other.bytes);
            self.len += other.len;
            // Clear any stale bits past the new length in the final byte.
            let tail_bits = self.len % 8;
            if tail_bits != 0 {
                let last = self.bytes.len() - 1;
                self.bytes[last] &= !(0xffu8 >> tail_bits);
            }
            return;
        }
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Returns `self ++ other` without mutating either.
    pub fn concat(&self, other: &BitString) -> BitString {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }

    /// `true` iff `self` is a **proper** prefix of `other` — the prefix
    /// schemes' ancestor test.
    pub fn is_proper_prefix_of(&self, other: &BitString) -> bool {
        self.len < other.len && (0..self.len).all(|i| self.get(i) == other.get(i))
    }

    /// Iterates the bits front to back.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Raw form for serialization: `(bit length, packed bytes)`.
    pub fn to_raw_parts(&self) -> (usize, &[u8]) {
        (self.len, &self.bytes)
    }

    /// Rebuilds from the raw form. Bits past `len` in the final byte are
    /// cleared so equality stays canonical.
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than `len` requires.
    pub fn from_raw_parts(len: usize, bytes: &[u8]) -> Self {
        assert!(bytes.len() >= len.div_ceil(8), "byte buffer too short for {len} bits");
        let mut bytes = bytes[..len.div_ceil(8)].to_vec();
        let tail_bits = len % 8;
        if tail_bits != 0 {
            let last = bytes.len() - 1;
            bytes[last] &= !(0xffu8 >> tail_bits);
        }
        BitString { bytes, len }
    }
}

impl PartialOrd for BitString {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitString {
    /// Prefix-respecting lexicographic order: a proper prefix sorts before
    /// its extensions. For prefix labels this is exactly preorder document
    /// order (parents precede children; siblings sort by self-label).
    fn cmp(&self, other: &Self) -> Ordering {
        let common = self.len.min(other.len);
        for i in 0..common {
            match (self.get(i), other.get(i)) {
                (false, true) => return Ordering::Less,
                (true, false) => return Ordering::Greater,
                _ => {}
            }
        }
        self.len.cmp(&other.len)
    }
}

macro_rules! fmt_bits {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for bit in self.iter() {
                f.write_str(if bit { "1" } else { "0" })?;
            }
            Ok(())
        }
    };
}

impl fmt::Debug for BitString {
    fmt_bits!();
}

impl fmt::Display for BitString {
    fmt_bits!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip() {
        let mut b = BitString::new();
        let pattern = [true, false, false, true, true, true, false, true, true, false];
        for &bit in &pattern {
            b.push(bit);
        }
        assert_eq!(b.len(), 10);
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(b.get(i), bit, "bit {i}");
        }
    }

    #[test]
    fn from_bits_and_display() {
        let b = BitString::from_bits("11010");
        assert_eq!(b.to_string(), "11010");
        assert_eq!(b.len(), 5);
        assert_eq!(BitString::from_bits("").len(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid bit character")]
    fn from_bits_rejects_garbage() {
        BitString::from_bits("10x");
    }

    #[test]
    fn concat_aligned_and_unaligned() {
        // Unaligned: 5 bits + 6 bits.
        let a = BitString::from_bits("11010");
        let c = a.concat(&BitString::from_bits("001101"));
        assert_eq!(c.to_string(), "11010001101");
        // Aligned: 8 bits + arbitrary.
        let mut d = BitString::from_bits("10110100");
        d.extend_from(&BitString::from_bits("111"));
        assert_eq!(d.to_string(), "10110100111");
    }

    #[test]
    fn proper_prefix_semantics() {
        let p = BitString::from_bits("110");
        assert!(p.is_proper_prefix_of(&BitString::from_bits("1101")));
        assert!(p.is_proper_prefix_of(&BitString::from_bits("110000")));
        assert!(!p.is_proper_prefix_of(&BitString::from_bits("110")), "not proper");
        assert!(!p.is_proper_prefix_of(&BitString::from_bits("111")));
        assert!(!p.is_proper_prefix_of(&BitString::from_bits("11")));
        assert!(BitString::new().is_proper_prefix_of(&p), "root prefixes everything");
    }

    #[test]
    fn ordering_is_prefix_respecting_lexicographic() {
        // The paper's §2 example labels: "2,11" vs "21,1" becomes, in CKM
        // binary terms, distinguishable; here just check the order law.
        let mut labels: Vec<BitString> =
            ["0", "10", "1100", "1101", "1110", "11110000", "", "01"]
                .iter()
                .map(|s| BitString::from_bits(s))
                .collect();
        labels.sort();
        let texts: Vec<String> = labels.iter().map(|b| b.to_string()).collect();
        assert_eq!(texts, ["", "0", "01", "10", "1100", "1101", "1110", "11110000"]);
    }

    #[test]
    fn prefix_sorts_before_extension() {
        let parent = BitString::from_bits("10");
        let child = BitString::from_bits("100");
        assert_eq!(parent.cmp(&child), Ordering::Less);
        assert_eq!(child.cmp(&parent), Ordering::Greater);
        assert_eq!(parent.cmp(&parent.clone()), Ordering::Equal);
    }

    #[test]
    fn stale_high_bits_do_not_leak_into_equality() {
        // Build "1" two ways: directly, and by pushing then comparing.
        let direct = BitString::from_bits("1");
        let built = BitString::from_bits("1");
        assert_eq!(direct, built);
        // Aligned extend clears trailing garbage.
        let mut a = BitString::from_bits("10110100");
        a.extend_from(&BitString::from_bits("1"));
        let mut b = BitString::from_bits("10110100");
        b.push(true);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitString::from_bits("10").get(2);
    }
}
