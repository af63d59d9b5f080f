//! The clue itself: what a router piggybacks on a forwarded packet.
//!
//! The clue is the best matching prefix the upstream router found for the
//! packet's destination. Because that prefix is *by definition* a prefix
//! of the destination address already present in the header, it is encoded
//! as nothing but a length: 5 bits suffice for IPv4 (lengths `1..=32`
//! encoded as `len − 1`), 7 bits for IPv6 (Section 3 of the paper).
//!
//! With the **indexing technique** (Section 3.3.1) the sender additionally
//! stamps a 16-bit per-neighbor index, letting the receiver skip the hash
//! function at the price of header space.

use core::fmt;

use clue_trie::{Address, Prefix};

/// The wire form of a clue: `W = 5` (IPv4) or `7` (IPv6) bits carrying
/// `prefix_len - 1`.
///
/// A zero-length clue (the upstream router matched nothing, or does not
/// participate) is represented by *absence* — [`ClueHeader::none`] — since
/// a clue that carries no information is simply not attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodedClue(u8);

impl EncodedClue {
    /// Encodes a best-matching-prefix as a clue.
    ///
    /// Returns `None` for the empty prefix: a zero-length BMP (default
    /// route) tells the next router nothing, so no clue is attached.
    pub(crate) fn encode<A: Address>(bmp: &Prefix<A>) -> Option<Self> {
        if bmp.is_empty() {
            None
        } else {
            Some(EncodedClue(bmp.len() - 1))
        }
    }

    /// Decodes against the destination address found in the same header.
    pub(crate) fn decode<A: Address>(self, destination: A) -> Prefix<A> {
        Prefix::of_address(destination, self.prefix_len::<A>())
    }

    /// The prefix length this clue denotes.
    pub(crate) fn prefix_len<A: Address>(self) -> u8 {
        debug_assert!(self.0 < A::BITS, "encoded clue out of range for this family");
        self.0 + 1
    }

    /// The raw on-the-wire value (`prefix_len - 1`).
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Builds from a raw wire value, validating the range for family `A`.
    pub fn from_raw<A: Address>(raw: u8) -> Option<Self> {
        if raw < A::BITS {
            Some(EncodedClue(raw))
        } else {
            None
        }
    }
}

/// The clue-related fields a participating router writes into the packet
/// header: the encoded clue, plus (with the indexing technique) the 16-bit
/// per-neighbor clue index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClueHeader {
    /// The encoded clue, if the sender attached one.
    pub clue: Option<EncodedClue>,
    /// The sender-assigned sequential index of this clue (Section 3.3.1's
    /// indexing technique); `None` when the hash-table technique is used.
    pub index: Option<u16>,
}

impl ClueHeader {
    /// A header with no clue (non-participating sender, Section 5.3).
    pub fn none() -> Self {
        ClueHeader::default()
    }

    /// A header carrying the given BMP as a clue (hash-table technique).
    pub fn with_clue<A: Address>(bmp: &Prefix<A>) -> Self {
        ClueHeader { clue: EncodedClue::encode(bmp), index: None }
    }

    /// A header carrying the BMP plus its sender-assigned index
    /// (indexing technique).
    pub fn with_indexed_clue<A: Address>(bmp: &Prefix<A>, index: u16) -> Self {
        ClueHeader { clue: EncodedClue::encode(bmp), index: Some(index) }
    }

    /// Decodes the clue against the destination, if one is attached.
    pub fn decode<A: Address>(&self, destination: A) -> Option<Prefix<A>> {
        self.clue.map(|c| c.decode(destination))
    }

}

impl fmt::Display for ClueHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.clue, self.index) {
            (None, _) => write!(f, "no-clue"),
            (Some(c), None) => write!(f, "clue(len={})", c.raw() + 1),
            (Some(c), Some(i)) => write!(f, "clue(len={}, idx={})", c.raw() + 1, i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::{Ip4, Ip6};

    fn p4(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dest: Ip4 = "192.168.77.3".parse().unwrap();
        for len in 1..=32u8 {
            let bmp = Prefix::of_address(dest, len);
            let enc = EncodedClue::encode(&bmp).unwrap();
            assert_eq!(enc.decode(dest), bmp, "len {len}");
            assert_eq!(enc.prefix_len::<Ip4>(), len);
        }
    }

    #[test]
    fn empty_prefix_is_no_clue() {
        assert_eq!(EncodedClue::encode(&Prefix::<Ip4>::ROOT), None);
        assert_eq!(ClueHeader::with_clue(&Prefix::<Ip4>::ROOT), ClueHeader::none());
    }

    #[test]
    fn raw_range_validation() {
        assert!(EncodedClue::from_raw::<Ip4>(31).is_some());
        assert!(EncodedClue::from_raw::<Ip4>(32).is_none());
        assert!(EncodedClue::from_raw::<Ip6>(127).is_some());
        assert!(EncodedClue::from_raw::<Ip6>(128).is_none());
    }

    #[test]
    fn clue_fits_in_5_bits_for_ipv4() {
        // Every IPv4 clue must fit the paper's 5-bit budget.
        for len in 1..=32u8 {
            let bmp = Prefix::new(Ip4(0), len);
            let raw = EncodedClue::encode(&bmp).unwrap().raw();
            assert!(raw < 32, "raw {raw} does not fit 5 bits");
        }
        assert_eq!(Ip4::CLUE_BITS, 5);
        assert_eq!(Ip6::CLUE_BITS, 7);
    }

    #[test]
    fn decode_against_destination() {
        let dest: Ip4 = "10.1.2.3".parse().unwrap();
        let h = ClueHeader::with_clue(&p4("10.1.0.0/16"));
        assert_eq!(h.decode(dest), Some(p4("10.1.0.0/16")));
        assert_eq!(ClueHeader::none().decode(dest), None);
    }

    #[test]
    fn display_formats() {
        let dest = p4("10.1.0.0/16");
        assert_eq!(ClueHeader::with_clue(&dest).to_string(), "clue(len=16)");
        assert_eq!(ClueHeader::none().to_string(), "no-clue");
    }
}
