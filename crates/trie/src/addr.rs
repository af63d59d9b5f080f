//! Address families.
//!
//! Everything in this workspace is generic over an [`Address`]: a fixed-width
//! bit string read most-significant-bit first, exactly the way an IP
//! destination address is consumed by a longest-prefix-match. Two concrete
//! families are provided: [`Ip4`] (32 bits) and [`Ip6`] (128 bits).
//!
//! The paper encodes a clue as a *pointer into the destination address*: the
//! number of leading bits of the destination that form the upstream router's
//! best matching prefix. That number needs 5 bits for IPv4 and 7 bits for
//! IPv6 (lengths `1..=W` encoded as `len - 1`); the per-family constant is
//! [`Address::CLUE_BITS`].

use core::fmt;
use core::hash::Hash;
use core::str::FromStr;

/// A fixed-width address, treated as a bit string indexed from the most
/// significant bit (index 0) to the least significant (index `BITS - 1`).
///
/// Implementations must be cheap to copy; all trie and lookup structures
/// store addresses by value.
pub trait Address:
    Copy + Clone + Eq + Ord + Hash + fmt::Debug + fmt::Display + Send + Sync + 'static
{
    /// Width of the address in bits (32 for IPv4, 128 for IPv6).
    const BITS: u8;

    /// Number of header bits needed to encode a clue (a prefix length in
    /// `1..=BITS`, encoded as `len - 1`): 5 for IPv4, 7 for IPv6.
    const CLUE_BITS: u8;

    /// The all-zero address.
    const ZERO: Self;

    /// Returns bit `index`, where index 0 is the most significant bit.
    ///
    /// # Panics
    /// Panics if `index >= Self::BITS`.
    fn bit(self, index: u8) -> bool;

    /// Returns a copy of `self` with bit `index` set to `value`.
    ///
    /// # Panics
    /// Panics if `index >= Self::BITS`.
    fn with_bit(self, index: u8, value: bool) -> Self;

    /// Keeps the `len` most significant bits and zeroes the rest.
    ///
    /// # Panics
    /// Panics if `len > Self::BITS`.
    fn mask(self, len: u8) -> Self;

    /// Builds an address from the low `BITS` bits of `value`
    /// (the bit at position `BITS - 1` of `value` becomes the MSB).
    fn from_u128(value: u128) -> Self;

    /// The address as an unsigned integer in the low `BITS` bits.
    fn to_u128(self) -> u128;

    /// Length of the longest common prefix of `self` and `other`, in bits
    /// (`0..=BITS`).
    fn common_prefix_len(self, other: Self) -> u8;
}

/// A 32-bit IPv4 address.
///
/// Stored as a plain `u32` in network bit order (MSB = first bit on the
/// wire). Displays in dotted-quad notation and parses from it.
///
/// ```
/// use clue_trie::{Address, Ip4};
/// let a: Ip4 = "192.168.0.1".parse().unwrap();
/// assert_eq!(a.to_u128(), 0xC0A8_0001);
/// assert!(a.bit(0)); // 192 = 0b1100_0000
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip4(pub u32);

/// A 128-bit IPv6 address.
///
/// Stored as a plain `u128`. Displays in RFC 5952 canonical form (the
/// longest zero run compressed with `::`) and parses from full or
/// compressed notation.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip6(pub u128);

impl Address for Ip4 {
    const BITS: u8 = 32;
    const CLUE_BITS: u8 = 5;
    const ZERO: Self = Ip4(0);

    #[inline]
    fn bit(self, index: u8) -> bool {
        assert!(index < Self::BITS, "bit index {index} out of range for Ip4");
        (self.0 >> (31 - index)) & 1 == 1
    }

    #[inline]
    fn with_bit(self, index: u8, value: bool) -> Self {
        assert!(index < Self::BITS, "bit index {index} out of range for Ip4");
        let m = 1u32 << (31 - index);
        Ip4(if value { self.0 | m } else { self.0 & !m })
    }

    #[inline]
    fn mask(self, len: u8) -> Self {
        assert!(len <= Self::BITS, "mask length {len} out of range for Ip4");
        if len == 0 {
            Ip4(0)
        } else {
            Ip4(self.0 & (u32::MAX << (32 - len)))
        }
    }

    #[inline]
    fn from_u128(value: u128) -> Self {
        Ip4(value as u32)
    }

    #[inline]
    fn to_u128(self) -> u128 {
        self.0 as u128
    }

    #[inline]
    fn common_prefix_len(self, other: Self) -> u8 {
        (self.0 ^ other.0).leading_zeros().min(32) as u8
    }
}

impl Address for Ip6 {
    const BITS: u8 = 128;
    const CLUE_BITS: u8 = 7;
    const ZERO: Self = Ip6(0);

    #[inline]
    fn bit(self, index: u8) -> bool {
        assert!(index < Self::BITS, "bit index {index} out of range for Ip6");
        (self.0 >> (127 - index)) & 1 == 1
    }

    #[inline]
    fn with_bit(self, index: u8, value: bool) -> Self {
        assert!(index < Self::BITS, "bit index {index} out of range for Ip6");
        let m = 1u128 << (127 - index);
        Ip6(if value { self.0 | m } else { self.0 & !m })
    }

    #[inline]
    fn mask(self, len: u8) -> Self {
        assert!(len <= Self::BITS, "mask length {len} out of range for Ip6");
        if len == 0 {
            Ip6(0)
        } else {
            Ip6(self.0 & (u128::MAX << (128 - len)))
        }
    }

    #[inline]
    fn from_u128(value: u128) -> Self {
        Ip6(value)
    }

    #[inline]
    fn to_u128(self) -> u128 {
        self.0
    }

    #[inline]
    fn common_prefix_len(self, other: Self) -> u8 {
        (self.0 ^ other.0).leading_zeros().min(128) as u8
    }
}

impl fmt::Display for Ip4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ip4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ip4({self})")
    }
}

impl fmt::Display for Ip6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let groups: [u16; 8] = core::array::from_fn(|i| (self.0 >> (112 - 16 * i)) as u16);
        // RFC 5952: compress the longest run of zero groups (length ≥ 2,
        // leftmost on ties) with `::`.
        let (mut best_start, mut best_len) = (0usize, 0usize);
        let mut i = 0;
        while i < 8 {
            if groups[i] == 0 {
                let start = i;
                while i < 8 && groups[i] == 0 {
                    i += 1;
                }
                if i - start > best_len {
                    best_start = start;
                    best_len = i - start;
                }
            } else {
                i += 1;
            }
        }
        if best_len < 2 {
            for (i, g) in groups.iter().enumerate() {
                if i > 0 {
                    write!(f, ":")?;
                }
                write!(f, "{g:x}")?;
            }
            return Ok(());
        }
        for (i, g) in groups.iter().enumerate().take(best_start) {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{g:x}")?;
        }
        write!(f, "::")?;
        for (i, g) in groups.iter().enumerate().skip(best_start + best_len) {
            if i > best_start + best_len {
                write!(f, ":")?;
            }
            write!(f, "{g:x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Ip6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ip6({self})")
    }
}

/// Error returned when parsing an address or prefix from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddressError {
    /// The text that failed to parse.
    pub(crate) input: String,
    /// Human-readable reason.
    pub(crate) reason: &'static str,
}

impl fmt::Display for ParseAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseAddressError {}

impl FromStr for Ip4 {
    type Err = ParseAddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseAddressError { input: s.to_owned(), reason };
        let mut parts = s.split('.');
        let mut bytes = [0u8; 4];
        for slot in &mut bytes {
            let part = parts.next().ok_or_else(|| err("expected four dotted octets"))?;
            *slot = part.parse().map_err(|_| err("octet out of range"))?;
        }
        if parts.next().is_some() {
            return Err(err("too many octets"));
        }
        Ok(Ip4(u32::from_be_bytes(bytes)))
    }
}

impl FromStr for Ip6 {
    type Err = ParseAddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseAddressError { input: s.to_owned(), reason };
        let parse_groups = |txt: &str| -> Result<Vec<u16>, ParseAddressError> {
            if txt.is_empty() {
                return Ok(Vec::new());
            }
            txt.split(':')
                .map(|g| u16::from_str_radix(g, 16).map_err(|_| err("bad hex group")))
                .collect()
        };
        let groups: Vec<u16> = match s.find("::") {
            Some(pos) => {
                let head = parse_groups(&s[..pos])?;
                let tail = parse_groups(&s[pos + 2..])?;
                if head.len() + tail.len() > 7 {
                    return Err(err("'::' must elide at least one group"));
                }
                let mut all = head;
                all.resize(8 - tail.len(), 0);
                all.extend(tail);
                all
            }
            None => parse_groups(s)?,
        };
        if groups.len() != 8 {
            return Err(err("expected eight groups"));
        }
        let mut v: u128 = 0;
        for g in groups {
            v = (v << 16) | g as u128;
        }
        Ok(Ip6(v))
    }
}

impl From<[u8; 4]> for Ip4 {
    fn from(b: [u8; 4]) -> Self {
        Ip4(u32::from_be_bytes(b))
    }
}

impl From<u32> for Ip4 {
    fn from(v: u32) -> Self {
        Ip4(v)
    }
}

impl From<u128> for Ip6 {
    fn from(v: u128) -> Self {
        Ip6(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip4_bit_indexing_is_msb_first() {
        let a = Ip4(0x8000_0001);
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(!a.bit(30));
        assert!(a.bit(31));
    }

    #[test]
    fn ip4_with_bit_roundtrip() {
        let mut a = Ip4::ZERO;
        a = a.with_bit(0, true);
        a = a.with_bit(31, true);
        assert_eq!(a, Ip4(0x8000_0001));
        a = a.with_bit(0, false);
        assert_eq!(a, Ip4(0x0000_0001));
    }

    #[test]
    fn ip4_mask() {
        let a = Ip4(0xFFFF_FFFF);
        assert_eq!(a.mask(0), Ip4(0));
        assert_eq!(a.mask(8), Ip4(0xFF00_0000));
        assert_eq!(a.mask(32), a);
    }

    #[test]
    fn ip4_common_prefix_len() {
        assert_eq!(Ip4(0).common_prefix_len(Ip4(0)), 32);
        assert_eq!(Ip4(0x8000_0000).common_prefix_len(Ip4(0)), 0);
        assert_eq!(Ip4(0xC0A8_0000).common_prefix_len(Ip4(0xC0A8_FFFF)), 16);
    }

    #[test]
    fn ip4_display_and_parse() {
        let a: Ip4 = "10.1.2.3".parse().unwrap();
        assert_eq!(a.to_string(), "10.1.2.3");
        assert!("10.1.2".parse::<Ip4>().is_err());
        assert!("10.1.2.3.4".parse::<Ip4>().is_err());
        assert!("10.1.2.256".parse::<Ip4>().is_err());
    }

    #[test]
    fn ip6_bit_indexing_is_msb_first() {
        let a = Ip6(1u128 << 127 | 1);
        assert!(a.bit(0));
        assert!(a.bit(127));
        assert!(!a.bit(64));
    }

    #[test]
    fn ip6_mask_and_common_prefix() {
        let a = Ip6(u128::MAX);
        assert_eq!(a.mask(0), Ip6(0));
        assert_eq!(a.mask(64), Ip6(u128::MAX << 64));
        assert_eq!(Ip6(0).common_prefix_len(Ip6(0)), 128);
        assert_eq!(Ip6(1).common_prefix_len(Ip6(0)), 127);
    }

    #[test]
    fn ip6_parse_full_and_compressed() {
        let a: Ip6 = "2001:db8:0:0:0:0:0:1".parse().unwrap();
        let b: Ip6 = "2001:db8::1".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_u128() >> 96, 0x2001_0db8);
        assert!("::1::2".parse::<Ip6>().is_err());
        assert!("1:2:3".parse::<Ip6>().is_err());
    }

    #[test]
    fn ip6_display_roundtrip() {
        let a = Ip6(0x2001_0db8_0000_0000_0000_0000_0000_0001);
        let s = a.to_string();
        assert_eq!(s, "2001:db8::1");
        let back: Ip6 = s.parse().unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn ip6_display_compression_rules() {
        assert_eq!(Ip6(0).to_string(), "::");
        assert_eq!(Ip6(1).to_string(), "::1");
        assert_eq!(Ip6(1u128 << 112).to_string(), "1::");
        // Longest run wins; leftmost on ties.
        let a: Ip6 = "1:0:0:2:0:0:0:3".parse().unwrap();
        assert_eq!(a.to_string(), "1:0:0:2::3");
        let b: Ip6 = "1:0:0:2:3:0:0:4".parse().unwrap();
        assert_eq!(b.to_string(), "1::2:3:0:0:4");
        // A single zero group is not compressed.
        let c: Ip6 = "1:0:2:3:4:5:6:7".parse().unwrap();
        assert_eq!(c.to_string(), "1:0:2:3:4:5:6:7");
    }

    #[test]
    fn ip6_display_parse_roundtrip_fuzzish() {
        for v in [
            0u128,
            1,
            u128::MAX,
            0x2001_0db8_0000_0000_0000_0000_0000_0001,
            0x0000_0000_ffff_0000_0000_0000_0000_1234,
        ] {
            let a = Ip6(v);
            let back: Ip6 = a.to_string().parse().unwrap();
            assert_eq!(a, back, "value {v:#x}");
        }
    }

    #[test]
    fn from_u128_truncates_for_ip4() {
        let a = Ip4::from_u128(0x1_FFFF_FFFF);
        assert_eq!(a, Ip4(0xFFFF_FFFF));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ip4_bit_out_of_range_panics() {
        let _ = Ip4::ZERO.bit(32);
    }
}
