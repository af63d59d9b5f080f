//! Prefixes: the strings stored in forwarding tables and sent as clues.

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;

use crate::addr::{Address, ParseAddressError};

/// A prefix of an address: the `len` leading bits of `bits`.
///
/// The stored address is always kept in canonical (masked) form, so two
/// prefixes compare equal iff they denote the same bit string.
///
/// ```
/// use clue_trie::{Ip4, Prefix};
/// let p: Prefix<Ip4> = "192.168.0.0/16".parse().unwrap();
/// assert_eq!(p.len(), 16);
/// assert!(p.contains("192.168.12.34".parse().unwrap()));
/// assert!(!p.contains("192.169.0.0".parse().unwrap()));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Prefix<A: Address> {
    bits: A,
    len: u8,
}

impl<A: Address> Prefix<A> {
    /// The empty prefix (length 0), which matches every address. It plays
    /// the role of the default route and of the trie root.
    pub const ROOT: Self = Prefix { bits: A::ZERO, len: 0 };

    /// Creates a prefix from an address and a length, masking away any bits
    /// beyond `len`.
    ///
    /// # Panics
    /// Panics if `len > A::BITS`.
    pub fn new(bits: A, len: u8) -> Self {
        assert!(len <= A::BITS, "prefix length {len} exceeds address width");
        Prefix { bits: bits.mask(len), len }
    }

    /// The canonical (masked) address carrying the prefix bits.
    #[inline]
    pub fn bits(&self) -> A {
        self.bits
    }

    /// The prefix length in bits.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` iff this is the empty (length-0) prefix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff `addr` starts with this prefix.
    #[inline]
    pub fn contains(&self, addr: A) -> bool {
        addr.mask(self.len) == self.bits
    }

    /// `true` iff `self` is a (non-strict) prefix of `other`.
    #[inline]
    pub fn is_prefix_of(&self, other: &Self) -> bool {
        self.len <= other.len && other.bits.mask(self.len) == self.bits
    }

    /// `true` iff `self` is a strict (shorter) prefix of `other`.
    #[inline]
    pub fn is_strict_prefix_of(&self, other: &Self) -> bool {
        self.len < other.len && other.bits.mask(self.len) == self.bits
    }

    /// The immediate parent (one bit shorter), or `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.bits, self.len - 1))
        }
    }

    /// The child prefix extended with the given bit.
    ///
    /// # Panics
    /// Panics if the prefix is already full-length.
    pub fn child(&self, bit: bool) -> Self {
        assert!(self.len < A::BITS, "cannot extend a full-length prefix");
        Prefix { bits: self.bits.with_bit(self.len, bit), len: self.len + 1 }
    }

    /// Bit `index` of the prefix (must be `< len`).
    #[inline]
    pub fn bit(&self, index: u8) -> bool {
        assert!(index < self.len, "bit index {index} beyond prefix length {}", self.len);
        self.bits.bit(index)
    }

    /// The last bit of the prefix (`None` for the root).
    pub(crate) fn last_bit(&self) -> Option<bool> {
        if self.len == 0 {
            None
        } else {
            Some(self.bits.bit(self.len - 1))
        }
    }

    /// Truncates to the first `len` bits.
    ///
    /// # Panics
    /// Panics if `len > self.len()`.
    pub fn truncate(&self, len: u8) -> Self {
        assert!(len <= self.len, "cannot truncate {self} to longer length {len}");
        Prefix::new(self.bits, len)
    }

    /// The longest common prefix of two prefixes.
    pub fn common(&self, other: &Self) -> Self {
        let l = self
            .bits
            .common_prefix_len(other.bits)
            .min(self.len)
            .min(other.len);
        Prefix::new(self.bits, l)
    }

    /// The prefix formed by the first `len` bits of `addr`.
    pub fn of_address(addr: A, len: u8) -> Self {
        Prefix::new(addr, len)
    }

    /// Smallest address covered by this prefix (the canonical bits).
    #[inline]
    pub fn first_address(&self) -> A {
        self.bits
    }

    /// Largest address covered by this prefix (all trailing bits set).
    pub fn last_address(&self) -> A {
        let width = A::BITS as u32;
        let span = (A::BITS - self.len) as u32;
        let hi = self.bits.to_u128();
        let fill = if span == 0 {
            0
        } else if span == width {
            // Whole address space: avoid the shift-overflow corner.
            u128::MAX >> (128 - width)
        } else {
            (1u128 << span) - 1
        };
        A::from_u128(hi | fill)
    }

    /// `true` iff the two prefixes are disjoint (neither contains the other).
    pub fn is_disjoint(&self, other: &Self) -> bool {
        !self.is_prefix_of(other) && !other.is_prefix_of(self)
    }
}

/// Prefixes order first by bits, then by length — i.e. lexicographic order
/// of the underlying bit strings with shorter strings first among equals.
/// This is the order used by range-based binary search schemes.
impl<A: Address> Ord for Prefix<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits
            .cmp(&other.bits)
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl<A: Address> PartialOrd for Prefix<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<A: Address> fmt::Display for Prefix<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.bits, self.len)
    }
}

impl<A: Address> fmt::Debug for Prefix<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl<A: Address + FromStr<Err = ParseAddressError>> FromStr for Prefix<A> {
    type Err = ParseAddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseAddressError { input: s.to_owned(), reason };
        let (addr, len) = match s.rsplit_once('/') {
            Some((a, l)) => {
                let len: u8 = l.parse().map_err(|_| err("bad prefix length"))?;
                (a, len)
            }
            None => (s, A::BITS),
        };
        if len > A::BITS {
            return Err(err("prefix length exceeds address width"));
        }
        let bits: A = addr.parse()?;
        Ok(Prefix::new(bits, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ip4, Ip6};

    fn p4(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    #[test]
    fn canonical_masking() {
        let p = Prefix::new(Ip4(0xC0A8_1234), 16);
        assert_eq!(p.bits(), Ip4(0xC0A8_0000));
        assert_eq!(p, p4("192.168.18.52/16"));
    }

    #[test]
    fn containment() {
        let p = p4("10.0.0.0/8");
        assert!(p.contains(Ip4(0x0A01_0203)));
        assert!(!p.contains(Ip4(0x0B00_0000)));
        assert!(Prefix::<Ip4>::ROOT.contains(Ip4(u32::MAX)));
    }

    #[test]
    fn prefix_of_relations() {
        let a = p4("10.0.0.0/8");
        let b = p4("10.1.0.0/16");
        assert!(a.is_prefix_of(&b));
        assert!(a.is_strict_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(!a.is_strict_prefix_of(&a));
        assert!(a.is_disjoint(&p4("11.0.0.0/8")));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn parent_child_roundtrip() {
        let p = p4("128.0.0.0/1");
        assert_eq!(p.parent(), Some(Prefix::ROOT));
        assert_eq!(Prefix::<Ip4>::ROOT.child(true), p);
        assert_eq!(p.child(false), p4("128.0.0.0/2"));
        assert_eq!(p.last_bit(), Some(true));
        assert_eq!(Prefix::<Ip4>::ROOT.last_bit(), None);
    }

    #[test]
    fn truncate_and_common() {
        let p = p4("192.168.128.0/20");
        assert_eq!(p.truncate(16), p4("192.168.0.0/16"));
        let q = p4("192.168.0.0/24");
        // p has bit 16 set (128.0 in the third octet), q does not.
        assert_eq!(p.common(&q), p4("192.168.0.0/16"));
        let r = p4("192.168.192.0/24");
        // 128 = 0b1000_0000 and 192 = 0b1100_0000 agree only on bit 16.
        assert_eq!(p.common(&r), p4("192.168.128.0/17"));
    }

    #[test]
    fn address_range() {
        let p = p4("10.0.0.0/8");
        assert_eq!(p.first_address(), Ip4(0x0A00_0000));
        assert_eq!(p.last_address(), Ip4(0x0AFF_FFFF));
        assert_eq!(Prefix::<Ip4>::ROOT.last_address(), Ip4(u32::MAX));
        let h = p4("1.2.3.4/32");
        assert_eq!(h.first_address(), h.last_address());
    }

    #[test]
    fn range_for_ip6_root() {
        assert_eq!(Prefix::<Ip6>::ROOT.last_address(), Ip6(u128::MAX));
    }

    #[test]
    fn ordering_is_bits_then_length() {
        let mut v = vec![p4("10.0.0.0/16"), p4("10.0.0.0/8"), p4("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p4("9.0.0.0/8"), p4("10.0.0.0/8"), p4("10.0.0.0/16")]);
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            assert_eq!(p4(s).to_string(), s);
        }
        let bare: Prefix<Ip4> = "1.2.3.4".parse().unwrap();
        assert_eq!(bare.len(), 32);
        assert!("1.2.3.4/33".parse::<Prefix<Ip4>>().is_err());
    }

    #[test]
    fn ip6_prefix_basics() {
        let p: Prefix<Ip6> = "2001:db8::/32".parse().unwrap();
        assert!(p.contains("2001:db8::1".parse().unwrap()));
        assert!(!p.contains("2001:db9::1".parse().unwrap()));
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn child_of_full_length_panics() {
        let _ = p4("1.2.3.4/32").child(false);
    }
}
