//! IPv4 header serialization with the clue carried as an option.

use clue_core::ClueHeader;
use clue_trie::Ip4;

use crate::error::WireError;
use crate::option::{
    clue_option_len, decode_clue_option, encode_clue_option_into, CLUE_OPTION_KIND,
};

/// A parsed (or to-be-serialized) IPv4 header.
///
/// Only header fields are modelled; the payload travels separately. The
/// clue rides in the options area as an experimental option, exactly the
/// deployment path Section 5.3 sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Differentiated services + ECN byte.
    pub(crate) dscp_ecn: u8,
    /// Total length (header + payload) in bytes.
    pub(crate) total_length: u16,
    /// Identification field.
    pub identification: u16,
    /// Flags (3 bits) and fragment offset (13 bits).
    pub(crate) flags_fragment: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Source address.
    pub src: Ip4,
    /// Destination address.
    pub dst: Ip4,
    /// The clue, if one is attached.
    pub clue: ClueHeader,
}

impl Ipv4Packet {
    /// A minimal header for `src → dst` carrying `protocol`.
    pub fn new(src: Ip4, dst: Ip4, protocol: u8) -> Self {
        Ipv4Packet {
            dscp_ecn: 0,
            total_length: 20,
            identification: 0,
            flags_fragment: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            clue: ClueHeader::none(),
        }
    }

    /// Attaches (or replaces) the clue option.
    pub fn with_clue(mut self, clue: ClueHeader) -> Self {
        self.clue = clue;
        self
    }

    /// Serializes the header, computing the checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let opt_len = clue_option_len(&self.clue);
        let padded_opt_len = opt_len.div_ceil(4) * 4;
        let ihl = 5 + padded_opt_len / 4;
        let header_len = ihl * 4;
        let total = self.total_length.max(header_len as u16);

        let mut out = vec![0u8; header_len];
        out[0] = 0x40 | ihl as u8;
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&total.to_be_bytes());
        out[4..6].copy_from_slice(&self.identification.to_be_bytes());
        out[6..8].copy_from_slice(&self.flags_fragment.to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.protocol;
        // checksum at [10..12] stays zero for the computation
        out[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        out[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        encode_clue_option_into(&self.clue, &mut out[20..])
            .expect("options area sized from clue_option_len");
        // Padding bytes (already zero) act as End-of-Options-List.

        let sum = checksum(&out);
        out[10..12].copy_from_slice(&sum.to_be_bytes());
        out
    }

    /// Parses and verifies a header, extracting the clue option if
    /// present. Unknown options are skipped (as a router must).
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 20 {
            return Err(WireError::Truncated { needed: 20, got: bytes.len() });
        }
        let version = bytes[0] >> 4;
        if version != 4 {
            return Err(WireError::BadVersion(version));
        }
        let ihl = bytes[0] & 0x0F;
        let header_len = ihl as usize * 4;
        if !(5..=15).contains(&ihl) {
            return Err(WireError::BadHeaderLength(ihl));
        }
        if bytes.len() < header_len {
            return Err(WireError::Truncated { needed: header_len, got: bytes.len() });
        }
        let header = &bytes[..header_len];
        let computed = checksum_skipping(header, 10);
        let found = u16::from_be_bytes([header[10], header[11]]);
        if computed != found {
            return Err(WireError::BadChecksum { found, computed });
        }

        let mut clue = ClueHeader::none();
        let mut i = 20usize;
        while i < header_len {
            match header[i] {
                0 => break, // End of Options List
                1 => i += 1, // No-Operation
                kind => {
                    let len = *header.get(i + 1).ok_or(WireError::BadOption)? as usize;
                    if len < 2 || i + len > header_len {
                        return Err(WireError::BadOption);
                    }
                    if kind == CLUE_OPTION_KIND {
                        clue = decode_clue_option::<Ip4>(&header[i + 2..i + len])?;
                    }
                    i += len;
                }
            }
        }

        Ok(Ipv4Packet {
            dscp_ecn: header[1],
            total_length: u16::from_be_bytes([header[2], header[3]]),
            identification: u16::from_be_bytes([header[4], header[5]]),
            flags_fragment: u16::from_be_bytes([header[6], header[7]]),
            ttl: header[8],
            protocol: header[9],
            src: Ip4(u32::from_be_bytes([header[12], header[13], header[14], header[15]])),
            dst: Ip4(u32::from_be_bytes([header[16], header[17], header[18], header[19]])),
            clue,
        })
    }
}

/// The Internet checksum over `data` (checksum field assumed zero).
pub fn checksum(data: &[u8]) -> u16 {
    checksum_skipping(data, usize::MAX)
}

/// Internet checksum treating the 2 bytes at `skip` as zero.
fn checksum_skipping(data: &[u8], skip: usize) -> u16 {
    let mut sum = 0u32;
    let mut i = 0;
    while i < data.len() {
        let word = if i == skip {
            0
        } else {
            let hi = data[i] as u32;
            let lo = if i + 1 < data.len() && i + 1 != skip { data[i + 1] as u32 } else { 0 };
            (hi << 8) | lo
        };
        sum += word;
        i += 2;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Prefix;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn packet() -> Ipv4Packet {
        Ipv4Packet::new("1.2.3.4".parse().unwrap(), "10.1.2.3".parse().unwrap(), 6)
    }

    #[test]
    fn clueless_header_is_20_bytes_and_roundtrips() {
        let pkt = packet();
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), 20);
        assert_eq!(bytes[0], 0x45);
        let back = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(back.src, pkt.src);
        assert_eq!(back.dst, pkt.dst);
        assert_eq!(back.clue, ClueHeader::none());
    }

    #[test]
    fn clued_header_roundtrips_with_padding() {
        let pkt = packet().with_clue(ClueHeader::with_clue(&p("10.1.0.0/16")));
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), 24, "3-byte option pads to one 4-byte word");
        let back = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(back.clue.decode(pkt.dst), Some(p("10.1.0.0/16")));
        assert_eq!(back.clue.index, None);
    }

    #[test]
    fn indexed_clue_roundtrips() {
        let pkt = packet().with_clue(ClueHeader::with_indexed_clue(&p("10.1.2.0/24"), 777));
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), 28, "5-byte option pads to two words");
        let back = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(back.clue.index, Some(777));
        assert_eq!(back.clue.decode(pkt.dst), Some(p("10.1.2.0/24")));
    }

    #[test]
    fn checksum_is_verified() {
        let mut bytes = packet().to_bytes();
        bytes[8] = bytes[8].wrapping_add(1); // corrupt the TTL
        assert!(matches!(Ipv4Packet::parse(&bytes), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn header_rewrite_mid_path_keeps_checksum_valid() {
        // A router replaces the clue and decrements the TTL, then
        // re-serializes: the next hop must still verify.
        let pkt = packet().with_clue(ClueHeader::with_clue(&p("10.0.0.0/8")));
        let hop1 = pkt.to_bytes();
        let mut at_router = Ipv4Packet::parse(&hop1).unwrap();
        at_router.ttl -= 1;
        at_router.clue = ClueHeader::with_clue(&p("10.1.2.0/24"));
        let hop2 = at_router.to_bytes();
        let at_next = Ipv4Packet::parse(&hop2).unwrap();
        assert_eq!(at_next.ttl, 63);
        assert_eq!(at_next.clue.decode(pkt.dst), Some(p("10.1.2.0/24")));
    }

    #[test]
    fn unknown_options_are_skipped() {
        // Hand-build a header with a NOP, an unknown option, then a clue.
        let pkt = packet().with_clue(ClueHeader::with_clue(&p("10.1.0.0/16")));
        let bytes = pkt.to_bytes();
        // Rebuild with a NOP + unknown option (kind 7, len 2) before the
        // clue option.
        let mut raw = bytes[..20].to_vec();
        raw[0] = 0x40 | 7; // ihl 7 = 28 bytes
        raw.extend_from_slice(&[1, 7, 2, CLUE_OPTION_KIND, 3, 15, 0, 0]);
        raw[10] = 0;
        raw[11] = 0;
        let sum = checksum(&raw);
        raw[10..12].copy_from_slice(&sum.to_be_bytes());
        let parsed = Ipv4Packet::parse(&raw).unwrap();
        assert_eq!(parsed.clue.decode(pkt.dst), Some(p("10.1.0.0/16")));
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(Ipv4Packet::parse(&[]).is_err());
        assert!(Ipv4Packet::parse(&[0x45; 10]).is_err());
        assert!(Ipv4Packet::parse(&[0x60; 20]).is_err()); // version 6
        assert!(Ipv4Packet::parse(&[0x42; 20]).is_err()); // ihl 2
    }

    #[test]
    fn rfc1071_checksum_example() {
        // From RFC 1071: 00 01 f2 03 f4 f5 f6 f7 → sum 0xddf2 → !0xddf2.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }
}
