//! IPv6: the clue as a hop-by-hop option (7 bits of clue fit the same
//! option body; every router on the path may read and rewrite it).

use clue_core::ClueHeader;
use clue_trie::Ip6;

use crate::error::WireError;
use crate::option::{decode_clue_option, encode_clue_option_v6, CLUE_OPTION_KIND};

/// Protocol number of the hop-by-hop extension header.
pub const HOP_BY_HOP: u8 = 0;

/// A parsed (or to-be-serialized) IPv6 header, with an optional
/// hop-by-hop extension carrying the clue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Packet {
    /// Traffic class.
    pub traffic_class: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Payload length (everything after the fixed header).
    pub payload_length: u16,
    /// Next header after the clue extension (the transport protocol).
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ip6,
    /// Destination address.
    pub dst: Ip6,
    /// The clue, if one is attached.
    pub clue: ClueHeader,
}

impl Ipv6Packet {
    /// A minimal header for `src → dst` carrying `next_header`.
    pub fn new(src: Ip6, dst: Ip6, next_header: u8) -> Self {
        Ipv6Packet {
            traffic_class: 0,
            flow_label: 0,
            payload_length: 0,
            next_header,
            hop_limit: 64,
            src,
            dst,
            clue: ClueHeader::none(),
        }
    }

    /// Attaches (or replaces) the clue.
    pub fn with_clue(mut self, clue: ClueHeader) -> Self {
        self.clue = clue;
        self
    }

    /// Serializes the fixed header plus, when a clue is attached, a
    /// hop-by-hop extension holding the clue option (padded to the
    /// 8-byte granularity the extension requires).
    pub fn to_bytes(&self) -> Vec<u8> {
        let option = encode_clue_option_v6(&self.clue);
        let ext_len = if option.is_empty() { 0 } else { (2 + option.len()).div_ceil(8) * 8 };

        let mut out = vec![0u8; 40 + ext_len];
        out[0] = 0x60 | (self.traffic_class >> 4);
        out[1] = (self.traffic_class << 4) | ((self.flow_label >> 16) as u8 & 0x0F);
        out[2] = (self.flow_label >> 8) as u8;
        out[3] = self.flow_label as u8;
        let payload = self.payload_length.max(ext_len as u16);
        out[4..6].copy_from_slice(&payload.to_be_bytes());
        out[6] = if ext_len > 0 { HOP_BY_HOP } else { self.next_header };
        out[7] = self.hop_limit;
        out[8..24].copy_from_slice(&self.src.0.to_be_bytes());
        out[24..40].copy_from_slice(&self.dst.0.to_be_bytes());

        if ext_len > 0 {
            out[40] = self.next_header;
            out[41] = (ext_len / 8 - 1) as u8;
            out[42..42 + option.len()].copy_from_slice(&option);
            // Remaining bytes: PadN where needed. A run of zeros is Pad1
            // options, which is legal but wasteful; emit PadN properly.
            let pad = ext_len - 2 - option.len();
            if pad == 1 {
                out[42 + option.len()] = 0; // Pad1
            } else if pad >= 2 {
                out[42 + option.len()] = 1; // PadN
                out[43 + option.len()] = (pad - 2) as u8;
            }
        }
        out
    }

    /// Parses the fixed header and a leading hop-by-hop extension (if
    /// any), extracting the clue option.
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 40 {
            return Err(WireError::Truncated { needed: 40, got: bytes.len() });
        }
        let version = bytes[0] >> 4;
        if version != 6 {
            return Err(WireError::BadVersion(version));
        }
        let mut src = [0u8; 16];
        src.copy_from_slice(&bytes[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&bytes[24..40]);

        let mut pkt = Ipv6Packet {
            traffic_class: (bytes[0] << 4) | (bytes[1] >> 4),
            flow_label: ((bytes[1] as u32 & 0x0F) << 16)
                | ((bytes[2] as u32) << 8)
                | bytes[3] as u32,
            payload_length: u16::from_be_bytes([bytes[4], bytes[5]]),
            next_header: bytes[6],
            hop_limit: bytes[7],
            src: Ip6(u128::from_be_bytes(src)),
            dst: Ip6(u128::from_be_bytes(dst)),
            clue: ClueHeader::none(),
        };

        if pkt.next_header == HOP_BY_HOP {
            let ext = bytes.get(40..).ok_or(WireError::Truncated { needed: 42, got: bytes.len() })?;
            if ext.len() < 2 {
                return Err(WireError::Truncated { needed: 42, got: bytes.len() });
            }
            let ext_len = (ext[1] as usize + 1) * 8;
            if ext.len() < ext_len {
                return Err(WireError::Truncated { needed: 40 + ext_len, got: bytes.len() });
            }
            pkt.next_header = ext[0];
            let mut i = 2usize;
            while i < ext_len {
                match ext[i] {
                    0 => i += 1, // Pad1
                    1 => {
                        // PadN
                        let n = *ext.get(i + 1).ok_or(WireError::BadOption)? as usize;
                        i += 2 + n;
                    }
                    kind => {
                        let len = *ext.get(i + 1).ok_or(WireError::BadOption)? as usize;
                        if i + 2 + len > ext_len {
                            return Err(WireError::BadOption);
                        }
                        if kind == CLUE_OPTION_KIND {
                            pkt.clue = decode_clue_option::<Ip6>(&ext[i + 2..i + 2 + len])?;
                        }
                        i += 2 + len;
                    }
                }
            }
        }
        Ok(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Prefix;

    fn p6(s: &str) -> Prefix<Ip6> {
        s.parse().unwrap()
    }

    fn packet() -> Ipv6Packet {
        Ipv6Packet::new("2001:db8::1".parse().unwrap(), "2001:db8:1::42".parse().unwrap(), 6)
    }

    #[test]
    fn clueless_fixed_header_roundtrips() {
        let pkt = packet();
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), 40);
        let back = Ipv6Packet::parse(&bytes).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn clue_rides_a_hop_by_hop_extension() {
        let pkt = packet().with_clue(ClueHeader::with_clue(&p6("2001:db8:1::/48")));
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), 48, "one 8-byte extension unit");
        assert_eq!(bytes[6], HOP_BY_HOP);
        let back = Ipv6Packet::parse(&bytes).unwrap();
        assert_eq!(back.next_header, 6, "transport protocol restored");
        assert_eq!(back.clue.decode(pkt.dst), Some(p6("2001:db8:1::/48")));
    }

    #[test]
    fn seven_bit_clue_lengths_roundtrip() {
        for len in [1u8, 32, 48, 64, 127, 128] {
            let clue = Prefix::new(Ip6(0x2001_0db8 << 96), len.min(128));
            let pkt = packet().with_clue(ClueHeader::with_clue(&clue));
            let back = Ipv6Packet::parse(&pkt.to_bytes()).unwrap();
            assert_eq!(
                back.clue.decode(back.dst).map(|p| p.len()),
                Some(len),
                "length {len}"
            );
        }
    }

    #[test]
    fn indexed_clue_roundtrips() {
        let pkt = packet().with_clue(ClueHeader::with_indexed_clue(&p6("2001:db8::/32"), 4242));
        let back = Ipv6Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(back.clue.index, Some(4242));
    }

    #[test]
    fn flow_label_and_traffic_class_roundtrip() {
        let mut pkt = packet();
        pkt.traffic_class = 0xAB;
        pkt.flow_label = 0xF_1234;
        let back = Ipv6Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(back.traffic_class, 0xAB);
        assert_eq!(back.flow_label, 0xF_1234);
    }

    #[test]
    fn garbage_rejected_without_panic() {
        assert!(Ipv6Packet::parse(&[]).is_err());
        assert!(Ipv6Packet::parse(&[0x45; 40]).is_err()); // version 4
        let mut bytes = packet().with_clue(ClueHeader::with_clue(&p6("::/1"))).to_bytes();
        bytes.truncate(44); // cut inside the extension
        assert!(Ipv6Packet::parse(&bytes).is_err());
    }
}
