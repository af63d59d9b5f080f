//! The clue as an IP option — Section 5.3: “it is quite possible that
//! the 5 bits find their place in the current IP header, e.g., in the
//! options field”.
//!
//! Layout (an RFC 4727-style experimental option, kind 94):
//!
//! ```text
//! +--------+--------+--------+ - - - - - - - - -+
//! |  kind  | length |  clue  |  index (16 bits) |
//! |  0x5E  | 3 or 5 | 5 bits |  optional        |
//! +--------+--------+--------+ - - - - - - - - -+
//! ```
//!
//! * `clue` — the encoded prefix length (`len − 1`, 5 bits for IPv4,
//!   7 for IPv6); the upper bit 7 flags the presence of the index;
//! * `index` — the paper's 16-bit indexing-technique slot, big-endian.

use clue_core::{ClueHeader, EncodedClue};
use clue_trie::Address;

use crate::error::WireError;

/// The experimental option kind used for clues (RFC 4727 value).
pub(crate) const CLUE_OPTION_KIND: u8 = 0x5E;

/// Flag bit marking that a 16-bit index follows the clue byte.
const INDEX_FLAG: u8 = 0x80;

/// The largest encoded clue option: kind + length + clue byte + 16-bit
/// index. A stack buffer of this size always fits the `_into` encoders.
pub(crate) const MAX_CLUE_OPTION_LEN: usize = 5;

/// Length in bytes the encoded option for `header` will occupy (zero
/// when no clue is attached).
pub(crate) fn clue_option_len(header: &ClueHeader) -> usize {
    match (header.clue, header.index) {
        (None, _) => 0,
        (Some(_), None) => 3,
        (Some(_), Some(_)) => 5,
    }
}

/// Serializes a clue header into IPv4 option bytes, where the length
/// byte covers the whole option (kind + length + data). Empty when no
/// clue is attached — an absent clue is simply no option.
#[cfg(test)]
pub(crate) fn encode_clue_option(header: &ClueHeader) -> Vec<u8> {
    let mut buf = [0u8; MAX_CLUE_OPTION_LEN];
    let n = encode_clue_option_into(header, &mut buf).expect("buffer fits the largest option");
    buf[..n].to_vec()
}

/// Serializes a clue header into IPv6 option bytes, where the length
/// byte covers the data only (the IPv6 options convention).
pub(crate) fn encode_clue_option_v6(header: &ClueHeader) -> Vec<u8> {
    let mut buf = [0u8; MAX_CLUE_OPTION_LEN];
    let n = encode_clue_option_v6_into(header, &mut buf).expect("buffer fits the largest option");
    buf[..n].to_vec()
}

/// Writes the IPv4-convention clue option into a caller-provided buffer
/// and returns the number of bytes written (zero when no clue is
/// attached). Fails with [`WireError::Truncated`] when `buf` is shorter
/// than the encoded option; nothing is written in that case.
pub(crate) fn encode_clue_option_into(header: &ClueHeader, buf: &mut [u8]) -> Result<usize, WireError> {
    write_option(header, buf, true)
}

/// [`encode_clue_option_into`] with the IPv6 length convention (the
/// length byte covers the data only).
pub(crate) fn encode_clue_option_v6_into(
    header: &ClueHeader,
    buf: &mut [u8],
) -> Result<usize, WireError> {
    write_option(header, buf, false)
}

/// Shared encoder: kind, length (whole-option or data-only convention),
/// clue byte, optional big-endian index.
fn write_option(
    header: &ClueHeader,
    buf: &mut [u8],
    length_covers_option: bool,
) -> Result<usize, WireError> {
    let Some(clue) = header.clue else {
        return Ok(0);
    };
    let needed = clue_option_len(header);
    if buf.len() < needed {
        return Err(WireError::Truncated { needed, got: buf.len() });
    }
    let body_len = needed - 2;
    buf[0] = CLUE_OPTION_KIND;
    buf[1] = if length_covers_option { needed as u8 } else { body_len as u8 };
    match header.index {
        None => buf[2] = clue.raw(),
        Some(ix) => {
            buf[2] = clue.raw() | INDEX_FLAG;
            buf[3..5].copy_from_slice(&ix.to_be_bytes());
        }
    }
    Ok(needed)
}

/// Parses a clue option body (the bytes after kind+length have been
/// located by the header parser). `body` excludes kind and length.
pub fn decode_clue_option<A: Address>(body: &[u8]) -> Result<ClueHeader, WireError> {
    let &first = body.first().ok_or(WireError::BadOption)?;
    let has_index = first & INDEX_FLAG != 0;
    let raw = first & !INDEX_FLAG;
    let clue = EncodedClue::from_raw::<A>(raw).ok_or(WireError::BadClue)?;
    let index = if has_index {
        let hi = *body.get(1).ok_or(WireError::BadOption)?;
        let lo = *body.get(2).ok_or(WireError::BadOption)?;
        Some(u16::from_be_bytes([hi, lo]))
    } else {
        if body.len() != 1 {
            return Err(WireError::BadOption);
        }
        None
    };
    Ok(ClueHeader { clue: Some(clue), index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::{Ip4, Ip6, Prefix};

    fn p4(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip_without_index() {
        let h = ClueHeader::with_clue(&p4("10.1.0.0/16"));
        let bytes = encode_clue_option(&h);
        assert_eq!(bytes, vec![CLUE_OPTION_KIND, 3, 15]);
        let back = decode_clue_option::<Ip4>(&bytes[2..]).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn roundtrip_with_index() {
        let h = ClueHeader::with_indexed_clue(&p4("10.1.2.0/24"), 0xBEEF);
        let bytes = encode_clue_option(&h);
        assert_eq!(bytes.len(), 5);
        assert_eq!(bytes[1], 5);
        let back = decode_clue_option::<Ip4>(&bytes[2..]).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn no_clue_is_no_option() {
        assert!(encode_clue_option(&ClueHeader::none()).is_empty());
    }

    #[test]
    fn out_of_range_clue_rejected_for_ipv4() {
        // raw 32 means length 33: invalid for IPv4…
        assert_eq!(decode_clue_option::<Ip4>(&[32]), Err(WireError::BadClue));
        // …but fine for IPv6.
        assert!(decode_clue_option::<Ip6>(&[32]).is_ok());
    }

    #[test]
    fn truncated_and_oversized_bodies_rejected() {
        assert_eq!(decode_clue_option::<Ip4>(&[]), Err(WireError::BadOption));
        assert_eq!(decode_clue_option::<Ip4>(&[INDEX_FLAG | 3, 0]), Err(WireError::BadOption));
        assert_eq!(decode_clue_option::<Ip4>(&[3, 0]), Err(WireError::BadOption));
    }

    #[test]
    fn write_into_matches_the_vec_encoders() {
        for h in [
            ClueHeader::none(),
            ClueHeader::with_clue(&p4("10.1.0.0/16")),
            ClueHeader::with_indexed_clue(&p4("10.1.2.0/24"), 0xBEEF),
        ] {
            let mut buf = [0xAAu8; MAX_CLUE_OPTION_LEN + 2];
            let n = encode_clue_option_into(&h, &mut buf).unwrap();
            assert_eq!(n, clue_option_len(&h));
            assert_eq!(buf[..n], encode_clue_option(&h)[..]);
            assert!(buf[n..].iter().all(|&b| b == 0xAA), "wrote past the option");
            if n > 0 {
                let back = decode_clue_option::<Ip4>(&buf[2..n]).unwrap();
                assert_eq!(back, h);
            }

            let n6 = encode_clue_option_v6_into(&h, &mut buf).unwrap();
            assert_eq!(buf[..n6], encode_clue_option_v6(&h)[..]);
        }
    }

    #[test]
    fn write_into_reports_the_needed_size_on_short_buffers() {
        let h = ClueHeader::with_indexed_clue(&p4("10.1.2.0/24"), 7);
        let mut buf = [0u8; MAX_CLUE_OPTION_LEN];
        for short in 0..clue_option_len(&h) {
            let err = encode_clue_option_into(&h, &mut buf[..short]).unwrap_err();
            assert_eq!(err, WireError::Truncated { needed: 5, got: short });
            let err = encode_clue_option_v6_into(&h, &mut buf[..short]).unwrap_err();
            assert_eq!(err, WireError::Truncated { needed: 5, got: short });
        }
        // An absent clue writes nothing and needs no space at all.
        assert_eq!(encode_clue_option_into(&ClueHeader::none(), &mut []), Ok(0));
    }

    #[test]
    fn every_ipv4_length_roundtrips() {
        for len in 1..=32u8 {
            let h = ClueHeader::with_clue(&Prefix::new(Ip4(0), len));
            let bytes = encode_clue_option(&h);
            let back = decode_clue_option::<Ip4>(&bytes[2..]).unwrap();
            assert_eq!(back.decode(Ip4(0)), Some(Prefix::new(Ip4(0), len)));
        }
    }
}
