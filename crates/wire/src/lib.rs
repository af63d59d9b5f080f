//! # clue-wire
//!
//! On-the-wire encoding for distributed IP lookup, following Section 5.3
//! of *Routing with a Clue*: “it is quite possible that the 5 bits find
//! their place in the current IP header, e.g., in the options field.”
//!
//! * [`Ipv4Packet`] — a full IPv4 header codec (checksum included) with
//!   the clue carried as an experimental option
//!   (`option::CLUE_OPTION_KIND`); 3 bytes for the plain 5-bit clue, 5
//!   bytes with the 16-bit indexing-technique slot;
//! * [`Ipv6Packet`] — the IPv6 variant: a hop-by-hop extension header
//!   (routers on the path may read and rewrite it), carrying the same
//!   option with the 7-bit clue;
//! * parsers never panic on arbitrary input (property-tested) and skip
//!   unknown options, so clue-carrying packets interoperate with
//!   clue-less routers — the paper's heterogeneity requirement down at
//!   the byte level.
//!
//! ```
//! use clue_core::ClueHeader;
//! use clue_trie::{Ip4, Prefix};
//! use clue_wire::Ipv4Packet;
//!
//! let bmp: Prefix<Ip4> = "10.1.0.0/16".parse().unwrap();
//! let pkt = Ipv4Packet::new(
//!     "192.0.2.1".parse().unwrap(),
//!     "10.1.2.3".parse().unwrap(),
//!     17,
//! )
//! .with_clue(ClueHeader::with_clue(&bmp));
//!
//! let bytes = pkt.to_bytes();               // 24 bytes: 20 + padded option
//! let back = Ipv4Packet::parse(&bytes).unwrap();
//! assert_eq!(back.clue.decode(back.dst), Some(bmp));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod ipv4;
mod ipv6;
pub mod option;

pub use error::WireError;
pub use ipv4::{checksum, Ipv4Packet};
pub use ipv6::{Ipv6Packet, HOP_BY_HOP};
