//! # clue-trie
//!
//! Address, prefix and trie substrates for the *Routing with a Clue*
//! reproduction (Afek, Bremler-Barr, Har-Peled — SIGCOMM 1999).
//!
//! This crate provides the foundations every other crate in the workspace
//! builds on:
//!
//! * [`Address`] — a fixed-width bit string, with [`Ip4`] and [`Ip6`]
//!   implementations (the paper's 5-bit vs 7-bit clue encodings follow
//!   from the width);
//! * [`Prefix`] — the strings stored in forwarding tables and sent as
//!   clues;
//! * [`BinaryTrie`] — the paper's trie model `t1`/`t2` (bit-by-bit walk =
//!   the “Regular” baseline), with the ancestor and subtree queries the
//!   clue machinery needs;
//! * [`PatriciaTrie`] — the path-compressed variant (baseline 2), with
//!   [`PatriciaTrie::locate`]/[`PatriciaTrie::lookup_from`] supporting
//!   clue continuations even when the clue vertex was contracted away;
//! * [`Cost`] / [`CostStats`] — memory-access accounting, the unit of the
//!   paper's evaluation.
//!
//! ## Example
//!
//! ```
//! use clue_trie::{BinaryTrie, Cost, Ip4, Prefix};
//!
//! let mut fib: BinaryTrie<Ip4, &str> = BinaryTrie::new();
//! fib.insert("10.0.0.0/8".parse().unwrap(), "port-1");
//! fib.insert("10.1.0.0/16".parse().unwrap(), "port-2");
//!
//! let mut cost = Cost::new();
//! let bmp = fib.lookup_counted("10.1.2.3".parse().unwrap(), &mut cost).unwrap();
//! assert_eq!(fib.prefix(bmp).to_string(), "10.1.0.0/16");
//! assert_eq!(*fib.value(bmp), "port-2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod addr;
mod binary;
mod cost;
mod patricia;
mod prefix;

pub use addr::{Address, Ip4, Ip6, ParseAddressError};
pub use binary::{BinaryTrie, NodeId, RouteId};
pub use cost::{Cost, CostStats};
pub use patricia::{Location, PNodeId, PatriciaTrie};
pub use prefix::Prefix;
