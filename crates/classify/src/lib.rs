//! # clue-classify
//!
//! The Section 7 extension of *Routing with a Clue*: distributed
//! **packet classification**.
//!
//! > “When a packet header is classified by several filters (in QoS, or
//! > firewall applications), the clue being added to the packet is the
//! > filter by which the packet is classified at a router. The receiving
//! > router starts its classification process at the restricted domain
//! > of the clue-filter. Moreover, similarly to Claim 1, any filter that
//! > both routers have and that intersects the clue-filter can be
//! > discarded by R2 without any processing.”
//!
//! This crate provides the substrate (5-tuple [`Filter`]s, [`FlowKey`]s,
//! a counted linear-scan [`RuleSet`]) and the clue-assisted
//! [`ClueClassifier`] that precomputes, per upstream filter, the
//! restricted candidate list the receiving router needs to examine.
//!
//! ```
//! use clue_classify::{Action, ClueClassifier, Filter, FlowKey, RuleSet};
//! use clue_trie::{Cost, Ip4};
//!
//! let rules = vec![
//!     Filter::<Ip4> {
//!         dst: "10.1.0.0/16".parse().unwrap(),
//!         dst_ports: 80..=80,
//!         priority: 10,
//!         ..Filter::default_rule(Action::Permit)
//!     },
//!     Filter::default_rule(Action::Deny),
//! ];
//! let cc = ClueClassifier::new(RuleSet::new(rules.clone()), RuleSet::new(rules));
//!
//! let key = FlowKey::<Ip4> {
//!     src: "1.2.3.4".parse().unwrap(),
//!     dst: "10.1.2.3".parse().unwrap(),
//!     src_port: 40000,
//!     dst_port: 80,
//!     proto: 6,
//! };
//! let clue = cc.upstream().classify_uncounted(&key)
//!     .and_then(|f| cc.upstream().position_of(f));
//! let mut cost = Cost::new();
//! let class = cc.classify(&key, clue, &mut cost).unwrap();
//! assert_eq!(class.priority, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod classifier;
mod filter;
mod grouped;

pub use classifier::{ClueClassifier, RuleSet};
pub use filter::{Action, Filter, FlowKey};
pub use grouped::GroupedClassifier;
