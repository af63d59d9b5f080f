//! # clue-tablegen
//!
//! Workloads for the *Routing with a Clue* reproduction: synthetic
//! forwarding tables shaped like the paper's 1999 snapshots, neighbor
//! derivation with controlled similarity, the Section 6 traffic
//! methodology, a plain-text loader for real tables, and the pair
//! statistics of Tables 1–3.
//!
//! The paper measured real router pairs (MAE-East, MAE-West, Paix,
//! AT&T-1/2, ISP-B-1/2); those snapshots are unobtainable, so this crate
//! regenerates their *structural* properties — table sizes, prefix-length
//! histogram, intersection fractions and problematic-clue rates — which
//! are the only inputs the clue algorithms are sensitive to (see
//! DESIGN.md, “Substitutions”).
//!
//! ```
//! use clue_tablegen::{derive_neighbor, synthesize_ipv4, NeighborConfig, PairStats};
//!
//! let r1 = synthesize_ipv4(2_000, 42);
//! let r2 = derive_neighbor(&r1, &NeighborConfig::same_isp(43));
//! let stats = PairStats::compute(&r1, &r2);
//! assert!(stats.similarity() > 0.97);           // Table 3's regime
//! assert!(stats.problematic_fraction() < 0.05); // Table 2's regime
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod churn;
mod neighbor;
mod ortc;
mod parse;
mod stats;
mod synth;
mod traffic;

pub use churn::{end_state, generate_churn, ChurnConfig, RouteUpdate, UpdateKind};
pub use neighbor::{derive_neighbor, NeighborConfig};
pub use ortc::minimize;
pub use parse::{format_prefixes, parse_prefixes, parse_table};
pub use stats::{export_length_histogram, length_histogram, length_l1_distance, PairStats};
pub use synth::{
    rebase_into_block, synthesize_ipv4, synthesize_ipv4_modern, synthesize_ipv6, SynthConfig,
};
pub use traffic::{generate, generate_with_clues, TrafficConfig, TrafficModel, ZipfSampler};
