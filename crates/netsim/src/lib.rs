//! # clue-netsim
//!
//! A packet-level simulator for the network-wide behaviour of distributed
//! IP lookup:
//!
//! * [`Topology`] — lines, rings, stars, two-level ISP backbones and
//!   random connected graphs, with BFS route trees standing in for
//!   OSPF/BGP;
//! * [`Network`] — per-router FIBs built with distance-decaying detail
//!   (the BGP-aggregation structure behind the paper's Figure 1), and a
//!   [`clue_core::ClueEngine`] per incoming link whose clue set is
//!   exactly “the upstream router's prefixes routed through me”;
//! * [`Network::route_packet`] — end-to-end forwarding with clue
//!   piggybacking, heterogeneous participation (Section 5.3: clue-less
//!   routers relay clues) and the Section 5.4 load-shifting mode;
//! * [`run_workload`] — multi-packet runs with per-router / per-hop
//!   statistics (Figure 1's two curves fall straight out), and
//!   [`run_workload_per_packet`], the same workload drawn from one RNG
//!   stream per packet: the live reference of the compiled runtime;
//! * [`CompiledNetwork`] / [`serve_lookups`] — the multi-core serving
//!   runtime and the one compiled view of a network: worker cores
//!   reading one shared compiled backend ([`StrideNetwork`],
//!   compressed, frozen) in place, serving jobs dealt to them up
//!   front, bit-identical to the live reference at any core count (a
//!   1-worker run is the compiled sequential reference), profiled
//!   through the same walk, with barrier-free epoch-churn propagation;
//! * [`Fleet`] — the deployment question at internet scale: thousands
//!   of stride-compiled routers behind epoch cells, ECMP forwarding and
//!   per-link clue analytics, with honest, churned and attacked flows
//!   all walked by one hop-by-hop walk and sharded by the runtime's
//!   job driver;
//! * [`LabelSwitchedPath`] — the Figure 8 MPLS aggregation-point
//!   scenario, plain vs label-as-clue-index hybrid;
//! * [`PathVector`] — a BGP-like path-vector protocol run to
//!   convergence, with the paper's border-only aggregation policy: the
//!   distributed origin of the neighbor-table similarity the clue
//!   scheme exploits (Section 3.3.2);
//! * [`run_chaos`] — the fault-injection harness: seeded, reproducible
//!   corrupted/truncated/stale/adversarial clues, clue-less hops,
//!   drops, reorders and a reader panic under churn, checked
//!   against the soundness invariant (any fault degrades cost, never
//!   the forwarding decision);
//! * `adversary` / [`Fleet::run_adversarial`] — systematic attackers
//!   beyond random faults (a table-aware lying neighbor, clue-flooding
//!   bursts, an oscillating liar) played inside a fleet against the
//!   `clue_core::reputation` quarantine, every clued hop differentially
//!   checked against the clue-less baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod adversary;
mod churn;
mod faults;
mod fleet;
mod mpls_path;
mod network;
mod pathvector;
mod runtime;
mod sim;
mod topology;

pub use adversary::{participation_sweep, AdversaryTelemetry, AttackProfile, ReputationTelemetry};
pub use churn::{run_churn, ChurnDriverConfig, ChurnReport, ChurnTelemetry};
pub use faults::{run_chaos, ChaosConfig, DegradationTelemetry, FaultClass, FaultPlan};
pub use fleet::{
    Fleet, FleetAdversaryConfig, FleetChurnConfig, FleetConfig, FleetStats, FleetTelemetry,
    TopologyKind,
};
pub use mpls_path::LabelSwitchedPath;
pub use network::{Hop, Network, NetworkConfig};
pub use pathvector::{Aggregation, PathVector};
pub use runtime::{
    available_workers, serve_lookups, CompiledNetwork, CoreStats, RuntimeConfig, RuntimeReport,
    RuntimeTelemetry, ServeReport, StrideNetwork,
};
pub use sim::{run_workload, run_workload_instrumented, run_workload_per_packet, RunStats};
pub use topology::{RouterId, Topology};

