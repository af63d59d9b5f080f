//! # clue-core
//!
//! The primary contribution of *Routing with a Clue* (Afek, Bremler-Barr,
//! Har-Peled — SIGCOMM 1999): **distributed IP lookup**.
//!
//! A router R1 forwarding a packet to R2 piggybacks a *clue* — the best
//! matching prefix it found, encoded in 5 bits (IPv4) as a pointer into
//! the destination address. R2 keeps a [`ClueTable`] whose entries say,
//! per clue, either “the final decision is already known” (the FD field)
//! or “resume the lookup here” (a family-specific [`Continuation`]). The
//! longest-prefix-match computation is thereby *distributed* along the
//! packet's path: each router starts where its upstream neighbor stopped.
//!
//! The crate provides:
//!
//! * [`EncodedClue`] / [`ClueHeader`] — the 5/7-bit wire encoding plus
//!   the optional 16-bit index of the indexing technique (Section 3.3.1);
//! * [`classify`] / [`Classification`] — the Advance method's Claim 1
//!   classifier and candidate sets (Sections 3.1.2, 4);
//! * [`ClueTable`] — hashed or sender-indexed, with the paper's FD/Ptr
//!   fields and its Section 3.5 memory model;
//! * [`ClueEngine`] — the per-neighbor lookup engine combining the clue
//!   table with any of the five lookup families, in
//!   [`Method::Simple`] or [`Method::Advance`] flavour, precomputed or
//!   learning (Figure 5 of the paper);
//! * [`neighbors`] — the Section 3.4 options for sharing tables across
//!   several neighbors (union, bit-map, sub-tables);
//! * [`mpls`] — the Section 5.1 integration with label switching: labels
//!   double as clue indices at aggregation points.
//!
//! ## Example
//!
//! ```
//! use clue_core::{ClueEngine, ClueHeader, EngineConfig, Method};
//! use clue_lookup::Family;
//! use clue_trie::{Cost, Ip4, Prefix};
//!
//! let parse = |s: &str| s.parse::<Prefix<Ip4>>().unwrap();
//! // The sender knows 10/8 and 10.1/16; the receiver additionally
//! // refines 10.2/16.
//! let sender = vec![parse("10.0.0.0/8"), parse("10.1.0.0/16")];
//! let receiver = vec![parse("10.0.0.0/8"), parse("10.1.0.0/16"), parse("10.2.0.0/16")];
//!
//! let mut engine = ClueEngine::precomputed(
//!     &sender,
//!     &receiver,
//!     EngineConfig::new(Family::Patricia, Method::Advance),
//! );
//!
//! // The upstream router found 10.1/16 — at this router that clue is
//! // final: one memory access.
//! let dest: Ip4 = "10.1.2.3".parse().unwrap();
//! let header = ClueHeader::with_clue(&parse("10.1.0.0/16"));
//! let mut cost = Cost::new();
//! let bmp = engine.lookup_with_header(dest, &header, &mut cost);
//! assert_eq!(bmp, Some(parse("10.1.0.0/16")));
//! assert_eq!(cost.total(), 1);
//! ```

// `deny`, not `forbid`: two modules opt back in with a scoped
// `#[allow(unsafe_code)]` — `epoch.rs` for its AtomicPtr reclamation
// and `prefetch.rs` for the prefetch intrinsic, each with its safety
// argument. Everything else stays safe-only.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod buckets;
mod cache;
mod classify;
mod clue;
mod compressed;
mod cram;
mod engine;
pub mod epoch;
mod frozen;
pub mod fxhash;
pub mod mpls;
pub mod neighbors;
pub mod prefetch;
mod profile;
pub mod recursive;
pub mod reputation;
mod soundness;
mod stride;
mod table;

pub use backend::{
    BackendError, BackendKind, CompiledBackend, PreparedLookup, DEFAULT_INTERLEAVE, NO_TAG,
};
pub use cache::{CacheStats, ClueCache, LruCache, PresenceCache};
pub use compressed::{CompressedConfig, CompressedEngine};
pub use cram::{CramLevel, CramReport, L1_BYTES, L2_BYTES, L3_BYTES};
pub use classify::{classify, classify_all, problematic_fraction, Classification};
pub use clue::{ClueHeader, EncodedClue};
pub use engine::{ClueEngine, EngineConfig, EngineStats, Method};
pub use epoch::{EpochCell, EpochEngine, EpochGuard, EpochReader};
pub use frozen::{Decision, FreezeError, FrozenEngine, NONE_NODE};
pub use profile::{Meter, Stage, StageAccum, StageMeter, StageProfiler};
pub use reputation::{
    BatchSignals, LinkState, NeighborReputation, QuarantineGate, ReputationBook,
    ReputationConfig, Transition,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use soundness::{check_soundness, Divergence, SoundnessReport};
pub use stride::{
    StrideConfig, StrideEngine, StrideError, DEFAULT_INITIAL_BITS, DEFAULT_INNER_BITS,
};
pub use table::{CandidateRange, ClueEntry, ClueIndexer, ClueTable, Continuation, TableKind};
