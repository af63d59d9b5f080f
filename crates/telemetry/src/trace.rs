//! Structured per-lookup events.
//!
//! Components build one [`LookupEvent`] per instrumented lookup and
//! hand it to [`LookupTelemetry::record`](crate::LookupTelemetry::record),
//! which folds it into the aggregate counters and histograms.

/// How a lookup resolved — the classification axis of the paper's
/// Tables 4–9 plus the failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupClass {
    /// No usable clue (first hop, or `Method::Common`): full lookup.
    Clueless,
    /// Clue-table hit with an empty `Ptr`: the FD was final.
    Final,
    /// Clue-table hit on a problematic clue: a continued search ran.
    Continued,
    /// Clue-table miss: unknown clue, full lookup (and maybe learning).
    Miss,
    /// The clue was not a prefix of the destination: ignored.
    Malformed,
}

/// One lookup, structurally described.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupEvent {
    /// Length of the clue carried by the packet, if any.
    pub clue_len: Option<u8>,
    /// How the lookup resolved.
    pub class: LookupClass,
    /// Structure nodes visited *beyond* the mandatory table consult
    /// (the continued-search depth; 0 for a final hit).
    pub search_depth: u64,
    /// Total memory references the lookup performed.
    pub memory_references: u64,
}

impl LookupEvent {
    /// An event for a clue-less full lookup costing `memory_references`.
    #[cfg(test)]
    pub(crate) fn clueless(memory_references: u64) -> Self {
        LookupEvent {
            clue_len: None,
            class: LookupClass::Clueless,
            search_depth: 0,
            memory_references,
        }
    }
}

