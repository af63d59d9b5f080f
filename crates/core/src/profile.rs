//! The per-stage lookup profiler: predicted-vs-measured attribution.
//!
//! The paper's entire evaluation metric is *predicted* — [`Cost`] ticks
//! model memory references per lookup (Tables 4–9). This module
//! cross-validates that model against the machine: a lookup attributes
//! its ticks, measured nanoseconds and touched record bytes to a
//! pipeline [`Stage`], and a [`StageProfiler`] accumulates per-stage
//! running sums from which a Pearson correlation between predicted
//! ticks and measured time falls out. A high per-stage correlation is
//! empirical support for the paper's claim that tick counts are the
//! right cost model; a low one flags a stage whose "one access"
//! abstraction leaks (e.g. a probe that is one tick but two dependent
//! cache lines).
//!
//! **One kernel, monomorphised over a [`Meter`]**: the scalar
//! reference [`crate::ClueEngine::lookup`] and every compiled backend's
//! lookup kernel are generic over the meter they charge. The
//! serving meter is [`Cost`] itself, whose span hooks are empty and
//! inline away, so serving code carries no profiling branch. The
//! profiling meter, [`StageMeter`], wraps a `Cost` and a
//! [`StageProfiler`] and turns the same hooks into timed spans. The
//! kernel is the same code either way, so profiling is inert by
//! construction: same BMP, same class, tick-for-tick the same `Cost`,
//! and every charged tick lands in exactly one stage. `clue profile
//! --check` and the engine and backend tests hold it to that.
//!
//! Timing is *span*-based: a stage is timed once per lookup with a
//! pair of `Instant` reads around its whole span, never per node —
//! per-visit timestamps would cost more than the visits themselves and
//! drown the signal in timer overhead.

use std::time::Instant;

use clue_trie::Cost;

/// A pipeline stage of a clue lookup, across every engine
/// representation (scalar and the compiled backends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The entry read: the stride engine's direct-indexed root slot, or
    /// the first trie vertex of a bit-by-bit common walk.
    Root,
    /// The descent below the entry: multibit inner-node steps (stride)
    /// or the remaining vertices of a bit-by-bit common walk.
    Inner,
    /// The mandatory clue-table consult: hash probe (scalar/frozen) or
    /// flat length-bucket probe (stride/compressed).
    ClueProbe,
    /// The continued walk from the clue's continuation vertex,
    /// honoring the Section 4 Claim-1 bits.
    Continuation,
    /// The Section 3.5 presence-cache read in front of the clue table
    /// (scalar engine only).
    Cache,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub fn all() -> [Stage; 5] {
        [Stage::Root, Stage::Inner, Stage::ClueProbe, Stage::Continuation, Stage::Cache]
    }

    /// Stable snake_case label (JSON keys, metric names).
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Root => "root",
            Stage::Inner => "inner",
            Stage::ClueProbe => "clue_probe",
            Stage::Continuation => "continuation",
            Stage::Cache => "cache",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::Root => 0,
            Stage::Inner => 1,
            Stage::ClueProbe => 2,
            Stage::Continuation => 3,
            Stage::Cache => 4,
        }
    }
}

/// Running sums for a Pearson correlation between two series, mergeable
/// across profilers (all five moments are plain sums).
#[derive(Debug, Default, Clone, Copy)]
struct Corr {
    n: u64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

impl Corr {
    #[inline]
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
    }

    fn merge(&mut self, o: &Corr) {
        self.n += o.n;
        self.sx += o.sx;
        self.sy += o.sy;
        self.sxx += o.sxx;
        self.syy += o.syy;
        self.sxy += o.sxy;
    }

    /// Pearson r, `None` when undefined (fewer than two points, or a
    /// constant series — e.g. a stage that always costs exactly one
    /// tick has zero x-variance and no meaningful correlation).
    fn r(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let cov = self.sxy - self.sx * self.sy / n;
        let vx = self.sxx - self.sx * self.sx / n;
        let vy = self.syy - self.sy * self.sy / n;
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        Some(cov / (vx * vy).sqrt())
    }
}

/// Accumulated attribution for one [`Stage`].
#[derive(Debug, Default, Clone, Copy)]
pub struct StageAccum {
    /// Lookups that exercised this stage (≤ 1 event per lookup).
    pub visits: u64,
    /// Predicted [`Cost`] ticks attributed to the stage.
    pub ticks: u64,
    /// Engine-record bytes the stage dereferenced, per the layout model
    /// (`size_of` of the records actually walked).
    pub bytes: u64,
    /// Measured wall-clock nanoseconds across the stage's spans.
    pub nanos: u64,
    corr: Corr,
}

impl StageAccum {
    /// Measured nanoseconds per predicted tick (the stage's empirical
    /// cost of one modeled memory access); `None` with no ticks.
    pub fn ns_per_tick(&self) -> Option<f64> {
        (self.ticks > 0).then(|| self.nanos as f64 / self.ticks as f64)
    }

    /// Mean predicted ticks per visit.
    pub fn ticks_per_visit(&self) -> Option<f64> {
        (self.visits > 0).then(|| self.ticks as f64 / self.visits as f64)
    }

    /// Pearson correlation between per-event predicted ticks and
    /// measured nanoseconds; `None` when undefined (see `Corr::r`).
    pub fn correlation(&self) -> Option<f64> {
        self.corr.r()
    }
}

/// Accumulates per-stage and per-lookup attribution; the object a
/// profiled run fills through a [`StageMeter`] and merges across
/// threads at the end.
#[derive(Debug, Default, Clone)]
pub struct StageProfiler {
    stages: [StageAccum; 5],
    lookups: u64,
    lookup_corr: Corr,
}

impl StageProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one stage event: `ticks` predicted accesses, `bytes`
    /// record bytes, `nanos` measured for the stage's span.
    #[inline]
    pub(crate) fn record(&mut self, stage: Stage, ticks: u64, bytes: u64, nanos: u64) {
        let s = &mut self.stages[stage.index()];
        s.visits += 1;
        s.ticks += ticks;
        s.bytes += bytes;
        s.nanos += nanos;
        s.corr.push(ticks as f64, nanos as f64);
    }

    /// Records one whole lookup (total predicted ticks vs total
    /// measured nanoseconds) for the cross-stage correlation.
    #[inline]
    pub(crate) fn record_lookup(&mut self, ticks: u64, nanos: u64) {
        self.lookups += 1;
        self.lookup_corr.push(ticks as f64, nanos as f64);
    }

    /// Folds `other` into this profiler (per-thread profilers merged at
    /// report time).
    pub fn merge(&mut self, other: &StageProfiler) {
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.visits += b.visits;
            a.ticks += b.ticks;
            a.bytes += b.bytes;
            a.nanos += b.nanos;
            a.corr.merge(&b.corr);
        }
        self.lookups += other.lookups;
        self.lookup_corr.merge(&other.lookup_corr);
    }

    /// The accumulated attribution for `stage`.
    pub fn stage(&self, stage: Stage) -> &StageAccum {
        &self.stages[stage.index()]
    }

    /// Lookups recorded via `Self::record_lookup`.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total predicted ticks across all stages.
    pub fn total_ticks(&self) -> u64 {
        self.stages.iter().map(|s| s.ticks).sum()
    }

    /// Total record bytes across all stages.
    pub fn total_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes).sum()
    }

    /// Total measured nanoseconds across all stage spans.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Mean record bytes touched per lookup.
    pub fn bytes_per_lookup(&self) -> Option<f64> {
        (self.lookups > 0).then(|| self.total_bytes() as f64 / self.lookups as f64)
    }

    /// Pearson correlation between each lookup's total predicted ticks
    /// and its total measured nanoseconds — the headline
    /// predicted-vs-measured number.
    pub fn lookup_correlation(&self) -> Option<f64> {
        self.lookup_corr.r()
    }
}

/// What a lookup charges as it walks. Every kernel, the scalar
/// reference included, charges its [`Cost`] ticks through
/// [`Self::cost`] and brackets each stage with a [`Self::mark`] and a
/// closing hook; what the hooks record is up to the meter. See the
/// module docs for the inertness contract.
pub trait Meter {
    /// A span's opening state: nothing for [`Cost`], the tick count and
    /// clock reading for a [`StageMeter`].
    type Mark: Copy;

    /// The running tick count every charge goes to.
    fn cost(&mut self) -> &mut Cost;

    /// Opens a span.
    fn mark(&self) -> Self::Mark;

    /// Closes a span opened at `mark` as one visit of `stage` that
    /// dereferenced `bytes`, plus `bytes_per_tick` for every tick
    /// charged inside it.
    fn stage(&mut self, stage: Stage, mark: Self::Mark, bytes: u64, bytes_per_tick: u64);

    /// Closes a bit-by-bit common walk opened at `mark`, each tick one
    /// `bytes_per_tick` record: the first tick is [`Stage::Root`] and
    /// the rest [`Stage::Inner`], time split in proportion to ticks.
    fn walk(&mut self, mark: Self::Mark, bytes_per_tick: u64);

    /// Closes a whole lookup opened at `mark`.
    fn done(&mut self, mark: Self::Mark);
}

/// The serving meter: ticks only. Every span hook is empty, so a
/// kernel monomorphised over `Cost` is the plain hot loop.
impl Meter for Cost {
    type Mark = ();

    #[inline(always)]
    fn cost(&mut self) -> &mut Cost {
        self
    }

    #[inline(always)]
    fn mark(&self) {}

    #[inline(always)]
    fn stage(&mut self, _stage: Stage, _mark: (), _bytes: u64, _bytes_per_tick: u64) {}

    #[inline(always)]
    fn walk(&mut self, _mark: (), _bytes_per_tick: u64) {}

    #[inline(always)]
    fn done(&mut self, _mark: ()) {}
}

/// The profiling meter: the lookup's [`Cost`] plus a [`StageProfiler`]
/// that every span hook feeds with ticks, touched bytes and measured
/// nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct StageMeter {
    /// Ticks charged since the caller last reset it.
    pub cost: Cost,
    /// The per-stage attribution accumulated so far.
    pub profiler: StageProfiler,
}

impl Meter for StageMeter {
    type Mark = (Instant, u64);

    #[inline]
    fn cost(&mut self) -> &mut Cost {
        &mut self.cost
    }

    #[inline]
    fn mark(&self) -> Self::Mark {
        (Instant::now(), self.cost.total())
    }

    fn stage(&mut self, stage: Stage, (start, ticks): Self::Mark, bytes: u64, bytes_per_tick: u64) {
        let ns = elapsed_ns(start);
        let ticks = self.cost.total() - ticks;
        self.profiler.record(stage, ticks, bytes + bytes_per_tick * ticks, ns);
    }

    fn walk(&mut self, (start, ticks): Self::Mark, bytes_per_tick: u64) {
        let ns = elapsed_ns(start);
        record_walk_split(&mut self.profiler, self.cost.total() - ticks, ns, bytes_per_tick);
    }

    fn done(&mut self, (start, ticks): Self::Mark) {
        let ns = elapsed_ns(start);
        self.profiler.record_lookup(self.cost.total() - ticks, ns);
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Splits a common-walk span of `ticks` ticks between [`Stage::Root`]
/// (the first charged vertex) and [`Stage::Inner`] (the rest),
/// attributing time proportionally to ticks: the walk is timed once —
/// per-vertex timestamps would dwarf the vertices — so the split
/// follows the model. `nanos` is the span, `bytes_per_tick` the record
/// size the walk dereferences per tick.
fn record_walk_split(
    prof: &mut StageProfiler,
    ticks: u64,
    nanos: u64,
    bytes_per_tick: u64,
) {
    if ticks == 0 {
        return;
    }
    let root_ns = nanos / ticks;
    prof.record(Stage::Root, 1, bytes_per_tick, root_ns);
    if ticks > 1 {
        prof.record(Stage::Inner, ticks - 1, bytes_per_tick * (ticks - 1), nanos - root_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_have_stable_labels_and_order() {
        let labels: Vec<_> = Stage::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["root", "inner", "clue_probe", "continuation", "cache"]);
        for (i, s) in Stage::all().into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn record_accumulates_per_stage() {
        let mut p = StageProfiler::new();
        p.record(Stage::Root, 1, 12, 100);
        p.record(Stage::Root, 1, 12, 120);
        p.record(Stage::Continuation, 5, 60, 900);
        let root = p.stage(Stage::Root);
        assert_eq!((root.visits, root.ticks, root.bytes, root.nanos), (2, 2, 24, 220));
        assert_eq!(root.ns_per_tick(), Some(110.0));
        assert_eq!(p.total_ticks(), 7);
        assert_eq!(p.total_bytes(), 84);
        assert_eq!(p.total_nanos(), 1120);
        assert_eq!(p.stage(Stage::Cache).visits, 0);
    }

    #[test]
    fn perfect_linear_series_correlates_to_one() {
        let mut p = StageProfiler::new();
        for t in 1..=10u64 {
            p.record(Stage::Continuation, t, 0, t * 50);
            p.record_lookup(t, t * 50);
        }
        let r = p.stage(Stage::Continuation).correlation().unwrap();
        assert!((r - 1.0).abs() < 1e-9, "got {r}");
        let r = p.lookup_correlation().unwrap();
        assert!((r - 1.0).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn constant_series_has_no_correlation() {
        let mut p = StageProfiler::new();
        for _ in 0..10 {
            p.record(Stage::ClueProbe, 1, 16, 40); // always one tick
        }
        assert_eq!(p.stage(Stage::ClueProbe).correlation(), None);
        assert_eq!(p.stage(Stage::ClueProbe).ticks_per_visit(), Some(1.0));
        let mut empty = StageProfiler::new();
        empty.record(Stage::Root, 1, 0, 5);
        assert_eq!(empty.stage(Stage::Root).correlation(), None, "one point");
    }

    #[test]
    fn anticorrelated_series_is_negative() {
        let mut p = StageProfiler::new();
        for t in 1..=10u64 {
            p.record(Stage::Inner, t, 0, (11 - t) * 30);
        }
        let r = p.stage(Stage::Inner).correlation().unwrap();
        assert!((r + 1.0).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn merge_equals_single_accumulation() {
        let mut whole = StageProfiler::new();
        let mut a = StageProfiler::new();
        let mut b = StageProfiler::new();
        for t in 1..=20u64 {
            let (stage, ns) = (Stage::Root, t * 7 + t % 3);
            whole.record(stage, t, t * 12, ns);
            whole.record_lookup(t, ns);
            let half = if t % 2 == 0 { &mut a } else { &mut b };
            half.record(stage, t, t * 12, ns);
            half.record_lookup(t, ns);
        }
        a.merge(&b);
        assert_eq!(a.lookups(), whole.lookups());
        assert_eq!(a.total_ticks(), whole.total_ticks());
        assert_eq!(a.total_bytes(), whole.total_bytes());
        assert_eq!(a.total_nanos(), whole.total_nanos());
        let (ra, rw) = (a.lookup_correlation().unwrap(), whole.lookup_correlation().unwrap());
        assert!((ra - rw).abs() < 1e-12, "merged correlation must match: {ra} vs {rw}");
    }

    #[test]
    fn walk_split_attributes_root_then_inner() {
        let mut p = StageProfiler::new();
        record_walk_split(&mut p, 4, 400, 12);
        assert_eq!(p.stage(Stage::Root).ticks, 1);
        assert_eq!(p.stage(Stage::Root).nanos, 100);
        assert_eq!(p.stage(Stage::Root).bytes, 12);
        assert_eq!(p.stage(Stage::Inner).ticks, 3);
        assert_eq!(p.stage(Stage::Inner).nanos, 300);
        assert_eq!(p.stage(Stage::Inner).bytes, 36);

        // A one-tick walk is all Root, no Inner.
        let mut p = StageProfiler::new();
        record_walk_split(&mut p, 1, 50, 12);
        assert_eq!(p.stage(Stage::Root).ticks, 1);
        assert_eq!(p.stage(Stage::Inner).visits, 0);

        // An empty walk records nothing.
        let mut p = StageProfiler::new();
        record_walk_split(&mut p, 0, 50, 12);
        assert_eq!(p.stage(Stage::Root).visits, 0);
    }

    #[test]
    fn bytes_per_lookup_averages() {
        let mut p = StageProfiler::new();
        p.record(Stage::Root, 1, 12, 10);
        p.record(Stage::ClueProbe, 1, 28, 10);
        p.record_lookup(2, 20);
        p.record_lookup(2, 20);
        assert_eq!(p.bytes_per_lookup(), Some(20.0));
        assert_eq!(StageProfiler::new().bytes_per_lookup(), None);
    }
}
