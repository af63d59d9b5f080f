//! In-memory spans recorded by the benchmark around its calls into
//! each layer's public functions.
//!
//! A span has a name, the workload it ran under, start and end offsets
//! from the tracer's creation, its parent (the span open when it
//! started) and an optional item count (packets, updates, flows) so
//! per-item times are measured where the work happens. Spans live in a
//! vector until the run ends and are then written out as JSON. With
//! tracing off, [`Tracer::span`] only calls its closure.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    workload: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    items: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for the benchmark's (single) driving thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    workload: RefCell<&'static str>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            workload: RefCell::new(""),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Tags every span opened from now on with `workload`.
    pub fn set_workload(&self, workload: &'static str) {
        *self.workload.borrow_mut() = workload;
    }

    /// Runs `f` inside a span called `name` covering `items` units of
    /// work.
    pub fn span<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                workload: *self.workload.borrow(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                items,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Bytes the span buffer holds: the memory tracing adds.
    pub fn buffer_bytes(&self) -> usize {
        self.spans.borrow().capacity() * std::mem::size_of::<Span>()
    }

    /// Closed spans called `name` under `workload`.
    fn find(&self, workload: &str, name: &str) -> Vec<Span> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.workload == workload && s.name == name && s.end_ns >= s.start_ns)
            .cloned()
            .collect()
    }

    /// Median duration in seconds of the spans called `name`.
    pub fn median_s(&self, workload: &str, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .find(workload, name)
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect();
        crate::stats::median(&d)
    }

    /// Median over the spans called `name` of nanoseconds per item.
    pub fn median_ns_per_item(&self, workload: &str, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .find(workload, name)
            .iter()
            .filter(|s| s.items > 0)
            .map(|s| s.dur_ns() as f64 / s.items as f64)
            .collect();
        crate::stats::median(&d)
    }

    /// Sum of the durations of the spans called `name`, in seconds.
    pub fn total_s(&self, workload: &str, name: &str) -> f64 {
        self.find(workload, name)
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Each span's self time: its duration minus the part of it its
    /// children cover (children never overlap on one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"items\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.workload,
                s.start_ns,
                s.end_ns,
                own[i],
                s.items
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", 0, || {
            t.span("inner", 4, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 7), 7);
        assert_eq!(t.span_count(), 0);
    }
}
