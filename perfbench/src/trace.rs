//! In-memory tracing for the traced run.
//!
//! Spans (name, start, end, parent, run id) are recorded around the
//! benchmark's own calls into each layer and written out when the run
//! ends. Layers called millions of times — the adversary — aggregate
//! counters instead of keeping one span per call, and so do the per-run
//! layers of the schedule search, which executes hundreds of thousands
//! of tiny runs.

use rr_sched::adversary::{Adversary, Decision, RunView};
use rr_shmem::Access;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, times in seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `"arena.run"`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the simulated run (or pass) the span belongs to.
    pub run: u64,
}

/// Calls and busy time of an aggregated layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter {
    /// Calls timed.
    pub calls: u64,
    /// Wall seconds inside those calls.
    pub busy: f64,
}

/// Span recorder plus aggregated counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
    counters: BTreeMap<&'static str, Counter>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span named `name` inside the innermost open span; the
    /// spans recorded until [`Tracer::close`] are its children.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, run: self.run });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span (a bug in this
    /// benchmark).
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Records an already-timed interval as a span inside the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            run: self.run,
        };
        self.spans.push(span);
    }

    /// Adds one call lasting from `start` to `end` to counter `name`.
    pub fn count_interval(&mut self, name: &'static str, start: Instant, end: Instant) {
        let c = self.counters.entry(name).or_default();
        c.calls += 1;
        c.busy += (end - start).as_secs_f64();
    }

    /// Σ durations of spans named `name` plus the busy time of counter
    /// `name`.
    pub fn busy(&self, name: &str) -> f64 {
        let spans: f64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum();
        spans + self.counters.get(name).map_or(0.0, |c| c.busy)
    }

    /// Spans named `name` plus calls counted under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        let spans = self.spans.iter().filter(|s| s.name == name).count() as u64;
        spans + self.counters.get(name).map_or(0, |c| c.calls)
    }

    /// Appends the spans and counters recorded so far, as JSON lines,
    /// to `out`.
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start, s.end, s.run
            )?;
        }
        for (name, c) in &self.counters {
            writeln!(
                out,
                "{{\"counter\": \"{name}\", \"calls\": {}, \"busy_s\": {:?}}}",
                c.calls, c.busy
            )?;
        }
        Ok(())
    }
}

/// What a [`CountingAdversary`] saw.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct AdversaryCounts {
    /// `decide` / `decide_batch` calls.
    pub calls: u64,
    /// Decisions returned.
    pub decisions: u64,
    /// Grants, by the granted process's announced access.
    pub tas: u64,
    /// Grants of a register read.
    pub read: u64,
    /// Grants of a τ-register request.
    pub tau_request: u64,
    /// Grants of a local step.
    pub local: u64,
    /// Crash decisions.
    pub crashes: u64,
    /// Wall seconds inside the wrapped adversary.
    pub busy: f64,
}

impl AdversaryCounts {
    /// Granted steps of every kind.
    pub fn steps(&self) -> u64 {
        self.tas + self.read + self.tau_request + self.local
    }

    fn classify(&mut self, view: &RunView<'_>, decision: Decision) {
        self.decisions += 1;
        match decision {
            Decision::Crash(_) => self.crashes += 1,
            Decision::Grant(pid) => match view.announced.get(pid).copied().flatten() {
                Some(Access::Tas { .. }) => self.tas += 1,
                Some(Access::Read { .. }) => self.read += 1,
                Some(Access::TauRequest { .. }) => self.tau_request += 1,
                // A grant of a pid with nothing announced is rejected by
                // the executor; counting it as local keeps the totals
                // honest until then.
                Some(Access::Local) | None => self.local += 1,
            },
        }
    }
}

/// Wraps an adversary, timing each call and classifying each grant by
/// the access the granted process announced. Decisions pass through
/// unchanged, so a traced run takes exactly the untraced run's steps.
pub struct CountingAdversary<'a> {
    inner: &'a mut dyn Adversary,
    counts: &'a mut AdversaryCounts,
}

impl<'a> CountingAdversary<'a> {
    /// Wraps `inner`, adding to `counts`.
    pub fn new(inner: &'a mut dyn Adversary, counts: &'a mut AdversaryCounts) -> Self {
        Self { inner, counts }
    }
}

impl Adversary for CountingAdversary<'_> {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let t = Instant::now();
        let d = self.inner.decide(view);
        self.counts.busy += t.elapsed().as_secs_f64();
        self.counts.calls += 1;
        self.counts.classify(view, d);
        d
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        let from = out.len();
        let t = Instant::now();
        self.inner.decide_batch(view, out, max);
        self.counts.busy += t.elapsed().as_secs_f64();
        self.counts.calls += 1;
        for &d in &out[from..] {
            self.counts.classify(view, d);
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        let now = Instant::now();
        t.record("inner", now, now);
        t.record("inner", now, now);
        t.close(outer);
        let now = Instant::now();
        t.count_interval("leaf", now, now);
        assert_eq!(t.calls("inner"), 2);
        assert_eq!(t.calls("leaf"), 1);
        assert!(t.busy("outer") >= t.busy("inner"));
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"span\": \"inner\""));
        assert!(text.contains("\"parent\": 0"));
        assert!(text.contains("\"counter\": \"leaf\""));
    }
}
