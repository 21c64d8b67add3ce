//! Tracing from the benchmark's side of each layer boundary.
//!
//! Spans (name, start, end, parent, op) are kept in memory by a
//! [`Recorder`] and written out once at the end of a run. Evaluation-level
//! calls are too many to span individually; the adapters here aggregate
//! them into call counts and busy seconds instead. Nothing in this module
//! changes what the wrapped layer computes: every adapter delegates each
//! call unchanged and only reads the clock around it.

use sgs_nlp::lbfgs::GradFn;
use sgs_nlp::NlpProblem;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Identifier of the op the span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder was created.
    pub start: f64,
    /// End, seconds since the recorder was created (NaN while open).
    pub end: f64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Opens a span and returns its index.
    pub fn open(&self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            op,
            parent,
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let now = self.t0.elapsed().as_secs_f64();
        let mut spans = self.spans.borrow_mut();
        spans[id].end = now;
        now - spans[id].start
    }

    /// Runs `f` inside a span named `name` under `parent` and returns its
    /// result with the span's duration.
    pub fn time<R>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let op = self.spans.borrow()[parent].op;
        let id = self.open(name, op, Some(parent));
        let r = f();
        (r, self.close(id))
    }

    /// Share of span `root`'s duration covered by the union of its direct
    /// children.
    pub fn coverage(&self, root: usize) -> f64 {
        let spans = self.spans.borrow();
        let mut kids: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| (s.start, s.end))
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let total = spans[root].end - spans[root].start;
        if total > 0.0 {
            covered / total
        } else {
            1.0
        }
    }

    /// Total duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_s\": {:.9}, \"end_s\": {:.9}}}",
                s.name, s.op, s.start, s.end
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// Calls made into one function of a layer and the seconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStat {
    /// Number of calls.
    pub calls: u64,
    /// Seconds spent inside them.
    pub secs: f64,
}

impl CallStat {
    fn add(&mut self, secs: f64) {
        self.calls += 1;
        self.secs += secs;
    }
}

/// Runs `f`, charging its duration to `stat`.
pub fn timed<R>(stat: &mut CallStat, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    stat.add(t.elapsed().as_secs_f64());
    r
}

/// An [`NlpProblem`] that times every evaluation of the problem it wraps.
pub struct TimedProblem<'p, P: NlpProblem> {
    inner: &'p P,
    stats: [Cell<CallStat>; 5],
}

impl<'p, P: NlpProblem> TimedProblem<'p, P> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'p P) -> Self {
        TimedProblem {
            inner,
            stats: Default::default(),
        }
    }

    /// Counts and seconds of `objective`, `gradient`, `constraints`,
    /// `jacobian_values` and `hessian_values`, in that order.
    pub fn stats(&self) -> [CallStat; 5] {
        std::array::from_fn(|i| self.stats[i].get())
    }

    fn time<R>(&self, slot: usize, f: impl FnOnce() -> R) -> R {
        let mut stat = self.stats[slot].get();
        let r = timed(&mut stat, f);
        self.stats[slot].set(stat);
        r
    }
}

impl<P: NlpProblem> NlpProblem for TimedProblem<'_, P> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn bounds(&self) -> (&[f64], &[f64]) {
        self.inner.bounds()
    }
    fn objective(&self, x: &[f64]) -> f64 {
        self.time(0, || self.inner.objective(x))
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        self.time(1, || self.inner.gradient(x, g))
    }
    fn constraints(&self, x: &[f64], c: &mut [f64]) {
        self.time(2, || self.inner.constraints(x, c))
    }
    fn jacobian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.jacobian_structure()
    }
    fn jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.time(3, || self.inner.jacobian_values(x, vals))
    }
    fn hessian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.hessian_structure()
    }
    fn hessian_values(&self, x: &[f64], sigma: f64, lambda: &[f64], vals: &mut [f64]) {
        self.time(4, || self.inner.hessian_values(x, sigma, lambda, vals))
    }
}

/// A [`GradFn`] that times every value and gradient evaluation of the
/// function it wraps.
pub struct TimedGrad<F: GradFn> {
    /// The wrapped function.
    pub inner: F,
    /// Value and gradient evaluations.
    pub stat: CallStat,
}

impl<F: GradFn> TimedGrad<F> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: F) -> Self {
        TimedGrad {
            inner,
            stat: CallStat::default(),
        }
    }
}

impl<F: GradFn> GradFn for TimedGrad<F> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn value(&mut self, x: &[f64]) -> f64 {
        let inner = &mut self.inner;
        timed(&mut self.stat, || inner.value(x))
    }
    fn grad(&mut self, x: &[f64], g: &mut [f64]) {
        let inner = &mut self.inner;
        timed(&mut self.stat, || inner.grad(x, g))
    }
}
