//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! workspace's public functions; nothing inside the program is
//! instrumented. Each span has a name, a start and end on one monotonic
//! clock, the span that was open when it started (its parent), and, for
//! served requests, a request id shared by every span of that request.
//! Spans stay in memory and are written out once, when the run ends.

use std::borrow::Cow;
use std::time::Instant;

use ldgm_gpusim::json::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran, `layer.operation`.
    pub name: Cow<'static, str>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one served request.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; [`Tracer::close`] ends it.
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; every method is a no-op when disabled.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Start a span nested in the innermost open one.
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name: name.into(), start_ns, end_ns: start_ns, parent, req: None });
        self.stack.push(id);
        Open(Some(id))
    }

    /// End a span opened by [`Tracer::open`]; spans close innermost first.
    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.ns(Instant::now());
        self.spans[id].end_ns = end_ns;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Record an already finished interval as a child of the innermost
    /// open span (used for pipelined requests, which overlap).
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        req: Option<u64>,
    ) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end).max(self.ns(start)));
        let parent = self.stack.last().copied();
        self.spans.push(Span { name: name.into(), start_ns, end_ns, parent, req });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (written to the run's span file).
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::object()
                        .with("id", i)
                        .with("name", s.name.to_string())
                        .with("start_ns", s.start_ns as f64)
                        .with("end_ns", s.end_ns as f64)
                        .with("parent", s.parent.map_or(Json::Null, Json::from))
                        .with("req", s.req.map_or(Json::Null, |r| Json::from(r as f64)))
                })
                .collect(),
        )
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of its interval that its child spans cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[k].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Summed self time, in seconds, of the spans named `name`; `selfs` is
/// [`self_times`] of the same spans.
pub fn self_seconds(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, &own)| own as f64 * 1e-9).sum()
}

/// Durations in seconds of the spans named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, req: None }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping:
        // 40 covered) and [60,70); grandchild [12,18) inside the first.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("leaf", 12, 18, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 20 - 6, 30, 10, 6]);
        assert!((self_seconds(&spans, &own, "root") - 50e-9).abs() < 1e-18);
        assert!((self_seconds(&spans, &own, "a") - 14e-9).abs() < 1e-18);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("k", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut off = Tracer::new(false);
        let o = off.open("x");
        off.close(o);
        assert!(off.spans().is_empty());

        let mut tr = Tracer::new(true);
        let outer = tr.open("outer");
        let v = tr.time("inner", || 7);
        let now = Instant::now();
        tr.record("req", now, now, Some(42));
        tr.close(outer);
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent, s[2].req), (Some(0), Some(0), Some(42)));
        assert!(s[0].end_ns >= s[1].end_ns);
        let doc = tr.to_json();
        assert_eq!(doc.as_array().unwrap().len(), 3);
    }
}
