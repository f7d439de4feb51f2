//! Outside-timed spans: the harness records one span around each call it
//! makes into a layer's public functions. Nothing inside the crates is
//! instrumented. Spans stay in memory and are written as a chrome-trace
//! file when the workload ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, e.g. `scale.build_world`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The repetition the span belongs to; 0 is the warm-up.
    pub rep: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

/// The span recorder. While inactive, `begin`/`end` do nothing — not even
/// read the clock — so untraced repetitions make the same calls into the
/// layers and pay nothing for the tracer.
pub struct Tracer {
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    rep: u32,
}

impl Tracer {
    /// A tracer, recording from now on iff `active`.
    pub fn new(active: bool) -> Tracer {
        Tracer {
            active,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Whether spans are being recorded right now.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Start repetition `rep` (1-based), recording iff `active`.
    pub fn start_rep(&mut self, rep: u32, active: bool) {
        assert!(self.stack.is_empty(), "span left open across repetitions");
        self.rep = rep;
        self.active = active;
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.active {
            return Open(None);
        }
        let ix = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(ix);
        // Read the clock last, so the bookkeeping above is charged to the
        // parent and not to this span.
        self.spans[ix as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(Some(ix))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(ix) = open.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(ix),
            "spans must close innermost first"
        );
        self.spans[ix as usize].end_ns = now;
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Seconds spent in spans named `name`, summed per measured
    /// repetition (the warm-up, repetition 0, is left out). Repetitions
    /// that recorded no such span are absent.
    pub fn per_rep_s(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(u32, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.rep > 0 && s.name == name) {
            match sums.last_mut() {
                Some((rep, ns)) if *rep == s.rep => *ns += s.dur_ns(),
                _ => sums.push((s.rep, s.dur_ns())),
            }
        }
        sums.into_iter().map(|(_, ns)| ns as f64 / 1e9).collect()
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// `(name, calls, total seconds, self seconds)` per span name, in
    /// first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let own = self.self_ns();
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns();
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.dur_ns(), self_ns)),
            }
        }
        rows.into_iter()
            .map(|(n, c, t, o)| (n, c, t as f64 / 1e9, o as f64 / 1e9))
            .collect()
    }

    /// The spans as a chrome://tracing / Perfetto document. Span names are
    /// harness constants (no quotes or escapes), so they are written as is.
    pub fn chrome_trace(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(&own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.rep,
                *self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_reps_are_grouped() {
        let mut t = Tracer::new(true);
        t.start_rep(1, true);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", || ());
        t.end(outer);
        t.start_rep(2, false);
        t.span("inner", || ());
        t.start_rep(3, true);
        t.span("inner", || ());

        let spans = &t.spans;
        assert_eq!(spans.len(), 4, "the inactive repetition records nothing");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let own = t.self_ns();
        let children = spans[1].dur_ns() + spans[2].dur_ns();
        assert_eq!(own[0], spans[0].dur_ns() - children);
        assert_eq!(own[1], spans[1].dur_ns());

        let inner = t.per_rep_s("inner");
        assert_eq!(inner.len(), 2, "repetitions 1 and 3");
        assert!(inner[0] >= 0.002);
        let summary = t.summary();
        assert_eq!(summary[0].0, "outer");
        assert_eq!(summary[1].1, 3);

        let doc = serde_json::from_str(&t.chrome_trace()).expect("valid JSON");
        let serde_json::Value::Object(fields) = doc else {
            panic!("object")
        };
        let serde_json::Value::Array(events) = &fields[0].1 else {
            panic!("array")
        };
        assert_eq!(events.len(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new(true);
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
