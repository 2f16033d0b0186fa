//! The harness's own spans: one around every call into the library
//! (input generation, `load_gauge`, `submit`, `wait`, `invert`, each
//! probe). A span *is* the measurement — every reported wall time is the
//! duration of a span recorded here — so the chrome trace written at exit
//! shows exactly the intervals the metrics were computed from. Spans
//! inside the library are `quda-obs`'s business, not this file's.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or solve) id shared by every span of one request.
    pub request: Option<u64>,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::with_capacity(1 << 14), open: Vec::new() }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one; close it with
    /// [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
        end - self.spans[id].start
    }

    /// Run `f` inside a leaf span; returns its result and the span's
    /// duration in seconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(name, request);
        let r = f();
        (r, self.exit(id))
    }

    /// Record a span whose ends were observed elsewhere (a request's
    /// submit→resolve interval), under the innermost open span.
    pub fn record(&mut self, name: &'static str, request: Option<u64>, start: f64, end: f64) {
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end, parent, request });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events, microsecond timestamps, `tid` = nesting depth so parents
    /// sit above their children.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(id) = p {
                depth += 1;
                p = self.spans[id].parent;
            }
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let request = s.request.map_or(-1, |r| r as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{depth},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{request}}}}}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut s = Spans::new();
        let outer = s.enter("round", None);
        let ((), inner) = s.timed("invert", Some(7), || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let total = s.exit(outer);
        assert!(inner >= 0.005 && total >= inner);
        assert_eq!(s.spans[1].parent, Some(outer));
        assert_eq!(s.spans[1].request, Some(7));
        let json = s.to_chrome_trace();
        let v = serde_json::from_str(&json).expect("valid chrome trace");
        assert_eq!(v.get("traceEvents").and_then(|e| e.as_array()).map(Vec::len), Some(2));
    }
}
