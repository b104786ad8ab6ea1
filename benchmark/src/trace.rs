//! Harness-side tracing: spans recorded *around* calls into the layers'
//! public functions (nothing inside the program is instrumented), kept in
//! memory, written as Chrome-trace JSON when the run ends.
//!
//! Disabled (`--trace 0`), [`Tracer::begin`]/[`Tracer::end`] are a branch
//! each; the end-to-end metrics are always measured that way.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.packing.pack`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Operation this span belongs to; spans of one op share it.
    pub op_id: u32,
    /// Units of work the span covered (calls, nodes, …); 1 by default.
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    /// A tracer; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Is tracing on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a root span for a new operation (fresh `op_id`).
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        self.op_id += 1;
        self.begin(name)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            count: 1,
        };
        self.spans.push(span);
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and anything left open beneath it).
    pub fn end(&mut self, id: SpanId) {
        self.end_counted(id, 1);
    }

    /// Closes `id`, recording that it covered `count` units of work.
    pub fn end_counted(&mut self, id: SpanId, count: u64) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id as usize].count = count;
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (milliseconds) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != 0)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per-unit durations (microseconds per counted unit) of every
    /// closed span called `name`.
    pub fn per_unit_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != 0 && s.count > 0)
            .map(|s| s.dur_ns() as f64 / 1e3 / s.count as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover. Indexed like [`spans`].
    ///
    /// [`spans`]: Tracer::spans
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self times (milliseconds) of every closed span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.end_ns != 0)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// complete events, one `tid` per op so ops stack as rows.
    pub fn to_chrome_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"op_id\":{},\"count\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.op_id,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op_id,
                s.count,
                self_ns as f64 / 1e3,
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
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op("op");
        let c = t.begin("child");
        t.end(c);
        t.end(op);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn parents_ops_and_self_time() {
        let mut t = Tracer::new(true);
        let op = t.begin_op("op");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("b");
        t.end_counted(b, 7);
        t.end(op);
        let op2 = t.begin_op("op");
        t.end(op2);

        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].count, 7);
        assert_eq!(s[0].op_id, s[1].op_id);
        assert_ne!(s[0].op_id, s[3].op_id);

        let own = t.self_ns();
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns());
        assert!(s[1].dur_ns() >= 2_000_000);
        assert_eq!(t.durations_ms("a").len(), 1);

        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }
}
