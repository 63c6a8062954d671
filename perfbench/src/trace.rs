//! In-memory span recorder for the traced run, written out as Chrome
//! trace-event JSON (Perfetto and `chrome://tracing` open it).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the simulator is
//! instrumented. A disabled tracer records nothing and costs one branch.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: a layer call timed from outside.
struct Span {
    name: &'static str,
    layer: &'static str,
    id: u64,
    parent: Option<u64>,
    start_us: f64,
    dur_us: f64,
}

/// A counter sample recorded at a layer boundary.
struct Counter {
    name: &'static str,
    at_us: f64,
    value: f64,
}

/// Records spans and counters relative to one epoch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    open: Vec<u64>,
    next_id: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
            open: Vec::new(),
            next_id: 1,
        }
    }

    /// Runs `call` inside a span named `name` in `layer`; spans opened
    /// inside `call` record this one as their parent.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return call(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = Instant::now();
        let result = call(self);
        let end = Instant::now();
        self.open.pop();
        self.spans.push(Span {
            name,
            layer,
            id,
            parent,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        });
        result
    }

    /// Records a counter value at the current instant.
    pub fn counter(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push(Counter {
                name,
                at_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                value,
            });
        }
    }

    /// Durations in seconds of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us * 1e-6)
            .collect()
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Renders every span (`ph: X`) and counter (`ph: C`) as Chrome
    /// trace-event JSON, spans in start order.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let mut events = Vec::with_capacity(spans.len() + self.counters.len() + 1);
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        ));
        for s in spans {
            let mut args = format!("\"id\":{}", s.id);
            if let Some(parent) = s.parent {
                let _ = write!(args, ",\"parent\":{parent}");
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{{args}}}}}",
                s.name, s.layer, s.start_us, s.dur_us
            ));
        }
        for c in &self.counters {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"value\":{}}}}}",
                c.name, c.at_us, c.value
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}
