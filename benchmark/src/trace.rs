//! Spans recorded by the benchmark's own code around every call into a
//! layer (choosing-metrics §4): name, start, end, parent, round. Spans
//! stay in memory and are written out once, when the run ends.
//!
//! Timing and tracing share one code path: [`Tracer::time`] always
//! returns the elapsed seconds (the journey's samples come from it) and
//! additionally records a span when tracing is on — so the traced and
//! untraced journeys execute the same instructions apart from one `Vec`
//! push per span, which is what `trace.overhead` measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Journey round the span belongs to (0 = outside any round).
    pub round: u32,
}

/// The span recorder. Single-threaded by design: the daemon phase's two
/// request threads collect their own `(class, start, end)` samples and
/// the main thread imports them with [`Tracer::add`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    round: u32,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Switch recording on or off (a traced run alternates traced and
    /// untraced rounds to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag subsequent spans with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Seconds since the tracer's epoch at `at`.
    fn at(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64()
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// elapsed seconds. The span is recorded only while tracing is on.
    /// `f` receives the tracer so it can open child spans.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start: 0.0,
                end: 0.0,
                parent: self.stack.last().copied(),
                round: self.round,
            });
            self.stack.push(id);
            id
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.stack.pop();
            self.spans[id].start = self.at(start);
            self.spans[id].end = self.at(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Import a span measured elsewhere (a request thread) as a child of
    /// the currently open span.
    pub fn add(&mut self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start: self.at(start),
                end: self.at(end),
                parent: self.stack.last().copied(),
                round: self.round,
            });
        }
    }

    /// Record a count at the current boundary (last write wins — counts
    /// are asserted identical across rounds elsewhere).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.counts.insert(name.to_string(), value);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the part
    /// of its interval its direct children cover (children of one span
    /// may overlap each other — the daemon phase's reader and writer run
    /// concurrently — so the covered part is the union of their
    /// intervals, not the sum).
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let own = (s.end - s.start) - covered(kids, s.start, s.end);
            *out.entry(s.name.clone()).or_insert(0.0) += own;
        }
        out
    }

    /// The trace file: every span, each name's total self time, and the
    /// counts, as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"workload\": {},", quote(workload));
        let _ = writeln!(s, "  \"seed\": {seed},");
        let _ = writeln!(s, "  \"self_time_s\": {{");
        let selfs = self.self_times();
        for (i, (name, t)) in selfs.iter().enumerate() {
            let comma = if i + 1 < selfs.len() { "," } else { "" };
            let _ = writeln!(s, "    {}: {t}{comma}", quote(name));
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"counts\": {{");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            let comma = if i + 1 < self.counts.len() { "," } else { "" };
            let _ = writeln!(s, "    {}: {v}{comma}", quote(name));
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "    {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"round\": {}, \
                 \"start_s\": {}, \"end_s\": {}}}{comma}",
                quote(&sp.name),
                sp.round,
                sp.start,
                sp.end
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
    let mut total = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("round", 0.0, 10.0, None),
            span("dedup", 1.0, 4.0, Some(0)),
            span("compare", 2.0, 3.0, Some(1)),
            span("serve", 5.0, 9.0, Some(0)),
            // Reader and writer overlap inside the serve phase: together
            // they cover 5.5..8.5 = 3 s, not 2 + 2.5 s.
            span("read", 5.5, 7.5, Some(3)),
            span("write", 6.0, 8.5, Some(3)),
        ];
        let selfs = t.self_times();
        assert!((selfs["round"] - 3.0).abs() < 1e-12); // 10 − (3 + 4)
        assert!((selfs["dedup"] - 2.0).abs() < 1e-12);
        assert!((selfs["compare"] - 1.0).abs() < 1e-12);
        assert!((selfs["serve"] - 1.0).abs() < 1e-12); // 4 − 3
        assert!((selfs["read"] - 2.0).abs() < 1e-12);
        assert!((selfs["write"] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn self_times_add_up_per_name() {
        let mut t = Tracer::new(true);
        t.spans = vec![span("query", 0.0, 1.0, None), span("query", 2.0, 2.5, None)];
        assert!((t.self_times()["query"] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn time_nests_spans_and_returns_elapsed() {
        let mut t = Tracer::new(true);
        t.set_round(3);
        let (v, secs) = t.time("outer", |t| {
            let (inner, _) = t.time("inner", |_| 7);
            inner + 1
        });
        assert_eq!(v, 8);
        assert!(secs >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].name, "outer");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].round, 3);
        assert!(t.spans()[0].start <= t.spans()[1].start);
        assert!(t.spans()[1].end <= t.spans()[0].end);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.time("x", |t| t.count("c", 1.0));
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        assert!(t.counts.is_empty());
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::new(true);
        t.time("a \"quoted\" name", |t| t.count("n", 3.0));
        let doc = Json::parse(&t.to_json("match-full", 9)).expect("trace json parses");
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(9.0));
        assert_eq!(
            doc.get("spans").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("counts")
                .and_then(|c| c.get("n"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
