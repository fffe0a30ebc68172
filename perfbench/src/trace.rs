//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A [`Tracer`] is either off (every [`Tracer::span`] just runs its
//! closure) or on, in which case it keeps each span's name, start, end,
//! parent and run id in memory. Nothing is written while a run is being
//! measured; [`Tracer::to_jsonl`] renders the spans once the benchmark
//! ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `svm.grid`.
    pub name: &'static str,
    /// Start (ns since origin).
    pub start_ns: u64,
    /// End (ns since origin).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which measured run the span belongs to.
    pub run: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            run: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off and tags later spans with `run`.
    pub fn set_run(&mut self, enabled: bool, run: u32) {
        self.enabled = enabled;
        self.run = run;
    }

    /// Run id later spans are tagged with.
    #[must_use]
    pub fn run(&self) -> u32 {
        self.run
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Spans recorded so far.
    #[cfg(test)]
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name` in run `run`.
    #[must_use]
    pub fn durations_ms(&self, run: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed self time (s) per span name in run `run`: each span's
    /// duration minus the part its direct children cover.
    #[must_use]
    pub fn self_seconds(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            if s.run == run {
                let own = s.duration_ns().saturating_sub(covered);
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// One JSON object per span, one per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.run, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_run(true, 3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 3);
        let own = t.self_seconds(3);
        assert!(own["inner"] >= 0.002);
        assert!(own["outer"] < own["inner"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
