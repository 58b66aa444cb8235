//! In-memory spans for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side:
//! name, start, end, the span that caused it and the run (simulation)
//! it belongs to. Spans stay in memory and are written once, as JSON,
//! when the benchmark ends. Nothing here reaches a `SimReport`.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
    /// A phase total from `PhaseProfile` rather than one contiguous
    /// interval: the phases of one tick loop are laid end to end from
    /// the loop's start, so their durations are exact but their
    /// positions are not.
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, run: u32) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
            parent,
            run,
            aggregate: false,
        });
        self.spans.len() - 1
    }

    /// End span `id` now and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let t = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = t;
        span.duration_ns() as f64 * 1e-9
    }

    /// Record per-phase totals as aggregate children of `parent`.
    pub fn add_totals(&mut self, parent: usize, totals: &[(&str, u64)]) {
        let (mut t, run) = (self.spans[parent].start_ns, self.spans[parent].run);
        for &(name, nanos) in totals {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: t,
                end_ns: t + nanos,
                parent: Some(parent),
                run,
                aggregate: true,
            });
            t += nanos;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover (children of one span never overlap,
    /// because every traced call is made from one thread in sequence).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"run\":{},\"aggregate\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run, s.aggregate
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("tick_loop", None, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(root);
        let d = t.spans()[root].duration_ns();
        t.add_totals(root, &[("a", d / 4), ("b", d / 4)]);
        let self_ns = t.self_times();
        assert_eq!(self_ns[root], d - 2 * (d / 4));
        assert_eq!(self_ns[root + 1], d / 4);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"b\""));
        assert!(json.contains(&format!("\"parent\":{root}")));
    }
}
