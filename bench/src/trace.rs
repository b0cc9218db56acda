//! Spans recorded from outside the library: the traced run stamps both
//! clocks around each call into a layer's public functions. Spans stay
//! in memory and are only aggregated (and optionally written out) after
//! the measured phase ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// The loop iteration (serve batch or pump round) the span ran in.
    pub batch: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    pub sim_start: u64,
    pub sim_end: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Requests the call handled.
    pub ops: u64,
    /// Calls into the layer's public function the span covers.
    pub calls: u64,
}

/// Sums over every span of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub sim_cycles: u64,
    pub host_ns: u64,
    pub calls: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn host_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span at simulated time `sim_now` (read from whichever
    /// core's clock the call charges) and returns its index.
    pub fn open(
        &mut self,
        name: &'static str,
        batch: u64,
        parent: Option<usize>,
        sim_now: u64,
    ) -> usize {
        let host = self.host_ns();
        self.spans.push(Span {
            name,
            batch,
            parent,
            sim_start: sim_now,
            sim_end: sim_now,
            host_start_ns: host,
            host_end_ns: host,
            ops: 0,
            calls: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, sim_now: u64, ops: u64, calls: u64) {
        let host = self.host_ns();
        let s = &mut self.spans[id];
        s.sim_end = sim_now;
        s.host_end_ns = host;
        s.ops = ops;
        s.calls = calls;
    }

    /// Renames an open span, for a call whose kind is only known once
    /// it returns.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn totals(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.sim_cycles += s.sim_end - s.sim_start;
            t.host_ns += s.host_end_ns - s.host_start_ns;
            t.calls += s.calls;
        }
        t
    }

    /// Self time of every span named `name`: its duration minus the
    /// part its direct children cover. `calls` is left at zero.
    pub fn self_time(&self, name: &str) -> Totals {
        let mut t = self.totals(name);
        t.calls = 0;
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].name == name) {
                t.sim_cycles -= s.sim_end - s.sim_start;
                t.host_ns -= s.host_end_ns - s.host_start_ns;
            }
        }
        t
    }

    /// The spans as one JSON document (hand-written: no JSON crate is
    /// vendored).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{workload}\",\"batch\":{},\"parent\":{parent},\
                 \"sim_start\":{},\"sim_end\":{},\"host_start_ns\":{},\"host_end_ns\":{},\"ops\":{}}}",
                s.name, s.batch, s.sim_start, s.sim_end, s.host_start_ns, s.host_end_ns, s.ops
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_self_time() {
        let mut tr = Tracer::new();
        let root = tr.open("bench.round", 0, None, 100);
        let a = tr.open("apps.io.recv", 0, Some(root), 100);
        tr.close(a, 140, 4, 1);
        let b = tr.open("apps.kvs.serve", 0, Some(root), 140);
        tr.close(b, 400, 4, 4);
        tr.close(root, 450, 4, 1);
        let root2 = tr.open("bench.round", 1, None, 450);
        tr.close(root2, 460, 0, 1);

        assert_eq!(tr.totals("apps.io.recv").sim_cycles, 40);
        assert_eq!(tr.totals("apps.kvs.serve").calls, 4);
        assert_eq!(tr.totals("bench.round").sim_cycles, 360);
        assert_eq!(tr.totals("bench.round").calls, 2);
        // 360 cycles of rounds minus 40 + 260 in children.
        assert_eq!(tr.self_time("bench.round").sim_cycles, 60);
        assert_eq!(tr.totals("no.such.span"), Totals::default());

        let json = tr.to_json("w");
        assert_eq!(json.matches("\"name\":").count(), 4);
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
    }
}
