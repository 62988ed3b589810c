//! Spans the benchmark records around each call it makes into a layer.
//!
//! Spans live in memory while the traced pass runs and are written out
//! once, at exit. Nothing inside the program is instrumented: a span's
//! interval is the benchmark's own view of one call, and a layer's self
//! time is its span minus the part of that interval its child spans
//! cover.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `serve.op` or `compute.life.threads`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request identifier shared by the spans of one request.
    pub request: u64,
}

/// An append-only span log with a shared epoch, so logs recorded on
/// different threads can be merged.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log measuring from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; returns its index for [`Spans::close`] and for
    /// children's `parent`.
    pub fn open(&mut self, name: impl Into<String>, request: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now; returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Append another log recorded against the same epoch.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals (clipped to the parent).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.end_ns - s.start_ns - covered
            })
            .collect()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span named `name`, in recording order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// `pdc-bench-spans/1` JSON: every span with its self time, then a
    /// per-name rollup.
    pub fn to_json(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::from("{\"schema\":\"pdc-bench-spans/1\",\"spans\":[");
        let mut rollup: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            ));
            let r = rollup.entry(&s.name).or_default();
            r.0 += 1;
            r.1 += s.end_ns - s.start_ns;
            r.2 += self_ns;
        }
        out.push_str("],\"by_name\":[");
        for (i, (name, (count, total, own))) in rollup.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = Spans::new(Instant::now());
        log.spans = vec![
            span("pass", 0, 100, None),
            // Overlapping children count once: [10,50) covers 40.
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A child running past its parent is clipped at 100.
            span("d", 95, 120, Some(0)),
            // A grandchild is the child's business, not the pass's.
            span("e", 61, 69, Some(3)),
        ];
        assert_eq!(
            log.self_ns(),
            vec![100 - 40 - 10 - 5, 20, 30, 10 - 8, 25, 8]
        );
        assert_eq!(log.self_ms("pass"), vec![45.0 / 1e6]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        let root = a.open("root", 1, None);
        a.close(root);
        let mut b = Spans::new(epoch);
        let p = b.open("p", 2, None);
        let c = b.open("c", 2, Some(p));
        b.close(c);
        b.close(p);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(a
            .to_json()
            .contains("\"by_name\":[{\"name\":\"c\",\"count\":1"));
    }
}
