//! In-memory spans recorded by the benchmark around its calls into
//! each layer's public functions, and the self-time attribution that
//! reconciles them with wall time.
//!
//! A span's self time is its duration minus the part of it that its
//! children cover. Where children overlap each other (pipelined
//! requests in flight together), each instant they share is split
//! evenly between them, so the self times of all spans always add up
//! to the time the root covers — the layer rows plus the root's own
//! (unattributed) time equal wall time exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The request (query or operation) the span belongs to.
    pub req: u64,
}

/// Collects spans against a shared time origin.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.now();
        self.push(name, now, now, parent, req)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now().max(self.spans[id].start);
    }

    /// Lays `phases` (name, nanoseconds) end to end from the start of
    /// span `parent`, clipped to it: a program-reported phase split
    /// becomes children of the call that produced it.
    pub fn split(&mut self, parent: usize, phases: &[(&'static str, u64)]) {
        let Span {
            start, end, req, ..
        } = self.spans[parent];
        let mut t = start;
        for &(name, ns) in phases {
            let stop = (t + ns).min(end);
            if stop > t {
                self.push(name, t, stop, Some(parent), req);
            }
            t = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds (see the module docs).
pub fn attribute(spans: &[Span]) -> Vec<f64> {
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end > s.start {
            events.push((s.start, true, i));
            events.push((s.end, false, i));
        }
    }
    events.sort_unstable();
    let mut self_ns = vec![0.0; spans.len()];
    let mut active = vec![false; spans.len()];
    let mut active_children = vec![0usize; spans.len()];
    let mut leaves: BTreeSet<usize> = BTreeSet::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, is_start, i) in events {
        if t > last && !leaves.is_empty() {
            let share = (t - last) as f64 / leaves.len() as f64;
            for &leaf in &leaves {
                self_ns[leaf] += share;
            }
        }
        last = t;
        let parent = spans[i].parent.filter(|&p| p != i);
        if is_start {
            active[i] = true;
            if active_children[i] == 0 {
                leaves.insert(i);
            }
            if let Some(p) = parent {
                active_children[p] += 1;
                if active[p] && active_children[p] == 1 {
                    leaves.remove(&p);
                }
            }
        } else {
            active[i] = false;
            leaves.remove(&i);
            if let Some(p) = parent {
                active_children[p] -= 1;
                if active[p] && active_children[p] == 0 {
                    leaves.insert(p);
                }
            }
        }
    }
    self_ns
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(attribute(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.x", 15, 25, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        assert_eq!(attribute(&spans), vec![40.0, 20.0, 10.0, 30.0]);
    }

    #[test]
    fn overlapping_children_subtract_their_union() {
        // Children cover [10, 80): 70 of the parent's 100.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 80, Some(0)),
        ];
        let got = attribute(&spans);
        assert_eq!(got[0], 30.0);
        // The shared [30, 50) splits evenly.
        assert_eq!(got[1], 20.0 + 10.0);
        assert_eq!(got[2], 10.0 + 30.0);
        assert_eq!(got.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = [
            span("root", 0, 1000, None),
            span("req", 100, 400, Some(0)),
            span("req", 200, 700, Some(0)),
            span("send", 200, 220, Some(2)),
            span("lag", 100, 130, Some(1)),
            span("req", 650, 990, Some(0)),
        ];
        let total: f64 = attribute(&spans).iter().sum();
        assert!((total - 1000.0).abs() < 1e-9);
        let by_name = self_time_by_name(&spans);
        assert!((by_name.values().sum::<f64>() - 1000.0).abs() < 1e-9);
        assert_eq!(by_name["send"], 20.0 / 2.0);
    }

    #[test]
    fn split_lays_phases_inside_the_parent() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.push("root", 0, 100, None, 0);
        let call = rec.push("call", 10, 60, Some(root), 3);
        rec.split(call, &[("p1", 20), ("p2", 50), ("p3", 5)]);
        let s = rec.spans();
        assert_eq!((s[2].start, s[2].end, s[2].req), (10, 30, 3));
        assert_eq!((s[3].start, s[3].end), (30, 60));
        assert_eq!(s.len(), 4, "a phase past the parent's end is dropped");
    }
}
