//! The harness-side span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer — nothing in the repository's crates is instrumented for it.
//! One [`Recorder`] per thread keeps its spans in memory; they are merged and
//! written when the run ends. A span carries its name, start, end, the span
//! that caused it, and the id of the operation it belongs to. A layer's
//! *self time* is its span's duration minus the part of that interval its
//! child spans cover.

use jgi_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` value of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span within the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation id: every span of one request shares it.
    pub op: u32,
    /// Recording thread (0 for single-threaded workloads).
    pub thread: u16,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Recorder::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Per-thread span recorder. When built with `on = false` every call is a
/// branch on one bool, so the untraced run shares the code path of the
/// traced one without paying for it.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    thread: u16,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder measuring against `epoch` (shared by all threads of a run
    /// so merged spans are on one time axis).
    pub fn new(epoch: Instant, thread: u16, on: bool) -> Recorder {
        Recorder { epoch, on, thread, op: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// Switch recording on or off between operations (a traced serve run
    /// starts with an untraced leg).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "cannot switch recording inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            thread: self.thread,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close a span opened by [`Recorder::open`]. Spans close innermost
    /// first; closing out of order is a harness bug.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Start time of a recorded span (0 when recording is off).
    pub fn start_of(&self, id: SpanId) -> u64 {
        if self.on {
            self.spans[id.0 as usize].start_ns
        } else {
            0
        }
    }

    /// Hang a child span of known duration under `parent`, starting at
    /// `start_ns`. This is how durations a layer *returns* (queue wait,
    /// prepare and execute times in a reply) become spans; the child is
    /// clipped to its parent's interval. Returns where the child ended, so
    /// consecutive phases can be chained.
    pub fn child_of(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let (p_start, p_end, op) = {
            let p = &self.spans[parent.0 as usize];
            (p.start_ns, p.end_ns, p.op)
        };
        let start = start_ns.clamp(p_start, p_end);
        let end = (start + dur_ns).min(p_end);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: parent.0,
            op,
            thread: self.thread,
        });
        end
    }

    /// Finish recording and hand the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "recorder dropped with open spans");
        self.spans
    }
}

/// Merge per-thread span lists into one, rebasing parent indices.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(threads.iter().map(Vec::len).sum());
    for spans in threads {
        let base = all.len() as u32;
        all.extend(spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Aggregated self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub spans: u64,
}

/// Self time of every span: duration minus the union of its children's
/// intervals (children may overlap each other; the union counts shared time
/// once).
pub fn self_times_per_span(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time, total time and span count per span name, name-ordered.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let per_span = self_times_per_span(spans);
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(per_span) {
        let e = out.entry(s.name).or_default();
        e.self_ns += self_ns;
        e.total_ns += s.dur_ns();
        e.spans += 1;
    }
    out
}

/// Total duration of the root spans — by construction also the sum of all
/// self times, i.e. the wall time the trace accounts for.
pub fn accounted_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == NO_PARENT).map(Span::dur_ns).sum()
}

/// The trace file: aggregated self times plus every raw span as
/// `[name index, start_ns, end_ns, parent, op, thread]`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut raw = Vec::with_capacity(spans.len());
    for s in spans {
        let idx = *index.entry(s.name).or_insert_with(|| {
            names.push(s.name);
            names.len() as u64 - 1
        });
        let parent =
            if s.parent == NO_PARENT { Json::Int(-1) } else { Json::UInt(s.parent as u64) };
        raw.push(Json::Arr(vec![
            Json::UInt(idx),
            Json::UInt(s.start_ns),
            Json::UInt(s.end_ns),
            parent,
            Json::UInt(s.op as u64),
            Json::UInt(s.thread as u64),
        ]));
    }
    let agg = self_times(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::obj([
                    ("self_ns", Json::UInt(t.self_ns)),
                    ("total_ns", Json::UInt(t.total_ns)),
                    ("spans", Json::UInt(t.spans)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::UInt(seed)),
        ("names".to_string(), Json::Arr(names.into_iter().map(Json::str).collect())),
        ("self_time".to_string(), Json::Obj(agg)),
        ("spans".to_string(), Json::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 1, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 50, 90, 0),
            span("a.inner", 20, 30, 1),
        ];
        assert_eq!(self_times_per_span(&spans), vec![30, 20, 40, 10]);
        let agg = self_times(&spans);
        assert_eq!(agg["op"], SelfTime { self_ns: 30, total_ns: 100, spans: 1 });
        assert_eq!(agg["a"].self_ns, 20);
        // Self times partition the root: they sum to its duration.
        let total: u64 = agg.values().map(|t| t.self_ns).sum();
        assert_eq!(total, accounted_ns(&spans));
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_children_count_shared_time_once() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("x", 10, 60, 0),
            span("y", 40, 80, 0),
            // Sticks out past its parent: only the part inside counts.
            span("z", 90, 150, 0),
        ];
        // Union of [10,60] ∪ [40,80] ∪ [90,100] = 70 + 10.
        assert_eq!(self_times_per_span(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_and_chains_synthetic_children() {
        let mut r = Recorder::new(Instant::now(), 3, true);
        r.next_op();
        let op = r.open("op");
        let h = r.open("handle");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(h);
        let t = r.start_of(h);
        let t = r.child_of(h, "prepare", t, 100_000);
        let t = r.child_of(h, "queue", t, 200_000);
        // Longer than what is left of the parent: clipped to its end.
        r.child_of(h, "exec", t, u64::MAX / 2);
        r.close(op);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[2..].iter().all(|s| s.parent == 1 && s.op == 1 && s.thread == 3));
        assert_eq!(spans[2].dur_ns(), 100_000);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert_eq!(spans[4].end_ns, spans[1].end_ns, "clipped to the parent");
        // The three phases tile the handle span: no self time is left.
        assert_eq!(self_times(&spans)["handle"].self_ns, 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let id = r.open("x");
        assert_eq!(r.child_of(id, "y", 0, 5), 0);
        r.close(id);
        assert_eq!(r.time("z", || 7), 7);
        assert!(r.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("op", 0, 10, NO_PARENT), span("k", 1, 2, 0)];
        let b = vec![span("op", 5, 9, NO_PARENT), span("k", 6, 7, 0)];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, 2);
        assert_eq!(all[1].parent, 0);
        assert_eq!(accounted_ns(&all), 14);
    }

    #[test]
    fn trace_json_lists_names_once() {
        let spans = vec![span("op", 0, 10, NO_PARENT), span("k", 1, 2, 0), span("k", 3, 4, 0)];
        let text = to_json("w", 1, &spans).render();
        assert!(text.contains(r#""names":["op","k"]"#), "{text}");
        assert!(text.contains(r#"[1,3,4,0,1,0]"#), "{text}");
        assert!(text.contains(r#""k":{"self_ns":2,"total_ns":2,"spans":2}"#), "{text}");
    }
}
