//! Spans around the benchmark's own calls into each layer.
//!
//! A span has a name (the layer and call, e.g. `server.submit`), the id of
//! the session it served (0 when it served none), its parent span, start
//! and end, and a work count (actions, frames, calls) for per-unit ratios.
//! Spans live in a per-thread buffer and are merged when the thread calls
//! [`flush_thread`]; nothing is written until the run ends.
//!
//! Self time (a span's duration minus the time its child spans cover) is
//! folded into per-name totals the moment a span closes, so the totals
//! cover every span even though only the first [`KEEP_SPANS`] are kept for
//! the span file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::util::{ns, Json};

/// Spans kept individually for the span file (per run, all threads).
const KEEP_SPANS: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static KEPT: AtomicUsize = AtomicUsize::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    stats: BTreeMap::new(),
    next_thread: 0,
});

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub session: u64,
    /// Index of the parent in the merged span list.
    pub parent: Option<usize>,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// Per-name totals: calls, summed duration, summed self time, summed work
/// count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

impl LayerStat {
    fn add(&mut self, other: &LayerStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.count += other.count;
    }

    /// Mean self time per call.
    pub fn self_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }

    /// Self time per unit of work.
    pub fn self_per_unit(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

struct Sink {
    spans: Vec<SpanRec>,
    stats: BTreeMap<&'static str, LayerStat>,
    next_thread: u32,
}

struct Open {
    name: &'static str,
    session: u64,
    start: Instant,
    child_ns: u64,
    count: u64,
    /// Index in the thread's kept spans, if it is kept.
    kept: Option<usize>,
}

#[derive(Default)]
struct Local {
    thread: Option<u32>,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    /// Parent of each kept span, as an index into `spans`.
    parents: Vec<Option<usize>>,
    stats: BTreeMap<&'static str, LayerStat>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it closes when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    open: bool,
}

/// Opens a span (a no-op guard when tracing is off).
pub fn start(name: &'static str, session: u64) -> Guard {
    if !enabled() {
        return Guard { open: false };
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let kept = if KEPT.fetch_add(1, Ordering::Relaxed) < KEEP_SPANS {
            let parent = local.stack.last().and_then(|o| o.kept);
            local.spans.push(SpanRec {
                name,
                session,
                parent: None,
                thread: 0,
                start_ns: 0,
                end_ns: 0,
                count: 0,
            });
            local.parents.push(parent);
            Some(local.spans.len() - 1)
        } else {
            None
        };
        local.stack.push(Open {
            name,
            session,
            start: Instant::now(),
            child_ns: 0,
            count: 0,
            kept,
        });
    });
    Guard { open: true }
}

impl Guard {
    /// Sets the session the span served (known only after the call for,
    /// e.g., an outcome wait).
    pub fn session(&self, session: u64) {
        if self.open {
            LOCAL.with(|l| {
                if let Some(top) = l.borrow_mut().stack.last_mut() {
                    top.session = session;
                }
            });
        }
    }

    /// Adds units of work done under the span.
    pub fn count(&self, n: u64) {
        if self.open {
            LOCAL.with(|l| {
                if let Some(top) = l.borrow_mut().stack.last_mut() {
                    top.count += n;
                }
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let end = Instant::now();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let Some(open) = local.stack.pop() else {
                return;
            };
            let dur = ns(end.saturating_duration_since(open.start));
            if let Some(parent) = local.stack.last_mut() {
                parent.child_ns += dur;
            }
            let stat = local.stats.entry(open.name).or_default();
            stat.calls += 1;
            stat.total_ns += dur;
            stat.self_ns += dur.saturating_sub(open.child_ns);
            stat.count += open.count;
            if let Some(i) = open.kept {
                let epoch = *EPOCH.get_or_init(Instant::now);
                let rec = &mut local.spans[i];
                rec.session = open.session;
                rec.start_ns = ns(open.start.saturating_duration_since(epoch));
                rec.end_ns = ns(end.saturating_duration_since(epoch));
                rec.count = open.count;
            }
        });
    }
}

/// Merges this thread's closed spans into the run's totals. Call it with
/// no span open, before the thread ends.
pub fn flush_thread() {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        assert!(local.stack.is_empty(), "flush with a span still open");
        let mut sink = SINK
            .lock()
            .expect("span sink poisoned by a panicking thread");
        let thread = match local.thread {
            Some(t) => t,
            None => {
                let t = sink.next_thread;
                sink.next_thread += 1;
                local.thread = Some(t);
                t
            }
        };
        let base = sink.spans.len();
        let spans = std::mem::take(&mut local.spans);
        let parents = std::mem::take(&mut local.parents);
        for (mut rec, parent) in spans.into_iter().zip(parents) {
            rec.thread = thread;
            rec.parent = parent.map(|p| base + p);
            sink.spans.push(rec);
        }
        for (name, stat) in std::mem::take(&mut local.stats) {
            sink.stats.entry(name).or_default().add(&stat);
        }
    });
}

/// The merged per-name totals so far.
pub fn stats() -> BTreeMap<&'static str, LayerStat> {
    SINK.lock().expect("span sink poisoned").stats.clone()
}

/// The kept spans as JSON lines.
pub fn spans_jsonl() -> String {
    let sink = SINK.lock().expect("span sink poisoned");
    let mut out = String::new();
    for s in &sink.spans {
        let line = Json::obj(vec![
            ("name", Json::str(s.name)),
            ("session", Json::Int(s.session)),
            (
                "parent",
                s.parent
                    .map_or(Json::Num(f64::NAN), |p| Json::Int(p as u64)),
            ),
            ("thread", Json::Int(u64::from(s.thread))),
            ("start_ns", Json::Int(s.start_ns)),
            ("end_ns", Json::Int(s.end_ns)),
            ("count", Json::Int(s.count)),
        ]);
        line.write(&mut out);
        out.push('\n');
    }
    out
}
