//! In-memory spans around calls into the program's layers.
//!
//! A span records its name, start, end, the span that caused it and the
//! request it belongs to. Spans stay in memory until the run ends; then
//! they are written as Chrome trace JSON and reduced to per-layer self
//! time. With tracing off, [`Tracer::time`] only reads the clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// 0 outside any request.
    pub req: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn thread_id() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` and returns its result with its wall time in seconds,
    /// recording a span when tracing is on.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.time_req(name, None, f)
    }

    /// As [`Tracer::time`], starting request `req`; spans opened inside
    /// inherit it.
    pub fn time_req<R>(
        &self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !self.on {
            let started = Instant::now();
            let value = f();
            return (value, started.elapsed().as_secs_f64());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, inherited) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        let req = req.unwrap_or(inherited);
        STACK.with(|s| s.borrow_mut().push((id, req)));
        let started = Instant::now();
        let value = f();
        let ended = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        self.push(Span {
            name,
            id,
            parent,
            req,
            tid: thread_id(),
            start_ns: started.duration_since(self.origin).as_nanos() as u64,
            end_ns: ended.duration_since(self.origin).as_nanos() as u64,
        });
        (value, ended.duration_since(started).as_secs_f64())
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
    }

    /// Records a span over an interval measured by the caller, for a step
    /// that starts in one call and ends inside a callback.
    pub fn record_interval(&self, name: &'static str, started: Instant, ended: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, req) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        self.push(Span {
            name,
            id,
            parent,
            req,
            tid: thread_id(),
            start_ns: started.duration_since(self.origin).as_nanos() as u64,
            end_ns: ended.duration_since(self.origin).as_nanos() as u64,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

/// Self time per span: its duration minus the part of its interval its
/// children cover (children on other threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self seconds and span count per layer, sorted by layer name.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, ns) in self_times(spans) {
        let entry = out.entry(span.layer()).or_default();
        entry.0 += ns as f64 * 1e-9;
        entry.1 += 1;
    }
    out
}

/// Writes `spans` as Chrome trace JSON (complete events, microseconds).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}{sep}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "core.x",
            id,
            parent,
            req: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 80, 90),
        ];
        let selfs: Vec<u64> = self_times(&spans).into_iter().map(|(_, ns)| ns).collect();
        assert_eq!(selfs, vec![100 - 50 - 10, 30, 30, 10]);
    }

    #[test]
    fn nested_spans_record_parent_and_request() {
        let tracer = Tracer::new(true);
        tracer.time_req("bench.outer", Some(7), || tracer.time("core.inner", || ()));
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "core.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "bench.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, 7);
        assert!(!Tracer::new(false).is_on());
    }
}
