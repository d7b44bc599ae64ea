//! In-memory span recorder and the self-time arithmetic behind the
//! per-layer table.
//!
//! Spans are recorded only while tracing is switched on
//! ([`set_enabled`]); otherwise every probe is one relaxed atomic load.
//! Each thread buffers its spans locally and hands them to a global
//! buffer when the buffer fills or the thread exits, so probes never
//! contend on a lock in the common case.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Request the span worked for: the id of the enclosing request span
    /// (one sample walk, one server request), 0 when there is none.
    pub req: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, in ns since the process's trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (the first call in the process).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switch span recording on or off.
pub fn set_enabled(on: bool) {
    // Fix the epoch before the first span so every timestamp is positive.
    let _ = epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

const FLUSH_AT: usize = 4096;

struct Local {
    /// Thread number in the high bits of every span id this thread makes.
    thread: u64,
    next: u64,
    /// Open spans: (id, request id).
    stack: Vec<(u64, u64)>,
    buf: Vec<Span>,
}

impl Local {
    fn new() -> Self {
        Local {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            next: 0,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if let Ok(mut all) = COLLECTED.lock() {
            all.append(&mut self.buf);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.last().map(|&(id, _)| id) == Some(self.id) {
                l.stack.pop();
            }
            l.buf.push(Span {
                id: self.id,
                parent: self.parent,
                req: self.req,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
            if l.buf.len() >= FLUSH_AT {
                l.flush();
            }
        });
    }
}

fn open(name: &'static str, new_request: bool) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = l.fresh_id();
        let (parent, inherited) = l.stack.last().copied().unwrap_or((0, 0));
        let req = if new_request { id } else { inherited };
        l.stack.push((id, req));
        Some(Guard {
            id,
            parent,
            req,
            name,
            start_ns: now_ns(),
        })
    })
}

/// Open a span named `name` under the thread's innermost open span.
pub fn span(name: &'static str) -> Option<Guard> {
    open(name, false)
}

/// Open a span that starts a new request: it and every span under it
/// carry its id as their request id.
pub fn request_span(name: &'static str) -> Option<Guard> {
    open(name, true)
}

/// Every span recorded so far, from every thread that has exited or
/// flushed plus the calling thread, sorted by start time. Clears the
/// buffers.
pub fn take_all() -> Vec<Span> {
    LOCAL.with(|l| l.borrow_mut().flush());
    let mut all = std::mem::take(&mut *COLLECTED.lock().expect("span buffer lock"));
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap each
/// other and may outlive their parent; only the covered part of the
/// parent's own interval is subtracted.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-layer totals over a span set.
#[derive(Debug, Default, Clone)]
pub struct LayerTable {
    /// Layer name → (span count, total duration ns, total self ns).
    pub layers: HashMap<&'static str, (u64, u64, u64)>,
    /// Summed duration of the root spans named `root`.
    pub wall_ns: u64,
    /// The part of `wall_ns` that no named layer covers: the self time of
    /// the root spans and of the catch-all spans.
    pub unattributed_ns: u64,
}

impl LayerTable {
    /// Tabulate `spans`, taking root spans named `root` as the measured
    /// wall time. A `catch_all` span wraps a whole session so that time
    /// above the wrapped layers still has a name (`driver`); its self
    /// time counts as unattributed, since no layer decorator measured it.
    /// Spans on other trees (e.g. server threads) are counted per layer
    /// but do not enter the wall or the remainder.
    pub fn build(spans: &[Span], root: &str, catch_all: &str) -> Self {
        let selfs = self_times(spans);
        let mut t = LayerTable::default();
        for s in spans {
            let own = selfs.get(&s.id).copied().unwrap_or(0);
            let e = t.layers.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
            if s.parent == 0 && s.name == root {
                t.wall_ns += s.dur_ns();
                t.unattributed_ns += own;
            } else if s.name == catch_all {
                t.unattributed_ns += own;
            }
        }
        t
    }

    /// Span count of a layer.
    pub fn count(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |e| e.0)
    }

    /// Total duration of a layer's spans, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |e| e.1 as f64 / 1e6)
    }

    /// Total self time of a layer's spans, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |e| e.2 as f64 / 1e6)
    }

    /// The unattributed remainder as a percentage of the wall time.
    pub fn unattributed_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        100.0 * self.unattributed_ns as f64 / self.wall_ns as f64
    }

    /// Human-readable self-time table, largest layer first.
    pub fn render(&self) -> String {
        let mut rows: Vec<_> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
        let wall = self.wall_ns.max(1) as f64;
        let mut out = format!(
            "{:<16} {:>9} {:>12} {:>12} {:>8}\n",
            "layer", "spans", "total ms", "self ms", "self %"
        );
        for (name, &(n, total, own)) in rows {
            out += &format!(
                "{:<16} {:>9} {:>12.3} {:>12.3} {:>8.2}\n",
                name,
                n,
                total as f64 / 1e6,
                own as f64 / 1e6,
                100.0 * own as f64 / wall
            );
        }
        out += &format!(
            "{:<16} {:>9} {:>12} {:>12.3} {:>8.2}\n",
            "(unattributed)",
            "",
            "",
            self.unattributed_ns as f64 / 1e6,
            self.unattributed_pct()
        );
        out
    }
}

/// Write `spans` as JSON lines (at most `cap` of them) to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(cap) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        let spans = [
            sp(1, 0, "round", 0, 100),
            sp(2, 1, "walk", 10, 40),
            sp(3, 2, "history", 20, 30),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 70);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 10);
        // Self times of a properly nested tree add up to the root.
        assert_eq!(s.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = [
            sp(1, 0, "round", 0, 100),
            sp(2, 1, "fetch", 10, 40),
            sp(3, 1, "fetch", 30, 60),
            sp(4, 1, "fetch", 35, 50),
            sp(5, 1, "fetch", 80, 90),
        ];
        let s = self_times(&spans);
        // Union of [10,60) and [80,90) is 60 ns.
        assert_eq!(s[&1], 40);
        assert_eq!(s[&2], 30);
    }

    #[test]
    fn children_outliving_their_parent_are_clipped() {
        let spans = [
            sp(1, 0, "round", 100, 200),
            sp(2, 1, "fetch", 50, 120),
            sp(3, 1, "fetch", 190, 260),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 20 - 10);
    }

    #[test]
    fn layer_table_counts_the_root_and_catch_all_remainder_as_unattributed() {
        let spans = [
            sp(1, 0, "round", 0, 100),
            sp(2, 1, "walk", 0, 90),
            sp(3, 2, "hidden_db", 10, 50),
            sp(4, 0, "round", 200, 300),
            sp(5, 4, "driver", 200, 300),
            sp(6, 5, "walk", 210, 280),
            // A root on another tree (a server thread) is tabulated but
            // stays out of the wall and the remainder.
            sp(7, 0, "server.get", 0, 500),
        ];
        let t = LayerTable::build(&spans, "round", "driver");
        assert_eq!(t.wall_ns, 200);
        // 10 ns of round 1 and 30 ns of round 2's driver are uncovered.
        assert_eq!(t.unattributed_ns, 40);
        assert!((t.unattributed_pct() - 20.0).abs() < 1e-9);
        assert_eq!(t.count("walk"), 2);
        assert!((t.self_ms("walk") - 120.0 / 1e6).abs() < 1e-12);
        assert!((t.self_ms("driver") - 30.0 / 1e6).abs() < 1e-12);
        assert!((t.total_ms("server.get") - 500.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn a_catch_all_covering_everything_leaves_the_whole_wall_unattributed() {
        // With no layer spans under it, the catch-all's time is all
        // remainder: the ≥ 90 % attribution check can fail.
        let spans = [sp(1, 0, "round", 0, 100), sp(2, 1, "driver", 5, 100)];
        let t = LayerTable::build(&spans, "round", "driver");
        assert_eq!(t.unattributed_ns, 100);
        assert!((t.unattributed_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn guards_nest_and_share_the_request_id() {
        set_enabled(true);
        let root = span("round").expect("tracing on");
        let walk = request_span("walk").expect("tracing on");
        drop(span("history"));
        drop(walk);
        drop(root);
        set_enabled(false);
        let mine = take_all();
        let round = mine.iter().find(|s| s.name == "round").expect("round");
        let walk = mine.iter().find(|s| s.name == "walk").expect("walk");
        let hist = mine.iter().find(|s| s.name == "history").expect("history");
        assert_eq!(round.parent, 0);
        assert_eq!(walk.parent, round.id);
        assert_eq!(hist.parent, walk.id);
        assert_eq!(walk.req, walk.id);
        assert_eq!(hist.req, walk.id);
        assert!(span("off").is_none());
    }
}
