//! In-memory span recorder for traced runs.
//!
//! Every wrapper in [`crate::layers`] (and every timed call the
//! workloads make into a layer's public functions) opens a span with a
//! static name, the job id where one exists, and the enclosing span of
//! the same thread as its parent. Spans stay in per-thread buffers
//! until [`collect`] gathers them at the end of the run; self time is
//! the span's duration minus its direct children's.
//!
//! Recording is off unless [`set_enabled`] turned it on, and a disabled
//! [`enter`] costs one relaxed atomic load — untraced runs use the
//! bare layers anyway, so this only matters for shared helpers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// No parent / no job.
pub const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span in the same thread's list, or
    /// [`NONE`].
    pub parent: u32,
    /// Interned job id, or [`NONE`].
    pub job: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Span lists of threads that have exited (or flushed).
static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

struct ThreadBuf {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.push(std::mem::take(&mut self.spans));
            }
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf { spans: Vec::new(), open: Vec::new() })
    };
}

/// The trace epoch (first use fixes it).
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Release);
}

/// `true` while recording.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when this guard drops"]
pub struct Guard {
    index: u32,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.index == NONE {
            return;
        }
        let end = now_ns();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            b.spans[self.index as usize].end = end;
            let top = b.open.pop();
            debug_assert_eq!(top, Some(self.index), "spans must close in LIFO order");
        });
    }
}

/// Opens a span named `name` for `job` (or [`NONE`]).
pub fn enter(name: &'static str, job: u32) -> Guard {
    if !enabled() {
        return Guard { index: NONE };
    }
    let start = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.open.last().copied().unwrap_or(NONE);
        let index = b.spans.len() as u32;
        b.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            job,
        });
        b.open.push(index);
        Guard { index }
    })
}

/// Re-labels the job of the innermost open span of this thread (for a
/// span whose job is only known after the call it wraps returned).
pub fn set_job(job: u32) {
    if !enabled() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if let Some(&i) = b.open.last() {
            b.spans[i as usize].job = job;
        }
    });
}

/// Moves the calling thread's spans into the sink. Threads that exit
/// flush on their own.
fn flush_current() {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        assert!(b.open.is_empty(), "collect with open spans");
        if !b.spans.is_empty() {
            let spans = std::mem::take(&mut b.spans);
            SINK.lock().expect("trace sink").push(spans);
        }
    });
}

/// Every span recorded since the last collect, grouped per thread.
/// Call after worker threads have been joined.
pub fn collect() -> Vec<Vec<Span>> {
    flush_current();
    std::mem::take(&mut *SINK.lock().expect("trace sink"))
}

/// Per-name totals over a set of thread span lists.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, s.
    pub total_s: f64,
    /// Sum of self times (duration − direct children), s.
    pub self_s: f64,
}

/// Aggregated view of one run's spans.
pub struct Summary {
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, NameStats>,
}

impl Summary {
    /// Aggregates `threads`.
    pub fn of(threads: &[Vec<Span>]) -> Summary {
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for spans in threads {
            let mut child = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NONE {
                    child[s.parent as usize] += s.end.saturating_sub(s.start);
                }
            }
            for (s, c) in spans.iter().zip(&child) {
                let dur = s.end.saturating_sub(s.start);
                let e = by_name.entry(s.name).or_default();
                e.count += 1;
                e.total_s += dur as f64 * 1e-9;
                e.self_s += dur.saturating_sub(*c) as f64 * 1e-9;
            }
        }
        Summary { by_name }
    }

    /// Stats of one span name (zero if never recorded).
    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Sum of self time over every span name starting with `prefix`.
    pub fn self_of_prefix(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s.self_s)
            .sum()
    }
}

/// Durations (s) of every span named `name`.
pub fn durations(threads: &[Vec<Span>], name: &str) -> Vec<f64> {
    threads
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}
