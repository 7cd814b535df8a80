//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's `pub` API in a
//! span (name, start, end, parent). Spans stay in memory and are written
//! once, when the run ends. Only the main thread records; with tracing
//! off, [`span`] is a plain call and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Stopwatch;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (drops anything recorded before).
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and hands back every span recorded.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            let now = rec.origin.nanos();
            rec.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: rec.open.last().copied(),
            });
            rec.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.nanos();
                rec.open.pop();
            }
        });
    }
    out
}

/// Per-span self time: its duration minus the part its children cover.
/// Children of one span run one after another on the recording thread,
/// so their coverage is the sum of their durations.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.secs();
        }
    }
    out
}

/// Count, total and self seconds per span name, in name order.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_secs(spans);
    let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += own;
    }
    by_name
}

/// The spans as tab-separated lines: index, parent (-1 for none), name,
/// start and end in nanoseconds.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        enable();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_secs(&spans);
        assert!(selfs[0] < spans[0].secs());
        assert!((selfs[0] + spans[1].secs() - spans[0].secs()).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty());
    }
}
