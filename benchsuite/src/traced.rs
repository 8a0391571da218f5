//! Span windows for the traced run.
//!
//! The benchmark wraps each traced op in a marker span of its own and
//! drains the rings right after it. `export::drain` does not clear the
//! rings, so the op's events are the ones whose interval lies inside the
//! newest marker. A ring keeps only its newest `RING_CAP` events; if a
//! ring is full and its oldest retained event ended inside the window,
//! events of the window may have been overwritten, and the window is
//! refused.

use parclust_obs::export::drain;
use parclust_obs::trace::{self, RING_CAP};
use parclust_obs::TraceEvent;
use std::collections::BTreeMap;

/// Self time (span time minus time covered by child spans on the same
/// thread), summed per span name, in seconds.
pub type SelfTimes = BTreeMap<&'static str, f64>;

/// Run `op` with tracing on, then return its result, the self times of the
/// events inside its marker span, and whether that window is complete (no
/// ring wrapped over it). `op` must hold a span named `marker` over all of
/// its work.
pub fn traced<R>(marker: &'static str, op: impl FnOnce() -> R) -> (R, SelfTimes, bool) {
    trace::enable();
    let out = op();
    trace::disable();
    let events = drain();
    let (times, complete) = window_self_times(&events, marker);
    (out, times, complete)
}

fn end(e: &TraceEvent) -> u64 {
    e.ts_ns + e.dur_ns
}

/// Self times of the events inside the newest `marker` event, and whether
/// every ring still held all of them.
fn window_self_times(events: &[TraceEvent], marker: &str) -> (SelfTimes, bool) {
    let Some(w) = events
        .iter()
        .filter(|e| e.name == marker)
        .max_by_key(|e| e.ts_ns)
    else {
        return (SelfTimes::new(), false);
    };
    let (lo, hi) = (w.ts_ns, end(w));

    let mut per_tid: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        per_tid.entry(e.tid).or_default().push(e);
    }
    let mut complete = true;
    let mut times = SelfTimes::new();
    for evs in per_tid.values() {
        // Events are pushed in completion order, so the earliest-ending
        // retained event is the oldest; anything overwritten ended before it.
        let oldest_end = evs.iter().map(|e| end(e)).min().unwrap_or(0);
        if evs.len() >= RING_CAP && oldest_end >= lo {
            complete = false;
        }
        let mut inside: Vec<&TraceEvent> = evs
            .iter()
            .copied()
            .filter(|e| e.ts_ns >= lo && end(e) <= hi && !std::ptr::eq(*e, w))
            .collect();
        inside.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        accumulate_self_times(&inside, &mut times);
    }
    (times, complete)
}

/// One thread's events sorted by start (longest first on ties): a span's
/// children are the spans nested directly inside it.
fn accumulate_self_times(sorted: &[&TraceEvent], times: &mut SelfTimes) {
    let mut child_ns = vec![0u64; sorted.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in sorted.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if end(sorted[top]) >= end(e) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += e.dur_ns;
        }
        stack.push(i);
    }
    for (e, child) in sorted.iter().zip(child_ns) {
        *times.entry(e.name).or_default() += e.dur_ns.saturating_sub(child) as f64 * 1e-9;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            tid,
            ts_ns: ts,
            dur_ns: dur,
            arg: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            ev("old", 0, 0, 5),
            ev("bench.emst", 0, 10, 100),
            ev("outer", 1, 20, 50),
            ev("inner", 1, 30, 10),
            ev("innermost", 1, 32, 4),
            ev("sibling", 1, 80, 20),
            ev("late", 1, 200, 5),
        ];
        let (t, complete) = window_self_times(&events, "bench.emst");
        assert!(complete);
        let ns = |name| (t[name] * 1e9).round() as u64;
        assert_eq!(ns("outer"), 40);
        assert_eq!(ns("inner"), 6);
        assert_eq!(ns("innermost"), 4);
        assert_eq!(ns("sibling"), 20);
        assert!(!t.contains_key("old") && !t.contains_key("late"));
    }

    #[test]
    fn full_ring_ending_inside_window_is_incomplete() {
        let mut events: Vec<TraceEvent> = (0..RING_CAP as u64)
            .map(|i| ev("x", 1, 50 + i, 1))
            .collect();
        events.push(ev("bench.emst", 0, 40, 100_000));
        assert!(!window_self_times(&events, "bench.emst").1);
        // The same full ring is fine when its oldest event predates the window.
        events[0] = ev("x", 1, 0, 1);
        assert!(window_self_times(&events, "bench.emst").1);
    }
}
