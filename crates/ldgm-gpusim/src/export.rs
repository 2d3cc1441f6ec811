//! Trace export: Chrome-trace / Perfetto JSON and timeline-based phase
//! attribution.
//!
//! [`chrome_trace_json`] turns a [`Trace`] into the JSON array format
//! understood by `chrome://tracing` and [ui.perfetto.dev]: one complete
//! (`"ph":"X"`) duration event per span, one process (`pid`) per simulated
//! device, one thread (`tid`) lane per [`EventKind`], timestamps in
//! microseconds.
//!
//! [`timeline_breakdown`] is the exact counterpart of the accumulated
//! [`PhaseBreakdown`] a driver collects while scheduling: instead of
//! summing per-operation costs (which double-counts overlap and omits
//! idle gaps), it partitions the wall interval `[0, sim_time]` of every
//! device into phases and averages across devices — so the result sums to
//! `sim_time` exactly, the invariant the JSON run report promises.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::BinaryHeap;

use crate::json::Json;
use crate::profile::PhaseBreakdown;
use crate::trace::{EventKind, Trace};

/// Lane index (Chrome `tid`) of an event kind; fixed so traces from
/// different runs line up in the viewer.
pub fn lane(kind: EventKind) -> u64 {
    match kind {
        EventKind::Kernel => 0,
        EventKind::H2dCopy => 1,
        EventKind::Collective => 2,
        EventKind::HostSync => 3,
    }
}

fn lane_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Kernel => "compute",
        EventKind::H2dCopy => "copy",
        EventKind::Collective => "collective",
        EventKind::HostSync => "sync",
    }
}

fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Kernel => "kernel",
        EventKind::H2dCopy => "h2d",
        EventKind::Collective => "collective",
        EventKind::HostSync => "sync",
    }
}

const ALL_KINDS: [EventKind; 4] =
    [EventKind::Kernel, EventKind::H2dCopy, EventKind::Collective, EventKind::HostSync];

/// Convert a trace into a Chrome-trace JSON document (the top-level JSON
/// array variant). Open the written file directly in `chrome://tracing`
/// or drag it into the Perfetto UI.
pub fn chrome_trace_json(trace: &Trace) -> Json {
    let ndev = trace.events.iter().map(|e| e.device + 1).max().unwrap_or(0);
    let mut events = Vec::new();
    // Metadata events name each device's process and each lane's thread.
    for d in 0..ndev {
        events.push(
            Json::object()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", d)
                .with("tid", 0u64)
                .with("args", Json::object().with("name", format!("device {d}"))),
        );
        for kind in ALL_KINDS {
            events.push(
                Json::object()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", d)
                    .with("tid", lane(kind))
                    .with("args", Json::object().with("name", lane_name(kind))),
            );
        }
    }
    for e in &trace.events {
        events.push(
            Json::object()
                .with("name", e.label.as_ref())
                .with("cat", category(e.kind))
                .with("ph", "X")
                .with("pid", e.device)
                .with("tid", lane(e.kind))
                .with("ts", e.start * 1e6)
                .with("dur", (e.end - e.start) * 1e6),
        );
    }
    Json::Array(events)
}

/// Attribution priority when spans overlap on one device (collectives
/// block everything; kernels hide the copies they overlap; explicit sync
/// only counts where nothing else runs). Matches the Gantt renderer.
fn priority(kind: EventKind) -> u8 {
    match kind {
        EventKind::Collective => 3,
        EventKind::Kernel => 2,
        EventKind::H2dCopy => 1,
        EventKind::HostSync => 0,
    }
}

/// Phase slot of a span: kernels split into pointing/matching by label,
/// other kinds map 1:1. Returns an index into the breakdown's field order
/// (pointing, matching, allreduce, transfer, sync).
fn phase_slot(kind: EventKind, label: &str) -> usize {
    match kind {
        EventKind::Kernel => {
            if label.contains("mate") {
                1
            } else {
                0
            }
        }
        EventKind::Collective => 2,
        EventKind::H2dCopy => 3,
        EventKind::HostSync => 4,
    }
}

/// Partition `[0, sim_time]` of every device into the five phases and
/// average across devices. Device time not covered by any span (idle,
/// e.g. waiting on a straggler before a collective) is attributed to
/// `sync`. The returned breakdown's [`PhaseBreakdown::total`] equals
/// `sim_time` up to floating-point rounding.
///
/// Runs in O(E log E) for E events: one sweep per device over its spans
/// sorted by start.
pub fn timeline_breakdown(trace: &Trace, sim_time: f64) -> PhaseBreakdown {
    let ndev = trace.events.iter().map(|e| e.device + 1).max().unwrap_or(0);
    if ndev == 0 || sim_time <= 0.0 {
        return PhaseBreakdown { sync: sim_time.max(0.0), ..Default::default() };
    }
    let mut slots = [0.0f64; 5];
    for d in 0..ndev {
        let mut dev_events: Vec<_> =
            trace.events.iter().filter(|e| e.device == d && e.end > e.start).collect();
        dev_events.sort_by(|a, b| a.start.total_cmp(&b.start));
        // Boundary sweep: between consecutive boundaries exactly one set
        // of spans is active; bill the interval to the highest-priority
        // one.
        let mut bounds: Vec<f64> = dev_events
            .iter()
            .flat_map(|e| [e.start, e.end])
            .filter(|t| *t > 0.0 && *t < sim_time)
            .collect();
        bounds.push(0.0);
        bounds.push(sim_time);
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        // A span is active at an interval's midpoint `mid` when
        // `start <= mid < end`. Midpoints never decrease, so spans join in
        // start order and, once ended, never come back: one max-heap of
        // start-order indices per priority, with ended spans dropped as
        // they surface, yields the same span a scan of every event would
        // (the top priority, the last in start order on ties).
        let mut active: [BinaryHeap<usize>; 4] = Default::default();
        let mut joined = 0;
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mid = 0.5 * (lo + hi);
            while let Some(e) = dev_events.get(joined).filter(|e| e.start <= mid) {
                active[priority(e.kind) as usize].push(joined);
                joined += 1;
            }
            let top = active.iter_mut().rev().find_map(|heap| {
                while let Some(&i) = heap.peek() {
                    if mid < dev_events[i].end {
                        return Some(dev_events[i]);
                    }
                    heap.pop();
                }
                None
            });
            let slot = match top {
                Some(e) => phase_slot(e.kind, &e.label),
                None => 4, // idle -> sync
            };
            slots[slot] += hi - lo;
        }
    }
    let n = ndev as f64;
    PhaseBreakdown {
        pointing: slots[0] / n,
        matching: slots[1] / n,
        allreduce: slots[2] / n,
        transfer: slots[3] / n,
        sync: slots[4] / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use proptest::prelude::*;

    /// The quadratic scan [`timeline_breakdown`] replaced: at every
    /// boundary interval, test every span of the device for activity.
    fn timeline_breakdown_scan(trace: &Trace, sim_time: f64) -> PhaseBreakdown {
        let ndev = trace.events.iter().map(|e| e.device + 1).max().unwrap_or(0);
        if ndev == 0 || sim_time <= 0.0 {
            return PhaseBreakdown { sync: sim_time.max(0.0), ..Default::default() };
        }
        let mut slots = [0.0f64; 5];
        for d in 0..ndev {
            let mut dev_events: Vec<_> =
                trace.events.iter().filter(|e| e.device == d && e.end > e.start).collect();
            dev_events.sort_by(|a, b| a.start.total_cmp(&b.start));
            let mut bounds: Vec<f64> = dev_events
                .iter()
                .flat_map(|e| [e.start, e.end])
                .filter(|t| *t > 0.0 && *t < sim_time)
                .collect();
            bounds.push(0.0);
            bounds.push(sim_time);
            bounds.sort_by(f64::total_cmp);
            bounds.dedup();
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let mid = 0.5 * (lo + hi);
                let active = dev_events
                    .iter()
                    .filter(|e| e.start <= mid && mid < e.end)
                    .max_by_key(|e| priority(e.kind));
                let slot = match active {
                    Some(e) => phase_slot(e.kind, &e.label),
                    None => 4,
                };
                slots[slot] += hi - lo;
            }
        }
        let n = ndev as f64;
        PhaseBreakdown {
            pointing: slots[0] / n,
            matching: slots[1] / n,
            allreduce: slots[2] / n,
            transfer: slots[3] / n,
            sync: slots[4] / n,
        }
    }

    fn bits(b: &PhaseBreakdown) -> [u64; 5] {
        [b.pointing, b.matching, b.allreduce, b.transfer, b.sync].map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn sweep_matches_the_scan_bit_for_bit(
            spans in prop::collection::vec(
                ((0usize..4, 0u8..4, 0u8..2), (0u32..48, 0u32..12, 0u32..4)),
                0..60,
            ),
            horizon in 1u32..60,
        ) {
            // Quarter-step grid starts and lengths give equal starts, shared
            // ends and zero-length spans; the jitter gives unaligned ones.
            let mut t = Trace::default();
            for ((device, kind, label), (start, len, jitter)) in spans {
                let start = start as f64 * 0.25 + jitter as f64 * 1e-3;
                t.events.push(TraceEvent {
                    device,
                    kind: ALL_KINDS[kind as usize],
                    label: if label == 0 { "point".into() } else { "mates".into() },
                    start,
                    end: start + len as f64 * 0.25,
                });
            }
            let sim_time = horizon as f64 * 0.25;
            prop_assert_eq!(
                bits(&timeline_breakdown(&t, sim_time)),
                bits(&timeline_breakdown_scan(&t, sim_time))
            );
        }
    }

    fn sample() -> Trace {
        let mut t = Trace::default();
        t.record(0, EventKind::H2dCopy, "copy b0", 0.0, 1.0);
        t.record(0, EventKind::Kernel, "point b0", 1.0, 3.0);
        t.record(0, EventKind::Kernel, "mates it0", 3.0, 3.5);
        t.record(0, EventKind::Collective, "allreduce ptr", 3.5, 4.0);
        t.record(1, EventKind::Kernel, "point b0", 0.0, 2.0);
        t.record(1, EventKind::Collective, "allreduce ptr", 3.5, 4.0);
        t
    }

    #[test]
    fn chrome_trace_shape() {
        let j = chrome_trace_json(&sample());
        let events = j.as_array().unwrap();
        let xs: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(xs.len(), 6);
        for e in &xs {
            assert!(e.get("pid").and_then(Json::as_f64).is_some());
            assert!(e.get("tid").and_then(Json::as_f64).is_some());
            assert!(e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        }
        // Timestamps are microseconds.
        let kernel =
            xs.iter().find(|e| e.get("name").and_then(Json::as_str) == Some("point b0")).unwrap();
        assert_eq!(kernel.get("ts").and_then(Json::as_f64), Some(1e6));
        assert_eq!(kernel.get("dur").and_then(Json::as_f64), Some(2e6));
        // Metadata names both devices.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("pid").and_then(Json::as_f64) == Some(1.0)
        }));
        // The document parses back.
        assert!(crate::json::parse(&j.to_string_pretty()).is_ok());
    }

    #[test]
    fn breakdown_sums_to_sim_time() {
        let t = sample();
        let sim_time = 4.0;
        let b = timeline_breakdown(&t, sim_time);
        assert!((b.total() - sim_time).abs() < 1e-12, "total {}", b.total());
        // Device 0: copy 1.0, point 2.0, mates 0.5, collective 0.5.
        // Device 1: point 2.0, idle 1.5, collective 0.5.
        assert!((b.pointing - 2.0).abs() < 1e-12);
        assert!((b.matching - 0.25).abs() < 1e-12);
        assert!((b.allreduce - 0.5).abs() < 1e-12);
        assert!((b.transfer - 0.5).abs() < 1e-12);
        assert!((b.sync - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overlap_resolves_by_priority() {
        let mut t = Trace::default();
        t.record(0, EventKind::H2dCopy, "copy", 0.0, 4.0);
        t.record(0, EventKind::Kernel, "point", 1.0, 3.0);
        let b = timeline_breakdown(&t, 4.0);
        assert!((b.pointing - 2.0).abs() < 1e-12);
        assert!((b.transfer - 2.0).abs() < 1e-12);
        assert!((b.total() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_sync() {
        let b = timeline_breakdown(&Trace::default(), 2.0);
        assert_eq!(b.sync, 2.0);
        assert!((b.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spans_past_sim_time_are_clamped() {
        let mut t = Trace::default();
        t.record(0, EventKind::Kernel, "point", 0.0, 10.0);
        let b = timeline_breakdown(&t, 4.0);
        assert!((b.pointing - 4.0).abs() < 1e-12);
        assert!((b.total() - 4.0).abs() < 1e-12);
    }
}
