//! The benchmark's own span recorder.
//!
//! Spans live in this process's memory (name, start, end, parent) and are
//! written once at exit as Chrome `trace_event` JSON. They deliberately do
//! not go through the `st-obs` per-thread rings: a ring holds 4096 slots
//! and one paper-shape training window emits over a thousand
//! `tensor.matmul` spans when `ST_OBS` is on, so the rings would overwrite
//! the benchmark's layer spans.
//!
//! All spans are recorded on the benchmark's main thread, so nesting is a
//! plain stack. With tracing off, [`timed`] still returns the elapsed time
//! (the workloads use it for their latency samples) but records nothing.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One recorded span, times in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-prefixed name, e.g. `core.train_window` or `phase.setup`.
    pub name: &'static str,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turns span recording on or off for later [`timed`] calls.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Runs `f`, returning its result and wall time; records a span named
/// `name` (child of the innermost open span) while recording is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let parent = r.stack.last().copied();
        let index = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        r.stack.push(index);
        Some(index)
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let origin = r.origin;
            let span = &mut r.spans[index];
            span.start_ns = (start - origin).as_nanos() as u64;
            span.end_ns = (end - origin).as_nanos() as u64;
            r.stack.pop();
        });
    }
    (out, end - start)
}

/// [`timed`] without the duration.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    timed(name, f).0
}

/// Every span recorded so far, in opening order.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Share of each `phase.*` span's wall time covered by its leaf
/// descendants — the finest layer calls the benchmark timed. Leaves on
/// one thread never overlap, so their durations add.
pub fn phase_coverage(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let descends_from = |mut i: usize, root: usize| loop {
        match spans[i].parent {
            Some(p) if p == root => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name.starts_with("phase."))
        .map(|(root, phase)| {
            let covered: f64 = (0..spans.len())
                .filter(|&i| !has_child[i] && descends_from(i, root))
                .map(|i| spans[i].secs())
                .sum();
            (phase.name, covered / phase.secs().max(f64::MIN_POSITIVE))
        })
        .collect()
}

/// Renders spans as Chrome `trace_event` JSON, in start order, with each
/// span's parent name in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
    let mut out = String::from("{\"traceEvents\":[");
    for (k, &i) in order.iter().enumerate() {
        let s = &spans[i];
        let dur = s.end_ns - s.start_ns;
        let parent = s.parent.map_or("", |p| spans[p].name);
        out.push_str(if k == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"parent\":\"{}\"}}}}",
            s.name,
            s.start_ns / 1000,
            s.start_ns % 1000,
            dur / 1000,
            dur % 1000,
            parent
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn coverage_counts_leaves_only() {
        let spans = vec![
            at("phase.setup", 0, 1000, None),
            at("core.build", 0, 900, Some(0)),
            at("graph.profiles", 0, 300, Some(1)),
            at("core.from_parts", 300, 850, Some(1)),
            at("data.generate", 900, 1000, Some(0)),
            at("phase.run", 1000, 2000, None),
            at("core.fit", 1000, 1500, Some(5)),
        ];
        let cov = phase_coverage(&spans);
        assert_eq!(cov.len(), 2);
        assert_eq!(cov[0].0, "phase.setup");
        assert!((cov[0].1 - 0.95).abs() < 1e-12);
        assert!((cov[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_exports_valid_chrome_json() {
        set_enabled(true);
        let (value, elapsed) = timed("phase.test", || {
            span("core.inner", || std::hint::black_box(2 + 2))
        });
        set_enabled(false);
        timed("core.untraced", || ());
        assert_eq!(value, 4);
        let spans = spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        // Compared in whole nanoseconds: `secs()` and `as_secs_f64()` may
        // round the same duration to neighbouring floats.
        assert!(spans[0].end_ns - spans[0].start_ns <= elapsed.as_nanos() as u64);
        assert_eq!(durations(&spans, "core.inner").len(), 1);
        let stats = st_obs::trace::validate_chrome_trace(&chrome_json(&spans)).unwrap();
        assert_eq!(stats.span_events, 2);
        assert!(stats.has_prefix("core."));
    }
}
