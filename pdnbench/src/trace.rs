//! Layer spans for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in
//! [`span`]. With tracing off (the end-to-end runs) a span is one
//! thread-local flag test; with tracing on it records the call's wall
//! time, and the layer's *self* time is that duration minus the part its
//! child spans cover. Spans are aggregated per layer in memory on the
//! thread that records them and read out once, when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one thread's spans add up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Self time per layer.
    pub layers: BTreeMap<&'static str, Duration>,
    /// Wall time covered by spans that have no parent span.
    pub top_level: Duration,
}

struct Frame {
    layer: &'static str,
    start: Instant,
    child: Duration,
}

#[derive(Default)]
struct Recorder {
    stack: Vec<Frame>,
    summary: Summary,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording on the calling thread, discarding anything earlier.
pub fn enable() {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::default());
    ON.with(|on| on.set(true));
}

/// Stops recording on the calling thread and returns what it recorded.
pub fn finish() -> Summary {
    ON.with(|on| on.set(false));
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().summary))
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    RECORDER.with(|r| {
        r.borrow_mut().stack.push(Frame { layer, start: Instant::now(), child: Duration::ZERO });
    });
    let out = f();
    let end = Instant::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span stack is balanced");
        let total = end - frame.start;
        *r.summary.layers.entry(frame.layer).or_default() += total.saturating_sub(frame.child);
        match r.stack.last_mut() {
            Some(parent) => parent.child += total,
            None => r.summary.top_level += total,
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_top_level_counts_roots_only() {
        enable();
        span("outer", || {
            std::thread::sleep(Duration::from_millis(2));
            span("inner", || std::thread::sleep(Duration::from_millis(3)));
        });
        let s = finish();
        let outer = s.layers["outer"];
        let inner = s.layers["inner"];
        assert!(inner >= Duration::from_millis(3));
        assert!(outer >= Duration::from_millis(2));
        assert!(outer < Duration::from_millis(3) + Duration::from_millis(2));
        assert!(s.top_level >= outer + inner);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _ = finish();
        span("x", || ());
        assert!(finish().layers.is_empty());
    }
}
