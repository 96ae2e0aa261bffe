//! RAII phase spans with deterministic ids and per-thread lanes.
//!
//! A [`SpanRecorder`] keeps a per-thread stack of open spans, so nested
//! `enter` calls form a tree even when planner phases fan out across
//! `std::thread::scope` workers. Span ids are content-derived (FNV-1a
//! over parent id, name, and the sibling ordinal), so the sequential
//! phase tree of a deterministic planner run hashes to the same ids on
//! every run — stable anchors for golden tests and trace diffing.
//! Wall-clock fields (`start_us`, `dur_us`) are measured, not derived,
//! and are the only non-deterministic part of a record.
//!
//! A span's ordinal is the number of spans entered before it with the
//! same parent and the same name. Rather than scanning the record list
//! for that count, every open stack frame carries a `name → next
//! ordinal` counter for its children, and the recorder carries one for
//! root spans (which includes spans opened on worker threads, whose own
//! stacks start empty). A child can only be entered while its parent is
//! open on the same thread, so a frame's counter sees every sibling;
//! `enter` is O(1) and the counters live only as long as their frames.
//!
//! [`SpanRecorder::clear`] drops the recorded spans of a long-lived
//! recorder, and only when no span is open on any thread, so no live
//! guard is left holding an index into a cleared record list. The root
//! counters survive a clear: ids are the same whether or not the
//! recorder was ever cleared.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// Sentinel duration of a span that has not been closed yet.
pub const OPEN_DUR_US: f64 = -1.0;

/// One recorded span. `lane` is a dense per-recorder thread index (0 is
/// the first thread that entered a span since the last clear), used as
/// the `tid` of the planner track in the chrome exporter.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub lane: u64,
    pub depth: u32,
    pub start_us: f64,
    pub dur_us: f64,
}

impl SpanRecord {
    pub fn is_closed(&self) -> bool {
        self.dur_us >= 0.0
    }
}

/// One open span on a thread's stack.
#[derive(Debug)]
struct Frame {
    /// Index of the span's record.
    index: usize,
    /// Next ordinal per child name entered under this span.
    children: HashMap<String, u64>,
}

#[derive(Debug, Default)]
struct Inner {
    records: Vec<SpanRecord>,
    /// Per-thread stack of open spans; a thread with nothing open has
    /// no entry.
    stacks: HashMap<ThreadId, Vec<Frame>>,
    /// Next ordinal per root span name.
    roots: HashMap<String, u64>,
    /// Dense lane assignment per thread.
    lanes: HashMap<ThreadId, u64>,
}

/// Takes the next ordinal for `name` from `counters`.
fn next_ordinal(counters: &mut HashMap<String, u64>, name: &str) -> u64 {
    if let Some(next) = counters.get_mut(name) {
        *next += 1;
        return *next - 1;
    }
    counters.insert(name.to_owned(), 1);
    0
}

/// Records a tree of timed phases. Create one per planner (or share via
/// [`crate::Telemetry`]); guards returned by [`SpanRecorder::enter`]
/// close their span on drop.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

fn fnv1a(parent: u64, name: &str, ordinal: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for byte in parent.to_le_bytes() {
        mix(byte);
    }
    for byte in name.bytes() {
        mix(byte);
    }
    for byte in ordinal.to_le_bytes() {
        mix(byte);
    }
    hash
}

impl SpanRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span named `name` under the calling thread's current
    /// span (if any). Returns a guard that closes the span when
    /// dropped.
    pub fn enter(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let name = name.into();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let thread = std::thread::current().id();
        let mut guard = self.lock();
        let inner = &mut *guard;
        let next_lane = inner.lanes.len() as u64;
        let lane = *inner.lanes.entry(thread).or_insert(next_lane);
        let stack = inner.stacks.entry(thread).or_default();
        let (parent, depth, ordinal) = match stack.last_mut() {
            Some(frame) => {
                let up = &inner.records[frame.index];
                let ordinal = next_ordinal(&mut frame.children, &name);
                (Some(up.id), up.depth + 1, ordinal)
            }
            None => (None, 0, next_ordinal(&mut inner.roots, &name)),
        };
        let id = fnv1a(parent.unwrap_or(0), &name, ordinal);
        let index = inner.records.len();
        inner.records.push(SpanRecord {
            id,
            parent,
            name,
            lane,
            depth,
            start_us,
            dur_us: OPEN_DUR_US,
        });
        stack.push(Frame {
            index,
            children: HashMap::new(),
        });
        SpanGuard {
            recorder: self,
            thread,
            index,
        }
    }

    /// Drops every recorded span and the thread-to-lane assignment, so
    /// a long-lived recorder does not grow without bound. Acts only
    /// when no span is open on any thread (open guards hold indices
    /// into the record list); returns whether it cleared. Ordinals of
    /// later root spans continue where they left off, so span ids do
    /// not depend on whether or when the recorder was cleared.
    pub fn clear(&self) -> bool {
        let mut inner = self.lock();
        if !inner.stacks.is_empty() {
            return false;
        }
        inner.records.clear();
        inner.lanes.clear();
        true
    }

    /// Copies out all records (closed and still-open) in enter order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.lock().records.clone()
    }

    /// Renders the span tree as an indented text listing, roots in
    /// enter order.
    pub fn render_tree(&self) -> String {
        let records = self.records();
        let mut out = String::new();
        for r in &records {
            let indent = "  ".repeat(r.depth as usize);
            if r.is_closed() {
                out.push_str(&format!("{indent}{} {:.3}ms\n", r.name, r.dur_us / 1000.0));
            } else {
                out.push_str(&format!("{indent}{} (open)\n", r.name));
            }
        }
        out
    }

    fn close(&self, thread: ThreadId, index: usize) {
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut inner = self.lock();
        let start = inner.records[index].start_us;
        inner.records[index].dur_us = (end_us - start).max(0.0);
        if let Some(stack) = inner.stacks.get_mut(&thread) {
            // The guard being dropped is normally the top of the stack;
            // retain-by-value keeps the recorder consistent even if
            // guards are dropped out of order.
            stack.retain(|frame| frame.index != index);
            if stack.is_empty() {
                inner.stacks.remove(&thread);
            }
        }
    }
}

/// Closes its span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    thread: ThreadId,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.close(self.thread, self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original id definition, kept as the oracle: a span's ordinal
    /// is found by scanning every span entered before it for ones with
    /// the same parent and name.
    #[derive(Default)]
    struct ScanOracle {
        entered: Vec<(Option<u64>, String)>,
    }

    impl ScanOracle {
        fn enter(&mut self, parent: Option<u64>, name: &str) -> u64 {
            let ordinal = self
                .entered
                .iter()
                .filter(|(p, n)| *p == parent && n == name)
                .count() as u64;
            self.entered.push((parent, name.to_owned()));
            fnv1a(parent.unwrap_or(0), name, ordinal)
        }
    }

    /// Checks every record's id against the scan oracle, in enter order.
    fn assert_scan_ids(history: &[SpanRecord]) {
        let mut oracle = ScanOracle::default();
        for (i, r) in history.iter().enumerate() {
            assert_eq!(r.id, oracle.enter(r.parent, &r.name), "span {i} {r:?}");
        }
    }

    const NAMES: [&str; 3] = ["window:0", "window:1", "plan"];

    /// One step of a generated span workload: `(kind, arg)` where kind
    /// 0..=2 enters `NAMES[arg % 3]`, 3..=4 drops the `arg`-th held
    /// guard (out of order), and 5 tries a clear.
    type Op = (u8, u8);

    /// Plays `ops` on the calling thread, checking each new span's
    /// parent against the thread's own stack of held guards. Every
    /// clear that acts appends the records it dropped to `history`.
    fn play(rec: &SpanRecorder, ops: &[Op], history: &mut Vec<SpanRecord>) {
        let mut held: Vec<SpanGuard<'_>> = Vec::new();
        for &(kind, arg) in ops {
            match kind {
                0..=2 => {
                    let guard = rec.enter(NAMES[usize::from(arg) % NAMES.len()]);
                    let inner = rec.lock();
                    let expected = held.last().map(|g| inner.records[g.index].id);
                    assert_eq!(inner.records[guard.index].parent, expected);
                    drop(inner);
                    held.push(guard);
                }
                3..=4 if !held.is_empty() => {
                    drop(held.remove(usize::from(arg) % held.len()));
                }
                5 => {
                    let before = rec.records();
                    let cleared = rec.clear();
                    assert_eq!(cleared, held.is_empty(), "clear acts iff nothing is open");
                    if cleared {
                        history.extend(before);
                    }
                }
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn ids_match_the_scan_oracle_with_clears(
            ops in prop::collection::vec((0u8..6, any::<u8>()), 0..64),
        ) {
            let rec = SpanRecorder::new();
            let mut history = Vec::new();
            play(&rec, &ops, &mut history);
            // Guards still held at the end of `play` closed on return.
            let rest = rec.records();
            prop_assert!(rest.iter().all(SpanRecord::is_closed));
            history.extend(rest);
            assert_scan_ids(&history);
        }

        #[test]
        fn ids_match_the_scan_oracle_across_threads(
            threads in 1usize..4,
            ops in prop::collection::vec((0u8..5, any::<u8>()), 0..96),
        ) {
            // No clears here: a snapshot-then-clear would race the
            // other threads' enters.
            let rec = SpanRecorder::new();
            let per_thread = ops.len().div_ceil(threads).max(1);
            std::thread::scope(|scope| {
                for chunk in ops.chunks(per_thread) {
                    let rec = &rec;
                    scope.spawn(move || play(rec, chunk, &mut Vec::new()));
                }
            });
            let records = rec.records();
            prop_assert!(records.iter().all(SpanRecord::is_closed));
            assert_scan_ids(&records);
        }
    }

    #[test]
    fn clear_waits_for_open_spans_and_keeps_ids() {
        let rec = SpanRecorder::new();
        let root = rec.enter("plan");
        let child = rec.enter("prepare");
        assert!(!rec.clear(), "spans are open");
        drop(root);
        assert!(!rec.clear(), "the child is still open");
        // The still-open guard closes its own record, not a stale slot.
        drop(child);
        let records = rec.records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(SpanRecord::is_closed));
        assert!(rec.clear());
        assert!(rec.records().is_empty());
        {
            let _again = rec.enter("plan");
        }
        let records = rec.records();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].id,
            fnv1a(0, "plan", 1),
            "root ordinals survive a clear"
        );
        assert_eq!(records[0].lane, 0);
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let rec = SpanRecorder::new();
        {
            let _root = rec.enter("plan");
            {
                let _child = rec.enter("prepare");
            }
            let _child2 = rec.enter("assemble");
        }
        let records = rec.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "plan");
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].parent, Some(records[0].id));
        assert_eq!(records[2].parent, Some(records[0].id));
        assert!(records.iter().all(SpanRecord::is_closed));
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[1].depth, 1);
    }

    #[test]
    fn ids_are_deterministic_and_distinct_per_sibling() {
        let tree = || {
            let rec = SpanRecorder::new();
            {
                let _root = rec.enter("plan");
                let _a = rec.enter("phase");
                drop(_a);
                let _b = rec.enter("phase");
            }
            rec.records().iter().map(|r| r.id).collect::<Vec<_>>()
        };
        let first = tree();
        let second = tree();
        assert_eq!(first, second);
        // Same name, same parent, different ordinal => different id.
        assert_ne!(first[1], first[2]);
    }

    #[test]
    fn spans_from_worker_threads_get_their_own_lanes() {
        let rec = SpanRecorder::new();
        let _root = rec.enter("plan");
        std::thread::scope(|scope| {
            for i in 0..2 {
                let rec = &rec;
                scope.spawn(move || {
                    let _s = rec.enter(format!("worker:{i}"));
                });
            }
        });
        drop(_root);
        let records = rec.records();
        assert_eq!(records.len(), 3);
        let mut lanes: Vec<u64> = records.iter().map(|r| r.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 3, "each thread gets a distinct lane");
        // Worker spans are roots of their own lanes (no cross-thread
        // parenting).
        assert!(records[1..].iter().all(|r| r.parent.is_none()));
    }

    #[test]
    fn render_tree_indents_children() {
        let rec = SpanRecorder::new();
        {
            let _root = rec.enter("plan");
            let _child = rec.enter("prepare");
        }
        let tree = rec.render_tree();
        assert!(tree.contains("plan "));
        assert!(tree.contains("\n  prepare "));
    }
}
