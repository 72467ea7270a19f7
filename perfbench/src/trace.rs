//! Spans recorded from outside the pager, at the boundaries of its layers.
//!
//! Three kinds nest: an `op` (one device-level `page_in`/`page_out`,
//! carrying a request id) is the parent of the `shard_lock` wait in front
//! of it and of every `transport` call the pool makes while serving it.
//! The parent comes from a thread-local current span, so the pool's
//! calls — which run on the faulting thread — attach to the right op
//! without the program knowing about tracing. Spans stay in thread-local
//! buffers until [`drain_thread`] collects them.
//!
//! [`TracedTransport`] is the transport decorator: it forwards every
//! [`ServerTransport`] method to the real windowed transport, recording a
//! span and counting request frames by opcode on the way.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rmp::core::{PendingReplies, ServerTransport, WindowStats};
use rmp::proto::{Message, Opcode};
use rmp::types::Result;

/// What a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One device call at the application boundary.
    Op,
    /// Time from asking for a shard to holding its lock.
    ShardLock,
    /// One call into a server transport.
    Transport,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::ShardLock => "shard_lock",
            Kind::Transport => "transport",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the process's
/// trace epoch; `parent` is 0 for a root span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub id: u64,
    pub parent: u64,
    /// Request id of the op this span belongs to (0 outside any op).
    pub req: u64,
    /// Operation name: `page_in`/`page_out` for ops, the transport method
    /// for transport spans.
    pub name: &'static str,
    /// First request opcode of a transport span (0 otherwise).
    pub opcode: u8,
    pub start: u64,
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// One JSON object per line, for the span dump.
    pub fn to_json(self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \
             \"opcode\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            self.kind.label(),
            self.id,
            self.parent,
            self.req,
            self.name,
            self.opcode,
            self.start,
            self.end
        )
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static BUFFER: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the first call in this process.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span that has started but not ended.
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    kind: Kind,
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    opcode: u8,
    start: u64,
    /// Whether this span became the thread's current span.
    entered: bool,
}

/// Starts a leaf span under the thread's current span.
pub fn leaf(kind: Kind, name: &'static str, opcode: u8) -> Open {
    let (parent, req) = CURRENT.with(Cell::get);
    Open {
        kind,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        req,
        name,
        opcode,
        start: now_ns(),
        entered: false,
    }
}

/// Starts an op span carrying request id `req` and makes it the thread's
/// current span until it is closed.
pub fn enter_op(name: &'static str, req: u64) -> Open {
    let (parent, _) = CURRENT.with(Cell::get);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    CURRENT.with(|c| c.set((id, req)));
    Open {
        kind: Kind::Op,
        id,
        parent,
        req,
        name,
        opcode: 0,
        start: now_ns(),
        entered: true,
    }
}

impl Open {
    /// Ends the span, buffers it on this thread and returns its
    /// duration in nanoseconds.
    pub fn close(self) -> u64 {
        let end = now_ns();
        if self.entered {
            CURRENT.with(|c| c.set((self.parent, 0)));
        }
        let span = Span {
            kind: self.kind,
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            opcode: self.opcode,
            start: self.start,
            end,
        };
        BUFFER.with(|b| b.borrow_mut().push(span));
        span.dur()
    }
}

/// Takes every span buffered on the calling thread.
pub fn drain_thread() -> Vec<Span> {
    BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span of `kind`, in nanoseconds: its duration minus
/// the part of it that its children cover. Children may overlap one
/// another (pipelined and submitted calls); overlapping stretches count
/// once.
pub fn self_times(spans: &[Span], kind: Kind) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| {
            let busy = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(s.start, s.end, c));
            s.dur() - busy
        })
        .collect()
}

/// Request frames sent through traced transports, by opcode, plus the
/// window counters of connections that have closed or redialled.
#[derive(Debug, Default)]
pub struct Probe {
    frames: [AtomicU64; 32],
    window: Mutex<WindowTotals>,
}

/// Summed [`WindowStats`] counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowTotals {
    pub stalls: u64,
    pub late_replies: u64,
}

impl Probe {
    fn count(&self, msgs: &[Message]) {
        for m in msgs {
            let op = (m.opcode() as usize).min(self.frames.len() - 1);
            self.frames[op].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Frames sent so far with opcode `op`.
    pub fn frames(&self, op: Opcode) -> u64 {
        self.frames[(op as usize).min(self.frames.len() - 1)].load(Ordering::Relaxed)
    }

    /// Frames sent so far, all opcodes.
    pub fn total_frames(&self) -> u64 {
        self.frames.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }

    /// Page-carrying frames bound for a server: stores and parity
    /// updates.
    pub fn pageout_frames(&self) -> u64 {
        [
            Opcode::PageOut,
            Opcode::PageOutBatch,
            Opcode::PageOutDelta,
            Opcode::XorInto,
        ]
        .into_iter()
        .map(|op| self.frames(op))
        .sum()
    }

    /// Frames that fetch pages.
    pub fn pagein_frames(&self) -> u64 {
        self.frames(Opcode::PageIn) + self.frames(Opcode::PageInBatch)
    }

    /// Window counters folded in by closed or redialled connections.
    pub fn window(&self) -> WindowTotals {
        *self.window.lock().expect("window totals poisoned")
    }

    fn fold_window(&self, stats: Option<WindowStats>) {
        if let Some(ws) = stats {
            let mut w = self.window.lock().expect("window totals poisoned");
            w.stalls += ws.stalls;
            w.late_replies += ws.late_replies;
        }
    }
}

/// A [`ServerTransport`] decorator that records a `transport` span per
/// call and counts request frames. Every trait method is forwarded —
/// including `call_pipelined`, `submit`, `reconnect` and `window_stats`,
/// whose defaults would otherwise change the pool's prefetch and retry
/// paths.
pub struct TracedTransport {
    inner: Box<dyn ServerTransport>,
    probe: Arc<Probe>,
}

impl TracedTransport {
    pub fn new(inner: Box<dyn ServerTransport>, probe: Arc<Probe>) -> Self {
        TracedTransport { inner, probe }
    }

    fn span(msgs: &[Message], name: &'static str) -> Open {
        let opcode = msgs.first().map_or(0, |m| m.opcode() as u8);
        leaf(Kind::Transport, name, opcode)
    }
}

impl ServerTransport for TracedTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        let msgs = std::slice::from_ref(msg);
        self.probe.count(msgs);
        let span = Self::span(msgs, "call");
        let reply = self.inner.call(msg);
        span.close();
        reply
    }

    fn send_only(&mut self, msg: &Message) -> Result<()> {
        let msgs = std::slice::from_ref(msg);
        self.probe.count(msgs);
        let span = Self::span(msgs, "send_only");
        let sent = self.inner.send_only(msg);
        span.close();
        sent
    }

    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        self.probe.count(msgs);
        let span = Self::span(msgs, "call_pipelined");
        let replies = self.inner.call_pipelined(msgs);
        span.close();
        replies
    }

    fn reconnect(&mut self) -> Result<()> {
        // A redial restarts the connection's window counters.
        self.probe.fold_window(self.inner.window_stats());
        let span = Self::span(&[], "reconnect");
        let redialled = self.inner.reconnect();
        span.close();
        redialled
    }

    fn submit(&mut self, msgs: &[Message]) -> Option<Result<PendingReplies>> {
        let span = Self::span(msgs, "submit");
        let pending = self.inner.submit(msgs);
        span.close();
        // A transport without a window declines, and the pool resends the
        // frames through `call_pipelined`, which counts them there.
        if pending.is_some() {
            self.probe.count(msgs);
        }
        pending
    }

    fn window_stats(&self) -> Option<WindowStats> {
        self.inner.window_stats()
    }
}

impl Drop for TracedTransport {
    fn drop(&mut self) {
        self.probe.fold_window(self.inner.window_stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            kind,
            id,
            parent,
            req: 1,
            name: "t",
            opcode: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(Kind::Op, 1, 0, 0, 100),
            span(Kind::ShardLock, 2, 1, 0, 10),
            span(Kind::Transport, 3, 1, 20, 50),
            span(Kind::Transport, 4, 1, 60, 70),
        ];
        assert_eq!(self_times(&spans, Kind::Op), vec![50]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // A submitted batch still on the wire while a pipelined call runs:
        // [10, 60) and [40, 80) cover 70 ns of the op, not 90.
        let spans = [
            span(Kind::Op, 1, 0, 0, 100),
            span(Kind::Transport, 2, 1, 10, 60),
            span(Kind::Transport, 3, 1, 40, 80),
            // Nested inside the first child: adds nothing.
            span(Kind::Transport, 4, 1, 20, 30),
        ];
        assert_eq!(self_times(&spans, Kind::Op), vec![30]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A submitted call that outlives the op that issued it only
        // covers the op up to the op's end.
        let spans = [
            span(Kind::Op, 1, 0, 100, 200),
            span(Kind::Transport, 2, 1, 150, 400),
            span(Kind::Transport, 3, 1, 50, 120),
        ];
        assert_eq!(self_times(&spans, Kind::Op), vec![30]);
    }

    #[test]
    fn spans_of_other_parents_do_not_count() {
        let spans = [
            span(Kind::Op, 1, 0, 0, 100),
            span(Kind::Op, 2, 0, 0, 100),
            span(Kind::Transport, 3, 2, 0, 100),
        ];
        assert_eq!(self_times(&spans, Kind::Op), vec![100, 0]);
    }

    #[test]
    fn ops_parent_the_leaves_opened_inside_them() {
        drain_thread();
        let op = enter_op("page_in", 7);
        leaf(Kind::Transport, "call", 5).close();
        op.close();
        leaf(Kind::Transport, "call", 5).close();
        let spans = drain_thread();
        assert_eq!(spans.len(), 3);
        let (inner, op, outer) = (spans[0], spans[1], spans[2]);
        assert_eq!((op.kind, op.req, op.parent), (Kind::Op, 7, 0));
        assert_eq!((inner.parent, inner.req), (op.id, 7));
        assert_eq!((outer.parent, outer.req), (0, 0));
        assert!(op.start <= inner.start && inner.end <= op.end);
    }
}
