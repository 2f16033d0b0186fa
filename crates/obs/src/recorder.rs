//! The span recorder: per-rank buffers, RAII span guards and the
//! clonable [`Tracer`] handle threaded through the hot path.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::clock;
use crate::phase::{Phase, PHASE_COUNT};
use crate::trace::{RankAgg, Trace};

/// How much a traced solve records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// Record nothing; tracers are disabled and spans are free.
    #[default]
    Off,
    /// Record per-rank per-phase aggregates only (constant memory).
    Summary,
    /// Aggregates plus a bounded ring of raw span events per rank, for
    /// chrome-trace export.
    Full,
}

impl TraceConfig {
    /// `true` iff nothing is recorded.
    pub fn is_off(self) -> bool {
        matches!(self, TraceConfig::Off)
    }
}

/// One closed span: half-open interval `[t_start, t_end)` on `rank`,
/// attributed to `phase`. Timestamps are offsets from the process epoch
/// ([`clock::monotonic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Rank the span was recorded on.
    pub rank: usize,
    /// Phase attribution.
    pub phase: Phase,
    /// Start, relative to the process epoch.
    pub t_start: Duration,
    /// End, relative to the process epoch.
    pub t_end: Duration,
    /// Payload bytes attributed to the span (0 if not a transfer).
    pub bytes: u64,
    /// Solver iteration the span belongs to (0 outside the Krylov loop).
    pub iter: u64,
}

/// Per-phase running totals for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Total span duration, children included.
    pub inclusive: Duration,
    /// Self time: span duration minus time spent in nested spans. Within
    /// a rank, exclusive times over all phases sum to at most the rank's
    /// busy interval — nothing is double-counted.
    pub exclusive: Duration,
    /// Total payload bytes.
    pub bytes: u64,
    /// Number of spans.
    pub count: u64,
}

/// An open span on the per-rank stack.
struct Frame {
    phase: Phase,
    start: Duration,
    /// Accumulated inclusive time of already-closed children; subtracted
    /// from this frame's duration to get its exclusive (self) time.
    child: Duration,
}

/// Cap on raw events retained per rank under [`TraceConfig::Full`]; the
/// ring keeps the newest events and counts what it had to drop.
const EVENT_CAP: usize = 1 << 16;

struct RankBuf {
    stack: Vec<Frame>,
    agg: [PhaseAgg; PHASE_COUNT],
    /// Raw events (Full only), as a ring once `EVENT_CAP` is reached.
    events: Vec<Span>,
    /// Next overwrite position once the ring is full.
    head: usize,
    dropped: u64,
    /// Guards dropped out of LIFO order (a recorder bug, surfaced rather
    /// than silently mis-attributed).
    unbalanced: u64,
    t_first: Option<Duration>,
    t_last: Duration,
}

impl RankBuf {
    fn new() -> Self {
        RankBuf {
            stack: Vec::with_capacity(8),
            agg: [PhaseAgg::default(); PHASE_COUNT],
            events: Vec::new(),
            head: 0,
            dropped: 0,
            unbalanced: 0,
            t_first: None,
            t_last: Duration::ZERO,
        }
    }

    fn push_event(&mut self, span: Span) {
        if self.events.len() < EVENT_CAP {
            self.events.push(span);
        } else {
            self.events[self.head] = span;
            self.head = (self.head + 1) % EVENT_CAP;
            self.dropped += 1;
        }
    }

    /// Close a span: fold it into the aggregates, credit the parent's
    /// child accumulator and (in Full mode) store the raw event.
    fn close(&mut self, rank: usize, phase: Phase, full: bool, bytes: u64, iter: u64) {
        // Out-of-order drops should be impossible (guards are scoped
        // values), but a search keeps one bug from corrupting the stack.
        let Some(pos) = self.stack.iter().rposition(|f| f.phase == phase) else {
            self.unbalanced += 1;
            return;
        };
        self.unbalanced += (self.stack.len() - 1 - pos) as u64;
        self.stack.truncate(pos + 1);
        // `pos` < len, so the pop cannot fail; destructure defensively.
        let Some(frame) = self.stack.pop() else { return };

        let end = clock::monotonic();
        let dur = end.saturating_sub(frame.start);
        let exclusive = dur.saturating_sub(frame.child);
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }

        let a = &mut self.agg[phase.index()];
        a.inclusive += dur;
        a.exclusive += exclusive;
        a.bytes += bytes;
        a.count += 1;

        // Parents close after their children, so take the min: the rank's
        // busy interval must cover every span's full extent for the
        // "exclusive times sum to ≤ wall" invariant to hold.
        self.t_first = Some(self.t_first.map_or(frame.start, |t| t.min(frame.start)));
        self.t_last = self.t_last.max(end);

        if full {
            self.push_event(Span { rank, phase, t_start: frame.start, t_end: end, bytes, iter });
        }
    }

    /// Record an already-timed leaf span (no children). Used for
    /// intervals whose start predates the decision to record them, e.g.
    /// an expired retry tick.
    fn record_leaf(
        &mut self,
        rank: usize,
        phase: Phase,
        t_start: Duration,
        full: bool,
        bytes: u64,
    ) {
        let end = clock::monotonic();
        let dur = end.saturating_sub(t_start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        let a = &mut self.agg[phase.index()];
        a.inclusive += dur;
        a.exclusive += dur;
        a.bytes += bytes;
        a.count += 1;
        self.t_first = Some(self.t_first.map_or(t_start, |t| t.min(t_start)));
        self.t_last = self.t_last.max(end);
        if full {
            self.push_event(Span { rank, phase, t_start, t_end: end, bytes, iter: 0 });
        }
    }

    /// Drain into a [`RankAgg`] plus this rank's raw events in
    /// chronological order.
    fn drain(&mut self, into: &mut Vec<Span>) -> (RankAgg, u64, u64) {
        // Ring order: the oldest retained event sits at `head`.
        into.extend_from_slice(&self.events[self.head..]);
        into.extend_from_slice(&self.events[..self.head]);
        let agg = RankAgg { phases: self.agg, t_first: self.t_first, t_last: self.t_last };
        (agg, self.dropped, self.unbalanced)
    }
}

struct Shared {
    config: TraceConfig,
    ranks: Vec<Mutex<RankBuf>>,
}

/// One recorder per solve. Create it with the world size, hand each rank
/// thread its [`Tracer`], then [`Recorder::finish`] after the join to
/// collect the [`Trace`].
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Recorder {
    /// A recorder for `n_ranks` ranks at the given depth.
    pub fn new(n_ranks: usize, config: TraceConfig) -> Recorder {
        let ranks = (0..n_ranks).map(|_| Mutex::new(RankBuf::new())).collect();
        Recorder { shared: Arc::new(Shared { config, ranks }) }
    }

    /// The tracing depth this recorder was created with.
    pub fn config(&self) -> TraceConfig {
        self.shared.config
    }

    /// The tracer handle for `rank`. Disabled (free) when the config is
    /// [`TraceConfig::Off`] or the rank is out of range.
    pub fn tracer(&self, rank: usize) -> Tracer {
        if self.shared.config.is_off() || rank >= self.shared.ranks.len() {
            return Tracer::disabled();
        }
        Tracer { shared: Some(Arc::clone(&self.shared)), rank }
    }

    /// Drain every rank buffer into a [`Trace`]. Call after all rank
    /// threads have been joined; spans still open at this point are
    /// discarded (counted as unbalanced).
    pub fn finish(&self) -> Trace {
        let mut spans = Vec::new();
        let mut ranks = Vec::with_capacity(self.shared.ranks.len());
        let mut dropped = 0;
        let mut unbalanced = 0;
        for buf in &self.shared.ranks {
            let mut buf = buf.lock().unwrap_or_else(PoisonError::into_inner);
            unbalanced += buf.stack.len() as u64;
            let (agg, d, u) = buf.drain(&mut spans);
            ranks.push(agg);
            dropped += d;
            unbalanced += u;
        }
        Trace { config: self.shared.config, ranks, spans, dropped, unbalanced }
    }
}

/// A cheap, clonable handle recording spans for one rank. The disabled
/// tracer (the default) records nothing and never reads the clock.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
    rank: usize,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.shared.is_some())
            .field("rank", &self.rank)
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// `true` iff spans recorded through this handle are kept.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The rank this handle records for (0 when disabled).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Open a span; it closes (and is recorded) when the guard drops.
    /// Spans opened while another is open nest inside it.
    pub fn span(&self, phase: Phase) -> SpanGuard {
        if let Some(shared) = &self.shared {
            if let Some(buf) = shared.ranks.get(self.rank) {
                let mut buf = buf.lock().unwrap_or_else(PoisonError::into_inner);
                buf.stack.push(Frame { phase, start: clock::monotonic(), child: Duration::ZERO });
            }
        }
        SpanGuard { tracer: self.clone(), phase, bytes: 0, iter: 0 }
    }

    /// Record a leaf span that started at `t_start` (from
    /// [`clock::monotonic`]) and ends now — for intervals only known to
    /// be interesting after the fact, like an expired retry tick.
    pub fn record_since(&self, phase: Phase, t_start: Duration, bytes: u64) {
        if let Some(shared) = &self.shared {
            if let Some(buf) = shared.ranks.get(self.rank) {
                let full = shared.config == TraceConfig::Full;
                let mut buf = buf.lock().unwrap_or_else(PoisonError::into_inner);
                buf.record_leaf(self.rank, phase, t_start, full, bytes);
            }
        }
    }
}

/// RAII guard for an open span; recording happens on drop.
#[must_use = "the span closes when the guard drops; binding it to `_` closes it immediately"]
pub struct SpanGuard {
    tracer: Tracer,
    phase: Phase,
    bytes: u64,
    iter: u64,
}

impl SpanGuard {
    /// Attribute `bytes` payload bytes to this span.
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Tag the span with the solver iteration it belongs to.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(shared) = &self.tracer.shared {
            if let Some(buf) = shared.ranks.get(self.tracer.rank) {
                let full = shared.config == TraceConfig::Full;
                let mut buf = buf.lock().unwrap_or_else(PoisonError::into_inner);
                buf.close(self.tracer.rank, self.phase, full, self.bytes, self.iter);
            }
        }
    }
}
