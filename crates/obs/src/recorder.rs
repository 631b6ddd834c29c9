//! The `Recorder`: per-thread trace/metrics state and the span stack.
//!
//! One recorder lives in a thread-local (see the crate root's free
//! functions); everything in a single simulated world — both "sites" of a
//! federation, the runtime, the depot — shares it, which is exactly what
//! lets a migration hop appear as one causally-linked trace.
//!
//! ## Modes
//!
//! * **Disabled** — the default. Instrumentation call sites check one
//!   thread-local byte and fall through; no event is constructed, nothing
//!   allocates, counters do not move.
//! * **Ring** — events are assembled and appended to the bounded
//!   flight-recorder ring; metrics counters are updated, but no clocks
//!   are read.
//! * **Full** — Ring plus wall-clock span latency histograms.
//!
//! The **log channel** is the one exception: it always records (bounded),
//! because a script's `self.log(...)` is program output whose behaviour
//! does not depend on any observability switch.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mrom_value::{NodeId, ObjectId};

use crate::event::{Event, EventKind, TraceEvent};
use crate::metrics::Metrics;
use crate::profile::TelemetrySnapshot;
use crate::ring::{FlightRecorder, DEFAULT_RING_CAPACITY};
use crate::window::{WindowConfig, WindowState};

/// Retention cap for the always-on log channel.
pub const LOG_CHANNEL_CAPACITY: usize = 65_536;

/// Most distinct selector names the recorder's interner retains. Mobile
/// code can mint method names, so the table is bounded: a name first
/// seen after it filled is allocated for its own event and not kept.
const INTERNED_NAMES_CAP: usize = 1024;

/// Observability mode (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No recording; the instrumented paths cost one byte-load.
    #[default]
    Disabled,
    /// Flight-recorder ring + metrics counters, no clocks.
    Ring,
    /// Ring + metrics + wall-clock latency histograms.
    Full,
}

impl ObsMode {
    /// Encodes the mode into the fast-path byte.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            ObsMode::Disabled => 0,
            ObsMode::Ring => 1,
            ObsMode::Full => 2,
        }
    }

    /// Decodes the fast-path byte (unknown values read as `Disabled`).
    #[must_use]
    pub fn from_u8(raw: u8) -> ObsMode {
        match raw {
            1 => ObsMode::Ring,
            2 => ObsMode::Full,
            _ => ObsMode::Disabled,
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Disabled => "disabled",
            ObsMode::Ring => "ring",
            ObsMode::Full => "full",
        }
    }
}

/// Handle returned by span-opening calls; pass it to the matching end
/// call. `NONE` (span 0) is inert, so call sites on the disabled path can
/// thread a handle through without branching twice.
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle {
    /// The span id (0 = no span was opened).
    pub span: u64,
    /// Clock read at open time (Full mode only).
    pub started: Option<Instant>,
}

impl SpanHandle {
    /// The inert handle recorded when observability is disabled.
    pub const NONE: SpanHandle = SpanHandle {
        span: 0,
        started: None,
    };

    /// Whether this handle refers to a real open span.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.span != 0
    }
}

/// Per-thread recorder state (see module docs).
pub struct Recorder {
    mode: ObsMode,
    ring: FlightRecorder,
    metrics: Metrics,
    /// Total events recorded since last reset — the counter the
    /// zero-overhead test asserts against.
    events_recorded: u64,
    seq: u64,
    next_trace: u64,
    next_span: u64,
    /// Open spans, innermost last.
    span_stack: Vec<u64>,
    /// Trace id of the activity the open spans belong to.
    active_trace: u64,
    /// Trace continuation installed by a migration hop (0 = none).
    forced_trace: u64,
    /// Remote parent span for the continuation's first root span.
    forced_parent: u64,
    /// The always-on bounded log channel.
    log: VecDeque<(NodeId, ObjectId, String)>,
    /// Log lines evicted from the channel since last reset.
    log_evicted: u64,
    /// Selector names handed out to events, so every event naming one
    /// method shares one allocation (at most `INTERNED_NAMES_CAP`).
    names: HashSet<Arc<str>>,
    /// Virtual clock in microseconds, advanced monotonically by the
    /// network simulator (and `Runtime::set_now`). Stamped on every
    /// event envelope and used to bucket window samples.
    virtual_now_us: u64,
    /// The sliding telemetry window, when configured (`None` = off; the
    /// recording paths then pay exactly one `Option` check).
    window: Option<WindowState>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("mode", &self.mode)
            .field("events_recorded", &self.events_recorded)
            .field("ring_len", &self.ring.len())
            .field("log_len", &self.log.len())
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh disabled recorder with the default ring capacity.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            mode: ObsMode::Disabled,
            ring: FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY),
            metrics: Metrics::default(),
            events_recorded: 0,
            seq: 0,
            next_trace: 1,
            next_span: 1,
            span_stack: Vec::new(),
            active_trace: 0,
            forced_trace: 0,
            forced_parent: 0,
            log: VecDeque::new(),
            log_evicted: 0,
            names: HashSet::new(),
            virtual_now_us: 0,
            window: None,
        }
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Switches mode. Does not clear state — `reset` does that.
    pub fn set_mode(&mut self, mode: ObsMode) {
        self.mode = mode;
    }

    /// Clears ring, metrics, counters, trace state, and the log channel;
    /// mode is preserved.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.metrics = Metrics::default();
        self.events_recorded = 0;
        self.seq = 0;
        self.next_trace = 1;
        self.next_span = 1;
        self.span_stack.clear();
        self.active_trace = 0;
        self.forced_trace = 0;
        self.forced_parent = 0;
        self.log.clear();
        self.log_evicted = 0;
        self.names.clear();
        self.virtual_now_us = 0;
        // Window *contents* are recorded state; the configured shape is
        // an identity (like the mode) and survives.
        if let Some(w) = &mut self.window {
            w.clear();
        }
    }

    /// Total events recorded since the last reset.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded
    }

    /// Read access to the live metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Write access to the live metrics registry (instrumentation only).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Copies out the flight-recorder contents, oldest first.
    #[must_use]
    pub fn ring_snapshot(&self) -> Vec<TraceEvent> {
        self.ring.snapshot()
    }

    /// Replaces the flight recorder with an empty one of `capacity`
    /// (min 1); retained events and the eviction counter are dropped.
    pub fn set_ring_capacity(&mut self, capacity: usize) {
        self.ring = FlightRecorder::with_capacity(capacity);
    }

    /// The flight recorder's retention cap.
    #[must_use]
    pub fn ring_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events the ring has evicted since the last reset.
    #[must_use]
    pub fn ring_overwritten(&self) -> u64 {
        self.ring.overwritten()
    }

    // ----- virtual time and the telemetry window -------------------------

    /// Advances the virtual clock (monotonic max — site clocks and the
    /// simulator may stamp the same instant at different resolutions).
    pub fn set_virtual_now_us(&mut self, us: u64) {
        self.virtual_now_us = self.virtual_now_us.max(us);
    }

    /// The virtual clock, in microseconds.
    #[must_use]
    pub fn virtual_now_us(&self) -> u64 {
        self.virtual_now_us
    }

    /// Installs (or removes, with `None`) the sliding telemetry window.
    /// Replacing a window drops its samples.
    pub fn set_window(&mut self, cfg: Option<WindowConfig>) {
        self.window = cfg.map(WindowState::new);
    }

    /// The configured window shape, if windowing is on.
    #[must_use]
    pub fn window_config(&self) -> Option<WindowConfig> {
        self.window.as_ref().map(WindowState::config)
    }

    /// Folds the live window into a [`TelemetrySnapshot`].
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::collect(self.mode, self.virtual_now_us, self.window.as_ref())
    }

    /// Window feed: one completed application against `object`.
    pub fn window_invoke(
        &mut self,
        object: ObjectId,
        ok: bool,
        fuel: u64,
        latency_ns: Option<u64>,
    ) {
        let now = self.virtual_now_us;
        if let Some(b) = self.window.as_mut().and_then(|w| w.bucket_at(now)) {
            let s = b.objects.entry(object).or_default();
            s.invocations += 1;
            if !ok {
                s.errors += 1;
            }
            s.fuel.record(fuel);
            if let Some(ns) = latency_ns {
                s.latency_ns.record(ns);
            }
        }
    }

    /// Window feed: one remote invocation of `object` requested by the
    /// site `src`. Ignored unless the window opted into caller tracking
    /// ([`WindowConfig::with_callers`]), so pre-advisor snapshots stay
    /// byte-identical.
    pub fn window_remote_call(&mut self, src: NodeId, object: ObjectId) {
        let now = self.virtual_now_us;
        if let Some(b) = self
            .window
            .as_mut()
            .filter(|w| w.config().track_callers)
            .and_then(|w| w.bucket_at(now))
        {
            *b.objects
                .entry(object)
                .or_default()
                .remote_callers
                .entry(src)
                .or_insert(0) += 1;
        }
    }

    /// Window feed: a checkout collision (a re-entrant cycle) on `object`.
    pub fn window_collision(&mut self, object: ObjectId) {
        let now = self.virtual_now_us;
        if let Some(b) = self.window.as_mut().and_then(|w| w.bucket_at(now)) {
            b.objects.entry(object).or_default().busy_collisions += 1;
        }
    }

    /// Window feed: one call-matrix edge (`src == dst` for an execution
    /// at a site, `src != dst` for a cross-site invocation request).
    pub fn window_call(&mut self, src: NodeId, dst: NodeId) {
        let now = self.virtual_now_us;
        if let Some(b) = self.window.as_mut().and_then(|w| w.bucket_at(now)) {
            *b.calls.entry((src, dst)).or_insert(0) += 1;
        }
    }

    /// Window feed: a delivery over `src → dst` that spent `latency_us`
    /// of virtual time on the wire.
    pub fn window_link_delivery(&mut self, src: NodeId, dst: NodeId, bytes: u64, latency_us: u64) {
        let now = self.virtual_now_us;
        if let Some(b) = self.window.as_mut().and_then(|w| w.bucket_at(now)) {
            let l = b.links.entry((src, dst)).or_default();
            l.delivered += 1;
            l.bytes += bytes;
            l.latency_us.record(latency_us);
        }
    }

    /// Window feed: a message lost on `src → dst`.
    pub fn window_link_drop(&mut self, src: NodeId, dst: NodeId) {
        let now = self.virtual_now_us;
        if let Some(b) = self.window.as_mut().and_then(|w| w.bucket_at(now)) {
            b.links.entry((src, dst)).or_default().dropped += 1;
        }
    }

    // ----- trace context -------------------------------------------------

    /// `(trace, span)` of the innermost open span, or the active trace
    /// with span 0 when none is open. `(0, 0)` means no activity.
    #[must_use]
    pub fn current_context(&self) -> (u64, u64) {
        let span = self.span_stack.last().copied().unwrap_or(0);
        let trace = if span == 0 && self.span_stack.is_empty() && self.active_trace == 0 {
            0
        } else {
            self.active_trace
        };
        (trace, span)
    }

    /// Installs a trace continuation: the next *root* span joins `trace`
    /// with `parent` as its parent span (how a migration hop links the
    /// remote half to the dispatching half). Returns the previous pair so
    /// a scope guard can restore it.
    pub fn set_continuation(&mut self, trace: u64, parent: u64) -> (u64, u64) {
        let prev = (self.forced_trace, self.forced_parent);
        self.forced_trace = trace;
        self.forced_parent = parent;
        // Keep local ids ahead of imported ones so spans stay unique
        // even if the continuation originated from another recorder.
        if trace >= self.next_trace {
            self.next_trace = trace + 1;
        }
        if parent >= self.next_span {
            self.next_span = parent + 1;
        }
        prev
    }

    // ----- recording -----------------------------------------------------

    /// The shared handle for selector `name`: the interned one when the
    /// recorder has seen it, otherwise a fresh one, kept while the
    /// interner has room.
    pub(crate) fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(known) = self.names.get(name) {
            return Arc::clone(known);
        }
        let fresh: Arc<str> = Arc::from(name);
        if self.names.len() < INTERNED_NAMES_CAP {
            self.names.insert(Arc::clone(&fresh));
        }
        fresh
    }

    fn emit(&mut self, trace: u64, span: u64, parent: u64, kind: EventKind) {
        let te = TraceEvent {
            event: Event {
                seq: self.seq,
                trace,
                span,
                parent,
                at_us: self.virtual_now_us,
            },
            kind,
        };
        self.seq += 1;
        self.events_recorded += 1;
        self.ring.record(te);
    }

    /// Records a point event attributed to the innermost open span.
    pub fn record(&mut self, kind: EventKind) {
        let (trace, span) = self.current_context();
        let parent = if self.span_stack.len() >= 2 {
            self.span_stack[self.span_stack.len() - 2]
        } else {
            0
        };
        self.emit(trace, span, parent, kind);
    }

    /// Opens a span: assigns a fresh span id under the current (or a
    /// fresh / continued) trace, pushes it, and records `kind`.
    pub fn open_span(&mut self, kind: EventKind) -> SpanHandle {
        let parent = match self.span_stack.last() {
            Some(top) => *top,
            None => {
                self.active_trace = if self.forced_trace != 0 {
                    self.forced_trace
                } else {
                    let t = self.next_trace;
                    self.next_trace += 1;
                    t
                };
                self.forced_parent
            }
        };
        let span = self.next_span;
        self.next_span += 1;
        self.span_stack.push(span);
        let trace = self.active_trace;
        self.emit(trace, span, parent, kind);
        let started = if self.mode == ObsMode::Full {
            Some(Instant::now())
        } else {
            None
        };
        SpanHandle { span, started }
    }

    /// Closes a span: records `kind` with the span's ids and pops it
    /// (and anything opened after it that was leaked by an error path).
    pub fn close_span(&mut self, handle: SpanHandle, kind: EventKind) {
        if !handle.is_active() {
            return;
        }
        let parent = match self.span_stack.iter().rposition(|s| *s == handle.span) {
            Some(pos) => {
                let parent = if pos > 0 { self.span_stack[pos - 1] } else { 0 };
                self.span_stack.truncate(pos);
                parent
            }
            None => 0,
        };
        let trace = self.active_trace;
        self.emit(trace, handle.span, parent, kind);
        if self.span_stack.is_empty() {
            self.active_trace = 0;
        }
    }

    // ----- log channel ---------------------------------------------------

    /// Appends to the always-on log channel (bounded).
    pub fn log_line(&mut self, node: NodeId, caller: ObjectId, message: &str) {
        if self.log.len() == LOG_CHANNEL_CAPACITY {
            self.log.pop_front();
            self.log_evicted += 1;
        }
        self.log.push_back((node, caller, message.to_owned()));
        // When recording, the line also enters the trace stream.
        if self.mode != ObsMode::Disabled {
            self.record(EventKind::Log {
                node,
                caller,
                message: message.to_owned(),
            });
        }
    }

    /// Log lines observed by `node`'s runtime, oldest first.
    #[must_use]
    pub fn log_lines_for(&self, node: NodeId) -> Vec<(ObjectId, String)> {
        self.log
            .iter()
            .filter(|(n, _, _)| *n == node)
            .map(|(_, caller, msg)| (*caller, msg.clone()))
            .collect()
    }

    /// Lines evicted from the log channel since the last reset.
    #[must_use]
    pub fn log_evicted(&self) -> u64 {
        self.log_evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(r: &mut Recorder, method: &str, level: u32) -> SpanHandle {
        r.open_span(EventKind::InvokeStart {
            object: ObjectId::SYSTEM,
            method: method.into(),
            caller: ObjectId::SYSTEM,
            level,
        })
    }

    fn end(r: &mut Recorder, handle: SpanHandle) {
        r.close_span(
            handle,
            EventKind::InvokeEnd {
                object: ObjectId::SYSTEM,
                method: "m".into(),
                outcome: "ok",
                fuel_used: 0,
            },
        );
    }

    #[test]
    fn spans_nest_and_share_a_trace() {
        let mut r = Recorder::new();
        r.set_mode(ObsMode::Ring);
        let outer = start(&mut r, "outer", 1);
        let inner = start(&mut r, "inner", 0);
        end(&mut r, inner);
        end(&mut r, outer);
        let ring = r.ring_snapshot();
        assert_eq!(ring.len(), 4);
        let traces: Vec<u64> = ring.iter().map(|t| t.event.trace).collect();
        assert!(traces.iter().all(|t| *t == traces[0]));
        // inner's start is parented on outer's span
        assert_eq!(ring[1].event.parent, ring[0].event.span);
        // a second activity gets a fresh trace
        let solo = start(&mut r, "solo", 0);
        end(&mut r, solo);
        let ring = r.ring_snapshot();
        assert_ne!(ring[4].event.trace, traces[0]);
    }

    #[test]
    fn continuation_joins_the_existing_trace() {
        let mut r = Recorder::new();
        r.set_mode(ObsMode::Ring);
        let local = start(&mut r, "dispatch", 0);
        let (trace, span) = r.current_context();
        end(&mut r, local);
        let prev = r.set_continuation(trace, span);
        let remote = start(&mut r, "adopt", 0);
        end(&mut r, remote);
        r.set_continuation(prev.0, prev.1);
        let ring = r.ring_snapshot();
        assert_eq!(ring[2].event.trace, trace);
        assert_eq!(ring[2].event.parent, span);
        // after restoring, new activities are fresh again
        let after = start(&mut r, "later", 0);
        end(&mut r, after);
        let ring = r.ring_snapshot();
        assert_ne!(ring[4].event.trace, trace);
        assert_eq!(ring[4].event.parent, 0);
    }

    #[test]
    fn point_events_attach_to_the_open_span() {
        let mut r = Recorder::new();
        r.set_mode(ObsMode::Ring);
        let h = start(&mut r, "m", 0);
        r.record(EventKind::MetaOp {
            object: ObjectId::SYSTEM,
            op: "getDataItem",
        });
        end(&mut r, h);
        let ring = r.ring_snapshot();
        assert_eq!(ring[1].event.span, ring[0].event.span);
    }

    #[test]
    fn log_channel_works_while_disabled() {
        let mut r = Recorder::new();
        assert_eq!(r.mode(), ObsMode::Disabled);
        r.log_line(NodeId(9), ObjectId::SYSTEM, "tick");
        r.log_line(NodeId(8), ObjectId::SYSTEM, "other-node");
        assert_eq!(r.events_recorded(), 0, "disabled mode records no events");
        let lines = r.log_lines_for(NodeId(9));
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].1, "tick");
    }

    #[test]
    fn reset_clears_everything_but_mode() {
        let mut r = Recorder::new();
        r.set_mode(ObsMode::Full);
        let h = start(&mut r, "m", 0);
        end(&mut r, h);
        r.log_line(NodeId(1), ObjectId::SYSTEM, "x");
        r.reset();
        assert_eq!(r.events_recorded(), 0);
        assert!(r.ring_snapshot().is_empty());
        assert!(r.log_lines_for(NodeId(1)).is_empty());
        assert_eq!(r.mode(), ObsMode::Full);
    }

    #[test]
    fn interner_shares_known_names_and_is_bounded() {
        let mut r = Recorder::new();
        let a = r.intern("bump");
        assert!(Arc::ptr_eq(&a, &r.intern("bump")));
        // Hostile code can mint any number of selectors: past the cap,
        // new names are served but not retained.
        for i in 0..INTERNED_NAMES_CAP + 100 {
            let name = format!("m{i}");
            assert_eq!(&*r.intern(&name), name.as_str());
        }
        assert_eq!(r.names.len(), INTERNED_NAMES_CAP);
        let late = format!("m{}", INTERNED_NAMES_CAP + 50);
        assert!(!Arc::ptr_eq(&r.intern(&late), &r.intern(&late)));
        assert_eq!(r.names.len(), INTERNED_NAMES_CAP);
        // Names interned before the cap filled stay shared.
        assert!(Arc::ptr_eq(&a, &r.intern("bump")));
        r.reset();
        assert!(r.names.is_empty());
    }
}
