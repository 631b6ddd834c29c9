//! # mrom-obs
//!
//! Observability for the MROM reproduction: a flight-recorder trace, a
//! metrics registry, and the data feed for the reflective `getStats`
//! surface — *zero-cost when disabled*.
//!
//! The paper's first principle is self-representation: an object answers
//! questions about its own structure. This crate extends that to
//! *behaviour* — what did the last thousand invocations do, where did
//! fuel go, which pre-wraps vetoed — so the answer can be queried both by
//! tools (`mrom-top`) and through the model itself (`getStats`).
//!
//! ## Design
//!
//! All state is **thread-local**. The reproduction simulates whole worlds
//! — several runtimes, a network, a federation — on one thread, so a
//! single recorder per thread sees every side of a migration and can link
//! the hop into one causal trace, while parallel tests stay isolated
//! without locks.
//!
//! The fast path is one thread-local byte: when the mode is
//! [`ObsMode::Disabled`] (the default), instrumentation call sites check
//! [`enabled`] and fall through — no event is constructed, nothing
//! allocates, no counter moves. [`events_recorded`] is the proof: tests
//! assert it stays put across a disabled-mode workload.
//!
//! ```
//! use mrom_obs as obs;
//!
//! obs::reset();
//! obs::set_mode(obs::ObsMode::Ring);
//! let span = obs::invoke_start(
//!     mrom_value::ObjectId::SYSTEM,
//!     "greet",
//!     mrom_value::ObjectId::SYSTEM,
//!     0,
//! );
//! obs::invoke_end(span, mrom_value::ObjectId::SYSTEM, "greet", "ok", 17);
//! assert_eq!(obs::events_recorded(), 2);
//! obs::set_mode(obs::ObsMode::Disabled);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod json;
mod metrics;
mod profile;
mod recorder;
mod ring;
mod window;

pub use event::{Event, EventKind, TraceEvent, WrapStage};
pub use export::{chrome_trace, validate_chrome_trace};
pub use json::{to_json, to_json_pretty};
pub use metrics::{
    AdmissionMetrics, FederationMetrics, Histogram, InvokeMetrics, Metrics, MigrateMetrics,
    NetMetrics, ObjectStats, PersistMetrics, ScriptMetrics, SharedMetrics, HISTOGRAM_BUCKETS,
};
pub use profile::{LinkProfile, ObjectProfile, TelemetrySnapshot, TELEMETRY_SCHEMA};
pub use recorder::{ObsMode, Recorder, SpanHandle, LOG_CHANNEL_CAPACITY};
pub use ring::{FlightRecorder, DEFAULT_RING_CAPACITY};
pub use window::{EpochBucket, LinkWindowStats, ObjectWindowStats, WindowConfig, WindowState};

use std::cell::{Cell, RefCell};

use mrom_value::{NodeId, ObjectId, Value};

thread_local! {
    /// Fast-path mode byte, read on every instrumented operation.
    static MODE: Cell<u8> = const { Cell::new(0) };
    /// The per-thread recorder (only touched when recording or logging).
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Runs `f` against this thread's recorder. Escape hatch for tools and
/// tests; instrumentation should use the typed helpers below.
pub fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|r| f(&mut r.borrow_mut()))
}

/// This thread's observability mode.
#[inline]
#[must_use]
pub fn mode() -> ObsMode {
    MODE.with(|m| ObsMode::from_u8(m.get()))
}

/// Whether any recording is on — the one-byte check instrumented hot
/// paths perform before constructing anything.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    MODE.with(|m| m.get() != 0)
}

/// Switches this thread's mode. State is preserved; call [`reset`] to
/// clear it.
pub fn set_mode(mode: ObsMode) {
    MODE.with(|m| m.set(mode.as_u8()));
    with_recorder(|r| r.set_mode(mode));
}

/// Clears ring, metrics, counters, trace state, and the log channel.
pub fn reset() {
    with_recorder(Recorder::reset);
}

// ===== snapshots =========================================================

/// Total events recorded on this thread since the last [`reset`].
#[must_use]
pub fn events_recorded() -> u64 {
    with_recorder(|r| r.events_recorded())
}

/// Copies out the flight-recorder ring, oldest first.
#[must_use]
pub fn ring_snapshot() -> Vec<TraceEvent> {
    with_recorder(|r| r.ring_snapshot())
}

/// Events evicted from the ring since the last [`reset`].
#[must_use]
pub fn ring_overwritten() -> u64 {
    with_recorder(|r| r.ring_overwritten())
}

/// Replaces this thread's flight recorder with an empty ring of
/// `capacity` events (min 1). Retained events are dropped.
pub fn set_ring_capacity(capacity: usize) {
    with_recorder(|r| r.set_ring_capacity(capacity));
}

/// This thread's flight-recorder retention cap.
#[must_use]
pub fn ring_capacity() -> usize {
    with_recorder(|r| r.ring_capacity())
}

/// Structural clone of the live metrics registry.
#[must_use]
pub fn metrics_snapshot() -> Metrics {
    with_recorder(|r| r.metrics().clone())
}

/// Per-object tallies for `id` (zeroed if never seen).
#[must_use]
pub fn object_stats(id: ObjectId) -> ObjectStats {
    with_recorder(|r| r.metrics().per_object.get(&id).cloned().unwrap_or_default())
}

/// Per-object tallies as a value tree — the payload of the reflective
/// `getStats` meta-method.
#[must_use]
pub fn object_stats_value(id: ObjectId) -> Value {
    object_stats(id).to_value()
}

/// The stable schema tag stamped on every [`snapshot_value`] tree —
/// the contract `mrom-top --snapshot --json` consumers parse against
/// (see docs/OBSERVABILITY.md for the field-by-field description).
pub const METRICS_SCHEMA: &str = "mrom.metrics.v1";

/// Whole-registry snapshot as a value tree, wrapped with the schema
/// tag, the mode, and the event count.
#[must_use]
pub fn snapshot_value() -> Value {
    with_recorder(|r| {
        Value::map([
            ("schema", Value::from(METRICS_SCHEMA)),
            ("mode", Value::from(r.mode().name())),
            (
                "events_recorded",
                Value::Int(i64::try_from(r.events_recorded()).unwrap_or(i64::MAX)),
            ),
            ("metrics", r.metrics().to_value()),
        ])
    })
}

/// [`snapshot_value`] rendered as compact JSON.
#[must_use]
pub fn snapshot_json() -> String {
    to_json(&snapshot_value())
}

/// [`snapshot_value`] rendered as indented JSON.
#[must_use]
pub fn snapshot_json_pretty() -> String {
    to_json_pretty(&snapshot_value())
}

// ===== virtual time and the telemetry window =============================

/// Advances this thread's virtual clock (monotonic max). The network
/// simulator stamps delivery times here so telemetry windows — and the
/// Chrome-trace timestamps — follow *simulated* time and stay
/// deterministic per seed. One branch when recording is off.
#[inline]
pub fn set_virtual_now_us(us: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.set_virtual_now_us(us));
}

/// This thread's virtual clock, in microseconds.
#[must_use]
pub fn virtual_now_us() -> u64 {
    with_recorder(|r| r.virtual_now_us())
}

/// Installs (or, with `None`, removes) the sliding telemetry window on
/// this thread. Off by default: without a window, the recording paths
/// pay one `Option` check and the disabled fast path is untouched.
pub fn set_window(cfg: Option<WindowConfig>) {
    with_recorder(|r| r.set_window(cfg));
}

/// The configured window shape, if windowing is on.
#[must_use]
pub fn window_config() -> Option<WindowConfig> {
    with_recorder(|r| r.window_config())
}

/// Folds this thread's live window into a [`TelemetrySnapshot`] — the
/// payload behind `getTelemetry`, `Runtime::telemetry()`, and
/// `mrom-top --watch`.
#[must_use]
pub fn telemetry_snapshot() -> TelemetrySnapshot {
    with_recorder(|r| r.telemetry())
}

/// [`telemetry_snapshot`] as a value tree (`mrom.telemetry.v1` schema).
#[must_use]
pub fn telemetry_value() -> Value {
    telemetry_snapshot().to_value()
}

// ===== trace context =====================================================

/// `(trace, span)` of the innermost open span on this thread, or
/// `(0, 0)` when nothing is active. A migration hop carries this pair to
/// the destination so the remote half joins the same trace.
#[must_use]
pub fn current_trace_context() -> (u64, u64) {
    if !enabled() {
        return (0, 0);
    }
    with_recorder(|r| r.current_context())
}

/// Guard that scopes a trace continuation (see [`continue_trace`]).
/// Restores the previous continuation when dropped.
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<(u64, u64)>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some((trace, parent)) = self.prev.take() {
            with_recorder(|r| {
                r.set_continuation(trace, parent);
            });
        }
    }
}

/// Installs a trace continuation for the duration of the returned guard:
/// the next root span joins `trace` with `parent` as its parent. Inert
/// when recording is off or `trace` is 0 (no context travelled).
#[must_use]
pub fn continue_trace(trace: u64, parent: u64) -> TraceScope {
    if !enabled() || trace == 0 {
        return TraceScope { prev: None };
    }
    let prev = with_recorder(|r| r.set_continuation(trace, parent));
    TraceScope { prev: Some(prev) }
}

// ===== invocation machinery ==============================================

/// Opens an invocation span (one per tower level entered).
#[inline]
#[must_use]
pub fn invoke_start(object: ObjectId, method: &str, caller: ObjectId, level: u32) -> SpanHandle {
    if !enabled() {
        return SpanHandle::NONE;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.invoke.invocations += 1;
        m.invoke.max_tower_depth = m.invoke.max_tower_depth.max(u64::from(level));
        let per = m.object_mut(object);
        per.invocations += 1;
        per.last_method.clear();
        per.last_method.push_str(method);
        let method = r.intern(method);
        r.open_span(EventKind::InvokeStart {
            object,
            method,
            caller,
            level,
        })
    })
}

/// Closes an invocation span. `outcome` is `"ok"` or an error label.
#[inline]
pub fn invoke_end(
    handle: SpanHandle,
    object: ObjectId,
    method: &str,
    outcome: &'static str,
    fuel_used: u64,
) {
    if !handle.is_active() {
        return;
    }
    with_recorder(|r| {
        let latency_ns = handle
            .started
            .map(|started| u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Some(ns) = latency_ns {
            r.metrics_mut().invoke.latency_ns.record(ns);
        }
        let m = r.metrics_mut();
        m.invoke.fuel.record(fuel_used);
        let ok = outcome == "ok";
        if !ok {
            m.invoke.errors += 1;
        }
        let per = m.object_mut(object);
        per.fuel_used += fuel_used;
        if !ok {
            per.errors += 1;
        }
        r.window_invoke(object, ok, fuel_used, latency_ns);
        let method = r.intern(method);
        r.close_span(
            handle,
            EventKind::InvokeEnd {
                object,
                method,
                outcome,
                fuel_used,
            },
        );
    });
}

/// Records a Lookup-phase resolution.
#[inline]
pub fn lookup(object: ObjectId, method: &str, cache_hit: bool, found: bool) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        if cache_hit {
            r.metrics_mut().invoke.cache_hits += 1;
        } else {
            r.metrics_mut().invoke.cache_misses += 1;
        }
        let method = r.intern(method);
        r.record(EventKind::Lookup {
            object,
            method,
            cache_hit,
            found,
        });
    });
}

/// Records a Match-phase ACL verdict.
#[inline]
pub fn acl_decision(object: ObjectId, method: &str, caller: ObjectId, allowed: bool) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        if allowed {
            m.invoke.acl_allowed += 1;
        } else {
            m.invoke.acl_denied += 1;
            m.object_mut(object).acl_denied += 1;
        }
        let method = r.intern(method);
        r.record(EventKind::AclDecision {
            object,
            method,
            caller,
            allowed,
        });
    });
}

/// Records a pre- or post-procedure verdict.
#[inline]
pub fn wrap_verdict(object: ObjectId, method: &str, stage: WrapStage, passed: bool) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        match (stage, passed) {
            (WrapStage::Pre, true) => m.invoke.pre_pass += 1,
            (WrapStage::Pre, false) => m.invoke.pre_veto += 1,
            (WrapStage::Post, true) => m.invoke.post_pass += 1,
            (WrapStage::Post, false) => m.invoke.post_veto += 1,
        }
        let method = r.intern(method);
        r.record(EventKind::WrapVerdict {
            object,
            method,
            stage,
            passed,
        });
    });
}

/// Records a reflective meta-operation.
#[inline]
pub fn meta_op(object: ObjectId, op: &'static str) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().invoke.meta_ops += 1;
        r.metrics_mut().object_mut(object).meta_ops += 1;
        r.record(EventKind::MetaOp { object, op });
    });
}

/// Records a dispatch routed through a meta-invoke level.
#[inline]
pub fn tower_descend(object: ObjectId, level: u32, meta: &str) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.invoke.tower_descents += 1;
        m.invoke.max_tower_depth = m.invoke.max_tower_depth.max(u64::from(level));
        let meta = r.intern(meta);
        r.record(EventKind::TowerDescend {
            object,
            level,
            meta,
        });
    });
}

/// Records a completed script-body execution.
#[inline]
pub fn script_run(fuel_used: u64, host_calls: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.script.runs += 1;
        m.script.host_calls += host_calls;
        m.script.fuel.record(fuel_used);
        r.record(EventKind::ScriptRun {
            fuel_used,
            host_calls,
        });
    });
}

/// Records a checkout collision — a re-entrant cycle of `send`s back
/// into an object its site host has checked out — classified by effect
/// signatures: `disjoint = Some(true)` when the in-flight and incoming
/// methods provably touch disjoint state, `Some(false)` when they
/// overlap, `None` when no comparison was possible. The name and the
/// `shared` metrics block keep their historical spelling.
#[inline]
pub fn shared_collision(
    node: NodeId,
    target: ObjectId,
    in_flight: &str,
    incoming: &str,
    disjoint: Option<bool>,
) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.shared.busy_collisions += 1;
        if disjoint == Some(true) {
            m.shared.disjoint_collisions += 1;
        } else {
            m.shared.overlapping_collisions += 1;
        }
        r.window_collision(target);
        let (in_flight, incoming) = (r.intern(in_flight), r.intern(incoming));
        r.record(EventKind::SharedCollision {
            node,
            target,
            in_flight,
            incoming,
            disjoint,
        });
    });
}

/// Records a `Runtime::invoke` dispatch.
#[inline]
pub fn runtime_invoke(node: NodeId, target: ObjectId, method: &str) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        // Call-matrix diagonal: an invocation executed *at* this site
        // (local and remotely-requested dispatches alike).
        r.window_call(node, node);
        let method = r.intern(method);
        r.record(EventKind::RuntimeInvoke {
            node,
            target,
            method,
        });
    });
}

// ===== log channel (always on) ===========================================

/// Appends to the bounded log channel. Unlike every other helper this
/// records even in `Disabled` mode: a script's `self.log(...)` is
/// program output, whose behaviour never depends on an observability
/// switch.
pub fn log_line(node: NodeId, caller: ObjectId, message: &str) {
    with_recorder(|r| r.log_line(node, caller, message));
}

/// Log lines observed by `node`'s runtime, oldest first.
#[must_use]
pub fn log_lines_for(node: NodeId) -> Vec<(ObjectId, String)> {
    with_recorder(|r| r.log_lines_for(node))
}

// ===== migration, persistence, admission =================================

/// Records a migration-image encode.
#[inline]
pub fn migrate_encode(object: ObjectId, bytes: usize) {
    if !enabled() {
        return;
    }
    let bytes = bytes as u64;
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.migrate.encodes += 1;
        m.migrate.bytes_out += bytes;
        r.record(EventKind::MigrateEncode { object, bytes });
    });
}

/// Records a migration-image decode attempt.
#[inline]
pub fn migrate_decode(bytes: usize, ok: bool) {
    if !enabled() {
        return;
    }
    let bytes = bytes as u64;
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.migrate.decodes += 1;
        m.migrate.bytes_in += bytes;
        if !ok {
            m.migrate.decode_errors += 1;
        }
        r.record(EventKind::MigrateDecode { bytes, ok });
    });
}

/// Records one code-table lookup for an arriving fixed-method section
/// and the tables its insertion evicted.
#[inline]
pub fn code_table(hit: bool, evicted: usize) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = &mut r.metrics_mut().migrate;
        if hit {
            m.table_hits += 1;
        } else {
            m.table_misses += 1;
        }
        m.table_evictions += evicted as u64;
    });
}

/// Records an admission-analysis verdict.
#[inline]
pub fn admission_verdict(context: &str, accepted: bool, findings: usize) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.admission.checked += 1;
        m.admission.findings += findings as u64;
        if accepted {
            m.admission.accepted += 1;
        } else {
            m.admission.rejected += 1;
        }
        r.record(EventKind::Admission {
            context: context.to_owned(),
            accepted,
            findings: u32::try_from(findings).unwrap_or(u32::MAX),
        });
    });
}

/// Records a depot write.
#[inline]
pub fn depot_save(object: ObjectId, bytes: usize) {
    if !enabled() {
        return;
    }
    let bytes = bytes as u64;
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.persist.saves += 1;
        m.persist.bytes_written += bytes;
        r.record(EventKind::DepotSave { object, bytes });
    });
}

/// Records a depot read attempt. `corrupt` marks CRC / framing faults.
#[inline]
pub fn depot_restore(ok: bool, corrupt: bool) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.persist.restores += 1;
        if !ok {
            m.persist.restore_errors += 1;
        }
        if corrupt {
            m.persist.corruptions += 1;
        }
        r.record(EventKind::DepotRestore { ok, corrupt });
    });
}

// ===== federation and network ============================================

/// Records a federation protocol send.
#[inline]
pub fn fed_send(src: NodeId, dst: NodeId, kind: &'static str, bytes: usize) {
    if !enabled() {
        return;
    }
    let bytes = bytes as u64;
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.federation.sends += 1;
        m.federation.bytes_sent += bytes;
        // Call-matrix off-diagonal: cross-site invocation requests.
        if kind == "invoke_req" && src != dst {
            r.window_call(src, dst);
        }
        r.record(EventKind::FedSend {
            src,
            dst,
            kind,
            bytes,
        });
    });
}

/// Attributes one logical remote invocation of `target` to the
/// requesting site `src` in the telemetry window's per-object caller
/// map. Fed from the federation's `remote_invoke` entry points — once
/// per logical operation, before any retries — and only recorded when
/// the installed window opted into caller tracking
/// ([`WindowConfig::with_callers`]); otherwise it is a no-op, keeping
/// pre-advisor telemetry byte-identical.
#[inline]
pub fn remote_invoke_requested(src: NodeId, target: ObjectId) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.window_remote_call(src, target));
}

/// Records a federation protocol receive.
#[inline]
pub fn fed_recv(src: NodeId, dst: NodeId, kind: &'static str) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.receives += 1;
        r.record(EventKind::FedRecv { src, dst, kind });
    });
}

/// Opens a span around a sender-side federation operation
/// (`dispatch_object`, `remote_invoke`). While this span is open,
/// [`current_trace_context`] is nonzero, so the trace/parent pair the
/// outgoing message captures lets the remote half join the same trace
/// even when the operation was not started from inside an invocation.
#[inline]
#[must_use]
pub fn fed_op_start(node: NodeId, op: &'static str) -> SpanHandle {
    if !enabled() {
        return SpanHandle::NONE;
    }
    with_recorder(|r| r.open_span(EventKind::FedOpStart { node, op }))
}

/// Closes a federation-operation span opened by [`fed_op_start`].
#[inline]
pub fn fed_op_end(handle: SpanHandle, op: &'static str, ok: bool) {
    if !handle.is_active() {
        return;
    }
    with_recorder(|r| r.close_span(handle, EventKind::FedOpEnd { op, ok }));
}

/// Records a call relayed through an ambassador to its origin site.
#[inline]
pub fn ambassador_relay(host: NodeId, object: ObjectId, method: &str) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.ambassador_relays += 1;
        let method = r.intern(method);
        r.record(EventKind::AmbassadorRelay {
            host,
            object,
            method,
        });
    });
}

/// Records a whole-object dispatch (the sending half of a hop).
#[inline]
pub fn object_dispatched(object: ObjectId, from: NodeId, to: NodeId) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.objects_dispatched += 1;
        r.record(EventKind::ObjectDispatched { object, from, to });
    });
}

/// Records an adoption (the receiving half of a hop).
#[inline]
pub fn object_adopted(object: ObjectId, at: NodeId) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.objects_adopted += 1;
        r.record(EventKind::ObjectAdopted { object, at });
    });
}

/// Records a federation request being re-posted after a timeout.
#[inline]
pub fn fed_retry(node: NodeId, op: &'static str, attempt: u32) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.retries += 1;
        r.record(EventKind::FedRetry { node, op, attempt });
    });
}

/// Records a duplicate request answered from a receiver's reply cache.
#[inline]
pub fn fed_dedup(node: NodeId, kind: &'static str) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.dedup_hits += 1;
        r.record(EventKind::FedDedup { node, kind });
    });
}

/// Records a site crash (volatile state lost).
#[inline]
pub fn site_crash(node: NodeId) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.site_crashes += 1;
        r.record(EventKind::SiteCrash { node });
    });
}

/// Records a site restart bootstrapped from its depot.
#[inline]
pub fn site_restart(node: NodeId, restored: u64, quarantined: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        r.metrics_mut().federation.site_restarts += 1;
        r.record(EventKind::SiteRestart {
            node,
            restored,
            quarantined,
        });
    });
}

/// Bumps the network send counter (metrics only; no trace event — one
/// per message would drown the ring).
#[inline]
pub fn net_send() {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.metrics_mut().net.sends += 1);
}

/// Bumps the network drop counter (metrics only).
#[inline]
pub fn net_drop() {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.metrics_mut().net.drops += 1);
}

/// Bumps the network duplication counter (metrics only).
#[inline]
pub fn net_duplicate() {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.metrics_mut().net.duplicates += 1);
}

/// Bumps the network delivery counters (metrics only).
#[inline]
pub fn net_deliver(bytes: usize) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        let m = r.metrics_mut();
        m.net.deliveries += 1;
        m.net.bytes_delivered += bytes as u64;
    });
}

/// Records a delivery over one link into the telemetry window:
/// `latency_us` is the virtual time the message spent on the wire.
/// Like the other `net_*` hooks this emits no trace event (one per
/// message would drown the ring).
#[inline]
pub fn link_delivered(src: NodeId, dst: NodeId, bytes: usize, latency_us: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.window_link_delivery(src, dst, bytes as u64, latency_us));
}

/// Records a message lost on one link into the telemetry window.
#[inline]
pub fn link_dropped(src: NodeId, dst: NodeId) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.window_link_drop(src, dst));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test in this crate shares no state with these — each `#[test]`
    /// runs on its own thread, so the thread-local recorder is private.
    #[test]
    fn disabled_mode_records_nothing() {
        assert!(!enabled());
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        assert!(!span.is_active());
        invoke_end(span, ObjectId::SYSTEM, "m", "ok", 5);
        lookup(ObjectId::SYSTEM, "m", true, true);
        meta_op(ObjectId::SYSTEM, "getDataItem");
        net_send();
        assert_eq!(events_recorded(), 0);
        assert!(ring_snapshot().is_empty());
        assert_eq!(metrics_snapshot(), Metrics::default());
    }

    #[test]
    fn full_mode_times_spans_and_counts() {
        set_mode(ObsMode::Full);
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        assert!(span.is_active());
        assert!(span.started.is_some());
        invoke_end(span, ObjectId::SYSTEM, "m", "ok", 40);
        let m = metrics_snapshot();
        assert_eq!(m.invoke.invocations, 1);
        assert_eq!(m.invoke.latency_ns.count(), 1);
        assert_eq!(m.invoke.fuel.count(), 1);
        assert_eq!(object_stats(ObjectId::SYSTEM).fuel_used, 40);
        assert_eq!(object_stats(ObjectId::SYSTEM).last_method, "m");
    }

    #[test]
    fn ring_mode_skips_the_clock() {
        set_mode(ObsMode::Ring);
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        assert!(span.is_active());
        assert!(span.started.is_none());
        invoke_end(span, ObjectId::SYSTEM, "m", "no-such-method", 0);
        let m = metrics_snapshot();
        assert_eq!(m.invoke.latency_ns.count(), 0);
        assert_eq!(m.invoke.errors, 1);
        assert_eq!(object_stats(ObjectId::SYSTEM).errors, 1);
    }

    #[test]
    fn events_naming_one_selector_share_one_allocation() {
        set_mode(ObsMode::Ring);
        lookup(ObjectId::SYSTEM, "bump", true, true);
        let span = invoke_start(ObjectId::SYSTEM, &String::from("bump"), ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "bump", "ok", 3);
        let ring = ring_snapshot();
        let names: Vec<&std::sync::Arc<str>> = ring
            .iter()
            .map(|e| match &e.kind {
                EventKind::Lookup { method, .. }
                | EventKind::InvokeStart { method, .. }
                | EventKind::InvokeEnd { method, .. } => method,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(names.len(), 3);
        assert_eq!(&**names[0], "bump");
        assert!(names.iter().all(|n| std::sync::Arc::ptr_eq(n, names[0])));
        set_mode(ObsMode::Disabled);
    }

    #[test]
    fn continuation_guard_restores_on_drop() {
        set_mode(ObsMode::Ring);
        {
            let _scope = continue_trace(77, 5);
            let span = invoke_start(ObjectId::SYSTEM, "adopt", ObjectId::SYSTEM, 0);
            invoke_end(span, ObjectId::SYSTEM, "adopt", "ok", 0);
        }
        let ring = ring_snapshot();
        assert_eq!(ring[0].event.trace, 77);
        assert_eq!(ring[0].event.parent, 5);
        let span = invoke_start(ObjectId::SYSTEM, "later", ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "later", "ok", 0);
        let ring = ring_snapshot();
        assert_ne!(ring[2].event.trace, 77);
    }

    #[test]
    fn window_profiles_follow_virtual_time() {
        set_mode(ObsMode::Ring);
        set_window(Some(WindowConfig::new(1000, 4)));
        set_virtual_now_us(100);
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "m", "ok", 50);
        set_virtual_now_us(1100);
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "m", "err", 10);
        link_delivered(NodeId(1), NodeId(2), 32, 700);
        link_dropped(NodeId(1), NodeId(2));
        let snap = telemetry_snapshot();
        let p = snap.objects.get(&ObjectId::SYSTEM).expect("profiled");
        assert_eq!(p.invocations, 2);
        assert_eq!(p.errors, 1);
        assert_eq!(p.fuel_total, 60);
        let l = snap.links.get(&(NodeId(1), NodeId(2))).expect("link");
        assert_eq!(l.delivered, 1);
        assert_eq!(l.dropped, 1);
        assert_eq!(l.delivered_per_1k(), 500);
        assert_eq!(snap.head_epoch, 1);
        // Events carry the virtual stamp the Chrome exporter quotes.
        let ring = ring_snapshot();
        assert_eq!(ring[0].event.at_us, 100);
        assert_eq!(ring[2].event.at_us, 1100);
        set_window(None);
        set_mode(ObsMode::Disabled);
    }

    #[test]
    fn window_is_inert_until_configured_and_survives_reset() {
        set_mode(ObsMode::Ring);
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "m", "ok", 5);
        assert!(telemetry_snapshot().objects.is_empty());
        assert_eq!(telemetry_snapshot().window, None);
        set_window(Some(WindowConfig::DEFAULT));
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "m", "ok", 5);
        assert_eq!(
            telemetry_snapshot().objects[&ObjectId::SYSTEM].invocations,
            1
        );
        reset();
        // Shape survives reset; samples do not.
        assert_eq!(window_config(), Some(WindowConfig::DEFAULT));
        assert!(telemetry_snapshot().objects.is_empty());
        assert_eq!(virtual_now_us(), 0);
        set_window(None);
        set_mode(ObsMode::Disabled);
    }

    #[test]
    fn disabled_mode_ignores_window_feeds() {
        set_window(Some(WindowConfig::DEFAULT));
        assert!(!enabled());
        set_virtual_now_us(500);
        link_delivered(NodeId(1), NodeId(2), 8, 10);
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "m", "ok", 5);
        assert!(telemetry_snapshot().objects.is_empty());
        assert!(telemetry_snapshot().links.is_empty());
        assert_eq!(virtual_now_us(), 0, "clock is not advanced while disabled");
        set_window(None);
    }

    #[test]
    fn snapshot_json_is_renderable() {
        set_mode(ObsMode::Full);
        let span = invoke_start(ObjectId::SYSTEM, "m", ObjectId::SYSTEM, 0);
        invoke_end(span, ObjectId::SYSTEM, "m", "ok", 1);
        let json = snapshot_json();
        assert!(json.contains("\"mode\":\"full\""));
        assert!(json.contains("\"invocations\":1"));
        let pretty = snapshot_json_pretty();
        assert!(pretty.contains("\"invoke\""));
    }
}
