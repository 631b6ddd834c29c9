//! The event taxonomy: everything the instrumented layers can report.
//!
//! An [`Event`] is an envelope (sequence number, trace id, span linkage)
//! around an [`EventKind`] payload. Span-opening kinds (`InvokeStart`)
//! allocate a fresh span id and push it on the recorder's span stack;
//! every other kind is attributed to the span that is open at the moment
//! it is recorded, which is how nested meta-levels produce nested spans.

use std::fmt;
use std::sync::Arc;

use mrom_value::{NodeId, ObjectId};

/// Which wrap procedure of the Apply phase produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapStage {
    /// The pre-procedure, consulted before the body runs.
    Pre,
    /// The post-procedure, consulted after the body returns.
    Post,
}

impl WrapStage {
    /// Stable lowercase name used in dumps and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WrapStage::Pre => "pre",
            WrapStage::Post => "post",
        }
    }
}

/// The payload of one recorded event.
///
/// Field conventions: `object` is the receiver the event concerns,
/// `method` is the *selector as invoked* (a meta-level sees the base
/// method's name in its arguments, not here), and byte counts are wire
/// sizes after encoding. Selector names are shared `Arc<str>` handles
/// from the recorder's name interner, so recording an event copies no
/// string.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An invocation entered the Apply machinery (one per tower level).
    InvokeStart {
        /// Receiver of the invocation.
        object: ObjectId,
        /// Selector being invoked at this level.
        method: Arc<str>,
        /// Identity the ACL check will run against.
        caller: ObjectId,
        /// Tower level this application runs at (0 = base level).
        level: u32,
    },
    /// The matching invocation left the Apply machinery.
    InvokeEnd {
        /// Receiver of the invocation.
        object: ObjectId,
        /// Selector that was invoked.
        method: Arc<str>,
        /// `"ok"` or the error's stable label.
        outcome: &'static str,
        /// Fuel consumed between start and end (includes nested calls).
        fuel_used: u64,
    },
    /// The Lookup phase resolved a selector.
    Lookup {
        /// Receiver searched.
        object: ObjectId,
        /// Selector searched for.
        method: Arc<str>,
        /// Whether the generation-stamped dispatch cache answered.
        cache_hit: bool,
        /// Whether a method was found at all.
        found: bool,
    },
    /// The Match phase consulted an item ACL.
    AclDecision {
        /// Receiver whose item was guarded.
        object: ObjectId,
        /// Selector whose `invoke_acl` was consulted.
        method: Arc<str>,
        /// Identity that asked.
        caller: ObjectId,
        /// The verdict.
        allowed: bool,
    },
    /// A pre- or post-procedure returned a verdict.
    WrapVerdict {
        /// Receiver of the wrapped invocation.
        object: ObjectId,
        /// Selector whose wrap ran.
        method: Arc<str>,
        /// Which wrap stage.
        stage: WrapStage,
        /// Truthy verdict lets the invocation proceed / commit.
        passed: bool,
    },
    /// A reflective meta-operation executed (`getDataItem`, `addMethod`, …).
    MetaOp {
        /// Receiver of the meta-operation.
        object: ObjectId,
        /// The meta-method's camelCase name.
        op: &'static str,
    },
    /// Dispatch routed through an installed meta-invoke level.
    TowerDescend {
        /// Receiver whose tower is being descended.
        object: ObjectId,
        /// The level being entered (topmost = tower length).
        level: u32,
        /// Name of the meta-invoke method at that level.
        meta: Arc<str>,
    },
    /// A script body finished executing.
    ScriptRun {
        /// Fuel the evaluator charged for this body.
        fuel_used: u64,
        /// `self.…` / world host calls the body performed.
        host_calls: u64,
    },
    /// `Runtime::invoke` dispatched to a managed object.
    RuntimeInvoke {
        /// Node the runtime serves.
        node: NodeId,
        /// Target object.
        target: ObjectId,
        /// Selector.
        method: Arc<str>,
    },
    /// A `log` world-call from an executing object.
    Log {
        /// Node whose runtime observed the log line.
        node: NodeId,
        /// The executing object.
        caller: ObjectId,
        /// The message.
        message: String,
    },
    /// An object serialized itself into a migration image.
    MigrateEncode {
        /// The object encoded.
        object: ObjectId,
        /// Image size in bytes.
        bytes: u64,
    },
    /// A migration image was decoded (possibly unsuccessfully).
    MigrateDecode {
        /// Image size in bytes.
        bytes: u64,
        /// Whether decoding (including admission) succeeded.
        ok: bool,
    },
    /// The admission analyzer ruled on an object.
    Admission {
        /// Where admission ran (`"from_image"`, `"adopt"`, …).
        context: String,
        /// Whether the object was accepted.
        accepted: bool,
        /// Number of diagnostics the analysis produced.
        findings: u32,
    },
    /// The persistence depot wrote an image.
    DepotSave {
        /// Object checkpointed.
        object: ObjectId,
        /// Stored image size in bytes.
        bytes: u64,
    },
    /// The persistence depot read an image back.
    DepotRestore {
        /// Whether the read + decode succeeded.
        ok: bool,
        /// Whether the failure was a corruption (CRC / framing) fault.
        corrupt: bool,
    },
    /// A federation protocol message was posted into the network.
    FedSend {
        /// Sending site.
        src: NodeId,
        /// Receiving site.
        dst: NodeId,
        /// The message's wire tag (`"move_object"`, `"invoke_req"`, …).
        kind: &'static str,
        /// Encoded size in bytes.
        bytes: u64,
    },
    /// A federation protocol message was delivered and decoded.
    FedRecv {
        /// Sending site.
        src: NodeId,
        /// Receiving site.
        dst: NodeId,
        /// The message's wire tag.
        kind: &'static str,
    },
    /// A sender-side federation operation opened. This is a span-opening
    /// kind: the open span is what makes the trace context nonzero at the
    /// moment an outgoing message captures it, so the remote half of a
    /// migration or remote invocation can join the same trace.
    FedOpStart {
        /// The originating site.
        node: NodeId,
        /// The operation (`"dispatch_object"`, `"remote_invoke"`).
        op: &'static str,
    },
    /// The matching federation operation closed.
    FedOpEnd {
        /// The operation.
        op: &'static str,
        /// Whether the operation succeeded end to end.
        ok: bool,
    },
    /// An ambassador forwarded a call to its origin site.
    AmbassadorRelay {
        /// Site hosting the ambassador.
        host: NodeId,
        /// The ambassador object.
        object: ObjectId,
        /// Selector relayed.
        method: Arc<str>,
    },
    /// A whole object left its site for another.
    ObjectDispatched {
        /// The migrating object.
        object: ObjectId,
        /// Origin site of this hop.
        from: NodeId,
        /// Destination site of this hop.
        to: NodeId,
    },
    /// A migrated object was adopted by the receiving site.
    ObjectAdopted {
        /// The migrated object.
        object: ObjectId,
        /// The adopting site.
        at: NodeId,
    },
    /// A federation operation re-posted its request after a timeout.
    FedRetry {
        /// The retrying site.
        node: NodeId,
        /// The operation being retried (`"move_object"`, `"invoke_req"`, …).
        op: &'static str,
        /// Attempt number about to be made (2 = first retry).
        attempt: u32,
    },
    /// A receiver recognised a request id it had already served and
    /// answered from its reply cache instead of re-executing.
    FedDedup {
        /// The deduplicating site.
        node: NodeId,
        /// The duplicate message's wire tag.
        kind: &'static str,
    },
    /// A site host's checkout found the target already checked out: a
    /// re-entrant cycle of `send`s came back into an executing object.
    /// The variant name and its `shared_collision` tag are historical.
    SharedCollision {
        /// Node whose object table collided.
        node: NodeId,
        /// The busy object.
        target: ObjectId,
        /// Selector of the in-flight invocation.
        in_flight: Arc<str>,
        /// Selector that was refused.
        incoming: Arc<str>,
        /// Effect-signature verdict: `Some(true)` when the two methods
        /// provably touch disjoint state (the serialization was a
        /// conservative loss), `Some(false)` when they overlap, `None`
        /// when the signatures were not comparable.
        disjoint: Option<bool>,
    },
    /// A site crashed, losing all volatile state.
    SiteCrash {
        /// The crashed site.
        node: NodeId,
    },
    /// A crashed site restarted and bootstrapped from its depot.
    SiteRestart {
        /// The restarting site.
        node: NodeId,
        /// Objects successfully restored from the depot.
        restored: u64,
        /// Depot images that failed to restore (quarantined).
        quarantined: u64,
    },
}

impl EventKind {
    /// Stable snake_case tag for dumps and JSON.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::InvokeStart { .. } => "invoke_start",
            EventKind::InvokeEnd { .. } => "invoke_end",
            EventKind::Lookup { .. } => "lookup",
            EventKind::AclDecision { .. } => "acl",
            EventKind::WrapVerdict { .. } => "wrap",
            EventKind::MetaOp { .. } => "meta_op",
            EventKind::TowerDescend { .. } => "tower_descend",
            EventKind::ScriptRun { .. } => "script_run",
            EventKind::RuntimeInvoke { .. } => "runtime_invoke",
            EventKind::Log { .. } => "log",
            EventKind::MigrateEncode { .. } => "migrate_encode",
            EventKind::MigrateDecode { .. } => "migrate_decode",
            EventKind::Admission { .. } => "admission",
            EventKind::DepotSave { .. } => "depot_save",
            EventKind::DepotRestore { .. } => "depot_restore",
            EventKind::FedSend { .. } => "fed_send",
            EventKind::FedRecv { .. } => "fed_recv",
            EventKind::FedOpStart { .. } => "fed_op_start",
            EventKind::FedOpEnd { .. } => "fed_op_end",
            EventKind::AmbassadorRelay { .. } => "ambassador_relay",
            EventKind::ObjectDispatched { .. } => "object_dispatched",
            EventKind::ObjectAdopted { .. } => "object_adopted",
            EventKind::FedRetry { .. } => "fed_retry",
            EventKind::FedDedup { .. } => "fed_dedup",
            EventKind::SharedCollision { .. } => "shared_collision",
            EventKind::SiteCrash { .. } => "site_crash",
            EventKind::SiteRestart { .. } => "site_restart",
        }
    }
}

/// One recorded observation: envelope plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic per-recorder sequence number (total order of recording).
    pub seq: u64,
    /// Trace this event belongs to. All events of one causally-linked
    /// activity — including a migration hop's remote half — share it.
    pub trace: u64,
    /// Span id: fresh for `InvokeStart`, the matching id for `InvokeEnd`,
    /// and the enclosing open span for everything else (0 = none open).
    pub span: u64,
    /// Parent span id (0 = root). For a migrated trace's first remote
    /// span this is the dispatching site's span — the causal link.
    pub parent: u64,
    /// Virtual time at recording, in microseconds — the simulated
    /// `SimNet` clock (0 until a simulation stamps it). This is the
    /// timestamp the Chrome `trace_event` exporter quotes, so exported
    /// traces of a seeded run are reproducible byte for byte.
    pub at_us: u64,
}

impl Event {
    /// Renders the envelope for `trace dump` output.
    fn fmt_envelope(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<5} t{:<3} s{:<3} p{:<3}",
            self.seq, self.trace, self.span, self.parent
        )
    }
}

/// A fully rendered event line: envelope plus payload description.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The envelope.
    pub event: Event,
    /// The payload.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.event.fmt_envelope(f)?;
        write!(f, " {:<16} ", self.kind.tag())?;
        match &self.kind {
            EventKind::InvokeStart {
                object,
                method,
                caller,
                level,
            } => write!(f, "{object} .{method} caller={caller} level={level}"),
            EventKind::InvokeEnd {
                object,
                method,
                outcome,
                fuel_used,
            } => write!(f, "{object} .{method} outcome={outcome} fuel={fuel_used}"),
            EventKind::Lookup {
                object,
                method,
                cache_hit,
                found,
            } => write!(f, "{object} .{method} cache_hit={cache_hit} found={found}"),
            EventKind::AclDecision {
                object,
                method,
                caller,
                allowed,
            } => write!(f, "{object} .{method} caller={caller} allowed={allowed}"),
            EventKind::WrapVerdict {
                object,
                method,
                stage,
                passed,
            } => write!(
                f,
                "{object} .{method} stage={} passed={passed}",
                stage.name()
            ),
            EventKind::MetaOp { object, op } => write!(f, "{object} op={op}"),
            EventKind::TowerDescend {
                object,
                level,
                meta,
            } => write!(f, "{object} level={level} meta={meta}"),
            EventKind::ScriptRun {
                fuel_used,
                host_calls,
            } => write!(f, "fuel={fuel_used} host_calls={host_calls}"),
            EventKind::RuntimeInvoke {
                node,
                target,
                method,
            } => write!(f, "{node} {target} .{method}"),
            EventKind::Log {
                node,
                caller,
                message,
            } => write!(f, "{node} {caller} {message:?}"),
            EventKind::MigrateEncode { object, bytes } => write!(f, "{object} bytes={bytes}"),
            EventKind::MigrateDecode { bytes, ok } => write!(f, "bytes={bytes} ok={ok}"),
            EventKind::Admission {
                context,
                accepted,
                findings,
            } => write!(f, "{context} accepted={accepted} findings={findings}"),
            EventKind::DepotSave { object, bytes } => write!(f, "{object} bytes={bytes}"),
            EventKind::DepotRestore { ok, corrupt } => write!(f, "ok={ok} corrupt={corrupt}"),
            EventKind::FedSend {
                src,
                dst,
                kind,
                bytes,
            } => write!(f, "{src}->{dst} {kind} bytes={bytes}"),
            EventKind::FedRecv { src, dst, kind } => write!(f, "{src}->{dst} {kind}"),
            EventKind::FedOpStart { node, op } => write!(f, "{node} op={op}"),
            EventKind::FedOpEnd { op, ok } => write!(f, "op={op} ok={ok}"),
            EventKind::AmbassadorRelay {
                host,
                object,
                method,
            } => write!(f, "{host} {object} .{method}"),
            EventKind::ObjectDispatched { object, from, to } => {
                write!(f, "{object} {from}->{to}")
            }
            EventKind::ObjectAdopted { object, at } => write!(f, "{object} at={at}"),
            EventKind::FedRetry { node, op, attempt } => {
                write!(f, "{node} op={op} attempt={attempt}")
            }
            EventKind::FedDedup { node, kind } => write!(f, "{node} {kind}"),
            EventKind::SharedCollision {
                node,
                target,
                in_flight,
                incoming,
                disjoint,
            } => {
                let verdict = match disjoint {
                    Some(true) => "disjoint",
                    Some(false) => "overlapping",
                    None => "unknown",
                };
                write!(
                    f,
                    "{node} {target} in_flight={in_flight} incoming={incoming} {verdict}"
                )
            }
            EventKind::SiteCrash { node } => write!(f, "{node}"),
            EventKind::SiteRestart {
                node,
                restored,
                quarantined,
            } => write!(f, "{node} restored={restored} quarantined={quarantined}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable_and_distinct() {
        let a = EventKind::Lookup {
            object: ObjectId::SYSTEM,
            method: "m".into(),
            cache_hit: true,
            found: true,
        };
        let b = EventKind::MetaOp {
            object: ObjectId::SYSTEM,
            op: "getDataItem",
        };
        assert_eq!(a.tag(), "lookup");
        assert_eq!(b.tag(), "meta_op");
        assert_ne!(a.tag(), b.tag());
    }

    #[test]
    fn display_carries_envelope_and_payload() {
        let te = TraceEvent {
            event: Event {
                seq: 7,
                trace: 1,
                span: 2,
                parent: 0,
                at_us: 0,
            },
            kind: EventKind::InvokeStart {
                object: ObjectId::SYSTEM,
                method: "greet".into(),
                caller: ObjectId::SYSTEM,
                level: 0,
            },
        };
        let line = te.to_string();
        assert!(line.contains("invoke_start"));
        assert!(line.contains(".greet"));
        assert!(line.contains("level=0"));
        assert!(line.contains("t1"));
    }
}
