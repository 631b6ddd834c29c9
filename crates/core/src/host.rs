//! What both site hosts are made of: the object table, the invoke tail and
//! the world hook.
//!
//! [`crate::Runtime`] owns one [`ObjectTable`]; [`crate::SharedRuntime`]
//! shards the same table under `RwLock`s. Everything an invocation does
//! between "look the target up" and "put it back" is written here once,
//! against the [`Host`] trait, and used by both.
//!
//! ## Slot state machine
//!
//! ```text
//!            checkout               checkin
//!  Present ───────────▶ Busy ───────────────▶ Present
//!                        │
//!                        │ body panicked (caught via catch_unwind)
//!                        ▼
//!                     Poisoned(cause)   — surfaces as ObjectBusy
//! ```
//!
//! An invocation takes its target out of the table (the slot turns
//! `Busy`) and puts it back when done, so a body can `send` to *other*
//! objects of the same host while a cyclic `send` back into an executing
//! object reports [`MromError::ObjectBusy`]. A panicking body must never
//! leak the checked-out object: the slot is poisoned, not removed, so
//! later callers get a truthful `ObjectBusy` instead of `NoSuchObject`,
//! and a migration cannot capture it.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mrom_script::EffectSignature;
use mrom_value::{NodeId, ObjectId, Value};

use crate::error::MromError;
use crate::invoke::{InvokeLimits, WorldHook};
use crate::object::MromObject;

/// Structured cause attached to a poisoned slot when a method body
/// panics while its object is checked out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonCause {
    /// The method whose body panicked.
    pub method: String,
    /// The panic payload, downcast to a string where possible.
    pub message: String,
}

impl std::fmt::Display for PoisonCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "body of {:?} panicked: {}", self.method, self.message)
    }
}

/// One entry of an object table.
///
/// The object is boxed so that a checkout and a check-in move a pointer,
/// not the object, and the table's entries stay small.
#[derive(Debug)]
enum Slot {
    /// Hosted and at rest — available for checkout, reads, and eviction.
    Present(Box<MromObject>),
    /// Checked out by an in-flight invocation. When observability is
    /// enabled the slot remembers what is running ([`BusyInfo`]) so a
    /// colliding checkout can classify the collision by effect-signature
    /// disjointness; otherwise it carries nothing.
    Busy(Option<BusyInfo>),
    /// A body panicked while the object was checked out; the (possibly
    /// torn) object was discarded, the identity and cause retained.
    Poisoned(PoisonCause),
}

/// What a `Busy` slot knows about its in-flight invocation (recorded
/// only while observability is enabled — the disabled hot path never
/// clones a method name or touches the effect table).
#[derive(Debug)]
struct BusyInfo {
    /// Selector of the invocation that holds the object.
    method: String,
    /// The object's memoized effect-signature table at checkout time.
    effects: Arc<BTreeMap<String, EffectSignature>>,
}

/// The objects one host holds, by identity, with their slot states.
#[derive(Debug, Default)]
pub(crate) struct ObjectTable {
    slots: HashMap<ObjectId, Slot>,
}

impl ObjectTable {
    /// Checks `target` out: flips its slot from `Present` to `Busy` and
    /// returns the object. When observability is enabled the `Busy` slot
    /// remembers `incoming` together with the object's memoized
    /// effect-signature table, and a *colliding* checkout classifies the
    /// collision — provably-disjoint signatures mean the serialization
    /// was a conservative loss, overlapping ones mean it was required —
    /// feeding the shared-runtime disjointness counters.
    pub(crate) fn checkout(
        &mut self,
        node: NodeId,
        target: ObjectId,
        incoming: &str,
    ) -> Result<Box<MromObject>, MromError> {
        match self.slots.get_mut(&target) {
            Some(slot @ Slot::Present(_)) => match std::mem::replace(slot, Slot::Busy(None)) {
                Slot::Present(mut obj) => {
                    if mrom_obs::enabled() {
                        *slot = Slot::Busy(Some(BusyInfo {
                            method: incoming.to_owned(),
                            effects: obj.effects(),
                        }));
                    }
                    Ok(obj)
                }
                _ => unreachable!("matched Present above"),
            },
            Some(Slot::Busy(info)) => {
                if mrom_obs::enabled() {
                    let (in_flight, disjoint) = match info {
                        Some(i) => {
                            let verdict =
                                match (i.effects.get(i.method.as_str()), i.effects.get(incoming)) {
                                    (Some(a), Some(b)) => {
                                        Some(crate::effects::signatures_disjoint(a, b))
                                    }
                                    _ => None,
                                };
                            (i.method.as_str(), verdict)
                        }
                        None => ("", None),
                    };
                    mrom_obs::shared_collision(node, target, in_flight, incoming, disjoint);
                }
                Err(MromError::ObjectBusy(target))
            }
            Some(Slot::Poisoned(_)) => Err(MromError::ObjectBusy(target)),
            None => Err(MromError::NoSuchObject(target)),
        }
    }

    /// Checks an object back in after its invocation completed.
    pub(crate) fn checkin(&mut self, obj: Box<MromObject>) {
        self.slots.insert(obj.id(), Slot::Present(obj));
    }

    /// Marks a checked-out identity as poisoned.
    pub(crate) fn poison(&mut self, id: ObjectId, cause: PoisonCause) {
        self.slots.insert(id, Slot::Poisoned(cause));
    }

    /// Adopts an object.
    ///
    /// # Errors
    ///
    /// [`MromError::DuplicateItem`] if this identity is already hosted —
    /// including checked-out and poisoned identities.
    pub(crate) fn adopt(&mut self, obj: MromObject) -> Result<ObjectId, MromError> {
        let id = obj.id();
        match self.slots.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => Err(MromError::DuplicateItem {
                object: id,
                item: "object identity".to_owned(),
            }),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Slot::Present(Box::new(obj)));
                Ok(id)
            }
        }
    }

    /// Removes an object at rest (the local half of migration).
    ///
    /// This is the **migration interlock**: a checked-out or poisoned
    /// object refuses eviction with [`MromError::ObjectBusy`], so a
    /// migration can never capture an object mid-execution.
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`], [`MromError::ObjectBusy`].
    pub(crate) fn evict(&mut self, id: ObjectId) -> Result<MromObject, MromError> {
        match self.slots.get(&id) {
            Some(Slot::Present(_)) => match self.slots.remove(&id) {
                Some(Slot::Present(obj)) => Ok(*obj),
                _ => unreachable!("matched Present above"),
            },
            Some(Slot::Busy(_) | Slot::Poisoned(_)) => Err(MromError::ObjectBusy(id)),
            None => Err(MromError::NoSuchObject(id)),
        }
    }

    /// Drops every slot — objects at rest, checked-out and poisoned
    /// identities alike.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// A hosted object at rest; `None` for unknown, checked-out and
    /// poisoned identities.
    pub(crate) fn get(&self, id: ObjectId) -> Option<&MromObject> {
        match self.slots.get(&id) {
            Some(Slot::Present(obj)) => Some(obj),
            _ => None,
        }
    }

    /// As [`ObjectTable::get`], mutably.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut MromObject> {
        match self.slots.get_mut(&id) {
            Some(Slot::Present(obj)) => Some(obj),
            _ => None,
        }
    }

    /// Every hosted identity, checked-out and poisoned ones included.
    pub(crate) fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.keys().copied()
    }

    /// Number of hosted identities, checked-out and poisoned ones
    /// included (an executing object is still hosted here).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The cause recorded when `id`'s slot was poisoned, if it was.
    pub(crate) fn poison_cause(&self, id: ObjectId) -> Option<&PoisonCause> {
        match self.slots.get(&id) {
            Some(Slot::Poisoned(cause)) => Some(cause),
            _ => None,
        }
    }

    /// Removes a poisoned slot, returning its cause.
    pub(crate) fn clear_poisoned(&mut self, id: ObjectId) -> Option<PoisonCause> {
        match self.slots.get(&id) {
            Some(Slot::Poisoned(_)) => match self.slots.remove(&id) {
                Some(Slot::Poisoned(cause)) => Some(cause),
                _ => unreachable!("matched Poisoned above"),
            },
            _ => None,
        }
    }
}

/// What the invoke tail and the world hook need from a site host.
///
/// [`crate::Runtime`] implements it through `&mut self`;
/// [`crate::SharedRuntime`] through `&SharedRuntime`, taking a shard lock
/// inside each call and holding none while a body runs.
pub(crate) trait Host {
    /// The node this host represents.
    fn node(&self) -> NodeId;
    /// Current virtual time.
    fn now(&self) -> u64;
    /// The invocation limits a body runs under.
    fn limits(&self) -> InvokeLimits;
    /// [`ObjectTable::checkout`] on the table that holds `target`.
    fn checkout(&mut self, target: ObjectId, method: &str) -> Result<Box<MromObject>, MromError>;
    /// [`ObjectTable::checkin`].
    fn checkin(&mut self, obj: Box<MromObject>);
    /// [`ObjectTable::poison`].
    fn poison(&mut self, id: ObjectId, cause: PoisonCause);
    /// Instantiates a registered class and adopts the object.
    fn create(&mut self, class: &str) -> Result<ObjectId, MromError>;
}

/// Invokes `method` on the hosted object `target` as `caller`: check it
/// out, run the level-0 invocation with the host as the world, and check
/// it back in. A panicking body is caught, the slot poisoned, and
/// [`MromError::ObjectBusy`] returned.
pub(crate) fn invoke<H: Host>(
    host: &mut H,
    caller: ObjectId,
    target: ObjectId,
    method: &str,
    args: &[Value],
) -> Result<Value, MromError> {
    mrom_obs::runtime_invoke(host.node(), target, method);
    let mut obj = host.checkout(target, method)?;
    let limits = host.limits();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut world = HostWorld { host: &mut *host };
        crate::invoke::invoke_with_limits(&mut obj, &mut world, caller, method, args, &limits)
    }));
    match outcome {
        Ok(result) => {
            host.checkin(obj);
            result
        }
        Err(payload) => {
            // The object may be torn mid-mutation: discard it and
            // poison the slot so the identity does not vanish.
            drop(obj);
            host.poison(
                target,
                PoisonCause {
                    method: method.to_owned(),
                    message: panic_message(payload.as_ref()),
                },
            );
            Err(MromError::ObjectBusy(target))
        }
    }
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// World hook giving method bodies mediated access to node services:
///
/// * `send(target_ref, method, args_list)` — invoke a method on another
///   object hosted on this node (caller principal = the sending object).
/// * `spawn(class_name)` — instantiate a registered class, adopting the
///   new object into this node; returns its reference.
/// * `log(message)` — append to the node log.
/// * `time()` — current virtual time.
/// * `node()` — the node id as an integer.
struct HostWorld<'h, H> {
    host: &'h mut H,
}

impl<H: Host> WorldHook for HostWorld<'_, H> {
    fn world_call(
        &mut self,
        caller: ObjectId,
        op: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        match op {
            "send" => match args {
                [Value::ObjectRef(target), Value::Str(method), Value::List(inner)] => {
                    // An object currently executing sits in a Busy slot, so
                    // a cyclic call — and any concurrent call — reports
                    // ObjectBusy; genuinely unknown targets NoSuchObject.
                    invoke(self.host, caller, *target, method, inner)
                }
                _ => Err(MromError::World(
                    "send expects (object_ref, method_name, args_list)".into(),
                )),
            },
            "spawn" => match args {
                [Value::Str(class)] => self.host.create(class).map(Value::ObjectRef),
                _ => Err(MromError::World("spawn expects (class_name)".into())),
            },
            "log" => {
                let msg = args
                    .first()
                    .map(|v| match v {
                        Value::Str(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .unwrap_or_default();
                mrom_obs::log_line(self.host.node(), caller, &msg);
                Ok(Value::Null)
            }
            "time" => Ok(Value::Int(self.host.now() as i64)),
            "node" => Ok(Value::Int(self.host.node().0 as i64)),
            other => Err(MromError::World(format!(
                "unknown world operation {other:?}"
            ))),
        }
    }
}
