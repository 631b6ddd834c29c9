//! Node runtime: the per-node object host.
//!
//! A [`Runtime`] owns every object hosted on one logical node in a plain
//! object table, mints identities through the node's generator, and
//! implements the `send`/`spawn`/`log`/`time`/`node` world operations for
//! method bodies. It takes no lock: exclusive access comes from
//! `&mut self`, and one site has exactly one host.
//!
//! Cross-node communication is *not* here — it belongs to the network
//! substrate and HADAS, which wrap a runtime per simulated node.
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
use mrom_value::{IdGenerator, NodeId, ObjectId, Value};

use crate::class::ClassRegistry;
use crate::error::MromError;
use crate::invoke::{InvokeLimits, WorldHook};
use crate::object::MromObject;
use crate::table::CodeTable;

/// Structured cause attached to a poisoned slot when a method body
/// panics while its object is checked out (see [`Runtime::poison_cause`]).
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
struct ObjectTable {
    slots: HashMap<ObjectId, Slot>,
}

impl ObjectTable {
    /// Checks `target` out: flips its slot from `Present` to `Busy` and
    /// returns the object. When observability is enabled the `Busy` slot
    /// remembers `incoming` together with the object's memoized
    /// effect-signature table, and a *colliding* checkout (a re-entrant
    /// cycle back into an executing object) classifies the collision —
    /// provably-disjoint signatures mean the serialization was a
    /// conservative loss, overlapping ones mean it was required — feeding
    /// the collision counters.
    fn checkout(
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
    fn checkin(&mut self, obj: Box<MromObject>) {
        self.slots.insert(obj.id(), Slot::Present(obj));
    }

    /// Marks a checked-out identity as poisoned.
    fn poison(&mut self, id: ObjectId, cause: PoisonCause) {
        self.slots.insert(id, Slot::Poisoned(cause));
    }

    /// Adopts an object.
    ///
    /// # Errors
    ///
    /// [`MromError::DuplicateItem`] if this identity is already hosted —
    /// including checked-out and poisoned identities.
    fn adopt(&mut self, obj: MromObject) -> Result<ObjectId, MromError> {
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
    fn evict(&mut self, id: ObjectId) -> Result<MromObject, MromError> {
        match self.slots.get(&id) {
            Some(Slot::Present(_)) => match self.slots.remove(&id) {
                Some(Slot::Present(obj)) => Ok(*obj),
                _ => unreachable!("matched Present above"),
            },
            Some(Slot::Busy(_) | Slot::Poisoned(_)) => Err(MromError::ObjectBusy(id)),
            None => Err(MromError::NoSuchObject(id)),
        }
    }

    /// A hosted object at rest; `None` for unknown, checked-out and
    /// poisoned identities.
    fn get(&self, id: ObjectId) -> Option<&MromObject> {
        match self.slots.get(&id) {
            Some(Slot::Present(obj)) => Some(obj),
            _ => None,
        }
    }

    /// As [`ObjectTable::get`], mutably.
    fn get_mut(&mut self, id: ObjectId) -> Option<&mut MromObject> {
        match self.slots.get_mut(&id) {
            Some(Slot::Present(obj)) => Some(obj),
            _ => None,
        }
    }

    /// The cause recorded when `id`'s slot was poisoned, if it was.
    fn poison_cause(&self, id: ObjectId) -> Option<&PoisonCause> {
        match self.slots.get(&id) {
            Some(Slot::Poisoned(cause)) => Some(cause),
            _ => None,
        }
    }
}

/// The per-node object host.
///
/// # Example
///
/// ```
/// use mrom_core::{ClassSpec, Method, MethodBody, Runtime};
/// use mrom_value::{NodeId, Value};
///
/// # fn main() -> Result<(), mrom_core::MromError> {
/// let mut rt = Runtime::new(NodeId(1));
/// rt.classes_mut().register(
///     ClassSpec::new("echo").fixed_method(
///         "say",
///         Method::public(MethodBody::script("param x; return x;")?),
///     ),
/// )?;
/// let id = rt.create("echo")?;
/// let out = rt.invoke_as_system(id, "say", &[Value::from("hi")])?;
/// assert_eq!(out, Value::from("hi"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Runtime {
    node: NodeId,
    ids: IdGenerator,
    objects: ObjectTable,
    classes: ClassRegistry,
    limits: InvokeLimits,
    /// Virtual time surfaced to scripts via `self.time()`.
    now: u64,
    /// Fixed-method tables of arrived images, by their exact bytes.
    code: CodeTable,
}

impl Runtime {
    /// Creates an empty runtime for `node`.
    pub fn new(node: NodeId) -> Runtime {
        Runtime {
            node,
            ids: IdGenerator::new(node),
            objects: ObjectTable::default(),
            classes: ClassRegistry::new(),
            limits: InvokeLimits::default(),
            now: 0,
            code: CodeTable::default(),
        }
    }

    /// The node this runtime represents.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's identity generator.
    pub fn ids_mut(&mut self) -> &mut IdGenerator {
        &mut self.ids
    }

    /// The class registry.
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Mutable class registry access.
    pub fn classes_mut(&mut self) -> &mut ClassRegistry {
        &mut self.classes
    }

    /// Replaces this node's own invocation limits, admission policy included.
    pub fn set_limits(&mut self, limits: InvokeLimits) {
        self.limits = limits;
    }

    /// The current invocation limits.
    pub fn limits(&self) -> InvokeLimits {
        self.limits
    }

    /// Current virtual time (milliseconds by convention).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances virtual time (driven by the simulation substrate).
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
        // Keep the observability window on the same clock. Monotonic-max
        // semantics mean the simulator's finer microsecond stamp (set at
        // delivery) is never rewound by this millisecond-resolution one.
        mrom_obs::set_virtual_now_us(now.saturating_mul(1000));
    }

    /// The recording thread's windowed telemetry restricted to this
    /// node: profiles of objects hosted here plus the call-matrix rows
    /// and links touching this site. The site-wide (unfiltered) view is
    /// [`mrom_obs::telemetry_snapshot`]; the reflective per-object door
    /// is the `getTelemetry` meta-method.
    #[must_use]
    pub fn telemetry(&self) -> mrom_obs::TelemetrySnapshot {
        mrom_obs::telemetry_snapshot()
            .for_site(self.node(), |id| self.objects.slots.contains_key(&id))
    }

    /// Instantiates a registered class, adopting the object into the node.
    ///
    /// # Errors
    ///
    /// [`MromError::Class`] for unknown class names.
    pub fn create(&mut self, class: &str) -> Result<ObjectId, MromError> {
        let obj = self.classes.instantiate(class, &mut self.ids)?;
        self.objects.adopt(obj)
    }

    /// Unpacks image bytes that crossed a trust boundary, admitting the
    /// object under this node's own [`InvokeLimits::admission`]. A fixed
    /// method section this node has seen before, byte for byte, reuses
    /// its interned table: no decode, and admission re-runs only the
    /// per-object cross-check. The object is returned, not adopted.
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] for framing/validation failures;
    /// [`MromError::AdmissionRejected`] when the policy is strict and a
    /// method body fails static admission analysis.
    pub fn unpack_image(&mut self, bytes: &[u8]) -> Result<MromObject, MromError> {
        crate::migrate::unpack(bytes, self.limits.admission, Some(&mut self.code))
    }

    /// Adopts an externally constructed object (builder output, or an
    /// unpacked migration image).
    ///
    /// # Errors
    ///
    /// [`MromError::DuplicateItem`] if an object with this identity is
    /// already hosted here, a poisoned one included.
    pub fn adopt(&mut self, obj: MromObject) -> Result<ObjectId, MromError> {
        self.objects.adopt(obj)
    }

    /// Removes an object from the node (the local half of migration),
    /// returning it.
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`]; [`MromError::ObjectBusy`] for an
    /// object poisoned by a panicked body (through `&mut self` no
    /// invocation can be in flight).
    pub fn evict(&mut self, id: ObjectId) -> Result<MromObject, MromError> {
        self.objects.evict(id)
    }

    /// Drops every hosted object, poisoned identities included: what a
    /// fail-stop crash leaves of the node's volatile state. Nothing can be
    /// checked out through `&mut self`.
    pub fn clear_objects(&mut self) {
        self.objects.slots.clear();
    }

    /// Shared access to a hosted object. `None` for unknown and poisoned
    /// identities.
    pub fn object(&self, id: ObjectId) -> Option<&MromObject> {
        self.objects.get(id)
    }

    /// Mutable access to a hosted object (host-side administration).
    pub fn object_mut(&mut self, id: ObjectId) -> Option<&mut MromObject> {
        self.objects.get_mut(id)
    }

    /// Identities of all hosted objects (unordered), poisoned ones
    /// included.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.objects.slots.keys().copied().collect()
    }

    /// Number of hosted objects, poisoned identities included.
    pub fn object_count(&self) -> usize {
        self.objects.slots.len()
    }

    /// The structured cause recorded when `id`'s slot was poisoned by a
    /// panicking method body, if it was. A crash
    /// ([`Runtime::clear_objects`]) reclaims poisoned identities.
    #[must_use]
    pub fn poison_cause(&self, id: ObjectId) -> Option<&PoisonCause> {
        self.objects.poison_cause(id)
    }

    /// Invokes a method on a hosted object as `caller`.
    ///
    /// The target is checked out of the table for the duration of the call
    /// so its body can invoke *other* objects on this node through the
    /// world hook; a cyclic call back into the executing object reports
    /// [`MromError::ObjectBusy`]. A panicking body is caught and its
    /// object discarded; the identity stays hosted in a poisoned slot
    /// (see [`Runtime::poison_cause`]) that reports `ObjectBusy` to every
    /// later call and to [`Runtime::evict`].
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`], [`MromError::ObjectBusy`], plus all
    /// invocation errors.
    pub fn invoke(
        &mut self,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        mrom_obs::runtime_invoke(self.node, target, method);
        let mut obj = self.objects.checkout(self.node, target, method)?;
        let limits = self.limits;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut world = RuntimeWorld { rt: &mut *self };
            crate::invoke::invoke_with_limits(&mut obj, &mut world, caller, method, args, &limits)
        }));
        match outcome {
            Ok(result) => {
                self.objects.checkin(obj);
                result
            }
            Err(payload) => {
                // The object may be torn mid-mutation: discard it and
                // poison the slot so the identity does not vanish.
                drop(obj);
                self.objects.poison(
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

    /// [`Runtime::invoke`] with the system principal — host-initiated
    /// administration (bootstrap, tests, benches).
    ///
    /// # Errors
    ///
    /// As [`Runtime::invoke`].
    pub fn invoke_as_system(
        &mut self,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        self.invoke(ObjectId::SYSTEM, target, method, args)
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
struct RuntimeWorld<'r> {
    rt: &'r mut Runtime,
}

impl WorldHook for RuntimeWorld<'_> {
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
                    // a cyclic call reports ObjectBusy; genuinely unknown
                    // targets NoSuchObject.
                    self.rt.invoke(caller, *target, method, inner)
                }
                _ => Err(MromError::World(
                    "send expects (object_ref, method_name, args_list)".into(),
                )),
            },
            "spawn" => match args {
                [Value::Str(class)] => self.rt.create(class).map(Value::ObjectRef),
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
                mrom_obs::log_line(self.rt.node, caller, &msg);
                Ok(Value::Null)
            }
            "time" => Ok(Value::Int(self.rt.now as i64)),
            "node" => Ok(Value::Int(self.rt.node.0 as i64)),
            other => Err(MromError::World(format!(
                "unknown world operation {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassSpec;
    use crate::invoke::InvokeLimits;
    use crate::item::DataItem;
    use crate::method::{Method, MethodBody};

    fn runtime_with_classes() -> Runtime {
        let mut rt = Runtime::new(NodeId(21));
        rt.classes_mut()
            .register(
                ClassSpec::new("calc")
                    .fixed_data("acc", DataItem::public(Value::Int(0)))
                    .fixed_method(
                        "add",
                        Method::public(
                            MethodBody::script(
                                "param x; self.set(\"acc\", self.get(\"acc\") + x); return self.get(\"acc\");",
                            )
                            .unwrap(),
                        ),
                    ),
            )
            .unwrap();
        rt.classes_mut()
            .register(
                ClassSpec::new("caller_class").fixed_method(
                    "relay",
                    Method::public(
                        MethodBody::script(
                            "param target; param x; return self.send(target, \"add\", [x]);",
                        )
                        .unwrap(),
                    ),
                ),
            )
            .unwrap();
        rt
    }

    #[test]
    fn create_and_invoke() {
        let mut rt = runtime_with_classes();
        let id = rt.create("calc").unwrap();
        assert_eq!(rt.object_count(), 1);
        assert_eq!(
            rt.invoke_as_system(id, "add", &[Value::Int(5)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            rt.invoke_as_system(id, "add", &[Value::Int(2)]).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn unknown_objects_and_classes() {
        let mut rt = runtime_with_classes();
        assert!(matches!(rt.create("nope"), Err(MromError::Class(_))));
        let ghost = rt.ids_mut().next_id();
        assert!(matches!(
            rt.invoke_as_system(ghost, "m", &[]),
            Err(MromError::NoSuchObject(_))
        ));
        assert!(matches!(rt.evict(ghost), Err(MromError::NoSuchObject(_))));
    }

    #[test]
    fn objects_invoke_each_other_through_send() {
        let mut rt = runtime_with_classes();
        let calc = rt.create("calc").unwrap();
        let relay = rt.create("caller_class").unwrap();
        let out = rt
            .invoke_as_system(relay, "relay", &[Value::ObjectRef(calc), Value::Int(40)])
            .unwrap();
        assert_eq!(out, Value::Int(40));
        // The calc object kept the state.
        assert_eq!(
            rt.object(calc)
                .unwrap()
                .read_data(ObjectId::SYSTEM, "acc")
                .unwrap(),
            Value::Int(40)
        );
    }

    #[test]
    fn send_to_self_reports_busy() {
        let mut rt = Runtime::new(NodeId(5));
        rt.classes_mut()
            .register(ClassSpec::new("selfish").fixed_method(
                "loopy",
                Method::public(
                    MethodBody::script("return self.send(self.id(), \"loopy\", []);").unwrap(),
                ),
            ))
            .unwrap();
        let id = rt.create("selfish").unwrap();
        let err = rt.invoke_as_system(id, "loopy", &[]).unwrap_err();
        assert!(
            matches!(err, MromError::Script(_)),
            "busy surfaces through the script layer: {err}"
        );
        // The object is back in the table afterwards.
        assert!(rt.object(id).is_some());
    }

    #[test]
    fn cyclic_cross_object_calls_report_busy() {
        let mut rt = Runtime::new(NodeId(6));
        rt.classes_mut()
            .register(
                ClassSpec::new("pingpong").fixed_method(
                    "ping",
                    Method::public(
                        MethodBody::script(
                            "param other; return self.send(other, \"ping\", [self.id()]);",
                        )
                        .unwrap(),
                    ),
                ),
            )
            .unwrap();
        let a = rt.create("pingpong").unwrap();
        let b = rt.create("pingpong").unwrap();
        // a.ping(b) → b.ping(a) → a is checked out → busy error surfaces.
        let err = rt
            .invoke_as_system(a, "ping", &[Value::ObjectRef(b)])
            .unwrap_err();
        assert!(matches!(err, MromError::Script(_)), "{err}");
        assert_eq!(rt.object_count(), 2);
    }

    #[test]
    fn a_panicking_body_poisons_its_slot_and_the_identity_stays_hosted() {
        let mut rt = runtime_with_classes();
        rt.classes_mut()
            .register(ClassSpec::new("bomb").fixed_method(
                "boom",
                Method::public(MethodBody::native(|_env, _args| {
                    panic!("kaboom: deliberate test panic")
                })),
            ))
            .unwrap();
        let calc = rt.create("calc").unwrap();
        let id = rt.create("bomb").unwrap();
        let hosted = rt.object_count();
        let err = rt.invoke_as_system(id, "boom", &[]).unwrap_err();
        assert!(matches!(err, MromError::ObjectBusy(b) if b == id), "{err}");
        // The identity did not vanish: it still counts as hosted, later
        // calls get ObjectBusy (not NoSuchObject) and migration cannot
        // capture it.
        assert_eq!(rt.object_count(), hosted);
        assert!(rt.object_ids().contains(&id));
        assert!(rt.object(id).is_none(), "a poisoned slot is not readable");
        // The cause names the method and carries the panic message.
        let cause = rt.poison_cause(id).expect("structured cause");
        assert_eq!(cause.method, "boom");
        assert!(cause.message.contains("kaboom"), "{cause}");
        assert!(
            rt.poison_cause(calc).is_none(),
            "a healthy slot has no cause"
        );
        assert!(matches!(
            rt.invoke_as_system(id, "boom", &[]),
            Err(MromError::ObjectBusy(_))
        ));
        assert!(matches!(rt.evict(id), Err(MromError::ObjectBusy(_))));
        assert!(matches!(
            rt.adopt(crate::object::ObjectBuilder::new(id).build()),
            Err(MromError::DuplicateItem { .. })
        ));
        // Its neighbours are untouched.
        assert_eq!(
            rt.invoke_as_system(calc, "add", &[Value::Int(2)]).unwrap(),
            Value::Int(2)
        );
        // A crash reclaims the identity along with everything else.
        rt.clear_objects();
        assert!(rt.poison_cause(id).is_none());
        assert!(matches!(
            rt.invoke_as_system(id, "boom", &[]),
            Err(MromError::NoSuchObject(_))
        ));
    }

    #[test]
    fn structural_mutation_interleaved_with_invokes_never_serves_a_stale_method() {
        // A seeded mix of addMethod / setMethod / deleteMethod and
        // invocations on one object. After every acknowledged mutation an
        // invocation sees exactly the current method set and bodies: a
        // stale dispatch-cache entry would surface as a deleted method
        // still answering, an added one missing, or an old body's result.
        let mut rt = Runtime::new(NodeId(31));
        let id = rt.ids_mut().next_id();
        rt.adopt(crate::object::ObjectBuilder::new(id).class("storm").build())
            .unwrap();
        let body = |v: i64| {
            Value::map([
                ("body", Value::from(format!("return {v};"))),
                ("invoke_acl", Value::from("public")),
            ])
        };
        let mut model: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
        let mut rng = 0x5eed_u64;
        for step in 0..2_000_i64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let k = rng % 8;
            let name = Value::from(format!("m_{k}"));
            let present = model.contains_key(&k);
            // The object is its own origin, so it may reshape itself.
            match (rng >> 8) % 4 {
                0 => {
                    let out = rt.invoke(id, id, "addMethod", &[name, body(step)]);
                    assert_eq!(out.is_ok(), !present, "add m_{k}: {out:?}");
                    model.entry(k).or_insert(step);
                }
                1 => {
                    let out = rt.invoke(id, id, "setMethod", &[name, body(step)]);
                    assert_eq!(out.is_ok(), present, "set m_{k}: {out:?}");
                    if present {
                        model.insert(k, step);
                    }
                }
                2 => {
                    let out = rt.invoke(id, id, "deleteMethod", &[name]);
                    assert_eq!(out.is_ok(), present, "delete m_{k}: {out:?}");
                    model.remove(&k);
                }
                _ => {}
            }
            for (k, v) in &model {
                assert_eq!(
                    rt.invoke_as_system(id, &format!("m_{k}"), &[]).unwrap(),
                    Value::Int(*v),
                    "m_{k} at step {step}"
                );
            }
            let gone = (0..8).find(|k| !model.contains_key(k));
            if let Some(k) = gone {
                assert!(
                    matches!(
                        rt.invoke_as_system(id, &format!("m_{k}"), &[]),
                        Err(MromError::NoSuchMethod { .. })
                    ),
                    "deleted m_{k} still answers at step {step}"
                );
            }
        }
    }

    #[test]
    fn adopt_and_evict_round_trip() {
        let mut rt = runtime_with_classes();
        let id = rt.create("calc").unwrap();
        rt.invoke_as_system(id, "add", &[Value::Int(9)]).unwrap();
        let obj = rt.evict(id).unwrap();
        assert_eq!(rt.object_count(), 0);
        // Re-adopt (e.g. after a round trip through an image).
        let id2 = rt.adopt(obj).unwrap();
        assert_eq!(id2, id);
        assert_eq!(
            rt.invoke_as_system(id, "add", &[Value::Int(1)]).unwrap(),
            Value::Int(10)
        );
        // Double adoption rejected.
        let dup = rt.object(id).unwrap().clone();
        assert!(matches!(
            rt.adopt(dup),
            Err(MromError::DuplicateItem { .. })
        ));
    }

    #[test]
    fn log_and_time_world_ops() {
        let mut rt = Runtime::new(NodeId(9));
        rt.classes_mut()
            .register(ClassSpec::new("clock").fixed_method(
                "stamp",
                Method::public(
                    MethodBody::script("self.log(\"tick\"); return self.time();").unwrap(),
                ),
            ))
            .unwrap();
        let id = rt.create("clock").unwrap();
        rt.set_now(1234);
        assert_eq!(
            rt.invoke_as_system(id, "stamp", &[]).unwrap(),
            Value::Int(1234)
        );
        let lines = mrom_obs::log_lines_for(rt.node());
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].1, "tick");
        assert_eq!(lines[0].0, id);
    }

    #[test]
    fn objects_spawn_other_objects() {
        let mut rt = runtime_with_classes();
        rt.classes_mut()
            .register(
                ClassSpec::new("factory").fixed_method(
                    "make_calc",
                    Method::public(
                        MethodBody::script(
                            r#"
                        let child = self.spawn("calc");
                        self.send(child, "add", [41]);
                        return child;
                        "#,
                        )
                        .unwrap(),
                    ),
                ),
            )
            .unwrap();
        let factory = rt.create("factory").unwrap();
        let child_ref = rt.invoke_as_system(factory, "make_calc", &[]).unwrap();
        let child = child_ref.as_object_ref().expect("object ref");
        assert_eq!(rt.object_count(), 2);
        // The spawned object is real and kept the state the factory gave it.
        assert_eq!(
            rt.invoke_as_system(child, "add", &[Value::Int(1)]).unwrap(),
            Value::Int(42)
        );
        // Unknown classes fail cleanly through the script layer.
        rt.classes_mut()
            .register(ClassSpec::new("bad-factory").fixed_method(
                "make",
                Method::public(MethodBody::script(r#"return self.spawn("ghost-class");"#).unwrap()),
            ))
            .unwrap();
        let bad = rt.create("bad-factory").unwrap();
        assert!(rt.invoke_as_system(bad, "make", &[]).is_err());
    }

    #[test]
    fn migration_between_runtimes() {
        let mut rt_a = runtime_with_classes();
        let mut rt_b = Runtime::new(NodeId(22));
        let id = rt_a.create("calc").unwrap();
        rt_a.invoke_as_system(id, "add", &[Value::Int(3)]).unwrap();
        // Export from A...
        let obj = rt_a.evict(id).unwrap();
        let image = obj.image_value().unwrap();
        let bytes = mrom_value::wire::encode(&image);
        // ...import at B: the object keeps identity and state.
        let unpacked = MromObject::from_image(&bytes).unwrap();
        let id_b = rt_b.adopt(unpacked).unwrap();
        assert_eq!(id_b, id);
        assert_eq!(
            rt_b.invoke_as_system(id, "add", &[Value::Int(4)]).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn limits_are_applied_per_node() {
        let mut rt = Runtime::new(NodeId(30));
        rt.set_limits(InvokeLimits {
            fuel: 1_000,
            ..InvokeLimits::default()
        });
        rt.classes_mut()
            .register(ClassSpec::new("hot").fixed_method(
                "spin",
                Method::public(MethodBody::script("while (true) { }").unwrap()),
            ))
            .unwrap();
        let id = rt.create("hot").unwrap();
        let err = rt.invoke_as_system(id, "spin", &[]).unwrap_err();
        assert!(matches!(err, MromError::Script(_)));
        assert_eq!(rt.limits().fuel, 1_000);
    }

    #[test]
    fn meta_acl_protects_against_hostile_host_principal() {
        // A host (arbitrary principal) must not be able to mutate an
        // object's structure through the runtime.
        let mut rt = runtime_with_classes();
        let id = rt.create("calc").unwrap();
        let hostile = rt.ids_mut().next_id();
        let err = rt
            .invoke(
                hostile,
                id,
                "addDataItem",
                &[Value::from("evil"), Value::Int(0)],
            )
            .unwrap_err();
        assert!(matches!(err, MromError::AccessDenied { .. }));
    }
}
