//! Node runtime: the single-threaded per-node object host.
//!
//! A [`Runtime`] owns every object hosted on one logical node in a plain
//! object table, mints identities through the node's generator, and
//! implements the `send`/`spawn`/`log`/`time`/`node` world operations for
//! method bodies. It takes no lock: exclusive access comes from
//! `&mut self`. Invocation takes the target out of its slot and puts it
//! back, so a cyclic `send` into an executing object still reports
//! [`MromError::ObjectBusy`] and a panicking body still poisons its slot.
//! Callers that want intra-node parallelism use
//! [`SharedRuntime`](crate::SharedRuntime), which shards the same table
//! under locks and shares the invoke tail and world hook with this type.
//!
//! Cross-node communication is *not* here — it belongs to the network
//! substrate and HADAS, which wrap a runtime per simulated node.

use std::sync::Mutex;

use mrom_value::{IdGenerator, NodeId, ObjectId, Value};

use crate::class::ClassRegistry;
use crate::error::MromError;
use crate::host::{Host, ObjectTable, PoisonCause};
use crate::invoke::InvokeLimits;
use crate::object::MromObject;
use crate::table::CodeTable;

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
    /// Fixed-method tables of arrived images, by their exact bytes. One
    /// uncontended lock per arrival keeps `migrate::unpack` one signature
    /// for both hosts.
    code: Mutex<CodeTable>,
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
            code: Mutex::new(CodeTable::default()),
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
        let hosted: std::collections::BTreeSet<ObjectId> = self.objects.ids().collect();
        mrom_obs::telemetry_snapshot().for_site(self.node(), |id| hosted.contains(&id))
    }

    /// Messages logged by objects via `self.log(...)`, in order.
    ///
    /// Compatibility shim over the observability log channel
    /// ([`mrom_obs::log_lines_for`]), which also attributes entries to the
    /// node, bounds retention, and threads them into active traces.
    #[deprecated(
        since = "0.4.0",
        note = "use mrom_obs::log_lines_for(runtime.node()) — the log now lives in the observability layer"
    )]
    pub fn log_entries(&self) -> Vec<(ObjectId, String)> {
        mrom_obs::log_lines_for(self.node())
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
    pub fn unpack_image(&self, bytes: &[u8]) -> Result<MromObject, MromError> {
        crate::migrate::unpack(bytes, self.limits.admission, Some(&self.code))
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
        self.objects.clear();
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
        self.objects.ids().collect()
    }

    /// Number of hosted objects, poisoned identities included.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Invokes a method on a hosted object as `caller`.
    ///
    /// The target is checked out of the table for the duration of the call
    /// so its body can invoke *other* objects on this node through the
    /// world hook; a cyclic call back into the executing object reports
    /// [`MromError::ObjectBusy`]. A panicking body is caught and its
    /// object discarded; the identity stays hosted in a poisoned slot
    /// that reports `ObjectBusy` to every later call and to
    /// [`Runtime::evict`].
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
        crate::host::invoke(self, caller, target, method, args)
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

/// The owning host: the table is a field, so no operation locks.
impl Host for Runtime {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn limits(&self) -> InvokeLimits {
        self.limits
    }

    fn checkout(&mut self, target: ObjectId, method: &str) -> Result<Box<MromObject>, MromError> {
        self.objects.checkout(self.node, target, method)
    }

    fn checkin(&mut self, obj: Box<MromObject>) {
        self.objects.checkin(obj);
    }

    fn poison(&mut self, id: ObjectId, cause: PoisonCause) {
        self.objects.poison(id, cause);
    }

    fn create(&mut self, class: &str) -> Result<ObjectId, MromError> {
        Runtime::create(self, class)
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
        // The deprecated accessor reads the same channel.
        #[allow(deprecated)]
        {
            assert_eq!(rt.log_entries(), lines);
        }
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
