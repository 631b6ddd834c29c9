//! Node runtime: the single-threaded view of the per-node object table.
//!
//! A [`Runtime`] owns every object hosted on one logical node, mints
//! identities through the node's generator, and implements the
//! `send`/`log`/`time` world operations for method bodies. Since PR 5 it
//! is a thin `&mut self` wrapper over the concurrent
//! [`SharedRuntime`](crate::SharedRuntime) — same semantics, same error
//! surface, exclusive access enforced by the borrow checker instead of
//! locks. Callers that want intra-node parallelism construct a
//! `SharedRuntime` directly and drive it from multiple threads.
//!
//! Cross-node communication is *not* here — it belongs to the network
//! substrate and HADAS, which wrap a runtime per simulated node.

use mrom_value::{AtomicIdGenerator, NodeId, ObjectId, Value};

use crate::class::ClassRegistry;
use crate::error::MromError;
use crate::invoke::InvokeLimits;
use crate::object::MromObject;
use crate::shared::{ObjectGuard, SharedRuntime};

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
    shared: SharedRuntime,
}

impl Runtime {
    /// Creates an empty runtime for `node`.
    pub fn new(node: NodeId) -> Runtime {
        Runtime {
            shared: SharedRuntime::new(node),
        }
    }

    /// The node this runtime represents.
    pub fn node(&self) -> NodeId {
        self.shared.node()
    }

    /// The node's identity generator.
    ///
    /// The generator mints through `&self` nowadays; the historical name
    /// and receiver are kept so existing `rt.ids_mut().next_id()` call
    /// sites compile unchanged.
    pub fn ids_mut(&mut self) -> &AtomicIdGenerator {
        self.shared.ids()
    }

    /// The class registry.
    pub fn classes(&self) -> crate::shared::ClassesGuard<'_> {
        self.shared.classes()
    }

    /// Mutable class registry access (lock-free: exclusivity comes from
    /// `&mut self`).
    pub fn classes_mut(&mut self) -> &mut ClassRegistry {
        self.shared.classes_mut()
    }

    /// Replaces this node's own invocation limits, admission policy included.
    pub fn set_limits(&mut self, limits: InvokeLimits) {
        self.shared.set_limits(limits);
    }

    /// The current invocation limits.
    pub fn limits(&self) -> InvokeLimits {
        self.shared.limits()
    }

    /// Current virtual time (milliseconds by convention).
    pub fn now(&self) -> u64 {
        self.shared.now()
    }

    /// Advances virtual time (driven by the simulation substrate).
    pub fn set_now(&mut self, now: u64) {
        self.shared.set_now(now);
    }

    /// The recording thread's windowed telemetry restricted to this
    /// node: profiles of objects hosted here plus the call-matrix rows
    /// and links touching this site. The site-wide (unfiltered) view is
    /// [`mrom_obs::telemetry_snapshot`]; the reflective per-object door
    /// is the `getTelemetry` meta-method.
    #[must_use]
    pub fn telemetry(&self) -> mrom_obs::TelemetrySnapshot {
        let hosted: std::collections::BTreeSet<ObjectId> = self.object_ids().into_iter().collect();
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
        self.shared.create(class)
    }

    /// Unpacks image bytes that crossed a trust boundary under this
    /// node's admission policy, through its code table (see
    /// [`SharedRuntime::unpack_image`]). The object is returned, not
    /// adopted.
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`]; [`MromError::AdmissionRejected`].
    pub fn unpack_image(&self, bytes: &[u8]) -> Result<MromObject, MromError> {
        self.shared.unpack_image(bytes)
    }

    /// Adopts an externally constructed object (builder output, or an
    /// unpacked migration image).
    ///
    /// # Errors
    ///
    /// [`MromError::DuplicateItem`] if an object with this identity is
    /// already hosted here.
    pub fn adopt(&mut self, obj: MromObject) -> Result<ObjectId, MromError> {
        self.shared.adopt(obj)
    }

    /// Removes an object from the node (the local half of migration),
    /// returning it.
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`]; [`MromError::ObjectBusy`] for objects
    /// checked out by an in-flight invocation or poisoned by a panicked
    /// one (through `&mut self` only the latter can happen).
    pub fn evict(&mut self, id: ObjectId) -> Result<MromObject, MromError> {
        self.shared.evict(id)
    }

    /// Shared access to a hosted object.
    ///
    /// Returns a guard that dereferences to [`MromObject`]; existing
    /// `rt.object(id).unwrap().read_data(..)`-style call sites compile
    /// unchanged. `None` for unknown (and, through the shared view,
    /// checked-out or poisoned) identities.
    pub fn object(&self, id: ObjectId) -> Option<ObjectGuard<'_>> {
        self.shared.object(id)
    }

    /// Mutable access to a hosted object (host-side administration;
    /// lock-free through `&mut self`).
    pub fn object_mut(&mut self, id: ObjectId) -> Option<&mut MromObject> {
        self.shared.object_mut(id)
    }

    /// Identities of all hosted objects (unordered).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.shared.object_ids()
    }

    /// Number of hosted objects.
    pub fn object_count(&self) -> usize {
        self.shared.object_count()
    }

    /// Invokes a method on a hosted object as `caller`.
    ///
    /// The target is checked out of the table for the duration of the call
    /// so its body can invoke *other* objects on this node through the
    /// world hook; a cyclic call back into the executing object reports
    /// [`MromError::ObjectBusy`]. See
    /// [`SharedRuntime::invoke`](crate::SharedRuntime::invoke) for the
    /// full checkout protocol (including panic poisoning).
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`] plus all invocation errors.
    pub fn invoke(
        &mut self,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        self.shared.invoke(caller, target, method, args)
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
        self.shared.invoke_as_system(target, method, args)
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
