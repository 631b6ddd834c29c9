//! Concurrent site runtime: many invocations in parallel on one node.
//!
//! [`SharedRuntime`] shards the object table [`crate::Runtime`] owns into
//! [`SHARD_COUNT`] hash-sharded [`ObjectTable`]s, each behind its own
//! `RwLock`. An invocation **checks its target out** under the shard's
//! write lock (flipping the slot from `Present` to `Busy`), executes the
//! level-0 Lookup→Match→Apply **without holding any lock** — the
//! `Arc<str>` tower and `Arc`-backed method handles make all hot dispatch
//! state shareable — and checks the object back in when done. Concurrent
//! calls to the *same* object observe the `Busy` slot and report
//! [`MromError::ObjectBusy`]; calls to *different* objects proceed truly
//! in parallel. The slot state machine, the invoke tail (panic poisoning
//! included) and the world hook are the ones `Runtime` uses
//! (`crate::host`); this type adds only the shards and locks.
//!
//! Why object granularity? In MROM, each object carries its own dispatch
//! state, generation stamp, and ACLs — security and encapsulation are the
//! same per-item mechanism — so the object is the natural unit of mutual
//! exclusion: no lock ordering between objects is ever needed, because no
//! invocation holds two objects at once (nested `send`s check the callee
//! out *after* the caller, and a cycle surfaces as `ObjectBusy`, exactly
//! as in `Runtime`).
//!
//! A poisoned slot (a body panicked) surfaces as `ObjectBusy`; inspect it
//! with [`SharedRuntime::poison_cause`] and reclaim it with
//! [`SharedRuntime::clear_poisoned`].
//!
//! ## Lock order
//!
//! `classes → ids → one shard`, and **nothing** is held while a method
//! body runs. At most one shard lock is ever held at a time; no code path
//! takes two shards. The `ids` generator is taken alone, for one mint.
//! The code-table mutex is taken alone, for a probe or an insert, and
//! never held while an image decodes.
//!
//! ## Migration interlock
//!
//! [`SharedRuntime::evict`] (the local half of migration) refuses `Busy`
//! and `Poisoned` slots with [`MromError::ObjectBusy`], so a `MoveObject`
//! can never capture an object mid-execution: the image is taken either
//! before checkout or after checkin, never in between.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use mrom_value::{AtomicIdGenerator, NodeId, ObjectId, Value};

use crate::class::ClassRegistry;
use crate::error::MromError;
use crate::host::{Host, ObjectTable, PoisonCause};
use crate::invoke::InvokeLimits;
use crate::object::MromObject;
use crate::table::CodeTable;

/// Number of hash shards in the object table. A small power of two: large
/// enough that 8 workers rarely collide on a shard lock, small enough
/// that whole-table scans (`object_ids`) stay cheap.
pub const SHARD_COUNT: usize = 16;

/// Read access to one hosted object, held open by a shard read guard.
///
/// Dereferences to [`MromObject`]. The guard pins the shard against
/// writers, so keep it short-lived — in particular, do not call back into
/// the runtime while holding one.
pub struct ObjectGuard<'a> {
    shard: RwLockReadGuard<'a, ObjectTable>,
    id: ObjectId,
}

impl Deref for ObjectGuard<'_> {
    type Target = MromObject;

    fn deref(&self) -> &MromObject {
        // The guard is only constructed over a Present slot and holds
        // the shard read-locked for its whole lifetime.
        self.shard
            .get(self.id)
            .expect("ObjectGuard over a non-present slot")
    }
}

impl std::fmt::Debug for ObjectGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Read access to the class registry (see [`SharedRuntime::classes`]).
pub struct ClassesGuard<'a> {
    inner: RwLockReadGuard<'a, ClassRegistry>,
}

impl Deref for ClassesGuard<'_> {
    type Target = ClassRegistry;

    fn deref(&self) -> &ClassRegistry {
        &self.inner
    }
}

impl std::fmt::Debug for ClassesGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// The concurrent per-node object host.
///
/// Every operation takes `&self`, so a `SharedRuntime` can be driven from
/// any number of worker threads (it is `Sync`); see the module docs for
/// the checkout protocol and lock order. Single-threaded hosts use
/// [`crate::Runtime`], which owns its table and takes no lock.
///
/// # Example
///
/// ```
/// use mrom_core::{ClassSpec, Method, MethodBody, SharedRuntime};
/// use mrom_value::{NodeId, Value};
///
/// # fn main() -> Result<(), mrom_core::MromError> {
/// let rt = SharedRuntime::new(NodeId(1));
/// rt.with_classes_mut(|reg| {
///     reg.register(ClassSpec::new("echo").fixed_method(
///         "say",
///         Method::public(MethodBody::script("param x; return x;")?),
///     ))
/// })?;
/// let id = rt.create("echo")?;
/// std::thread::scope(|s| {
///     s.spawn(|| rt.invoke_as_system(id, "say", &[Value::from("hi")]));
/// });
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SharedRuntime {
    node: NodeId,
    ids: AtomicIdGenerator,
    shards: Box<[RwLock<ObjectTable>]>,
    classes: RwLock<ClassRegistry>,
    limits: Mutex<InvokeLimits>,
    /// Virtual time surfaced to scripts via `self.time()`.
    now: AtomicU64,
    /// Fixed-method tables of arrived images, by their exact bytes.
    code: Mutex<CodeTable>,
}

impl SharedRuntime {
    /// Creates an empty shared runtime for `node`.
    #[must_use]
    pub fn new(node: NodeId) -> SharedRuntime {
        let shards = (0..SHARD_COUNT)
            .map(|_| RwLock::new(ObjectTable::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SharedRuntime {
            node,
            ids: AtomicIdGenerator::new(node),
            shards,
            classes: RwLock::new(ClassRegistry::new()),
            limits: Mutex::new(InvokeLimits::default()),
            now: AtomicU64::new(0),
            code: Mutex::new(CodeTable::default()),
        }
    }

    /// The node this runtime represents.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's identity generator (mints through `&self`).
    #[must_use]
    pub fn ids(&self) -> &AtomicIdGenerator {
        &self.ids
    }

    /// Read access to the class registry.
    ///
    /// The returned guard read-locks the registry; drop it before calling
    /// [`SharedRuntime::with_classes_mut`] on the same thread.
    #[must_use]
    pub fn classes(&self) -> ClassesGuard<'_> {
        ClassesGuard {
            inner: read_guard(&self.classes),
        }
    }

    /// Runs `f` with exclusive access to the class registry (registration,
    /// class evolution). Writers block invocations only for the duration
    /// of the closure — keep it short.
    pub fn with_classes_mut<R>(&self, f: impl FnOnce(&mut ClassRegistry) -> R) -> R {
        f(&mut write(&self.classes))
    }

    /// Replaces this node's own invocation limits, admission policy included.
    pub fn set_limits(&self, limits: InvokeLimits) {
        *self
            .limits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = limits;
    }

    /// The current invocation limits.
    #[must_use]
    pub fn limits(&self) -> InvokeLimits {
        *self
            .limits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Current virtual time (milliseconds by convention).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// Advances virtual time (driven by the simulation substrate).
    pub fn set_now(&self, now: u64) {
        self.now.store(now, Ordering::Relaxed);
        // Keep the observability window on the same clock. Monotonic-max
        // semantics mean the simulator's finer microsecond stamp (set at
        // delivery) is never rewound by this millisecond-resolution one.
        mrom_obs::set_virtual_now_us(now.saturating_mul(1000));
    }

    /// Instantiates a registered class, adopting the object into the node.
    ///
    /// # Errors
    ///
    /// [`MromError::Class`] for unknown class names.
    pub fn create(&self, class: &str) -> Result<ObjectId, MromError> {
        // Lock order: classes → ids → shard.
        let obj = {
            let classes = read_guard(&self.classes);
            classes
                .get(class)
                .ok_or_else(|| MromError::Class(format!("unknown class {class:?}")))?;
            classes.instantiate_with_id(class, self.ids.next_id())?
        };
        self.adopt(obj)
    }

    /// Unpacks image bytes that crossed a trust boundary, admitting the
    /// object under this site's own [`InvokeLimits::admission`] through
    /// its code table (see [`crate::Runtime::unpack_image`]). The object
    /// is returned, not adopted.
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] for framing/validation failures;
    /// [`MromError::AdmissionRejected`] when the policy is strict and a
    /// method body fails static admission analysis.
    pub fn unpack_image(&self, bytes: &[u8]) -> Result<MromObject, MromError> {
        crate::migrate::unpack(bytes, self.limits().admission, Some(&self.code))
    }

    /// Adopts an externally constructed object (builder output, or an
    /// unpacked migration image).
    ///
    /// # Errors
    ///
    /// [`MromError::DuplicateItem`] if this identity is already hosted
    /// here — including checked-out and poisoned identities.
    pub fn adopt(&self, obj: MromObject) -> Result<ObjectId, MromError> {
        write(self.shard_of(obj.id())).adopt(obj)
    }

    /// Removes an object from the node (the local half of migration),
    /// returning it. An object checked out by an in-flight invocation (or
    /// poisoned by a panicked one) refuses with
    /// [`MromError::ObjectBusy`].
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`], [`MromError::ObjectBusy`].
    pub fn evict(&self, id: ObjectId) -> Result<MromObject, MromError> {
        write(self.shard_of(id)).evict(id)
    }

    /// Read access to a hosted object at rest. `None` for unknown,
    /// checked-out, and poisoned identities.
    #[must_use]
    pub fn object(&self, id: ObjectId) -> Option<ObjectGuard<'_>> {
        let shard = read_guard(self.shard_of(id));
        shard.get(id)?;
        Some(ObjectGuard { shard, id })
    }

    /// Identities of all hosted objects (unordered), including checked-out
    /// and poisoned identities.
    #[must_use]
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(read_guard(shard).ids());
        }
        out
    }

    /// Number of hosted identities, including checked-out and poisoned
    /// slots (an executing object is still hosted here).
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| read_guard(s).len()).sum()
    }

    /// The structured cause recorded when `id`'s slot was poisoned by a
    /// panicking method body, if it was.
    #[must_use]
    pub fn poison_cause(&self, id: ObjectId) -> Option<PoisonCause> {
        read_guard(self.shard_of(id)).poison_cause(id).cloned()
    }

    /// Reclaims a poisoned identity: removes the slot and returns the
    /// cause. The object's state was discarded when the body panicked; the
    /// host may re-adopt a replacement under the same identity afterwards.
    #[must_use]
    pub fn clear_poisoned(&self, id: ObjectId) -> Option<PoisonCause> {
        write(self.shard_of(id)).clear_poisoned(id)
    }

    /// Invokes a method on a hosted object as `caller`.
    ///
    /// The target is checked out of its shard for the duration of the
    /// call — no lock is held while the body runs — so the body can invoke
    /// *other* objects on this node through the world hook. A concurrent
    /// or cyclic call into the executing object reports
    /// [`MromError::ObjectBusy`]. A panicking body is caught, the slot
    /// poisoned (see [`SharedRuntime::poison_cause`]), and `ObjectBusy`
    /// returned.
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`], [`MromError::ObjectBusy`], plus all
    /// invocation errors.
    pub fn invoke(
        &self,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        crate::host::invoke(&mut &*self, caller, target, method, args)
    }

    /// [`SharedRuntime::invoke`] with the system principal.
    ///
    /// # Errors
    ///
    /// As [`SharedRuntime::invoke`].
    pub fn invoke_as_system(
        &self,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        self.invoke(ObjectId::SYSTEM, target, method, args)
    }

    fn shard_of(&self, id: ObjectId) -> &RwLock<ObjectTable> {
        &self.shards[shard_index(id)]
    }
}

/// The shared host: every table operation takes its shard's write lock
/// for that one operation.
impl Host for &SharedRuntime {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> u64 {
        SharedRuntime::now(self)
    }

    fn limits(&self) -> InvokeLimits {
        SharedRuntime::limits(self)
    }

    fn checkout(&mut self, target: ObjectId, method: &str) -> Result<Box<MromObject>, MromError> {
        write(self.shard_of(target)).checkout(self.node, target, method)
    }

    fn checkin(&mut self, obj: Box<MromObject>) {
        write(self.shard_of(obj.id())).checkin(obj);
    }

    fn poison(&mut self, id: ObjectId, cause: PoisonCause) {
        write(self.shard_of(id)).poison(id, cause);
    }

    fn create(&mut self, class: &str) -> Result<ObjectId, MromError> {
        SharedRuntime::create(self, class)
    }
}

/// Maps an identity onto a shard: multiply-mix the 128-bit triple down to
/// the top bits of a u64 (Fibonacci hashing), then mask.
fn shard_index(id: ObjectId) -> usize {
    let folded = id.node().0 ^ (u64::from(id.seq()) << 32) ^ u64::from(id.entropy());
    let mixed = folded.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> 59) as usize & (SHARD_COUNT - 1)
}

/// Takes a read lock, shrugging off poisoning: no lock in this module is
/// ever held while user code runs (panics inside bodies are caught before
/// any lock is re-taken), so a poisoned lock only means a panic in
/// infallible map plumbing — the data is still coherent.
fn read_guard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Takes a write lock; see [`read_guard`] on poisoning.
fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassSpec;
    use crate::item::DataItem;
    use crate::method::{Method, MethodBody};

    fn counter_class() -> ClassSpec {
        ClassSpec::new("counter")
            .fixed_data("acc", DataItem::public(Value::Int(0)))
            .fixed_method(
                "add",
                Method::public(
                    MethodBody::script(
                        "param x; self.set(\"acc\", self.get(\"acc\") + x); return self.get(\"acc\");",
                    )
                    .unwrap(),
                ),
            )
    }

    fn shared_with_counter() -> SharedRuntime {
        let rt = SharedRuntime::new(NodeId(40));
        rt.with_classes_mut(|reg| reg.register(counter_class()))
            .unwrap();
        rt
    }

    #[test]
    fn create_invoke_and_read_through_guard() {
        let rt = shared_with_counter();
        let id = rt.create("counter").unwrap();
        assert_eq!(
            rt.invoke_as_system(id, "add", &[Value::Int(5)]).unwrap(),
            Value::Int(5)
        );
        let guard = rt.object(id).expect("present");
        assert_eq!(
            guard.read_data(ObjectId::SYSTEM, "acc").unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn parallel_invocations_on_disjoint_objects() {
        let rt = shared_with_counter();
        let ids: Vec<_> = (0..8).map(|_| rt.create("counter").unwrap()).collect();
        std::thread::scope(|s| {
            for &id in &ids {
                let rt = &rt;
                s.spawn(move || {
                    for _ in 0..100 {
                        rt.invoke_as_system(id, "add", &[Value::Int(1)]).unwrap();
                    }
                });
            }
        });
        for id in ids {
            let obj = rt.object(id).unwrap();
            assert_eq!(
                obj.read_data(ObjectId::SYSTEM, "acc").unwrap(),
                Value::Int(100)
            );
        }
    }

    #[test]
    fn same_object_contention_is_ok_or_busy() {
        let rt = shared_with_counter();
        let id = rt.create("counter").unwrap();
        let oks = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (rt, oks) = (&rt, &oks);
                s.spawn(move || {
                    for _ in 0..200 {
                        match rt.invoke_as_system(id, "add", &[Value::Int(1)]) {
                            Ok(_) => {
                                oks.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(MromError::ObjectBusy(busy)) => assert_eq!(busy, id),
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
        });
        let obj = rt.object(id).unwrap();
        assert_eq!(
            obj.read_data(ObjectId::SYSTEM, "acc").unwrap(),
            Value::Int(oks.load(Ordering::Relaxed) as i64)
        );
    }

    #[test]
    fn evict_refuses_checked_out_object() {
        let rt = SharedRuntime::new(NodeId(41));
        rt.with_classes_mut(|reg| reg.register(counter_class()))
            .unwrap();
        // A native method that tries to evict... is not expressible from
        // scripts; simulate by poking the slot machinery directly.
        let id = rt.create("counter").unwrap();
        let mut host = &rt;
        let obj = host.checkout(id, "add").unwrap();
        assert!(matches!(rt.evict(id), Err(MromError::ObjectBusy(_))));
        assert!(rt.object(id).is_none(), "busy slot is not readable");
        assert_eq!(rt.object_count(), 1, "busy slot still counts as hosted");
        host.checkin(obj);
        assert!(rt.evict(id).is_ok());
    }

    #[test]
    fn panicking_body_poisons_slot_not_vanishes() {
        let rt = SharedRuntime::new(NodeId(42));
        rt.with_classes_mut(|reg| {
            reg.register(ClassSpec::new("bomb").fixed_method(
                "boom",
                Method::public(MethodBody::native(|_env, _args| {
                    panic!("kaboom: deliberate test panic")
                })),
            ))
        })
        .unwrap();
        let id = rt.create("bomb").unwrap();
        let err = rt.invoke_as_system(id, "boom", &[]).unwrap_err();
        assert!(matches!(err, MromError::ObjectBusy(b) if b == id));
        // The identity did not vanish: later calls get ObjectBusy (not
        // NoSuchObject) and the cause is retrievable.
        let err = rt.invoke_as_system(id, "boom", &[]).unwrap_err();
        assert!(matches!(err, MromError::ObjectBusy(_)));
        let cause = rt.poison_cause(id).expect("structured cause");
        assert_eq!(cause.method, "boom");
        assert!(cause.message.contains("kaboom"), "{cause}");
        // Migration cannot capture it either.
        assert!(matches!(rt.evict(id), Err(MromError::ObjectBusy(_))));
        // Reclaim: the slot is removed and the cause handed back.
        let cause = rt.clear_poisoned(id).expect("reclaimed");
        assert!(cause.message.contains("kaboom"));
        assert!(matches!(
            rt.invoke_as_system(id, "boom", &[]),
            Err(MromError::NoSuchObject(_))
        ));
    }

    #[test]
    fn nested_send_and_spawn_work_through_shared_world() {
        let rt = shared_with_counter();
        rt.with_classes_mut(|reg| {
            reg.register(
                ClassSpec::new("factory").fixed_method(
                    "make",
                    Method::public(
                        MethodBody::script(
                            r#"
                            let child = self.spawn("counter");
                            self.send(child, "add", [41]);
                            self.send(child, "add", [1]);
                            return child;
                            "#,
                        )
                        .unwrap(),
                    ),
                ),
            )
        })
        .unwrap();
        let factory = rt.create("factory").unwrap();
        let child_ref = rt.invoke_as_system(factory, "make", &[]).unwrap();
        let child = child_ref.as_object_ref().expect("object ref");
        assert_eq!(
            rt.object(child)
                .unwrap()
                .read_data(ObjectId::SYSTEM, "acc")
                .unwrap(),
            Value::Int(42)
        );
        assert_eq!(rt.object_count(), 2);
    }

    #[test]
    fn shard_index_spreads_and_is_stable() {
        let gen = AtomicIdGenerator::new(NodeId(7));
        let mut used = std::collections::HashSet::new();
        for _ in 0..1000 {
            let idx = shard_index(gen.next_id());
            assert!(idx < SHARD_COUNT);
            used.insert(idx);
        }
        assert!(used.len() > SHARD_COUNT / 2, "hash spreads over shards");
        let id = ObjectId::from_parts(NodeId(3), 9, 11);
        assert_eq!(shard_index(id), shard_index(id));
    }
}
