//! The invocation engine: the level-0 mechanism (Lookup → Match → Apply),
//! the meta-invocation tower, and the bridge that lets script bodies reach
//! the meta-methods.
//!
//! ## Level 0
//!
//! The paper's base mechanism is implemented natively here — it is the
//! "primitive, level 0 invocation mechanism" whose "representation is not
//! visible and non-reflective, is not accommodated for change, and can be
//! implemented in a more efficient way". Its three phases:
//!
//! 1. **Lookup** — find the method (fixed section first, then extensible).
//! 2. **Match** — check the caller principal against the method's invoke
//!    ACL (security == encapsulation, enforced at this single point).
//! 3. **Apply** — pre-procedure (falsy ⇒ body skipped), body,
//!    post-procedure (falsy ⇒ error).
//!
//! ## The tower
//!
//! If the object has installed meta-invoke levels
//! ([`crate::MromObject::install_meta_invoke`]), an external invocation
//! enters at the *topmost* level: the meta-invoke method receives the
//! target method name and argument list as data (exactly Figure 1 — `Mfoo`
//! is passed as a parameter to `meta_invoke`), and descends one level each
//! time it performs `self.invoke(...)`, bottoming out at level 0.
//!
//! ## Fuel
//!
//! Every invocation shares a fuel ledger so hostile mobile code cannot hold
//! a host hostage; each script body is additionally bounded by the ledger
//! value at its entry, and cross-object nesting is bounded by
//! [`InvokeLimits::max_call_depth`].
//!
//! ## Engines
//!
//! Script bodies run on the register-bytecode [`Vm`]. The tree-walking
//! [`Evaluator`], the differential batteries' reference, is reachable only
//! through [`invoke_with_reference_evaluator`]: the engine is a type
//! parameter of the dispatch path, so production carries no engine branch.

use std::marker::PhantomData;

use mrom_script::surface::{host_op, HostOp, HostRow};
use mrom_script::{Evaluator, HostContext, Program, ScriptError, Vm};
use mrom_value::{ObjectId, Value};

use crate::admission::AdmissionPolicy;
use crate::container::Section;
use crate::error::MromError;
use crate::method::{MetaOp, Method, MethodBody};
use crate::object::MromObject;

/// Per-runtime configuration applied to an invocation and everything
/// nested in it: resource bounds plus the site's admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeLimits {
    /// Script fuel ledger shared by the whole invocation tree.
    pub fuel: u64,
    /// Maximum number of installed meta-invoke levels honoured.
    pub max_tower: usize,
    /// Maximum nesting of method application (tower levels + self-calls).
    pub max_call_depth: usize,
    /// Policy under which the `addMethod`/`setMethod` meta-operations
    /// admit the method bodies they install. Defaults to `Off`.
    pub admission: AdmissionPolicy,
}

impl Default for InvokeLimits {
    fn default() -> Self {
        InvokeLimits {
            fuel: mrom_script::DEFAULT_FUEL,
            max_tower: 8,
            max_call_depth: 32,
            admission: AdmissionPolicy::Off,
        }
    }
}

/// One script run: its outcome, the fuel the engine itself burned, and
/// its host-call count.
type Run = (Result<Value, ScriptError>, u64, u64);

/// Executes script bodies; the type parameter of the dispatch path.
trait Engine: Sized {
    fn run(program: &Program, host: &mut ScriptHost<'_, Self>, fuel: u64, args: &[Value]) -> Run;
}

/// The production engine: bytecode compiled at admission (or on first
/// run) and cached on the `Program`.
enum Bytecode {}

impl Engine for Bytecode {
    fn run(program: &Program, host: &mut ScriptHost<'_, Self>, fuel: u64, args: &[Value]) -> Run {
        let mut vm = Vm::with_fuel(host, fuel);
        let outcome = vm.run(&program.compiled(), args);
        (outcome, vm.fuel_used(), vm.host_calls())
    }
}

/// The reference engine: the fuel-metered AST-walking evaluator.
enum Reference {}

impl Engine for Reference {
    fn run(program: &Program, host: &mut ScriptHost<'_, Self>, fuel: u64, args: &[Value]) -> Run {
        let mut evaluator = Evaluator::with_fuel(host, fuel);
        let outcome = evaluator.run(program, args);
        (outcome, evaluator.fuel_used(), evaluator.host_calls())
    }
}

/// [`dispatch`] monomorphised for one engine; lets a [`CallEnv`] re-enter
/// the engine its native body was applied under.
type DispatchFn = fn(
    &mut MromObject,
    &mut dyn WorldHook,
    ObjectId,
    &str,
    &[Value],
    usize,
    usize,
    &mut u64,
    &InvokeLimits,
) -> Result<Value, MromError>;

/// Node-level services available to running method bodies: inter-object
/// invocation, logging, clocks — whatever the embedding substrate offers.
///
/// The object model itself needs nothing from the world; `hadas` and the
/// node runtime implement this to give mobile code a (mediated, auditable)
/// door out of its object.
pub trait WorldHook {
    /// Performs a world operation on behalf of `caller`.
    ///
    /// # Errors
    ///
    /// [`MromError::World`] (or any model error) when the operation is
    /// unknown, denied, or fails.
    fn world_call(
        &mut self,
        caller: ObjectId,
        op: &str,
        args: &[Value],
    ) -> Result<Value, MromError>;
}

/// A world that offers nothing: every operation fails. The right hook for
/// objects that must stay fully self-contained.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoWorld;

impl WorldHook for NoWorld {
    fn world_call(
        &mut self,
        _caller: ObjectId,
        op: &str,
        _args: &[Value],
    ) -> Result<Value, MromError> {
        Err(MromError::World(format!(
            "no world is attached; operation {op:?} unavailable"
        )))
    }
}

/// Execution environment handed to native method bodies.
///
/// A native body runs with the authority of the object itself and may
/// inspect the current caller, re-invoke methods (through the remaining
/// tower), and reach the world hook.
pub struct CallEnv<'a> {
    object: &'a mut MromObject,
    world: &'a mut dyn WorldHook,
    caller: ObjectId,
    level: usize,
    depth: usize,
    fuel: &'a mut u64,
    limits: &'a InvokeLimits,
    dispatch: DispatchFn,
}

impl<'a> CallEnv<'a> {
    /// The object the running method belongs to.
    pub fn object(&mut self) -> &mut MromObject {
        self.object
    }

    /// Read-only view of the object.
    pub fn object_ref(&self) -> &MromObject {
        self.object
    }

    /// The principal that invoked the currently running method.
    pub fn caller(&self) -> ObjectId {
        self.caller
    }

    /// Remaining fuel in the shared ledger.
    pub fn fuel_remaining(&self) -> u64 {
        *self.fuel
    }

    /// Invokes a method on the same object with the object's own authority,
    /// continuing at the current tower level (a meta-invoke body calling
    /// this descends one level; an ordinary body re-enters the full tower).
    ///
    /// # Errors
    ///
    /// Any invocation error.
    pub fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, MromError> {
        let self_id = self.object.id();
        (self.dispatch)(
            self.object,
            self.world,
            self_id,
            method,
            args,
            self.level,
            self.depth + 1,
            self.fuel,
            self.limits,
        )
    }

    /// Performs a world operation with the object's own authority.
    ///
    /// # Errors
    ///
    /// Whatever the hook returns.
    pub fn world_call(&mut self, op: &str, args: &[Value]) -> Result<Value, MromError> {
        let self_id = self.object.id();
        self.world.world_call(self_id, op, args)
    }
}

/// Invokes `method` on `object` as `caller` with default [`InvokeLimits`].
///
/// This is the model's single entry point for method invocation — the Rust
/// face of the `invoke` meta-method.
///
/// # Errors
///
/// Lookup, security, wrapping, script, fuel, and depth errors; see
/// [`MromError`].
///
/// # Example
///
/// ```
/// use mrom_core::{invoke, Method, MethodBody, NoWorld, ObjectBuilder};
/// use mrom_value::{IdGenerator, NodeId, Value};
///
/// # fn main() -> Result<(), mrom_core::MromError> {
/// let mut ids = IdGenerator::new(NodeId(1));
/// let mut obj = ObjectBuilder::new(ids.next_id())
///     .fixed_method(
///         "double",
///         Method::public(MethodBody::script("param x; return x * 2;")?),
///     )
///     .build();
/// let mut world = NoWorld;
/// let caller = ids.next_id();
/// let out = invoke(&mut obj, &mut world, caller, "double", &[Value::Int(21)])?;
/// assert_eq!(out, Value::Int(42));
/// # Ok(())
/// # }
/// ```
pub fn invoke(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    method: &str,
    args: &[Value],
) -> Result<Value, MromError> {
    invoke_with_limits(
        object,
        world,
        caller,
        method,
        args,
        &InvokeLimits::default(),
    )
}

/// [`invoke`] with explicit resource limits.
///
/// # Errors
///
/// As [`invoke`], plus [`MromError::TowerDepthExceeded`] when the object
/// has more installed meta-invoke levels than `limits.max_tower`.
pub fn invoke_with_limits(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    method: &str,
    args: &[Value],
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    invoke_on::<Bytecode>(object, world, caller, method, args, limits)
}

/// [`invoke_with_limits`] with script bodies run by the tree-walking
/// reference [`Evaluator`]; everything else is the production path. The
/// differential battery's oracle, not an execution mode.
///
/// # Errors
///
/// As [`invoke_with_limits`].
#[doc(hidden)]
pub fn invoke_with_reference_evaluator(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    method: &str,
    args: &[Value],
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    invoke_on::<Reference>(object, world, caller, method, args, limits)
}

fn invoke_on<E: Engine>(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    method: &str,
    args: &[Value],
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    let level = object.tower().len();
    if level > limits.max_tower {
        return Err(MromError::TowerDepthExceeded(limits.max_tower));
    }
    let mut fuel = limits.fuel;
    dispatch::<E>(
        object, world, caller, method, args, level, 0, &mut fuel, limits,
    )
}

/// Core dispatch: enter at `level`; levels > 0 route through the tower.
#[allow(clippy::too_many_arguments)]
fn dispatch<E: Engine>(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    method: &str,
    args: &[Value],
    level: usize,
    depth: usize,
    fuel: &mut u64,
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    if depth > limits.max_call_depth {
        return Err(MromError::CallDepthExceeded(limits.max_call_depth));
    }
    // The tower may have shrunk while a body was running (deleteMethod on a
    // level): clamp rather than error, matching "the stack below me is
    // whatever the object currently has".
    let level = level.min(object.tower().len());
    if level > 0 {
        // Apply the tower method; every body it runs (pre, body, post)
        // performs nested invokes one level further down. Tower entries
        // are interned `Arc<str>`, so pinning the level name is a handle
        // clone, not a string copy.
        let meta_name = object.tower()[level - 1].clone();
        mrom_obs::tower_descend(
            object.id(),
            u32::try_from(level).unwrap_or(u32::MAX),
            &meta_name,
        );
        let meta_args = [Value::Str(method.to_owned()), Value::List(args.to_vec())];
        apply_method::<E>(
            object,
            world,
            caller,
            &meta_name,
            &meta_args,
            pack_levels(level - 1, level),
            depth + 1,
            fuel,
            limits,
        )
    } else {
        // The level-0 target: its nested invokes re-enter the full tower,
        // so every invocation — external or internal — is wrapped.
        let nested_level = object.tower().len();
        apply_method::<E>(
            object,
            world,
            caller,
            method,
            args,
            pack_levels(nested_level, 0),
            depth + 1,
            fuel,
            limits,
        )
    }
}

/// Pack the level pair into one argument. `apply_method` already passes
/// more arguments than fit in registers; an eleventh spills to the stack
/// on every application and costs a measurable fraction of the ~45 ns
/// invocation, so the two small levels share one slot. Low half: the
/// level nested invokes enter at; high half: the tower level this
/// application conceptually runs at (0 = base).
#[inline]
const fn pack_levels(nested: usize, tower: usize) -> u64 {
    (nested as u64) | ((tower as u64) << 32)
}

/// Phases 1-3 of the base mechanism on a single method.
///
/// When observability is on this opens one span per application — tower
/// descents therefore produce one *nested* span per level — and reports
/// the outcome and fuel delta on close. When off, the single
/// [`mrom_obs::enabled`] byte-check is the entire overhead.
#[allow(clippy::too_many_arguments)]
fn apply_method<E: Engine>(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    name: &str,
    args: &[Value],
    levels: u64,
    depth: usize,
    fuel: &mut u64,
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    // One thread-local byte-read per application; `obs: false` then
    // short-circuits every instrumentation point inside the phases, so
    // this check is the entire disabled-path overhead. The traced variant
    // is outlined to keep the hot function small.
    if !mrom_obs::enabled() {
        return apply_phases::<E>(
            object,
            world,
            caller,
            name,
            args,
            (levels & 0xFFFF_FFFF) as usize,
            depth,
            fuel,
            limits,
            false,
        );
    }
    apply_method_traced::<E>(
        object, world, caller, name, args, levels, depth, fuel, limits,
    )
}

/// [`apply_method`] with the recorder on: wraps the phases in an
/// invocation span and reports outcome and fuel on close. `cold` keeps
/// the disabled path the straight-line fall-through.
#[allow(clippy::too_many_arguments)]
#[cold]
#[inline(never)]
fn apply_method_traced<E: Engine>(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    name: &str,
    args: &[Value],
    levels: u64,
    depth: usize,
    fuel: &mut u64,
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    let nested_level = (levels & 0xFFFF_FFFF) as usize;
    let tower_level = (levels >> 32) as u32;
    let span = mrom_obs::invoke_start(object.id(), name, caller, tower_level);
    let fuel_entry = *fuel;
    let result = apply_phases::<E>(
        object,
        world,
        caller,
        name,
        args,
        nested_level,
        depth,
        fuel,
        limits,
        true,
    );
    let outcome = match &result {
        Ok(_) => "ok",
        Err(e) => e.label(),
    };
    mrom_obs::invoke_end(
        span,
        object.id(),
        name,
        outcome,
        fuel_entry.saturating_sub(*fuel),
    );
    result
}

/// The three phases themselves. `obs` is the observability gate read
/// once per application by [`apply_method`]; the phase-level
/// instrumentation points test that register instead of re-reading the
/// thread-local mode byte. Inlined into both the traced and untraced
/// callers so the disabled path stays one straight-line function, as it
/// was before instrumentation.
#[allow(clippy::too_many_arguments)]
#[inline]
fn apply_phases<E: Engine>(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    name: &str,
    args: &[Value],
    nested_level: usize,
    depth: usize,
    fuel: &mut u64,
    limits: &InvokeLimits,
    obs: bool,
) -> Result<Value, MromError> {
    // Phase 1: Lookup, through the generation-stamped dispatch cache.
    // The returned handle is an `Arc`-backed clone pinning the method for
    // the whole application, so the running body may mutate the object
    // (including replacing this very method) without invalidating the
    // ongoing application — the paper's "dynamic update ... without
    // interference with ongoing computations" — at the cost of a refcount
    // bump, not a deep copy.
    let method: Method = object
        .lookup_method_traced(name, obs)
        .map(|(m, _)| m)
        .ok_or_else(|| MromError::NoSuchMethod {
            object: object.id(),
            name: name.to_owned(),
        })?;

    // Phase 2: Match.
    let allowed = object.acl_allows(method.invoke_acl(), caller);
    if obs {
        mrom_obs::acl_decision(object.id(), name, caller, allowed);
    }
    if !allowed {
        return Err(MromError::AccessDenied {
            object: object.id(),
            item: name.to_owned(),
            operation: "invoke",
            caller,
        });
    }

    // Phase 3: Apply.
    // 3.1 Pre-procedure: falsy return prevents the body from running.
    if let Some(pre) = method.pre() {
        let verdict = run_body::<E>(
            pre,
            object,
            world,
            caller,
            args,
            nested_level,
            depth,
            fuel,
            limits,
        )?;
        let passed = verdict.truthy();
        if obs {
            mrom_obs::wrap_verdict(object.id(), name, mrom_obs::WrapStage::Pre, passed);
        }
        if !passed {
            return Err(MromError::PreConditionFailed {
                object: object.id(),
                method: name.to_owned(),
            });
        }
    }

    // 3.2 Body.
    let result = run_body::<E>(
        method.body(),
        object,
        world,
        caller,
        args,
        nested_level,
        depth,
        fuel,
        limits,
    )?;

    // 3.3 Post-procedure: sees [result, ...args]; falsy return raises.
    // The result is moved into the argument list and moved back out after
    // the procedure returns, instead of being cloned for it.
    if let Some(post) = method.post() {
        let mut post_args = Vec::with_capacity(args.len() + 1);
        post_args.push(result);
        post_args.extend_from_slice(args);
        let verdict = run_body::<E>(
            post,
            object,
            world,
            caller,
            &post_args,
            nested_level,
            depth,
            fuel,
            limits,
        )?;
        let passed = verdict.truthy();
        if obs {
            mrom_obs::wrap_verdict(object.id(), name, mrom_obs::WrapStage::Post, passed);
        }
        if !passed {
            return Err(MromError::PostConditionFailed {
                object: object.id(),
                method: name.to_owned(),
            });
        }
        return Ok(post_args.swap_remove(0));
    }
    Ok(result)
}

/// Executes one body (native, script, or meta) in the object's context.
#[allow(clippy::too_many_arguments)]
fn run_body<E: Engine>(
    body: &MethodBody,
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    caller: ObjectId,
    args: &[Value],
    level: usize,
    depth: usize,
    fuel: &mut u64,
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    match body {
        MethodBody::Native(f) => {
            let mut env = CallEnv {
                object,
                world,
                caller,
                level,
                depth,
                fuel,
                limits,
                dispatch: dispatch::<E>,
            };
            f(&mut env, args)
        }
        MethodBody::Script(program) => {
            let entry_budget = *fuel;
            if entry_budget == 0 {
                return Err(MromError::Script(ScriptError::FuelExhausted {
                    budget: limits.fuel,
                }));
            }
            let mut host = ScriptHost {
                object,
                world,
                invocation_caller: caller,
                level,
                depth,
                fuel,
                limits,
                rejection: None,
                engine: PhantomData,
            };
            let (outcome, used, host_calls) = E::run(program, &mut host, entry_budget, args);
            // Nested dispatches already deducted their share from the
            // ledger during the run; deduct the evaluator's own steps now.
            *host.fuel = host.fuel.saturating_sub(used);
            mrom_obs::script_run(used, host_calls);
            match (outcome, host.rejection) {
                (Err(ScriptError::Host(_)), Some(rejection)) => Err(rejection),
                (outcome, _) => outcome.map_err(MromError::from),
            }
        }
        MethodBody::Meta(op) => {
            perform_meta::<E>(object, world, caller, *op, args, level, depth, fuel, limits)
        }
    }
}

// ---------------------------------------------------------------------------
// Meta-operations
// ---------------------------------------------------------------------------

fn want_arity(op: MetaOp, args: &[Value]) -> Result<(), MromError> {
    let allowed = op.row().arities;
    if allowed.contains(&args.len()) {
        Ok(())
    } else {
        Err(MromError::BadDescriptor(format!(
            "{} expects {:?} arguments, got {}",
            op.method_name(),
            allowed,
            args.len()
        )))
    }
}

fn want_name(op: MetaOp, args: &[Value], i: usize) -> Result<&str, MromError> {
    args.get(i).and_then(Value::as_str).ok_or_else(|| {
        MromError::BadDescriptor(format!(
            "{} argument {i} must be an item name string",
            op.method_name()
        ))
    })
}

/// Executes one of the nine reflective meta-operations with `principal`'s
/// authority.
#[allow(clippy::too_many_arguments)]
fn perform_meta<E: Engine>(
    object: &mut MromObject,
    world: &mut dyn WorldHook,
    principal: ObjectId,
    op: MetaOp,
    args: &[Value],
    level: usize,
    depth: usize,
    fuel: &mut u64,
    limits: &InvokeLimits,
) -> Result<Value, MromError> {
    mrom_obs::meta_op(object.id(), op.method_name());
    want_arity(op, args)?;
    match op {
        MetaOp::GetDataItem => object.data_descriptor(principal, want_name(op, args, 0)?),
        MetaOp::SetDataItem => {
            let name = want_name(op, args, 0)?;
            object.set_data_item(principal, name, &args[1])?;
            Ok(Value::Null)
        }
        MetaOp::AddDataItem => {
            let name = want_name(op, args, 0)?;
            if args.len() == 2 {
                object.add_data(principal, name, args[1].clone())?;
            } else {
                let mut item = crate::item::DataItem::new(args[1].clone());
                item.apply_descriptor(&args[2])
                    .map_err(|e| MromError::BadDescriptor(e.to_string()))?;
                object.add_data_item(principal, name, item)?;
            }
            Ok(Value::Null)
        }
        MetaOp::DeleteDataItem => {
            object.delete_data(principal, want_name(op, args, 0)?)?;
            Ok(Value::Null)
        }
        MetaOp::GetMethod => object.method_descriptor(principal, want_name(op, args, 0)?),
        MetaOp::SetMethod => {
            let name = want_name(op, args, 0)?;
            object.set_method_with_policy(principal, name, &args[1], limits.admission)?;
            Ok(Value::Null)
        }
        MetaOp::AddMethod => {
            let name = want_name(op, args, 0)?;
            let method = method_from_arg(&args[1])?;
            object.add_method_with_policy(principal, name, method, limits.admission)?;
            Ok(Value::Null)
        }
        MetaOp::DeleteMethod => {
            object.delete_method(principal, want_name(op, args, 0)?)?;
            Ok(Value::Null)
        }
        MetaOp::Invoke => {
            let name = want_name(op, args, 0)?;
            // Borrow the argument list straight out of the meta-call frame
            // — rebuilding it per tower level was the dominant allocation
            // of a descent.
            let inner_args: &[Value] = match args.get(1) {
                None => &[],
                Some(Value::List(items)) => items,
                Some(other) => {
                    return Err(MromError::BadDescriptor(format!(
                        "invoke arguments must be a list, got {}",
                        other.kind()
                    )))
                }
            };
            dispatch::<E>(
                object,
                world,
                principal,
                name,
                inner_args,
                level,
                depth + 1,
                fuel,
                limits,
            )
        }
        MetaOp::GetStats => Ok(crate::stats::stats_value(object.id())),
        MetaOp::GetEffects => {
            let table = object.effects();
            match args.first() {
                None => Ok(crate::effects::effects_value(&table)),
                Some(Value::Str(name)) => match table.get(name) {
                    Some(sig) => Ok(sig.to_value()),
                    None => Err(MromError::NoSuchMethod {
                        object: object.id(),
                        name: name.clone(),
                    }),
                },
                Some(other) => Err(MromError::BadDescriptor(format!(
                    "getEffects expects a method-name string, got {:?}",
                    other.kind()
                ))),
            }
        }
        MetaOp::GetTelemetry => Ok(crate::stats::telemetry_value(object.id())),
    }
}

/// Interprets the second argument of `addMethod`: a full method descriptor
/// (map with a `body` key) or a bare body (source text / program tree /
/// meta tag).
fn method_from_arg(v: &Value) -> Result<Method, MromError> {
    if let Some(m) = v.as_map() {
        if m.contains_key("body") {
            return Method::from_descriptor(v);
        }
    }
    Ok(Method::new(MethodBody::from_value(v)?))
}

// ---------------------------------------------------------------------------
// Script bridge
// ---------------------------------------------------------------------------

/// Bridges `self.*` host calls from a running script body into the object
/// model. All calls execute with the authority of the object itself;
/// nested invocations stay on engine `E`.
struct ScriptHost<'a, E> {
    object: &'a mut MromObject,
    world: &'a mut dyn WorldHook,
    invocation_caller: ObjectId,
    level: usize,
    depth: usize,
    fuel: &'a mut u64,
    limits: &'a InvokeLimits,
    /// An admission refusal that aborted the run: the runtime's verdict,
    /// so it leaves the body structured, not as a host-error string.
    rejection: Option<MromError>,
    engine: PhantomData<E>,
}

impl<E: Engine> ScriptHost<'_, E> {
    fn meta(&mut self, op: MetaOp, args: &[Value]) -> Result<Value, MromError> {
        let self_id = self.object.id();
        perform_meta::<E>(
            self.object,
            self.world,
            self_id,
            op,
            args,
            self.level,
            self.depth,
            self.fuel,
            self.limits,
        )
    }
}

impl<E: Engine> HostContext for ScriptHost<'_, E> {
    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        let self_id = self.object.id();
        let usage = |row: &HostRow| MromError::BadDescriptor(row.usage());
        let result: Result<Value, MromError> = match host_op(name) {
            // Everything outside the call surface goes to the world.
            None => self.world.world_call(self_id, name, args),
            // The meta-methods check their own argument counts: they are
            // also invoked directly, by name.
            Some(HostRow {
                op: HostOp::Meta(op),
                ..
            }) => self.meta(*op, args),
            Some(row) if !row.accepts(args.len()) => Err(usage(row)),
            Some(row) => match (row.op, args) {
                // Ordinary value access.
                (HostOp::Get, [Value::Str(item)]) => self.object.read_data(self_id, item),
                (HostOp::Set, [Value::Str(item), v]) => self
                    .object
                    .write_data(self_id, item, v.clone())
                    .map(|()| Value::Null),
                // Tower manipulation.
                (HostOp::InstallMetaInvoke, [Value::Str(m)]) => self
                    .object
                    .install_meta_invoke(self_id, m)
                    .map(|()| Value::Null),
                (HostOp::UninstallMetaInvoke, _) => self
                    .object
                    .uninstall_meta_invoke(self_id)
                    .map(|popped| popped.map_or(Value::Null, Value::from)),
                // Self-representation.
                (HostOp::Id, _) => Ok(Value::ObjectRef(self_id)),
                (HostOp::Origin, _) => Ok(Value::ObjectRef(self.object.origin())),
                (HostOp::Class, _) => Ok(Value::from(self.object.class_name())),
                (HostOp::Caller, _) => Ok(Value::ObjectRef(self.invocation_caller)),
                (HostOp::Describe, _) => Ok(self.object.describe(self_id)),
                (HostOp::HasData, [Value::Str(item)]) => {
                    Ok(Value::Bool(self.object.has_data(self_id, item)))
                }
                (HostOp::HasMethod, [Value::Str(m)]) => {
                    Ok(Value::Bool(self.object.has_method(self_id, m)))
                }
                (HostOp::ListData, _) => Ok(names(self.object.list_data(self_id))),
                (HostOp::ListMethods, _) => Ok(names(self.object.list_methods(self_id))),
                // A name argument that is not a string.
                _ => Err(usage(row)),
            },
        };
        if let Err(e @ MromError::AdmissionRejected { .. }) = result {
            let lossy = ScriptError::Host(e.to_string());
            self.rejection = Some(e);
            return Err(lossy);
        }
        result.map_err(ScriptError::from)
    }
}

/// The item names of a `list_data`/`list_methods` listing.
fn names(items: Vec<(String, Section)>) -> Value {
    Value::List(items.into_iter().map(|(n, _)| Value::Str(n)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::DataItem;
    use crate::security::Acl;
    use mrom_value::{IdGenerator, NodeId};

    fn ids() -> IdGenerator {
        IdGenerator::new(NodeId(7))
    }

    fn counter_object(gen: &mut IdGenerator) -> MromObject {
        crate::object::ObjectBuilder::new(gen.next_id())
            .class("counter")
            .fixed_data(
                "count",
                DataItem::public(Value::Int(0)).with_write_acl(Acl::Origin),
            )
            .fixed_method(
                "bump",
                Method::public(
                    MethodBody::script(
                        "let c = self.get(\"count\"); self.set(\"count\", c + 1); return c + 1;",
                    )
                    .unwrap(),
                ),
            )
            .fixed_method(
                "add",
                Method::public(MethodBody::script("param a; param b; return a + b;").unwrap()),
            )
            .build()
    }

    #[test]
    fn level0_invocation_runs_script_bodies() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let caller = gen.next_id();
        let mut world = NoWorld;
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(obj.read_data(caller, "count").unwrap(), Value::Int(2));
    }

    #[test]
    fn lookup_failure_and_acl_denial() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        let mut world = NoWorld;
        assert!(matches!(
            invoke(&mut obj, &mut world, stranger, "ghost", &[]),
            Err(MromError::NoSuchMethod { .. })
        ));
        obj.add_method(
            me,
            "private",
            Method::new(MethodBody::script("return 1;").unwrap()),
        )
        .unwrap();
        assert!(matches!(
            invoke(&mut obj, &mut world, stranger, "private", &[]),
            Err(MromError::AccessDenied { .. })
        ));
        assert_eq!(
            invoke(&mut obj, &mut world, me, "private", &[]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn native_bodies_get_a_call_env() {
        let mut gen = ids();
        let id = gen.next_id();
        let mut obj = crate::object::ObjectBuilder::new(id)
            .fixed_data("x", DataItem::public(Value::Int(5)))
            .fixed_method(
                "native_read",
                Method::public(MethodBody::native(|env, _args| {
                    let me = env.object_ref().id();
                    env.object().read_data(me, "x")
                })),
            )
            .build();
        let mut world = NoWorld;
        let caller = gen.next_id();
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "native_read", &[]).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn pre_procedure_vetoes_body() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        // Attach a pre that only admits positive first arguments.
        obj.add_method(
            me,
            "guarded",
            Method::public(MethodBody::script("param x; return x * 10;").unwrap())
                .with_pre(MethodBody::script("param x; return x > 0;").unwrap()),
        )
        .unwrap();
        assert_eq!(
            invoke(&mut obj, &mut world, me, "guarded", &[Value::Int(3)]).unwrap(),
            Value::Int(30)
        );
        assert!(matches!(
            invoke(&mut obj, &mut world, me, "guarded", &[Value::Int(-3)]),
            Err(MromError::PreConditionFailed { .. })
        ));
    }

    #[test]
    fn post_procedure_checks_result() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        // Post sees [result, ...args] and asserts result == a + b.
        obj.add_method(
            me,
            "checked_add",
            Method::public(MethodBody::script("param a; param b; return a + b;").unwrap())
                .with_post(
                    MethodBody::script("param r; param a; param b; return r == a + b;").unwrap(),
                ),
        )
        .unwrap();
        assert_eq!(
            invoke(
                &mut obj,
                &mut world,
                me,
                "checked_add",
                &[Value::Int(2), Value::Int(3)]
            )
            .unwrap(),
            Value::Int(5)
        );
        // A buggy body caught by its post-procedure.
        obj.add_method(
            me,
            "bad_add",
            Method::public(MethodBody::script("param a; param b; return a - b;").unwrap())
                .with_post(
                    MethodBody::script("param r; param a; param b; return r == a + b;").unwrap(),
                ),
        )
        .unwrap();
        assert!(matches!(
            invoke(
                &mut obj,
                &mut world,
                me,
                "bad_add",
                &[Value::Int(2), Value::Int(3)]
            ),
            Err(MromError::PostConditionFailed { .. })
        ));
    }

    #[test]
    fn meta_methods_are_invocable() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        let mut world = NoWorld;
        // Stranger can use introspective meta-methods...
        let desc = invoke(
            &mut obj,
            &mut world,
            stranger,
            "getMethod",
            &[Value::from("bump")],
        )
        .unwrap();
        assert_eq!(desc.as_map().unwrap()["section"], Value::from("fixed"));
        // ...but not mutating ones (their invoke ACL is origin-only).
        assert!(matches!(
            invoke(
                &mut obj,
                &mut world,
                stranger,
                "addDataItem",
                &[Value::from("x"), Value::Int(1)],
            ),
            Err(MromError::AccessDenied { .. })
        ));
        // The origin can.
        invoke(
            &mut obj,
            &mut world,
            me,
            "addDataItem",
            &[Value::from("x"), Value::Int(1)],
        )
        .unwrap();
        assert_eq!(obj.read_data(me, "x").unwrap(), Value::Int(1));
    }

    #[test]
    fn get_effects_meta_method_reports_signatures() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        // Zero arguments: the full method → signature table.
        let all = invoke(&mut obj, &mut world, me, "getEffects", &[]).unwrap();
        let map = all.as_map().unwrap();
        assert!(map.contains_key("bump") && map.contains_key("invoke"));
        // One argument: a single method's signature.
        let sig = invoke(
            &mut obj,
            &mut world,
            me,
            "getEffects",
            &[Value::from("bump")],
        )
        .unwrap();
        let sig = sig.as_map().unwrap();
        assert_eq!(sig["structural"], Value::Bool(false));
        assert_eq!(sig["idempotent"], Value::Bool(false), "read-modify-write");
        let add = invoke(
            &mut obj,
            &mut world,
            me,
            "getEffects",
            &[Value::from("add")],
        )
        .unwrap();
        assert_eq!(add.as_map().unwrap()["pure"], Value::Bool(true));
        // Scripts reach the same surface through self.get_effects(...).
        obj.add_method(
            me,
            "introspect",
            Method::public(MethodBody::script("return self.get_effects(\"add\");").unwrap()),
        )
        .unwrap();
        let via_script = invoke(&mut obj, &mut world, me, "introspect", &[]).unwrap();
        assert_eq!(via_script.as_map().unwrap()["pure"], Value::Bool(true));
        // Structural change invalidates the memo: new methods show up.
        obj.add_method(
            me,
            "fresh",
            Method::public(MethodBody::script("return 1;").unwrap()),
        )
        .unwrap();
        let all = invoke(&mut obj, &mut world, me, "getEffects", &[]).unwrap();
        assert!(all.as_map().unwrap().contains_key("fresh"));
        // Unknown names are an error, not a null.
        assert!(matches!(
            invoke(
                &mut obj,
                &mut world,
                me,
                "getEffects",
                &[Value::from("ghost")]
            ),
            Err(MromError::NoSuchMethod { .. })
        ));
    }

    #[test]
    fn invoke_meta_method_invokes() {
        // invoke("invoke", ["add", [1, 2]]) — the meta-method calling itself,
        // the paper's "invoke ... may or may not be invoked by a copy of
        // itself".
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let caller = gen.next_id();
        let mut world = NoWorld;
        let out = invoke(
            &mut obj,
            &mut world,
            caller,
            "invoke",
            &[
                Value::from("add"),
                Value::list([Value::Int(1), Value::Int(2)]),
            ],
        )
        .unwrap();
        assert_eq!(out, Value::Int(3));
        // Nested twice.
        let out = invoke(
            &mut obj,
            &mut world,
            caller,
            "invoke",
            &[
                Value::from("invoke"),
                Value::list([
                    Value::from("add"),
                    Value::list([Value::Int(2), Value::Int(3)]),
                ]),
            ],
        )
        .unwrap();
        assert_eq!(out, Value::Int(5));
    }

    #[test]
    fn scripts_can_mutate_their_own_structure() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        // A method that installs another method, then calls it.
        obj.add_method(
            me,
            "self_extend",
            Method::public(
                MethodBody::script(
                    r#"
                    self.add_method("made", {"body": "return 99;", "invoke_acl": "public"});
                    return self.invoke("made", []);
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let caller = gen.next_id();
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "self_extend", &[]).unwrap(),
            Value::Int(99)
        );
        assert!(obj.has_method(caller, "made"));
    }

    #[test]
    fn two_level_tower_matches_figure_1() {
        // Reproduces Figure 1: invoking Mfoo on Obar with a meta_invoke
        // installed routes through meta_invoke, which receives Mfoo as a
        // parameter and invokes it at level 0.
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_data(me, "trace", Value::list([])).unwrap();
        obj.set_data_item(
            me,
            "trace",
            &Value::map([("read_acl", Value::from("public"))]),
        )
        .unwrap();
        obj.add_method(
            me,
            "meta_invoke",
            Method::public(
                MethodBody::script(
                    r#"
                    param mname;
                    param margs;
                    let t = self.get("trace");
                    self.set("trace", push(t, "pre:" + mname));
                    let result = self.invoke(mname, margs);
                    t = self.get("trace");
                    self.set("trace", push(t, "post:" + mname));
                    return result;
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        obj.install_meta_invoke(me, "meta_invoke").unwrap();

        let caller = gen.next_id();
        let out = invoke(
            &mut obj,
            &mut world,
            caller,
            "add",
            &[Value::Int(20), Value::Int(22)],
        )
        .unwrap();
        assert_eq!(out, Value::Int(42));
        assert_eq!(
            obj.read_data(caller, "trace").unwrap(),
            Value::list([Value::from("pre:add"), Value::from("post:add")])
        );
    }

    #[test]
    fn tower_levels_stack_in_order() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_data(me, "trace", Value::list([])).unwrap();
        for (name, label) in [("mi1", "level1"), ("mi2", "level2")] {
            obj.add_method(
                me,
                name,
                Method::public(
                    MethodBody::script(&format!(
                        r#"
                        param mname;
                        param margs;
                        self.set("trace", push(self.get("trace"), "{label}"));
                        return self.invoke(mname, margs);
                        "#
                    ))
                    .unwrap(),
                ),
            )
            .unwrap();
            obj.install_meta_invoke(me, name).unwrap();
        }
        let out = invoke(
            &mut obj,
            &mut world,
            me,
            "add",
            &[Value::Int(1), Value::Int(1)],
        )
        .unwrap();
        assert_eq!(out, Value::Int(2));
        // Topmost level (level2, installed last) runs first.
        assert_eq!(
            obj.read_data(me, "trace").unwrap(),
            Value::list([Value::from("level2"), Value::from("level1")])
        );
    }

    #[test]
    fn meta_invoke_can_cut_off_the_target() {
        // The paper's database-maintenance behaviour: a meta-invoke that
        // answers without ever reaching the target method.
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "maintenance",
            Method::public(
                MethodBody::script("return \"database is down for maintenance\";").unwrap(),
            ),
        )
        .unwrap();
        obj.install_meta_invoke(me, "maintenance").unwrap();
        let caller = gen.next_id();
        let out = invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap();
        assert_eq!(out, Value::from("database is down for maintenance"));
        // Uninstall restores normal semantics.
        obj.uninstall_meta_invoke(me).unwrap();
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn tower_overflow_is_rejected() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "mi",
            Method::public(
                MethodBody::script("param m; param a; return self.invoke(m, a);").unwrap(),
            ),
        )
        .unwrap();
        for _ in 0..9 {
            obj.install_meta_invoke(me, "mi").unwrap();
        }
        assert!(matches!(
            invoke(
                &mut obj,
                &mut world,
                me,
                "add",
                &[Value::Int(1), Value::Int(1)]
            ),
            Err(MromError::TowerDepthExceeded(8))
        ));
    }

    #[test]
    fn runaway_self_invocation_hits_depth_limit() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "loop_forever",
            Method::public(
                MethodBody::script("return self.invoke(\"loop_forever\", []);").unwrap(),
            ),
        )
        .unwrap();
        let err = invoke(&mut obj, &mut world, me, "loop_forever", &[]).unwrap_err();
        assert!(
            matches!(err, MromError::CallDepthExceeded(_)) || matches!(err, MromError::Script(_)),
            "got {err}"
        );
    }

    #[test]
    fn hostile_infinite_loop_burns_out() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "spin",
            Method::public(MethodBody::script("while (true) { }").unwrap()),
        )
        .unwrap();
        let limits = InvokeLimits {
            fuel: 5_000,
            ..InvokeLimits::default()
        };
        let err = invoke_with_limits(&mut obj, &mut world, me, "spin", &[], &limits).unwrap_err();
        assert!(matches!(
            err,
            MromError::Script(ScriptError::FuelExhausted { .. })
        ));
    }

    #[test]
    fn caller_is_visible_to_bodies() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "who",
            Method::public(MethodBody::script("return self.caller();").unwrap()),
        )
        .unwrap();
        let caller = gen.next_id();
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "who", &[]).unwrap(),
            Value::ObjectRef(caller)
        );
    }

    #[test]
    fn script_self_representation_calls() {
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "introspect",
            Method::public(
                MethodBody::script(
                    r#"
                    return {
                        "class": self.class(),
                        "has_bump": self.has_method("bump"),
                        "has_ghost": self.has_method("ghost"),
                        "data": self.list_data()
                    };
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let out = invoke(&mut obj, &mut world, me, "introspect", &[]).unwrap();
        let m = out.as_map().unwrap();
        assert_eq!(m["class"], Value::from("counter"));
        assert_eq!(m["has_bump"], Value::Bool(true));
        assert_eq!(m["has_ghost"], Value::Bool(false));
        assert!(m["data"].as_list().unwrap().contains(&Value::from("count")));
    }

    #[test]
    fn world_calls_route_through_the_hook() {
        struct EchoWorld;
        impl WorldHook for EchoWorld {
            fn world_call(
                &mut self,
                caller: ObjectId,
                op: &str,
                args: &[Value],
            ) -> Result<Value, MromError> {
                Ok(Value::map([
                    ("op", Value::from(op)),
                    ("caller", Value::ObjectRef(caller)),
                    ("args", Value::List(args.to_vec())),
                ]))
            }
        }
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = EchoWorld;
        obj.add_method(
            me,
            "reach_out",
            Method::public(MethodBody::script("return self.ping(1, 2);").unwrap()),
        )
        .unwrap();
        let out = invoke(&mut obj, &mut world, me, "reach_out", &[]).unwrap();
        let m = out.as_map().unwrap();
        assert_eq!(m["op"], Value::from("ping"));
        assert_eq!(m["caller"], Value::ObjectRef(me));
    }

    #[test]
    fn replaced_method_mid_flight_does_not_disturb_running_body() {
        // A body replaces *itself* and still completes under its old
        // definition (handles are cloned at lookup).
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "replace_self",
            Method::public(
                MethodBody::script(
                    r#"
                    self.set_method("replace_self", {"body": "return \"new\";"});
                    return "old";
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        assert_eq!(
            invoke(&mut obj, &mut world, me, "replace_self", &[]).unwrap(),
            Value::from("old")
        );
        assert_eq!(
            invoke(&mut obj, &mut world, me, "replace_self", &[]).unwrap(),
            Value::from("new")
        );
    }

    #[test]
    fn tower_shrink_during_invoke_clamps_to_current_height() {
        // A tower level that uninstalls *itself* mid-flight: the nested
        // invoke was issued for one level further down, but the tower has
        // shrunk under it — dispatch clamps to the current height instead
        // of erroring, and the target still runs exactly once.
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "self_removing",
            Method::public(
                MethodBody::script(
                    r#"
                    param m;
                    param a;
                    self.uninstall_meta_invoke();
                    return self.invoke(m, a);
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        obj.install_meta_invoke(me, "self_removing").unwrap();
        let caller = gen.next_id();
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap(),
            Value::Int(1)
        );
        assert!(obj.tower().is_empty());
        // The level is gone: subsequent invocations run bare.
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn deleting_a_tower_level_mid_flight_is_not_served_stale() {
        // Same clamp, driven through deleteMethod: the level removes its
        // own method (and thereby its tower entry) before delegating.
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_method(
            me,
            "one_shot",
            Method::public(
                MethodBody::script(
                    r#"
                    param m;
                    param a;
                    self.delete_method("one_shot");
                    return self.invoke(m, a);
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        obj.install_meta_invoke(me, "one_shot").unwrap();
        assert_eq!(
            invoke(&mut obj, &mut world, me, "bump", &[]).unwrap(),
            Value::Int(1)
        );
        assert!(obj.tower().is_empty());
        assert!(obj.find_method("one_shot").is_none());
        assert_eq!(
            invoke(&mut obj, &mut world, me, "bump", &[]).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn charging_pre_procedure_on_meta_invoke() {
        // The paper's "code renting": a level-1 invoke whose pre-procedure
        // charges for every method invocation on the object.
        let mut gen = ids();
        let mut obj = counter_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        obj.add_data(me, "credits", Value::Int(2)).unwrap();
        obj.add_method(
            me,
            "meta_invoke",
            Method::public(
                MethodBody::script("param m; param a; return self.invoke(m, a);").unwrap(),
            )
            .with_pre(
                MethodBody::script(
                    r#"
                    let c = self.get("credits");
                    if (c <= 0) { return false; }
                    self.set("credits", c - 1);
                    return true;
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        obj.install_meta_invoke(me, "meta_invoke").unwrap();
        let caller = gen.next_id();
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "bump", &[]).unwrap(),
            Value::Int(2)
        );
        // Credits exhausted: the pre-procedure now vetoes every invocation.
        assert!(matches!(
            invoke(&mut obj, &mut world, caller, "bump", &[]),
            Err(MromError::PreConditionFailed { .. })
        ));
    }
}
