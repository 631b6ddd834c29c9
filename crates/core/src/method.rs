//! Methods: bodies, pre-/post-procedures (wrapping), meta-operations, and
//! per-method security.

use std::fmt;
use std::sync::Arc;

use mrom_script::Program;
use mrom_value::{Value, ValueError};

use crate::error::MromError;
use crate::invoke::CallEnv;
use crate::security::Acl;

/// Signature of a native (host-resident) method body.
///
/// Native bodies run at full Rust speed and may reach node services through
/// the [`CallEnv`], but they cannot migrate: an object carrying one is not
/// self-contained with respect to mobility and [`crate::MromObject::migration_image`]
/// refuses to serialize it.
pub type NativeFn = dyn Fn(&mut CallEnv<'_>, &[Value]) -> Result<Value, MromError> + Send + Sync;

/// The reflective meta-operations, described beside the script call
/// surface they are part of.
pub use mrom_script::surface::MetaOp;

/// A method (or procedure) body.
#[derive(Clone)]
pub enum MethodBody {
    /// Host-resident Rust closure. Fast; not mobile.
    Native(Arc<NativeFn>),
    /// Mobile script program. Serializable; travels in migration images.
    Script(Arc<Program>),
    /// A built-in reflective meta-operation, executed by the engine.
    /// Serializable (it is pure behaviour every node already has).
    Meta(MetaOp),
}

impl MethodBody {
    /// Wraps a Rust closure as a native body.
    pub fn native<F>(f: F) -> MethodBody
    where
        F: Fn(&mut CallEnv<'_>, &[Value]) -> Result<Value, MromError> + Send + Sync + 'static,
    {
        MethodBody::Native(Arc::new(f))
    }

    /// Parses source text into a script body.
    ///
    /// The [`Program`]'s register-bytecode form is compiled lazily and
    /// cached on the program itself (admission forces it), so the body
    /// compiles at most once. `setMethod`/`addMethod` install a fresh
    /// `Program`, which carries a fresh cache — bytecode invalidation is
    /// by wholesale replacement, never in place.
    ///
    /// # Errors
    ///
    /// Propagates script parse errors.
    pub fn script(source: &str) -> Result<MethodBody, MromError> {
        Ok(MethodBody::Script(Arc::new(Program::parse(source)?)))
    }

    /// `true` if the body can be serialized into a migration image.
    pub fn is_mobile(&self) -> bool {
        !matches!(self, MethodBody::Native(_))
    }

    /// Serializes the body to a [`Value`] (`null` for native — callers must
    /// check [`MethodBody::is_mobile`] first and refuse migration).
    pub fn to_value(&self) -> Value {
        match self {
            MethodBody::Native(_) => Value::Null,
            MethodBody::Script(p) => Value::map([("script", p.to_value())]),
            MethodBody::Meta(op) => Value::map([("meta", Value::from(op.method_name()))]),
        }
    }

    /// Rebuilds a body from [`MethodBody::to_value`] output or from a raw
    /// program tree / source string (accepted for `addMethod` convenience).
    ///
    /// # Errors
    ///
    /// [`ValueError::Malformed`] for unrecognized shapes; script errors for
    /// bad program trees.
    pub fn from_value(v: &Value) -> Result<MethodBody, MromError> {
        match v {
            Value::Str(source) => MethodBody::script(source),
            Value::Map(m) => {
                if let Some(p) = m.get("script") {
                    Ok(MethodBody::Script(Arc::new(Program::from_value(p)?)))
                } else if let Some(name) = m.get("meta").and_then(Value::as_str) {
                    MetaOp::from_method_name(name)
                        .map(MethodBody::Meta)
                        .ok_or_else(|| {
                            MromError::BadDescriptor(format!("unknown meta op {name:?}"))
                        })
                } else if m.contains_key("params") && m.contains_key("body") {
                    // A bare program tree.
                    Ok(MethodBody::Script(Arc::new(Program::from_value(v)?)))
                } else {
                    Err(MromError::BadDescriptor(
                        "body map must contain `script`, `meta`, or a program tree".into(),
                    ))
                }
            }
            other => Err(MromError::BadDescriptor(format!(
                "method body must be source text or a body map, got {}",
                other.kind()
            ))),
        }
    }
}

impl fmt::Debug for MethodBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodBody::Native(_) => f.write_str("MethodBody::Native(..)"),
            MethodBody::Script(p) => write!(f, "MethodBody::Script({} nodes)", p.node_count()),
            MethodBody::Meta(op) => write!(f, "MethodBody::Meta({op:?})"),
        }
    }
}

/// Structural equality: scripts and meta ops compare by content; native
/// bodies compare by pointer identity (two distinct closures are distinct
/// behaviours).
impl PartialEq for MethodBody {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MethodBody::Native(a), MethodBody::Native(b)) => Arc::ptr_eq(a, b),
            (MethodBody::Script(a), MethodBody::Script(b)) => a == b,
            (MethodBody::Meta(a), MethodBody::Meta(b)) => a == b,
            _ => false,
        }
    }
}

/// The owned state behind a [`Method`] handle.
#[derive(Debug, Clone, PartialEq)]
struct MethodInner {
    body: MethodBody,
    pre: Option<MethodBody>,
    post: Option<MethodBody>,
    invoke_acl: Acl,
    meta_acl: Acl,
}

/// A method of an MROM object: body, optional pre-/post-procedures
/// (*wrapping*), an invoke ACL, and a meta ACL guarding structural changes
/// to the method itself.
///
/// `Method` is a cheap shared handle (`Arc` internally): cloning one — as
/// the level-0 invocation path does when it pins the looked-up method
/// before running it, so a body may replace its own method mid-flight —
/// costs a refcount bump, not a deep copy of the body and procedures.
/// Mutation (`setMethod` via [`Method::apply_descriptor`], the builder
/// methods) goes through copy-on-write and never disturbs other handles.
#[derive(Debug, Clone, PartialEq)]
pub struct Method(Arc<MethodInner>);

impl Method {
    /// Creates a method with the given body, no wrapping, and default
    /// (origin-private) ACLs.
    pub fn new(body: MethodBody) -> Method {
        Method(Arc::new(MethodInner {
            body,
            pre: None,
            post: None,
            invoke_acl: Acl::default(),
            meta_acl: Acl::default(),
        }))
    }

    /// Creates a publicly invocable method (meta ACL stays origin-private).
    pub fn public(body: MethodBody) -> Method {
        Method::new(body).with_invoke_acl(Acl::Public)
    }

    /// Sets the invoke ACL (builder style).
    pub fn with_invoke_acl(mut self, acl: Acl) -> Method {
        Arc::make_mut(&mut self.0).invoke_acl = acl;
        self
    }

    /// Sets the meta ACL (builder style).
    pub fn with_meta_acl(mut self, acl: Acl) -> Method {
        Arc::make_mut(&mut self.0).meta_acl = acl;
        self
    }

    /// Attaches a pre-procedure (builder style). A pre-procedure returning
    /// a falsy value prevents the body from running.
    pub fn with_pre(mut self, pre: MethodBody) -> Method {
        Arc::make_mut(&mut self.0).pre = Some(pre);
        self
    }

    /// Attaches a post-procedure (builder style). A post-procedure
    /// returning a falsy value raises
    /// [`MromError::PostConditionFailed`].
    pub fn with_post(mut self, post: MethodBody) -> Method {
        Arc::make_mut(&mut self.0).post = Some(post);
        self
    }

    /// The body.
    pub fn body(&self) -> &MethodBody {
        &self.0.body
    }

    /// The pre-procedure, if attached.
    pub fn pre(&self) -> Option<&MethodBody> {
        self.0.pre.as_ref()
    }

    /// The post-procedure, if attached.
    pub fn post(&self) -> Option<&MethodBody> {
        self.0.post.as_ref()
    }

    /// The invoke ACL.
    pub fn invoke_acl(&self) -> &Acl {
        &self.0.invoke_acl
    }

    /// The meta ACL (who may `setMethod`/`deleteMethod` this method).
    pub fn meta_acl(&self) -> &Acl {
        &self.0.meta_acl
    }

    /// `true` when the body and both procedures are mobile.
    pub fn is_mobile(&self) -> bool {
        self.0.body.is_mobile()
            && self.0.pre.as_ref().is_none_or(MethodBody::is_mobile)
            && self.0.post.as_ref().is_none_or(MethodBody::is_mobile)
    }

    /// Produces the `getMethod` descriptor.
    pub fn descriptor(&self) -> Value {
        Value::map([
            ("body", self.0.body.to_value()),
            (
                "pre",
                self.0
                    .pre
                    .as_ref()
                    .map_or(Value::Null, MethodBody::to_value),
            ),
            (
                "post",
                self.0
                    .post
                    .as_ref()
                    .map_or(Value::Null, MethodBody::to_value),
            ),
            ("invoke_acl", self.0.invoke_acl.to_value()),
            ("meta_acl", self.0.meta_acl.to_value()),
            ("mobile", Value::Bool(self.is_mobile())),
        ])
    }

    /// Applies a partial descriptor (the `setMethod` meta-operation): only
    /// the present keys change. Passing `null` for `pre`/`post` detaches
    /// the procedure.
    ///
    /// # Errors
    ///
    /// [`MromError::BadDescriptor`] on unknown keys or malformed fields.
    pub fn apply_descriptor(&mut self, desc: &Value) -> Result<(), MromError> {
        let m = desc.as_map().ok_or_else(|| {
            MromError::BadDescriptor(format!("descriptor must be a map, got {}", desc.kind()))
        })?;
        for key in m.keys() {
            // `mobile`, `section`, and `redacted` are informational fields
            // produced by descriptors; accepted and ignored on write.
            if !matches!(
                key.as_str(),
                "body"
                    | "pre"
                    | "post"
                    | "invoke_acl"
                    | "meta_acl"
                    | "mobile"
                    | "section"
                    | "redacted"
            ) {
                return Err(MromError::BadDescriptor(format!(
                    "unknown descriptor key {key:?}"
                )));
            }
        }
        // Parse everything before touching `self` so a failing descriptor
        // leaves the method untouched, then copy-on-write once.
        let body = m.get("body").map(MethodBody::from_value).transpose()?;
        let pre = m
            .get("pre")
            .map(|v| {
                if v.is_null() {
                    Ok(None)
                } else {
                    MethodBody::from_value(v).map(Some)
                }
            })
            .transpose()?;
        let post = m
            .get("post")
            .map(|v| {
                if v.is_null() {
                    Ok(None)
                } else {
                    MethodBody::from_value(v).map(Some)
                }
            })
            .transpose()?;
        let invoke_acl = m
            .get("invoke_acl")
            .map(|v| Acl::from_value(v).map_err(bad_acl))
            .transpose()?;
        let meta_acl = m
            .get("meta_acl")
            .map(|v| Acl::from_value(v).map_err(bad_acl))
            .transpose()?;

        let inner = Arc::make_mut(&mut self.0);
        if let Some(body) = body {
            inner.body = body;
        }
        if let Some(pre) = pre {
            inner.pre = pre;
        }
        if let Some(post) = post {
            inner.post = post;
        }
        if let Some(acl) = invoke_acl {
            inner.invoke_acl = acl;
        }
        if let Some(acl) = meta_acl {
            inner.meta_acl = acl;
        }
        Ok(())
    }

    /// Rebuilds a method from a full descriptor (`addMethod` with
    /// properties, migration images).
    ///
    /// # Errors
    ///
    /// [`MromError::BadDescriptor`] when no body is present or fields are
    /// malformed.
    pub fn from_descriptor(desc: &Value) -> Result<Method, MromError> {
        let m = desc.as_map().ok_or_else(|| {
            MromError::BadDescriptor(format!("descriptor must be a map, got {}", desc.kind()))
        })?;
        if !m.contains_key("body") {
            return Err(MromError::BadDescriptor(
                "method descriptor requires a `body`".into(),
            ));
        }
        let mut method = Method::new(MethodBody::Meta(MetaOp::Invoke));
        method.apply_descriptor(desc)?;
        Ok(method)
    }
}

fn bad_acl(e: ValueError) -> MromError {
    MromError::BadDescriptor(format!("bad acl: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_mobility() {
        let native = MethodBody::native(|_, _| Ok(Value::Null));
        assert!(!native.is_mobile());
        let script = MethodBody::script("return 1;").unwrap();
        assert!(script.is_mobile());
        assert!(MethodBody::Meta(MetaOp::Invoke).is_mobile());
    }

    #[test]
    fn body_value_round_trip() {
        let script = MethodBody::script("param x; return x + 1;").unwrap();
        let back = MethodBody::from_value(&script.to_value()).unwrap();
        assert_eq!(back, script);
        let meta = MethodBody::Meta(MetaOp::AddMethod);
        assert_eq!(MethodBody::from_value(&meta.to_value()).unwrap(), meta);
    }

    #[test]
    fn body_from_source_string() {
        let b = MethodBody::from_value(&Value::from("return 2;")).unwrap();
        assert!(matches!(b, MethodBody::Script(_)));
        assert!(MethodBody::from_value(&Value::from("return (;")).is_err());
        assert!(MethodBody::from_value(&Value::Int(1)).is_err());
        assert!(MethodBody::from_value(&Value::map([("huh", Value::Null)])).is_err());
    }

    #[test]
    fn native_equality_is_identity() {
        let a = MethodBody::native(|_, _| Ok(Value::Null));
        let b = MethodBody::native(|_, _| Ok(Value::Null));
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn method_descriptor_round_trip() {
        let m = Method::public(MethodBody::script("return 1;").unwrap())
            .with_pre(MethodBody::script("return true;").unwrap())
            .with_post(MethodBody::script("return args[0] > 0;").unwrap())
            .with_meta_acl(Acl::Nobody);
        let back = Method::from_descriptor(&m.descriptor()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn method_is_mobile_only_if_all_parts_are() {
        let mobile = Method::new(MethodBody::script("return 1;").unwrap());
        assert!(mobile.is_mobile());
        let tainted = mobile
            .clone()
            .with_pre(MethodBody::native(|_, _| Ok(Value::Bool(true))));
        assert!(!tainted.is_mobile());
    }

    #[test]
    fn apply_descriptor_detaches_procedures_with_null() {
        let mut m = Method::new(MethodBody::script("return 1;").unwrap())
            .with_pre(MethodBody::script("return true;").unwrap());
        m.apply_descriptor(&Value::map([("pre", Value::Null)]))
            .unwrap();
        assert!(m.pre().is_none());
    }

    #[test]
    fn apply_descriptor_rejects_unknown_keys() {
        let mut m = Method::new(MethodBody::script("return 1;").unwrap());
        assert!(m
            .apply_descriptor(&Value::map([("woble", Value::Null)]))
            .is_err());
        assert!(m.apply_descriptor(&Value::Int(3)).is_err());
    }

    #[test]
    fn from_descriptor_requires_body() {
        assert!(
            Method::from_descriptor(&Value::map([("invoke_acl", Value::from("public"))])).is_err()
        );
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", MethodBody::native(|_, _| Ok(Value::Null))).is_empty());
        assert!(!format!("{:?}", Method::new(MethodBody::Meta(MetaOp::Invoke))).is_empty());
    }
}
