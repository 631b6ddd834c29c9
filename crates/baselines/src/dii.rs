//! The CORBA-style Dynamic Invocation Interface model.
//!
//! §2 of the paper: "DII allows dynamic lookup of a desired interface in an
//! interface repository, and getting all the required information from the
//! repository so that a request on an object that implements the interface
//! can be built. This feature, along with the ability to dynamically
//! change the repository, allows dynamic changes in the meaning of a
//! certain interface. Nevertheless ... the core object semantics, such as
//! the invocation mechanism, is not subject to any manipulations."
//!
//! The flow: look an operation signature up in the [`InterfaceRepository`],
//! build a type-checked [`Request`], then deliver it to a [`Servant`]. The
//! repository is mutable; the invocation path is not.

use std::collections::BTreeMap;
use std::sync::Arc;

use mrom_value::{Value, ValueKind};

use crate::error::BaselineError;

/// An operation signature stored in the repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationDef {
    /// Operation name.
    pub name: String,
    /// Declared parameter kinds.
    pub params: Vec<ValueKind>,
}

/// An interface: a named bag of operation signatures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterfaceDef {
    operations: BTreeMap<String, OperationDef>,
}

impl InterfaceDef {
    /// An empty interface.
    pub fn new() -> InterfaceDef {
        InterfaceDef::default()
    }

    /// Adds (or replaces) an operation signature.
    pub fn operation(mut self, name: &str, params: &[ValueKind]) -> InterfaceDef {
        self.operations.insert(
            name.to_owned(),
            OperationDef {
                name: name.to_owned(),
                params: params.to_vec(),
            },
        );
        self
    }

    /// Looks an operation up.
    pub fn lookup(&self, name: &str) -> Option<&OperationDef> {
        self.operations.get(name)
    }
}

/// The (mutable) interface repository — dynamic changes here are the one
/// form of evolution DII supports.
#[derive(Debug, Clone, Default)]
pub struct InterfaceRepository {
    interfaces: BTreeMap<String, InterfaceDef>,
}

impl InterfaceRepository {
    /// An empty repository.
    pub fn new() -> InterfaceRepository {
        InterfaceRepository::default()
    }

    /// Registers or replaces an interface (the repository *is* mutable).
    pub fn define(&mut self, name: &str, def: InterfaceDef) {
        self.interfaces.insert(name.to_owned(), def);
    }

    /// Dynamic lookup.
    ///
    /// # Errors
    ///
    /// [`BaselineError::NotFound`].
    pub fn lookup(&self, name: &str) -> Result<&InterfaceDef, BaselineError> {
        self.interfaces
            .get(name)
            .ok_or_else(|| BaselineError::NotFound(format!("interface {name:?}")))
    }
}

/// A dynamically built, signature-checked request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    interface: String,
    operation: String,
    args: Vec<Value>,
}

impl Request {
    /// Builds a request against the repository: lookup, then marshal with
    /// kind checking (generic coercion is attempted, mirroring CORBA's
    /// typed `Any` insertion).
    ///
    /// # Errors
    ///
    /// Lookup, arity, and argument-kind errors.
    pub fn build(
        repo: &InterfaceRepository,
        interface: &str,
        operation: &str,
        args: &[Value],
    ) -> Result<Request, BaselineError> {
        let iface = repo.lookup(interface)?;
        let op = iface
            .lookup(operation)
            .ok_or_else(|| BaselineError::NotFound(format!("operation {operation:?}")))?;
        if args.len() != op.params.len() {
            return Err(BaselineError::Arity {
                operation: operation.to_owned(),
                expected: op.params.len(),
                got: args.len(),
            });
        }
        let mut marshalled = Vec::with_capacity(args.len());
        for (i, (arg, kind)) in args.iter().zip(&op.params).enumerate() {
            let coerced = arg
                .coerce_ref(*kind)
                .map_err(|_| BaselineError::ArgumentKind {
                    operation: operation.to_owned(),
                    index: i,
                    expected: *kind,
                    got: arg.kind(),
                })?;
            marshalled.push(coerced);
        }
        Ok(Request {
            interface: interface.to_owned(),
            operation: operation.to_owned(),
            args: marshalled,
        })
    }

    /// The target interface name.
    pub fn interface(&self) -> &str {
        &self.interface
    }

    /// The operation name.
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// The marshalled arguments.
    pub fn args(&self) -> &[Value] {
        &self.args
    }
}

/// An operation implementation.
pub type ServantFn = dyn Fn(&[Value]) -> Result<Value, BaselineError> + Send + Sync;

/// A servant: implements the operations of one or more interfaces. The
/// implementation table is fixed at construction — the model's invocation
/// semantics cannot be manipulated.
#[derive(Clone)]
pub struct Servant {
    implemented: Vec<String>,
    bodies: BTreeMap<String, Arc<ServantFn>>,
}

impl std::fmt::Debug for Servant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Servant")
            .field("implemented", &self.implemented)
            .field("operations", &self.bodies.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Servant {
    /// Starts a servant builder.
    pub fn new() -> Servant {
        Servant {
            implemented: Vec::new(),
            bodies: BTreeMap::new(),
        }
    }

    /// Declares an implemented interface. CORBA "does not limit an
    /// interface to be implemented only by one object" — any number of
    /// servants may declare the same name.
    pub fn implements(mut self, interface: &str) -> Servant {
        self.implemented.push(interface.to_owned());
        self
    }

    /// Provides an operation body.
    pub fn operation<F>(mut self, name: &str, f: F) -> Servant
    where
        F: Fn(&[Value]) -> Result<Value, BaselineError> + Send + Sync + 'static,
    {
        self.bodies.insert(name.to_owned(), Arc::new(f));
        self
    }

    /// Does the servant claim this interface?
    pub fn implements_interface(&self, name: &str) -> bool {
        self.implemented.iter().any(|i| i == name)
    }

    /// Delivers a built request — the fixed invocation mechanism.
    ///
    /// # Errors
    ///
    /// [`BaselineError::NotFound`] when the servant does not implement the
    /// request's interface or operation; execution errors from the body.
    pub fn invoke(&self, request: &Request) -> Result<Value, BaselineError> {
        if !self.implements_interface(request.interface()) {
            return Err(BaselineError::NotFound(format!(
                "interface {:?} on this servant",
                request.interface()
            )));
        }
        let body = self.bodies.get(request.operation()).ok_or_else(|| {
            BaselineError::NotFound(format!("operation {:?}", request.operation()))
        })?;
        body(request.args())
    }
}

impl Default for Servant {
    fn default() -> Self {
        Servant::new()
    }
}

/// Builds the counter interface + servant pair shared by the benches.
pub fn counter_setup() -> (InterfaceRepository, Servant) {
    let mut repo = InterfaceRepository::new();
    repo.define(
        "Counter",
        InterfaceDef::new()
            .operation("add", &[ValueKind::Int, ValueKind::Int])
            .operation("bump", &[]),
    );
    let servant = Servant::new()
        .implements("Counter")
        .operation("add", |args| match (args[0].as_int(), args[1].as_int()) {
            (Some(a), Some(b)) => Ok(Value::Int(a.wrapping_add(b))),
            _ => Err(BaselineError::Execution("add requires ints".into())),
        })
        .operation("bump", |_| Ok(Value::Int(1)));
    (repo, servant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_dii_flow() {
        let (repo, servant) = counter_setup();
        let req = Request::build(&repo, "Counter", "add", &[Value::Int(2), Value::Int(3)]).unwrap();
        assert_eq!(servant.invoke(&req).unwrap(), Value::Int(5));
    }

    #[test]
    fn marshalling_coerces_weakly_typed_args() {
        let (repo, servant) = counter_setup();
        // String "2" coerces to Int per the signature.
        let req =
            Request::build(&repo, "Counter", "add", &[Value::from("2"), Value::Int(3)]).unwrap();
        assert_eq!(req.args()[0], Value::Int(2));
        assert_eq!(servant.invoke(&req).unwrap(), Value::Int(5));
        // Uncoercible arguments fail at build time.
        assert!(matches!(
            Request::build(&repo, "Counter", "add", &[Value::from("x"), Value::Int(3)]),
            Err(BaselineError::ArgumentKind { .. })
        ));
    }

    #[test]
    fn lookup_failures() {
        let (repo, _servant) = counter_setup();
        assert!(matches!(
            Request::build(&repo, "Ghost", "add", &[]),
            Err(BaselineError::NotFound(_))
        ));
        assert!(matches!(
            Request::build(&repo, "Counter", "ghost", &[]),
            Err(BaselineError::NotFound(_))
        ));
        assert!(matches!(
            Request::build(&repo, "Counter", "add", &[Value::Int(1)]),
            Err(BaselineError::Arity { .. })
        ));
    }

    #[test]
    fn repository_changes_change_interface_meaning() {
        let (mut repo, servant) = counter_setup();
        // Redefine Counter: `add` now takes three ints. Old-shape requests
        // stop building — the "meaning of the interface" changed without
        // touching the servant.
        repo.define(
            "Counter",
            InterfaceDef::new().operation("add", &[ValueKind::Int, ValueKind::Int, ValueKind::Int]),
        );
        assert!(matches!(
            Request::build(&repo, "Counter", "add", &[Value::Int(1), Value::Int(2)]),
            Err(BaselineError::Arity { .. })
        ));
        // But a pre-built request would still execute: the invocation
        // mechanism itself never changed.
        let (old_repo, _) = counter_setup();
        let req =
            Request::build(&old_repo, "Counter", "add", &[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(servant.invoke(&req).unwrap(), Value::Int(3));
    }

    #[test]
    fn multiple_servants_one_interface() {
        let (repo, servant_a) = counter_setup();
        let servant_b = Servant::new()
            .implements("Counter")
            .operation("add", |_| Ok(Value::Int(-1))); // different semantics
        let req = Request::build(&repo, "Counter", "add", &[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(servant_a.invoke(&req).unwrap(), Value::Int(3));
        assert_eq!(servant_b.invoke(&req).unwrap(), Value::Int(-1));
    }

    #[test]
    fn servant_without_interface_rejects() {
        let servant = Servant::new().operation("add", |_| Ok(Value::Null));
        let (repo, _) = counter_setup();
        let req = Request::build(&repo, "Counter", "add", &[Value::Int(1), Value::Int(2)]).unwrap();
        assert!(matches!(
            servant.invoke(&req),
            Err(BaselineError::NotFound(_))
        ));
    }
}
