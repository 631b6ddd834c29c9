//! Security coupled with encapsulation.
//!
//! The paper's position: "controlled access to each data-item or method
//! should serve both for visibility purposes — as with ordinary
//! object-oriented programming languages — as well as for ensuring
//! legitimacy of getting and setting data-items and of invoking methods".
//! Because the universe of callers spans trust domains, access is granted
//! at the granularity of *single objects* (ACLs of object identities), not
//! inheritance-relative categories like `protected`.
//!
//! Every data item carries a read and a write [`Acl`]; every method carries
//! an invoke ACL and a *meta* ACL (who may change the method via
//! `setMethod`/`deleteMethod`). All checks happen at one point — method
//! invocation (and the get/set entry points), matching the paper's "apply
//! security checks on one action only — method invocation".

use std::collections::BTreeSet;

use mrom_value::wire::{self, MapValue, Sink};
use mrom_value::ObjectId;
use mrom_value::{Value, ValueError, ValueKind};

/// An access-control policy attached to a single item or method.
///
/// # Example
///
/// ```
/// use mrom_core::Acl;
/// use mrom_value::{NodeId, ObjectId};
///
/// let origin = ObjectId::from_parts(NodeId(1), 1, 1);
/// let friend = ObjectId::from_parts(NodeId(2), 1, 1);
/// let stranger = ObjectId::from_parts(NodeId(3), 1, 1);
///
/// let acl = Acl::only([friend]);
/// assert!(acl.permits(friend, origin));
/// assert!(!acl.permits(stranger, origin));
/// // The origin is always permitted: an object owns itself.
/// assert!(acl.permits(origin, origin));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acl {
    /// Anyone may perform the operation (public visibility).
    Public,
    /// Only the object itself / its origin (private visibility).
    Origin,
    /// The origin plus an explicit set of object identities.
    Only(BTreeSet<ObjectId>),
    /// No one, not even the origin. Used to freeze an operation for good
    /// (e.g. sealing meta-mutation before deployment into hostile hosts).
    Nobody,
}

impl Acl {
    /// Builds an [`Acl::Only`] from any iterable of identities.
    pub fn only<I: IntoIterator<Item = ObjectId>>(ids: I) -> Acl {
        Acl::Only(ids.into_iter().collect())
    }

    /// Is `caller` allowed, given that `origin` owns the guarded item?
    ///
    /// The origin is implicitly allowed by every policy except
    /// [`Acl::Nobody`] — an object can always reach its own items, which is
    /// what makes self-contained reflection possible.
    ///
    /// Inlined so the dominant `Public`/`Origin` policies decide in a
    /// branch or two on the invocation fast path, with no set probe.
    #[inline]
    pub fn permits(&self, caller: ObjectId, origin: ObjectId) -> bool {
        match self {
            Acl::Public => true,
            Acl::Origin => caller == origin,
            Acl::Only(ids) => caller == origin || ids.contains(&caller),
            Acl::Nobody => false,
        }
    }

    /// Adds a principal to an [`Acl::Only`] list; upgrades `Origin` to a
    /// singleton list. `Public` and `Nobody` are unchanged (they already
    /// dominate).
    pub fn grant(&mut self, id: ObjectId) {
        match self {
            Acl::Only(ids) => {
                ids.insert(id);
            }
            Acl::Origin => {
                *self = Acl::only([id]);
            }
            Acl::Public | Acl::Nobody => {}
        }
    }

    /// Removes a principal from an [`Acl::Only`] list (no-op otherwise).
    pub fn revoke(&mut self, id: ObjectId) {
        if let Acl::Only(ids) = self {
            ids.remove(&id);
            if ids.is_empty() {
                *self = Acl::Origin;
            }
        }
    }

    /// Serializes to a [`Value`] for descriptors and migration images:
    /// `"public"`, `"origin"`, `"nobody"`, or a list of id strings.
    pub fn to_value(&self) -> Value {
        match self {
            Acl::Public => Value::from("public"),
            Acl::Origin => Value::from("origin"),
            Acl::Nobody => Value::from("nobody"),
            Acl::Only(ids) => {
                Value::List(ids.iter().map(|id| Value::Str(id.to_string())).collect())
            }
        }
    }

    /// Rebuilds an ACL from [`Acl::to_value`] output (also accepted from
    /// descriptors handed to `setDataItem`/`setMethod`).
    ///
    /// # Errors
    ///
    /// [`ValueError::Malformed`] for unknown policy names or bad id lists.
    pub fn from_value(v: &Value) -> Result<Acl, ValueError> {
        match v {
            Value::Str(s) => Acl::from_policy(s),
            Value::List(items) => {
                let mut ids = BTreeSet::new();
                for item in items {
                    match item {
                        Value::Str(s) => {
                            ids.insert(s.parse()?);
                        }
                        Value::ObjectRef(id) => {
                            ids.insert(*id);
                        }
                        other => {
                            return Err(ValueError::Malformed(format!(
                                "acl entries must be id strings or object refs, got {}",
                                other.kind()
                            )))
                        }
                    }
                }
                Ok(Acl::Only(ids))
            }
            other => Err(ValueError::Malformed(format!(
                "acl must be a policy string or id list, got {}",
                other.kind()
            ))),
        }
    }
}

impl Acl {
    fn from_policy(name: &str) -> Result<Acl, ValueError> {
        match name {
            "public" => Ok(Acl::Public),
            "origin" => Ok(Acl::Origin),
            "nobody" => Ok(Acl::Nobody),
            other => Err(ValueError::Malformed(format!(
                "unknown acl policy {other:?}"
            ))),
        }
    }

    /// Appends the wire body of [`Acl::to_value`] without building it.
    pub(crate) fn write_value<S: Sink>(&self, out: &mut S) {
        match self {
            Acl::Public => wire::write_str_value("public", out),
            Acl::Origin => wire::write_str_value("origin", out),
            Acl::Nobody => wire::write_str_value("nobody", out),
            Acl::Only(ids) => {
                wire::write_list_header(ids.len(), out);
                for &id in ids {
                    wire::write_id_str_value(id, out);
                }
            }
        }
    }

    /// Reads an ACL straight from the wire. The outer error is the wire's;
    /// the inner result is what [`Acl::from_value`] makes of the value.
    pub(crate) fn read(v: MapValue<'_, '_>) -> Result<Result<Acl, ValueError>, ValueError> {
        Ok(match v.kind() {
            Some(ValueKind::Str) => Acl::from_policy(v.str()?.expect("a str tag reads as a str")),
            _ => Acl::from_value(&v.value()?),
        })
    }
}

impl Default for Acl {
    /// The default policy is [`Acl::Origin`]: encapsulated-private, the safe
    /// default for mobile code landing in untrusted territory.
    fn default() -> Self {
        Acl::Origin
    }
}

/// An optional *dynamic type* constraint on a data item: writes must be of
/// (or coercible to) this kind.
///
/// MROM is weakly typed, so constraints are opt-in per item and enforced at
/// write time, not declared in any static signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TypeConstraint {
    /// No constraint: any value may be written.
    #[default]
    Any,
    /// The written value must already be of this kind.
    Exact(ValueKind),
    /// The written value is coerced to this kind; un-coercible writes fail.
    Coerce(ValueKind),
}

impl TypeConstraint {
    /// Applies the constraint to a candidate value.
    ///
    /// # Errors
    ///
    /// [`ValueError`] when an exact constraint mismatches or a coercion
    /// fails; the caller maps this to `MromError::TypeConstraint`.
    pub fn apply(&self, v: Value) -> Result<Value, ValueError> {
        match self {
            TypeConstraint::Any => Ok(v),
            TypeConstraint::Exact(kind) => {
                if v.kind() == *kind {
                    Ok(v)
                } else {
                    Err(ValueError::CoercionFailed {
                        from: v.kind(),
                        to: *kind,
                        detail: "exact type constraint".into(),
                    })
                }
            }
            TypeConstraint::Coerce(kind) => v.coerce(*kind),
        }
    }

    /// Serializes for descriptors: `"any"`, `"exact:int"`, `"coerce:str"`.
    pub fn to_value(&self) -> Value {
        match self {
            TypeConstraint::Any => Value::from("any"),
            TypeConstraint::Exact(k) => Value::Str(format!("exact:{}", k.name())),
            TypeConstraint::Coerce(k) => Value::Str(format!("coerce:{}", k.name())),
        }
    }

    /// Rebuilds from [`TypeConstraint::to_value`] output.
    ///
    /// # Errors
    ///
    /// [`ValueError::Malformed`] on unknown forms.
    pub fn from_value(v: &Value) -> Result<TypeConstraint, ValueError> {
        let s = v.as_str().ok_or_else(|| {
            ValueError::Malformed(format!(
                "type constraint must be a string, got {}",
                v.kind()
            ))
        })?;
        TypeConstraint::from_form(s)
    }

    /// Appends the wire body of [`TypeConstraint::to_value`] without
    /// building it (or its string).
    pub(crate) fn write_value<S: Sink>(&self, out: &mut S) {
        let (mode, kind) = match self {
            TypeConstraint::Any => return wire::write_str_value("any", out),
            TypeConstraint::Exact(k) => ("exact:", k.name()),
            TypeConstraint::Coerce(k) => ("coerce:", k.name()),
        };
        wire::write_str_parts_value(&[mode, kind], out);
    }

    /// Reads a constraint straight from the wire. The outer error is the
    /// wire's; the inner result is what [`TypeConstraint::from_value`]
    /// makes of the value.
    pub(crate) fn read(
        v: MapValue<'_, '_>,
    ) -> Result<Result<TypeConstraint, ValueError>, ValueError> {
        Ok(match v.kind() {
            Some(ValueKind::Str) => {
                TypeConstraint::from_form(v.str()?.expect("a str tag reads as a str"))
            }
            _ => TypeConstraint::from_value(&v.value()?),
        })
    }

    fn from_form(s: &str) -> Result<TypeConstraint, ValueError> {
        if s == "any" {
            return Ok(TypeConstraint::Any);
        }
        let (mode, kind_name) = s
            .split_once(':')
            .ok_or_else(|| ValueError::Malformed(format!("bad type constraint {s:?}")))?;
        let kind = ValueKind::from_name(kind_name)
            .ok_or_else(|| ValueError::Malformed(format!("unknown kind {kind_name:?}")))?;
        match mode {
            "exact" => Ok(TypeConstraint::Exact(kind)),
            "coerce" => Ok(TypeConstraint::Coerce(kind)),
            other => Err(ValueError::Malformed(format!(
                "unknown constraint mode {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_value::NodeId;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_parts(NodeId(n), 1, 1)
    }

    #[test]
    fn policy_semantics() {
        let origin = id(1);
        let friend = id(2);
        let stranger = id(3);
        assert!(Acl::Public.permits(stranger, origin));
        assert!(Acl::Origin.permits(origin, origin));
        assert!(!Acl::Origin.permits(friend, origin));
        assert!(Acl::only([friend]).permits(friend, origin));
        assert!(!Acl::only([friend]).permits(stranger, origin));
        assert!(!Acl::Nobody.permits(origin, origin));
    }

    #[test]
    fn grant_and_revoke() {
        let mut acl = Acl::Origin;
        acl.grant(id(2));
        assert!(acl.permits(id(2), id(1)));
        acl.grant(id(3));
        acl.revoke(id(2));
        assert!(!acl.permits(id(2), id(1)));
        assert!(acl.permits(id(3), id(1)));
        // Revoking the last grantee degrades to Origin.
        acl.revoke(id(3));
        assert_eq!(acl, Acl::Origin);
        // Public stays public.
        let mut acl = Acl::Public;
        acl.grant(id(2));
        acl.revoke(id(2));
        assert_eq!(acl, Acl::Public);
    }

    #[test]
    fn acl_value_round_trip() {
        for acl in [
            Acl::Public,
            Acl::Origin,
            Acl::Nobody,
            Acl::only([id(1), id(2)]),
            Acl::only([]),
        ] {
            assert_eq!(Acl::from_value(&acl.to_value()).unwrap(), acl);
        }
    }

    #[test]
    fn acl_from_value_accepts_object_refs() {
        let v = Value::list([Value::ObjectRef(id(5))]);
        assert_eq!(Acl::from_value(&v).unwrap(), Acl::only([id(5)]));
    }

    #[test]
    fn acl_from_value_rejects_garbage() {
        assert!(Acl::from_value(&Value::from("friends")).is_err());
        assert!(Acl::from_value(&Value::Int(1)).is_err());
        assert!(Acl::from_value(&Value::list([Value::Int(1)])).is_err());
        assert!(Acl::from_value(&Value::list([Value::from("not an id")])).is_err());
    }

    #[test]
    fn default_is_origin_private() {
        assert_eq!(Acl::default(), Acl::Origin);
    }

    #[test]
    fn type_constraints() {
        assert_eq!(
            TypeConstraint::Any.apply(Value::from("x")).unwrap(),
            Value::from("x")
        );
        assert_eq!(
            TypeConstraint::Exact(ValueKind::Int)
                .apply(Value::Int(3))
                .unwrap(),
            Value::Int(3)
        );
        assert!(TypeConstraint::Exact(ValueKind::Int)
            .apply(Value::from("3"))
            .is_err());
        assert_eq!(
            TypeConstraint::Coerce(ValueKind::Int)
                .apply(Value::from("<b>3</b>"))
                .unwrap(),
            Value::Int(3)
        );
        assert!(TypeConstraint::Coerce(ValueKind::Int)
            .apply(Value::from("abc"))
            .is_err());
    }

    #[test]
    fn type_constraint_value_round_trip() {
        for tc in [
            TypeConstraint::Any,
            TypeConstraint::Exact(ValueKind::Float),
            TypeConstraint::Coerce(ValueKind::Str),
        ] {
            assert_eq!(TypeConstraint::from_value(&tc.to_value()).unwrap(), tc);
        }
        assert!(TypeConstraint::from_value(&Value::from("weird")).is_err());
        assert!(TypeConstraint::from_value(&Value::from("exact:thing")).is_err());
        assert!(TypeConstraint::from_value(&Value::Int(1)).is_err());
    }
}
