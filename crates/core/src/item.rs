//! Data items: named, ACL-guarded, optionally type-constrained value slots.

use mrom_value::wire::{self, MapValue, Sink};
use mrom_value::{Value, ValueError, ValueKind};

use crate::security::{Acl, TypeConstraint};

/// A single data element of an MROM object.
///
/// The meta-methods `getDataItem`/`setDataItem` examine and manipulate the
/// *item* (its properties — ACLs, type constraint), while ordinary `get`
/// and `set` access its *value*. The distinction follows the paper: "These
/// operations are used to examine and manipulate the data elements of an
/// object, but not their values (which are accessed using ordinary get and
/// set)."
#[derive(Debug, Clone, PartialEq)]
pub struct DataItem {
    value: Value,
    read_acl: Acl,
    write_acl: Acl,
    constraint: TypeConstraint,
}

impl DataItem {
    /// Creates an item with default (origin-private) ACLs and no type
    /// constraint.
    pub fn new(value: Value) -> DataItem {
        DataItem {
            value,
            read_acl: Acl::default(),
            write_acl: Acl::default(),
            constraint: TypeConstraint::default(),
        }
    }

    /// Creates a publicly readable item (write stays origin-private) —
    /// the common shape for exported state.
    pub fn public(value: Value) -> DataItem {
        DataItem::new(value).with_read_acl(Acl::Public)
    }

    /// Sets the read ACL (builder style).
    pub fn with_read_acl(mut self, acl: Acl) -> DataItem {
        self.read_acl = acl;
        self
    }

    /// Sets the write ACL (builder style).
    pub fn with_write_acl(mut self, acl: Acl) -> DataItem {
        self.write_acl = acl;
        self
    }

    /// Sets the dynamic type constraint (builder style).
    ///
    /// # Errors
    ///
    /// [`ValueError`] if the current value itself violates the constraint.
    pub fn with_constraint(mut self, constraint: TypeConstraint) -> Result<DataItem, ValueError> {
        let v = std::mem::take(&mut self.value);
        self.value = constraint.apply(v)?;
        self.constraint = constraint;
        Ok(self)
    }

    /// The current value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// The read ACL.
    pub fn read_acl(&self) -> &Acl {
        &self.read_acl
    }

    /// The write ACL.
    pub fn write_acl(&self) -> &Acl {
        &self.write_acl
    }

    /// The dynamic type constraint.
    pub fn constraint(&self) -> TypeConstraint {
        self.constraint
    }

    /// Replaces the value, enforcing the type constraint.
    ///
    /// # Errors
    ///
    /// [`ValueError`] when the constraint rejects the value. ACL checks
    /// happen in the object layer before this is reached.
    pub fn write(&mut self, v: Value) -> Result<(), ValueError> {
        self.value = self.constraint.apply(v)?;
        Ok(())
    }

    /// Directly replaces the ACLs/constraint from a descriptor produced by
    /// [`DataItem::descriptor`] (the `setDataItem` meta-operation). Only
    /// the keys present are updated.
    ///
    /// # Errors
    ///
    /// [`ValueError`] on malformed descriptor fields or when a new
    /// constraint rejects the current value.
    pub fn apply_descriptor(&mut self, desc: &Value) -> Result<(), ValueError> {
        self.apply_descriptor_as(desc, false)
    }

    /// [`DataItem::apply_descriptor`]; a `fresh` item has no current value
    /// to keep, so a descriptor carrying both a constraint and a value
    /// applies the constraint to that value alone.
    fn apply_descriptor_as(&mut self, desc: &Value, fresh: bool) -> Result<(), ValueError> {
        let m = desc.as_map().ok_or_else(|| {
            ValueError::Malformed(format!("descriptor must be a map, got {}", desc.kind()))
        })?;
        for key in m.keys() {
            // `section` is informational (produced by getDataItem);
            // accepted and ignored on write.
            if !matches!(
                key.as_str(),
                "read_acl" | "write_acl" | "constraint" | "value" | "section"
            ) {
                return Err(ValueError::Malformed(format!(
                    "unknown descriptor key {key:?}"
                )));
            }
        }
        if let Some(v) = m.get("read_acl") {
            self.read_acl = Acl::from_value(v)?;
        }
        if let Some(v) = m.get("write_acl") {
            self.write_acl = Acl::from_value(v)?;
        }
        if let Some(v) = m.get("constraint") {
            let constraint = TypeConstraint::from_value(v)?;
            if !(fresh && m.contains_key("value")) {
                let current = std::mem::take(&mut self.value);
                self.value = constraint.apply(current)?;
            }
            self.constraint = constraint;
        }
        if let Some(v) = m.get("value") {
            self.value = self.constraint.apply(v.clone())?;
        }
        Ok(())
    }

    /// Produces the self-representation descriptor returned by the
    /// `getDataItem` meta-method.
    pub fn descriptor(&self) -> Value {
        Value::map([
            ("value", self.value.clone()),
            ("read_acl", self.read_acl.to_value()),
            ("write_acl", self.write_acl.to_value()),
            ("constraint", self.constraint.to_value()),
        ])
    }

    /// Appends the wire body of [`DataItem::descriptor`] without building
    /// it (migration images), keys in canonical order.
    pub(crate) fn write_descriptor<S: Sink>(&self, out: &mut S) {
        wire::write_map_header(4, out);
        wire::write_str("constraint", out);
        self.constraint.write_value(out);
        wire::write_str("read_acl", out);
        self.read_acl.write_value(out);
        wire::write_str("value", out);
        wire::encode_value(&self.value, out);
        wire::write_str("write_acl", out);
        self.write_acl.write_value(out);
    }

    /// Reads an item straight from its descriptor's wire body (migration
    /// images), copying the value once. The outer error is the wire's; the
    /// inner result is what [`DataItem::from_descriptor`] makes of the
    /// descriptor, the same item or the same error.
    pub(crate) fn read_descriptor(
        desc: MapValue<'_, '_>,
    ) -> Result<Result<DataItem, ValueError>, ValueError> {
        if desc.kind() != Some(ValueKind::Map) {
            return Ok(DataItem::from_descriptor(&desc.value()?));
        }
        // Each key's last occurrence wins, as in a decoded map.
        let (mut read, mut write, mut constraint, mut value) = (None, None, None, None);
        let mut unknown: Option<&str> = None;
        desc.entries(|key, v| {
            match key {
                "read_acl" => read = Some(Acl::read(v)?),
                "write_acl" => write = Some(Acl::read(v)?),
                "constraint" => constraint = Some(TypeConstraint::read(v)?),
                "value" => value = Some(v.value()?),
                "section" => {}
                // `apply_descriptor` names the least unknown key.
                other => {
                    if unknown.is_none_or(|least| other < least) {
                        unknown = Some(other);
                    }
                }
            }
            Ok(())
        })?;
        // The checks of `apply_descriptor`, in its order.
        Ok((|| {
            if let Some(key) = unknown {
                return Err(ValueError::Malformed(format!(
                    "unknown descriptor key {key:?}"
                )));
            }
            let mut item = DataItem::default();
            if let Some(acl) = read {
                item.read_acl = acl?;
            }
            if let Some(acl) = write {
                item.write_acl = acl?;
            }
            if let Some(constraint) = constraint {
                let constraint = constraint?;
                if value.is_none() {
                    item.value = constraint.apply(Value::Null)?;
                }
                item.constraint = constraint;
            }
            if let Some(v) = value {
                item.value = item.constraint.apply(v)?;
            }
            Ok(item)
        })())
    }

    /// Rebuilds an item from a full descriptor (used by `addDataItem` with
    /// properties, and by migration images). The constraint applies to
    /// the descriptor's value (to `Null` when it carries none).
    ///
    /// # Errors
    ///
    /// [`ValueError`] on malformed fields.
    pub fn from_descriptor(desc: &Value) -> Result<DataItem, ValueError> {
        let mut item = DataItem::default();
        item.apply_descriptor_as(desc, true)?;
        Ok(item)
    }
}

impl Default for DataItem {
    fn default() -> Self {
        DataItem::new(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_value::ValueKind;

    #[test]
    fn write_respects_constraint() {
        let mut item = DataItem::new(Value::Int(1))
            .with_constraint(TypeConstraint::Coerce(ValueKind::Int))
            .unwrap();
        item.write(Value::from("<td>42</td>")).unwrap();
        assert_eq!(item.value(), &Value::Int(42));
        assert!(item.write(Value::from("nope")).is_err());
    }

    #[test]
    fn with_constraint_validates_current_value() {
        let item = DataItem::new(Value::from("abc"));
        assert!(item
            .with_constraint(TypeConstraint::Exact(ValueKind::Int))
            .is_err());
    }

    #[test]
    fn descriptor_round_trip() {
        let item = DataItem::public(Value::from("v"))
            .with_write_acl(Acl::Nobody)
            .with_constraint(TypeConstraint::Coerce(ValueKind::Str))
            .unwrap();
        let desc = item.descriptor();
        let back = DataItem::from_descriptor(&desc).unwrap();
        assert_eq!(back, item);
    }

    #[test]
    fn apply_descriptor_is_partial() {
        let mut item = DataItem::new(Value::Int(5));
        item.apply_descriptor(&Value::map([("read_acl", Value::from("public"))]))
            .unwrap();
        assert_eq!(item.read_acl(), &Acl::Public);
        assert_eq!(item.value(), &Value::Int(5));
        assert_eq!(item.write_acl(), &Acl::Origin);
    }

    #[test]
    fn apply_descriptor_rejects_unknown_keys_and_bad_values() {
        let mut item = DataItem::new(Value::Int(5));
        assert!(item
            .apply_descriptor(&Value::map([("surprise", Value::Int(1))]))
            .is_err());
        assert!(item.apply_descriptor(&Value::Int(1)).is_err());
        assert!(item
            .apply_descriptor(&Value::map([("read_acl", Value::from("weird"))]))
            .is_err());
    }

    #[test]
    fn descriptor_constraint_checks_existing_value() {
        let mut item = DataItem::new(Value::from("abc"));
        // Constraining to int must fail because "abc" cannot coerce.
        assert!(item
            .apply_descriptor(&Value::map([("constraint", Value::from("coerce:int"))]))
            .is_err());
        // But "42" can.
        let mut item = DataItem::new(Value::from("42"));
        item.apply_descriptor(&Value::map([("constraint", Value::from("coerce:int"))]))
            .unwrap();
        assert_eq!(item.value(), &Value::Int(42));
    }

    #[test]
    fn a_fresh_item_constrains_the_descriptors_value_not_null() {
        let item = DataItem::new(Value::Int(3))
            .with_constraint(TypeConstraint::Exact(ValueKind::Int))
            .unwrap();
        assert_eq!(DataItem::from_descriptor(&item.descriptor()).unwrap(), item);
        // Without a value the fresh item's Null must still satisfy it.
        let desc = Value::map([("constraint", Value::from("exact:int"))]);
        assert!(DataItem::from_descriptor(&desc).is_err());
        // And a value the constraint rejects is still rejected.
        let desc = Value::map([
            ("constraint", Value::from("exact:int")),
            ("value", Value::from("x")),
        ]);
        assert!(DataItem::from_descriptor(&desc).is_err());
    }

    #[test]
    fn value_in_descriptor_respects_new_constraint() {
        let mut item = DataItem::new(Value::Null);
        item.apply_descriptor(&Value::map([
            ("constraint", Value::from("exact:int")),
            ("value", Value::Int(3)),
        ]))
        .unwrap_err();
        // Null violates exact:int — order of application means the
        // constraint is installed first and then rejects... actually the
        // constraint application to the current Null fails first.
        let mut item = DataItem::new(Value::Int(0));
        item.apply_descriptor(&Value::map([
            ("constraint", Value::from("exact:int")),
            ("value", Value::Int(3)),
        ]))
        .unwrap();
        assert_eq!(item.value(), &Value::Int(3));
        assert!(item
            .apply_descriptor(&Value::map([("value", Value::from("x"))]))
            .is_err());
    }
}
