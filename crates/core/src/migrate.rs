//! Migration images: the self-contained byte form of an object.
//!
//! A mobile object serializes *itself* — identity, class name, all four
//! item containers (method bodies included, as script/meta data), the
//! invocation tower, and every ACL — into one buffer in the standard wire
//! format. The image is what travels over the simulated network (HADAS
//! Export/Import) and what the persistence substrate stores.
//!
//! An object holding any native (Rust-closure) body refuses to serialize
//! with [`MromError::NotMobile`]: self-containment means a mobile object
//! must carry all of its own behaviour.

use mrom_value::{wire, ObjectId, Value};

use crate::container::{ExtensibleContainer, FixedContainer};
use crate::error::MromError;
use crate::item::DataItem;
use crate::method::Method;
use crate::object::MromObject;
use crate::security::Acl;

/// Format discriminator embedded in every image.
pub const IMAGE_FORMAT: &str = "mrom-object@1";

impl MromObject {
    /// Serializes the object to a self-contained migration image.
    ///
    /// Guarded by the object meta ACL: exporting an object's full structure
    /// (bodies included) is the strongest meta operation there is.
    ///
    /// # Errors
    ///
    /// [`MromError::AccessDenied`] when `caller` fails the meta ACL;
    /// [`MromError::NotMobile`] when any method carries a native body.
    pub fn migration_image(&self, caller: ObjectId) -> Result<Vec<u8>, MromError> {
        if !self.meta_acl().permits(caller, self.origin()) {
            return Err(MromError::AccessDenied {
                object: self.id(),
                item: "migration image".to_owned(),
                operation: "meta",
                caller,
            });
        }
        let bytes = wire::encode(&self.image_value()?);
        mrom_obs::migrate_encode(self.id(), bytes.len());
        Ok(bytes)
    }

    /// The image as a [`Value`] tree (before byte encoding). Unchecked by
    /// ACLs — for substrates that already mediated access.
    ///
    /// # Errors
    ///
    /// [`MromError::NotMobile`] when any method carries a native body.
    pub fn image_value(&self) -> Result<Value, MromError> {
        let (fixed_data, fixed_methods, ext_data, ext_methods) = self.raw_parts();

        let data_map = |items: Vec<(&str, &DataItem)>| -> Value {
            Value::Map(
                items
                    .into_iter()
                    .map(|(n, item)| (n.to_owned(), item.descriptor()))
                    .collect(),
            )
        };
        let method_map = |items: Vec<(&str, &Method)>| -> Result<Value, MromError> {
            let mut out = std::collections::BTreeMap::new();
            for (n, m) in items {
                if !m.is_mobile() {
                    return Err(MromError::NotMobile {
                        object: self.id(),
                        item: n.to_owned(),
                    });
                }
                out.insert(n.to_owned(), m.descriptor());
            }
            Ok(Value::Map(out))
        };

        Ok(Value::map([
            ("format", Value::from(IMAGE_FORMAT)),
            ("id", Value::ObjectRef(self.id())),
            ("origin", Value::ObjectRef(self.origin())),
            ("class", Value::from(self.class_name())),
            ("meta_acl", self.meta_acl().to_value()),
            (
                "tower",
                Value::List(
                    self.tower()
                        .iter()
                        .map(|n| Value::Str(n.as_ref().to_owned()))
                        .collect(),
                ),
            ),
            ("fixed_data", data_map(fixed_data.iter().collect())),
            ("fixed_methods", method_map(fixed_methods.iter().collect())?),
            ("ext_data", data_map(ext_data.iter().collect())),
            ("ext_methods", method_map(ext_methods.iter().collect())?),
        ]))
    }

    /// Reconstructs an object from trusted, host-local image bytes (a
    /// depot record, a test fixture) without admission analysis — policy
    /// [`AdmissionPolicy::Off`]. Bytes that crossed a trust boundary go
    /// through [`MromObject::from_image_with_policy`].
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] for framing/validation failures.
    ///
    /// [`AdmissionPolicy::Off`]: crate::AdmissionPolicy::Off
    pub fn from_image(bytes: &[u8]) -> Result<MromObject, MromError> {
        MromObject::from_image_with_policy(bytes, crate::AdmissionPolicy::Off)
    }

    /// Reconstructs an object from image bytes under an explicit
    /// [`AdmissionPolicy`] — the receiving site's own.
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] for framing/validation failures;
    /// [`MromError::AdmissionRejected`] when `policy` is strict and any
    /// method body fails static admission analysis.
    ///
    /// [`AdmissionPolicy`]: crate::AdmissionPolicy
    pub fn from_image_with_policy(
        bytes: &[u8],
        policy: crate::AdmissionPolicy,
    ) -> Result<MromObject, MromError> {
        let v = match wire::decode(bytes) {
            Ok(v) => v,
            Err(e) => {
                mrom_obs::migrate_decode(bytes.len(), false);
                return Err(MromError::BadImage(e.to_string()));
            }
        };
        let result = MromObject::from_image_value_with_policy(&v, policy);
        mrom_obs::migrate_decode(bytes.len(), result.is_ok());
        result
    }

    /// Reconstructs an object from a trusted image [`Value`] tree without
    /// admission analysis — policy [`AdmissionPolicy::Off`].
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] when the tree does not follow the image
    /// schema, references unknown fields, or contains invalid descriptors.
    ///
    /// [`AdmissionPolicy::Off`]: crate::AdmissionPolicy::Off
    pub fn from_image_value(v: &Value) -> Result<MromObject, MromError> {
        MromObject::from_image_value_with_policy(v, crate::AdmissionPolicy::Off)
    }

    /// Reconstructs an object from an image [`Value`] tree under an
    /// explicit [`AdmissionPolicy`].
    ///
    /// # Errors
    ///
    /// As [`MromObject::from_image_value`], plus
    /// [`MromError::AdmissionRejected`] when `policy` is strict and any
    /// method body fails static admission analysis.
    ///
    /// [`AdmissionPolicy`]: crate::AdmissionPolicy
    pub fn from_image_value_with_policy(
        v: &Value,
        policy: crate::AdmissionPolicy,
    ) -> Result<MromObject, MromError> {
        let bad = |detail: String| MromError::BadImage(detail);
        let m = v
            .as_map()
            .ok_or_else(|| bad("image must be a map".into()))?;
        match m.get("format").and_then(Value::as_str) {
            Some(IMAGE_FORMAT) => {}
            Some(other) => return Err(bad(format!("unsupported image format {other:?}"))),
            None => return Err(bad("missing format field".into())),
        }
        let id = m
            .get("id")
            .and_then(Value::as_object_ref)
            .ok_or_else(|| bad("missing id".into()))?;
        let origin = m
            .get("origin")
            .and_then(Value::as_object_ref)
            .ok_or_else(|| bad("missing origin".into()))?;
        let class = m
            .get("class")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing class".into()))?
            .to_owned();
        let meta_acl = Acl::from_value(
            m.get("meta_acl")
                .ok_or_else(|| bad("missing meta_acl".into()))?,
        )
        .map_err(|e| bad(format!("bad meta_acl: {e}")))?;
        let tower = m
            .get("tower")
            .and_then(Value::as_list)
            .ok_or_else(|| bad("missing tower".into()))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(std::sync::Arc::<str>::from)
                    .ok_or_else(|| bad("tower entries must be strings".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let decode_data = |key: &str| -> Result<Vec<(String, DataItem)>, MromError> {
            let section = m
                .get(key)
                .and_then(Value::as_map)
                .ok_or_else(|| bad(format!("missing {key} map")))?;
            section
                .iter()
                .map(|(n, desc)| {
                    DataItem::from_descriptor(desc)
                        .map(|item| (n.clone(), item))
                        .map_err(|e| bad(format!("bad data item {n:?}: {e}")))
                })
                .collect()
        };
        let decode_methods = |key: &str| -> Result<Vec<(String, Method)>, MromError> {
            let section = m
                .get(key)
                .and_then(Value::as_map)
                .ok_or_else(|| bad(format!("missing {key} map")))?;
            section
                .iter()
                .map(|(n, desc)| {
                    Method::from_descriptor(desc)
                        .map(|method| (n.clone(), method))
                        .map_err(|e| bad(format!("bad method {n:?}: {e}")))
                })
                .collect()
        };

        let fixed_data: FixedContainer<DataItem> = decode_data("fixed_data")?.into_iter().collect();
        let fixed_methods: FixedContainer<Method> =
            decode_methods("fixed_methods")?.into_iter().collect();
        let ext_data: ExtensibleContainer<DataItem> =
            decode_data("ext_data")?.into_iter().collect();
        let ext_methods: ExtensibleContainer<Method> =
            decode_methods("ext_methods")?.into_iter().collect();

        // Tower entries must reference existing extensible methods.
        for entry in &tower {
            if !ext_methods.contains(entry.as_ref()) {
                return Err(bad(format!(
                    "tower references missing extensible method {entry:?}"
                )));
            }
        }

        let obj = MromObject::from_raw_parts(
            id,
            origin,
            class,
            fixed_data,
            fixed_methods,
            ext_data,
            ext_methods,
            tower,
            meta_acl,
        );
        obj.admit(policy, "from_image")?;
        // Effect signatures are deliberately NOT primed here: the first
        // consumer (a retry policy, a Strict dispatch check, `getEffects`)
        // pays one memoized solve instead, keeping admission itself at
        // analyzer + verifier cost (the E12/E16 ≤15% budget).
        Ok(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::{invoke, NoWorld};
    use crate::method::MethodBody;
    use crate::object::ObjectBuilder;
    use mrom_value::{IdGenerator, NodeId};

    fn ids() -> IdGenerator {
        IdGenerator::new(NodeId(11))
    }

    fn mobile_object(gen: &mut IdGenerator) -> MromObject {
        let mut obj = ObjectBuilder::new(gen.next_id())
            .class("traveler")
            .fixed_data("home", DataItem::public(Value::from("node-11")))
            .fixed_method(
                "greet",
                Method::public(
                    MethodBody::script("return \"hello from \" + self.get(\"home\");").unwrap(),
                ),
            )
            .build();
        let me = obj.id();
        obj.add_data(me, "hops", Value::Int(0)).unwrap();
        obj.add_method(
            me,
            "hop",
            Method::public(
                MethodBody::script(
                    "self.set(\"hops\", self.get(\"hops\") + 1); return self.get(\"hops\");",
                )
                .unwrap(),
            ),
        )
        .unwrap();
        obj
    }

    #[test]
    fn image_round_trip_preserves_everything() {
        let mut gen = ids();
        let obj = mobile_object(&mut gen);
        let me = obj.id();
        let bytes = obj.migration_image(me).unwrap();
        let back = MromObject::from_image(&bytes).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn unpacked_object_still_works() {
        let mut gen = ids();
        let mut obj = mobile_object(&mut gen);
        let me = obj.id();
        let mut world = NoWorld;
        // Run some state forward before migrating.
        invoke(&mut obj, &mut world, me, "hop", &[]).unwrap();
        invoke(&mut obj, &mut world, me, "hop", &[]).unwrap();
        let bytes = obj.migration_image(me).unwrap();
        let mut back = MromObject::from_image(&bytes).unwrap();
        // State travelled with the object.
        assert_eq!(
            invoke(&mut back, &mut world, me, "hop", &[]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            invoke(&mut back, &mut world, me, "greet", &[]).unwrap(),
            Value::from("hello from node-11")
        );
    }

    #[test]
    fn tower_travels_with_the_object() {
        let mut gen = ids();
        let mut obj = mobile_object(&mut gen);
        let me = obj.id();
        obj.add_method(
            me,
            "mi",
            Method::public(MethodBody::script("param m; param a; return \"wrapped\";").unwrap()),
        )
        .unwrap();
        obj.install_meta_invoke(me, "mi").unwrap();
        let bytes = obj.migration_image(me).unwrap();
        let mut back = MromObject::from_image(&bytes).unwrap();
        assert_eq!(back.tower(), [std::sync::Arc::<str>::from("mi")]);
        let mut world = NoWorld;
        assert_eq!(
            invoke(&mut back, &mut world, me, "hop", &[]).unwrap(),
            Value::from("wrapped")
        );
    }

    #[test]
    fn native_bodies_refuse_to_migrate() {
        let mut gen = ids();
        let mut obj = mobile_object(&mut gen);
        let me = obj.id();
        obj.add_method(
            me,
            "rooted",
            Method::new(MethodBody::native(|_, _| Ok(Value::Null))),
        )
        .unwrap();
        assert!(matches!(
            obj.migration_image(me),
            Err(MromError::NotMobile { .. })
        ));
    }

    #[test]
    fn export_is_guarded_by_the_meta_acl() {
        let mut gen = ids();
        let obj = mobile_object(&mut gen);
        let stranger = gen.next_id();
        assert!(matches!(
            obj.migration_image(stranger),
            Err(MromError::AccessDenied { .. })
        ));
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut gen = ids();
        let obj = mobile_object(&mut gen);
        let me = obj.id();
        let bytes = obj.migration_image(me).unwrap();
        // Truncations.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(MromObject::from_image(&bytes[..cut]).is_err());
        }
        // Arbitrary garbage.
        assert!(MromObject::from_image(b"not an image").is_err());
        // A valid wire value that is not an image.
        let v = mrom_value::wire::encode(&Value::Int(42));
        assert!(matches!(
            MromObject::from_image(&v),
            Err(MromError::BadImage(_))
        ));
    }

    #[test]
    fn image_schema_violations_are_named() {
        // Wrong format string.
        let mut gen = ids();
        let obj = mobile_object(&mut gen);
        let mut image = obj.image_value().unwrap();
        image
            .as_map_mut()
            .unwrap()
            .insert("format".into(), Value::from("mrom-object@99"));
        assert!(matches!(
            MromObject::from_image_value(&image),
            Err(MromError::BadImage(detail)) if detail.contains("format")
        ));
        // Tower referencing a missing method.
        let mut image = obj.image_value().unwrap();
        image
            .as_map_mut()
            .unwrap()
            .insert("tower".into(), Value::list([Value::from("ghost")]));
        assert!(matches!(
            MromObject::from_image_value(&image),
            Err(MromError::BadImage(detail)) if detail.contains("ghost")
        ));
    }

    #[test]
    fn image_size_scales_with_items() {
        let mut gen = ids();
        let small = mobile_object(&mut gen);
        let mut big = mobile_object(&mut gen);
        let big_id = big.id();
        for i in 0..50 {
            big.add_data(big_id, &format!("item{i}"), Value::Int(i))
                .unwrap();
        }
        let small_len = small.migration_image(small.id()).unwrap().len();
        let big_len = big.migration_image(big_id).unwrap().len();
        assert!(big_len > small_len + 200, "{big_len} vs {small_len}");
    }
}
