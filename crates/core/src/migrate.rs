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
//!
//! Both directions go straight between the object and the bytes: the
//! encoder writes each field to the wire, and the decoder reads each
//! entry into its field (one copy of each payload, no `Value` tree). The
//! `Value` forms ([`MromObject::image_value`],
//! [`MromObject::from_image_value`]) are the reference both are tested
//! against, and share the decoder's checks after field parsing.

use std::collections::BTreeMap;
use std::sync::Arc;

use mrom_value::wire::{self, MapValue, ValidatedSpan};
use mrom_value::{ObjectId, Value, ValueError};

use crate::admission::AdmissionPolicy;
use crate::container::{ExtensibleContainer, FixedContainer};
use crate::error::MromError;
use crate::item::DataItem;
use crate::method::Method;
use crate::object::MromObject;
use crate::security::Acl;
use crate::table::{CodeTable, MethodTable};

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
        let bytes = self.image_bytes()?;
        mrom_obs::migrate_encode(self.id(), bytes.len());
        Ok(bytes)
    }

    /// The image bytes, written field by field: byte-identical to
    /// `wire::encode(&self.image_value()?)`, with the fixed methods copied
    /// from their shared table's encoding. Unchecked by ACLs — for
    /// substrates that already mediated access.
    ///
    /// # Errors
    ///
    /// [`MromError::NotMobile`] when any method carries a native body.
    pub fn image_bytes(&self) -> Result<Vec<u8>, MromError> {
        let (fixed_data, fixed_methods, ext_data, ext_methods) = self.raw_parts();
        let not_mobile = |item: &str| MromError::NotMobile {
            object: self.id(),
            item: item.to_owned(),
        };
        // The reference encoder reports the fixed section first.
        let fixed = fixed_methods.encoded().map_err(not_mobile)?;
        if let Some((name, _)) = ext_methods.iter().find(|(_, m)| !m.is_mobile()) {
            return Err(not_mobile(name));
        }
        let data_hint: usize = fixed_data
            .iter()
            .chain(ext_data.iter())
            .map(|(n, item)| n.len() + size_hint(item.value()))
            .sum();
        let mut w = wire::MapWriter::framed(10, 256 + fixed.len() + data_hint);
        wire::write_str_value(self.class_name(), w.entry("class"));
        write_data(ext_data.len(), ext_data.iter(), w.entry("ext_data"));
        let out = w.entry("ext_methods");
        wire::write_map_header(ext_methods.len(), out);
        for (name, m) in ext_methods.iter() {
            wire::write_str(name, out);
            wire::encode_value(&m.descriptor(), out);
        }
        write_data(fixed_data.len(), fixed_data.iter(), w.entry("fixed_data"));
        w.entry("fixed_methods").extend_from_slice(fixed);
        wire::write_str_value(IMAGE_FORMAT, w.entry("format"));
        wire::write_object_ref_value(self.id(), w.entry("id"));
        wire::encode_value(&self.meta_acl().to_value(), w.entry("meta_acl"));
        wire::write_object_ref_value(self.origin(), w.entry("origin"));
        let out = w.entry("tower");
        wire::write_list_header(self.tower().len(), out);
        for name in self.tower() {
            wire::write_str_value(name, out);
        }
        Ok(w.finish())
    }

    /// The image as a [`Value`] tree (before byte encoding): the reference
    /// encoder [`MromObject::image_bytes`] must match. Unchecked by ACLs —
    /// for substrates that already mediated access.
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
    /// through a site's [`Runtime::unpack_image`].
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] for framing/validation failures.
    ///
    /// [`Runtime::unpack_image`]: crate::Runtime::unpack_image
    pub fn from_image(bytes: &[u8]) -> Result<MromObject, MromError> {
        MromObject::from_image_with_policy(bytes, AdmissionPolicy::Off)
    }

    /// Reconstructs an object from image bytes under an explicit
    /// [`AdmissionPolicy`]. Runs the decoder of [`Runtime::unpack_image`]
    /// with no code table, so every section is decoded afresh.
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] for framing/validation failures;
    /// [`MromError::AdmissionRejected`] when `policy` is strict and any
    /// method body fails static admission analysis.
    ///
    /// [`Runtime::unpack_image`]: crate::Runtime::unpack_image
    pub fn from_image_with_policy(
        bytes: &[u8],
        policy: AdmissionPolicy,
    ) -> Result<MromObject, MromError> {
        unpack(bytes, policy, None)
    }

    /// Reconstructs an object from a trusted image [`Value`] tree without
    /// admission analysis — policy [`AdmissionPolicy::Off`].
    ///
    /// # Errors
    ///
    /// [`MromError::BadImage`] when the tree does not follow the image
    /// schema, references unknown fields, or contains invalid descriptors.
    pub fn from_image_value(v: &Value) -> Result<MromObject, MromError> {
        MromObject::from_image_value_with_policy(v, AdmissionPolicy::Off)
    }

    /// Reconstructs an object from an image [`Value`] tree under an
    /// explicit [`AdmissionPolicy`]: the reference decoder the byte
    /// decoder must agree with.
    ///
    /// # Errors
    ///
    /// As [`MromObject::from_image_value`], plus
    /// [`MromError::AdmissionRejected`] when `policy` is strict and any
    /// method body fails static admission analysis.
    pub fn from_image_value_with_policy(
        v: &Value,
        policy: AdmissionPolicy,
    ) -> Result<MromObject, MromError> {
        let m = v
            .as_map()
            .ok_or_else(|| MromError::BadImage("image must be a map".into()))?;
        Fields::from_map(m).into_object(policy, None)
    }
}

/// The byte decoder: reads the image entry by entry straight into its
/// fields, takes the fixed methods from `code` when their exact bytes were
/// seen before, and admits the object under `policy`.
pub(crate) fn unpack(
    bytes: &[u8],
    policy: AdmissionPolicy,
    code: Option<&mut CodeTable>,
) -> Result<MromObject, MromError> {
    let result =
        read_image(bytes, code.as_deref()).and_then(|fields| fields.into_object(policy, code));
    mrom_obs::migrate_decode(bytes.len(), result.is_ok());
    result
}

/// Every image field, read by the byte decoder straight from the wire or
/// by the reference decoder from a `Value` map. The two differ only in
/// how they fill these; [`Fields::into_object`] is the rest of both.
///
/// Each field holds its own parse, made as it is read: `None` when it is
/// absent (or of a kind the reference treats as absent), otherwise the
/// value or the error the reference reports for it. A later duplicate of
/// a key replaces the earlier one, as in a decoded map.
#[derive(Default)]
struct Fields<'a> {
    format: Option<&'a str>,
    id: Option<ObjectId>,
    origin: Option<ObjectId>,
    class: Option<&'a str>,
    meta_acl: Option<Result<Acl, ValueError>>,
    tower: Option<Result<Vec<Arc<str>>, MromError>>,
    fixed_data: Option<Result<FixedContainer<DataItem>, MromError>>,
    fixed_methods: Option<FixedSection>,
    ext_data: Option<Result<ExtensibleContainer<DataItem>, MromError>>,
    ext_methods: Option<Result<ExtensibleContainer<Method>, MromError>>,
}

impl<'a> Fields<'a> {
    /// The reference decoder's fields, from a decoded image map.
    fn from_map(m: &'a BTreeMap<String, Value>) -> Fields<'a> {
        let mut f = Fields::default();
        for (key, v) in m {
            match key.as_str() {
                "format" => f.format = v.as_str(),
                "id" => f.id = v.as_object_ref(),
                "origin" => f.origin = v.as_object_ref(),
                "class" => f.class = v.as_str(),
                "meta_acl" => f.meta_acl = Some(Acl::from_value(v)),
                "tower" => f.tower = v.as_list().map(|l| tower(l.iter().map(Value::as_str))),
                "fixed_data" => f.fixed_data = data_of(v),
                "fixed_methods" => f.fixed_methods = Some(FixedSection::New(fixed_table(v), None)),
                "ext_data" => f.ext_data = data_of(v),
                "ext_methods" => f.ext_methods = Some(methods_of("ext_methods", v)),
                _ => {}
            }
        }
        f
    }

    /// Reads one image entry into its field, probing `code` for the fixed
    /// methods. A wire error anywhere in the image is what the reference
    /// reports first, so it is returned at once.
    fn read(
        &mut self,
        key: &str,
        value: MapValue<'_, 'a>,
        code: Option<&CodeTable>,
    ) -> Result<(), ValueError> {
        match key {
            "format" => self.format = value.str()?,
            "id" => self.id = value.object_ref()?,
            "origin" => self.origin = value.object_ref()?,
            "class" => self.class = value.str()?,
            "meta_acl" => self.meta_acl = Some(Acl::read(value)?),
            "tower" => {
                let mut names = Vec::new();
                let listed = value.items(|name| {
                    names.push(name.str()?);
                    Ok(())
                })?;
                self.tower = listed.then(|| tower(names.into_iter()));
            }
            "fixed_data" => self.fixed_data = read_data(value)?,
            "fixed_methods" => self.fixed_methods = Some(FixedSection::read(value, code)?),
            "ext_data" => self.ext_data = read_data(value)?,
            "ext_methods" => self.ext_methods = Some(methods_of("ext_methods", &value.value()?)),
            _ => {}
        }
        Ok(())
    }

    /// Checks the fields in the reference's fixed order, so the same
    /// error wins whichever decoder read them; resolves the fixed section
    /// at its turn; then checks the sections against each other and the
    /// tower, and builds and admits the object.
    fn into_object(
        self,
        policy: AdmissionPolicy,
        code: Option<&mut CodeTable>,
    ) -> Result<MromObject, MromError> {
        let bad = |detail: String| MromError::BadImage(detail);
        let missing = |what: &str| MromError::BadImage(format!("missing {what}"));
        match self.format {
            Some(IMAGE_FORMAT) => {}
            Some(other) => return Err(bad(format!("unsupported image format {other:?}"))),
            None => return Err(missing("format field")),
        }
        let id = self.id.ok_or_else(|| missing("id"))?;
        let origin = self.origin.ok_or_else(|| missing("origin"))?;
        let class = self.class.ok_or_else(|| missing("class"))?.to_owned();
        let meta_acl = self
            .meta_acl
            .ok_or_else(|| missing("meta_acl"))?
            .map_err(|e| bad(format!("bad meta_acl: {e}")))?;
        let tower = self.tower.unwrap_or_else(|| Err(missing("tower")))?;
        let fixed_data = self
            .fixed_data
            .unwrap_or_else(|| Err(missing("fixed_data map")))?;
        let fixed_methods = match self.fixed_methods {
            Some(section) => section.resolve(code)?,
            None => return Err(missing("fixed_methods map")),
        };
        let ext_data = self
            .ext_data
            .unwrap_or_else(|| Err(missing("ext_data map")))?;
        let ext_methods = self
            .ext_methods
            .unwrap_or_else(|| Err(missing("ext_methods map")))?;

        // A name lives in one section: `add_method`/`add_data` refuse a
        // duplicate, and an image must not smuggle one in (dispatch would
        // run the fixed body while the effect table described the other).
        let twice = fixed_data
            .names()
            .iter()
            .find(|n| ext_data.contains(n))
            .map(|n| ("data item", n))
            .or_else(|| {
                fixed_methods
                    .names()
                    .iter()
                    .find(|n| ext_methods.contains(n))
                    .map(|n| ("method", n))
            });
        if let Some((kind, name)) = twice {
            return Err(bad(format!(
                "{kind} {name:?} is in both the fixed and the extensible section"
            )));
        }

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

/// An arriving image's `fixed_methods` value.
enum FixedSection {
    /// Interned on this site already.
    Known(Arc<MethodTable>),
    /// Decoded; the span is kept when a code table will intern it.
    New(Result<MethodTable, MromError>, Option<ValidatedSpan>),
}

impl FixedSection {
    /// Takes the section from `code` when its bytes are held there, and
    /// decodes it otherwise.
    fn read(value: MapValue<'_, '_>, code: Option<&CodeTable>) -> Result<Self, ValueError> {
        let Some(code) = code else {
            return Ok(FixedSection::New(fixed_table(&value.value()?), None));
        };
        Ok(match code.find(value) {
            Ok(table) => {
                mrom_obs::code_table(true, 0);
                FixedSection::Known(table)
            }
            Err(value) => {
                let (value, span) = value.value_and_span()?;
                FixedSection::New(fixed_table(&value), Some(span))
            }
        })
    }

    /// The section's table; a new one is interned in `code` once the
    /// fields before it have checked out.
    fn resolve(self, code: Option<&mut CodeTable>) -> Result<Arc<MethodTable>, MromError> {
        match self {
            FixedSection::Known(table) => Ok(table),
            FixedSection::New(table, span) => {
                let table = table.map(Arc::new);
                if let (Some(code), Some(span)) = (code, span) {
                    let evicted = match &table {
                        Ok(table) => code.insert(span, table),
                        Err(_) => 0,
                    };
                    mrom_obs::code_table(false, evicted);
                }
                table
            }
        }
    }
}

/// Opens the image and reads every entry into [`Fields`].
fn read_image<'a>(bytes: &'a [u8], code: Option<&CodeTable>) -> Result<Fields<'a>, MromError> {
    let bad = |e: ValueError| MromError::BadImage(e.to_string());
    let Ok(mut map) = wire::MapReader::framed(bytes) else {
        // Not a framed map: report it as the reference decoder does.
        return Err(match wire::decode(bytes) {
            Ok(_) => MromError::BadImage("image must be a map".into()),
            Err(e) => bad(e),
        });
    };
    let mut fields = Fields::default();
    while let Some((key, value)) = map.next_entry().map_err(bad)? {
        fields.read(key, value, code).map_err(bad)?;
    }
    Ok(fields)
}

/// A decoded data section's items; `None` for a value that is not a map.
fn data_of<C: FromIterator<(String, DataItem)>>(v: &Value) -> Option<Result<C, MromError>> {
    let items = v.as_map()?;
    Some(data_section(items.iter().map(|(n, desc)| {
        (n.as_str(), DataItem::from_descriptor(desc))
    })))
}

/// Reads a data section straight into its items; `None` for a value that
/// is not a map.
fn read_data<C: FromIterator<(String, DataItem)>>(
    value: MapValue<'_, '_>,
) -> Result<Option<Result<C, MromError>>, ValueError> {
    let mut items = Vec::new();
    let is_map = value.entries(|name, desc| {
        items.push((name, DataItem::read_descriptor(desc)?));
        Ok(())
    })?;
    Ok(is_map.then(|| data_section(in_name_order(items).into_iter())))
}

/// `entries` in name order, keeping the last of each name: what a decoded
/// map holds. Canonical images are already in that order.
fn in_name_order<T>(mut entries: Vec<(&str, T)>) -> Vec<(&str, T)> {
    if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
        entries.reverse();
        // Stable, so each name's last occurrence sorts first and is kept.
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.dedup_by(|later, kept| later.0 == kept.0);
    }
    entries
}

/// A data section from its items in name order: the first item that
/// failed to parse is the section's error.
fn data_section<'s, C: FromIterator<(String, DataItem)>>(
    items: impl Iterator<Item = (&'s str, Result<DataItem, ValueError>)>,
) -> Result<C, MromError> {
    items
        .map(|(n, item)| {
            item.map(|item| (n.to_owned(), item))
                .map_err(|e| MromError::BadImage(format!("bad data item {n:?}: {e}")))
        })
        .collect()
}

/// The tower from its entries; `None` marks one that is not a string.
fn tower<'s>(names: impl Iterator<Item = Option<&'s str>>) -> Result<Vec<Arc<str>>, MromError> {
    names
        .map(|n| {
            n.map(Arc::<str>::from)
                .ok_or_else(|| MromError::BadImage("tower entries must be strings".into()))
        })
        .collect()
}

fn fixed_table(v: &Value) -> Result<MethodTable, MromError> {
    methods_of("fixed_methods", v).map(MethodTable::new)
}

fn methods_of<C: FromIterator<(String, Method)>>(key: &str, v: &Value) -> Result<C, MromError> {
    v.as_map()
        .ok_or_else(|| MromError::BadImage(format!("missing {key} map")))?
        .iter()
        .map(|(n, desc)| {
            Method::from_descriptor(desc)
                .map(|method| (n.clone(), method))
                .map_err(|e| MromError::BadImage(format!("bad method {n:?}: {e}")))
        })
        .collect()
}

/// Appends a data section's wire body: a map of item descriptors.
fn write_data<'a>(
    len: usize,
    items: impl Iterator<Item = (&'a str, &'a DataItem)>,
    out: &mut Vec<u8>,
) {
    wire::write_map_header(len, out);
    for (name, item) in items {
        wire::write_str(name, out);
        item.write_descriptor(out);
    }
}

/// A rough encoded size of a data value, for the image buffer's initial
/// capacity: exact for the byte and string payloads that dominate.
fn size_hint(v: &Value) -> usize {
    16 + match v {
        Value::Bytes(b) => b.len(),
        Value::Str(s) => s.len(),
        other => other.tree_size() * 8,
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
    fn an_item_in_both_sections_is_a_bad_image() {
        let mut gen = ids();
        let mut obj = ObjectBuilder::new(gen.next_id())
            .class("counter")
            .fixed_data("count", DataItem::public(Value::Int(0)))
            .fixed_method(
                "bump",
                Method::public(
                    MethodBody::script(
                        "self.set(\"count\", self.get(\"count\") + 1); return null;",
                    )
                    .unwrap(),
                ),
            )
            .build();
        // A read-only twin in the extensible section would mask the
        // fixed body's write in the effect table.
        let twin = Method::public(MethodBody::script("return self.get(\"count\");").unwrap());
        let mut methods = obj.image_value().unwrap();
        methods.as_map_mut().unwrap().insert(
            "ext_methods".into(),
            Value::map([("bump", twin.descriptor())]),
        );
        let mut data = obj.image_value().unwrap();
        data.as_map_mut().unwrap().insert(
            "ext_data".into(),
            Value::map([("count", DataItem::public(Value::Int(9)).descriptor())]),
        );
        let mut rt = crate::Runtime::new(NodeId(11));
        for (image, kind) in [(methods, "method"), (data, "data item")] {
            let bytes = wire::encode(&image);
            for result in [
                MromObject::from_image_value_with_policy(&image, AdmissionPolicy::Strict),
                MromObject::from_image_with_policy(&bytes, AdmissionPolicy::Strict),
                rt.unpack_image(&bytes),
            ] {
                assert!(
                    matches!(&result, Err(MromError::BadImage(d)) if d.contains(kind) && d.contains("both")),
                    "{result:?}"
                );
            }
        }
        // The fixed body is what runs, and what the effects describe.
        let me = obj.id();
        invoke(&mut obj, &mut NoWorld, me, "bump", &[]).unwrap();
        assert!(!obj.effects()["bump"].idempotent);
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
