//! Differential properties of the site code table and the direct image
//! codec.
//!
//! * **Decoder.** `Runtime::unpack_image` — with a cold table, a warm one
//!   that already holds a related fixed section, and one forced to evict
//!   it — must agree with the reference decoder
//!   (`wire::decode` + `from_image_value_with_policy`) on every image:
//!   the same object or the same error (admission diagnostics included,
//!   in order), the same analysis findings, effect table and static fuel
//!   bounds. Images include same-name-different-body and ACL-only
//!   variants, rejected sections submitted again, data items of every
//!   value kind under every ACL variant and type constraint, bit flips and
//!   truncations anywhere in the image (and inside the `fixed_methods`
//!   span in particular), and hand-built hostile images: duplicate and
//!   unknown keys, out-of-order keys, and each field or descriptor entry
//!   missing or of the wrong type. The table-free decoder
//!   (`from_image_with_policy`) must agree too.
//! * **Encoder.** `image_bytes()` equals `wire::encode(&image_value())`,
//!   and a native body fails both with the same `NotMobile` item.

use std::collections::BTreeMap;

use mrom_core::{
    analyze_program, object_effects, Acl, AdmissionPolicy, DataItem, Diagnostic, InvokeLimits,
    Method, MethodBody, MromError, MromObject, ObjectBuilder, Runtime, TypeConstraint,
    CODE_TABLE_ENTRIES,
};
use mrom_value::{wire, IdGenerator, NodeId, ObjectId, Value, ValueKind};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Script bodies: clean ones, and ones admission flags (dangling item,
/// dangling method, unbound name), with and without a static fuel bound.
const BODIES: [&str; 8] = [
    "return 1;",
    "return self.get(\"a\");",
    "self.set(\"a\", 1); return null;",
    "param x; return x + 1;",
    "return self.invoke(\"m0\", []);",
    "return nowhere;",
    "let t = 0; for (v in args) { t = t + v; } return t;",
    "self.set(\"b\", self.get(\"b\") + 1); return self.get(\"b\");",
];

const NAMES: [&str; 4] = ["m0", "m1", "m2", "m3"];

fn acl(pick: u8) -> Acl {
    match pick % 5 {
        0 => Acl::Public,
        1 => Acl::Origin,
        2 => Acl::Nobody,
        3 => Acl::only([friend(1)]),
        _ => Acl::only([friend(1), friend(2)]),
    }
}

fn friend(n: u64) -> ObjectId {
    ObjectId::from_parts(NodeId(0xf00 + n), n as u32, 7)
}

/// A data value of every kind the wire carries.
fn data_value(pick: u8, n: i64) -> Value {
    match pick % 9 {
        0 => Value::Null,
        1 => Value::Bool(n % 2 == 0),
        2 => Value::Int(n),
        3 => Value::Float(n as f64 / 4.0),
        4 => Value::Str(format!("s{n}")),
        5 => Value::Bytes(n.to_le_bytes().to_vec()),
        6 => Value::list([Value::Int(n), Value::from("x"), Value::Null]),
        7 => Value::map([("k", Value::Int(n)), ("nested", Value::list([]))]),
        _ => Value::ObjectRef(friend(n.unsigned_abs() % 3)),
    }
}

/// One generated data item: value, ACLs and type constraint. A
/// constraint the value cannot meet is dropped; one that `Null` cannot
/// meet (`exact:int` on an int) must still travel.
#[derive(Debug, Clone)]
struct ItemSpec {
    value: u8,
    n: i64,
    read: u8,
    write: u8,
    constraint: u8,
    ext: bool,
}

impl ItemSpec {
    fn build(&self) -> DataItem {
        let value = data_value(self.value, self.n);
        let kind = value.kind();
        let item = DataItem::new(value)
            .with_read_acl(acl(self.read))
            .with_write_acl(acl(self.write));
        let constraint = match self.constraint % 5 {
            0 | 1 => return item,
            2 => TypeConstraint::Coerce(ValueKind::Str),
            3 => TypeConstraint::Exact(kind),
            _ => TypeConstraint::Coerce(kind),
        };
        item.clone().with_constraint(constraint).unwrap_or(item)
    }
}

fn item_spec() -> impl Strategy<Value = ItemSpec> {
    (
        any::<u8>(),
        -300i64..300,
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(value, n, read, write, constraint, ext)| ItemSpec {
            value,
            n,
            read,
            write,
            constraint,
            ext,
        })
}

/// One generated method: body, optional pre-procedure, invoke ACL.
#[derive(Debug, Clone)]
struct MethodSpec {
    body: usize,
    pre: Option<usize>,
    acl: u8,
}

impl MethodSpec {
    fn build(&self) -> Method {
        let mut m = Method::new(MethodBody::script(BODIES[self.body]).unwrap())
            .with_invoke_acl(acl(self.acl));
        if let Some(pre) = self.pre {
            m = m.with_pre(MethodBody::script(BODIES[pre]).unwrap());
        }
        m
    }
}

fn method_spec() -> impl Strategy<Value = MethodSpec> {
    (0..BODIES.len(), 0..(BODIES.len() + 4), any::<u8>()).prop_map(|(body, pre, acl)| MethodSpec {
        body,
        pre: (pre < BODIES.len()).then_some(pre),
        acl,
    })
}

/// One generated object. Extensible names may collide with fixed ones:
/// both decoders must then refuse the image.
#[derive(Debug, Clone)]
struct ObjectSpec {
    fixed: BTreeMap<usize, MethodSpec>,
    ext: BTreeMap<usize, MethodSpec>,
    fixed_data: Vec<(bool, i64)>,
    ext_data: i64,
    items: Vec<ItemSpec>,
    payload: usize,
    towered: bool,
    meta: u8,
}

fn object_spec() -> impl Strategy<Value = ObjectSpec> {
    (
        prop::collection::btree_map(0..NAMES.len(), method_spec(), 0..4),
        prop::collection::btree_map(0..NAMES.len(), method_spec(), 0..2),
        prop::collection::vec((any::<bool>(), any::<i64>()), 0..3),
        any::<i64>(),
        prop::collection::vec(item_spec(), 0..4),
        0usize..300,
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(
            |(fixed, ext, fixed_data, ext_data, items, payload, towered, meta)| ObjectSpec {
                fixed,
                ext,
                fixed_data,
                ext_data,
                items,
                payload,
                towered,
                meta,
            },
        )
}

fn build(spec: &ObjectSpec, gen: &mut IdGenerator) -> MromObject {
    let mut b = ObjectBuilder::new(gen.next_id())
        .class("generated")
        .meta_acl(if spec.meta.is_multiple_of(5) {
            Acl::Nobody
        } else {
            acl(spec.meta / 5 % 2 * 3 + 1)
        })
        .fixed_data(
            "cargo",
            DataItem::public(Value::Bytes(vec![7; spec.payload])),
        );
    for (i, (named_a, v)) in spec.fixed_data.iter().enumerate() {
        let name = if *named_a {
            "a".to_owned()
        } else {
            format!("d{i}")
        };
        b = b.fixed_data(&name, DataItem::new(Value::Int(*v)));
    }
    for (i, m) in &spec.fixed {
        b = b.fixed_method(NAMES[*i], m.build());
    }
    b = b.ext_data("b", DataItem::public(Value::Int(spec.ext_data)));
    for (i, item) in spec.items.iter().enumerate() {
        let name = format!("i{i}");
        b = if item.ext {
            b.ext_data(&name, item.build())
        } else {
            b.fixed_data(&name, item.build())
        };
    }
    for (i, m) in &spec.ext {
        b = b.ext_method(NAMES[*i], m.build());
    }
    let mut obj = b.build();
    if spec.towered && !spec.meta.is_multiple_of(5) {
        if let Some(i) = spec.ext.keys().find(|i| !spec.fixed.contains_key(i)) {
            obj.install_meta_invoke(obj.id(), NAMES[*i]).unwrap();
        }
    }
    obj
}

/// A related object whose fixed section differs in one way the code
/// table must notice (or not): nothing, one body, or one ACL.
fn variant(spec: &ObjectSpec, how: u8) -> ObjectSpec {
    let mut other = spec.clone();
    if let Some(m) = other.fixed.values_mut().next() {
        match how % 3 {
            0 => {}
            1 => m.body = (m.body + 1) % BODIES.len(),
            _ => m.acl = m.acl.wrapping_add(1),
        }
    }
    other.ext_data = spec.ext_data.wrapping_add(1);
    other
}

fn runtime(policy: AdmissionPolicy) -> Runtime {
    let mut rt = Runtime::new(NodeId(0x7ab));
    rt.set_limits(InvokeLimits {
        admission: policy,
        ..InvokeLimits::default()
    });
    rt
}

fn policy(pick: u8) -> AdmissionPolicy {
    match pick % 3 {
        0 => AdmissionPolicy::Off,
        1 => AdmissionPolicy::Warn,
        _ => AdmissionPolicy::Strict,
    }
}

/// Where the `fixed_methods` value sits in an image.
fn fixed_span(image: &[u8]) -> std::ops::Range<usize> {
    let mut map = wire::MapReader::framed(image).unwrap();
    while let Some((key, value)) = map.next_entry().unwrap() {
        if key == "fixed_methods" {
            let len = value.value_and_span().unwrap().1.as_bytes().len();
            let key = b"\x0dfixed_methods";
            let start = image.windows(key.len()).position(|w| w == key).unwrap() + key.len();
            return start..start + len;
        }
    }
    unreachable!("every image carries fixed_methods")
}

/// Applies the byte-level mutation `how` at `at`: none, a bit flip or a
/// truncation, inside the `fixed_methods` span or anywhere in the image.
fn mutate(image: &[u8], how: u8, at: usize, bit: u8) -> Vec<u8> {
    let pos = match how % 6 {
        0 | 1 => return image.to_vec(),
        2 | 3 => {
            let span = fixed_span(image);
            span.start + at % span.len()
        }
        _ => at % image.len(),
    };
    if how.is_multiple_of(2) {
        let mut out = image.to_vec();
        out[pos] ^= 1 << (bit % 8);
        out
    } else {
        image[..pos].to_vec()
    }
}

/// A map that may repeat keys or hold them out of order, as a hostile
/// sender can put it on the wire (a `Value::Map` cannot).
#[derive(Debug, Clone)]
enum Raw {
    Value(Value),
    Map(Vec<(String, Raw)>),
}

impl Raw {
    /// `v` with its maps down to `depth` levels opened up.
    fn of(v: &Value, depth: usize) -> Raw {
        match v {
            Value::Map(m) if depth > 0 => Raw::Map(
                m.iter()
                    .map(|(k, v)| (k.clone(), Raw::of(v, depth - 1)))
                    .collect(),
            ),
            other => Raw::Value(other.clone()),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Raw::Value(v) => wire::encode_value(v, out),
            Raw::Map(entries) => {
                wire::write_map_header(entries.len(), out);
                for (k, v) in entries {
                    wire::write_str(k, out);
                    v.encode(out);
                }
            }
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = wire::MAGIC.to_vec();
        out.push(wire::VERSION);
        self.encode(&mut out);
        out
    }

    fn entries(&mut self) -> Option<&mut Vec<(String, Raw)>> {
        match self {
            Raw::Map(entries) => Some(entries),
            Raw::Value(_) => None,
        }
    }
}

/// Values of the wrong shape for any image field or descriptor entry.
fn junk(pick: u8) -> Value {
    match pick % 10 {
        0 => Value::Null,
        1 => Value::Int(7),
        2 => Value::from("public"),
        3 => Value::from("exact:int"),
        4 => Value::from("no such thing"),
        5 => Value::list([Value::Int(1)]),
        6 => Value::list([Value::from("not-an-id")]),
        7 => Value::map([("value", Value::Int(1))]),
        8 => Value::ObjectRef(friend(1)),
        _ => Value::Bytes(vec![1, 2]),
    }
}

/// One hostile edit of an image: where (the top-level map, a data
/// section, or one item's descriptor, chosen by `path`), what (`op`, on
/// the entry `pick`), and with which junk.
#[derive(Debug, Clone, Copy)]
struct Edit {
    level: u8,
    path: usize,
    op: u8,
    pick: usize,
    junk: u8,
}

fn edit() -> impl Strategy<Value = Edit> {
    (
        any::<u8>(),
        any::<usize>(),
        any::<u8>(),
        any::<usize>(),
        any::<u8>(),
    )
        .prop_map(|(level, path, op, pick, junk)| Edit {
            level,
            path,
            op,
            pick,
            junk,
        })
}

impl Edit {
    fn apply(&self, image: &mut Raw) {
        self.apply_at(image, self.level % 3);
    }

    /// Edits `target`, or first goes `levels` down: into a data section,
    /// then into one item's descriptor.
    fn apply_at(&self, target: &mut Raw, levels: u8) {
        let entries = target.entries().expect("opened");
        if levels > 0 {
            let maps: Vec<usize> = (0..entries.len())
                .filter(|&i| {
                    matches!(entries[i].1, Raw::Map(_))
                        && (entries[i].0.ends_with("_data") || !entries[i].0.contains('_'))
                })
                .collect();
            if !maps.is_empty() {
                let at = maps[self.path % maps.len()];
                return self.apply_at(&mut entries[at].1, levels - 1);
            }
        }
        let junk = Raw::Value(junk(self.junk));
        let at = self.pick % entries.len().max(1);
        match self.op % 7 {
            0 if !entries.is_empty() => {
                entries.remove(at);
            }
            1 if !entries.is_empty() => entries[at].1 = junk,
            2 => {
                let key = ["surprise", "aardvark", "zebra"][usize::from(self.junk % 3)];
                entries.insert(at.min(entries.len()), (key.into(), junk));
            }
            3 if !entries.is_empty() => {
                // A duplicate after the original: the junk wins.
                let key = entries[at].0.clone();
                entries.insert(at + 1, (key, junk));
            }
            4 if !entries.is_empty() => {
                // A duplicate before the original: the original wins.
                let key = entries[at].0.clone();
                entries.insert(at, (key, junk));
            }
            5 => entries.reverse(),
            _ if !entries.is_empty() => {
                // The same entry twice: harmless.
                let twin = entries[at].clone();
                entries.insert(at, twin);
            }
            _ => {}
        }
    }
}

fn reference(bytes: &[u8], policy: AdmissionPolicy) -> Result<MromObject, MromError> {
    wire::decode(bytes)
        .map_err(|e| MromError::BadImage(e.to_string()))
        .and_then(|v| MromObject::from_image_value_with_policy(&v, policy))
}

/// Every method analyzed on its own, with no table memo involved: what
/// `analyze()` must report.
fn uncached_findings(obj: &MromObject) -> Vec<Diagnostic> {
    obj.all_methods()
        .flat_map(|(name, m)| obj.analyze_method(name, m))
        .collect()
}

/// The same outcome down to diagnostics, findings, effects and bounds.
fn agree(
    got: Result<MromObject, MromError>,
    want: &Result<MromObject, MromError>,
    label: &str,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(mut got), Ok(want)) => {
            let mut want = want.clone();
            prop_assert_eq!(&got, &want, "{} object", label);
            prop_assert_eq!(got.analyze(), want.analyze(), "{} findings", label);
            prop_assert_eq!(got.analyze(), uncached_findings(&got), "{} memo", label);
            prop_assert_eq!(got.effects(), want.effects(), "{} effects", label);
            prop_assert_eq!(&*got.effects(), &object_effects(&got), "{} solve", label);
            let bounds = |o: &MromObject| -> Vec<Option<u64>> {
                o.all_methods()
                    .filter_map(|(_, m)| match m.body() {
                        MethodBody::Script(p) => Some(analyze_program(p).static_fuel),
                        _ => None,
                    })
                    .collect()
            };
            prop_assert_eq!(bounds(&got), bounds(&want), "{} fuel bounds", label);
        }
        (got, want) => prop_assert_eq!(got.as_ref().err(), want.as_ref().err(), "{}", label),
    }
    Ok(())
}

/// Every decoder agrees with the reference on `image`: a cold table, the
/// same table again, a warm one that holds `seen_image`'s section, one
/// that evicted it, and the table-free decoder.
fn all_decoders_agree(
    image: &[u8],
    seen_image: &[u8],
    policy: AdmissionPolicy,
    gen: &mut IdGenerator,
) -> Result<(), TestCaseError> {
    let want = reference(image, policy);
    // A Strict refusal lists exactly the uncached findings.
    if let (Err(MromError::AdmissionRejected { diagnostics, .. }), Ok(obj)) =
        (&want, reference(image, AdmissionPolicy::Off))
    {
        prop_assert_eq!(diagnostics, &uncached_findings(&obj));
    }

    let mut cold = runtime(policy);
    agree(cold.unpack_image(image), &want, "cold")?;
    // The same runtime again: its table now holds whatever decoded,
    // including a section whose object admission rejected.
    agree(cold.unpack_image(image), &want, "resubmitted")?;

    let mut warm = runtime(policy);
    let _ = warm.unpack_image(seen_image);
    agree(warm.unpack_image(image), &want, "warm")?;

    let mut evicted = runtime(policy);
    let _ = evicted.unpack_image(seen_image);
    for i in 0..=CODE_TABLE_ENTRIES {
        let filler = ObjectBuilder::new(gen.next_id())
            .fixed_method(
                &format!("f{i}"),
                Method::public(MethodBody::script("return 1;").unwrap()),
            )
            .build();
        evicted
            .unpack_image(&filler.image_bytes().unwrap())
            .unwrap();
    }
    agree(evicted.unpack_image(image), &want, "evicted")?;

    agree(
        MromObject::from_image_with_policy(image, policy),
        &want,
        "table-free decoder",
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unpack_agrees_with_the_reference_decoder(
        spec in object_spec(),
        how in any::<u8>(),
        related in any::<u8>(),
        at in any::<usize>(),
        bit in any::<u8>(),
        pick in any::<u8>(),
    ) {
        let mut gen = IdGenerator::new(NodeId(0x7ab));
        let subject = build(&spec, &mut gen);
        let seen = build(&variant(&spec, related), &mut gen);
        let image = mutate(&subject.image_bytes().unwrap(), how, at, bit);
        all_decoders_agree(&image, &seen.image_bytes().unwrap(), policy(pick), &mut gen)?;
    }

    #[test]
    fn hostile_images_fail_alike(
        spec in object_spec(),
        edits in prop::collection::vec(edit(), 1..3),
        pick in any::<u8>(),
    ) {
        let mut gen = IdGenerator::new(NodeId(0x7ad));
        let subject = build(&spec, &mut gen);
        let mut image = Raw::of(&subject.image_value().unwrap(), 3);
        for edit in &edits {
            edit.apply(&mut image);
        }
        let image = image.bytes();
        all_decoders_agree(&image, &subject.image_bytes().unwrap(), policy(pick), &mut gen)?;
    }

    #[test]
    fn image_bytes_match_the_reference_encoder(
        spec in object_spec(),
        native in 0..(NAMES.len() * 3),
    ) {
        let mut gen = IdGenerator::new(NodeId(0x7ac));
        let obj = build(&spec, &mut gen);
        let want = obj.image_value().map(|v| wire::encode(&v));
        prop_assert!(want.is_ok());
        prop_assert_eq!(obj.image_bytes(), want);

        // A native body in the fixed section, the extensible one, or both:
        // both encoders refuse, naming the same item.
        let name = NAMES[native % NAMES.len()];
        let rooted = || Method::public(MethodBody::native(|_, _| Ok(Value::Null)));
        let mut b = ObjectBuilder::new(gen.next_id());
        for (i, m) in &spec.fixed {
            if NAMES[*i] != name {
                b = b.fixed_method(NAMES[*i], m.build());
            }
        }
        b = match native / NAMES.len() {
            0 => b.fixed_method(name, rooted()),
            1 => b.ext_method(name, rooted()),
            _ => b.fixed_method(name, rooted()).ext_method("x", rooted()),
        };
        let obj = b.build();
        let got = obj.image_bytes();
        prop_assert!(matches!(got, Err(MromError::NotMobile { .. })), "{:?}", got);
        prop_assert_eq!(got.err(), obj.image_value().err());
    }
}

/// An object with one data item per ACL variant and value kind, both
/// sections populated and a tower.
fn rich_spec() -> ObjectSpec {
    let items = (0u8..9)
        .map(|i| ItemSpec {
            value: i,
            n: i64::from(i) * 37 - 100,
            read: i,
            write: i + 2,
            constraint: match i {
                2 => 3, // exact:int
                4 => 2,
                _ => 0,
            },
            ext: i % 3 == 0,
        })
        .collect();
    let m = |body, acl| MethodSpec {
        body,
        pre: None,
        acl,
    };
    ObjectSpec {
        fixed: [(0, m(0, 0))].into(),
        ext: [(2, m(3, 0))].into(),
        fixed_data: vec![(true, 4)],
        ext_data: 9,
        items,
        payload: 40,
        towered: true,
        meta: 1,
    }
}

/// A data item whose constraint `Null` cannot meet (`exact:int`,
/// `coerce:int`) travels: every decoder rebuilds it, cold or warm.
#[test]
fn constrained_items_round_trip_through_every_decoder() {
    let mut gen = IdGenerator::new(NodeId(0x7af));
    let constrained = |v, c| DataItem::new(Value::Int(v)).with_constraint(c).unwrap();
    let obj = ObjectBuilder::new(gen.next_id())
        .fixed_data("n", constrained(3, TypeConstraint::Exact(ValueKind::Int)))
        .ext_data("m", constrained(4, TypeConstraint::Coerce(ValueKind::Int)))
        .fixed_method(
            "get",
            Method::public(MethodBody::script("return self.get(\"n\");").unwrap()),
        )
        .build();
    let image = obj.image_bytes().unwrap();
    assert_eq!(MromObject::from_image(&image).as_ref(), Ok(&obj));
    let value = obj.image_value().unwrap();
    assert_eq!(MromObject::from_image_value(&value).as_ref(), Ok(&obj));
    let mut rt = runtime(AdmissionPolicy::Off);
    assert_eq!(rt.unpack_image(&image).as_ref(), Ok(&obj), "cold");
    assert_eq!(rt.unpack_image(&image).as_ref(), Ok(&obj), "warm");
    for policy in [AdmissionPolicy::Off, AdmissionPolicy::Strict] {
        all_decoders_agree(&image, &image, policy, &mut gen).unwrap();
    }
}

/// Every single hostile edit at every place, and every pair of edits
/// within one descriptor or within the top-level map: the direct decoder,
/// hitting the code table or not, fails (or succeeds) exactly as the
/// reference does, so the first fault in the reference's order wins.
#[test]
fn every_edit_and_pair_of_edits_decodes_alike() {
    let mut gen = IdGenerator::new(NodeId(0x7ae));
    let subject = build(&rich_spec(), &mut gen);
    let base = Raw::of(&subject.image_value().unwrap(), 3);
    let mut warm = runtime(AdmissionPolicy::Off);
    warm.unpack_image(&subject.image_bytes().unwrap()).unwrap();
    let mut check = |edits: &[Edit]| {
        let mut raw = base.clone();
        for edit in edits {
            edit.apply(&mut raw);
        }
        let image = raw.bytes();
        let want = reference(&image, AdmissionPolicy::Off);
        assert_eq!(warm.unpack_image(&image), want, "warm, {edits:?}");
        let table_free = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off);
        assert_eq!(table_free, want, "table-free, {edits:?}");
        want.is_ok()
    };
    let mut outcomes = [0usize; 2];
    // (The top level has no path to take.)
    let places = (0..1)
        .map(|path| (0, path))
        .chain((1..3).flat_map(|l| (0..6).map(move |p| (l, p))));
    for (level, path) in places {
        {
            for op in 0..7 {
                for pick in 0..8 {
                    for junk in 0..10 {
                        let one = Edit {
                            level,
                            path,
                            op,
                            pick,
                            junk,
                        };
                        outcomes[usize::from(check(&[one]))] += 1;
                    }
                }
            }
        }
    }
    for level in [0, 2] {
        for path in [0, 5] {
            for (op_a, op_b) in [(1, 1), (1, 2), (2, 2), (3, 1)] {
                for (pick_a, pick_b) in (0..6).flat_map(|a| (0..6).map(move |b| (a, b))) {
                    for (junk_a, junk_b) in [(1, 4), (4, 6), (2, 5), (0, 3)] {
                        let a = Edit {
                            level,
                            path,
                            op: op_a,
                            pick: pick_a,
                            junk: junk_a,
                        };
                        let b = Edit {
                            op: op_b,
                            pick: pick_b,
                            junk: junk_b,
                            ..a
                        };
                        outcomes[usize::from(check(&[a, b]))] += 1;
                    }
                }
            }
        }
    }
    // Both outcomes occur, so the edits are neither all fatal nor all
    // harmless.
    assert!(outcomes[0] > 1000 && outcomes[1] > 500, "{outcomes:?}");
}
