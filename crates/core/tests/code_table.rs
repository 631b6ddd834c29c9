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
//!   variants, rejected sections submitted again, and bit flips and
//!   truncations inside the `fixed_methods` span.
//! * **Encoder.** `image_bytes()` equals `wire::encode(&image_value())`,
//!   and a native body fails both with the same `NotMobile` item.

use std::collections::BTreeMap;

use mrom_core::{
    analyze_program, object_effects, Acl, AdmissionPolicy, DataItem, Diagnostic, InvokeLimits,
    Method, MethodBody, MromError, MromObject, ObjectBuilder, Runtime, CODE_TABLE_ENTRIES,
};
use mrom_value::{wire, IdGenerator, NodeId, Value};
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
    match pick % 3 {
        0 => Acl::Public,
        1 => Acl::Origin,
        _ => Acl::Nobody,
    }
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
        0usize..300,
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(
            |(fixed, ext, fixed_data, ext_data, payload, towered, meta)| ObjectSpec {
                fixed,
                ext,
                fixed_data,
                ext_data,
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
            Acl::Origin
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

/// Applies the byte-level mutation `how` at `at` inside the span.
fn mutate(image: &[u8], how: u8, at: usize, bit: u8) -> Vec<u8> {
    let span = fixed_span(image);
    let pos = span.start + at % span.len();
    match how % 4 {
        0 | 1 => image.to_vec(),
        2 => {
            let mut out = image.to_vec();
            out[pos] ^= 1 << (bit % 8);
            out
        }
        _ => image[..pos].to_vec(),
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
        let policy = policy(pick);
        let mut gen = IdGenerator::new(NodeId(0x7ab));
        let subject = build(&spec, &mut gen);
        let seen = build(&variant(&spec, related), &mut gen);
        let image = mutate(&subject.image_bytes().unwrap(), how, at, bit);
        let seen_image = seen.image_bytes().unwrap();
        let want = reference(&image, policy);
        // A Strict refusal lists exactly the uncached findings.
        if let (Err(MromError::AdmissionRejected { diagnostics, .. }), Ok(obj)) =
            (&want, reference(&image, AdmissionPolicy::Off))
        {
            prop_assert_eq!(diagnostics, &uncached_findings(&obj));
        }

        let cold = runtime(policy);
        agree(cold.unpack_image(&image), &want, "cold")?;
        // The same runtime again: its table now holds whatever decoded,
        // including a section whose object admission rejected.
        agree(cold.unpack_image(&image), &want, "resubmitted")?;

        let warm = runtime(policy);
        let _ = warm.unpack_image(&seen_image);
        agree(warm.unpack_image(&image), &want, "warm")?;

        let evicted = runtime(policy);
        let _ = evicted.unpack_image(&seen_image);
        for i in 0..=CODE_TABLE_ENTRIES {
            let filler = ObjectBuilder::new(gen.next_id())
                .fixed_method(&format!("f{i}"), Method::public(MethodBody::script("return 1;").unwrap()))
                .build();
            evicted.unpack_image(&filler.image_bytes().unwrap()).unwrap();
        }
        agree(evicted.unpack_image(&image), &want, "evicted")?;

        prop_assert_eq!(
            MromObject::from_image_with_policy(&image, policy).map_err(|e| e.to_string()),
            want.clone().map_err(|e| e.to_string()),
            "table-free decoder"
        );
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
