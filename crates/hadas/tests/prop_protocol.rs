//! Property tests for the HADAS wire protocol: every message round-trips;
//! the decoder is total on hostile input; and the direct codec agrees with
//! the reference `Value`-map codec in `protocol_oracle` — byte for byte on
//! output, and Ok-for-Ok (with equal messages) or Err-for-Err on input.

mod protocol_oracle;

use hadas::{ProtocolMsg, UpdateOp};
use mrom_value::{wire, NodeId, ObjectId, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use protocol_oracle::{oracle_decode, oracle_encode, oracle_to_value};

fn arb_id() -> impl Strategy<Value = ObjectId> {
    (any::<u64>(), any::<u32>(), any::<u32>())
        .prop_map(|(n, s, e)| ObjectId::from_parts(NodeId(n), s, e))
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        ".{0,12}".prop_map(Value::Str),
        arb_id().prop_map(Value::ObjectRef),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::btree_map(".{0,8}", inner, 0..4).prop_map(Value::Map),
        ]
    })
}

fn arb_update_op() -> impl Strategy<Value = UpdateOp> {
    prop_oneof![
        (".{1,10}", arb_value()).prop_map(|(n, v)| UpdateOp::AddMethod(n, v)),
        (".{1,10}", arb_value()).prop_map(|(n, v)| UpdateOp::SetMethod(n, v)),
        ".{1,10}".prop_map(UpdateOp::DeleteMethod),
        (".{1,10}", arb_value()).prop_map(|(n, v)| UpdateOp::AddData(n, v)),
        (".{1,10}", arb_value()).prop_map(|(n, v)| UpdateOp::SetData(n, v)),
        ".{1,10}".prop_map(UpdateOp::InstallMetaInvoke),
        Just(UpdateOp::UninstallMetaInvoke),
    ]
}

fn arb_msg() -> impl Strategy<Value = ProtocolMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), arb_id()).prop_map(|(r, n, i)| ProtocolMsg::LinkReq {
            req_id: r,
            from: NodeId(n),
            from_ioo: i,
        }),
        (
            any::<u64>(),
            arb_id(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(r, i, img)| ProtocolMsg::LinkAck {
                req_id: r,
                ioo: i,
                ambassador_image: img,
            }),
        (any::<u64>(), any::<u64>(), arb_id(), ".{0,16}").prop_map(|(r, n, i, a)| {
            ProtocolMsg::ImportReq {
                req_id: r,
                from: NodeId(n),
                from_ioo: i,
                apo_name: a,
            }
        }),
        (
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..64),
            arb_id(),
            prop::collection::vec(".{0,10}".prop_map(String::from), 0..4)
        )
            .prop_map(|(r, img, o, ms)| ProtocolMsg::ExportAck {
                req_id: r,
                ambassador_image: img,
                origin_apo: o,
                remote_methods: ms,
            }),
        (any::<u64>(), ".{0,40}").prop_map(|(r, reason)| ProtocolMsg::Error { req_id: r, reason }),
        (
            any::<u64>(),
            arb_id(),
            arb_id(),
            ".{0,12}",
            prop::collection::vec(arb_value(), 0..3),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(r, c, t, m, a, tr, ps)| ProtocolMsg::InvokeReq {
                req_id: r,
                caller: c,
                target: t,
                method: m,
                args: a,
                trace: tr,
                parent_span: ps,
            }),
        (
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..64),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(r, img, tr, ps)| ProtocolMsg::MoveObject {
                req_id: r,
                image: img,
                trace: tr,
                parent_span: ps,
            }),
        (any::<u64>(), arb_id()).prop_map(|(r, a)| ProtocolMsg::MoveAck {
            req_id: r,
            adopted: a,
        }),
        (any::<u64>(), arb_value()).prop_map(|(r, v)| ProtocolMsg::InvokeResp {
            req_id: r,
            result: v,
        }),
        (
            any::<u64>(),
            arb_id(),
            arb_id(),
            prop::collection::vec(arb_update_op(), 0..4)
        )
            .prop_map(|(r, o, t, ops)| ProtocolMsg::UpdateReq {
                req_id: r,
                origin: o,
                target: t,
                ops,
            }),
        (any::<u64>(), any::<u16>()).prop_map(|(r, a)| ProtocolMsg::UpdateAck {
            req_id: r,
            applied: a as usize,
        }),
        (any::<u64>(), arb_id()).prop_map(|(r, o)| ProtocolMsg::QueryObject {
            req_id: r,
            object: o,
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(r, h)| ProtocolMsg::QueryAck {
            req_id: r,
            hosted: h,
        }),
    ]
}

/// The documented wire tag of a map (see the layout table in `wire`).
const TAG_MAP: u8 = 0x07;

/// Both decoders accept `bytes` and agree on the message, or both refuse.
/// Messages are compared through the reference encoding, so a NaN float
/// in a value compares bit for bit.
fn decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    match (ProtocolMsg::decode(bytes), oracle_decode(bytes)) {
        (Ok(direct), Ok(oracle)) => {
            prop_assert_eq!(oracle_encode(&direct), oracle_encode(&oracle));
        }
        (Err(_), Err(_)) => {}
        (direct, oracle) => prop_assert!(
            false,
            "decoders disagree on {bytes:02x?}: direct {direct:?}, oracle {oracle:?}"
        ),
    }
    Ok(())
}

/// A message's map entries as `(key, encoded value)` in canonical order.
fn entries(msg: &ProtocolMsg) -> Vec<(String, Vec<u8>)> {
    let Value::Map(m) = oracle_to_value(msg) else {
        unreachable!("messages lower to maps")
    };
    m.into_iter()
        .map(|(k, v)| {
            let mut body = Vec::new();
            wire::encode_value(&v, &mut body);
            (k, body)
        })
        .collect()
}

/// Frames entries as a map by hand, in the given order, duplicates and all.
fn frame(entries: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut out = wire::MAGIC.to_vec();
    out.push(wire::VERSION);
    out.push(TAG_MAP);
    wire::write_varint(entries.len() as u64, &mut out);
    for (k, body) in entries {
        wire::write_str(k, &mut out);
        out.extend_from_slice(body);
    }
    out
}

/// `n` nested one-item lists around a `Null`, as a value body.
fn nested_lists(n: usize) -> Vec<u8> {
    let mut body = [0x06, 0x01].repeat(n);
    body.push(0x00);
    body
}

/// Value bodies an entry may hold, valid and invalid. An entry's value
/// sits at depth 1, so 127 nested lists reach the depth budget exactly and
/// 128 exceed it.
fn decoy(pick: u64) -> Vec<u8> {
    let mut gen = mrom_value::IdGenerator::new(NodeId(3));
    let valid = |v: Value| {
        let mut body = Vec::new();
        wire::encode_value(&v, &mut body);
        body
    };
    match pick % 14 {
        0 => valid(Value::Int(-5)),
        1 => valid(Value::from("decoy")),
        2 => valid(Value::Bytes(vec![1, 2])),
        3 => valid(Value::Null),
        4 => valid(Value::Bool(true)),
        5 => valid(Value::ObjectRef(gen.next_id())),
        6 => valid(Value::map([("k", Value::list([Value::Float(f64::NAN)]))])),
        7 => nested_lists(wire::MAX_DEPTH - 1),
        8 => nested_lists(wire::MAX_DEPTH),
        9 => vec![0x04, 0x01, 0xff], // string that is not UTF-8
        10 => vec![0x01, 0x07],      // bool byte other than 0/1
        11 => vec![0x7e],            // unknown tag
        12 => vec![0x07, 0x01, 0x01, 0xff, 0x00], // map key that is not UTF-8
        _ => vec![0x06, 0xff, 0xff, 0xff, 0x0f], // list count past the buffer
    }
}

/// splitmix64: drives the frame mutations from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Re-frames a message's entries with a seeded mix of the freedoms the
/// encoding allows: shuffled order, missing trace fields, duplicate keys
/// (a decoy before or after the real value), unknown keys holding valid,
/// deep or invalid values, and now and then a dropped or retyped entry.
fn mutated_frame(msg: &ProtocolMsg, seed: u64) -> Vec<u8> {
    let mut rng = Mix(seed);
    let mut e = entries(msg);
    if rng.coin() {
        e.retain(|(k, _)| k != "trace" && k != "parent_span" || rng.coin());
    }
    if rng.coin() {
        for (k, body) in &mut e {
            if (k == "trace" || k == "parent_span") && rng.coin() {
                *body = decoy(rng.next());
            }
        }
    }
    for _ in 0..rng.below(3) {
        let key = e[rng.below(e.len())].0.clone();
        let at = rng.below(e.len() + 1);
        e.insert(at, (key, decoy(rng.next())));
    }
    for _ in 0..rng.below(3) {
        let key = ["zz_unknown", "", "opx", "image2"][rng.below(4)].to_owned();
        let at = rng.below(e.len() + 1);
        e.insert(at, (key, decoy(rng.next())));
    }
    if rng.below(8) == 0 {
        e.remove(rng.below(e.len()));
    }
    for i in (1..e.len()).rev() {
        e.swap(i, rng.below(i + 1));
    }
    frame(&e)
}

proptest! {
    /// Every protocol message round-trips bit-exactly.
    #[test]
    fn messages_round_trip(msg in arb_msg()) {
        let bytes = msg.encode();
        let back = ProtocolMsg::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(back.req_id(), msg.req_id());
    }

    /// Truncated messages are rejected, never panic.
    #[test]
    fn truncations_fail_cleanly(msg in arb_msg(), frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(ProtocolMsg::decode(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_is_total(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = ProtocolMsg::decode(&data);
    }

    /// Bit flips either fail or decode to *some* message — never a panic.
    #[test]
    fn bitflips_are_total(msg in arb_msg(), bit in any::<u32>()) {
        let mut bytes = msg.encode();
        let idx = (bit as usize) % (bytes.len() * 8);
        bytes[idx / 8] ^= 1 << (idx % 8);
        let _ = ProtocolMsg::decode(&bytes);
    }

    /// Update ops round-trip through their value form.
    #[test]
    fn update_ops_round_trip(op in arb_update_op()) {
        prop_assert_eq!(UpdateOp::from_value(&op.to_value()).expect("decodes"), op);
    }
}

proptest! {
    // The differential battery: cheap per case, so run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The direct encoder writes exactly the bytes of the reference
    /// value-map encoding.
    #[test]
    fn encode_matches_reference(msg in arb_msg()) {
        prop_assert_eq!(msg.encode(), oracle_encode(&msg));
    }

    /// Decoders agree on arbitrary bytes, framed or not.
    #[test]
    fn decoders_agree_on_random_bytes(
        data in prop::collection::vec(any::<u8>(), 0..200),
        framed in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if framed {
            bytes.extend_from_slice(&wire::MAGIC);
            bytes.push(wire::VERSION);
            bytes.push(TAG_MAP);
        }
        bytes.extend_from_slice(&data);
        decoders_agree(&bytes)?;
    }

    /// Decoders agree on every single-bit corruption, truncation and
    /// extension of a real encoding.
    #[test]
    fn decoders_agree_on_corruption(msg in arb_msg(), bit in any::<u32>(), frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        let mut flipped = bytes.clone();
        let idx = (bit as usize) % (bytes.len() * 8);
        flipped[idx / 8] ^= 1 << (idx % 8);
        decoders_agree(&flipped)?;
        decoders_agree(&bytes[..((bytes.len() as f64) * frac) as usize])?;
        let mut extended = bytes;
        extended.push(bit as u8);
        decoders_agree(&extended)?;
    }

    /// Decoders agree on hand-framed maps using every freedom the encoding
    /// allows, valid or not.
    #[test]
    fn decoders_agree_on_hand_framed_maps(msg in arb_msg(), seed in any::<u64>()) {
        decoders_agree(&mutated_frame(&msg, seed))?;
    }
}

fn sample_invoke(args: Vec<Value>) -> ProtocolMsg {
    let mut gen = mrom_value::IdGenerator::new(NodeId(9));
    ProtocolMsg::InvokeReq {
        req_id: 11,
        caller: gen.next_id(),
        target: gen.next_id(),
        method: "bump".into(),
        args,
        trace: 5,
        parent_span: 6,
    }
}

#[test]
fn decoder_accepts_any_order_last_duplicate_and_unknown_keys() {
    let msg = sample_invoke(vec![Value::Int(1)]);
    let canonical = entries(&msg);
    // Reversed order.
    let mut e = canonical.clone();
    e.reverse();
    assert_eq!(ProtocolMsg::decode(&frame(&e)).unwrap(), msg);
    // A stale duplicate before the real value loses to it.
    let mut e = canonical.clone();
    e.insert(0, ("method".into(), decoy(1)));
    e.insert(0, ("req_id".into(), decoy(1)));
    assert_eq!(ProtocolMsg::decode(&frame(&e)).unwrap(), msg);
    // Unknown keys are ignored, even deep at the depth budget.
    let mut e = canonical.clone();
    e.push(("zz_unknown".into(), nested_lists(wire::MAX_DEPTH - 1)));
    e.insert(0, ("".into(), decoy(6)));
    assert_eq!(ProtocolMsg::decode(&frame(&e)).unwrap(), msg);
    // Missing or non-integer trace fields read as "no active trace".
    let mut e = canonical.clone();
    e.retain(|(k, _)| k != "trace");
    e.iter_mut()
        .filter(|(k, _)| k == "parent_span")
        .for_each(|(_, body)| *body = decoy(1));
    let ProtocolMsg::InvokeReq {
        trace, parent_span, ..
    } = ProtocolMsg::decode(&frame(&e)).unwrap()
    else {
        panic!("wrong variant")
    };
    assert_eq!((trace, parent_span), (0, 0));
}

#[test]
fn decoder_rejects_malformed_bytes_in_ignored_or_overwritten_values() {
    let canonical = entries(&sample_invoke(vec![]));
    for bad in [9, 10, 11, 12, 13, 8] {
        // Inside an unknown key.
        let mut e = canonical.clone();
        e.push(("zz_unknown".into(), decoy(bad)));
        let bytes = frame(&e);
        assert!(ProtocolMsg::decode(&bytes).is_err(), "decoy {bad} unknown");
        assert!(oracle_decode(&bytes).is_err());
        // Inside a value a later duplicate overwrites.
        let mut e = canonical.clone();
        e.insert(0, ("method".into(), decoy(bad)));
        let bytes = frame(&e);
        assert!(
            ProtocolMsg::decode(&bytes).is_err(),
            "decoy {bad} overwritten"
        );
        assert!(oracle_decode(&bytes).is_err());
    }
    // After the map.
    let mut bytes = frame(&canonical);
    bytes.push(0x00);
    assert!(ProtocolMsg::decode(&bytes).is_err(), "trailing byte");
    assert!(oracle_decode(&bytes).is_err());
}

#[test]
fn args_nested_one_level_past_the_depth_budget_are_rejected() {
    // `args` sits at depth 1 and its items at depth 2, so an item wrapped
    // in k lists puts its innermost value at depth 2 + k.
    let nest = |k: usize| {
        let mut v = Value::Int(0);
        for _ in 0..k {
            v = Value::list([v]);
        }
        v
    };
    let at_limit = sample_invoke(vec![nest(wire::MAX_DEPTH - 2)]);
    assert_eq!(ProtocolMsg::decode(&at_limit.encode()).unwrap(), at_limit);
    assert!(oracle_decode(&at_limit.encode()).is_ok());

    let past = sample_invoke(vec![nest(wire::MAX_DEPTH - 1)]);
    let bytes = past.encode();
    assert_eq!(bytes, oracle_encode(&past));
    let err = ProtocolMsg::decode(&bytes).unwrap_err();
    assert_eq!(
        err.to_string(),
        oracle_decode(&bytes).unwrap_err().to_string()
    );
    assert!(err.to_string().contains("depth"), "{err}");
}
