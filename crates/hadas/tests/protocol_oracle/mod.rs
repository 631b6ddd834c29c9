//! The reference protocol codec: a message lowered to a `Value` map and
//! encoded with `wire::encode`, decoded with `wire::decode` and rebuilt from
//! that map. `ProtocolMsg::encode`/`decode` write and read the same bytes
//! directly; the differential tests in `prop_protocol.rs` hold them to this
//! reference, byte for byte on output and Ok-for-Ok on input.

use hadas::{HadasError, ProtocolMsg, UpdateOp};
use mrom_value::{wire, NodeId, ObjectId, Value};

fn bad(detail: &str) -> HadasError {
    HadasError::BadMessage(detail.to_owned())
}

/// Lowers a message to the value map its wire encoding is defined by.
pub fn oracle_to_value(msg: &ProtocolMsg) -> Value {
    match msg {
        ProtocolMsg::LinkReq {
            req_id,
            from,
            from_ioo,
        } => Value::map([
            ("op", Value::from("link_req")),
            ("req_id", Value::Int(*req_id as i64)),
            ("from", Value::Int(from.0 as i64)),
            ("from_ioo", Value::ObjectRef(*from_ioo)),
        ]),
        ProtocolMsg::LinkAck {
            req_id,
            ioo,
            ambassador_image,
        } => Value::map([
            ("op", Value::from("link_ack")),
            ("req_id", Value::Int(*req_id as i64)),
            ("ioo", Value::ObjectRef(*ioo)),
            ("image", Value::Bytes(ambassador_image.clone())),
        ]),
        ProtocolMsg::ImportReq {
            req_id,
            from,
            from_ioo,
            apo_name,
        } => Value::map([
            ("op", Value::from("import_req")),
            ("req_id", Value::Int(*req_id as i64)),
            ("from", Value::Int(from.0 as i64)),
            ("from_ioo", Value::ObjectRef(*from_ioo)),
            ("apo", Value::Str(apo_name.clone())),
        ]),
        ProtocolMsg::ExportAck {
            req_id,
            ambassador_image,
            origin_apo,
            remote_methods,
        } => Value::map([
            ("op", Value::from("export_ack")),
            ("req_id", Value::Int(*req_id as i64)),
            ("image", Value::Bytes(ambassador_image.clone())),
            ("origin_apo", Value::ObjectRef(*origin_apo)),
            (
                "remote_methods",
                Value::List(
                    remote_methods
                        .iter()
                        .map(|m| Value::Str(m.clone()))
                        .collect(),
                ),
            ),
        ]),
        ProtocolMsg::Error { req_id, reason } => Value::map([
            ("op", Value::from("error")),
            ("req_id", Value::Int(*req_id as i64)),
            ("reason", Value::Str(reason.clone())),
        ]),
        ProtocolMsg::InvokeReq {
            req_id,
            caller,
            target,
            method,
            args,
            trace,
            parent_span,
        } => Value::map([
            ("op", Value::from("invoke_req")),
            ("req_id", Value::Int(*req_id as i64)),
            ("caller", Value::ObjectRef(*caller)),
            ("target", Value::ObjectRef(*target)),
            ("method", Value::Str(method.clone())),
            ("args", Value::List(args.clone())),
            ("trace", Value::Int(*trace as i64)),
            ("parent_span", Value::Int(*parent_span as i64)),
        ]),
        ProtocolMsg::InvokeResp { req_id, result } => Value::map([
            ("op", Value::from("invoke_resp")),
            ("req_id", Value::Int(*req_id as i64)),
            ("result", result.clone()),
        ]),
        ProtocolMsg::UpdateReq {
            req_id,
            origin,
            target,
            ops,
        } => Value::map([
            ("op", Value::from("update_req")),
            ("req_id", Value::Int(*req_id as i64)),
            ("origin", Value::ObjectRef(*origin)),
            ("target", Value::ObjectRef(*target)),
            (
                "ops",
                Value::List(ops.iter().map(UpdateOp::to_value).collect()),
            ),
        ]),
        ProtocolMsg::UpdateAck { req_id, applied } => Value::map([
            ("op", Value::from("update_ack")),
            ("req_id", Value::Int(*req_id as i64)),
            ("applied", Value::Int(*applied as i64)),
        ]),
        ProtocolMsg::MoveObject {
            req_id,
            image,
            trace,
            parent_span,
        } => Value::map([
            ("op", Value::from("move_object")),
            ("req_id", Value::Int(*req_id as i64)),
            ("image", Value::Bytes(image.clone())),
            ("trace", Value::Int(*trace as i64)),
            ("parent_span", Value::Int(*parent_span as i64)),
        ]),
        ProtocolMsg::MoveAck { req_id, adopted } => Value::map([
            ("op", Value::from("move_ack")),
            ("req_id", Value::Int(*req_id as i64)),
            ("adopted", Value::ObjectRef(*adopted)),
        ]),
        ProtocolMsg::QueryObject { req_id, object } => Value::map([
            ("op", Value::from("query_object")),
            ("req_id", Value::Int(*req_id as i64)),
            ("object", Value::ObjectRef(*object)),
        ]),
        ProtocolMsg::QueryAck { req_id, hosted } => Value::map([
            ("op", Value::from("query_ack")),
            ("req_id", Value::Int(*req_id as i64)),
            ("hosted", Value::Bool(*hosted)),
        ]),
    }
}

/// Rebuilds a message from its value form.
pub fn oracle_from_value(v: &Value) -> Result<ProtocolMsg, HadasError> {
    let m = v.as_map().ok_or_else(|| bad("message must be a map"))?;
    let op = m
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing op"))?;
    let req_id = m
        .get("req_id")
        .and_then(Value::as_int)
        .ok_or_else(|| bad("missing req_id"))? as u64;
    let get_ref = |key: &str| -> Result<ObjectId, HadasError> {
        m.get(key)
            .and_then(Value::as_object_ref)
            .ok_or_else(|| bad(&format!("missing object ref {key:?}")))
    };
    let get_str = |key: &str| -> Result<String, HadasError> {
        m.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| bad(&format!("missing string {key:?}")))
    };
    let get_bytes = |key: &str| -> Result<Vec<u8>, HadasError> {
        m.get(key)
            .and_then(Value::as_bytes)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| bad(&format!("missing bytes {key:?}")))
    };
    let get_node = |key: &str| -> Result<NodeId, HadasError> {
        m.get(key)
            .and_then(Value::as_int)
            .map(|n| NodeId(n as u64))
            .ok_or_else(|| bad(&format!("missing node {key:?}")))
    };
    // Trace fields are carried by newer peers only; absent means "no
    // active trace", so pre-trace buffers still decode.
    let get_u64_or_zero =
        |key: &str| -> u64 { m.get(key).and_then(Value::as_int).unwrap_or(0) as u64 };
    Ok(match op {
        "link_req" => ProtocolMsg::LinkReq {
            req_id,
            from: get_node("from")?,
            from_ioo: get_ref("from_ioo")?,
        },
        "link_ack" => ProtocolMsg::LinkAck {
            req_id,
            ioo: get_ref("ioo")?,
            ambassador_image: get_bytes("image")?,
        },
        "import_req" => ProtocolMsg::ImportReq {
            req_id,
            from: get_node("from")?,
            from_ioo: get_ref("from_ioo")?,
            apo_name: get_str("apo")?,
        },
        "export_ack" => ProtocolMsg::ExportAck {
            req_id,
            ambassador_image: get_bytes("image")?,
            origin_apo: get_ref("origin_apo")?,
            remote_methods: m
                .get("remote_methods")
                .and_then(Value::as_list)
                .ok_or_else(|| bad("missing remote_methods"))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| bad("remote_methods entries must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        },
        "error" => ProtocolMsg::Error {
            req_id,
            reason: get_str("reason")?,
        },
        "invoke_req" => ProtocolMsg::InvokeReq {
            req_id,
            caller: get_ref("caller")?,
            target: get_ref("target")?,
            method: get_str("method")?,
            args: m
                .get("args")
                .and_then(Value::as_list)
                .ok_or_else(|| bad("missing args"))?
                .to_vec(),
            trace: get_u64_or_zero("trace"),
            parent_span: get_u64_or_zero("parent_span"),
        },
        "invoke_resp" => ProtocolMsg::InvokeResp {
            req_id,
            result: m
                .get("result")
                .cloned()
                .ok_or_else(|| bad("missing result"))?,
        },
        "update_req" => ProtocolMsg::UpdateReq {
            req_id,
            origin: get_ref("origin")?,
            target: get_ref("target")?,
            ops: m
                .get("ops")
                .and_then(Value::as_list)
                .ok_or_else(|| bad("missing ops"))?
                .iter()
                .map(UpdateOp::from_value)
                .collect::<Result<Vec<_>, _>>()?,
        },
        "update_ack" => ProtocolMsg::UpdateAck {
            req_id,
            applied: m
                .get("applied")
                .and_then(Value::as_int)
                .ok_or_else(|| bad("missing applied"))? as usize,
        },
        "move_object" => ProtocolMsg::MoveObject {
            req_id,
            image: get_bytes("image")?,
            trace: get_u64_or_zero("trace"),
            parent_span: get_u64_or_zero("parent_span"),
        },
        "move_ack" => ProtocolMsg::MoveAck {
            req_id,
            adopted: get_ref("adopted")?,
        },
        "query_object" => ProtocolMsg::QueryObject {
            req_id,
            object: get_ref("object")?,
        },
        "query_ack" => ProtocolMsg::QueryAck {
            req_id,
            hosted: m
                .get("hosted")
                .and_then(Value::as_bool)
                .ok_or_else(|| bad("missing hosted"))?,
        },
        other => return Err(bad(&format!("unknown op {other:?}"))),
    })
}

/// Encodes a message through its value map.
pub fn oracle_encode(msg: &ProtocolMsg) -> Vec<u8> {
    wire::encode(&oracle_to_value(msg))
}

/// Decodes a message through its value map.
pub fn oracle_decode(bytes: &[u8]) -> Result<ProtocolMsg, HadasError> {
    let v = wire::decode(bytes).map_err(|e| bad(&e.to_string()))?;
    oracle_from_value(&v)
}
