//! The HADAS wire protocol.
//!
//! Every cross-site exchange is a [`ProtocolMsg`] encoded as one framed
//! map of the standard wire format, so protocol traffic and mobile objects
//! share one self-contained encoding. The codec writes and reads that map
//! straight from and into the message's fields ([`wire::MapWriter`],
//! [`wire::MapReader`]) without building a [`Value`] tree.

use mrom_value::wire::{self, MapReader, MapWriter};
use mrom_value::{NodeId, ObjectId, Value, ValueError};

use crate::error::HadasError;

/// One structural update pushed by an origin APO to a deployed Ambassador
/// (the dynamic-update mechanism of §5).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// `addMethod(name, descriptor)`.
    AddMethod(String, Value),
    /// `setMethod(name, descriptor)`.
    SetMethod(String, Value),
    /// `deleteMethod(name)`.
    DeleteMethod(String),
    /// `addDataItem(name, value)`.
    AddData(String, Value),
    /// Ordinary `set(name, value)`.
    SetData(String, Value),
    /// Push a new meta-invoke level (the database-maintenance move).
    InstallMetaInvoke(String),
    /// Pop the topmost meta-invoke level.
    UninstallMetaInvoke,
}

impl UpdateOp {
    /// Lowers to a tagged list.
    pub fn to_value(&self) -> Value {
        match self {
            UpdateOp::AddMethod(n, d) => {
                Value::list([Value::from("add_method"), Value::Str(n.clone()), d.clone()])
            }
            UpdateOp::SetMethod(n, d) => {
                Value::list([Value::from("set_method"), Value::Str(n.clone()), d.clone()])
            }
            UpdateOp::DeleteMethod(n) => {
                Value::list([Value::from("delete_method"), Value::Str(n.clone())])
            }
            UpdateOp::AddData(n, v) => {
                Value::list([Value::from("add_data"), Value::Str(n.clone()), v.clone()])
            }
            UpdateOp::SetData(n, v) => {
                Value::list([Value::from("set_data"), Value::Str(n.clone()), v.clone()])
            }
            UpdateOp::InstallMetaInvoke(n) => {
                Value::list([Value::from("install_meta_invoke"), Value::Str(n.clone())])
            }
            UpdateOp::UninstallMetaInvoke => Value::list([Value::from("uninstall_meta_invoke")]),
        }
    }

    /// Rebuilds from [`UpdateOp::to_value`] output.
    ///
    /// # Errors
    ///
    /// [`HadasError::BadMessage`].
    pub fn from_value(v: &Value) -> Result<UpdateOp, HadasError> {
        let items = v.as_list().ok_or_else(|| bad("update op must be a list"))?;
        let tag = items
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| bad("update op missing tag"))?;
        let name = |i: usize| -> Result<String, HadasError> {
            items
                .get(i)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| bad("update op missing name"))
        };
        let val = |i: usize| -> Result<Value, HadasError> {
            items
                .get(i)
                .cloned()
                .ok_or_else(|| bad("update op missing value"))
        };
        Ok(match tag {
            "add_method" => UpdateOp::AddMethod(name(1)?, val(2)?),
            "set_method" => UpdateOp::SetMethod(name(1)?, val(2)?),
            "delete_method" => UpdateOp::DeleteMethod(name(1)?),
            "add_data" => UpdateOp::AddData(name(1)?, val(2)?),
            "set_data" => UpdateOp::SetData(name(1)?, val(2)?),
            "install_meta_invoke" => UpdateOp::InstallMetaInvoke(name(1)?),
            "uninstall_meta_invoke" => UpdateOp::UninstallMetaInvoke,
            other => return Err(bad(&format!("unknown update op {other:?}"))),
        })
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolMsg {
    /// Link handshake request: "let our IOOs cooperate".
    LinkReq {
        /// Correlation id.
        req_id: u64,
        /// The requesting site.
        from: NodeId,
        /// The requester's IOO identity.
        from_ioo: ObjectId,
    },
    /// Link acknowledgement carrying an IOO-Ambassador image for the
    /// requester's Vicinity.
    LinkAck {
        /// Correlation id.
        req_id: u64,
        /// The replying site's IOO identity.
        ioo: ObjectId,
        /// Migration image of the IOO Ambassador.
        ambassador_image: Vec<u8>,
    },
    /// Import request naming an APO at the remote site.
    ImportReq {
        /// Correlation id.
        req_id: u64,
        /// The requesting site.
        from: NodeId,
        /// The requester's IOO identity (the principal Export checks).
        from_ioo: ObjectId,
        /// Name of the APO to import.
        apo_name: String,
    },
    /// Successful Export reply carrying the APO Ambassador as data.
    ExportAck {
        /// Correlation id.
        req_id: u64,
        /// Migration image of the freshly instantiated Ambassador.
        ambassador_image: Vec<u8>,
        /// Identity of the origin APO (for the relay path).
        origin_apo: ObjectId,
        /// Methods that did *not* migrate and must be relayed to the
        /// origin.
        remote_methods: Vec<String>,
    },
    /// Any request refused or failed remotely.
    Error {
        /// Correlation id.
        req_id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Remote method invocation request.
    InvokeReq {
        /// Correlation id.
        req_id: u64,
        /// Principal on whose behalf the invocation runs.
        caller: ObjectId,
        /// Target object at the receiving site.
        target: ObjectId,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Value>,
        /// Originating trace id (0 = no active trace): lets the receiving
        /// site continue the sender's trace so a cross-site call is one
        /// causally-linked timeline.
        trace: u64,
        /// Span at the sender under which remote work nests (0 = none).
        parent_span: u64,
    },
    /// Remote invocation response.
    InvokeResp {
        /// Correlation id.
        req_id: u64,
        /// The returned value.
        result: Value,
    },
    /// Origin-pushed structural update for a deployed Ambassador.
    UpdateReq {
        /// Correlation id.
        req_id: u64,
        /// Acting principal (must be the Ambassador's origin).
        origin: ObjectId,
        /// The Ambassador to update.
        target: ObjectId,
        /// Ordered operations.
        ops: Vec<UpdateOp>,
    },
    /// Update acknowledgement.
    UpdateAck {
        /// Correlation id.
        req_id: u64,
        /// Number of operations applied.
        applied: usize,
    },
    /// Whole-object migration: an autonomous object (agent) moves itself
    /// to another site, as data.
    MoveObject {
        /// Correlation id.
        req_id: u64,
        /// The object's migration image.
        image: Vec<u8>,
        /// Originating trace id (0 = no active trace); travels with the
        /// object so the migration hop and everything the object does on
        /// arrival stay on one causally-linked trace.
        trace: u64,
        /// Span at the sender under which the hop nests (0 = none).
        parent_span: u64,
    },
    /// Migration acknowledgement.
    MoveAck {
        /// Correlation id.
        req_id: u64,
        /// Identity the receiving site adopted.
        adopted: ObjectId,
    },
    /// Asks whether the receiving site currently hosts `object`. Used to
    /// reconcile in-doubt migrations: a dispatch whose acknowledgement was
    /// lost leaves the origin unsure whether the destination adopted.
    QueryObject {
        /// Correlation id.
        req_id: u64,
        /// The identity in question.
        object: ObjectId,
    },
    /// Reply to [`ProtocolMsg::QueryObject`].
    QueryAck {
        /// Correlation id.
        req_id: u64,
        /// Whether the replying site hosts the object.
        hosted: bool,
    },
}

fn bad(detail: &str) -> HadasError {
    HadasError::BadMessage(detail.to_owned())
}

impl ProtocolMsg {
    /// The correlation id of any message.
    pub fn req_id(&self) -> u64 {
        match self {
            ProtocolMsg::LinkReq { req_id, .. }
            | ProtocolMsg::LinkAck { req_id, .. }
            | ProtocolMsg::ImportReq { req_id, .. }
            | ProtocolMsg::ExportAck { req_id, .. }
            | ProtocolMsg::Error { req_id, .. }
            | ProtocolMsg::InvokeReq { req_id, .. }
            | ProtocolMsg::InvokeResp { req_id, .. }
            | ProtocolMsg::UpdateReq { req_id, .. }
            | ProtocolMsg::UpdateAck { req_id, .. }
            | ProtocolMsg::MoveObject { req_id, .. }
            | ProtocolMsg::MoveAck { req_id, .. }
            | ProtocolMsg::QueryObject { req_id, .. }
            | ProtocolMsg::QueryAck { req_id, .. } => *req_id,
        }
    }

    /// The wire tag of the message (stable, for traffic accounting).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolMsg::LinkReq { .. } => "link_req",
            ProtocolMsg::LinkAck { .. } => "link_ack",
            ProtocolMsg::ImportReq { .. } => "import_req",
            ProtocolMsg::ExportAck { .. } => "export_ack",
            ProtocolMsg::Error { .. } => "error",
            ProtocolMsg::InvokeReq { .. } => "invoke_req",
            ProtocolMsg::InvokeResp { .. } => "invoke_resp",
            ProtocolMsg::UpdateReq { .. } => "update_req",
            ProtocolMsg::UpdateAck { .. } => "update_ack",
            ProtocolMsg::MoveObject { .. } => "move_object",
            ProtocolMsg::MoveAck { .. } => "move_ack",
            ProtocolMsg::QueryObject { .. } => "query_object",
            ProtocolMsg::QueryAck { .. } => "query_ack",
        }
    }

    /// Encodes the message to wire bytes: a framed map written straight
    /// from the fields, entries in canonical (sorted) key order.
    pub fn encode(&self) -> Vec<u8> {
        use wire::{write_bytes_value, write_int_value, write_object_ref_value, write_str_value};
        match self {
            ProtocolMsg::LinkReq {
                req_id,
                from,
                from_ioo,
            } => {
                let mut m = MapWriter::framed(4, 64);
                write_int_value(from.0 as i64, m.entry("from"));
                write_object_ref_value(*from_ioo, m.entry("from_ioo"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::LinkAck {
                req_id,
                ioo,
                ambassador_image,
            } => {
                let mut m = MapWriter::framed(4, 64 + ambassador_image.len());
                write_bytes_value(ambassador_image, m.entry("image"));
                write_object_ref_value(*ioo, m.entry("ioo"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::ImportReq {
                req_id,
                from,
                from_ioo,
                apo_name,
            } => {
                let mut m = MapWriter::framed(5, 64 + apo_name.len());
                write_str_value(apo_name, m.entry("apo"));
                write_int_value(from.0 as i64, m.entry("from"));
                write_object_ref_value(*from_ioo, m.entry("from_ioo"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::ExportAck {
                req_id,
                ambassador_image,
                origin_apo,
                remote_methods,
            } => {
                let mut m = MapWriter::framed(5, 128 + ambassador_image.len());
                write_bytes_value(ambassador_image, m.entry("image"));
                write_str_value(self.kind(), m.entry("op"));
                write_object_ref_value(*origin_apo, m.entry("origin_apo"));
                let out = m.entry("remote_methods");
                wire::write_list_header(remote_methods.len(), out);
                for method in remote_methods {
                    write_str_value(method, out);
                }
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::Error { req_id, reason } => {
                let mut m = MapWriter::framed(3, 32 + reason.len());
                write_str_value(self.kind(), m.entry("op"));
                write_str_value(reason, m.entry("reason"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::InvokeReq {
                req_id,
                caller,
                target,
                method,
                args,
                trace,
                parent_span,
            } => {
                let mut m = MapWriter::framed(8, 128 + method.len());
                let out = m.entry("args");
                wire::write_list_header(args.len(), out);
                for arg in args {
                    wire::encode_value(arg, out);
                }
                write_object_ref_value(*caller, m.entry("caller"));
                write_str_value(method, m.entry("method"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*parent_span as i64, m.entry("parent_span"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                write_object_ref_value(*target, m.entry("target"));
                write_int_value(*trace as i64, m.entry("trace"));
                m.finish()
            }
            ProtocolMsg::InvokeResp { req_id, result } => {
                let mut m = MapWriter::framed(3, 64);
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                wire::encode_value(result, m.entry("result"));
                m.finish()
            }
            ProtocolMsg::UpdateReq {
                req_id,
                origin,
                target,
                ops,
            } => {
                let mut m = MapWriter::framed(5, 128);
                write_str_value(self.kind(), m.entry("op"));
                let out = m.entry("ops");
                wire::write_list_header(ops.len(), out);
                for op in ops {
                    wire::encode_value(&op.to_value(), out);
                }
                write_object_ref_value(*origin, m.entry("origin"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                write_object_ref_value(*target, m.entry("target"));
                m.finish()
            }
            ProtocolMsg::UpdateAck { req_id, applied } => {
                let mut m = MapWriter::framed(3, 48);
                write_int_value(*applied as i64, m.entry("applied"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::MoveObject {
                req_id,
                image,
                trace,
                parent_span,
            } => {
                let mut m = MapWriter::framed(5, 80 + image.len());
                write_bytes_value(image, m.entry("image"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*parent_span as i64, m.entry("parent_span"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                write_int_value(*trace as i64, m.entry("trace"));
                m.finish()
            }
            ProtocolMsg::MoveAck { req_id, adopted } => {
                let mut m = MapWriter::framed(3, 64);
                write_object_ref_value(*adopted, m.entry("adopted"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::QueryObject { req_id, object } => {
                let mut m = MapWriter::framed(3, 64);
                write_object_ref_value(*object, m.entry("object"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
            ProtocolMsg::QueryAck { req_id, hosted } => {
                let mut m = MapWriter::framed(3, 48);
                wire::encode_value(&Value::Bool(*hosted), m.entry("hosted"));
                write_str_value(self.kind(), m.entry("op"));
                write_int_value(*req_id as i64, m.entry("req_id"));
                m.finish()
            }
        }
    }

    /// Decodes a message from wire bytes.
    ///
    /// Accepts what the framed map encoding allows: keys in any order, the
    /// last of duplicate keys winning, unknown keys ignored, and absent or
    /// non-integer `trace`/`parent_span` read as 0 ("no active trace", so
    /// pre-trace buffers still decode). Every byte of the frame is
    /// validated, including values that end up ignored.
    ///
    /// # Errors
    ///
    /// [`HadasError::BadMessage`] for undecodable or malformed buffers.
    pub fn decode(bytes: &[u8]) -> Result<ProtocolMsg, HadasError> {
        let mut fields = Fields::default();
        fields.read(bytes).map_err(|e| bad(&e.to_string()))?;
        fields.build()
    }
}

/// The last occurrence of every key any message uses, each `None` when
/// absent or of the wrong kind.
#[derive(Default)]
struct Fields<'a> {
    op: Option<&'a str>,
    req_id: Option<i64>,
    from: Option<i64>,
    from_ioo: Option<ObjectId>,
    ioo: Option<ObjectId>,
    image: Option<&'a [u8]>,
    apo: Option<&'a str>,
    origin_apo: Option<ObjectId>,
    remote_methods: Option<Vec<String>>,
    reason: Option<&'a str>,
    caller: Option<ObjectId>,
    target: Option<ObjectId>,
    method: Option<&'a str>,
    args: Option<Vec<Value>>,
    trace: Option<i64>,
    parent_span: Option<i64>,
    result: Option<Value>,
    origin: Option<ObjectId>,
    ops: Option<Value>,
    applied: Option<i64>,
    adopted: Option<ObjectId>,
    object: Option<ObjectId>,
    hosted: Option<bool>,
}

impl<'a> Fields<'a> {
    fn read(&mut self, bytes: &'a [u8]) -> Result<(), ValueError> {
        let mut map = MapReader::framed(bytes)?;
        while let Some((key, v)) = map.next_entry()? {
            match key {
                "op" => self.op = v.str()?,
                "req_id" => self.req_id = v.int()?,
                "from" => self.from = v.int()?,
                "from_ioo" => self.from_ioo = v.object_ref()?,
                "ioo" => self.ioo = v.object_ref()?,
                "image" => self.image = v.bytes()?,
                "apo" => self.apo = v.str()?,
                "origin_apo" => self.origin_apo = v.object_ref()?,
                "remote_methods" => {
                    self.remote_methods = match v.value()? {
                        Value::List(items) => items
                            .into_iter()
                            .map(|m| match m {
                                Value::Str(s) => Some(s),
                                _ => None,
                            })
                            .collect(),
                        _ => None,
                    }
                }
                "reason" => self.reason = v.str()?,
                "caller" => self.caller = v.object_ref()?,
                "target" => self.target = v.object_ref()?,
                "method" => self.method = v.str()?,
                "args" => {
                    self.args = match v.value()? {
                        Value::List(items) => Some(items),
                        _ => None,
                    }
                }
                "trace" => self.trace = v.int()?,
                "parent_span" => self.parent_span = v.int()?,
                "result" => self.result = Some(v.value()?),
                "origin" => self.origin = v.object_ref()?,
                "ops" => self.ops = Some(v.value()?),
                "applied" => self.applied = v.int()?,
                "adopted" => self.adopted = v.object_ref()?,
                "object" => self.object = v.object_ref()?,
                "hosted" => self.hosted = v.value()?.as_bool(),
                _ => {} // validated by `next_entry`, then ignored
            }
        }
        Ok(())
    }

    fn build(self) -> Result<ProtocolMsg, HadasError> {
        let op = need(self.op, "string", "op")?;
        let req_id = need(self.req_id, "int", "req_id")? as u64;
        let node = |n: Option<i64>| need(n, "node", "from").map(|n| NodeId(n as u64));
        let owned = |s: Option<&str>, key| need(s, "string", key).map(str::to_owned);
        let image = || need(self.image, "bytes", "image").map(<[u8]>::to_vec);
        Ok(match op {
            "link_req" => ProtocolMsg::LinkReq {
                req_id,
                from: node(self.from)?,
                from_ioo: need(self.from_ioo, "object ref", "from_ioo")?,
            },
            "link_ack" => ProtocolMsg::LinkAck {
                req_id,
                ioo: need(self.ioo, "object ref", "ioo")?,
                ambassador_image: image()?,
            },
            "import_req" => ProtocolMsg::ImportReq {
                req_id,
                from: node(self.from)?,
                from_ioo: need(self.from_ioo, "object ref", "from_ioo")?,
                apo_name: owned(self.apo, "apo")?,
            },
            "export_ack" => ProtocolMsg::ExportAck {
                req_id,
                ambassador_image: image()?,
                origin_apo: need(self.origin_apo, "object ref", "origin_apo")?,
                remote_methods: need(self.remote_methods, "string list", "remote_methods")?,
            },
            "error" => ProtocolMsg::Error {
                req_id,
                reason: owned(self.reason, "reason")?,
            },
            "invoke_req" => ProtocolMsg::InvokeReq {
                req_id,
                caller: need(self.caller, "object ref", "caller")?,
                target: need(self.target, "object ref", "target")?,
                method: owned(self.method, "method")?,
                args: need(self.args, "list", "args")?,
                trace: self.trace.unwrap_or(0) as u64,
                parent_span: self.parent_span.unwrap_or(0) as u64,
            },
            "invoke_resp" => ProtocolMsg::InvokeResp {
                req_id,
                result: need(self.result, "value", "result")?,
            },
            "update_req" => ProtocolMsg::UpdateReq {
                req_id,
                origin: need(self.origin, "object ref", "origin")?,
                target: need(self.target, "object ref", "target")?,
                ops: need(self.ops.as_ref().and_then(Value::as_list), "list", "ops")?
                    .iter()
                    .map(UpdateOp::from_value)
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "update_ack" => ProtocolMsg::UpdateAck {
                req_id,
                applied: need(self.applied, "int", "applied")? as usize,
            },
            "move_object" => ProtocolMsg::MoveObject {
                req_id,
                image: image()?,
                trace: self.trace.unwrap_or(0) as u64,
                parent_span: self.parent_span.unwrap_or(0) as u64,
            },
            "move_ack" => ProtocolMsg::MoveAck {
                req_id,
                adopted: need(self.adopted, "object ref", "adopted")?,
            },
            "query_object" => ProtocolMsg::QueryObject {
                req_id,
                object: need(self.object, "object ref", "object")?,
            },
            "query_ack" => ProtocolMsg::QueryAck {
                req_id,
                hosted: need(self.hosted, "bool", "hosted")?,
            },
            other => return Err(bad(&format!("unknown op {other:?}"))),
        })
    }
}

fn need<T>(field: Option<T>, kind: &str, key: &str) -> Result<T, HadasError> {
    field.ok_or_else(|| bad(&format!("missing {kind} {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_value::{IdGenerator, NodeId};

    fn ids() -> IdGenerator {
        IdGenerator::new(NodeId(77))
    }

    #[test]
    fn all_messages_round_trip() {
        let mut gen = ids();
        let a = gen.next_id();
        let b = gen.next_id();
        let msgs = vec![
            ProtocolMsg::LinkReq {
                req_id: 1,
                from: NodeId(4),
                from_ioo: a,
            },
            ProtocolMsg::LinkAck {
                req_id: 1,
                ioo: b,
                ambassador_image: vec![1, 2, 3],
            },
            ProtocolMsg::ImportReq {
                req_id: 2,
                from: NodeId(4),
                from_ioo: a,
                apo_name: "db".into(),
            },
            ProtocolMsg::ExportAck {
                req_id: 2,
                ambassador_image: vec![9; 64],
                origin_apo: b,
                remote_methods: vec!["query".into(), "update".into()],
            },
            ProtocolMsg::Error {
                req_id: 3,
                reason: "denied".into(),
            },
            ProtocolMsg::InvokeReq {
                req_id: 4,
                caller: a,
                target: b,
                method: "query".into(),
                args: vec![Value::Int(1), Value::from("x")],
                trace: 17,
                parent_span: 3,
            },
            ProtocolMsg::InvokeResp {
                req_id: 4,
                result: Value::map([("rows", Value::list([]))]),
            },
            ProtocolMsg::UpdateReq {
                req_id: 5,
                origin: b,
                target: a,
                ops: vec![
                    UpdateOp::AddData("note".into(), Value::from("hi")),
                    UpdateOp::SetMethod(
                        "m".into(),
                        Value::map([("body", Value::from("return 1;"))]),
                    ),
                    UpdateOp::DeleteMethod("old".into()),
                    UpdateOp::InstallMetaInvoke("maintenance".into()),
                    UpdateOp::UninstallMetaInvoke,
                    UpdateOp::SetData("x".into(), Value::Int(2)),
                    UpdateOp::AddMethod("n".into(), Value::from("return 2;")),
                ],
            },
            ProtocolMsg::UpdateAck {
                req_id: 5,
                applied: 7,
            },
            ProtocolMsg::MoveObject {
                req_id: 6,
                image: vec![0xAB; 32],
                trace: 9,
                parent_span: 0,
            },
            ProtocolMsg::MoveAck {
                req_id: 6,
                adopted: a,
            },
            ProtocolMsg::QueryObject {
                req_id: 7,
                object: b,
            },
            ProtocolMsg::QueryAck {
                req_id: 7,
                hosted: true,
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            let back = ProtocolMsg::decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
            assert_eq!(back.req_id(), msg.req_id());
            assert_eq!(back.kind(), msg.kind());
        }
    }

    #[test]
    fn pre_trace_buffers_decode_with_no_active_trace() {
        // A message encoded without the trace fields (an older peer) must
        // still decode; the trace context defaults to "none".
        let v = Value::map([
            ("op", Value::from("move_object")),
            ("req_id", Value::Int(6)),
            ("image", Value::Bytes(vec![1, 2, 3])),
        ]);
        match ProtocolMsg::decode(&wire::encode(&v)).unwrap() {
            ProtocolMsg::MoveObject {
                trace, parent_span, ..
            } => {
                assert_eq!(trace, 0);
                assert_eq!(parent_span, 0);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn hostile_buffers_are_rejected() {
        assert!(ProtocolMsg::decode(b"junk").is_err());
        let v = Value::map([("op", Value::from("link_req"))]); // no req_id
        assert!(ProtocolMsg::decode(&wire::encode(&v)).is_err());
        let v = Value::map([("op", Value::from("who_knows")), ("req_id", Value::Int(1))]);
        assert!(ProtocolMsg::decode(&wire::encode(&v)).is_err());
        let v = Value::Int(7);
        assert!(ProtocolMsg::decode(&wire::encode(&v)).is_err());
    }

    #[test]
    fn update_op_rejects_malformed() {
        assert!(UpdateOp::from_value(&Value::Int(1)).is_err());
        assert!(UpdateOp::from_value(&Value::list([])).is_err());
        assert!(UpdateOp::from_value(&Value::list([Value::from("add_method")])).is_err());
        assert!(UpdateOp::from_value(&Value::list([Value::from("zap")])).is_err());
    }
}
