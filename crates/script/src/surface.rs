//! The script call surface, described once.
//!
//! A body reaches its object through `self.name(...)` host calls and
//! computes with pure `name(...)` builtins. Everything that must know
//! what those names mean reads it here:
//!
//! * [`HOST_OPS`] has one row per `self.*` operation the embedding object
//!   serves: its accepted argument counts, what it touches, whether it is
//!   one of the reflective meta-methods ([`HostOp::Meta`]), whether it
//!   changes the object's structure, and whether the object meta ACL
//!   gates it. The admission analyzer's manifest pass, the effect solver,
//!   `mrom-core`'s admission cross-check and its script bridge all read
//!   these rows; a name outside the table goes to the world hook.
//! * [`BUILTINS`] has one row per builtin: its name and argument counts.
//!   The analyzer, the compiler and both engines read it.

/// The reflective meta-operations every object carries within itself:
/// the paper's nine plus three introspection extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaOp {
    /// `getDataItem(name)` → descriptor map.
    GetDataItem,
    /// `setDataItem(name, descriptor)` — change item properties/value.
    SetDataItem,
    /// `addDataItem(name, value-or-descriptor)`.
    AddDataItem,
    /// `deleteDataItem(name)`.
    DeleteDataItem,
    /// `getMethod(name)` → descriptor map.
    GetMethod,
    /// `setMethod(name, descriptor)` — replace body, attach pre/post, ACLs.
    SetMethod,
    /// `addMethod(name, descriptor-or-program)`.
    AddMethod,
    /// `deleteMethod(name)`.
    DeleteMethod,
    /// `invoke(name, args)` — the most important meta-method.
    Invoke,
    /// `getStats()` → live behavioural counters for this object from the
    /// observability layer. A reproduction extension (not in the paper's
    /// nine): self-representation applied to *behaviour*, answering "what
    /// did my invocations do" with the same machinery that answers
    /// structural questions.
    GetStats,
    /// `getEffects()` / `getEffects(name)` → interprocedural effect
    /// signatures for this object's methods, computed by the static
    /// analyzer over the method call graph. A reproduction extension
    /// (not in the paper's nine): self-representation applied to
    /// *future* behaviour — what a method may read, write, and call —
    /// answering it with the same reflective machinery that answers
    /// structural questions.
    GetEffects,
    /// `getTelemetry()` → the windowed telemetry snapshot of the
    /// recording thread: per-object invocation profiles, the
    /// site-to-site call matrix, and per-link delivery windows. A
    /// reproduction extension (not in the paper's nine): the flight
    /// recorder's aggregate view surfaced through the same reflective
    /// door as `getStats`, so a mobile object can ask "what is hot
    /// here" wherever it lands.
    GetTelemetry,
}

impl MetaOp {
    /// All meta-operations in declaration order: the paper's nine plus
    /// the `getStats`, `getEffects`, and `getTelemetry` introspection
    /// extensions.
    pub const ALL: [MetaOp; 12] = [
        MetaOp::GetDataItem,
        MetaOp::SetDataItem,
        MetaOp::AddDataItem,
        MetaOp::DeleteDataItem,
        MetaOp::GetMethod,
        MetaOp::SetMethod,
        MetaOp::AddMethod,
        MetaOp::DeleteMethod,
        MetaOp::Invoke,
        MetaOp::GetStats,
        MetaOp::GetEffects,
        MetaOp::GetTelemetry,
    ];

    /// The method name under which the operation is registered in the
    /// object (camelCase, matching the paper's spelling).
    pub fn method_name(&self) -> &'static str {
        match self {
            MetaOp::GetDataItem => "getDataItem",
            MetaOp::SetDataItem => "setDataItem",
            MetaOp::AddDataItem => "addDataItem",
            MetaOp::DeleteDataItem => "deleteDataItem",
            MetaOp::GetMethod => "getMethod",
            MetaOp::SetMethod => "setMethod",
            MetaOp::AddMethod => "addMethod",
            MetaOp::DeleteMethod => "deleteMethod",
            MetaOp::Invoke => "invoke",
            MetaOp::GetStats => "getStats",
            MetaOp::GetEffects => "getEffects",
            MetaOp::GetTelemetry => "getTelemetry",
        }
    }

    /// Inverse of [`MetaOp::method_name`].
    pub fn from_method_name(name: &str) -> Option<MetaOp> {
        MetaOp::ALL.into_iter().find(|op| op.method_name() == name)
    }

    /// Does this operation change the object: its structure (the row is
    /// `structural`) or a data item in place (`set_data_item`)? Which
    /// ACL guards each one is the row's `meta_gated` column, not this.
    pub fn is_mutating(&self) -> bool {
        let row = self.row();
        row.structural || row.touches == Touches::DataWrite
    }

    /// This operation's row of [`HOST_OPS`], the one place a meta-op is
    /// tied to its script name, arities and effect facts.
    pub fn row(self) -> &'static HostRow {
        &HOST_OPS[META_ROWS + self as usize]
    }
}

/// Which operation a [`HostRow`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostOp {
    /// `self.get(name)`: read a data item's value.
    Get,
    /// `self.set(name, value)`: write a data item's value.
    Set,
    /// One of the reflective meta-methods, snake-cased.
    Meta(MetaOp),
    /// `self.install_meta_invoke(method)`: push a meta-invoke tower level.
    InstallMetaInvoke,
    /// `self.uninstall_meta_invoke()`: pop the top tower level.
    UninstallMetaInvoke,
    /// `self.id()`.
    Id,
    /// `self.origin()`.
    Origin,
    /// `self.class()`.
    Class,
    /// `self.caller()`: the principal of the current invocation.
    Caller,
    /// `self.describe()`: the self-representation summary.
    Describe,
    /// `self.has_data(name)`.
    HasData,
    /// `self.has_method(name)`.
    HasMethod,
    /// `self.list_data()`.
    ListData,
    /// `self.list_methods()`.
    ListMethods,
}

/// What a host operation touches, by its first (name) argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Touches {
    /// Reads the named data item.
    DataRead,
    /// Writes the named data item in place; the second argument is the
    /// value or descriptor stored.
    DataWrite,
    /// Creates the named data item.
    DataCreate,
    /// Deletes the named data item.
    DataDelete,
    /// Tests whether the named data item exists.
    DataProbe,
    /// Invokes the named method.
    MethodInvoke,
    /// Refers to the named method (reads, replaces, deletes or stacks it).
    MethodRef,
    /// Creates the named method.
    MethodCreate,
    /// Tests whether the named method exists.
    MethodProbe,
    /// Names no item.
    Nothing,
}

/// One `self.*` operation of the script call surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRow {
    /// The operation.
    pub op: HostOp,
    /// The script name (`self.<name>(...)`).
    pub name: &'static str,
    /// Every argument count the operation accepts.
    pub arities: &'static [usize],
    /// The parameter list as the operation's usage text shows it.
    pub params: &'static str,
    /// What the operation touches.
    pub touches: Touches,
    /// Changes the object's item sets, method slots or meta-invoke tower
    /// (not a data value in place).
    pub structural: bool,
    /// Goes through the object meta ACL, so an `Acl::Nobody` meta ACL
    /// refuses it to every principal.
    pub meta_gated: bool,
}

impl HostRow {
    /// True when the operation accepts `argc` arguments.
    #[inline]
    pub fn accepts(&self, argc: usize) -> bool {
        self.arities.contains(&argc)
    }

    /// The refusal text of a call with arguments the operation does not
    /// accept (`self.get expects (name)`).
    pub fn usage(&self) -> String {
        format!("self.{} expects {}", self.name, self.params)
    }
}

const fn row(
    op: HostOp,
    name: &'static str,
    arities: &'static [usize],
    params: &'static str,
    touches: Touches,
    structural: bool,
    meta_gated: bool,
) -> HostRow {
    HostRow {
        op,
        name,
        arities,
        params,
        touches,
        structural,
        meta_gated,
    }
}

/// Rows before the meta-op rows, which follow in [`MetaOp::ALL`] order so
/// [`MetaOp::row`] is an index. The plain value accessors come first: a
/// lookup scans in table order, and they are the most frequent calls.
const META_ROWS: usize = 2;

use HostOp as H;
use MetaOp as M;
use Touches as T;

/// The `self.*` operations the embedding object serves. Anything else
/// goes to the world hook.
#[rustfmt::skip]
pub static HOST_OPS: [HostRow; 25] = [
    // op, name, arities, params, touches, structural, meta_gated
    row(H::Get, "get", &[1], "(name)", T::DataRead, false, false),
    row(H::Set, "set", &[2], "(name, value)", T::DataWrite, false, false),
    row(H::Meta(M::GetDataItem), "get_data_item", &[1], "(name)", T::DataRead, false, false),
    row(H::Meta(M::SetDataItem), "set_data_item", &[2], "(name, descriptor)", T::DataWrite, false, false),
    row(H::Meta(M::AddDataItem), "add_data_item", &[2, 3], "(name, value[, descriptor])", T::DataCreate, true, true),
    row(H::Meta(M::DeleteDataItem), "delete_data_item", &[1], "(name)", T::DataDelete, true, true),
    row(H::Meta(M::GetMethod), "get_method", &[1], "(name)", T::MethodRef, false, false),
    row(H::Meta(M::SetMethod), "set_method", &[2], "(name, descriptor)", T::MethodRef, true, false),
    row(H::Meta(M::AddMethod), "add_method", &[2], "(name, body)", T::MethodCreate, true, true),
    row(H::Meta(M::DeleteMethod), "delete_method", &[1], "(name)", T::MethodRef, true, true),
    row(H::Meta(M::Invoke), "invoke", &[1, 2], "(name[, args])", T::MethodInvoke, false, false),
    row(H::Meta(M::GetStats), "get_stats", &[0], "no arguments", T::Nothing, false, false),
    row(H::Meta(M::GetEffects), "get_effects", &[0, 1], "([method])", T::Nothing, false, false),
    row(H::Meta(M::GetTelemetry), "get_telemetry", &[0], "no arguments", T::Nothing, false, false),
    row(H::InstallMetaInvoke, "install_meta_invoke", &[1], "(method_name)", T::MethodRef, true, true),
    row(H::UninstallMetaInvoke, "uninstall_meta_invoke", &[0], "no arguments", T::Nothing, true, true),
    row(H::Id, "id", &[0], "no arguments", T::Nothing, false, false),
    row(H::Origin, "origin", &[0], "no arguments", T::Nothing, false, false),
    row(H::Class, "class", &[0], "no arguments", T::Nothing, false, false),
    row(H::Caller, "caller", &[0], "no arguments", T::Nothing, false, false),
    row(H::Describe, "describe", &[0], "no arguments", T::Nothing, false, false),
    row(H::HasData, "has_data", &[1], "(name)", T::DataProbe, false, false),
    row(H::HasMethod, "has_method", &[1], "(name)", T::MethodProbe, false, false),
    row(H::ListData, "list_data", &[0], "no arguments", T::Nothing, false, false),
    row(H::ListMethods, "list_methods", &[0], "no arguments", T::Nothing, false, false),
];

/// The row of the host operation `name`, or `None` for a world call.
#[inline]
pub fn host_op(name: &str) -> Option<&'static HostRow> {
    HOST_OPS.iter().find(|r| r.name == name)
}

/// Identifies one of the pure builtins. The compiler resolves builtin
/// names to ids at compile time; the interpreter resolves per call. Both
/// dispatch through the evaluator's `call_builtin`, so semantics cannot
/// drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuiltinId {
    Len,
    Typeof,
    Coerce,
    Str,
    Int,
    Float,
    Bool,
    Push,
    Pop,
    Last,
    Contains,
    Keys,
    Values,
    Set,
    Remove,
    Range,
    Substr,
    Split,
    Join,
    Upper,
    Lower,
    Trim,
    Abs,
    Min,
    Max,
    Fail,
    Bytes,
    ObjectRef,
}

/// One pure builtin of the script call surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Builtin {
    pub(crate) id: BuiltinId,
    /// The script name (`name(...)`).
    pub name: &'static str,
    /// Every argument count the builtin accepts.
    pub arities: &'static [usize],
}

const fn builtin(id: BuiltinId, name: &'static str, arities: &'static [usize]) -> Builtin {
    Builtin { id, name, arities }
}

use BuiltinId as B;

/// The builtins, in `BuiltinId` order.
pub static BUILTINS: [Builtin; 28] = [
    builtin(B::Len, "len", &[1]),
    builtin(B::Typeof, "typeof", &[1]),
    builtin(B::Coerce, "coerce", &[2]),
    builtin(B::Str, "str", &[1]),
    builtin(B::Int, "int", &[1]),
    builtin(B::Float, "float", &[1]),
    builtin(B::Bool, "bool", &[1]),
    builtin(B::Push, "push", &[2]),
    builtin(B::Pop, "pop", &[1]),
    builtin(B::Last, "last", &[1]),
    builtin(B::Contains, "contains", &[2]),
    builtin(B::Keys, "keys", &[1]),
    builtin(B::Values, "values", &[1]),
    builtin(B::Set, "set", &[3]),
    builtin(B::Remove, "remove", &[2]),
    builtin(B::Range, "range", &[1, 2]),
    builtin(B::Substr, "substr", &[3]),
    builtin(B::Split, "split", &[2]),
    builtin(B::Join, "join", &[2]),
    builtin(B::Upper, "upper", &[1]),
    builtin(B::Lower, "lower", &[1]),
    builtin(B::Trim, "trim", &[1]),
    builtin(B::Abs, "abs", &[1]),
    builtin(B::Min, "min", &[2]),
    builtin(B::Max, "max", &[2]),
    builtin(B::Fail, "fail", &[1]),
    builtin(B::Bytes, "bytes", &[1]),
    builtin(B::ObjectRef, "objectref", &[1]),
];

/// The builtin named `name`, if any.
pub fn builtin_named(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

impl BuiltinId {
    pub(crate) fn from_name(name: &str) -> Option<BuiltinId> {
        builtin_named(name).map(|b| b.id)
    }

    pub(crate) fn row(self) -> &'static Builtin {
        &BUILTINS[self as usize]
    }

    pub(crate) fn name(self) -> &'static str {
        self.row().name
    }
}

impl Builtin {
    /// The detail of an arity refusal: `expected 1 or 2 arguments, got 3`.
    pub(crate) fn arity_detail(&self, argc: usize) -> String {
        let expected: Vec<String> = self.arities.iter().map(usize::to_string).collect();
        format!("expected {} arguments, got {argc}", expected.join(" or "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_rows_index_by_meta_op() {
        for op in MetaOp::ALL {
            assert_eq!(op.row().op, HostOp::Meta(op));
        }
        let metas = HOST_OPS
            .iter()
            .filter(|r| matches!(r.op, HostOp::Meta(_)))
            .count();
        assert_eq!(metas, MetaOp::ALL.len());
    }

    #[test]
    fn names_are_unique_and_ops_distinct() {
        for (i, a) in HOST_OPS.iter().enumerate() {
            assert_eq!(host_op(a.name), Some(a), "{} shadowed", a.name);
            for b in &HOST_OPS[i + 1..] {
                assert_ne!(a.op, b.op);
            }
        }
        assert_eq!(host_op("beep"), None);
    }

    #[test]
    fn builtins_index_by_id() {
        for (i, b) in BUILTINS.iter().enumerate() {
            assert_eq!(b.id as usize, i, "{}", b.name);
            assert_eq!(BuiltinId::from_name(b.name), Some(b.id));
            assert_eq!(b.id.name(), b.name);
        }
        assert_eq!(BuiltinId::from_name("frob"), None);
    }

    #[test]
    fn meta_op_names_round_trip() {
        for op in MetaOp::ALL {
            assert_eq!(MetaOp::from_method_name(op.method_name()), Some(op));
        }
        assert_eq!(MetaOp::from_method_name("frob"), None);
    }

    #[test]
    fn mutating_classification() {
        let mutating: Vec<MetaOp> = MetaOp::ALL
            .into_iter()
            .filter(MetaOp::is_mutating)
            .collect();
        assert_eq!(
            mutating,
            [
                MetaOp::SetDataItem,
                MetaOp::AddDataItem,
                MetaOp::DeleteDataItem,
                MetaOp::SetMethod,
                MetaOp::AddMethod,
                MetaOp::DeleteMethod,
            ]
        );
    }

    #[test]
    fn arity_details_keep_their_wording() {
        let range = BuiltinId::Range.row();
        assert_eq!(range.arity_detail(3), "expected 1 or 2 arguments, got 3");
        let len = BuiltinId::Len.row();
        assert_eq!(len.arity_detail(0), "expected 1 arguments, got 0");
        assert_eq!(HOST_OPS[0].usage(), "self.get expects (name)");
    }
}
