//! Static admission analysis for mobile method programs.
//!
//! A host that accepts foreign, self-describing objects should not discover
//! dangling `self.*` calls, uses of undeclared variables, or hostile
//! resource shapes only when (or if) a body finally runs. This module is
//! the *checking half* of MROM's self-representation story: a multi-pass
//! analyzer over [`Program`] ASTs that produces structured [`Diagnostic`]s
//! and a [`HostManifest`] — the exact `self.*` capability surface a body
//! touches — which `mrom-core` cross-checks against the owning object's
//! actual items and ACLs at every trust boundary (migration images,
//! `addMethod`/`setMethod`, ambassador instantiation).
//!
//! Passes:
//!
//! 1. **Scope / def-use** — mirrors the evaluator's frame semantics
//!    exactly: `args` and declared params live in the root frame, every
//!    block pushes a frame, `let` declares in the current frame, `for`
//!    declares its loop variable per iteration. A name that can never
//!    resolve is [`DiagnosticKind::UndefinedVariable`]; a name that is
//!    declared somewhere but not on this path (a `let` inside one `if` arm,
//!    or later in the block) is [`DiagnosticKind::UseBeforeAssign`].
//! 2. **Host-call manifest** — classifies every `self.*` call against the
//!    known host surface, recording which data items are read/written,
//!    which methods are invoked, and which meta-methods are exercised.
//!    Names outside the surface route to the world hook and are bucketed,
//!    not flagged.
//! 3. **Resource shape** — node count, nesting depth, and a static fuel
//!    upper bound for loop-free bodies, so hosts can price admission
//!    before running anything. The bound is read off the body's compiled
//!    form (the longest path over the per-pc costs the VM charges); this
//!    module prices nothing itself.
//!
//! The object-level cross-check (pass 4 of the admission pipeline) lives in
//! `mrom-core`, which knows the owning object's items and ACLs.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use mrom_value::Value;

use crate::ast::{Expr, Program, Stmt};
use crate::parser::MAX_EXPR_DEPTH;
use crate::surface::{builtin_named, host_op, HostOp, MetaOp, Touches};

/// Default node-count budget: far above any real method body, low enough
/// that a host prices a megabyte of mobile AST as hostile.
pub const DEFAULT_NODE_BUDGET: usize = 20_000;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Style/suspicion: admission proceeds even under strict policies.
    Warning,
    /// The body will (or can never not) fail at run time, or violates a
    /// resource budget. Strict admission rejects.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What kind of defect a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagnosticKind {
    /// A variable that is declared nowhere in the program.
    UndefinedVariable,
    /// A variable that is declared somewhere — in one `if` arm, in a loop
    /// body, or later in the same block — but is not in scope at this use.
    UseBeforeAssign,
    /// A declared parameter the body never reads.
    UnusedParam,
    /// An assignment that overwrites a declared parameter.
    AssignToParam,
    /// A call to a builtin the evaluator does not define.
    UnknownBuiltin,
    /// A known builtin called with an argument count it never accepts.
    BuiltinArity,
    /// A known `self.*` host call with an argument count it never accepts.
    HostCallArity,
    /// `break`/`continue` outside any loop.
    StrayLoopControl,
    /// A `self.*` data access naming an item the owning object lacks.
    DanglingDataItem,
    /// A `self.invoke`/method reference naming a method the owning object
    /// lacks.
    DanglingMethodCall,
    /// A reflective meta-method referenced by name that the owning object
    /// does not carry.
    UnknownMetaMethod,
    /// A call that no principal — the executing object included — could
    /// ever be permitted to make (an `Acl::Nobody` gate).
    AclUnsatisfiable,
    /// Nesting depth exceeds the admission budget.
    DepthBudget,
    /// AST node count exceeds the admission budget.
    NodeBudget,
    /// The static fuel upper bound exceeds the admission budget.
    FuelBudget,
    /// The compiled bytecode failed independent verification
    /// ([`crate::verify`](mod@crate::verify)) — the compiled form must
    /// not be executed.
    BytecodeVerify,
}

impl DiagnosticKind {
    /// Stable lowercase identifier (CLI output, logs).
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagnosticKind::UndefinedVariable => "undefined-variable",
            DiagnosticKind::UseBeforeAssign => "use-before-assign",
            DiagnosticKind::UnusedParam => "unused-param",
            DiagnosticKind::AssignToParam => "assign-to-param",
            DiagnosticKind::UnknownBuiltin => "unknown-builtin",
            DiagnosticKind::BuiltinArity => "builtin-arity",
            DiagnosticKind::HostCallArity => "host-call-arity",
            DiagnosticKind::StrayLoopControl => "stray-loop-control",
            DiagnosticKind::DanglingDataItem => "dangling-data-item",
            DiagnosticKind::DanglingMethodCall => "dangling-method-call",
            DiagnosticKind::UnknownMetaMethod => "unknown-meta-method",
            DiagnosticKind::AclUnsatisfiable => "acl-unsatisfiable",
            DiagnosticKind::DepthBudget => "depth-budget",
            DiagnosticKind::NodeBudget => "node-budget",
            DiagnosticKind::FuelBudget => "fuel-budget",
            DiagnosticKind::BytecodeVerify => "bytecode-verify",
        }
    }

    /// The severity this kind carries.
    pub fn severity(&self) -> Severity {
        match self {
            DiagnosticKind::UnusedParam | DiagnosticKind::AssignToParam => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: kind, severity, a statement path into the AST, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What was found.
    pub kind: DiagnosticKind,
    /// How serious it is.
    pub severity: Severity,
    /// A dotted path into the program (`body[1].then[0]`), prefixed with
    /// the method/part context when the diagnostic comes from an object
    /// cross-check (`greet.body: body[0]`).
    pub path: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic with the kind's default severity.
    pub fn new(kind: DiagnosticKind, path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            severity: kind.severity(),
            path: path.into(),
            message: message.into(),
        }
    }

    /// Returns the diagnostic with its path prefixed by an owning context
    /// (used by object-level cross-checks).
    #[must_use]
    pub fn in_context(mut self, context: &str) -> Self {
        self.path = if self.path.is_empty() {
            context.to_owned()
        } else {
            format!("{context}: {}", self.path)
        };
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.kind, self.path, self.message
        )
    }
}

/// The exact `self.*` capability surface a program touches — what a host
/// learns about a body without running it. Names are recorded when they
/// appear as literal strings; computed names set the `dynamic_*` flags
/// instead (the body's surface is then not statically bounded).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostManifest {
    /// Data items read (`self.get`, `self.get_data_item`).
    pub data_read: BTreeSet<String>,
    /// Data items written (`self.set`, `self.set_data_item`).
    pub data_written: BTreeSet<String>,
    /// Data items created (`self.add_data_item`).
    pub data_created: BTreeSet<String>,
    /// Data items deleted (`self.delete_data_item`).
    pub data_deleted: BTreeSet<String>,
    /// Methods invoked (`self.invoke`).
    pub methods_invoked: BTreeSet<String>,
    /// Methods referenced structurally (`self.get_method`, `self.set_method`,
    /// `self.delete_method`, `self.install_meta_invoke`).
    pub methods_referenced: BTreeSet<String>,
    /// Methods created (`self.add_method`).
    pub methods_created: BTreeSet<String>,
    /// Literal `self.invoke` call sites per callee name (the counts the
    /// interprocedural fuel bound multiplies by).
    pub invoke_sites: BTreeMap<String, u64>,
    /// Some call changes the object's structure: its row of
    /// [`HOST_OPS`](crate::surface::HOST_OPS) is `structural`.
    pub structural: bool,
    /// The operations called that go through the object meta ACL (their
    /// rows are `meta_gated`).
    pub meta_gated: BTreeSet<&'static str>,
    /// `self.*` names outside the host surface, routed to the world hook.
    pub world_calls: BTreeSet<String>,
    /// Total number of `self.*` call sites.
    pub host_call_sites: usize,
    /// A data-item access used a computed (non-literal) name.
    pub dynamic_data: bool,
    /// A method access used a computed (non-literal) name.
    pub dynamic_methods: bool,
    /// Some data write (`self.set`, `self.set_data_item`) stores a
    /// computed value, so re-running the body may store different bytes.
    pub computed_writes: bool,
}

impl HostManifest {
    /// True when the body touches no host surface at all (a pure program).
    pub fn is_pure(&self) -> bool {
        self.host_call_sites == 0
    }

    /// Folds another manifest into this one (used to summarize a whole
    /// object from its per-body manifests).
    pub fn merge(&mut self, other: &HostManifest) {
        self.data_read.extend(other.data_read.iter().cloned());
        self.data_written.extend(other.data_written.iter().cloned());
        self.data_created.extend(other.data_created.iter().cloned());
        self.data_deleted.extend(other.data_deleted.iter().cloned());
        self.methods_invoked
            .extend(other.methods_invoked.iter().cloned());
        self.methods_referenced
            .extend(other.methods_referenced.iter().cloned());
        self.methods_created
            .extend(other.methods_created.iter().cloned());
        for (callee, n) in &other.invoke_sites {
            *self.invoke_sites.entry(callee.clone()).or_insert(0) += n;
        }
        self.structural |= other.structural;
        self.meta_gated.extend(&other.meta_gated);
        self.world_calls.extend(other.world_calls.iter().cloned());
        self.host_call_sites += other.host_call_sites;
        self.dynamic_data |= other.dynamic_data;
        self.dynamic_methods |= other.dynamic_methods;
        self.computed_writes |= other.computed_writes;
    }
}

/// Resource-shape budgets a host imposes at admission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum AST node count ([`Program::node_count`]).
    pub max_nodes: usize,
    /// Maximum structural nesting depth (statements and expressions
    /// combined).
    pub max_depth: usize,
    /// Maximum static fuel bound for loop-free bodies; `None` disables the
    /// check. Bodies with loops have no static bound and are never flagged.
    pub max_static_fuel: Option<u64>,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            max_nodes: DEFAULT_NODE_BUDGET,
            max_depth: MAX_EXPR_DEPTH,
            max_static_fuel: None,
        }
    }
}

/// Everything the analyzer learned about one program.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// All findings, in AST order.
    pub diagnostics: Vec<Diagnostic>,
    /// The `self.*` capability surface.
    pub manifest: HostManifest,
    /// AST node count.
    pub node_count: usize,
    /// Maximum structural nesting depth.
    pub max_depth: usize,
    /// Static fuel upper bound for loop-free bodies; `None` when the body
    /// loops (no static bound exists). Read off the compiled form: the
    /// longest path over the per-pc costs both engines burn, code after
    /// a `return` excluded. Builtin and concatenation data-size
    /// surcharges are priced at literal operand sizes, and any computed
    /// operand as a scalar, so a string- or container-valued runtime
    /// operand may exceed it.
    pub static_fuel: Option<u64>,
    /// True when this pass admitted the body's compiled form for
    /// execution ("verify + compile", like a classloader): set whenever
    /// no error-severity diagnostic was found. The compiled form is
    /// cached on the [`Program`] itself (every body is compiled for its
    /// fuel bound) and reused by every subsequent VM execution.
    pub precompiled: bool,
    /// True when the compiled form also passed the independent bytecode
    /// verifier ([`crate::verify`](mod@crate::verify)). Always true for
    /// compiler output in practice; a `false` here (with a
    /// [`DiagnosticKind::BytecodeVerify`] error) means the compiled form
    /// must not be executed.
    pub verified: bool,
}

impl AnalysisReport {
    /// True when no diagnostics (of any severity) were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

/// Analyzes a program under the default [`ResourceBudget`].
pub fn analyze_program(program: &Program) -> AnalysisReport {
    analyze_with_budget(program, &ResourceBudget::default())
}

/// Analyzes a program under an explicit resource budget.
pub fn analyze_with_budget(program: &Program, budget: &ResourceBudget) -> AnalysisReport {
    let mut diagnostics = Vec::new();

    // Pass 1: scope / def-use.
    scope_pass(program, &mut diagnostics);

    // Pass 2: host-call manifest (+ host/builtin surface diagnostics).
    let manifest = manifest_pass(program, &mut diagnostics);

    // Pass 3: resource shape. The fuel bound is read off the compiled
    // form, whose per-pc costs are exactly what the VM charges.
    let node_count = program.node_count();
    let max_depth = program_depth(program);
    let compiled = program.compiled();
    let static_fuel = compiled.static_fuel();
    if node_count > budget.max_nodes {
        diagnostics.push(Diagnostic::new(
            DiagnosticKind::NodeBudget,
            "program",
            format!(
                "{node_count} AST nodes exceed the admission budget of {}",
                budget.max_nodes
            ),
        ));
    }
    if max_depth > budget.max_depth {
        diagnostics.push(Diagnostic::new(
            DiagnosticKind::DepthBudget,
            "program",
            format!(
                "nesting depth {max_depth} exceeds the admission budget of {}",
                budget.max_depth
            ),
        ));
    }
    if let (Some(bound), Some(limit)) = (static_fuel, budget.max_static_fuel) {
        if bound > limit {
            diagnostics.push(Diagnostic::new(
                DiagnosticKind::FuelBudget,
                "program",
                format!("static fuel bound {bound} exceeds the admission budget of {limit}"),
            ));
        }
    }

    // Multiple passes can trip over the same defect at the same spot
    // (scope *and* manifest both flag one expression, or a repeated
    // subexpression repeats its finding). One defect, one diagnostic:
    // dedup by (kind, path, message), keeping first-found order.
    let mut seen: HashSet<(DiagnosticKind, String, String)> = HashSet::new();
    diagnostics.retain(|d| seen.insert((d.kind, d.path.clone(), d.message.clone())));

    // Admission doubles as the compile pass: a body that verified clean
    // (warnings allowed) is lowered to bytecode here, so the first
    // invocation already finds the cache on the `Program` hot. The
    // compiled form is then *independently* checked by the bytecode
    // verifier — trust in the compiler is not assumed at a boundary.
    let has_errors = diagnostics.iter().any(|d| d.severity == Severity::Error);
    let (precompiled, verified) = if has_errors {
        (false, false)
    } else {
        match crate::verify::verify(&compiled) {
            Ok(()) => (true, true),
            Err(e) => {
                diagnostics.push(Diagnostic::new(
                    DiagnosticKind::BytecodeVerify,
                    "program",
                    format!("compiled form failed bytecode verification: {e}"),
                ));
                (true, false)
            }
        }
    };

    AnalysisReport {
        diagnostics,
        manifest,
        node_count,
        max_depth,
        static_fuel,
        precompiled,
        verified,
    }
}

// ---------------------------------------------------------------------------
// Pass 1: scope / def-use
// ---------------------------------------------------------------------------

struct ScopeCheck<'p> {
    /// Lexical frames, innermost last — exactly the evaluator's `Scopes`.
    frames: Vec<BTreeSet<String>>,
    /// Every name the program declares anywhere (params, `let`s, loop
    /// vars): distinguishes a typo from a scoping mistake.
    declared_anywhere: BTreeSet<String>,
    params: &'p [String],
    params_read: BTreeSet<String>,
    args_used: bool,
    loop_depth: usize,
    diagnostics: &'p mut Vec<Diagnostic>,
}

fn scope_pass(program: &Program, diagnostics: &mut Vec<Diagnostic>) {
    let mut declared_anywhere = BTreeSet::new();
    declared_anywhere.insert("args".to_owned());
    declared_anywhere.extend(program.params().iter().cloned());
    collect_declarations(program.body(), &mut declared_anywhere);

    let mut root = BTreeSet::new();
    root.insert("args".to_owned());
    root.extend(program.params().iter().cloned());

    let mut check = ScopeCheck {
        frames: vec![root],
        declared_anywhere,
        params: program.params(),
        params_read: BTreeSet::new(),
        args_used: false,
        loop_depth: 0,
        diagnostics,
    };
    check.block(program.body(), &Path::root());

    // Params reachable only through `args` still count as used: once a body
    // touches `args`, positional parameters are aliased and the warning
    // would be noise.
    if !check.args_used {
        for p in program.params() {
            if !check.params_read.contains(p) {
                check.diagnostics.push(Diagnostic::new(
                    DiagnosticKind::UnusedParam,
                    "params",
                    format!("parameter {p:?} is never read"),
                ));
            }
        }
    }
}

fn collect_declarations(stmts: &[Stmt], out: &mut BTreeSet<String>) {
    for s in stmts {
        match s {
            Stmt::Let(name, _) => {
                out.insert(name.clone());
            }
            Stmt::If(_, a, b) => {
                collect_declarations(a, out);
                collect_declarations(b, out);
            }
            Stmt::While(_, body) => collect_declarations(body, out),
            Stmt::For(name, _, body) => {
                out.insert(name.clone());
                collect_declarations(body, out);
            }
            _ => {}
        }
    }
}

impl ScopeCheck<'_> {
    fn in_scope(&self, name: &str) -> bool {
        self.frames.iter().any(|f| f.contains(name))
    }

    /// Whether a resolved name is a parameter binding (declared in the root
    /// frame and not shadowed by an inner frame).
    fn resolves_to_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p == name) && !self.frames[1..].iter().any(|f| f.contains(name))
    }

    fn read(&mut self, name: &str, path: &Path) {
        if self.in_scope(name) {
            if name == "args" {
                self.args_used = true;
            }
            if self.resolves_to_param(name) {
                self.params_read.insert(name.to_owned());
            }
            return;
        }
        self.unresolved(name, "read", path);
    }

    fn write(&mut self, name: &str, path: &Path) {
        if self.in_scope(name) {
            if self.resolves_to_param(name) {
                self.diagnostics.push(Diagnostic::new(
                    DiagnosticKind::AssignToParam,
                    path.render(),
                    format!("assignment overwrites parameter {name:?}"),
                ));
            }
            return;
        }
        self.unresolved(name, "assign to", path);
    }

    fn unresolved(&mut self, name: &str, action: &str, path: &Path) {
        let (kind, hint) = if self.declared_anywhere.contains(name) {
            (
                DiagnosticKind::UseBeforeAssign,
                " (declared in another branch or later in the block; block-local `let`s do not survive their block)",
            )
        } else {
            (DiagnosticKind::UndefinedVariable, "")
        };
        self.diagnostics.push(Diagnostic::new(
            kind,
            path.render(),
            format!("cannot {action} {name:?}: not in scope here{hint}"),
        ));
    }

    fn block(&mut self, stmts: &[Stmt], path: &Path) {
        self.frames.push(BTreeSet::new());
        for (i, s) in stmts.iter().enumerate() {
            self.stmt(s, &path.index(i));
        }
        self.frames.pop();
    }

    fn stmt(&mut self, s: &Stmt, path: &Path) {
        match s {
            Stmt::Let(name, e) => {
                // RHS evaluates before the declaration takes effect.
                self.expr(e, path);
                self.frames
                    .last_mut()
                    .expect("root frame always present")
                    .insert(name.clone());
            }
            Stmt::Assign(target, e) => {
                self.expr(e, path);
                self.assign_target(target, path);
            }
            Stmt::Expr(e) => self.expr(e, path),
            Stmt::If(c, a, b) => {
                self.expr(c, path);
                self.block(a, &path.branch("then"));
                self.block(b, &path.branch("else"));
            }
            Stmt::While(c, body) => {
                self.expr(c, path);
                self.loop_depth += 1;
                self.block(body, &path.branch("while"));
                self.loop_depth -= 1;
            }
            Stmt::For(name, iter, body) => {
                self.expr(iter, path);
                self.loop_depth += 1;
                self.frames.push(BTreeSet::from([name.clone()]));
                for (i, s) in body.iter().enumerate() {
                    self.stmt(s, &path.branch("for").index(i));
                }
                self.frames.pop();
                self.loop_depth -= 1;
            }
            Stmt::Return(Some(e)) => self.expr(e, path),
            Stmt::Return(None) => {}
            Stmt::Break | Stmt::Continue => {
                if self.loop_depth == 0 {
                    self.diagnostics.push(Diagnostic::new(
                        DiagnosticKind::StrayLoopControl,
                        path.render(),
                        "break/continue outside any loop".to_owned(),
                    ));
                }
            }
        }
    }

    fn assign_target(&mut self, target: &Expr, path: &Path) {
        match target {
            Expr::Var(name) => self.write(name, path),
            Expr::Index(base, idx) => {
                self.expr(idx, path);
                self.assign_target(base, path);
            }
            // Unreachable from the parser/decoder; tolerate gracefully.
            other => self.expr(other, path),
        }
    }

    fn expr(&mut self, e: &Expr, path: &Path) {
        match e {
            Expr::Literal(_) => {}
            Expr::Var(name) => self.read(name, path),
            Expr::Unary(_, a) => self.expr(a, path),
            Expr::Binary(_, a, b) | Expr::Index(a, b) => {
                self.expr(a, path);
                self.expr(b, path);
            }
            Expr::Call(name, args) => {
                for a in args {
                    self.expr(a, path);
                }
                match builtin_named(name).map(|b| b.arities) {
                    None => self.diagnostics.push(Diagnostic::new(
                        DiagnosticKind::UnknownBuiltin,
                        path.render(),
                        format!("no builtin named {name:?}"),
                    )),
                    Some(allowed) if !allowed.contains(&args.len()) => {
                        self.diagnostics.push(Diagnostic::new(
                            DiagnosticKind::BuiltinArity,
                            path.render(),
                            format!(
                                "builtin {name:?} accepts {allowed:?} arguments, got {}",
                                args.len()
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
            Expr::HostCall(_, args) | Expr::ListExpr(args) => {
                for a in args {
                    self.expr(a, path);
                }
            }
            Expr::MapExpr(entries) => {
                for (_, v) in entries {
                    self.expr(v, path);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 2: host-call manifest
// ---------------------------------------------------------------------------

fn manifest_pass(program: &Program, diagnostics: &mut Vec<Diagnostic>) -> HostManifest {
    let mut m = HostManifest::default();
    walk_manifest(program.body(), &Path::root(), &mut m, diagnostics);
    m
}

fn walk_manifest(
    stmts: &[Stmt],
    path: &Path,
    m: &mut HostManifest,
    diagnostics: &mut Vec<Diagnostic>,
) {
    for (i, s) in stmts.iter().enumerate() {
        let p = path.index(i);
        match s {
            Stmt::Let(_, e) | Stmt::Expr(e) | Stmt::Return(Some(e)) => {
                manifest_expr(e, &p, m, diagnostics);
            }
            Stmt::Assign(t, e) => {
                manifest_expr(t, &p, m, diagnostics);
                manifest_expr(e, &p, m, diagnostics);
            }
            Stmt::If(c, a, b) => {
                manifest_expr(c, &p, m, diagnostics);
                walk_manifest(a, &p.branch("then"), m, diagnostics);
                walk_manifest(b, &p.branch("else"), m, diagnostics);
            }
            Stmt::While(c, body) => {
                manifest_expr(c, &p, m, diagnostics);
                walk_manifest(body, &p.branch("while"), m, diagnostics);
            }
            Stmt::For(_, e, body) => {
                manifest_expr(e, &p, m, diagnostics);
                walk_manifest(body, &p.branch("for"), m, diagnostics);
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

fn manifest_expr(e: &Expr, path: &Path, m: &mut HostManifest, diagnostics: &mut Vec<Diagnostic>) {
    match e {
        Expr::Literal(_) | Expr::Var(_) => {}
        Expr::Unary(_, a) => manifest_expr(a, path, m, diagnostics),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            manifest_expr(a, path, m, diagnostics);
            manifest_expr(b, path, m, diagnostics);
        }
        Expr::Call(_, args) | Expr::ListExpr(args) => {
            for a in args {
                manifest_expr(a, path, m, diagnostics);
            }
        }
        Expr::MapExpr(entries) => {
            for (_, v) in entries {
                manifest_expr(v, path, m, diagnostics);
            }
        }
        Expr::HostCall(name, args) => {
            for a in args {
                manifest_expr(a, path, m, diagnostics);
            }
            m.host_call_sites += 1;
            let Some(row) = host_op(name) else {
                m.world_calls.insert(name.clone());
                return;
            };
            if !row.accepts(args.len()) {
                diagnostics.push(Diagnostic::new(
                    DiagnosticKind::HostCallArity,
                    path.render(),
                    format!(
                        "self.{name} accepts {:?} arguments, got {}",
                        row.arities,
                        args.len()
                    ),
                ));
            }
            m.structural |= row.structural || renames(row.op, args);
            if row.meta_gated {
                m.meta_gated.insert(row.name);
            }
            let literal_name = match args.first() {
                Some(Expr::Literal(Value::Str(s))) => Some(s),
                _ => None,
            };
            let (set, dynamic) = match row.touches {
                Touches::DataRead => (&mut m.data_read, &mut m.dynamic_data),
                Touches::DataWrite => {
                    // A write whose value is computed may depend on prior
                    // state: re-running it can store different bytes.
                    if !matches!(args.get(1), Some(Expr::Literal(_))) {
                        m.computed_writes = true;
                    }
                    (&mut m.data_written, &mut m.dynamic_data)
                }
                Touches::DataCreate => (&mut m.data_created, &mut m.dynamic_data),
                Touches::DataDelete => (&mut m.data_deleted, &mut m.dynamic_data),
                Touches::MethodInvoke => {
                    if let Some(callee) = literal_name {
                        *m.invoke_sites.entry(callee.clone()).or_insert(0) += 1;
                    }
                    (&mut m.methods_invoked, &mut m.dynamic_methods)
                }
                Touches::MethodRef => (&mut m.methods_referenced, &mut m.dynamic_methods),
                Touches::MethodCreate => (&mut m.methods_created, &mut m.dynamic_methods),
                Touches::DataProbe | Touches::MethodProbe | Touches::Nothing => return,
            };
            match literal_name {
                Some(n) => {
                    set.insert(n.clone());
                }
                None if !args.is_empty() => *dynamic = true,
                None => {}
            }
        }
    }
}

/// A `self.set_data_item` call whose descriptor may rename the item, which
/// changes the object's item set: a map with a `rename` key, or a
/// descriptor that is not a map written out in the body.
fn renames(op: HostOp, args: &[Expr]) -> bool {
    if op != HostOp::Meta(MetaOp::SetDataItem) {
        return false;
    }
    match args.get(1) {
        Some(Expr::Literal(Value::Map(m))) => m.contains_key("rename"),
        Some(Expr::MapExpr(entries)) => entries.iter().any(|(k, _)| k == "rename"),
        _ => true,
    }
}

// ---------------------------------------------------------------------------
// Pass 3: resource shape
// ---------------------------------------------------------------------------

/// Maximum structural nesting depth: statements and expressions combined,
/// the same notion the parser and the tree decoder bound.
pub fn program_depth(program: &Program) -> usize {
    fn expr_depth(e: &Expr) -> usize {
        1 + match e {
            Expr::Literal(_) | Expr::Var(_) => 0,
            Expr::Unary(_, a) => expr_depth(a),
            Expr::Binary(_, a, b) | Expr::Index(a, b) => expr_depth(a).max(expr_depth(b)),
            Expr::Call(_, args) | Expr::HostCall(_, args) | Expr::ListExpr(args) => {
                args.iter().map(expr_depth).max().unwrap_or(0)
            }
            Expr::MapExpr(entries) => entries
                .iter()
                .map(|(_, v)| expr_depth(v))
                .max()
                .unwrap_or(0),
        }
    }
    fn stmt_depth(s: &Stmt) -> usize {
        1 + match s {
            Stmt::Let(_, e) | Stmt::Expr(e) | Stmt::Return(Some(e)) => expr_depth(e),
            Stmt::Assign(t, e) => expr_depth(t).max(expr_depth(e)),
            Stmt::If(c, a, b) => expr_depth(c).max(block_depth(a)).max(block_depth(b)),
            Stmt::While(c, body) => expr_depth(c).max(block_depth(body)),
            Stmt::For(_, e, body) => expr_depth(e).max(block_depth(body)),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => 0,
        }
    }
    fn block_depth(stmts: &[Stmt]) -> usize {
        stmts.iter().map(stmt_depth).max().unwrap_or(0)
    }
    block_depth(program.body())
}

// ---------------------------------------------------------------------------
// Statement paths
// ---------------------------------------------------------------------------

/// A cheap, purely-appending path builder (`body[1].then[0]`).
struct Path {
    rendered: String,
}

impl Path {
    fn root() -> Path {
        Path {
            rendered: "body".to_owned(),
        }
    }

    fn index(&self, i: usize) -> Path {
        Path {
            rendered: format!("{}[{i}]", self.rendered),
        }
    }

    fn branch(&self, name: &str) -> Path {
        Path {
            rendered: format!("{}.{name}", self.rendered),
        }
    }

    fn render(&self) -> String {
        self.rendered.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, NullHost};

    fn report(src: &str) -> AnalysisReport {
        analyze_program(&Program::parse(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}")))
    }

    fn kinds(src: &str) -> Vec<DiagnosticKind> {
        report(src).diagnostics.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_programs_are_clean() {
        for src in [
            "return 1 + 2;",
            "param a; param b; return a + b;",
            "let x = 1; if (x > 0) { x = 2; } return x;",
            "let s = 0; for (i in range(5)) { s = s + i; } return s;",
            "let i = 0; while (i < 3) { i = i + 1; if (i == 2) { break; } }",
            "return args[0];",
            "let v = self.get(\"count\"); self.set(\"count\", v + 1); return v;",
            "param m; param a; return self.invoke(m, a);",
        ] {
            let r = report(src);
            assert!(r.is_clean(), "{src:?} produced {:?}", r.diagnostics);
        }
    }

    #[test]
    fn undefined_variable() {
        assert_eq!(kinds("return ghost;"), [DiagnosticKind::UndefinedVariable]);
        assert_eq!(kinds("ghost = 1;"), [DiagnosticKind::UndefinedVariable]);
    }

    #[test]
    fn use_before_assign_across_joins() {
        // Declared in one if-arm only: out of scope at the join.
        assert_eq!(
            kinds("if (true) { let x = 1; } return x;"),
            [DiagnosticKind::UseBeforeAssign]
        );
        // Declared in a while body: may run zero times and is block-local.
        assert_eq!(
            kinds("while (false) { let y = 1; } return y;"),
            [DiagnosticKind::UseBeforeAssign]
        );
        // Declared later in the same block.
        assert_eq!(
            kinds("return z; let z = 1;"),
            [DiagnosticKind::UseBeforeAssign]
        );
        // Loop variables do not survive their loop.
        assert_eq!(
            kinds("for (i in range(3)) { } return i;"),
            [DiagnosticKind::UseBeforeAssign]
        );
    }

    #[test]
    fn let_rhs_does_not_see_its_own_binding() {
        // `x` IS declared (by this very let), just not yet in scope when
        // the RHS evaluates — a use-before-assign, not a typo.
        assert_eq!(kinds("let x = x;"), [DiagnosticKind::UseBeforeAssign]);
        // ... but an outer binding is fine (shadowing).
        assert!(report("let x = 1; if (true) { let x = x + 1; }").is_clean());
    }

    #[test]
    fn unused_param_is_a_warning() {
        let r = report("param used; param spare; return used;");
        assert_eq!(
            r.diagnostics.iter().map(|d| d.kind).collect::<Vec<_>>(),
            [DiagnosticKind::UnusedParam]
        );
        assert!(!r.has_errors());
        assert!(r.diagnostics[0].message.contains("spare"));
        // A body that touches `args` aliases every param positionally.
        assert!(report("param spare; return len(args);").is_clean());
    }

    #[test]
    fn assign_to_param_is_a_warning() {
        let r = report("param a; a = 1; return a;");
        assert_eq!(
            r.diagnostics.iter().map(|d| d.kind).collect::<Vec<_>>(),
            [DiagnosticKind::AssignToParam]
        );
        assert!(!r.has_errors());
        // Shadowing a param with a local is not an assignment to it.
        assert!(report("param a; if (true) { let a = 2; a = 3; } return a;").is_clean());
    }

    #[test]
    fn unknown_builtin_and_arity() {
        assert_eq!(
            kinds("return frobnicate(1);"),
            [DiagnosticKind::UnknownBuiltin]
        );
        assert_eq!(kinds("return len(1, 2);"), [DiagnosticKind::BuiltinArity]);
        assert!(report("return range(1, 5);").is_clean());
        assert_eq!(kinds("return range();"), [DiagnosticKind::BuiltinArity]);
    }

    #[test]
    fn host_call_arity() {
        assert_eq!(
            kinds("return self.get(\"a\", \"b\");"),
            [DiagnosticKind::HostCallArity]
        );
        assert_eq!(kinds("self.set(\"a\");"), [DiagnosticKind::HostCallArity]);
        assert!(report("return self.describe();").is_clean());
    }

    #[test]
    fn stray_loop_control() {
        assert_eq!(kinds("break;"), [DiagnosticKind::StrayLoopControl]);
        assert_eq!(
            kinds("if (true) { continue; }"),
            [DiagnosticKind::StrayLoopControl]
        );
        assert!(report("while (true) { if (true) { break; } }").is_clean());
    }

    #[test]
    fn manifest_captures_the_host_surface() {
        let r = report(
            "let v = self.get(\"hops\"); \
             self.set(\"hops\", v + 1); \
             self.add_data_item(\"fresh\", 0); \
             self.invoke(\"greet\", [1]); \
             self.add_method(\"extra\", \"return 1;\"); \
             self.install_meta_invoke(\"mi\"); \
             self.charge_account(3); \
             return self.describe();",
        );
        let m = &r.manifest;
        assert!(m.data_read.contains("hops"));
        assert!(m.data_written.contains("hops"));
        assert!(m.data_created.contains("fresh"));
        assert!(m.methods_invoked.contains("greet"));
        assert!(m.methods_created.contains("extra"));
        assert!(m.methods_referenced.contains("mi"));
        assert!(m.world_calls.contains("charge_account"));
        assert!(m.structural, "add_method and install_meta_invoke");
        assert_eq!(
            m.meta_gated,
            BTreeSet::from(["add_data_item", "add_method", "install_meta_invoke"])
        );
        assert_eq!(m.invoke_sites.get("greet"), Some(&1));
        assert!(m.computed_writes, "v + 1 is computed");
        assert_eq!(m.host_call_sites, 8);
        assert!(!m.dynamic_data);
        assert!(!m.dynamic_methods);
    }

    #[test]
    fn set_data_item_is_structural_when_it_may_rename() {
        let structural = |src: &str| report(src).manifest.structural;
        assert!(!structural("self.set_data_item(\"p\", {\"value\": 2});"));
        assert!(!structural(
            "param v; self.set_data_item(\"p\", {\"value\": v});"
        ));
        assert!(structural(
            "self.set_data_item(\"p\", {\"rename\": \"q\"});"
        ));
        assert!(structural(
            "param n; self.set_data_item(\"p\", {\"rename\": n});"
        ));
        assert!(structural("param d; self.set_data_item(\"p\", d);"));
    }

    #[test]
    fn computed_names_set_dynamic_flags() {
        let r = report("param n; return self.get(n);");
        assert!(r.manifest.dynamic_data);
        assert!(r.manifest.data_read.is_empty());
        let r = report("param m; self.invoke(m, []);");
        assert!(r.manifest.dynamic_methods);
    }

    #[test]
    fn pure_programs_have_empty_manifests() {
        let r = report("return 1 + 2;");
        assert!(r.manifest.is_pure());
    }

    #[test]
    fn node_budget() {
        let p = Program::parse("return 1 + 2 + 3;").unwrap();
        let tight = ResourceBudget {
            max_nodes: 2,
            ..ResourceBudget::default()
        };
        let r = analyze_with_budget(&p, &tight);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::NodeBudget));
    }

    #[test]
    fn depth_budget() {
        let p = Program::parse("return ((((1))));").unwrap(); // parens fold; build deep by hand
        let deep = Program::from_parts(
            vec![],
            vec![Stmt::Return(Some(
                (0..20).fold(Expr::Literal(Value::Int(1)), |acc, _| {
                    Expr::Unary(crate::ast::UnaryOp::Not, Box::new(acc))
                }),
            ))],
        );
        let tight = ResourceBudget {
            max_depth: 8,
            ..ResourceBudget::default()
        };
        assert!(analyze_with_budget(&deep, &tight)
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::DepthBudget));
        assert!(analyze_with_budget(&p, &ResourceBudget::default()).is_clean());
    }

    fn static_fuel(src: &str) -> Option<u64> {
        report(src).static_fuel
    }

    #[test]
    fn fuel_budget_flags_expensive_loop_free_bodies() {
        let p = Program::parse("self.a(); self.b(); self.c();").unwrap();
        let bound = analyze_program(&p).static_fuel.expect("loop-free");
        let tight = ResourceBudget {
            max_static_fuel: Some(bound - 1),
            ..ResourceBudget::default()
        };
        assert!(analyze_with_budget(&p, &tight)
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::FuelBudget));
        let loose = ResourceBudget {
            max_static_fuel: Some(bound),
            ..ResourceBudget::default()
        };
        assert!(analyze_with_budget(&p, &loose).is_clean());
    }

    /// Fuel one run of `p` burns on the evaluator and on the VM, with
    /// `(1, 2)` as arguments and a host that answers every call `null`.
    fn burns(p: &Program) -> (u64, u64) {
        struct Free;
        impl crate::eval::HostContext for Free {
            fn host_call(
                &mut self,
                _: &str,
                _: &[Value],
            ) -> Result<Value, crate::error::ScriptError> {
                Ok(Value::Null)
            }
        }
        let args = [Value::Int(1), Value::Int(2)];
        let mut host = Free;
        let mut ev = Evaluator::new(&mut host);
        let _ = ev.run(p, &args);
        let mut host = Free;
        let mut vm = crate::vm::Vm::new(&mut host);
        let _ = vm.run(&p.compiled(), &args);
        (ev.fuel_used(), vm.fuel_used())
    }

    #[test]
    fn static_fuel_bound_dominates_actual_burn() {
        // For loop-free bodies with scalar data, the bound must dominate
        // what both engines actually burn.
        for src in [
            "return 1 + 2 * 3;",
            "param a; param b; if (a > b) { return a; } else { return b; }",
            "let x = [1, 2, 3]; x[0] = 9; return x[0] + x[1];",
            "return len([1, 2, 3]) + contains(\"abc\", \"b\");",
            "let m = {\"k\": 1}; return m[\"k\"] == 1 && true || false;",
            "self.x(); self.y(1, 2); return min(3, 4);",
            "return substr(\"hello\", 1, 3) + str(42);",
            // Literal string arguments longer than 8 bytes.
            "return len(\"abcdefghijklmnopqrstuvwxyz\") + \
             contains(\"a haystack well past eight bytes\", \"stack\");",
            "return substr(\"abcdefghijklmnopqrstuvwxyz\", 2, 20);",
            // The output surcharge (see the scalar caveat below for a
            // computed list passed on to another builtin).
            "return range(100);",
            "let r = range(5, 105); return 1;",
            // Four and more arguments (an arity error, burned first).
            "return min(1, 2, 3, 4);",
            "return max(\"abcdefghijklmnop\", 1, 2, 3, 4, 5);",
            // The allocation surcharge.
            "return \"abcdefghij\" + \"klmnopqrst\";",
            "return \"ab\" * 9;",
            // Short-circuit operators, both outcomes.
            "param a; return a > 0 && \"abcdefghij\" + \"klmnopqrst\" == \"\";",
            "param a; return a < 0 || len(\"abcdefghijklmnopqrstuvwxyz\") > 3;",
            "return false && true;",
            "return true || self.never();",
            // A constant argument pushed before a short-circuit join.
            "param a; return len(\"abcdefghijklmnopqrstuvwxyz\", a && true);",
            // A return inside one branch, and statements after a return.
            "param a; if (a > 0) { return \"ab\" * 9; } let y = a + 1; return y;",
            "param a; if (a < 0) { return 0; } else { self.z(); } return range(40);",
            "return 1; self.x(); return len(range(100));",
            "param a; if (a) { return 1; self.dead(); } return 2;",
            // Nested index assignment.
            "let m = [[1, 2], [3, [4, 5]]]; m[1][1][0] = \"abcdefghij\" + \"klmnopqrst\"; \
             return m[1][1][0];",
            "let m = {\"a\": {\"b\": 1}}; m[\"a\"][\"b\"] = range(64); return m;",
        ] {
            let p = Program::parse(src).unwrap();
            let bound = analyze_program(&p).static_fuel.expect("loop-free");
            let (eval, vm) = burns(&p);
            assert_eq!(eval, vm, "{src:?}: the engines disagree");
            assert!(eval <= bound, "{src:?}: burned {eval} > bound {bound}");
        }
    }

    #[test]
    fn single_path_bounds_are_exact() {
        // One path through constant or scalar operands: the bound is the
        // burn, surcharges included.
        for src in [
            "return len(\"abcdefghijklmnopqrstuvwxyz\");",
            "return range(100);",
            "return min(1, 2, 3, 4);",
            "return \"abcdefghij\" + \"klmnopqrst\";",
            "return \"ab\" * 9;",
            "let m = [[1, 2], [3, 4]]; m[1][0] = 9; return m[1][0];",
            "self.x(\"abcdefghijklmnopqrstuvwxyz\"); return 1; self.dead();",
        ] {
            let p = Program::parse(src).unwrap();
            let (eval, _) = burns(&p);
            assert_eq!(analyze_program(&p).static_fuel, Some(eval), "{src:?}");
        }
    }

    #[test]
    fn computed_operands_are_priced_as_scalars() {
        // `range(100)` pays its output surcharge (100 / 4) in the bound,
        // but the list it builds is a runtime value, so `len` is priced
        // for a scalar argument while it burns for 101 elements: the
        // documented caveat of the bound, by exactly that argument
        // surcharge.
        let p = Program::parse("return len(range(100));").unwrap();
        let bound = analyze_program(&p).static_fuel.expect("loop-free");
        let (eval, vm) = burns(&p);
        assert_eq!((eval, vm), (bound + 101 / 4, bound + 101 / 4));
        assert_eq!(static_fuel("return range(100);"), Some(bound - 1));
    }

    #[test]
    fn code_after_a_return_is_not_priced() {
        assert_eq!(
            static_fuel("return 1; self.x(); self.y();"),
            static_fuel("return 1;")
        );
        // The costlier branch sets the bound; a branch that returns does
        // not also pay for what follows the `if`.
        let one_branch = static_fuel("param a; if (a) { return self.x(); } return 1;").unwrap();
        let both = static_fuel("param a; if (a) { self.x(); } return 1;").unwrap();
        assert!(one_branch < both, "{one_branch} vs {both}");
    }

    #[test]
    fn loops_have_no_static_bound() {
        assert_eq!(static_fuel("while (true) { }"), None);
        assert_eq!(static_fuel("for (i in range(3)) { }"), None);
        assert_eq!(static_fuel("for (i in [1]) { return i; }"), None);
        assert!(static_fuel("return 1;").is_some());
    }

    #[test]
    fn diagnostics_have_paths_and_render() {
        let r = report("if (true) { return ghost; }");
        assert_eq!(r.diagnostics.len(), 1);
        let d = &r.diagnostics[0];
        assert!(d.path.contains("then"), "path was {:?}", d.path);
        let line = d.to_string();
        assert!(line.contains("undefined-variable"));
        assert!(line.contains("ghost"));
        assert_eq!(
            d.clone().in_context("greet.body").path,
            format!("greet.body: {}", d.path)
        );
    }

    #[test]
    fn repeated_defects_dedup_to_one_diagnostic() {
        // The same undefined name twice in one statement used to emit
        // one diagnostic per visit; one defect reports once.
        let p = Program::parse("return ghost + ghost;").unwrap();
        let report = analyze_program(&p);
        let undefined: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagnosticKind::UndefinedVariable)
            .collect();
        assert_eq!(undefined.len(), 1, "{:?}", report.diagnostics);

        // Distinct defects of the same kind at the same spot survive.
        let p = Program::parse("return ghost + phantom;").unwrap();
        let report = analyze_program(&p);
        assert_eq!(report.diagnostics.len(), 2, "{:?}", report.diagnostics);
    }

    #[test]
    fn clean_bodies_are_compiled_and_verified() {
        let report = analyze_program(&Program::parse("return 1 + 2;").unwrap());
        assert!(report.precompiled && report.verified);
        // Error-bearing bodies are neither compiled nor verified.
        let report = analyze_program(&Program::parse("return ghost;").unwrap());
        assert!(!report.precompiled && !report.verified);
        // Warnings alone don't block the compile+verify step.
        let report = analyze_program(&Program::parse("param spare; return 1;").unwrap());
        assert!(report.precompiled && report.verified);
    }

    #[test]
    fn null_host_eval_agrees_on_scope_errors() {
        // Programs the analyzer flags as UndefinedVariable/UseBeforeAssign
        // hit the same error at run time.
        for src in [
            "return ghost;",
            "if (true) { let x = 1; } return x;",
            "for (i in range(2)) { } return i;",
        ] {
            let p = Program::parse(src).unwrap();
            assert!(!analyze_program(&p).is_clean());
            let mut host = NullHost;
            let out = Evaluator::new(&mut host).run(&p, &[]);
            assert!(
                matches!(out, Err(crate::error::ScriptError::UndefinedVariable(_))),
                "{src:?} evaluated to {out:?}"
            );
        }
    }
}
