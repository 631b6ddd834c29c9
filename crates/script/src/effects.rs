//! Interprocedural effect signatures for method bodies.
//!
//! The admission analyzer ([`crate::analyze`]) inspects one body at a
//! time. This module lifts those per-body facts to the *method* level
//! and closes them over the call graph: a method's [`EffectSignature`]
//! accounts for everything the method itself does **plus** everything
//! every method it can reach through `self.invoke(...)` does — including
//! recursion (handled by widening) and dynamic dispatch (a computed
//! method name joins every method in the object, the sound worst case).
//!
//! The signature answers the questions the rest of the system gates on:
//!
//! * **purity** — no writes, no structural mutation, no world calls:
//!   safe to replay, reorder, or serve from a cache;
//! * **idempotence** — re-running cannot change the outcome (only
//!   constant-valued writes, nothing structural, no world calls): safe
//!   for a federation layer to *retry* without an exactly-once channel;
//! * **migration safety** — no site-local world calls anywhere in the
//!   reachable call graph: the method keeps working after the object
//!   migrates;
//! * **fuel bound** — a static interprocedural upper bound on fuel, or
//!   `None` when any reachable body loops, recurses, or is opaque. Each
//!   body's own share is the analyzer's
//!   [`AnalysisReport::static_fuel`](crate::AnalysisReport::static_fuel);
//!   this module only adds it up over the call graph.
//!
//! The module is object-agnostic: callers (the object layer in
//! `mrom-core`) build a name → [`LocalEffects`] map for an object's
//! methods — script bodies via [`LocalEffects::of_program`], native and
//! meta bodies via the explicit constructors — and [`solve`] returns the
//! fixpoint. Signatures are deterministic: all sets are ordered, and the
//! fixpoint is a monotone iteration over a finite lattice.

use std::collections::{BTreeMap, BTreeSet};

use mrom_value::Value;

use crate::analyze::{analyze_program, HostManifest};
use crate::ast::Program;

/// Per-body effect facts, before interprocedural closure.
///
/// Built from one method body in isolation; [`solve`] joins these over
/// the call graph into [`EffectSignature`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalEffects {
    /// The body's `self.*` capability surface, with its constant-write
    /// and literal invoke-site facts.
    pub manifest: HostManifest,
    /// Static fuel bound of this body alone; `None` when it loops.
    pub local_fuel: Option<u64>,
    /// The body is opaque to analysis (a native closure): assume the
    /// worst on every axis.
    pub opaque: bool,
}

impl LocalEffects {
    /// Extracts local effects from a script body: the analyzer's host
    /// manifest and static fuel bound.
    #[must_use]
    pub fn of_program(program: &Program) -> LocalEffects {
        let report = analyze_program(program);
        LocalEffects {
            manifest: report.manifest,
            local_fuel: report.static_fuel,
            opaque: false,
        }
    }

    /// The worst-case element: a body analysis cannot see into (native
    /// Rust closures). Poisons purity, idempotence, migration safety,
    /// and the fuel bound of everything that can reach it.
    #[must_use]
    pub fn opaque() -> LocalEffects {
        LocalEffects {
            opaque: true,
            ..LocalEffects::default()
        }
    }

    /// An effect-free leaf with a known fuel bound (reflective getters
    /// implemented natively: `getStats`, `getEffects`, ...).
    #[must_use]
    pub fn pure_native() -> LocalEffects {
        LocalEffects {
            local_fuel: Some(0),
            ..LocalEffects::default()
        }
    }
}

/// The interprocedurally closed effect signature of one method: what
/// the method — and everything it can reach through `self.invoke` —
/// can do to its object and host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSignature {
    /// Data items read anywhere in the reachable call graph.
    pub reads: BTreeSet<String>,
    /// Data items written in place.
    pub writes: BTreeSet<String>,
    /// Structural mutation anywhere (items/methods added or deleted,
    /// method slots replaced, meta-invoke tower changed).
    pub structural: bool,
    /// Host world calls (site-local capabilities) anywhere.
    pub world_calls: BTreeSet<String>,
    /// Methods reachable through literal `self.invoke` edges.
    pub calls: BTreeSet<String>,
    /// A computed data or method name was used somewhere: the read /
    /// write / call sets are lower bounds, not exact.
    pub dynamic: bool,
    /// The reachable graph includes a native body analysis cannot see.
    pub opaque: bool,
    /// No writes, no structural mutation, no world calls: replayable.
    pub pure: bool,
    /// Re-running cannot change the outcome: only constant writes,
    /// nothing structural, no world calls, nothing dynamic or opaque.
    /// The property federation retry policies gate on.
    pub idempotent: bool,
    /// No site-local world calls anywhere: the method keeps working
    /// after migration. The property `Strict` dispatch gates on.
    pub migration_safe: bool,
    /// Interprocedural static fuel bound; `None` when any reachable
    /// body loops, recurses, dispatches dynamically, or is opaque.
    pub fuel_bound: Option<u64>,
}

impl EffectSignature {
    /// The signature as a deterministic value tree (the `getEffects`
    /// reflective surface).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let strs = |set: &BTreeSet<String>| {
            Value::List(set.iter().map(|s| Value::from(s.as_str())).collect())
        };
        Value::map([
            ("reads", strs(&self.reads)),
            ("writes", strs(&self.writes)),
            ("structural", Value::Bool(self.structural)),
            ("world_calls", strs(&self.world_calls)),
            ("calls", strs(&self.calls)),
            ("dynamic", Value::Bool(self.dynamic)),
            ("opaque", Value::Bool(self.opaque)),
            ("pure", Value::Bool(self.pure)),
            ("idempotent", Value::Bool(self.idempotent)),
            ("migration_safe", Value::Bool(self.migration_safe)),
            (
                "fuel_bound",
                match self.fuel_bound {
                    Some(f) => Value::Int(i64::try_from(f).unwrap_or(i64::MAX)),
                    None => Value::Null,
                },
            ),
        ])
    }
}

/// Per-method fixpoint state during [`solve`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct State {
    reads: BTreeSet<String>,
    writes: BTreeSet<String>,
    structural: bool,
    world_calls: BTreeSet<String>,
    calls: BTreeSet<String>,
    dynamic: bool,
    /// A computed *method* name reached an invoke: the call edge set is
    /// unknown, so the solver joins every method. Distinct from `dynamic`
    /// (which also covers computed data names — those make the read/write
    /// sets lower bounds but cannot call anything).
    dispatch: bool,
    opaque: bool,
    constant_writes_only: bool,
}

impl State {
    fn seed(local: &LocalEffects) -> State {
        let m = &local.manifest;
        State {
            reads: m.data_read.clone(),
            writes: m.data_written.clone(),
            structural: m.structural,
            world_calls: m.world_calls.clone(),
            calls: m.methods_invoked.clone(),
            dynamic: m.dynamic_data || m.dynamic_methods,
            dispatch: m.dynamic_methods,
            opaque: local.opaque,
            constant_writes_only: !m.computed_writes,
        }
    }

    /// Monotone join of a callee's state into the caller's. Returns
    /// true when anything grew (the fixpoint's progress test). Sets only
    /// grow and flags only flip one way, so cardinality + flag snapshots
    /// detect change without cloning the whole state.
    fn absorb(&mut self, callee: &State) -> bool {
        fn extend_missing(dst: &mut BTreeSet<String>, src: &BTreeSet<String>) {
            // Clone only what is actually new — re-absorbing an already
            // joined callee costs lookups, not allocations.
            for x in src {
                if !dst.contains(x) {
                    dst.insert(x.clone());
                }
            }
        }
        let before = self.fingerprint();
        extend_missing(&mut self.reads, &callee.reads);
        extend_missing(&mut self.writes, &callee.writes);
        self.structural |= callee.structural;
        extend_missing(&mut self.world_calls, &callee.world_calls);
        extend_missing(&mut self.calls, &callee.calls);
        self.dynamic |= callee.dynamic;
        self.dispatch |= callee.dispatch;
        self.opaque |= callee.opaque;
        self.constant_writes_only &= callee.constant_writes_only;
        self.fingerprint() != before
    }

    fn fingerprint(&self) -> (usize, usize, usize, usize, [bool; 5]) {
        (
            self.reads.len(),
            self.writes.len(),
            self.world_calls.len(),
            self.calls.len(),
            [
                self.structural,
                self.dynamic,
                self.dispatch,
                self.opaque,
                self.constant_writes_only,
            ],
        )
    }
}

/// Closes per-body [`LocalEffects`] over the `self.invoke` call graph
/// and derives the verdicts — the object-level fixpoint behind the
/// `getEffects` meta-method.
///
/// * A literal invoke edge to a **missing** method joins the worst case
///   (the runtime would fault, but a later `add_method` could bind it
///   to anything — the signature must stay sound across structural
///   change within the analyzed shape).
/// * A **dynamic** invoke (computed method name) joins *every* method.
/// * **Recursion** converges by monotone iteration for the set-based
///   facts and widens the fuel bound to `None`.
#[must_use]
pub fn solve(methods: &BTreeMap<String, LocalEffects>) -> BTreeMap<String, EffectSignature> {
    let names: Vec<&String> = methods.keys().collect();
    let index: BTreeMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let opaque_state = State {
        opaque: true,
        constant_writes_only: false,
        ..State::default()
    };

    // Seed states. A literal edge to a missing method joins the worst
    // case up front; the poison then rides ordinary absorption to every
    // transitive caller (a caller inheriting the ghost name in `calls`
    // also inherits the opaque flag from the same state).
    let mut states: Vec<State> = methods.values().map(State::seed).collect();
    for s in &mut states {
        if s.calls.iter().any(|c| !index.contains_key(c.as_str())) {
            s.absorb(&opaque_state);
        }
    }

    // The join of every seed is the least upper bound any state can
    // reach (every fixpoint state is a union of seeds). A dynamic
    // dispatch must join *every* method, so it absorbs this one
    // precomputed universe instead of walking all n states each round.
    let mut universe = State {
        constant_writes_only: true,
        ..State::default()
    };
    for s in &states {
        universe.absorb(s);
    }

    // Chaotic iteration to fixpoint with source-change tracking: the
    // edge (caller, callee) is re-joined only while one of its endpoints
    // changed in the previous or current round — a caller that grows a
    // new call edge is itself marked dirty, so the new edge gets a full
    // refresh next round. Every set is bounded by the finite universe of
    // names appearing in the object, so this terminates.
    let n = states.len();
    let mut dirty = vec![true; n];
    loop {
        let mut changed = false;
        let mut next_dirty = vec![false; n];
        for i in 0..n {
            let was_dirty = dirty[i];
            let mut s = std::mem::take(&mut states[i]);
            let mut grew = false;
            if s.dispatch {
                // The universe never changes: one absorb is final, and
                // a state that just turned dispatch is dirty next round.
                if was_dirty {
                    grew = s.absorb(&universe);
                }
            } else {
                let callees: Vec<usize> = s
                    .calls
                    .iter()
                    .filter_map(|c| index.get(c.as_str()).copied())
                    .filter(|&j| j != i)
                    .collect();
                for j in callees {
                    if was_dirty || dirty[j] || next_dirty[j] {
                        grew |= s.absorb(&states[j]);
                    }
                }
            }
            states[i] = s;
            if grew {
                next_dirty[i] = true;
                changed = true;
            }
        }
        dirty = next_dirty;
        if !changed {
            break;
        }
    }

    // Interprocedural fuel: DFS with on-stack cycle detection; a cycle,
    // a dynamic dispatch, an opaque body, or a loop (local None) widens
    // to None.
    let mut fuel_memo: BTreeMap<String, Option<u64>> = BTreeMap::new();
    let mut on_stack: BTreeSet<String> = BTreeSet::new();
    for name in &names {
        fuel_of(name, methods, &mut fuel_memo, &mut on_stack);
    }

    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let s = &states[i];
            let pure = s.writes.is_empty()
                && !s.structural
                && s.world_calls.is_empty()
                && !s.dynamic
                && !s.opaque;
            let idempotent = !s.structural
                && s.world_calls.is_empty()
                && !s.dynamic
                && !s.opaque
                && s.constant_writes_only;
            let migration_safe = s.world_calls.is_empty() && !s.opaque;
            (
                (*name).clone(),
                EffectSignature {
                    reads: s.reads.clone(),
                    writes: s.writes.clone(),
                    structural: s.structural,
                    world_calls: s.world_calls.clone(),
                    calls: s.calls.clone(),
                    dynamic: s.dynamic,
                    opaque: s.opaque,
                    pure,
                    idempotent,
                    migration_safe,
                    fuel_bound: fuel_memo.get(name.as_str()).copied().flatten(),
                },
            )
        })
        .collect()
}

fn fuel_of(
    name: &str,
    methods: &BTreeMap<String, LocalEffects>,
    memo: &mut BTreeMap<String, Option<u64>>,
    on_stack: &mut BTreeSet<String>,
) -> Option<u64> {
    if let Some(&cached) = memo.get(name) {
        return cached;
    }
    if on_stack.contains(name) {
        // Recursive edge: widen. The *cycle members* get None via their
        // own computation observing this None.
        return None;
    }
    let Some(local) = methods.get(name) else {
        memo.insert(name.to_owned(), None);
        return None;
    };
    if local.opaque || local.manifest.dynamic_methods {
        memo.insert(name.to_owned(), None);
        return None;
    }
    on_stack.insert(name.to_owned());
    let mut total = local.local_fuel;
    for (callee, &count) in &local.manifest.invoke_sites {
        let callee_fuel = fuel_of(callee, methods, memo, on_stack);
        total = match (total, callee_fuel) {
            (Some(t), Some(c)) => c.checked_mul(count).and_then(|x| t.checked_add(x)),
            _ => None,
        };
    }
    on_stack.remove(name);
    memo.insert(name.to_owned(), total);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    fn local(src: &str) -> LocalEffects {
        LocalEffects::of_program(&Program::parse(src).unwrap())
    }

    fn graph(entries: &[(&str, LocalEffects)]) -> BTreeMap<String, LocalEffects> {
        entries
            .iter()
            .map(|(n, l)| ((*n).to_owned(), l.clone()))
            .collect()
    }

    #[test]
    fn pure_reader_is_pure_idempotent_and_bounded() {
        let sigs = solve(&graph(&[("peek", local("return self.get(\"x\") + 1;"))]));
        let sig = &sigs["peek"];
        assert!(sig.pure && sig.idempotent && sig.migration_safe);
        assert!(sig.reads.contains("x"));
        assert!(sig.fuel_bound.is_some());
    }

    #[test]
    fn constant_write_is_idempotent_but_not_pure() {
        let sigs = solve(&graph(&[(
            "reset",
            local("self.set(\"x\", 0); return null;"),
        )]));
        let sig = &sigs["reset"];
        assert!(!sig.pure, "writes");
        assert!(sig.idempotent, "constant write replays identically");
        assert!(sig.writes.contains("x"));
    }

    #[test]
    fn computed_write_is_not_idempotent() {
        let sigs = solve(&graph(&[(
            "bump",
            local("self.set(\"x\", self.get(\"x\") + 1); return null;"),
        )]));
        let sig = &sigs["bump"];
        assert!(!sig.idempotent, "read-modify-write");
        assert!(sig.migration_safe);
    }

    #[test]
    fn effects_flow_through_invoke_edges() {
        let sigs = solve(&graph(&[
            ("outer", local("return self.invoke(\"inner\", []);")),
            (
                "inner",
                local("self.set(\"x\", self.get(\"x\") + 1); return null;"),
            ),
        ]));
        let outer = &sigs["outer"];
        assert!(
            outer.writes.contains("x"),
            "callee write visible: {outer:?}"
        );
        assert!(!outer.idempotent);
        assert!(outer.fuel_bound.is_some(), "loop-free chain stays bounded");
        assert!(
            outer.fuel_bound.unwrap() > sigs["inner"].fuel_bound.unwrap(),
            "caller pays for callee"
        );
    }

    #[test]
    fn recursion_widens_fuel_but_keeps_set_facts() {
        let sigs = solve(&graph(&[
            ("ping", local("return self.invoke(\"pong\", []);")),
            (
                "pong",
                local("let r = self.get(\"x\"); return self.invoke(\"ping\", []);"),
            ),
        ]));
        assert_eq!(sigs["ping"].fuel_bound, None, "cycle widens");
        assert_eq!(sigs["pong"].fuel_bound, None);
        assert!(sigs["ping"].reads.contains("x"), "set facts converge");
        assert!(sigs["ping"].migration_safe);
    }

    #[test]
    fn dynamic_invoke_joins_every_method() {
        let sigs = solve(&graph(&[
            ("router", local("param m; return self.invoke(m, []);")),
            ("worker", local("self.emit_to_console(1); return null;")),
        ]));
        let router = &sigs["router"];
        assert!(router.dynamic);
        assert!(
            router.world_calls.contains("emit_to_console"),
            "dynamic join pulled in the worker's world call: {router:?}"
        );
        assert!(!router.migration_safe);
        assert_eq!(router.fuel_bound, None);
    }

    #[test]
    fn computed_data_names_do_not_join_the_call_graph() {
        let sigs = solve(&graph(&[
            ("probe", local("param k; return self.get(k);")),
            ("noisy", local("self.beep(1); return null;")),
        ]));
        let probe = &sigs["probe"];
        assert!(probe.dynamic, "computed data name: sets are lower bounds");
        assert!(
            probe.world_calls.is_empty(),
            "a computed data name cannot call anything: {probe:?}"
        );
        assert!(probe.migration_safe);
    }

    #[test]
    fn missing_callee_is_opaque() {
        let sigs = solve(&graph(&[(
            "hopeful",
            local("return self.invoke(\"absent\", []);"),
        )]));
        assert!(sigs["hopeful"].opaque);
        assert!(!sigs["hopeful"].idempotent);
        assert!(!sigs["hopeful"].migration_safe);
    }

    #[test]
    fn structural_mutation_and_world_calls_are_flagged() {
        let sigs = solve(&graph(&[(
            "installer",
            local("self.add_method(\"m\", \"return 1;\"); return null;"),
        )]));
        assert!(sigs["installer"].structural);
        assert!(!sigs["installer"].idempotent);
        assert!(sigs["installer"].migration_safe, "structural but site-free");

        let sigs = solve(&graph(&[("beeper", local("self.beep(1); return null;"))]));
        assert!(sigs["beeper"].world_calls.contains("beep"));
        assert!(!sigs["beeper"].migration_safe);
    }

    #[test]
    fn opaque_native_poisons_callers() {
        let sigs = solve(&graph(&[
            ("caller", local("return self.invoke(\"native\", []);")),
            ("native", LocalEffects::opaque()),
        ]));
        assert!(sigs["caller"].opaque);
        assert!(!sigs["caller"].pure);
        assert!(!sigs["caller"].migration_safe);
        assert_eq!(sigs["caller"].fuel_bound, None);
    }

    #[test]
    fn signatures_are_deterministic() {
        let g = graph(&[
            (
                "a",
                local("return self.invoke(\"b\", []) + self.get(\"x\");"),
            ),
            ("b", local("self.set(\"y\", 2); return null;")),
            ("c", LocalEffects::pure_native()),
        ]);
        let one = solve(&g);
        let two = solve(&g);
        assert_eq!(one, two);
        let v1: Vec<Value> = one.values().map(EffectSignature::to_value).collect();
        let v2: Vec<Value> = two.values().map(EffectSignature::to_value).collect();
        assert_eq!(v1, v2);
    }

    #[test]
    fn loops_widen_local_fuel() {
        let sigs = solve(&graph(&[(
            "spin",
            local("let i = 0; while (i < 10) { i = i + 1; } return i;"),
        )]));
        assert_eq!(sigs["spin"].fuel_bound, None);
        assert!(sigs["spin"].pure, "loops don't affect purity");
    }
}
