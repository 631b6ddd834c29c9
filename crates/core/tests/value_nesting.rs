//! A script cannot build a value nested deeper than `MAX_VALUE_DEPTH`.
//!
//! Without the bound, `let l = [1]; while (true) { l = [l]; }` nests a
//! list once per pass until fuel runs out, and dropping, cloning or
//! encoding that value overflows the host's stack: the process aborts,
//! which no `catch_unwind` can turn into an error. This file is a test
//! binary of its own so that such an abort cannot take other tests with
//! it.
//!
//! Every place a value gains depth is covered: list and map literals
//! (`MakeList`, `MakeMap`), path writes (`AssignPath`), the builtins that
//! put an argument into a container (`push`, `set`, `coerce` to a list),
//! and host-call results. Both engines raise the same
//! `ScriptError::NestingTooDeep` with the same fuel used, and a value at
//! exactly the bound still builds, runs and migrates.

use mrom_core::{ClassSpec, DataItem, Method, MethodBody, MromError, MromObject, Runtime};
use mrom_script::{Evaluator, HostContext, Program, ScriptError, Vm, MAX_VALUE_DEPTH};
use mrom_value::{wire, NodeId, Value};

const TOO_DEEP: ScriptError = ScriptError::NestingTooDeep {
    limit: MAX_VALUE_DEPTH,
};

fn script(src: &str) -> Method {
    Method::public(MethodBody::script(src).expect("test bodies parse"))
}

/// `1` wrapped in `depth - 1` lists: a value `depth` levels deep.
fn nested(depth: usize) -> Value {
    (1..depth).fold(Value::Int(1), |v, _| Value::list([v]))
}

/// Answers `self.deep(n)` with a value `n` levels deep and anything else
/// with its first argument.
struct DeepHost;

impl HostContext for DeepHost {
    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        match (name, args) {
            ("deep", [Value::Int(n)]) => Ok(nested(usize::try_from(*n).unwrap_or(0))),
            _ => Ok(args.first().cloned().unwrap_or(Value::Null)),
        }
    }
}

/// Runs `src` on both engines; asserts the same outcome and fuel.
fn both(src: &str) -> Result<Value, ScriptError> {
    let p = Program::parse(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"));
    let (mut h1, mut h2) = (DeepHost, DeepHost);
    let mut interp = Evaluator::new(&mut h1);
    let a = interp.run(&p, &[]);
    let mut vm = Vm::new(&mut h2);
    let b = vm.run(&p.compiled(), &[]);
    assert_eq!(a, b, "{src}");
    assert_eq!(interp.fuel_used(), vm.fuel_used(), "fuel drift on {src}");
    b
}

/// Each deepening site, given a value `v`: one statement that returns
/// a value the given number of levels deeper.
const SITES: [(&str, usize); 8] = [
    ("return [0, v];", 1),
    ("return {\"a\": 0, \"b\": v};", 1),
    ("let m = [0]; m[0] = v; return m;", 1),
    ("let m = {\"k\": [0]}; m[\"k\"][0] = v; return m;", 2),
    ("return push([], v);", 1),
    ("return set({}, \"k\", v);", 1),
    ("return set([0], 0, v);", 1),
    ("return self.echo([v]);", 1),
];

/// A statement binding `v` to a value `depth` levels deep.
fn bind_v(depth: usize) -> String {
    format!("let v = 1; for (i in range({})) {{ v = [v]; }}", depth - 1)
}

#[test]
fn every_deepening_site_stops_at_the_bound_on_both_engines() {
    for (site, levels) in SITES {
        // A site that builds a value exactly at the bound succeeds.
        let at_bound = both(&format!("{} {site}", bind_v(MAX_VALUE_DEPTH - levels)))
            .unwrap_or_else(|e| panic!("{site}: {e}"));
        assert_eq!(at_bound.depth(), MAX_VALUE_DEPTH, "{site}");
        // One level more is refused.
        let past = format!("{} {site}", bind_v(MAX_VALUE_DEPTH - levels + 1));
        assert_eq!(both(&past), Err(TOO_DEEP), "{site}");
    }
    // `coerce` to a list wraps a scalar (one level, never near the bound)
    // and pairs each entry of a map: one level deeper.
    let map = |depth| format!("{} return coerce({{\"k\": v}}, \"list\");", bind_v(depth));
    assert_eq!(
        both(&map(MAX_VALUE_DEPTH - 2)).map(|v| v.depth()),
        Ok(MAX_VALUE_DEPTH)
    );
    assert_eq!(both(&map(MAX_VALUE_DEPTH - 1)), Err(TOO_DEEP));
    // A host-call result past the bound is refused; one at it is kept.
    assert_eq!(
        both(&format!("return self.deep({MAX_VALUE_DEPTH});")).map(|v| v.depth()),
        Ok(MAX_VALUE_DEPTH)
    );
    assert_eq!(
        both(&format!("return self.deep({});", MAX_VALUE_DEPTH + 1)),
        Err(TOO_DEEP)
    );
}

/// Every builtin row, at every arity, with values at the bound (a list
/// and a map) or small scalars in every argument position: a result is
/// never deeper than the bound, and both engines agree.
#[test]
fn no_builtin_returns_a_value_past_the_bound() {
    let prelude = format!(
        "{} let m = {{\"k\": v}}; v = [v];",
        bind_v(MAX_VALUE_DEPTH - 1)
    );
    assert_eq!(
        both(&format!("{prelude} return [v, m];")),
        Err(TOO_DEEP),
        "both operands sit at the bound"
    );
    let operands = ["v", "m", "0", "\"k\"", "\"list\""];
    let (mut refused, mut at_bound) = (0, 0);
    for row in &mrom_script::surface::BUILTINS {
        for &arity in row.arities {
            for pick in 0..operands.len().pow(arity as u32) {
                let args: Vec<&str> = (0..arity)
                    .map(|i| operands[pick / operands.len().pow(i as u32) % operands.len()])
                    .collect();
                let src = format!("{prelude} return {}({});", row.name, args.join(", "));
                match both(&src) {
                    Ok(out) => {
                        assert!(out.depth() <= MAX_VALUE_DEPTH, "{src}");
                        at_bound += usize::from(out.depth() == MAX_VALUE_DEPTH);
                    }
                    Err(TOO_DEEP) => refused += 1,
                    Err(_) => {}
                }
            }
        }
    }
    // `push`, `set` and `coerce` refuse some combinations; many others
    // (`last`, `min`, `values`, ...) return a value at the bound.
    assert!(
        refused >= 3 && at_bound >= 5,
        "{refused} refused, {at_bound} at the bound"
    );
}

#[test]
fn the_runaway_nesting_loop_is_an_error_not_an_abort() {
    let src = "let l = [1]; while (true) { l = [l]; } return l;";
    assert_eq!(both(src), Err(TOO_DEEP));

    let mut rt = Runtime::new(NodeId(0x1502));
    rt.classes_mut()
        .register(
            ClassSpec::new("nester")
                .fixed_data("count", DataItem::public(Value::Int(0)))
                .fixed_data("x", DataItem::public(Value::Int(0)))
                .fixed_method("nest", script(src))
                // A `getDataItem` descriptor wraps the item's value, so
                // storing it back nests one level per pass.
                .fixed_method(
                    "regrow",
                    script(
                        "while (true) { self.set(\"x\", self.get_data_item(\"x\")); } \
                         return null;",
                    ),
                )
                .fixed_method(
                    "bump",
                    script(
                        "self.set(\"count\", self.get(\"count\") + 1); \
                         return self.get(\"count\");",
                    ),
                ),
        )
        .unwrap();
    let id = rt.create("nester").unwrap();
    for method in ["nest", "regrow"] {
        assert_eq!(
            rt.invoke_as_system(id, method, &[]),
            Err(MromError::Script(TOO_DEEP)),
            "{method}"
        );
    }
    assert_eq!(rt.poison_cause(id), None);
    assert_eq!(rt.invoke_as_system(id, "bump", &[]), Ok(Value::Int(1)));
}

/// The deepest value a script can build is what a data item can carry
/// through a migration image: the image decodes, with the value intact.
#[test]
fn a_value_at_the_bound_migrates() {
    let mut rt = Runtime::new(NodeId(0x1503));
    rt.classes_mut()
        .register(
            ClassSpec::new("deep")
                .fixed_data("x", DataItem::public(Value::Null))
                .fixed_method(
                    "fill",
                    script(&format!(
                        "{} self.set(\"x\", v); return null;",
                        bind_v(MAX_VALUE_DEPTH)
                    )),
                ),
        )
        .unwrap();
    let id = rt.create("deep").unwrap();
    assert_eq!(rt.invoke_as_system(id, "fill", &[]), Ok(Value::Null));
    let obj = rt.object(id).unwrap();
    let image = obj.image_bytes().unwrap();
    assert_eq!(image, wire::encode(&obj.image_value().unwrap()));
    let back = MromObject::from_image(&image).unwrap();
    assert_eq!(
        back.read_data(back.id(), "x").map(|v| v.depth()),
        Ok(MAX_VALUE_DEPTH)
    );
}
