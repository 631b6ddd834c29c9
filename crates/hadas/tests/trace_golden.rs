//! Trace bytes pinned: a seeded two-site federation run in Ring mode —
//! a local invoke, a remote invoke through a one-level meta-invoke tower,
//! a whole-object migration and an invoke of the migrant at its new site
//! — must reproduce the flight recorder's `Display` lines and the Chrome
//! `trace_event` export byte for byte.
//!
//! The goldens under `tests/golden/` pin the event taxonomy's rendered
//! form: a change to how events are built or stored must leave them
//! untouched. Regenerate with `MROM_TRACE_REGEN_GOLDEN=1` only when the
//! rendered format changes on purpose.

use hadas::Federation;
use mrom_core::{ClassSpec, DataItem, Method, MethodBody};
use mrom_net::{LinkConfig, NetworkConfig};
use mrom_obs::{ObsMode, WindowConfig};
use mrom_value::{NodeId, Value};

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs the scenario and returns `(ring lines, chrome json)`.
fn traced_run() -> (String, String) {
    mrom_obs::reset();
    mrom_obs::set_window(Some(WindowConfig::new(1_000, 4).with_callers()));
    mrom_obs::set_mode(ObsMode::Ring);

    let cfg = NetworkConfig::new(29).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    let (home, away) = (NodeId(1), NodeId(2));
    fed.add_site(home).unwrap();
    fed.add_site(away).unwrap();
    fed.link(home, away).unwrap();

    // A service at `away` whose dispatch descends one meta-invoke level.
    let rt = fed.runtime_mut(away).unwrap();
    let mut svc = ClassSpec::new("svc")
        .fixed_data("n", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script("self.set(\"n\", self.get(\"n\") + 1); return self.get(\"n\");")
                    .unwrap(),
            ),
        )
        .instantiate_as(rt.ids_mut().next_id(), None);
    let me = svc.id();
    svc.add_method(
        me,
        "meta_0",
        Method::public(MethodBody::script("param m; param a; return self.invoke(m, a);").unwrap()),
    )
    .unwrap();
    svc.install_meta_invoke(me, "meta_0").unwrap();
    let svc = rt.adopt(svc).unwrap();

    // A mobile agent at `home`.
    let rt = fed.runtime_mut(home).unwrap();
    let agent = ClassSpec::new("agent")
        .fixed_data("x", DataItem::public(Value::Int(1)))
        .fixed_method(
            "peek",
            Method::public(MethodBody::script("return self.get(\"x\");").unwrap()),
        )
        .instantiate_as(rt.ids_mut().next_id(), None);
    let agent = rt.adopt(agent).unwrap();
    let caller = rt.ids_mut().next_id();

    assert_eq!(
        fed.runtime_mut(home)
            .unwrap()
            .invoke(caller, agent, "peek", &[])
            .unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        fed.remote_invoke(home, away, caller, svc, "bump", &[])
            .unwrap(),
        Value::Int(1)
    );
    fed.dispatch_object(home, away, agent).unwrap();
    assert_eq!(
        fed.remote_invoke(home, away, caller, agent, "peek", &[])
            .unwrap(),
        Value::Int(1)
    );
    mrom_obs::set_mode(ObsMode::Disabled);
    mrom_obs::set_window(None);

    let events = mrom_obs::ring_snapshot();
    let mut lines = String::new();
    for e in &events {
        lines.push_str(&e.to_string());
        lines.push('\n');
    }
    (lines, mrom_obs::chrome_trace(&events))
}

/// Regenerates the goldens. Gated behind an env var so it never runs in
/// CI.
#[test]
fn regen_golden_when_asked() {
    if std::env::var("MROM_TRACE_REGEN_GOLDEN").is_err() {
        return;
    }
    let (lines, chrome) = traced_run();
    std::fs::create_dir_all(golden_path("")).unwrap();
    std::fs::write(golden_path("trace_small.ring.txt"), lines).unwrap();
    std::fs::write(golden_path("trace_small.chrome.json"), chrome).unwrap();
}

#[test]
fn ring_lines_and_chrome_export_match_the_golden() {
    let (lines, chrome) = traced_run();
    for needle in [
        "runtime_invoke",
        "tower_descend",
        "object_dispatched",
        "object_adopted",
    ] {
        assert!(lines.contains(needle), "scenario must record {needle}");
    }
    let golden = |name: &str| {
        std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("reading golden {name}: {e}"))
    };
    assert_eq!(lines, golden("trace_small.ring.txt"));
    assert_eq!(chrome, golden("trace_small.chrome.json"));
}
