//! The windowed telemetry pipeline, end to end: a three-site federation
//! produces a populated [`mrom_obs::TelemetrySnapshot`] (hot objects,
//! site-to-site call matrix, per-link windows), the reflective
//! `getTelemetry` meta-method serves it as a value tree, per-site
//! filtering works, and the whole thing is a pure function of the
//! `SimNet` seed — byte-identical JSON across replays. The same replay
//! check under injected faults runs over the fleet engine's chaos
//! presets (`mrom-fleet`'s determinism suite).

use hadas::Federation;
use mrom_core::{ClassSpec, Method, MethodBody};
use mrom_net::{LinkConfig, NetworkConfig};
use mrom_obs::{ObsMode, WindowConfig};
use mrom_value::{NodeId, ObjectId, Value};

/// Seeds to sweep: `MROM_CHAOS_SEEDS` (a count) or a fast default.
fn sweep_seeds() -> Vec<u64> {
    let count = std::env::var("MROM_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(3);
    (1..=count.max(1)).collect()
}

/// A three-site triangle with one service object at each remote site
/// and a local object at the calling site, exercised enough to light up
/// every snapshot section: local invokes (diagonal of the call matrix),
/// cross-site invokes (off-diagonal + link traffic), and repeats to
/// make `svc_b` unambiguously the hottest object.
struct Fixture {
    fed: Federation,
    a: NodeId,
    b: NodeId,
    local: ObjectId,
    svc_b: ObjectId,
}

fn run_fixture(seed: u64) -> Fixture {
    let cfg = NetworkConfig::new(seed).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
    for n in [a, b, c] {
        fed.add_site(n).unwrap();
    }
    fed.link(a, b).unwrap();
    fed.link(a, c).unwrap();
    fed.link(b, c).unwrap();

    let adopt_svc = |fed: &mut Federation, at: NodeId| {
        let rt = fed.runtime_mut(at).unwrap();
        let svc = ClassSpec::new("svc")
            .fixed_method(
                "ping",
                Method::public(MethodBody::script("return 7;").unwrap()),
            )
            .instantiate_as(rt.ids_mut().next_id(), None);
        let id = svc.id();
        rt.adopt(svc).unwrap();
        id
    };
    let svc_b = adopt_svc(&mut fed, b);
    let svc_c = adopt_svc(&mut fed, c);
    let local = adopt_svc(&mut fed, a);

    let caller = ObjectId::SYSTEM;
    for _ in 0..5 {
        fed.remote_invoke(a, b, caller, svc_b, "ping", &[]).unwrap();
    }
    fed.remote_invoke(a, c, caller, svc_c, "ping", &[]).unwrap();
    fed.runtime_mut(a)
        .unwrap()
        .invoke_as_system(local, "ping", &[])
        .unwrap();
    Fixture {
        fed,
        a,
        b,
        local,
        svc_b,
    }
}

fn with_windowed_ring<T>(body: impl FnOnce() -> T) -> T {
    mrom_obs::reset();
    mrom_obs::set_window(Some(WindowConfig::DEFAULT));
    mrom_obs::set_mode(ObsMode::Ring);
    let out = body();
    mrom_obs::set_mode(ObsMode::Disabled);
    mrom_obs::set_window(None);
    mrom_obs::reset();
    out
}

#[test]
fn federation_snapshot_is_populated_and_site_filtered() {
    with_windowed_ring(|| {
        let fx = run_fixture(11);
        let snap = fx.fed.telemetry();

        // Hot objects: the five-times-invoked service leads the board.
        let hot = snap.hot_objects(3);
        assert!(!hot.is_empty(), "window saw invocations");
        assert_eq!(hot[0].0, fx.svc_b, "svc_b is the hottest object");
        assert_eq!(hot[0].1.invocations, 5);

        // Call matrix: diagonal counts executions at a site,
        // off-diagonal counts cross-site invoke_req traffic.
        assert!(snap.calls.get(&(fx.a, fx.b)).copied().unwrap_or(0) >= 5);
        assert!(snap.calls.get(&(fx.b, fx.b)).copied().unwrap_or(0) >= 5);
        assert!(snap.calls.get(&(fx.a, fx.a)).copied().unwrap_or(0) >= 1);

        // Link windows: the a->b link delivered the requests.
        let ab = snap.links.get(&(fx.a, fx.b)).expect("a->b link windowed");
        assert!(ab.delivered >= 5);
        assert!(ab.bytes > 0);
        assert_eq!(ab.delivered_per_1k(), 1000, "LAN link drops nothing");

        // Site filtering: site B's slice keeps only B-hosted objects and
        // B-touching matrix rows / links.
        let site_b = fx.fed.site_telemetry(fx.b).unwrap();
        assert!(site_b.objects.contains_key(&fx.svc_b));
        assert!(!site_b.objects.contains_key(&fx.local));
        assert!(site_b.calls.keys().all(|(s, d)| *s == fx.b || *d == fx.b));
        assert!(site_b.links.keys().all(|(s, d)| *s == fx.b || *d == fx.b));
        assert!(fx.fed.site_telemetry(NodeId(99)).is_err());
    });
}

#[test]
fn get_telemetry_meta_method_serves_the_snapshot_as_a_value() {
    with_windowed_ring(|| {
        let mut fx = run_fixture(12);
        let v = fx
            .fed
            .runtime_mut(fx.a)
            .unwrap()
            .invoke_as_system(fx.local, "getTelemetry", &[])
            .unwrap();
        let m = v.as_map().expect("snapshot is a map");
        assert_eq!(
            m.get("schema"),
            Some(&Value::from("mrom.telemetry.v1")),
            "stable schema tag"
        );
        assert_eq!(m.get("object"), Some(&Value::ObjectRef(fx.local)));
        let objects = m.get("objects").and_then(Value::as_list).unwrap();
        assert!(!objects.is_empty(), "hot objects present");
        let calls = m.get("calls").and_then(Value::as_list).unwrap();
        assert!(!calls.is_empty(), "call matrix present");
        let links = m.get("links").and_then(Value::as_list).unwrap();
        assert!(!links.is_empty(), "link windows present");
    });
}

#[test]
fn federation_snapshot_is_deterministic_per_seed() {
    let run = |seed| {
        with_windowed_ring(|| {
            let fx = run_fixture(seed);
            fx.fed.telemetry().to_json()
        })
    };
    for seed in sweep_seeds() {
        let first = run(seed);
        let second = run(seed);
        assert_eq!(first, second, "seed {seed} must replay identically");
        assert!(first.contains("\"schema\":\"mrom.telemetry.v1\""));
    }
}
