//! The traced run: per-layer metrics from spans recorded around the
//! public calls the benchmark makes.
//!
//! A traced run first replays the exact window untraced (the reference
//! for the behaviour hash and for `trace.overhead_ratio`), then replays
//! it again with obs in Ring mode — only so the program's existing
//! counters can be read — recording a span around every op and every
//! churn, recovery and advisory call. For sampled ops it then times each
//! inner layer's public function on that op's own inputs (a clone of the
//! object, the protocol messages the op exchanged, its migration image)
//! and records those timings as child spans of the op. Layer self time
//! is count × unit cost; what the layers do not explain is the engine
//! residual. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use hadas::ProtocolMsg;
use mrom_core::{AdmissionPolicy, MromObject, Runtime};
use mrom_net::SimNet;
use mrom_obs::ObsMode;
use mrom_persist::{BlobStore, Depot, MemStore};
use mrom_value::{wire, NodeId, Value};

use crate::hist::Histogram;
use crate::json;
use crate::measure::{median, Report, RunConfig};
use crate::workload::{
    advisor_config, configure_obs, elapsed_ns, Client, Kind, Op, OpRecord, Workload,
};

/// About one invoke op in this many gets the inner layers timed; every
/// migration does (they are rare in the invoke mixes and they exercise
/// the most layers).
const INVOKE_SAMPLE_EVERY: u64 = 8;

/// Whether invoke op `op` is shadowed: a hash of its sequence number, not
/// a stride, so a periodic op pattern (e.g. alternating local and remote
/// invokes) cannot hide one kind from the sample.
fn sampled_invoke(op: u64) -> bool {
    op.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .is_multiple_of(INVOKE_SAMPLE_EVERY)
}

/// A recorded span. `op` is the op sequence number (0 for client calls
/// that are not ops); `parent` is 0 for roots.
struct Span {
    op: u64,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Unit-cost samples taken by the shadow measurements.
#[derive(Default)]
struct Samples {
    invoke_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    send_step_ns: Vec<f64>,
    msg_bytes: Vec<u64>,
    image_value_us: Vec<f64>,
    image_encode: (f64, f64),
    image_decode: (f64, f64),
    admit_us: Vec<f64>,
    decode_us: Vec<f64>,
    effects_us: Vec<f64>,
    put: (f64, f64),
    residual_us: Vec<f64>,
    /// Σ layer estimates and Σ op spans per kind (local, remote, migrate).
    closure: [(f64, f64); 3],
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    events: BTreeMap<&'static str, Vec<f64>>,
    shadow_net: SimNet,
    scratch: Runtime,
    store: MemStore,
    policy: AdmissionPolicy,
    ops: u64,
    msgs: u64,
    deliveries: u64,
    op_hist: Histogram,
    s: Samples,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, elapsed_ns(start) as f64)
}

fn kind_slot(kind: Kind) -> usize {
    match kind {
        Kind::Local => 0,
        Kind::Remote => 1,
        Kind::Migrate => 2,
    }
}

impl Tracer {
    fn new(d: &Client, policy: AdmissionPolicy) -> Tracer {
        let mut shadow_net = SimNet::new(d.net_config().clone());
        for site in 0..d.sizes().sites {
            shadow_net.add_node(d.node(site)).expect("fresh shadow net");
        }
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            events: BTreeMap::new(),
            shadow_net,
            scratch: Runtime::new(NodeId(u64::MAX)),
            store: MemStore::new(),
            policy,
            ops: 0,
            msgs: 0,
            deliveries: 0,
            op_hist: Histogram::default(),
            s: Samples::default(),
        }
    }

    fn span(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        dur_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns =
            u64::try_from(start.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            dur_ns,
        });
        id
    }

    /// Records the client's event spans and op spans for the last step,
    /// then runs the shadow measurements for sampled ops. `untraced`
    /// holds each op's wall time from the untraced reference replay,
    /// which the layer estimates are compared against (both taken with
    /// the same obs mode as a measured run).
    fn observe(&mut self, d: &Client, untraced: &[u32]) {
        let mut ids = Vec::with_capacity(d.events.len());
        for e in &d.events {
            let parent = e.parent.map_or(0, |i| ids[i]);
            ids.push(self.span(0, parent, e.name, e.start, e.dur_ns));
            self.events.entry(e.name).or_default().push(e.dur_ns as f64);
        }
        let first_op = d.ops - d.records.len() as u64 + 1;
        for (k, r) in d.records.iter().enumerate() {
            let op = first_op + k as u64;
            // An op issued inside an advisory epoch nests under it.
            let parent = d
                .events
                .iter()
                .zip(&ids)
                .find(|(e, _)| {
                    e.name == "hadas.advisor_epoch"
                        && r.start >= e.start
                        && r.start <= e.start + std::time::Duration::from_nanos(e.dur_ns)
                })
                .map_or(0, |(_, &id)| id);
            let name = match r.op.kind() {
                Kind::Local => "core.runtime_invoke",
                Kind::Remote => "hadas.remote_invoke",
                Kind::Migrate => "hadas.dispatch_object",
            };
            let id = self.span(op, parent, name, r.start, r.wall_ns);
            self.ops += 1;
            self.msgs += r.msgs;
            self.deliveries += r.deliveries;
            self.op_hist.record(r.wall_ns);
            if r.op.kind() == Kind::Migrate || sampled_invoke(op) {
                let prev = mrom_obs::mode();
                // Shadow work must not feed the program's counters or
                // telemetry (the Advisor reads the latter).
                mrom_obs::set_mode(ObsMode::Disabled);
                let estimate = self.shadow(d, r, op, id);
                mrom_obs::set_mode(prev);
                let reference = usize::try_from(op - 1).ok().and_then(|i| untraced.get(i));
                if let (Some(est), Some(&wall)) = (estimate, reference) {
                    let slot = &mut self.s.closure[kind_slot(r.op.kind())];
                    slot.0 += est;
                    slot.1 += f64::from(wall);
                    self.s.residual_us.push((f64::from(wall) - est) / 1e3);
                }
            }
        }
    }

    /// Times a protocol message through encode, decode and one SimNet
    /// send + step; returns the summed cost in ns.
    fn message(
        &mut self,
        op: u64,
        parent: u32,
        msg: &ProtocolMsg,
        from: NodeId,
        to: NodeId,
    ) -> f64 {
        let start = Instant::now();
        let (bytes, enc) = time(|| msg.encode());
        self.span(op, parent, "value.msg_encode", start, enc as u64);
        let start = Instant::now();
        let (_, dec) = time(|| ProtocolMsg::decode(&bytes));
        self.span(op, parent, "value.msg_decode", start, dec as u64);
        self.s.msg_bytes.push(bytes.len() as u64);
        let start = Instant::now();
        let (_, net) = time(|| {
            let _ = self.shadow_net.send(from, to, bytes);
            self.shadow_net.step()
        });
        self.span(op, parent, "net.send_step", start, net as u64);
        while self.shadow_net.step().is_some() {}
        self.s.encode_ns.push(enc);
        self.s.decode_ns.push(dec);
        self.s.send_step_ns.push(net);
        enc + dec + net
    }

    /// Runs `method` on a clone of the op's object in a scratch runtime.
    fn invoke_clone(
        &mut self,
        op: u64,
        parent: u32,
        obj: MromObject,
        caller: mrom_value::ObjectId,
        method: &str,
        args: &[Value],
    ) -> f64 {
        let id = obj.id();
        if self.scratch.adopt(obj).is_err() {
            return 0.0;
        }
        let start = Instant::now();
        let (_, ns) = time(|| self.scratch.invoke(caller, id, method, args));
        self.span(op, parent, "core.runtime_invoke_clone", start, ns as u64);
        let _ = self.scratch.evict(id);
        ns
    }

    /// The shadow measurements for one op; returns the layer estimate.
    fn shadow(&mut self, d: &Client, r: &OpRecord, op: u64, parent: u32) -> Option<f64> {
        let rank = r.op.rank();
        let id = d.objects[rank];
        let host = d.host[rank];
        let obj: MromObject = (*d.fed.runtime(d.node(host)).ok()?.object(id)?).clone();
        match r.op {
            Op::Invoke { from, to, bump, .. } => {
                let method = if bump { "bump" } else { "peek" };
                let invoke = self.invoke_clone(op, parent, obj, d.ioo(from), method, &[]);
                self.s.invoke_ns.push(invoke);
                if from == to {
                    return Some(invoke);
                }
                let req = ProtocolMsg::InvokeReq {
                    req_id: op,
                    caller: d.ioo(from),
                    target: id,
                    method: method.to_owned(),
                    args: Vec::new(),
                    trace: 0,
                    parent_span: 0,
                };
                let resp = ProtocolMsg::InvokeResp {
                    req_id: op,
                    result: r.result.clone().unwrap_or(Value::Null),
                };
                let (a, b) = (d.node(from), d.node(to));
                Some(
                    invoke
                        + self.message(op, parent, &req, a, b)
                        + self.message(op, parent, &resp, b, a),
                )
            }
            Op::Migrate { from, to, .. } => {
                let start = Instant::now();
                let (value, iv) = time(|| obj.image_value());
                self.span(op, parent, "core.image_value", start, iv as u64);
                let value = value.ok()?;
                let start = Instant::now();
                let (image, we) = time(|| wire::encode(&value));
                self.span(op, parent, "value.image_encode", start, we as u64);
                let kib = image.len() as f64 / 1024.0;
                let start = Instant::now();
                let (_, wd) = time(|| wire::decode(&image));
                self.span(op, parent, "value.image_decode", start, wd as u64);
                let start = Instant::now();
                let (_, pol) = time(|| MromObject::from_image_with_policy(&image, self.policy));
                self.span(op, parent, "core.from_image_policy", start, pol as u64);
                let start = Instant::now();
                let (fresh, off) =
                    time(|| MromObject::from_image_with_policy(&image, AdmissionPolicy::Off));
                self.span(op, parent, "core.from_image_off", start, off as u64);
                let mut fresh = fresh.ok()?;
                let start = Instant::now();
                let (_, eff) = time(|| fresh.effects());
                self.span(op, parent, "core.effects", start, eff as u64);
                let key = id.to_string();
                let start = Instant::now();
                let (_, put) = time(|| self.store.put(&key, &image));
                self.span(op, parent, "persist.put", start, put as u64);
                let arrival = if fresh.find_method("on_arrival").is_some() {
                    let ctx = Value::map([
                        ("host_site", Value::Int(to as i64)),
                        ("came_from", Value::Int(from as i64)),
                    ]);
                    self.invoke_clone(op, parent, fresh, d.ioo(to), "on_arrival", &[ctx])
                } else {
                    0.0
                };
                let moved = ProtocolMsg::MoveObject {
                    req_id: op,
                    image,
                    trace: 0,
                    parent_span: 0,
                };
                let ack = ProtocolMsg::MoveAck {
                    req_id: op,
                    adopted: id,
                };
                let (a, b) = (d.node(from), d.node(to));
                let msgs =
                    self.message(op, parent, &moved, a, b) + self.message(op, parent, &ack, b, a);
                self.s.image_value_us.push(iv / 1e3);
                self.s.image_encode.0 += we;
                self.s.image_encode.1 += kib;
                self.s.image_decode.0 += wd;
                self.s.image_decode.1 += kib;
                self.s.admit_us.push((pol - off) / 1e3);
                self.s.decode_us.push(off / 1e3);
                self.s.effects_us.push(eff / 1e3);
                self.s.put.0 += put;
                self.s.put.1 += kib;
                // Departure solves effects under Strict; both ends write
                // the image to their depot.
                let strict = matches!(self.policy, AdmissionPolicy::Strict);
                Some(iv + we + pol + 2.0 * put + arrival + msgs + if strict { eff } else { 0.0 })
            }
        }
    }

    fn write_jsonl(&self, path: &str) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"op\":{},\"span\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.op,
                s.id,
                s.parent,
                json::string(s.name),
                s.start_ns,
                s.dur_ns
            )
            .map_err(|e| format!("{path}: {e}"))?;
        }
        w.flush().map_err(|e| format!("{path}: {e}"))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the reference replay and the traced replay of `cfg`'s exact
/// window, the probes, and returns the per-layer report.
///
/// # Errors
///
/// Set-up or recovery calls the program refused, or an unwritable trace
/// file.
pub fn run(cfg: RunConfig, trace_out: Option<&str>) -> Result<Report, String> {
    let w = cfg.workload;
    let sizes = w.sizes(cfg.smoke);
    let limit = sizes.exact_ops;
    let mut report = Report {
        workload: w.name(),
        seed: cfg.seed,
        traced: true,
        segments: 1,
        exact_ops: limit,
        ..Report::default()
    };

    // Reference: the same window untraced.
    configure_obs(w, false);
    let mut reference = Client::setup(w, sizes, cfg.seed)?;
    let mut untraced = Histogram::default();
    let mut untraced_walls: Vec<u32> = Vec::with_capacity(usize::try_from(limit).unwrap_or(0) + 64);
    while reference.ops < limit {
        reference.step()?;
        for r in &reference.records {
            untraced.record(r.wall_ns);
            untraced_walls.push(u32::try_from(r.wall_ns).unwrap_or(u32::MAX));
        }
    }
    let reference_hash = reference.prefix_hash.unwrap_or(reference.hash);
    report.attempted += reference.ops;
    report.failed += reference.failed;
    report.violations.extend(
        reference
            .finish()?
            .into_iter()
            .map(|v| format!("reference: {v}")),
    );
    drop(reference);

    // Traced replay.
    configure_obs(w, true);
    let mut d = Client::setup(w, sizes, cfg.seed)?;
    d.trace_events = true;
    let mut t = Tracer::new(&d, w.admission());
    while d.ops < limit {
        d.step()?;
        t.observe(&d, &untraced_walls);
    }
    report.hash = d.prefix_hash.unwrap_or(d.hash);
    if report.hash != reference_hash {
        report.violations.push(format!(
            "tracing changed behaviour: hash {:016x} traced vs {reference_hash:016x} untraced",
            report.hash
        ));
    }
    let m = mrom_obs::metrics_snapshot();
    let events_recorded = mrom_obs::events_recorded();
    let ops = t.ops.max(1) as f64;

    // Probes, so every layer's cost is measured on this workload's state:
    // one advisory epoch (decisions not executed) where the workload runs
    // none, then a checkpoint/crash/restart of its busiest non-core site
    // beside a shadow depot restore of that site's objects.
    if w != Workload::AdvisorAffinity {
        d.advisory_epoch(Some(advisor_config()))?;
        t.observe(&d, &untraced_walls);
    }
    let site = d.probe_site()?;
    let mut depot = Depot::new(MemStore::new());
    {
        let rt = d.fed.runtime(d.node(site)).map_err(|e| e.to_string())?;
        let ids = rt.object_ids();
        depot
            .checkpoint(ids.iter().filter_map(|id| rt.object(*id)))
            .map_err(|e| e.to_string())?;
    }
    let start = Instant::now();
    let (restored, restore_ns) = time(|| depot.restore_all());
    t.span(0, 0, "persist.restore_all", start, restore_ns as u64);
    d.events.clear();
    d.recovery_probe(site)?;
    t.observe(&d, &untraced_walls);
    report.attempted += d.ops;
    report.failed += d.failed;
    report.violations.extend(d.finish()?);
    if !restored.1.is_empty() {
        report.violations.push(format!(
            "shadow depot quarantined {} images",
            restored.1.len()
        ));
    }

    // -- per-layer metrics ------------------------------------------------
    let med_event = |name: &str, scale: f64| t.events.get(name).map_or(0.0, |v| median(v) / scale);
    let s = &t.s;
    let (est_sum, span_sum) = s
        .closure
        .iter()
        .fold((0.0, 0.0), |a, c| (a.0 + c.0, a.1 + c.1));
    let fed = &m.federation;
    let tally = d.advisor_tally;
    let rows: Vec<(&'static str, &'static str, f64)> = vec![
        ("hadas.msgs_per_op", "count", t.msgs as f64 / ops),
        ("hadas.engine_residual_us", "us", median(&s.residual_us)),
        (
            "hadas.failed_op_ratio",
            "ratio",
            report.failed as f64 / report.attempted.max(1) as f64,
        ),
        (
            "hadas.retries_per_kop",
            "1/kop",
            fed.retries as f64 * 1e3 / ops,
        ),
        (
            "hadas.dedup_hits_per_kop",
            "1/kop",
            fed.dedup_hits as f64 * 1e3 / ops,
        ),
        (
            "hadas.useful_send_ratio",
            "ratio",
            ratio(
                fed.sends.saturating_sub(fed.retries + fed.dedup_hits) as f64,
                fed.sends as f64,
            ),
        ),
        ("hadas.in_doubt_settled", "count", d.in_doubt_settled as f64),
        (
            "hadas.checkpoint_site_ms",
            "ms",
            med_event("hadas.checkpoint_site", 1e6),
        ),
        (
            "hadas.restart_site_ms",
            "ms",
            med_event("hadas.restart_site", 1e6),
        ),
        (
            "hadas.advisor_epoch_us",
            "us",
            med_event("hadas.advisor_epoch", 1e3),
        ),
        (
            "hadas.advisor_decide_us",
            "us",
            med_event("hadas.advisor_decide", 1e3),
        ),
        (
            "hadas.advisor_epochs_per_kop",
            "1/kop",
            tally.epochs as f64 * 1e3 / ops,
        ),
        ("hadas.advisor_migrations", "count", tally.migrations as f64),
        ("hadas.thrash_aborts", "count", tally.thrash_aborts as f64),
        ("net.send_step_ns", "ns", median(&s.send_step_ns)),
        ("net.deliveries_per_op", "count", t.deliveries as f64 / ops),
        (
            "net.drop_ratio",
            "ratio",
            ratio(m.net.drops as f64, m.net.sends as f64),
        ),
        (
            "net.duplicates_per_kop",
            "1/kop",
            m.net.duplicates as f64 * 1e3 / ops,
        ),
        ("value.msg_encode_ns", "ns", median(&s.encode_ns)),
        ("value.msg_decode_ns", "ns", median(&s.decode_ns)),
        (
            "value.bytes_per_msg_p50",
            "B",
            crate::measure::percentile(&mut s.msg_bytes.clone(), 0.5),
        ),
        (
            "value.image_encode_ns_per_kib",
            "ns/KiB",
            ratio(s.image_encode.0, s.image_encode.1),
        ),
        (
            "value.image_decode_ns_per_kib",
            "ns/KiB",
            ratio(s.image_decode.0, s.image_decode.1),
        ),
        ("core.invoke_ns", "ns", median(&s.invoke_ns)),
        (
            "core.applications_per_op",
            "count",
            m.invoke.invocations as f64 / ops,
        ),
        (
            "core.dispatch_cache_hit_ratio",
            "ratio",
            ratio(
                m.invoke.cache_hits as f64,
                (m.invoke.cache_hits + m.invoke.cache_misses) as f64,
            ),
        ),
        ("core.image_value_us", "us", median(&s.image_value_us)),
        ("core.admit_us", "us", median(&s.admit_us)),
        ("core.decode_us", "us", median(&s.decode_us)),
        ("core.effects_us", "us", median(&s.effects_us)),
        ("script.runs_per_op", "count", m.script.runs as f64 / ops),
        (
            "script.fuel_per_run_mean",
            "count",
            ratio(m.script.fuel.sum() as f64, m.script.fuel.count() as f64),
        ),
        (
            "script.host_calls_per_run",
            "count",
            ratio(m.script.host_calls as f64, m.script.runs as f64),
        ),
        (
            "persist.saves_per_op",
            "count",
            m.persist.saves as f64 / ops,
        ),
        (
            "persist.bytes_written_per_op",
            "B",
            m.persist.bytes_written as f64 / ops,
        ),
        ("persist.put_ns_per_kib", "ns/KiB", ratio(s.put.0, s.put.1)),
        ("persist.restore_all_ms", "ms", restore_ns / 1e6),
        (
            "persist.restore_errors",
            "count",
            m.persist.restore_errors as f64,
        ),
        (
            "obs.telemetry_snapshot_us",
            "us",
            med_event("obs.telemetry", 1e3),
        ),
        ("obs.events_per_op", "count", events_recorded as f64 / ops),
        ("trace.closure_ratio", "ratio", ratio(est_sum, span_sum)),
        (
            "trace.overhead_ratio",
            "ratio",
            ratio(
                t.op_hist.quantile(0.5).unwrap_or(0.0),
                untraced.quantile(0.5).unwrap_or(0.0),
            ),
        ),
    ];
    for (name, unit, value) in rows {
        report.push(name, unit, value, t.ops);
    }
    for (kind, (est, span)) in ["local", "remote", "migrate"].iter().zip(s.closure) {
        report.notes.push(format!(
            "closure {kind:<8} Σ layers / Σ untraced op time = {:.3} over {:.1} ms of sampled ops",
            ratio(est, span),
            span / 1e6
        ));
    }
    if let Some(path) = trace_out {
        t.write_jsonl(path)?;
        report
            .notes
            .push(format!("{} spans written to {path}", t.spans.len()));
    }
    Ok(report)
}
