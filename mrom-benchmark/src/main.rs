//! `mrom-benchmark`: end-to-end and per-layer measurement of HADAS
//! federation operations over four seeded workloads. See README.md.
//!
//! ```text
//! mrom-benchmark --workload W --seed N --seconds S --trace 0|1
//! mrom-benchmark run W [--seed N] [--seconds S] [--trace FILE] [--smoke]
//! mrom-benchmark all [--seed N] [--seconds S] [--smoke]
//! mrom-benchmark stability [--runs N] [--seed N | --seeds A-B] [--workload W]... [--seconds S] [--trace]
//! mrom-benchmark kernel [--runs N]
//! ```
//!
//! A single run prints a `mrom.benchmark.v1` detail line and then, as
//! the last line of stdout, `{"correct","attempted","failed","metrics"}`;
//! a table goes to stderr. The exit code is 1 when a correctness check
//! failed and 2 on bad usage or a refused set-up.

mod calib;
mod hist;
mod json;
mod measure;
mod rng;
mod stability;
mod trace;
mod workload;

use std::io::Write;
use std::process::ExitCode;

use measure::{Report, RunConfig};
use workload::Workload;

/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 20.0;

/// Writes to stdout, treating a closed pipe as a request to stop.
pub(crate) fn out(line: &str) -> bool {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}")
        .and_then(|()| stdout.flush())
        .is_ok()
}

/// Writes to stderr, ignoring a closed pipe.
pub(crate) fn err(line: &str) {
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// Options shared by the commands.
#[derive(Debug, Clone)]
struct Args {
    positional: Vec<String>,
    workloads: Vec<Workload>,
    seed: u64,
    seeds: Option<(u64, u64)>,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workloads: Vec::new(),
        seed: 42,
        seeds: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        smoke: false,
        runs: 5,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value(arg)?;
                a.workloads.push(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => a.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seeds" => {
                let spec = value(arg)?;
                let (lo, hi) = spec.split_once('-').ok_or("--seeds takes A-B")?;
                let lo: u64 = lo.parse().map_err(|e| format!("--seeds: {e}"))?;
                let hi: u64 = hi.parse().map_err(|e| format!("--seeds: {e}"))?;
                if hi < lo {
                    return Err("--seeds: empty range".into());
                }
                a.seeds = Some((lo, hi));
            }
            "--seconds" => {
                a.seconds = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` (BENCHMARK.json form) or `--trace FILE` (run form);
                // a bare `--trace` (stability) traces without a file.
                match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        a.trace = false;
                    }
                    Some("1") => {
                        it.next();
                        a.trace = true;
                    }
                    Some(file)
                        if !file.starts_with("--")
                            && a.positional.first().is_some_and(|c| c == "run") =>
                    {
                        a.trace_out = Some(file.to_owned());
                        it.next();
                        a.trace = true;
                    }
                    _ => a.trace = true,
                }
            }
            "--smoke" => a.smoke = true,
            "--runs" => a.runs = value(arg)?.parse().map_err(|e| format!("--runs: {e}"))?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => a.positional.push(word.to_owned()),
        }
    }
    Ok(a)
}

/// The `mrom.benchmark.v1` detail line: every metric with its raw value,
/// sample count and support flag, plus the run's bookkeeping.
pub(crate) fn detail_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let mut members = vec![
                ("name", json::string(m.name)),
                ("value", json::number(m.value)),
                ("unit", json::string(m.unit)),
                ("n", m.n.to_string()),
            ];
            if let Some(raw) = m.raw {
                members.push(("raw", json::number(raw)));
            }
            if !m.supported {
                members.push(("supported", "false".into()));
            }
            if !m.gated {
                members.push(("gated", "false".into()));
            }
            json::object(members)
        })
        .collect();
    let violations: Vec<String> = r.violations.iter().map(|v| json::string(v)).collect();
    json::object([
        ("schema", json::string("mrom.benchmark.v1")),
        ("workload", json::string(r.workload)),
        ("seed", r.seed.to_string()),
        ("traced", r.traced.to_string()),
        ("correct", r.correct().to_string()),
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        ("exact_ops", r.exact_ops.to_string()),
        ("hash", json::string(&format!("{:016x}", r.hash))),
        ("segments", r.segments.to_string()),
        ("calibration_factor", json::number(r.factor)),
        ("calibration_samples", r.calibration_samples.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("violations", format!("[{}]", violations.join(","))),
        ("metrics", format!("[{}]", metrics.join(","))),
    ])
}

/// The result line: the metrics `BENCHMARK.json` names.
pub(crate) fn result_line(r: &Report) -> String {
    let metrics: Vec<(&str, String)> = r
        .metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            (
                m.name,
                json::object([
                    ("value", json::number(m.value)),
                    ("unit", json::string(m.unit)),
                ]),
            )
        })
        .collect();
    json::object([
        ("correct", r.correct().to_string()),
        ("attempted", r.attempted.max(1).to_string()),
        ("failed", r.failed.to_string()),
        ("metrics", json::object(metrics)),
    ])
}

fn table(r: &Report) {
    err(&format!(
        "{} seed={} {} correct={} attempted={} failed={} segments={} hash={:016x}",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "measured" },
        r.correct(),
        r.attempted,
        r.failed,
        r.segments,
        r.hash
    ));
    for m in &r.metrics {
        let raw = m
            .raw
            .map_or(String::new(), |raw| format!("raw {raw:>14.3}"));
        let note = if m.supported {
            ""
        } else {
            "  (<10 samples beyond)"
        };
        err(&format!(
            "  {:<34} {:>14.3} {:<8} {raw:<20} n={}{note}",
            m.name, m.value, m.unit, m.n
        ));
    }
    for note in &r.notes {
        err(&format!("  {note}"));
    }
    for v in r.violations.iter().take(20) {
        err(&format!("  VIOLATION: {v}"));
    }
}

/// Runs one workload in this process and prints its lines.
fn run_one(cfg: RunConfig, trace: bool, trace_out: Option<&str>) -> ExitCode {
    let result = if trace {
        trace::run(cfg, trace_out)
    } else {
        measure::run(cfg)
    };
    match result {
        Ok(report) => {
            table(&report);
            if !out(&detail_line(&report)) || !out(&result_line(&report)) {
                return ExitCode::SUCCESS;
            }
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            err(&format!("{}: {e}", cfg.workload.name()));
            ExitCode::from(2)
        }
    }
}

/// Runs every workload, each in its own child process (so `peak_rss_mib`
/// is per workload), forwarding their detail lines.
fn run_all(a: &Args) -> ExitCode {
    let mut worst = 0u8;
    for w in Workload::ALL {
        match stability::child(w, a.seed, a.seconds, a.smoke, false) {
            Ok((detail, result)) => {
                let correct = result.get("correct") == Some(&json::Json::Bool(true));
                if !out(&detail) {
                    return ExitCode::SUCCESS;
                }
                if !correct {
                    worst = worst.max(1);
                }
            }
            Err(e) => {
                err(&format!("{}: {e}", w.name()));
                worst = 2;
            }
        }
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            err(&format!("usage error: {e}"));
            return ExitCode::from(2);
        }
    };
    let command = a.positional.first().map(String::as_str);
    let config = |w| RunConfig {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
    };
    match command {
        None if a.workloads.len() == 1 => {
            run_one(config(a.workloads[0]), a.trace, a.trace_out.as_deref())
        }
        Some("run") => match a.positional.get(1).and_then(|n| Workload::parse(n)) {
            Some(w) => run_one(config(w), a.trace, a.trace_out.as_deref()),
            None => {
                err("usage: run <invoke_zipf|migrate_sized|churn_lossy|advisor_affinity> [--seed N] [--seconds S] [--trace FILE]");
                ExitCode::from(2)
            }
        },
        Some("all") => run_all(&a),
        Some("stability") => stability::run(
            &a.workloads,
            a.seed,
            a.seeds,
            a.runs,
            a.seconds,
            a.trace,
            a.smoke,
        ),
        Some("kernel") => {
            let mut t: Vec<f64> = (0..a.runs.max(1) * 100)
                .map(|_| calib::slice_ns())
                .collect();
            t.sort_by(f64::total_cmp);
            let line = format!(
                "slice_ns min={:.0} median={:.0} max={:.0} nominal={:.0}",
                t[0],
                measure::median(&t),
                t[t.len() - 1],
                calib::NOMINAL_SLICE_NS
            );
            let _ = out(&line);
            ExitCode::SUCCESS
        }
        _ => {
            err("usage: mrom-benchmark --workload W --seed N --seconds S --trace 0|1 | run W | all | stability | kernel");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(spec: &Json, key: &str) -> Vec<String> {
        spec.get(key)
            .map_or(&[][..], Json::arr)
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::str))
            .map(str::to_owned)
            .collect()
    }

    fn smoke(w: Workload, seed: u64, traced: bool) -> Report {
        let cfg = RunConfig {
            workload: w,
            seed,
            seconds: 0.05,
            smoke: true,
        };
        let report = if traced {
            trace::run(cfg, None)
        } else {
            measure::run(cfg)
        };
        report.expect("smoke run sets up")
    }

    #[test]
    fn smoke_runs_are_correct_and_emit_exactly_the_listed_metrics() {
        let spec = spec();
        let listed = names(&spec, "workloads");
        assert_eq!(listed, Workload::ALL.map(|w| w.name().to_owned()));
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let want = names(&spec, key);
            for w in Workload::ALL {
                let r = smoke(w, 7, traced);
                assert!(r.correct(), "{} ({key}): {:?}", w.name(), r.violations);
                let line = Json::parse(&result_line(&r)).expect("result line parses");
                let Some(Json::Obj(metrics)) = line.get("metrics") else {
                    panic!("{}: result line has no metrics object", w.name());
                };
                for name in &want {
                    let value = metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::num);
                    assert!(value.is_some(), "{}: {key} metric {name} missing", w.name());
                }
                assert_eq!(
                    metrics.len(),
                    want.len(),
                    "{}: metrics beyond the {key} list",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn same_seed_gives_the_same_op_stream_and_exact_metrics() {
        let exact = |r: &Report| -> Vec<(&'static str, f64)> {
            r.metrics
                .iter()
                .filter(|m| m.unit == "virt_us" || m.unit == "B")
                .map(|m| (m.name, m.value))
                .collect()
        };
        for w in Workload::ALL {
            let (a, b) = (smoke(w, 11, false), smoke(w, 11, false));
            assert_eq!(a.hash, b.hash, "{}: op stream differs", w.name());
            assert_eq!(exact(&a), exact(&b), "{}: exact metrics differ", w.name());
            assert_ne!(
                a.hash,
                smoke(w, 12, false).hash,
                "{}: the seed must matter",
                w.name()
            );
        }
    }
}
