//! Child-process runs and the `stability` command: run each workload N
//! times and report, per metric, the median, quartiles, and the spread
//! of calibrated against raw values — the evidence the bounds in
//! `BENCHMARK.json` rest on.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::workload::Workload;
use crate::{err, out};

/// Runs one workload in a child process of this binary and returns its
/// detail line and parsed result line.
///
/// # Errors
///
/// When the child cannot start, fails to set up, or prints no result.
pub fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace: bool,
) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    if output.status.code() == Some(2) || lines.len() < 2 {
        return Err(format!(
            "child exited with {} and printed no result",
            output.status
        ));
    }
    let result = Json::parse(lines[lines.len() - 1])?;
    Ok((lines[lines.len() - 2].to_owned(), result))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), for two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4i64).enumerate() {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        out[slot] = (data[(j - 1) as usize] * (4.0 - delta) + data[j as usize] * delta) / 4.0;
    }
    out
}

/// Per-metric values across runs: (calibrated, raw if any).
type Samples = BTreeMap<String, (String, Vec<f64>, Vec<f64>)>;

fn spread(values: &[f64]) -> (f64, [f64; 3], f64) {
    let q = quartiles(values);
    let med = q[1];
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let rel = |x: f64| if med.abs() > 0.0 { x / med.abs() } else { 0.0 };
    (rel(q[2] - q[0]), q, rel(hi - lo))
}

/// The `stability` command.
pub fn run(
    workloads: &[Workload],
    seed: u64,
    seeds: Option<(u64, u64)>,
    runs: usize,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> ExitCode {
    let workloads: Vec<Workload> = if workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        workloads.to_vec()
    };
    let seed_list: Vec<u64> = match seeds {
        Some((lo, hi)) => (lo..=hi).collect(),
        None => vec![seed; runs.max(2)],
    };
    let mut code = 0u8;
    for w in workloads {
        let mut samples: Samples = BTreeMap::new();
        let mut hashes = Vec::new();
        for (i, &s) in seed_list.iter().enumerate() {
            err(&format!(
                "stability: {} run {}/{} seed {s}",
                w.name(),
                i + 1,
                seed_list.len()
            ));
            let (detail, result) = match child(w, s, seconds, smoke, trace) {
                Ok(pair) => pair,
                Err(e) => {
                    err(&format!("{}: {e}", w.name()));
                    return ExitCode::from(2);
                }
            };
            if result.get("correct") != Some(&Json::Bool(true)) {
                code = 1;
            }
            let detail = match Json::parse(&detail) {
                Ok(d) => d,
                Err(e) => {
                    err(&format!("{}: unreadable detail line: {e}", w.name()));
                    return ExitCode::from(2);
                }
            };
            hashes.push(
                detail
                    .get("hash")
                    .and_then(Json::str)
                    .unwrap_or("")
                    .to_owned(),
            );
            for m in detail.get("metrics").map_or(&[][..], Json::arr) {
                let (Some(name), Some(value)) = (
                    m.get("name").and_then(Json::str),
                    m.get("value").and_then(Json::num),
                ) else {
                    continue;
                };
                let unit = m.get("unit").and_then(Json::str).unwrap_or("").to_owned();
                let entry =
                    samples
                        .entry(name.to_owned())
                        .or_insert((unit, Vec::new(), Vec::new()));
                entry.1.push(value);
                if let Some(raw) = m.get("raw").and_then(Json::num) {
                    entry.2.push(raw);
                }
            }
        }
        let same_seed = seeds.is_none();
        if !out(&format!(
            "{} runs={} seeds={} hashes_identical={}",
            w.name(),
            seed_list.len(),
            if same_seed {
                seed.to_string()
            } else {
                format!("{}-{}", seed_list[0], seed_list[seed_list.len() - 1])
            },
            hashes.windows(2).all(|p| p[0] == p[1])
        )) {
            return ExitCode::SUCCESS;
        }
        let _ = out(&format!(
            "  {:<34} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8}",
            "metric", "q1", "median", "q3", "iqr%", "range%", "raw_iqr%"
        ));
        let mut rows = Vec::new();
        for (name, (unit, values, raw)) in &samples {
            let (iqr, q, range) = spread(values);
            let raw_iqr = if raw.len() == values.len() {
                Some(spread(raw).0)
            } else {
                None
            };
            let _ = out(&format!(
                "  {:<34} {:>14.4} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>8}",
                name,
                q[0],
                q[1],
                q[2],
                iqr * 100.0,
                range * 100.0,
                raw_iqr.map_or("-".into(), |r| format!("{:.2}", r * 100.0))
            ));
            let mut members = vec![
                ("name", json::string(name)),
                ("unit", json::string(unit)),
                ("q1", json::number(q[0])),
                ("median", json::number(q[1])),
                ("q3", json::number(q[2])),
                ("iqr_ratio", json::number(iqr)),
                ("range_ratio", json::number(range)),
            ];
            if let Some(r) = raw_iqr {
                members.push(("raw_iqr_ratio", json::number(r)));
            }
            rows.push(json::object(members));
        }
        let _ = out(&json::object([
            ("schema", json::string("mrom.benchmark.stability.v1")),
            ("workload", json::string(w.name())),
            ("runs", seed_list.len().to_string()),
            ("seconds", json::number(seconds)),
            ("traced", trace.to_string()),
            ("metrics", format!("[{}]", rows.join(","))),
        ]));
    }
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
