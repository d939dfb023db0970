//! The repository benchmark: one binary, three workloads.
//!
//! ```text
//! perfbench --workload <service_mix|commit_storm|fleet_forensics>
//!           --seed <n> --seconds <s> --trace <0|1> [--revision <rev>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every program-side
//! tracing surface off; `--trace 1` runs the separate traced pass that
//! times each layer's public calls and writes the spans to
//! `perfbench/out/`. Either way the outputs are checked, and the last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Run it through
//! `python3 perfbench/run.py`, which builds this package first.

mod fleet;
mod service;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Mirrors `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("replay_s", "s"),
    ("latency_p50_steps", "steps"),
    ("latency_p99_steps", "steps"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0. Mirrors `per_layer`
/// in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("loadgen.busy_s", "s"),
    ("server.admit_s", "s"),
    ("server.plan_s", "s"),
    ("server.dispatch_s", "s"),
    ("tenant.submit.count", "count"),
    ("tenant.submit.busy_s", "s"),
    ("tenant.submit.p50_us", "us"),
    ("tenant.submit.p99_us", "us"),
    ("tenant.push.count", "count"),
    ("tenant.push.busy_s", "s"),
    ("tenant.push.p50_us", "us"),
    ("tenant.push.p99_us", "us"),
    ("tenant.query.count", "count"),
    ("tenant.query.busy_s", "s"),
    ("tenant.query.p50_us", "us"),
    ("tenant.query.p99_us", "us"),
    ("tenant.ops.count", "count"),
    ("tenant.ops.busy_s", "s"),
    ("tenant.ops.p50_us", "us"),
    ("tenant.ops.p99_us", "us"),
    ("nalabs.analyze.count", "count"),
    ("nalabs.analyze.busy_s", "s"),
    ("nalabs.analyze.p99_us", "us"),
    ("nalabs.analyze.reject_ratio", "ratio"),
    ("gate.requirements.count", "count"),
    ("gate.requirements.busy_s", "s"),
    ("gate.requirements.p99_us", "us"),
    ("gate.requirements.rejects", "count"),
    ("gate.compliance.count", "count"),
    ("gate.compliance.busy_s", "s"),
    ("gate.compliance.p99_us", "us"),
    ("gate.compliance.rejects", "count"),
    ("gate.test.count", "count"),
    ("gate.test.busy_s", "s"),
    ("gate.test.p99_us", "us"),
    ("gate.test.rejects", "count"),
    ("gate.analysis.count", "count"),
    ("gate.analysis.busy_s", "s"),
    ("gate.analysis.p99_us", "us"),
    ("gate.analysis.rejects", "count"),
    ("gate.analysis.memo_hit_ratio", "ratio"),
    ("trace.server_overhead_ratio", "ratio"),
    ("core.planner.busy_s", "s"),
    ("soc.run_s", "s"),
    ("soc.events_processed", "count"),
    ("soc.batches", "count"),
    ("soc.steals", "count"),
    ("soc.checks_run", "count"),
    ("soc.max_queue_depth", "count"),
    ("soc.retries", "count"),
    ("soc.dead_letters", "count"),
    ("soc.checks_per_incident", "ratio"),
    ("record.busy_s", "s"),
    ("record.unattributed_s", "s"),
    ("colfmt.encode_s", "s"),
    ("colfmt.decode_s", "s"),
    ("colfmt.decode_events_per_s", "1/s"),
    ("colfmt.bytes_per_event", "B"),
    ("replay.checkpoint_s", "s"),
    ("replay.seq_s", "s"),
    ("unaccounted_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServiceMix,
    CommitStorm,
    FleetForensics,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "service_mix" => Some(Workload::ServiceMix),
            "commit_storm" => Some(Workload::CommitStorm),
            "fleet_forensics" => Some(Workload::FleetForensics),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServiceMix => "service_mix",
            Workload::CommitStorm => "commit_storm",
            Workload::FleetForensics => "fleet_forensics",
        }
    }
}

/// Correctness checks accumulated over a run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (requests generated, remediation tasks,
    /// replays verified).
    pub attempted: u64,
    /// Operations that failed: rejected requests, dead-lettered
    /// remediations, digest mismatches.
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// The traced pass's spans (`--trace 1` only).
    pub tracer: Option<spans::Tracer>,
}

/// Worker threads for the parallel runtimes: 2, or fewer on a smaller
/// machine — all load comes from this one process.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, folded into `state`.
pub fn fnv(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Core count and CPU model from `/proc/cpuinfo`.
fn host_fingerprint() -> (usize, String) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = info.lines().filter(|l| l.starts_with("processor")).count();
    let model = info
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
    (cores, model)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", kv["workload"]))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let revision = kv
        .get("revision")
        .cloned()
        .unwrap_or_else(|| "unknown".to_string());
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        revision,
    })
}

fn write_trace_file(
    path: &Path,
    stamp: &str,
    metrics: &[(&str, f64, &str)],
    tracer: &spans::Tracer,
) -> std::io::Result<()> {
    let mut out = format!("{{\"stamp\": {stamp},\n\"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("},\n\"span_stats\": {");
    for (i, (name, s)) in tracer.stats().iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"count\": {}, \"busy_s\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
            s.count, s.busy_s, s.p50_us, s.p99_us
        );
    }
    out.push_str("},\n\"spans_columns\": [\"id\", \"parent\", \"name\", \"start_ns\", \"dur_ns\"],\n\"spans\": ");
    out.push_str(&tracer.to_json());
    out.push_str("}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (cores, cpu_model) = host_fingerprint();
    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"revision\": {}, \
         \"cores\": {cores}, \"cpu_model\": {}, \"workers\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.revision),
        json_str(&cpu_model),
        workers()
    );
    println!("# stamp {stamp}");

    let work_dir = PathBuf::from("perfbench/work").join(format!("{}", std::process::id()));
    let mut checks = Checks::default();
    let measured = match args.workload {
        Workload::ServiceMix | Workload::CommitStorm => service::run(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &mut checks,
        ),
        Workload::FleetForensics => {
            let m = fleet::run(args.seed, args.seconds, args.trace, &work_dir, &mut checks);
            let _ = std::fs::remove_dir_all(&work_dir);
            // Removes the parent only when no other run is using it.
            let _ = std::fs::remove_dir("perfbench/work");
            m
        }
    };
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = catalogue
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                measured.metrics.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    for name in measured.metrics.keys() {
        checks.check(catalogue.iter().any(|(n, _)| n == name), || {
            format!("metric {name} is not in the catalogue")
        });
    }
    if let Some(tracer) = &measured.tracer {
        let path = PathBuf::from("perfbench/out").join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = write_trace_file(&path, &stamp, &metrics, tracer) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans written to {}", path.display());
    }
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failures.is_empty(),
        measured.attempted.max(1),
        measured.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
