//! The `fleet_forensics` workload: a hardened fleet drifts, the SOC
//! detects and remediates under injected faults while the columnar
//! journal records everything ([`vdo_replay::record`]), then the run is
//! reopened and replayed to its last checkpoint
//! ([`Replayer::replay_to_checkpoint`]) with both digests verified.
//!
//! The traced run takes the same spec apart layer by layer: fleet
//! hardening ([`RemediationPlanner::run`] per host), the SOC engine
//! with its journal off ([`SocEngine::run`]), the recorded run, segment
//! decode ([`JournalDir::events`]), segment encode (re-streaming the
//! decoded events through a fresh [`DirWriter`]), and both replay
//! entry points.

use std::path::Path;
use std::time::Instant;

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_replay::{record, Recording, Replayer, RunSpec};
use vdo_soc::{DetectionKind, RemediationConfig, SocEngine, SocReport};
use vdo_trace::{DirWriter, JournalDir, JournalSink};

use crate::spans::{median, quantile, Tracer, ROOT};
use crate::{fnv, peak_rss_mb, workers, Checks, Measured, FNV_OFFSET};

const HOSTS: usize = 4_000;
const TICKS: u64 = 100;

fn spec(seed: u64) -> RunSpec {
    RunSpec {
        seed,
        trace_seed: seed,
        hosts: HOSTS,
        duration: TICKS,
        drift_rate: 0.02,
        workers: workers(),
        shards: 16,
        // The engine allows 3 retries, so a dead letter needs four
        // faults in a row (p = fault_rate⁴). At 0.02 every run retries
        // a few dozen remediations while a dead letter stays a
        // one-in-many-thousands event — the workload has no failing
        // operations by design.
        fault_rate: 0.02,
        checkpoint_period: TICKS / 4,
    }
}

/// Ticks the dispatcher may still spend on a task after detection:
/// the sum of its backoffs before the last retry.
fn retry_horizon() -> u64 {
    let cfg = RemediationConfig::default();
    (0..cfg.max_retries).map(|a| cfg.backoff_base << a).sum()
}

/// The deterministic outcome of one recorded run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    tasks: u64,
    dead_letters: u64,
    p50: f64,
    p99: f64,
    incidents: u64,
}

/// Digest of every incident's lifecycle, leaving out trace contexts
/// (present only when the run was journalled).
fn incidents_digest(report: &SocReport) -> u64 {
    report.incidents.iter().fold(FNV_OFFSET, |h, i| {
        let line = format!(
            "{} {} {} {} {} {:?} {}\n",
            i.host, i.rule, i.kind, i.introduced_at, i.detected_at, i.resolved_at, i.attempts
        );
        fnv(h, line.as_bytes())
    })
}

fn verify(spec: &RunSpec, report: &SocReport, checks: &mut Checks) -> Outcome {
    let horizon = retry_horizon();
    let mut latencies: Vec<f64> = Vec::new();
    let mut tasks = 0u64;
    let mut unresolved = 0u64;
    for inc in report
        .incidents
        .iter()
        .filter(|i| i.kind == DetectionKind::Stig)
    {
        tasks += 1;
        match inc.resolved_at {
            // Ticks the drift was live, counting the tick it appeared.
            Some(at) => latencies.push((at - inc.introduced_at + 1) as f64),
            None => {
                let dead = report
                    .dead_letters
                    .iter()
                    .any(|d| d.task.host == inc.host && d.task.rule == inc.rule);
                let still_retrying = inc.detected_at + horizon >= spec.duration;
                unresolved += u64::from(!dead && !still_retrying);
            }
        }
    }
    checks.check(tasks > 0, || "the fleet produced no incidents".into());
    checks.check(unresolved == 0, || {
        format!("{unresolved} remediable incidents neither resolved nor dead-lettered")
    });
    latencies.sort_by(f64::total_cmp);
    Outcome {
        tasks,
        dead_letters: report.dead_letters.len() as u64,
        p50: quantile(&latencies, 0.5),
        p99: quantile(&latencies, 0.99),
        incidents: incidents_digest(report),
    }
}

/// Replays `rec` to its last checkpoint and checks both digests and the
/// replayed incident log; returns the replay wall time.
fn replay_last(
    rec: &Recording,
    want: &Outcome,
    checks: &mut Checks,
) -> Result<(f64, bool), String> {
    let t0 = Instant::now();
    let replayer = Replayer::open(&rec.dir).map_err(|e| format!("opening the journal: {e}"))?;
    let last = replayer
        .checkpoints()
        .len()
        .checked_sub(1)
        .ok_or("the recording has no checkpoints")?;
    let cp = replayer.replay_to_checkpoint(last, None);
    let secs = t0.elapsed().as_secs_f64();
    let ok = cp.journal_match
        && cp.verdict_match
        && incidents_digest(&cp.outcome.report) == want.incidents;
    checks.check(ok, || {
        format!(
            "replay to checkpoint {last} diverged: journal_match={} verdict_match={}",
            cp.journal_match, cp.verdict_match
        )
    });
    Ok((secs, ok))
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let spec = spec(seed);
    let mut m = Measured::default();
    if trace {
        traced(&spec, work, checks, &mut m)?;
        return Ok(m);
    }

    // Warm-up run; its outcome is the reference every timed run must
    // reproduce.
    let dir = work.join("warmup");
    let rec = record(&spec, &dir).map_err(|e| format!("recording: {e}"))?;
    let expect = verify(&spec, &rec.report, checks);
    replay_last(&rec, &expect, checks)?;
    let _ = std::fs::remove_dir_all(&dir);
    // Peak memory of one record + replay; read before the timed loop,
    // whose length (and heap fragmentation) varies with machine speed.
    let peak_rss = peak_rss_mb();

    let host_ticks = (spec.hosts as u64 * spec.duration) as f64;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut setups, mut rates, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0;
    while rates.len() < 3 || Instant::now() < deadline {
        // Set-up: the catalogue and the run's journal directory.
        let dir = work.join(format!("run-{i}"));
        i += 1;
        let t0 = Instant::now();
        let catalog = vdo_stigs::ubuntu::catalog();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(catalog);

        let t0 = Instant::now();
        let rec = record(&spec, &dir).map_err(|e| format!("recording: {e}"))?;
        rates.push(host_ticks / t0.elapsed().as_secs_f64());
        let got = verify(&spec, &rec.report, checks);
        checks.check(got == expect, || {
            "a recorded run diverged from the warm-up run".into()
        });
        let (secs, ok) = replay_last(&rec, &got, checks)?;
        replays.push(secs);
        let _ = std::fs::remove_dir_all(&dir);
        m.attempted += got.tasks + 1;
        m.failed += got.dead_letters + u64::from(!ok);
    }
    eprintln!("# throughput_per_s samples {rates:?}");
    eprintln!("# replay_s samples {replays:?}");
    m.metrics.insert("throughput_per_s".into(), median(&rates));
    m.metrics.insert("replay_s".into(), median(&replays));
    m.metrics.insert("latency_p50_steps".into(), expect.p50);
    m.metrics.insert("latency_p99_steps".into(), expect.p99);
    m.metrics.insert("setup_s".into(), median(&setups));
    m.metrics.insert("peak_rss_mb".into(), peak_rss);
    Ok(m)
}

/// Re-streams `events` into a fresh segment directory: the encode cost
/// of the columnar format alone.
fn encode(dir: &Path, header: &str, events: &[(u64, vdo_trace::Event)]) -> Result<(), String> {
    let mut sink = DirWriter::create(dir, header).map_err(|e| format!("encoding: {e}"))?;
    for (seq, ev) in events {
        sink.record(*seq, ev);
    }
    sink.flush();
    Ok(())
}

/// One pass over every layer of the workload, each call in its own
/// span. Returns the pass wall time and the journal's event count.
fn layer_pass(
    spec: &RunSpec,
    work: &Path,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Measured,
) -> Result<(f64, usize), String> {
    let dir = work.join("traced");
    let re_dir = work.join("re-encoded");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&re_dir);
    let t0 = Instant::now();
    let root = tracer.begin("fleet.pass", ROOT);

    // Hardening, as `record` does it, host by host.
    let catalog = vdo_stigs::ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let harden = tracer.begin("core.planner", root);
    let mut fleet: Vec<UnixHost> = (0..spec.hosts)
        .map(|_| {
            let mut h = UnixHost::baseline_ubuntu_1804();
            tracer.time("core.planner.host", harden, || {
                planner.run(&catalog, &mut h)
            });
            h
        })
        .collect();
    tracer.end(harden);

    let soc = tracer.time("soc.run", root, || {
        SocEngine::new(&catalog, spec.soc_config(None, None)).map(|engine| engine.run(&mut fleet))
    });
    let soc = soc.map_err(|e| format!("SOC config: {e:?}"))?;
    drop(fleet);

    let rec = tracer.time("record", root, || record(spec, &dir));
    let rec = rec.map_err(|e| format!("recording: {e}"))?;
    let got = verify(spec, &rec.report, checks);
    checks.check(incidents_digest(&soc) == got.incidents, || {
        "the journal-off SOC run and the recorded run disagree".into()
    });

    let events = tracer.time("colfmt.decode", root, || {
        JournalDir::open(&dir).and_then(|d| d.events())
    });
    let events = events.map_err(|e| format!("decoding: {e}"))?;
    let header = spec.to_header();
    tracer.time("colfmt.encode", root, || encode(&re_dir, &header, &events))?;
    let bytes = JournalDir::open(&dir)
        .and_then(|d| d.total_bytes())
        .map_err(|e| format!("sizing the journal: {e}"))?;

    let cp = tracer.begin("replay.checkpoint", root);
    let (_, ok) = replay_last(&rec, &got, checks)?;
    tracer.end(cp);
    let mid_seq = events
        .get(events.len() / 2)
        .ok_or("the recorded journal is empty")?
        .0;
    let seq = tracer.time("replay.seq", root, || {
        Replayer::open(&dir).and_then(|r| r.replay_to_seq(mid_seq, None))
    });
    let seq = seq.map_err(|e| format!("replay to seq {mid_seq}: {e}"))?;
    checks.check(seq.events.iter().any(|(s, _)| *s == mid_seq), || {
        format!("replay to seq {mid_seq} does not contain that event")
    });
    tracer.end(root);
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&re_dir);

    m.attempted += got.tasks + 2;
    m.failed += got.dead_letters + u64::from(!ok);
    let sm = &soc.metrics;
    let incidents = soc.incidents.len() as f64;
    let mx = &mut m.metrics;
    mx.insert("soc.events_processed".into(), sm.events_processed as f64);
    mx.insert("soc.batches".into(), sm.batches as f64);
    mx.insert("soc.steals".into(), sm.steals as f64);
    mx.insert("soc.checks_run".into(), sm.checks_run as f64);
    mx.insert("soc.max_queue_depth".into(), sm.max_queue_depth as f64);
    mx.insert("soc.retries".into(), sm.retries as f64);
    mx.insert("soc.dead_letters".into(), sm.dead_letters as f64);
    mx.insert(
        "soc.checks_per_incident".into(),
        if incidents > 0.0 {
            sm.checks_run as f64 / incidents
        } else {
            0.0
        },
    );
    mx.insert(
        "colfmt.bytes_per_event".into(),
        bytes as f64 / events.len().max(1) as f64,
    );
    Ok((wall, events.len()))
}

fn traced(
    spec: &RunSpec,
    work: &Path,
    checks: &mut Checks,
    m: &mut Measured,
) -> Result<(), String> {
    // Untraced first (it also warms up), then traced.
    let (untraced_s, _) = layer_pass(spec, work, &mut Tracer::new(false), checks, m)?;
    let mut tracer = Tracer::new(true);
    let (traced_s, events) = layer_pass(spec, work, &mut tracer, checks, m)?;

    let stats = tracer.stats();
    let busy = |name: &str| stats.get(name).map_or(0.0, |s| s.busy_s);
    let decode_s = busy("colfmt.decode");
    let mx = &mut m.metrics;
    mx.insert("core.planner.busy_s".into(), busy("core.planner.host"));
    mx.insert("soc.run_s".into(), busy("soc.run"));
    mx.insert("record.busy_s".into(), busy("record"));
    mx.insert(
        "record.unattributed_s".into(),
        busy("record")
            - busy("core.planner.host")
            - busy("soc.run")
            - busy("colfmt.encode")
            - decode_s,
    );
    mx.insert("colfmt.encode_s".into(), busy("colfmt.encode"));
    mx.insert("colfmt.decode_s".into(), decode_s);
    mx.insert(
        "colfmt.decode_events_per_s".into(),
        events as f64 / decode_s,
    );
    mx.insert("replay.checkpoint_s".into(), busy("replay.checkpoint"));
    mx.insert("replay.seq_s".into(), busy("replay.seq"));
    mx.insert("unaccounted_s".into(), tracer.self_ns(0) as f64 / 1e9);
    mx.insert("trace.traced_s".into(), traced_s);
    mx.insert("trace.untraced_s".into(), untraced_s);
    mx.insert("trace.overhead_ratio".into(), traced_s / untraced_s - 1.0);
    m.tracer = Some(tracer);
    Ok(())
}
