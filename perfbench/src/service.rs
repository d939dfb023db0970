//! The `service_mix` and `commit_storm` workloads: 8 tenants behind
//! one [`Server`], driven by a seeded open-loop [`LoadGen`] schedule.
//!
//! End-to-end runs time [`Server::run_load`] with `ServerTracing`
//! disabled, interleaving the parallel configuration with a 1-worker
//! run of the same schedule. The traced run replays the schedule
//! through the server's own public parts — [`LoadGen::arrivals_for`],
//! [`TenantQueue`] admission, [`DrrScheduler::plan`] and
//! [`Tenant::handle`] — on one thread, with a span around each call,
//! and feeds every requirement and commit to shadow NALABS and gate
//! instances so each of those layers is timed on exactly the inputs
//! the tenants saw.

use std::time::Instant;

use vdo_core::Catalog;
use vdo_host::UnixHost;
use vdo_nalabs::Analyzer;
use vdo_pipeline::{AnalysisGate, ComplianceGate, Gate, GateContext, RequirementsGate, TestGate};
use vdo_server::{
    DrrScheduler, Envelope, LoadConfig, LoadGen, MixWeights, Outcome, Request, RequestKind, Server,
    ServerConfig, ServerMetrics, ServerTracing, ServiceReport, Tenant, TenantConfig, TenantQueue,
};
use vdo_trace::Journal;

use crate::spans::{median, Tracer, ROOT};
use crate::{fnv, peak_rss_mb, workers, Checks, Measured, Workload, FNV_OFFSET};

const TENANTS: usize = 8;

/// One workload's traffic shape.
struct Shape {
    requests: u64,
    capacity: usize,
    base_rate: u64,
    burst_period: u64,
    burst_size: u64,
    mix: MixWeights,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        // Mean arrival rate equals capacity_per_round: 56 per round
        // plus a 200-request burst every 25 rounds. The backlog a burst
        // leaves drains exactly by the next one, so queues run deep and
        // DRR arbitrates, yet the total backlog (≤ 256 + 56) never
        // fills a tenant's 256-slot queue: nothing is rejected.
        Workload::ServiceMix => Shape {
            requests: 50_000,
            capacity: 64,
            base_rate: 56,
            burst_period: 25,
            burst_size: 200,
            mix: MixWeights::default(),
        },
        // Push-heavy, below capacity, no bursts.
        Workload::CommitStorm => Shape {
            requests: 6_000,
            capacity: 64,
            base_rate: 40,
            burst_period: 0,
            burst_size: 0,
            mix: MixWeights {
                submit: 10,
                push: 80,
                query: 5,
                ops: 5,
            },
        },
        Workload::FleetForensics => unreachable!("not a service workload"),
    }
}

fn load_config(shape: &Shape, seed: u64) -> LoadConfig {
    LoadConfig {
        total_requests: shape.requests,
        base_rate: shape.base_rate,
        burst_period: shape.burst_period,
        burst_size: shape.burst_size,
        tenant_weights: vec![1; TENANTS],
        mix: shape.mix,
        seed,
    }
}

fn tenant_config(seed: u64, t: usize) -> TenantConfig {
    TenantConfig::new(format!("tenant-{t}"))
        .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64)
}

/// Builds the server and registers the tenants; returns it with the
/// set-up time in seconds.
fn build_server(shape: &Shape, seed: u64, workers: usize) -> (Server, f64) {
    let t0 = Instant::now();
    let mut server = Server::new(ServerConfig {
        capacity_per_round: shape.capacity,
        workers,
        ..ServerConfig::default()
    });
    for t in 0..TENANTS {
        server.register_tenant(&tenant_config(seed, t));
    }
    (server, t0.elapsed().as_secs_f64())
}

fn digest_logs<'a>(logs: impl IntoIterator<Item = &'a str>) -> u64 {
    logs.into_iter()
        .fold(FNV_OFFSET, |h, log| fnv(fnv(h, log.as_bytes()), b"\x1e"))
}

/// The deterministic face of a report, which every run of the same
/// schedule must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Verdicts {
    digest: u64,
    admitted: u64,
    rejected: u64,
    p50: f64,
    p99: f64,
}

fn verify(report: &ServiceReport, generated: u64, checks: &mut Checks) -> Verdicts {
    let admitted = report.admitted();
    let rejected = report.rejected();
    checks.check(admitted + rejected == generated, || {
        format!("admitted {admitted} + rejected {rejected} != generated {generated}")
    });
    checks.check(report.completed() == admitted, || {
        format!("completed {} != admitted {admitted}", report.completed())
    });
    let lines: u64 = report
        .verdict_logs
        .iter()
        .map(|l| l.lines().count() as u64)
        .sum();
    checks.check(lines == admitted, || {
        format!("{lines} verdict lines for {admitted} admitted requests")
    });
    Verdicts {
        digest: digest_logs(report.verdict_logs.iter().map(String::as_str)),
        admitted,
        rejected,
        // Steps in the system, counting the round a request is served
        // in: a request answered in its arrival round took one step.
        p50: report.latency_quantile(0.5) + 1.0,
        p99: report.latency_quantile(0.99) + 1.0,
    }
}

fn run_load(server: &mut Server, cfg: &LoadConfig, tracing: &ServerTracing) -> ServiceReport {
    server.run_load(
        &mut LoadGen::new(cfg.clone()),
        &ServerMetrics::new(),
        tracing,
    )
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let shape = shape(workload);
    let cfg = load_config(&shape, seed);
    let mut m = Measured::default();

    // The reference: an untimed 1-worker run of the schedule. It warms
    // caches and the allocator, and every later run must reproduce its
    // verdict logs byte for byte.
    let (mut server, _) = build_server(&shape, seed, 1);
    let reference = run_load(&mut server, &cfg, &ServerTracing::disabled());
    drop(server);
    let expect = verify(&reference, shape.requests, checks);
    m.attempted += shape.requests;
    m.failed += expect.rejected;

    if trace {
        traced(&shape, &cfg, seed, expect, checks, &mut m);
        return Ok(m);
    }

    let par = workers();
    // Warm-up at the timed worker count.
    let (mut server, _) = build_server(&shape, seed, par);
    let warm = run_load(&mut server, &cfg, &ServerTracing::disabled());
    drop(server);
    let got = verify(&warm, shape.requests, checks);
    checks.check(got == expect, || {
        format!("warm-up run diverged: {got:?} vs {expect:?}")
    });
    // Peak memory of one reference and one parallel pass; read before
    // the timed loop, whose length varies with machine speed.
    let peak_rss = peak_rss_mb();

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut setups, mut rates, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    while rates.len() < 3 || Instant::now() < deadline {
        for w in [par, 1] {
            let (mut server, setup) = build_server(&shape, seed, w);
            setups.push(setup);
            let report = run_load(&mut server, &cfg, &ServerTracing::disabled());
            drop(server);
            let got = verify(&report, shape.requests, checks);
            checks.check(got == expect, || {
                format!("{w}-worker run diverged from the reference: {got:?} vs {expect:?}")
            });
            m.attempted += shape.requests;
            m.failed += got.rejected + u64::from(got.digest != expect.digest);
            if w == par {
                rates.push(report.throughput());
            } else {
                replays.push(report.wall_secs);
            }
        }
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

/// Shadow copies of one tenant's NALABS analyzer and CI gates,
/// configured exactly as `Tenant::new` configures its own.
struct Shadow {
    config: TenantConfig,
    stig: Catalog<UnixHost>,
    analyzer: Analyzer,
    req: RequirementsGate,
    test: TestGate,
    analysis: AnalysisGate,
}

impl Shadow {
    fn new(config: TenantConfig, obs: &vdo_obs::Registry) -> Self {
        Shadow {
            stig: vdo_stigs::ubuntu::catalog(),
            analyzer: Analyzer::with_default_metrics(),
            req: RequirementsGate::new().with_tolerance(config.requirement_tolerance),
            test: TestGate::new(config.min_coverage),
            analysis: AnalysisGate::incremental(Default::default()).observed(obs.clone()),
            config,
        }
    }
}

/// Counts the shadow layers' verdicts (span timing lives in the
/// tracer).
#[derive(Default)]
struct ShadowCounts {
    nalabs_smelly: u64,
    gate_rejects: [u64; 4],
    disagreements: u64,
}

const GATE_SPANS: [&str; 4] = [
    "gate.requirements",
    "gate.compliance",
    "gate.test",
    "gate.analysis",
];

/// Runs the schedule on one thread through the server's public parts.
/// With `shadow` set, every requirement and commit is also judged by
/// the tenant's shadow layers just before the tenant handles it.
/// Returns the pass wall time and the verdict-log digest.
fn harness_pass(
    shape: &Shape,
    cfg: &LoadConfig,
    seed: u64,
    tracer: &mut Tracer,
    mut shadow: Option<(&mut [Shadow], &mut ShadowCounts)>,
) -> (f64, u64) {
    let mut tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| Tenant::new(&tenant_config(seed, t)))
        .collect();
    let mut queues: Vec<TenantQueue> = (0..TENANTS)
        .map(|t| TenantQueue::new(tenant_config(seed, t).queue_capacity))
        .collect();
    let mut sched = DrrScheduler::new(&[1; TENANTS], ServerConfig::default().quantum);
    let mut next_seq = [0u64; TENANTS];
    let mut gen = LoadGen::new(cfg.clone());
    let silent = Journal::disabled();

    let t0 = Instant::now();
    let root = tracer.begin("service.pass", ROOT);
    let mut round = 0u64;
    loop {
        let arrivals = tracer.time("loadgen", root, || gen.arrivals_for(round));
        let admit = tracer.begin("server.admit", root);
        for (tenant, request) in arrivals {
            let env = Envelope {
                tenant,
                seq: next_seq[tenant],
                submitted_at: round,
                request,
                trace: None,
            };
            if queues[tenant].try_push(env).is_ok() {
                next_seq[tenant] += 1;
            }
        }
        tracer.end(admit);
        let plan = tracer.time("server.plan", root, || {
            sched.plan(&mut queues, shape.capacity)
        });
        for (t, batch) in plan {
            for env in batch {
                let expected = shadow.as_mut().and_then(|(shadows, counts)| {
                    let sh = &mut shadows[t];
                    let span = tracer.begin("shadow", root);
                    let verdict =
                        shadow_judge(sh, &tenants[t], &env, &silent, tracer, span, counts);
                    tracer.end(span);
                    verdict
                });
                let name = match env.request.kind() {
                    RequestKind::SubmitRequirement => "tenant.submit",
                    RequestKind::PushCommit => "tenant.push",
                    RequestKind::QueryIncident => "tenant.query",
                    RequestKind::RunOps => "tenant.ops",
                };
                let outcome = tracer.time(name, root, || tenants[t].handle(&env, round));
                if let (Some(want), Some((_, counts))) = (expected, shadow.as_mut()) {
                    counts.disagreements += u64::from(!want.matches(&outcome));
                }
            }
        }
        round += 1;
        if gen.remaining() == 0 && queues.iter().all(TenantQueue::is_empty) {
            break;
        }
    }
    tracer.end(root);
    let wall = t0.elapsed().as_secs_f64();
    (wall, digest_logs(tenants.iter().map(Tenant::verdict_log)))
}

/// What the shadow layers predict the tenant will answer.
enum Expected {
    Requirement { smelly: bool },
    Commit { failed_gate: Option<&'static str> },
}

impl Expected {
    fn matches(&self, outcome: &Outcome) -> bool {
        match (self, outcome) {
            (Expected::Requirement { smelly }, Outcome::RequirementRejected(_)) => *smelly,
            (Expected::Requirement { smelly }, Outcome::RequirementAccepted) => !smelly,
            (Expected::Commit { failed_gate }, Outcome::CommitRejected(gate)) => {
                *failed_gate == Some(*gate)
            }
            (Expected::Commit { failed_gate }, Outcome::CommitMerged(_)) => failed_gate.is_none(),
            _ => false,
        }
    }
}

/// Judges one request with the shadow layers, mirroring the tenant's
/// own evaluation order: the four gates run in sequence and stop at the
/// first rejection, so the shadow analysis gate accumulates exactly
/// the artifacts the tenant's gate does.
fn shadow_judge(
    sh: &mut Shadow,
    tenant: &Tenant,
    env: &Envelope,
    silent: &Journal,
    tracer: &mut Tracer,
    parent: usize,
    counts: &mut ShadowCounts,
) -> Option<Expected> {
    match &env.request {
        Request::SubmitRequirement(doc) => {
            let report = tracer.time("nalabs.analyze", parent, || sh.analyzer.analyze(doc));
            let smelly = report.is_smelly();
            counts.nalabs_smelly += u64::from(smelly);
            Some(Expected::Requirement { smelly })
        }
        Request::PushCommit(commit) => {
            let compliance = ComplianceGate::new(&sh.stig, sh.config.block_at);
            let delta = commit.artifact_delta();
            let cx = GateContext {
                commit,
                production: tenant.production(),
                journal: silent,
                trace: None,
                at: env.submitted_at,
                changed: Some(&delta),
            };
            let gates: [&dyn Gate; 4] = [&sh.req, &compliance, &sh.test, &sh.analysis];
            let mut failed_gate = None;
            for (i, gate) in gates.iter().enumerate() {
                let decision = tracer.time(GATE_SPANS[i], parent, || gate.evaluate(&cx));
                if !decision.passed {
                    counts.gate_rejects[i] += 1;
                    failed_gate = Some(decision.gate);
                    break;
                }
            }
            Some(Expected::Commit { failed_gate })
        }
        Request::QueryIncident { .. } | Request::RunOps { .. } => None,
    }
}

/// The traced run: per-layer spans from the harness, the tracing
/// overhead as traced minus untraced harness time, the server's own
/// dispatch cost, and its journal overhead from paired runs.
fn traced(
    shape: &Shape,
    cfg: &LoadConfig,
    seed: u64,
    expect: Verdicts,
    checks: &mut Checks,
    m: &mut Measured,
) {
    // Untraced harness pass: no spans, no shadows.
    let (untraced_s, digest) = harness_pass(shape, cfg, seed, &mut Tracer::new(false), None);
    checks.check(digest == expect.digest, || {
        "untraced harness pass diverged from the server's verdict logs".into()
    });

    let obs = vdo_obs::Registry::new();
    let mut shadows: Vec<Shadow> = (0..TENANTS)
        .map(|t| Shadow::new(tenant_config(seed, t), &obs))
        .collect();
    let mut counts = ShadowCounts::default();
    let mut tracer = Tracer::new(true);
    let (traced_s, digest) = harness_pass(
        shape,
        cfg,
        seed,
        &mut tracer,
        Some((&mut shadows, &mut counts)),
    );
    checks.check(digest == expect.digest, || {
        "traced harness pass diverged from the server's verdict logs".into()
    });
    checks.check(counts.disagreements == 0, || {
        format!(
            "shadow NALABS/gates disagreed with the tenants on {} requests",
            counts.disagreements
        )
    });
    m.attempted += 2 * shape.requests;
    m.failed += u64::from(counts.disagreements > 0);

    // The real server at one worker, with its journal enabled and
    // disabled, paired and alternated. The disabled runs give the
    // 1-worker wall time the dispatch cost is derived from.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pair in 0..2 {
        for enabled in [pair % 2 == 0, pair % 2 == 1] {
            let tracing = if enabled {
                ServerTracing::new(Journal::new(), seed)
            } else {
                ServerTracing::disabled()
            };
            let (mut server, _) = build_server(shape, seed, 1);
            let report = run_load(&mut server, cfg, &tracing);
            let got = verify(&report, shape.requests, checks);
            checks.check(got == expect, || {
                format!("journalled={enabled} run diverged from the reference")
            });
            m.attempted += shape.requests;
            if enabled {
                on.push(report.wall_secs);
            } else {
                off.push(report.wall_secs);
            }
        }
    }
    let one_worker_wall = median(&off);

    let stats = tracer.stats();
    let get = |name: &str| stats.get(name).copied().unwrap_or_default();
    let mx = &mut m.metrics;
    let mut put = |name: String, value: f64| {
        mx.insert(name, value);
    };
    let mut handled = 0.0;
    for kind in ["submit", "push", "query", "ops"] {
        let s = get(&format!("tenant.{kind}"));
        handled += s.busy_s;
        put(format!("tenant.{kind}.count"), s.count as f64);
        put(format!("tenant.{kind}.busy_s"), s.busy_s);
        put(format!("tenant.{kind}.p50_us"), s.p50_us);
        put(format!("tenant.{kind}.p99_us"), s.p99_us);
    }
    let loadgen = get("loadgen");
    put("loadgen.busy_s".into(), loadgen.busy_s);
    put("server.admit_s".into(), get("server.admit").busy_s);
    put("server.plan_s".into(), get("server.plan").busy_s);
    put(
        "server.dispatch_s".into(),
        one_worker_wall - handled - loadgen.busy_s,
    );

    let nalabs = get("nalabs.analyze");
    put("nalabs.analyze.count".into(), nalabs.count as f64);
    put("nalabs.analyze.busy_s".into(), nalabs.busy_s);
    put("nalabs.analyze.p99_us".into(), nalabs.p99_us);
    put(
        "nalabs.analyze.reject_ratio".into(),
        ratio(counts.nalabs_smelly as f64, nalabs.count as f64),
    );
    for (i, span) in GATE_SPANS.iter().enumerate() {
        let s = get(span);
        put(format!("{span}.count"), s.count as f64);
        put(format!("{span}.busy_s"), s.busy_s);
        put(format!("{span}.p99_us"), s.p99_us);
        put(format!("{span}.rejects"), counts.gate_rejects[i] as f64);
    }
    let snap = obs.snapshot();
    let hits = snap.counter("pipeline.analysis.incr.hits").unwrap_or(0) as f64;
    let misses = snap.counter("pipeline.analysis.incr.misses").unwrap_or(0) as f64;
    put(
        "gate.analysis.memo_hit_ratio".into(),
        ratio(hits, hits + misses),
    );
    put(
        "trace.server_overhead_ratio".into(),
        median(&on) / median(&off) - 1.0,
    );
    put("unaccounted_s".into(), tracer.self_ns(0) as f64 / 1e9);
    put("trace.traced_s".into(), traced_s);
    put("trace.untraced_s".into(), untraced_s);
    put("trace.overhead_ratio".into(), traced_s / untraced_s - 1.0);
    m.tracer = Some(tracer);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
