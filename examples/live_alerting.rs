//! The live telemetry plane end to end: streaming SLO burn-rate
//! alerting on the SOC fleet, per-tenant alerting on the multi-tenant
//! server (published onto the SOC bus), latency exemplars linking
//! histogram buckets to causal traces, and an adaptively tail-sampled
//! journal that keeps every incident chain resolvable.
//!
//! Run with: `cargo run --release --example live_alerting`

use std::sync::Arc;

use veridevops::server::{
    LoadConfig, LoadGen, Server, ServerConfig, ServerMetrics, ServerSloPolicy, ServerTracing,
    TenantConfig,
};
use veridevops::soc::{RemediationConfig, SecEvent, ShardedBus, SloPolicy, SocConfig, SocEngine};
use veridevops::trace::{
    BurnRateRule, Journal, JournalConfig, SamplingPolicy, SamplingSink, Severity, SloSignal,
    Telemetry,
};

fn main() {
    // -- 1. Fleet-wide SLO: remediation dead-letter burn rate. ----------
    // With retries disabled, a 30% attempt fault rate dead-letters 30%
    // of remediations — burning straight through the 5% objective — so
    // the rule fires mid-run, not at the post-mortem.
    let catalog = veridevops::stigs::ubuntu::catalog();
    let config = SocConfig {
        duration: 150,
        drift_rate: 0.05,
        seed: 11,
        remediation: RemediationConfig {
            max_retries: 0,
            fault_rate: 0.3,
            ..RemediationConfig::default()
        },
        slo: Some(SloPolicy {
            rules: vec![BurnRateRule {
                name: "remediation-failures".into(),
                signal: SloSignal::CounterRatio {
                    bad: "soc.dead_letters".into(),
                    total: "soc.remediations".into(),
                },
                objective: 0.05,
                long_window: 20,
                short_window: 5,
                factor: 2.0,
            }],
            period: 1,
        }),
        ..SocConfig::default()
    };
    let engine = SocEngine::new(&catalog, config)
        .expect("valid config")
        .with_telemetry(&Telemetry::off().with_journal(Journal::new(), 11));
    let mut fleet = veridevops::stigs::ubuntu::hardened_fleet(32);
    let report = engine.run(&mut fleet);
    println!(
        "SOC fleet: {} incident(s), {} live SLO alert(s)",
        report.incidents.len(),
        report.slo_alerts.len()
    );
    if let Some(alert) = report.slo_alerts.first() {
        println!(
            "  first alert: tick {} rule={} long_burn={:.2} short_burn={:.2}",
            alert.at, alert.rule, alert.long_burn, alert.short_burn
        );
    }

    // -- 2. Per-tenant alerting onto the SOC bus. -----------------------
    // One tenant gets a tiny queue behind a slow server; periodic
    // bursts overload it and its admission SLO fires on *its* name
    // while the healthy tenant stays quiet. Alerts are journalled and
    // published as SecEvent::SloAlert for any bus subscriber.
    let mut server = Server::new(ServerConfig {
        capacity_per_round: 8,
        workers: 2,
        ..ServerConfig::default()
    });
    server.register_tenant(&TenantConfig::new("burning").with_queue_capacity(8));
    server.register_tenant(&TenantConfig::new("healthy").with_queue_capacity(4_096));
    let mut gen = LoadGen::new(LoadConfig {
        total_requests: 4_000,
        base_rate: 6,
        burst_period: 20,
        burst_size: 200,
        ..LoadConfig::even(2, 4_000, 6, 19)
    });
    let bus = Arc::new(ShardedBus::new(4, 8_192));
    let server_tracing = ServerTracing::new(Journal::new(), 77).with_slo(ServerSloPolicy {
        rules: vec![BurnRateRule {
            name: "admission".into(),
            signal: SloSignal::CounterRatio {
                bad: "server.rejected".into(),
                total: "server.admitted".into(),
            },
            objective: 0.1,
            long_window: 10,
            short_window: 3,
            factor: 2.0,
        }],
        period: 1,
        bus: Some(bus.clone()),
    });
    let metrics = ServerMetrics::new();
    let service = server.run_load(&mut gen, &metrics, &server_tracing);
    let mut on_bus = 0u64;
    for shard in 0..bus.shard_count() {
        while let Some(env) = bus.pop(shard) {
            if let SecEvent::SloAlert { .. } = env.event {
                on_bus += 1;
            }
        }
    }
    println!(
        "server: {} per-tenant alert(s) fired, {} seen on the SOC bus",
        service.slo_alerts.len(),
        on_bus
    );
    let tenant_names = ["burning", "healthy"];
    for (tenant, alert) in service.slo_alerts.iter().take(3) {
        println!(
            "  tick {} tenant={} rule={}",
            alert.at, tenant_names[*tenant], alert.rule
        );
    }

    // -- 3. Exemplars: histogram buckets link to causal traces. ---------
    let snap = metrics.queue_latency.snapshot();
    for (i, ex) in snap.exemplars.iter().enumerate() {
        if let Some(ex) = ex {
            println!(
                "  latency bucket {i}: exemplar value={} trace={:#x}",
                ex.value, ex.trace_id
            );
        }
    }

    // -- 4. Tail sampling: keep 1-in-16, anomalies and roots whole. -----
    let dir = std::env::temp_dir().join(format!("vdo-live-alerting-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sink = SamplingSink::new(
        veridevops::trace::DirWriter::create(&dir, "live_alerting demo").expect("sink"),
        SamplingPolicy {
            keep_1_in: 16,
            seed: 0xa1e7,
            ..SamplingPolicy::default()
        },
    );
    let stats = sink.stats();
    let capture = JournalConfig {
        shards: 1,
        capacity_per_shard: 1,
        min_severity: Severity::Debug,
    };
    let journal = Journal::with_sink(capture, Box::new(sink));
    let engine = SocEngine::new(
        &catalog,
        SocConfig {
            duration: 150,
            drift_rate: 0.05,
            seed: 11,
            ..SocConfig::default()
        },
    )
    .expect("valid config")
    .with_telemetry(&Telemetry::off().with_journal(journal.clone(), 11));
    let mut fleet2 = veridevops::stigs::ubuntu::hardened_fleet(32);
    engine.run(&mut fleet2);
    journal.sync();
    println!(
        "sampled journal: kept {} of {} events ({} trace(s) promoted on anomaly)",
        stats.kept(),
        stats.seen(),
        stats.promoted()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
