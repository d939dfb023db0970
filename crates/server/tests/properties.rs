//! Property tests for the service front end's three load-bearing
//! guarantees: equal-seed determinism of per-tenant verdict logs at any
//! worker count, starvation freedom of the weighted DRR scheduler, and
//! exact-overflow admission control.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use vdo_server::{
    DrrScheduler, Envelope, LoadConfig, LoadGen, MixWeights, RejectReason, Request, Server,
    ServerConfig, ServerMetrics, ServerTracing, TenantConfig, TenantQueue,
};

/// Builds a server with `tenants` seeded tenants and runs the same
/// seeded load against it, returning the per-tenant verdict logs.
fn run_with_workers(tenants: usize, seed: u64, workers: usize) -> Vec<String> {
    let mut server = Server::new(ServerConfig {
        capacity_per_round: 32,
        quantum: 2,
        workers,
        retain_responses: false,
    });
    for t in 0..tenants {
        server.register_tenant(
            &TenantConfig::new(format!("tenant-{t}"))
                .with_seed(seed.wrapping_add(t as u64))
                .with_weight(1 + (t as u64 % 3))
                .with_queue_capacity(64),
        );
    }
    let mut gen = LoadGen::new(LoadConfig {
        total_requests: 200,
        base_rate: 16,
        burst_period: 7,
        burst_size: 24,
        tenant_weights: (0..tenants).map(|t| 1 + (t as u64 % 3)).collect(),
        mix: MixWeights::default(),
        seed,
    });
    let tracing = ServerTracing::new(vdo_trace::Journal::new(), seed);
    let report = server.run_load(&mut gen, &ServerMetrics::new(), &tracing);
    report.verdict_logs
}

proptest! {
    /// The acceptance condition of experiment E15: with equal seeds the
    /// per-tenant verdict logs are byte-identical at any worker count.
    /// Every divergence here is a real race — a verdict that depended
    /// on which worker ran a batch or in which order rounds merged.
    #[test]
    fn verdict_logs_are_worker_count_invariant(seed in 0u64..1_000, tenants in 2usize..5) {
        let baseline = run_with_workers(tenants, seed, 1);
        prop_assert_eq!(baseline.len(), tenants);
        prop_assert!(
            baseline.iter().any(|log| !log.is_empty()),
            "the seeded load must exercise at least one tenant"
        );
        for workers in [2usize, 4] {
            let got = run_with_workers(tenants, seed, workers);
            prop_assert_eq!(
                &baseline, &got,
                "verdict logs diverged between 1 and {} workers at seed {}",
                workers, seed
            );
        }
    }

    /// Starvation freedom: under any seeded request mix, any weights,
    /// any quantum and any round capacity, a tenant whose queue stays
    /// non-empty is served within at most N dispatch rounds, where N is
    /// the tenant count.
    #[test]
    fn drr_serves_every_waiting_tenant_within_n_rounds(
        seed in 0u64..10_000,
        tenants in 1usize..9,
        quantum in 1u64..5,
        capacity in 1usize..33,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<u64> = (0..tenants).map(|_| rng.gen_range(1..8)).collect();
        let mut sched = DrrScheduler::new(&weights, quantum);
        let mut queues: Vec<TenantQueue> =
            (0..tenants).map(|_| TenantQueue::new(256)).collect();
        let mut seq = 0u64;
        // Rounds a tenant has waited with a non-empty queue and no
        // service.
        let mut waited = vec![0usize; tenants];
        for round in 0..200u64 {
            // Open-loop arrivals: refill queues independently of what
            // the scheduler served.
            for (t, q) in queues.iter_mut().enumerate() {
                for _ in 0..rng.gen_range(0..4) {
                    let _ = q.try_push(Envelope {
                        tenant: t,
                        seq,
                        submitted_at: round,
                        request: Request::QueryIncident { rule: None },
                        trace: None,
                    });
                    seq += 1;
                }
            }
            let backlog: Vec<bool> = queues.iter().map(|q| !q.is_empty()).collect();
            let planned = sched.plan(&mut queues, capacity);
            let mut served = vec![false; tenants];
            for (t, batch) in &planned {
                prop_assert!(!batch.is_empty(), "planned batches are never empty");
                served[*t] = true;
            }
            for t in 0..tenants {
                if served[t] {
                    waited[t] = 0;
                } else if backlog[t] {
                    waited[t] += 1;
                    prop_assert!(
                        waited[t] < tenants,
                        "tenant {} starved for {} rounds (n={}, capacity={}, quantum={})",
                        t, waited[t], tenants, capacity, quantum
                    );
                } else {
                    waited[t] = 0;
                }
            }
        }
    }

    /// Admission control rejects exactly the overflow: pushing `k`
    /// requests at a tenant with queue capacity `c` admits `min(k, c)`
    /// and rejects the rest with the typed queue-full reason.
    #[test]
    fn admission_rejects_exactly_the_overflow(
        capacity in 1usize..64,
        submitted in 1usize..128,
    ) {
        let mut server = Server::new(ServerConfig::default());
        let t = server.register_tenant(
            &TenantConfig::new("solo").with_queue_capacity(capacity),
        );
        let mut admitted = 0usize;
        let mut rejected = 0usize;
        for _ in 0..submitted {
            match server.submit(t, Request::QueryIncident { rule: None }) {
                Ok(_) => admitted += 1,
                Err(rejection) => {
                    prop_assert_eq!(rejection.tenant, t);
                    prop_assert_eq!(rejection.reason, RejectReason::QueueFull(capacity));
                    rejected += 1;
                }
            }
        }
        prop_assert_eq!(admitted, capacity.min(submitted));
        prop_assert_eq!(rejected, submitted.saturating_sub(capacity));
        // Draining frees the capacity again.
        let report = server.drain(&ServerMetrics::disabled(), &ServerTracing::disabled());
        prop_assert_eq!(report.completed(), admitted as u64);
        prop_assert!(server.submit(t, Request::QueryIncident { rule: None }).is_ok());
    }
}
