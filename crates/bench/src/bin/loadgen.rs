//! Multi-tenant load generator for the inversion service (DESIGN.md §14).
//!
//! ```text
//! cargo run --release -p quda-bench --bin loadgen [-- --requests N]
//! ```
//!
//! Drives ≥ 1000 solves from 4 tenants of unequal demand through a
//! 2-worker service with deliberately small per-tenant queues, responding
//! to backpressure the way a real client does: on `QueueFull`, drain one
//! outstanding ticket, then retry. The run then *asserts* the service's
//! contract:
//!
//! * every accepted request completes (conservation: none lost, none
//!   duplicated);
//! * backpressure is real (rejections observed) and bounded (no tenant
//!   queue ever exceeds its configured capacity — memory cannot grow with
//!   offered load);
//! * no starvation: every tenant completes work;
//! * batching engages (mean dispatched batch > 1 RHS) and queueing
//!   telemetry is visible in the per-request reports.
//!
//! Prints a one-object JSON summary on stdout; panics (non-zero exit) if
//! any invariant fails, so CI can run it as a soak gate.

use std::collections::VecDeque;

use quda_core::{PrecisionMode, QudaInvertParam};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_lattice::geometry::LatticeDims;
use quda_service::{Service, ServiceConfig, ServiceError, SolveRequest, TenantConfig, Ticket};

const TENANTS: u32 = 4;
const QUEUE_CAPACITY: usize = 16;

fn main() {
    let mut requests = 1000usize;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--requests") {
        requests = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--requests takes a positive integer");
    }

    let dims = LatticeDims::new(4, 4, 2, 4);
    let mut service = Service::new(ServiceConfig {
        workers: 2,
        max_batch: 8,
        queue_capacity: QUEUE_CAPACITY,
        default_weight: 1,
        log_dispatch_order: false,
    });
    // Unequal shares: tenant 0 pays for double weight.
    service.configure_tenant(0, TenantConfig { weight: 2, queue_capacity: QUEUE_CAPACITY });
    let gauge = service.load_gauge(weak_field(dims, 0.15, 7)).expect("gauge load");
    service.start();

    let param = QudaInvertParam::paper_mode(PrecisionMode::Double, 2).with_mass(0.3).with_tol(1e-6);
    let mut outstanding: VecDeque<Ticket> = VecDeque::new();
    let mut rejections = 0u64;
    let mut completed = 0u64;
    let mut queue_waits_observed = 0u64;
    let drain = |outstanding: &mut VecDeque<Ticket>,
                 completed: &mut u64,
                 queue_waits_observed: &mut u64| {
        if let Some(t) = outstanding.pop_front() {
            let (_, report) = t.wait().expect("accepted solve must complete");
            assert!(report.converged, "solve failed to converge under load");
            assert!(report.queue.batch_size >= 1);
            assert!(report.queue.queue_depth <= QUEUE_CAPACITY, "queue depth exceeded bound");
            if !report.queue.queue_wait.is_zero() {
                *queue_waits_observed += 1;
            }
            *completed += 1;
        }
    };

    for i in 0..requests {
        // Tenant 3 floods (every other request); 0..2 trickle.
        let tenant = if i % 2 == 1 { 3 } else { (i / 2) as u32 % (TENANTS - 1) };
        let source = random_spinor_field(dims, 1000 + i as u64);
        let mut req = SolveRequest { gauge, source, param: param.with_tenant(tenant) };
        loop {
            match service.submit(req) {
                Ok(t) => {
                    outstanding.push_back(t);
                    break;
                }
                Err(ServiceError::QueueFull { .. }) => {
                    // Backpressure: drain one completion, then retry.
                    rejections += 1;
                    drain(&mut outstanding, &mut completed, &mut queue_waits_observed);
                    req = SolveRequest {
                        gauge,
                        source: random_spinor_field(dims, 1000 + i as u64),
                        param: param.with_tenant(tenant),
                    };
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    service.wait_idle();
    while !outstanding.is_empty() {
        drain(&mut outstanding, &mut completed, &mut queue_waits_observed);
    }
    let stats = service.shutdown();

    // The soak contract.
    assert!(requests >= 1000 || std::env::args().any(|a| a == "--requests"));
    assert_eq!(completed as usize, requests, "accepted work was lost");
    assert_eq!(stats.completed, completed, "service counters disagree with client");
    assert_eq!(stats.submitted, completed, "conservation: submitted != completed");
    assert!(stats.rejected > 0 || rejections > 0, "no backpressure observed — soak invalid");
    assert!(
        stats.max_queue_depth <= QUEUE_CAPACITY,
        "queue depth {} exceeded capacity {QUEUE_CAPACITY}",
        stats.max_queue_depth
    );
    assert_eq!(stats.per_tenant.len(), TENANTS as usize, "a tenant never completed work");
    for (tenant, t) in &stats.per_tenant {
        assert!(t.completed > 0, "tenant {tenant} starved");
        assert!(t.max_depth <= QUEUE_CAPACITY);
    }
    let mean_batch = stats.batched_requests as f64 / stats.batches.max(1) as f64;
    assert!(mean_batch > 1.0, "batching never engaged (mean batch {mean_batch:.2})");
    assert!(queue_waits_observed > 0, "queueing telemetry never surfaced");

    let per_tenant: Vec<String> = stats
        .per_tenant
        .iter()
        .map(|(id, t)| format!("{{\"tenant\": {id}, \"completed\": {}}}", t.completed))
        .collect();
    println!("{{");
    println!("  \"schema\": \"quda-loadgen/v2\",");
    println!("  \"lattice\": \"4x4x2x4\", \"tenants\": {TENANTS}, \"workers\": 2,");
    println!("  \"queue_capacity\": {QUEUE_CAPACITY},");
    println!("  \"requests\": {requests},");
    println!("  \"completed\": {},", stats.completed);
    println!("  \"rejected_backpressure\": {},", stats.rejected.max(rejections));
    println!("  \"expired\": {},", stats.expired);
    println!("  \"batches\": {},", stats.batches);
    println!("  \"mean_batch\": {mean_batch:.2},");
    println!("  \"max_batch\": {},", stats.max_batch);
    println!("  \"max_queue_depth\": {},", stats.max_queue_depth);
    println!("  \"per_tenant\": [{}]", per_tenant.join(", "));
    println!("}}");
}
