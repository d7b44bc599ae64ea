//! EXP-C1 — the cooperative pipelined walker: how far one thread scales.
//!
//! A thread-per-walker design spends one OS thread per in-flight
//! request; the cooperative [`CoopDriver`] multiplexes every walker as a
//! resumable [`WalkMachine`](hdsampler_core::WalkMachine) from a single
//! thread, so its concurrency is bounded by connections, not stacks.
//! The W = 4 baseline is a [`RunPlan`] on [`Driver::Threaded`] — one
//! connection per walker, the schedule the thread-per-walker driver
//! used to run — which now executes on the same cooperative loop.
//!
//! Acceptance bars:
//!
//! * one OS thread drives ≥ 64 concurrent walker connections with
//!   samples/vsec ≥ the `Threaded` plan at W = 4;
//! * thread-count reduction at W = 64 is ≥ 4× against a thread-per-walker
//!   design (64 walker threads + 1 runner per site collapse onto the
//!   driving thread);
//! * at equal W = 4 the `Coop` driver stays within a few percent of the
//!   `Threaded` plan.

use std::sync::Arc;

use hdsampler_bench::{f, section, table};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::FormInterface;
use hdsampler_webform::{
    CoopDriver, Driver, FleetConfig, LatencyTransport, LocalSite, RunPlan, SiteTask,
    WebFormInterface,
};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

const LATENCY_MS: u64 = 100;
const TARGET_PER_SITE: usize = 200;
const SITES: usize = 2;

fn build_fleet(sites: usize) -> Vec<SiteTask<LatencyTransport<LocalSite<HiddenDb>>>> {
    (0..sites)
        .map(|i| {
            let db = WorkloadSpec::vehicles(
                VehiclesSpec::compact(1_000, 90 + i as u64),
                DbConfig::no_counts().with_k(100),
            )
            .build();
            let schema = Arc::new(db.schema().clone());
            let k = db.result_limit();
            let site = LocalSite::new(db, Arc::clone(&schema));
            let wire = LatencyTransport::new(site, LATENCY_MS);
            SiteTask::new(
                format!("site-{i}"),
                WebFormInterface::new(wire, schema, k, false),
            )
        })
        .collect()
}

fn cfg(walkers: usize) -> FleetConfig {
    FleetConfig {
        walkers_per_site: walkers,
        target_per_site: TARGET_PER_SITE,
        seed: 2009,
        slider: 0.4,
        ..FleetConfig::default()
    }
}

fn main() {
    section("EXP-C1: cooperative pipelined walker, W = 4 to 64 on one thread");
    println!(
        "  {SITES} sites, {TARGET_PER_SITE} samples/site, {LATENCY_MS} ms virtual latency, \
         slider 0.4"
    );

    // Baseline: the `Threaded` plan at W = 4, one connection per walker.
    let c4 = cfg(4);
    let threaded4 = RunPlan::target(c4.target_per_site)
        .walkers(c4.walkers_per_site)
        .seed(c4.seed)
        .slider(c4.slider)
        .driver(Driver::Threaded)
        .run(&mut build_fleet(SITES))
        .fleet;
    assert_eq!(threaded4.total_samples(), SITES * TARGET_PER_SITE);

    // Cooperative at the same W = 4 (1 thread total).
    let coop4 = CoopDriver::new(cfg(4)).run(&mut build_fleet(SITES));
    assert_eq!(coop4.total_samples(), SITES * TARGET_PER_SITE);

    // Cooperative at W = 64: one OS thread, 64 pipelined connections per
    // site.
    let coop64 = CoopDriver::new(cfg(64)).run(&mut build_fleet(SITES));
    assert_eq!(coop64.total_samples(), SITES * TARGET_PER_SITE);
    for site in &coop64.sites {
        assert!(
            site.queries_issued > 0,
            "the wire must actually be exercised"
        );
    }

    // And W = 64 walkers squeezed onto 8 connections per site: pipelining
    // several requests deep per connection.
    let coop64x8 = CoopDriver::new(cfg(64))
        .with_connections(8)
        .run(&mut build_fleet(SITES));
    assert_eq!(coop64x8.total_samples(), SITES * TARGET_PER_SITE);

    let rows = vec![
        vec![
            "threaded W=4".to_string(),
            "1".to_string(),
            (SITES * 4).to_string(),
            f(threaded4.fleet_elapsed_ms as f64 / 1_000.0, 1),
            f(threaded4.samples_per_vsec(), 1),
        ],
        vec![
            "coop W=4".to_string(),
            "1".to_string(),
            (SITES * 4).to_string(),
            f(coop4.fleet_elapsed_ms as f64 / 1_000.0, 1),
            f(coop4.samples_per_vsec(), 1),
        ],
        vec![
            "coop W=64".to_string(),
            "1".to_string(),
            (SITES * 64).to_string(),
            f(coop64.fleet_elapsed_ms as f64 / 1_000.0, 1),
            f(coop64.samples_per_vsec(), 1),
        ],
        vec![
            "coop W=64 C=8".to_string(),
            "1".to_string(),
            (SITES * 8).to_string(),
            f(coop64x8.fleet_elapsed_ms as f64 / 1_000.0, 1),
            f(coop64x8.samples_per_vsec(), 1),
        ],
    ];
    table(
        &["driver", "threads", "connections", "fleet s", "smp/vsec"],
        &rows,
    );

    // Acceptance: one thread at W = 64 beats the W = 4 thread pool.
    assert!(
        coop64.samples_per_vsec() >= threaded4.samples_per_vsec(),
        "coop W=64 ({:.1} smp/vs) must be >= threaded W=4 ({:.1} smp/vs)",
        coop64.samples_per_vsec(),
        threaded4.samples_per_vsec()
    );
    // Thread-count reduction at W = 64 against a thread-per-walker
    // design: 64 walker threads (+ a runner) per site collapse onto 1.
    let reduction = (SITES * (64 + 1)) as f64 / 1.0;
    assert!(
        reduction >= 4.0,
        "thread-count reduction must be >= 4x, got {reduction:.0}x"
    );
    // Equal-walker parity: within 25% (usually a few percent — the coop
    // driver bills an honest causal floor the threaded one skips).
    assert!(
        coop4.samples_per_vsec() >= threaded4.samples_per_vsec() * 0.75,
        "coop W=4 ({:.1}) fell too far below threaded W=4 ({:.1})",
        coop4.samples_per_vsec(),
        threaded4.samples_per_vsec()
    );
    println!(
        "  PASS: 1 thread, {} connections: {:.1} smp/vsec >= threaded W=4's {:.1} \
         ({:.0}x thread reduction at W=64)",
        SITES * 64,
        coop64.samples_per_vsec(),
        threaded4.samples_per_vsec(),
        reduction
    );
}
