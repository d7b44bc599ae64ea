//! End-to-end statistical guarantees: the C = 1 sampler run through the
//! *full web scraping stack* produces samples whose distribution matches
//! ground truth, and the count-weighted sampler is exactly uniform on
//! exact counts.

use hdsampler::prelude::*;
use std::sync::Arc;

/// χ² of per-tuple sample counts against uniform; compares the statistic
/// to a generous bound (the 99.9th percentile of χ²_{n-1} is ≈ n + 4√(2n)
/// for large n).
fn assert_uniform_by_chi_square(db: &HiddenDb, keys: &[u64], n_tuples: usize) {
    let freq = db.oracle().frequency_by_tuple(keys);
    assert!(
        freq.keys().all(Option::is_some),
        "all sampled keys resolve to genuine tuples"
    );
    let counts: Vec<u64> = freq.values().copied().collect();
    let chi = hdsampler::estimator::chi_square_uniform(&counts, n_tuples, keys.len() as u64);
    let dof = (n_tuples - 1) as f64;
    let bound = dof + 4.0 * (2.0 * dof).sqrt();
    assert!(
        chi < bound,
        "χ² = {chi:.1} exceeds the 3σ-ish bound {bound:.1} for {n_tuples} tuples"
    );
}

#[test]
fn hds_uniform_through_webform_stack() {
    // Small Boolean DB so per-tuple statistics are meaningful.
    let spec = WorkloadSpec {
        data: DataSpec::BooleanIid {
            m: 9,
            n: 120,
            p: 0.5,
        },
        db: DbConfig::no_counts().with_k(5),
        seed: 21,
    };
    let db = Arc::new(spec.build());
    let iface = hdsampler::webform_stack(&db);
    let mut sampler =
        HdsSampler::new(CachingExecutor::new(&iface), SamplerConfig::seeded(99)).unwrap();

    let mut keys = Vec::new();
    for _ in 0..3_000 {
        keys.push(sampler.next_sample().unwrap().row.key);
    }
    assert_uniform_by_chi_square(&db, &keys, db.n_tuples());

    // The same guarantee through every `RunPlan` driver. Multi-site
    // plans put the same data behind every site (each with its own
    // history cache), so the pooled keys must be uniform too.
    let site = |name: &str| {
        let schema = Arc::new(db.schema().clone());
        let local = LocalSite::new(Arc::clone(&db), Arc::clone(&schema));
        let wire = LatencyTransport::new(local, 20);
        SiteTask::new(
            name,
            WebFormInterface::new(wire, schema, db.result_limit(), false),
        )
    };
    let drivers = [
        ("threaded W=1", Driver::Threaded, 1, 1, false),
        ("coop W=4 C=2", Driver::Coop { conns: Some(2) }, 4, 1, false),
        (
            "coop steal, 2 sites",
            Driver::Coop { conns: None },
            3,
            2,
            true,
        ),
        ("serial, 2 sites", Driver::Serial, 1, 2, false),
    ];
    for (label, driver, walkers, sites, steal) in drivers {
        let mut fleet: Vec<_> = (0..sites).map(|i| site(&format!("s{i}"))).collect();
        let report = RunPlan::target(3_000 / sites)
            .walkers(walkers)
            .seed(99)
            .driver(driver)
            .steal(steal)
            .run(&mut fleet);
        assert_eq!(report.total_samples(), 3_000, "{label}");
        assert_eq!(report.fleet.total_steals() > 0, steal, "{label}");
        let keys: Vec<u64> = report
            .fleet
            .sites
            .iter()
            .flat_map(|s| s.samples.keys())
            .collect();
        assert_uniform_by_chi_square(&db, &keys, db.n_tuples());
    }
}

#[test]
fn count_sampler_uniform_and_rejection_free() {
    let spec = WorkloadSpec {
        data: DataSpec::BooleanIid {
            m: 9,
            n: 120,
            p: 0.5,
        },
        db: DbConfig::exact_counts().with_k(5),
        seed: 22,
    };
    let db = Arc::new(spec.build());
    let mut sampler = CountWalkSampler::new(
        CachingExecutor::new(Arc::clone(&db)),
        SamplerConfig::seeded(5),
    )
    .unwrap();
    let mut keys = Vec::new();
    for _ in 0..3_000 {
        keys.push(sampler.next_sample().unwrap().row.key);
    }
    assert_uniform_by_chi_square(&db, &keys, db.n_tuples());
    let stats = sampler.stats();
    assert_eq!(stats.rejected, 0, "exact counts never reject");
    assert_eq!(stats.walks, 3_000, "every walk produces a sample");
}

#[test]
fn brute_force_uniform() {
    let spec = WorkloadSpec {
        data: DataSpec::BooleanIid {
            m: 8,
            n: 60,
            p: 0.5,
        },
        db: DbConfig::no_counts().with_k(3),
        seed: 23,
    };
    let db = Arc::new(spec.build());
    let mut sampler = BruteForceSampler::new(
        DirectExecutor::new(Arc::clone(&db)),
        SamplerConfig::seeded(5),
    )
    .unwrap();
    let mut keys = Vec::new();
    for _ in 0..2_000 {
        keys.push(sampler.next_sample().unwrap().row.key);
    }
    assert_uniform_by_chi_square(&db, &keys, db.n_tuples());
}

#[test]
fn raw_walk_is_demonstrably_skewed() {
    // Sanity check of the test's own power: with AcceptAll the same χ²
    // statistic must blow past the bound on a database engineered to have
    // very asymmetric walk depths (the Figure 1 construction scaled up).
    let db = Arc::new(hdsampler::workload::figure1_db(1));
    let mut sampler = HdsSampler::new(
        DirectExecutor::new(Arc::clone(&db)),
        SamplerConfig::seeded(5)
            .with_order(OrderStrategy::Fixed)
            .with_acceptance(AcceptancePolicy::AcceptAll),
    )
    .unwrap();
    let keys: Vec<u64> = (0..2_000)
        .map(|_| sampler.next_sample().unwrap().row.key)
        .collect();
    let freq = db.oracle().frequency_by_tuple(&keys);
    let counts: Vec<u64> = freq.values().copied().collect();
    let chi = hdsampler::estimator::chi_square_uniform(&counts, 4, keys.len() as u64);
    assert!(
        chi > 100.0,
        "raw walk skew must be detected (χ² = {chi:.1})"
    );
}
