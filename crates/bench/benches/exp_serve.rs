//! EXP-S1 — the real front door: served requests/sec and end-to-end
//! samples/sec over live loopback TCP, against the in-process baseline.
//!
//! PR 3 put the form behind a real socket. Two questions decide whether
//! the server is a deployable front door or a demo: how many page fetches
//! per second the HTTP stack serves (keep-alive, parse, execute, render,
//! write), and how much end-to-end sampling throughput the real wire
//! costs relative to calling `LocalSite` as a function. Unlike the
//! virtual-clock experiments, every number here is real wall-clock.

use std::sync::Arc;
use std::time::Instant;

use hdsampler_bench::{f, section, table};
use hdsampler_core::{CachingExecutor, HdsSampler, QueryExecutor, Sampler, SamplerConfig};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::FormInterface;
use hdsampler_server::{HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::{HttpTransport, LocalSite, Transport, WebFormInterface};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

const N_TUPLES: usize = 5_000;
const K: usize = 100;
const SEED: u64 = 2009;
const SAMPLE_TARGET: usize = 150;

fn build_db() -> HiddenDb {
    WorkloadSpec::vehicles(
        VehiclesSpec::compact(N_TUPLES, SEED),
        DbConfig::no_counts().with_k(K),
    )
    .build()
}

fn serve() -> (ServerHandle, Arc<hdsampler_model::Schema>) {
    let db = build_db();
    let schema = Arc::new(db.schema().clone());
    let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
    let handle = HttpServer::serve(ServerConfig::default(), site).expect("bind loopback");
    (handle, schema)
}

/// Fetch `per_thread` pages from each of `threads` threads; req/s.
fn served_req_per_sec(addr: &str, threads: usize, per_thread: usize) -> f64 {
    let transport = HttpTransport::new(addr.to_string());
    // Mix of probe shapes a walker issues: broad overflow, mid-tree, leaf.
    let paths = [
        "/search",
        "/search?condition=used",
        "/search?make=Toyota&condition=used",
        "/search?make=Honda",
    ];
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for i in 0..per_thread {
                    transport
                        .fetch(paths[i % paths.len()])
                        .expect("served page");
                }
            });
        }
    });
    (threads * per_thread) as f64 / start.elapsed().as_secs_f64()
}

/// Collect `SAMPLE_TARGET` samples through `iface`; (samples/s, fetches).
fn sampling_throughput<F: FormInterface>(iface: F) -> (f64, u64, Vec<u64>) {
    let exec = CachingExecutor::new(iface);
    let cfg = SamplerConfig::seeded(SEED).with_slider(0.3);
    let mut sampler = HdsSampler::new(&exec, cfg).expect("valid config");
    let start = Instant::now();
    let mut keys = Vec::with_capacity(SAMPLE_TARGET);
    for _ in 0..SAMPLE_TARGET {
        keys.push(sampler.next_sample().expect("sample").row.key);
    }
    let secs = start.elapsed().as_secs_f64();
    (SAMPLE_TARGET as f64 / secs, exec.queries_issued(), keys)
}

fn main() {
    section("EXP-S1: HTTP front door — served req/s and end-to-end samples/s");
    println!(
        "  vehicles compact, n = {N_TUPLES}, k = {K}; loopback TCP, keep-alive, \
         epoll reactor"
    );

    // Raw page service rate.
    let (server, schema) = serve();
    let addr = server.addr().to_string();
    let mut rows = Vec::new();
    let mut one_thread = 0.0;
    for threads in [1usize, 4] {
        let rps = served_req_per_sec(&addr, threads, 400);
        if threads == 1 {
            one_thread = rps;
        }
        rows.push(vec![threads.to_string(), f(rps, 0), f(rps / one_thread, 2)]);
    }
    table(&["client threads", "req/s", "vs 1 thread"], &rows);
    let after_raw = server.stats();
    assert_eq!(after_raw.responses_server_error, 0, "no 5xx under load");

    // End-to-end sampling: live TCP vs in-process function calls.
    let remote_iface = WebFormInterface::new(
        HttpTransport::new(addr.clone()),
        Arc::clone(&schema),
        K,
        false,
    );
    let (remote_sps, remote_fetches, remote_keys) = sampling_throughput(&remote_iface);

    let local_db = build_db();
    let local_iface = WebFormInterface::new(
        LocalSite::new(local_db, Arc::clone(&schema)),
        Arc::clone(&schema),
        K,
        false,
    );
    let (local_sps, local_fetches, local_keys) = sampling_throughput(&local_iface);

    assert_eq!(
        remote_keys, local_keys,
        "same seed, same responses: the served walk must equal the in-process walk"
    );
    assert_eq!(remote_fetches, local_fetches);
    assert!(!remote_keys.is_empty(), "nonzero sample count");

    table(
        &["transport", "samples/s", "fetches", "relative"],
        &[
            vec![
                "in-process".into(),
                f(local_sps, 1),
                local_fetches.to_string(),
                "1.00".into(),
            ],
            vec![
                "loopback HTTP".into(),
                f(remote_sps, 1),
                remote_fetches.to_string(),
                f(remote_sps / local_sps, 2),
            ],
        ],
    );

    let stats = server.shutdown();
    assert_eq!(stats.responses_server_error, 0);
    assert!(
        stats.connections < stats.requests,
        "keep-alive must reuse connections ({} conns, {} requests)",
        stats.connections,
        stats.requests
    );
    println!(
        "  server totals: {} requests over {} connections, {:.1} MiB out",
        stats.requests,
        stats.connections,
        stats.bytes_out as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  PASS: identical seeded walks over the real wire; {:.0} req/s raw service rate",
        one_thread
    );
}
