//! Defects of the program that the benchmark ran into. Each test here
//! fails until the defect is fixed; the benchmark's workloads are shaped
//! around them, as `perfbench/README.md` records.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsampler_model::FormInterface;
use hdsampler_server::{HttpServer, ServeMode, ServerConfig};
use hdsampler_webform::{AsyncTransport, HttpTransport, LocalSite};
use hdsampler_workload::{resolve_dataset, DbConfig, WorkloadSpec};

/// A reactor slab slot starts every new connection at generation 0, so a
/// keep-alive timer left behind by the slot's previous connection fires
/// against the new one once their generations meet, and closes it while
/// its own idle deadline is still ahead. Loopback rounds that reconnect
/// to one server for longer than the keep-alive timeout lose connections
/// this way (`write failed: Broken pipe` mid-round), so the `loopback`
/// workload sets a keep-alive timeout longer than its run.
#[test]
fn a_reconnected_client_keeps_its_keep_alive_window() {
    let db = WorkloadSpec {
        data: resolve_dataset("vehicles-compact")
            .expect("registry dataset")
            .data_spec(200, 1),
        db: DbConfig::no_counts().with_k(20),
        seed: 1,
    }
    .build();
    let schema = Arc::new(db.schema().clone());
    let cfg = ServerConfig {
        mode: ServeMode::Reactor,
        reactor_threads: 1,
        keep_alive_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = HttpServer::serve(cfg, Arc::new(LocalSite::new(db, schema))).expect("bind");
    let wire = HttpTransport::new(server.addr().to_string());
    let fetch = |conn| {
        let h = wire.submit(conn, "/");
        wire.complete(h)
    };

    // Connection A answers three requests, then the client closes it.
    let a = wire.connect();
    for _ in 0..3 {
        fetch(a).expect("connection A is served");
    }
    let a_done = Instant::now();
    wire.close_idle();

    // Connection B takes A's slot a second later and answers three
    // requests too: its idle deadline is about 3 s after A's last answer.
    std::thread::sleep(Duration::from_secs(1));
    let b = wire.connect();
    for _ in 0..3 {
        fetch(b).expect("connection B is served");
    }

    // A's stale timer fires 2 s after A's last answer. Half a second
    // later B is still inside its own keep-alive window.
    std::thread::sleep(
        (a_done + Duration::from_millis(2_500)).saturating_duration_since(Instant::now()),
    );
    let result = fetch(b);
    server.shutdown();
    assert!(
        result.is_ok(),
        "the server closed a connection inside its keep-alive window: {result:?}"
    );
}
