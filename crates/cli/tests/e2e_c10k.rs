//! C10K smoke: a real `hdsampler serve` process under the epoll reactor
//! holding ten thousand concurrent keep-alive connections, every one of
//! them doing pipelined HTTP exchanges, next to five thousand `/events`
//! watchers — each connection a slab slot, none of them a thread.
//!
//! Two processes on purpose: the server is the released binary
//! (`CARGO_BIN_EXE_hdsampler`), so the file-descriptor budget splits
//! between the halves and the test exercises the same stdout contract a
//! shell user sees. Ignored by default — it needs ~16k fds and a few
//! seconds of wall clock — and run explicitly by CI's `c10k-smoke` job
//! with `--ignored`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections to hold open. Above the 10_000 assertion floor so a few
/// dial failures under load don't flake the run, while both processes
/// stay well inside a 20k-fd rlimit.
const CONNS: usize = 10_500;

/// The CI assertion floor: what "C10K" promises.
const FLOOR: usize = 10_000;

/// `/events` watchers to hold next to the keep-alive connections; with
/// them each process stays near 16k fds, inside a 20k-fd rlimit.
const WATCHERS: usize = 5_200;

/// The assertion floor for concurrent watchers.
const WATCHER_FLOOR: usize = 5_000;

/// Dialer threads. The exchanges are loopback round trips, so a handful
/// of threads keeps the dial phase well inside the server's 5 s
/// keep-alive window even on a single-core runner.
const DIALERS: usize = 8;

/// A serve child that is killed on drop, so a failing assertion never
/// leaves an orphan listener behind.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boot `hdsampler serve --port 0` and parse the bound address from its
/// startup banner; the rest of the child's stdout is drained by a
/// background thread so the pipe can never block the server.
fn spawn_serve() -> (ServeGuard, String) {
    let child = Command::new(env!("CARGO_BIN_EXE_hdsampler"))
        .args([
            "serve",
            "--port",
            "0",
            "--n",
            "500",
            "--k",
            "50",
            "--serve-for",
            "120",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdsampler serve");
    let mut guard = ServeGuard(child);
    let stdout = guard.0.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before its banner")
            .expect("banner is utf-8");
        // "serving `vehicles-compact` (n = 500, top-50) on http://ADDR — form at /, ..."
        if let Some(rest) = line.split("on http://").nth(1) {
            break rest
                .split(" — ")
                .next()
                .expect("banner names the address")
                .to_string();
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (guard, addr)
}

fn request(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: c10k\r\nConnection: keep-alive\r\n\r\n")
}

/// One fresh-connection scrape of `/metrics`, returning the value of
/// `metric`.
fn scrape(addr: &str, metric: &str) -> f64 {
    let mut conn = TcpStream::connect(addr).expect("dial /metrics");
    conn.write_all(request("/metrics").as_bytes())
        .expect("send scrape");
    conn.write_all(b"")
        .and_then(|_| conn.flush())
        .expect("flush scrape");
    // Close our half so the body read below terminates at EOF once the
    // server finishes the response and times the connection out — but
    // the exposition arrives long before that; just bound the read.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut text = String::new();
    let mut buf = [0u8; 16 * 1024];
    while !text.contains(metric) || !text.ends_with('\n') {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) => panic!("scrape read failed: {e}"),
        }
    }
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or(&text);
    hdsampler_core::parse_exposition(body)
        .expect("exposition parses")
        .get(metric)
        .copied()
        .expect("metric present")
}

/// Dial with a couple of retries: under a 10k-connection storm the
/// listener's accept backlog can momentarily fill even on loopback.
fn dial(addr: &str) -> Option<TcpStream> {
    for attempt in 0..3 {
        match TcpStream::connect(addr) {
            Ok(s) => return Some(s),
            Err(_) => std::thread::sleep(Duration::from_millis(5 << attempt)),
        }
    }
    None
}

/// Dial `count` connections from `DIALERS` threads; `open` turns one
/// fresh socket into a held connection, or `None` to give it up.
fn dial_all(
    addr: &str,
    count: usize,
    open: impl Fn(TcpStream) -> Option<TcpStream> + Sync,
) -> Vec<TcpStream> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..DIALERS)
            .map(|d| {
                let open = &open;
                s.spawn(move || {
                    let quota = count / DIALERS + usize::from(d < count % DIALERS);
                    (0..quota)
                        .filter_map(|_| dial(addr).and_then(open))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("dialer thread"))
            .collect()
    })
}

/// Read from `conn` until `done` holds for what arrived; `false` on EOF,
/// error or timeout.
fn read_until(conn: &mut TcpStream, done: impl Fn(&str) -> bool) -> bool {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut seen = String::new();
    let mut buf = [0u8; 4096];
    while !done(&seen) {
        match conn.read(&mut buf) {
            Ok(n) if n > 0 => seen.push_str(&String::from_utf8_lossy(&buf[..n])),
            _ => return false,
        }
    }
    true
}

#[test]
#[ignore = "needs ~16k fds; run by CI's c10k-smoke job with --ignored"]
fn reactor_serve_sustains_ten_thousand_keep_alive_connections() {
    let (guard, addr) = spawn_serve();

    // Phase 1 — the storm: dial CONNS keep-alive connections, write one
    // pipelined GET on each as it lands (touching the slowloris timer),
    // and keep every socket open.
    let dial_started = Instant::now();
    let req = request("/");
    let mut held = dial_all(&addr, CONNS, |mut conn| {
        conn.write_all(req.as_bytes()).ok().map(|()| conn)
    });
    assert!(
        held.len() >= FLOOR,
        "only {} of {CONNS} dials survived",
        held.len()
    );

    // Phase 2 — rearm: a second pipelined request on every held socket
    // resets each connection's idle timer to roughly now, guaranteeing
    // all of them are still open while the scrape below runs, however
    // long phase 1 took relative to the 5 s keep-alive timeout.
    for conn in &mut held {
        conn.write_all(req.as_bytes()).expect("pipelined rearm");
    }

    // Every served request is broadcast to every watcher, so let the
    // server answer the whole backlog before the watchers arrive.
    let backlog_deadline = Instant::now() + Duration::from_secs(30);
    while scrape(&addr, "hds_server_requests_total") < (2 * held.len()) as f64 {
        assert!(
            Instant::now() < backlog_deadline,
            "the server never answered the keep-alive backlog"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Phase 3 — the watchers: each asks for `/events` and is held once
    // the stream's opening comment shows it subscribed. No request is
    // made on the keep-alive connections from here on, so the watchers
    // only see the frames the scrape and the probe below publish.
    let events = "GET /events HTTP/1.1\r\nHost: c10k\r\n\r\n";
    let mut watchers = dial_all(&addr, WATCHERS, |mut conn| {
        conn.write_all(events.as_bytes()).ok()?;
        read_until(&mut conn, |seen| seen.contains(": hds event stream")).then_some(conn)
    });
    assert!(
        watchers.len() >= WATCHER_FLOOR,
        "only {} of {WATCHERS} watchers subscribed",
        watchers.len()
    );

    // Phase 4 — the headline number, read off the server's own gauge.
    let open = scrape(&addr, "hds_server_open_connections");
    assert!(
        open >= (FLOOR + WATCHER_FLOOR) as f64,
        "server gauge reports {open} open connections with {} keep-alive and \
         {} watchers held (dial + rearm + watchers took {:?})",
        held.len(),
        watchers.len(),
        dial_started.elapsed()
    );

    // Phase 5 — the connections are live HTTP, not just parked sockets:
    // spot-check that pipelined responses actually come back in order.
    for conn in held.iter_mut().take(16) {
        assert!(
            read_until(conn, |seen| seen.matches("HTTP/1.1 200").count() >= 2),
            "server hung up a keep-alive connection"
        );
    }

    // Phase 6 — one request reaches every watcher: its `event: trace`
    // frame carries the request's trace id.
    let mut probe = TcpStream::connect(&addr).expect("dial probe");
    probe
        .write_all(b"GET / HTTP/1.1\r\nHost: c10k\r\nx-hds-trace: c10k-probe\r\n\r\n")
        .expect("send probe");
    for (i, watcher) in watchers.iter_mut().enumerate() {
        assert!(
            read_until(watcher, |seen| {
                seen.split("event: trace\n")
                    .skip(1)
                    .any(|frame| frame.contains("c10k-probe") && frame.contains("\n\n"))
            }),
            "watcher {i} never saw the probe's trace frame"
        );
    }

    // Phase 7 — none of it cost a thread: no per-watcher streaming
    // thread, no worker pool. Thread-per-connection would show 15k here.
    let tasks =
        std::fs::read_dir(format!("/proc/{}/task", guard.0.id())).expect("server process tasks");
    let names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect();
    assert!(
        !names
            .iter()
            .any(|n| n == "hds-events" || n.starts_with("hds-http-")),
        "per-connection threads in the server: {names:?}"
    );
    assert!(
        names.len() < 1_000,
        "{} threads serve {} connections",
        names.len(),
        held.len() + watchers.len()
    );
}
