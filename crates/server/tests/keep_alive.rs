//! Keep-alive deadlines belong to the connection, not to its slab slot:
//! a connection that reuses a closed connection's slot keeps its own
//! idle window, whatever deadline the slot's previous tenant left behind.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsampler_model::FormInterface;
use hdsampler_server::{HttpServer, ServerConfig};
use hdsampler_webform::LocalSite;
use hdsampler_workload::figure1_db;

/// One keep-alive GET of `/`; `Err` when the server hung up instead of
/// answering.
fn fetch(stream: &mut TcpStream) -> Result<String, String> {
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n")
        .map_err(|e| format!("write failed: {e}"))?;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        let n = stream
            .read(&mut tmp)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".into());
        }
        buf.extend_from_slice(&tmp[..n]);
        let text = String::from_utf8_lossy(&buf).into_owned();
        let Some((head, body)) = text.split_once("\r\n\r\n") else {
            continue;
        };
        let len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(|v| v.trim().to_string())
            })
            .and_then(|v| v.parse().ok())
            .expect("content-length header");
        if body.len() >= len {
            return Ok(text);
        }
    }
}

#[test]
fn a_reused_slot_keeps_the_new_connections_keep_alive_window() {
    let keep_alive = Duration::from_millis(1_000);
    let db = figure1_db(2);
    let schema = Arc::new(db.schema().clone());
    let server = HttpServer::serve(
        ServerConfig {
            // One loop, so connection B lands in A's freed slot.
            reactor_threads: 1,
            keep_alive_timeout: keep_alive,
            ..ServerConfig::default()
        },
        Arc::new(LocalSite::new(db, schema)),
    )
    .expect("bind loopback");

    // Connection A answers three requests, then the client closes it.
    let mut a = TcpStream::connect(server.addr()).expect("dial A");
    for _ in 0..3 {
        fetch(&mut a).expect("connection A is served");
    }
    let a_done = Instant::now();
    drop(a);

    // Connection B takes A's slot half a window later and answers three
    // requests too: its idle deadline is about 1.5 windows after A's
    // last answer.
    std::thread::sleep(keep_alive / 2);
    let mut b = TcpStream::connect(server.addr()).expect("dial B");
    for _ in 0..3 {
        fetch(&mut b).expect("connection B is served");
    }

    // A quarter window after A's deadline, B is still inside its own.
    std::thread::sleep((a_done + keep_alive * 5 / 4).saturating_duration_since(Instant::now()));
    let result = fetch(&mut b);
    let stats = server.shutdown();
    assert!(
        result.is_ok(),
        "the server closed a connection inside its keep-alive window: {result:?}"
    );
    assert_eq!(stats.connections, 2);
}
