//! Admission cap (`ServerConfig::max_conns`): connections past the cap
//! are answered `503 Service Unavailable` + `Retry-After` and closed,
//! while admitted connections keep working.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hdsampler_model::FormInterface;
use hdsampler_server::{HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::LocalSite;
use hdsampler_workload::figure1_db;

fn capped(max_conns: usize) -> ServerHandle {
    let db = figure1_db(2);
    let schema = Arc::new(db.schema().clone());
    let site = Arc::new(LocalSite::new(db, schema));
    HttpServer::serve(
        ServerConfig {
            max_conns,
            ..ServerConfig::default()
        },
        site,
    )
    .expect("bind loopback")
}

/// Send one keep-alive GET and read exactly its response (headers plus
/// `Content-Length` body), leaving the connection open.
fn get_keep_alive(stream: &mut TcpStream, target: &str) -> String {
    let req = format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let (head_end, body_len) = loop {
        let n = stream.read(&mut tmp).expect("read response");
        assert!(n > 0, "server closed a keep-alive connection");
        buf.extend_from_slice(&tmp[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..pos]).to_lowercase();
            let len = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .expect("content-length header");
            break (pos + 4, len);
        }
    };
    while buf.len() < head_end + body_len {
        let n = stream.read(&mut tmp).expect("read body");
        assert!(n > 0, "short body");
        buf.extend_from_slice(&tmp[..n]);
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Read to EOF (the rejection path closes the connection).
fn read_to_close(stream: &mut TcpStream) -> String {
    let mut out = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.read_to_string(&mut out).expect("read to close");
    out
}

#[test]
fn reactor_over_cap_connection_gets_503_retry_after() {
    let server = capped(1);
    let addr = server.addr();

    // First connection: admitted, serves the landing page, stays open.
    let mut held = TcpStream::connect(addr).expect("dial held");
    let page = get_keep_alive(&mut held, "/");
    assert!(
        page.starts_with("HTTP/1.1 200"),
        "admitted conn serves: {page}"
    );

    // Second connection while the first is open: turned away.
    let mut extra = TcpStream::connect(addr).expect("dial extra");
    let _ = extra.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    let reply = read_to_close(&mut extra);
    assert!(
        reply.starts_with("HTTP/1.1 503"),
        "over-cap conn rejected: {reply}"
    );
    let lower = reply.to_lowercase();
    assert!(lower.contains("retry-after:"), "advertises retry: {reply}");

    // The held connection still works after the rejection.
    let again = get_keep_alive(&mut held, "/");
    assert!(
        again.starts_with("HTTP/1.1 200"),
        "held conn lives: {again}"
    );
    drop(held);

    let stats = server.shutdown();
    assert!(stats.admission_rejects >= 1, "rejects counted: {stats:?}");
}

#[test]
fn uncapped_default_admits_concurrent_connections() {
    let server = capped(0);
    let addr = server.addr();
    let mut a = TcpStream::connect(addr).expect("dial a");
    let mut b = TcpStream::connect(addr).expect("dial b");
    assert!(get_keep_alive(&mut a, "/").starts_with("HTTP/1.1 200"));
    assert!(get_keep_alive(&mut b, "/").starts_with("HTTP/1.1 200"));
    drop((a, b));
    let stats = server.shutdown();
    assert_eq!(stats.admission_rejects, 0);
}
