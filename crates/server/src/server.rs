//! The TCP front door: binding, the per-request semantics every
//! connection shares (`handle_request`), live counters, graceful
//! shutdown — plus the built-in telemetry plane every served site gets
//! for free: `GET /metrics` (Prometheus text exposition of
//! [`ServerStats`] and an optional attached [`MetricsRegistry`]) and
//! `GET /events` (a chunked SSE stream of the server's [`EventHub`]).
//! The connection protocol itself lives in [`reactor`](crate::reactor).

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hdsampler_core::{MetricsRegistry, TraceEvent};

use crate::events::EventHub;
use crate::http::{Request, Response, DEFAULT_CHUNK_THRESHOLD};
use crate::site::SiteBehavior;

/// How a server multiplexes its connections. Kept so configurations
/// that name it still build: there is one connection engine, and no
/// code branches on this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Every connection is a [`ConnMachine`](crate::ConnMachine) resumed
    /// by epoll readiness loops, one per core: a connection — keep-alive
    /// or `/events` watcher — costs a slab slot, not a thread. Where no
    /// epoll set can be created (non-Linux hosts, or `epoll_create1`
    /// failing) a blocking thread per connection drives the same machine.
    #[default]
    Reactor,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the chosen one).
    pub addr: String,
    /// Connection multiplexing strategy; see [`ServeMode`] — nothing
    /// branches on it.
    pub mode: ServeMode,
    /// Readiness loops to run; 0 means one per available core.
    pub reactor_threads: usize,
    /// Idle time after which a keep-alive connection is closed; also the
    /// deadline for a partial request (slowloris guard) and the flush
    /// window of a closing response.
    pub keep_alive_timeout: Duration,
    /// Admission cap: connections past this many concurrently open are
    /// answered `503` + `Retry-After` and closed instead of served.
    /// `0` disables the cap.
    pub max_conns: usize,
    /// Bodies above this size are sent chunked instead of Content-Length.
    pub chunk_threshold: usize,
    /// Extra metrics appended to `/metrics` after the server's own
    /// counters — a registry handle shared with the embedding process
    /// (e.g. a sampling run's [`MetricsSink`](hdsampler_core::MetricsSink)
    /// aggregation). `None` serves [`ServerStats`] alone.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            mode: ServeMode::default(),
            reactor_threads: 0,
            keep_alive_timeout: Duration::from_secs(5),
            max_conns: 0,
            chunk_threshold: DEFAULT_CHUNK_THRESHOLD,
            metrics: None,
        }
    }
}

/// How many per-request log entries the server retains (a ring: old
/// entries fall off the front).
pub const REQUEST_LOG_CAP: usize = 1024;

/// One served request, as recorded in the server's ring log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestLogEntry {
    /// Server-wide request ordinal (1-based).
    pub seq: u64,
    /// Request target (path + query).
    pub target: String,
    /// The client's `x-hds-trace` id, empty if unstamped.
    pub trace: String,
    /// Response status written.
    pub status: u16,
}

/// Declare the server's counters once: the atomic [`StatsInner`] the
/// connection engine drives, its public copy [`ServerStats`], and the
/// snapshot between the two.
macro_rules! server_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic counters kept by a running server (plus the one
        /// gauge, `open_connections`) and its request log.
        #[derive(Debug, Default)]
        pub(crate) struct StatsInner {
            $(pub(crate) $name: AtomicU64,)*
            log: Mutex<VecDeque<RequestLogEntry>>,
        }

        /// A point-in-time copy of the server's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// Read the counters without a [`ServerHandle`] (the `/metrics`
        /// route runs inside a connection).
        fn snapshot_stats(stats: &StatsInner) -> ServerStats {
            ServerStats {
                $($name: stats.$name.load(Ordering::Relaxed),)*
            }
        }
    };
}

server_counters! {
    /// TCP connections accepted.
    connections,
    /// Requests parsed off those connections.
    requests,
    /// 2xx responses written.
    responses_ok,
    /// 4xx responses written.
    responses_client_error,
    /// 5xx responses written.
    responses_server_error,
    /// Connections severed without a response (injected drops).
    connections_dropped,
    /// Response bytes written (headers + bodies + chunk framing).
    bytes_out,
    /// Request bytes read off accepted connections.
    bytes_in,
    /// Requests for `/` (the rendered form landing page).
    requests_landing,
    /// Requests for the form action (`/search…`).
    requests_search,
    /// Requests for `/metrics`.
    requests_metrics,
    /// Requests for `/events`.
    requests_events,
    /// Requests for any other target.
    requests_other,
    /// `epoll_wait` returns across all readiness loops (0 under the
    /// blocking fallback driver).
    reactor_wakeups,
    /// Readiness events delivered by those wakeups.
    reactor_ready_events,
    /// Connections accepted by readiness loops.
    reactor_accepts,
    /// Connections turned away at the admission cap (`503` +
    /// `Retry-After`; see [`ServerConfig::max_conns`]).
    admission_rejects,
    /// Connection deadlines expired (idle close / slowloris / flush cap).
    timers_fired,
    /// Connections open right now (gauge: incremented on admission,
    /// decremented on close).
    open_connections,
}

impl StatsInner {
    fn record_request(&self, seq: u64, target: &str, trace: &str, status: u16) {
        let mut log = self.log.lock().expect("request log lock");
        if log.len() >= REQUEST_LOG_CAP {
            log.pop_front();
        }
        log.push_back(RequestLogEntry {
            seq,
            target: target.to_string(),
            trace: trace.to_string(),
            status,
        });
    }
}

/// The HTTP/1.1 server: binds a listener and serves a mounted site.
pub struct HttpServer;

/// Listen backlog sized for connection storms. `TcpListener::bind`
/// hardcodes 128, which a C10K dial burst overflows in one scheduling
/// quantum — the kernel then drops SYNs and every affected client stalls
/// a full retransmission timeout (~1 s) before the connection lands. The
/// kernel clamps this to `net.core.somaxconn`.
const ACCEPT_BACKLOG: i32 = 4096;

/// Bind a listener with [`ACCEPT_BACKLOG`]. On Linux the socket is built
/// by hand (std offers no backlog knob); elsewhere — and for any address
/// that is not plain IPv4 — this falls back to `TcpListener::bind`.
fn bind_listener(addr: &str) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        use std::net::ToSocketAddrs;
        let parsed = addr.to_socket_addrs()?.find(|a| a.is_ipv4());
        if let Some(SocketAddr::V4(v4)) = parsed {
            return listen_sys::bind_v4(v4, ACCEPT_BACKLOG);
        }
    }
    TcpListener::bind(addr)
}

/// Raw socket/bind/listen syscalls: the only way to pick a listen
/// backlog with std alone. Mirrors the FFI style of
/// [`hdsampler_webform::reactor`].
#[cfg(target_os = "linux")]
mod listen_sys {
    use std::io;
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::fd::{FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_void};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;

    /// `struct sockaddr_in`: family, then port and address in network
    /// byte order, padded to the 16 bytes `bind(2)` expects.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    pub fn bind_v4(addr: SocketAddrV4, backlog: c_int) -> io::Result<TcpListener> {
        // SAFETY: plain syscalls on an fd we own; `fd` is wrapped in
        // `OwnedFd` immediately so every error path closes it.
        unsafe {
            let raw = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            let fd = OwnedFd::from_raw_fd(raw);
            let one: c_int = 1;
            if setsockopt(
                raw,
                SOL_SOCKET,
                SO_REUSEADDR,
                &one as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            ) < 0
            {
                return Err(io::Error::last_os_error());
            }
            let sa = SockaddrIn {
                family: AF_INET as u16,
                port_be: addr.port().to_be(),
                addr_be: u32::from(*addr.ip()).to_be(),
                zero: [0; 8],
            };
            if bind(raw, &sa, std::mem::size_of::<SockaddrIn>() as u32) < 0 {
                return Err(io::Error::last_os_error());
            }
            if listen(raw, backlog) < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(TcpListener::from(fd))
        }
    }
}

impl HttpServer {
    /// Bind `cfg.addr` and serve `site` until [`ServerHandle::shutdown`].
    pub fn serve<S: SiteBehavior + 'static>(
        cfg: ServerConfig,
        site: Arc<S>,
    ) -> std::io::Result<ServerHandle> {
        let listener = bind_listener(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            site,
            stats: StatsInner::default(),
            stop: AtomicBool::new(false),
            hub: Arc::new(EventHub::new()),
            cfg,
        });
        let threads = crate::reactor::start(listener, &shared)?;
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// What every driver thread of one running server shares.
pub(crate) struct Shared {
    pub(crate) site: Arc<dyn SiteBehavior>,
    pub(crate) stats: StatsInner,
    pub(crate) stop: AtomicBool,
    pub(crate) hub: Arc<EventHub>,
    pub(crate) cfg: ServerConfig,
}

/// Handle to a running server: the bound address, live stats, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        snapshot_stats(&self.shared.stats)
    }

    /// The server's event hub. The embedding process publishes into it
    /// (e.g. via [`BridgeSink`](crate::events::BridgeSink)) and every
    /// `/events` watcher receives the stream.
    pub fn events(&self) -> Arc<EventHub> {
        Arc::clone(&self.shared.hub)
    }

    /// Snapshot of the per-request ring log (most recent
    /// [`REQUEST_LOG_CAP`]-ish entries, oldest first).
    pub fn request_log(&self) -> Vec<RequestLogEntry> {
        self.shared
            .stats
            .log
            .lock()
            .expect("request log lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Graceful shutdown: stop accepting, let every connection finish its
    /// in-flight request, close idle keep-alive connections, end every
    /// `/events` stream after the frames already published, join all
    /// threads. Returns the final stats.
    pub fn shutdown(self) -> ServerStats {
        let shared = Arc::clone(&self.shared);
        drop(self);
        snapshot_stats(&shared.stats)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The blocking fallback's acceptor blocks in `accept`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What one parsed request resolved to; the connection machine acts on
/// it.
pub(crate) enum Handled {
    /// Write this response, then keep or close the connection.
    Response {
        resp: Response,
        keep_alive: bool,
        allow_chunked: bool,
    },
    /// `/events`: the connection becomes an SSE stream.
    EventStream,
    /// Injected drop: sever without writing a byte.
    Sever,
}

/// Count, route, and answer one parsed request: the request semantics
/// (sequence counters, per-route counters, the body-bearing
/// 400-and-close anti-smuggling rule, telemetry routes, trace-id echo,
/// request log and event publication).
pub(crate) fn handle_request(req: &Request, srv: &Shared) -> Handled {
    let Shared {
        site,
        stats,
        stop,
        hub,
        cfg,
    } = srv;
    let seq = stats.requests.fetch_add(1, Ordering::Relaxed) + 1;
    let label = route_label(&req.target);
    let route_counter = match label {
        "landing" => &stats.requests_landing,
        "search" => &stats.requests_search,
        "metrics" => &stats.requests_metrics,
        "events" => &stats.requests_events,
        _ => &stats.requests_other,
    };
    route_counter.fetch_add(1, Ordering::Relaxed);
    let trace = req.header("x-hds-trace").unwrap_or("").to_string();

    // A body-bearing request would desynchronize the framing: this
    // server never reads bodies, so the unread bytes would be parsed
    // as the next request (request smuggling). Refuse AND close — a
    // keep-alive 400 here would serve the body as a request.
    let has_body = req
        .header("content-length")
        .is_some_and(|v| v.trim() != "0")
        || req.header("transfer-encoding").is_some();
    if has_body {
        return Handled::Response {
            resp: Response::text(
                400,
                "Bad Request",
                "400 request bodies are not accepted".into(),
            ),
            keep_alive: false,
            allow_chunked: false,
        };
    }

    // Chunked framing is HTTP/1.1-only; a 1.0 client gets Content-Length
    // regardless of body size.
    let keep_alive = req.wants_keep_alive() && !stop.load(Ordering::SeqCst);
    let allow_chunked = req.version == crate::http::HttpVersion::H11;

    // The telemetry plane answers before the mounted site sees the
    // request. `/events` takes over the whole connection: it streams
    // the hub until the server stops or the watcher hangs up. A
    // watcher's arrival is logged but not broadcast: n watchers dialing
    // in would otherwise cost the others n² frames.
    if req.method == "GET" && label == "events" {
        stats.responses_ok.fetch_add(1, Ordering::Relaxed);
        stats.record_request(seq, &req.target, &trace, 200);
        return Handled::EventStream;
    }
    let mut resp = if req.method == "GET" && label == "metrics" {
        Response::text(
            200,
            "OK",
            render_server_metrics(&snapshot_stats(stats), cfg.metrics.as_ref()),
        )
    } else {
        route(&**site, req)
    };
    if resp.drop_connection {
        // Injected drop: sever without writing a byte — the peer sees
        // the close as a reset/EOF mid-exchange and must classify it
        // as transient.
        stats.connections_dropped.fetch_add(1, Ordering::Relaxed);
        return Handled::Sever;
    }
    // Echo the client's span id so both sides of the wire agree on
    // the request's identity, then log and broadcast the exchange.
    if !trace.is_empty() {
        resp.extra_headers
            .push(("x-hds-trace".into(), trace.clone()));
    }
    stats.record_request(seq, &req.target, &trace, resp.status);
    publish_request_event(hub, seq, &req.target, &trace, resp.status);
    Handled::Response {
        resp,
        keep_alive,
        allow_chunked,
    }
}

/// Coarse route class of a request target (for per-route counters).
fn route_label(target: &str) -> &'static str {
    let path = target.split('?').next().unwrap_or("");
    match path {
        "/" => "landing",
        "/metrics" => "metrics",
        "/events" => "events",
        p if p.starts_with("/search") => "search",
        _ => "other",
    }
}

/// Broadcast one served request as a `kind: "request"` trace event.
fn publish_request_event(hub: &EventHub, seq: u64, target: &str, trace: &str, status: u16) {
    if hub.subscribers() == 0 {
        return;
    }
    hub.publish_trace(&TraceEvent {
        kind: "request".into(),
        detail: target.into(),
        tag: trace.into(),
        seq,
        code: u64::from(status),
        ..TraceEvent::default()
    });
}

/// Render [`ServerStats`] (and an optional attached registry) in
/// Prometheus text exposition format — the `GET /metrics` body. Every
/// line parses back through
/// [`parse_exposition`](hdsampler_core::parse_exposition).
pub fn render_server_metrics(stats: &ServerStats, registry: Option<&MetricsRegistry>) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, value: u64| {
        out.push_str(&format!(
            "# TYPE {} counter\n{name} {value}\n",
            name.split('{').next().unwrap_or(name)
        ));
    };
    counter("hds_server_connections_total", stats.connections);
    counter("hds_server_requests_total", stats.requests);
    counter(
        "hds_server_connections_dropped_total",
        stats.connections_dropped,
    );
    counter("hds_server_bytes_out_total", stats.bytes_out);
    counter("hds_server_bytes_in_total", stats.bytes_in);
    counter("hds_server_reactor_wakeups_total", stats.reactor_wakeups);
    counter(
        "hds_server_reactor_ready_events_total",
        stats.reactor_ready_events,
    );
    counter("hds_server_reactor_accepts_total", stats.reactor_accepts);
    counter(
        "hds_server_admission_rejects_total",
        stats.admission_rejects,
    );
    counter("hds_server_timers_fired_total", stats.timers_fired);
    out.push_str(&format!(
        "# TYPE hds_server_open_connections gauge\nhds_server_open_connections {}\n",
        stats.open_connections
    ));
    out.push_str("# TYPE hds_server_responses_total counter\n");
    out.push_str(&format!(
        "hds_server_responses_total{{class=\"ok\"}} {}\n",
        stats.responses_ok
    ));
    out.push_str(&format!(
        "hds_server_responses_total{{class=\"client_error\"}} {}\n",
        stats.responses_client_error
    ));
    out.push_str(&format!(
        "hds_server_responses_total{{class=\"server_error\"}} {}\n",
        stats.responses_server_error
    ));
    out.push_str("# TYPE hds_server_route_requests_total counter\n");
    for (route, value) in [
        ("events", stats.requests_events),
        ("landing", stats.requests_landing),
        ("metrics", stats.requests_metrics),
        ("other", stats.requests_other),
        ("search", stats.requests_search),
    ] {
        out.push_str(&format!(
            "hds_server_route_requests_total{{route=\"{route}\"}} {value}\n"
        ));
    }
    if let Some(registry) = registry {
        out.push_str(&registry.render());
    }
    out
}

/// Method gate in front of the site.
fn route(site: &dyn SiteBehavior, req: &Request) -> Response {
    if req.method != "GET" {
        let mut resp = Response::text(
            405,
            "Method Not Allowed",
            format!("405 method `{}` not allowed (GET only)", req.method),
        );
        resp.extra_headers.push(("Allow".into(), "GET".into()));
        return resp;
    }
    site.get(&req.target)
}
