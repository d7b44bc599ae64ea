//! The server's one connection engine. [`ConnMachine`] is the only
//! implementation of the HTTP/1.1 connection protocol: the request
//! buffer, parsing, the call into the shared request semantics, the
//! response queue, the keep-alive/slowloris deadline, close-after-flush
//! and `/events` streaming — a resumable state machine, the server-side
//! mirror of the client's `WalkMachine` trick (state machines instead of
//! stacks). Two thin I/O drivers resume it and decide nothing
//! themselves:
//!
//! * the epoll readiness loop, one per core over
//!   [`Epoll`](hdsampler_webform::reactor::Epoll) — the only driver on
//!   Linux. A connection, keep-alive or `/events` watcher alike, costs
//!   one slab slot (a few KiB) instead of a stack, so one process holds
//!   10k+ of them. Short writes park the residual output in the machine
//!   and resume on the next writable event; watchers are pumped on every
//!   wakeup, which the wait caps at `IDLE_POLL` (100 ms);
//! * a blocking thread-per-connection driver, used only where no epoll
//!   set can be created (non-Linux hosts, or `epoll_create1` failing).
//!   Its reads time out every `IDLE_POLL`, so it observes deadlines,
//!   `/events` frames and the stop flag on the same tick.
//!
//! Both drivers admit connections through one `admit` helper.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{parse_request, write_response, Response};
use crate::server::{handle_request, Handled, Shared, StatsInner};

/// The longest a driver waits before re-checking the stop flag,
/// deadlines and `/events` subscriptions: the readiness loops' maximum
/// sleep, and the blocking driver's read and write timeout.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long an `/events` stream may stay quiet before it carries a
/// heartbeat comment (keeps dead watchers detectable and the stream
/// warm).
const HEARTBEAT: Duration = Duration::from_millis(2_500);

/// Response head of an `/events` stream.
const EVENTS_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
    Cache-Control: no-cache\r\nConnection: close\r\n\
    Transfer-Encoding: chunked\r\n\r\n";

/// One connection's resumable serve state: accumulated request bytes in,
/// queued response bytes out, its deadline, and — once it asked for
/// `/events` — its subscription to the server's event hub.
///
/// The output half is I/O-agnostic — [`write_some`](ConnMachine::write_some)
/// takes any [`Write`] — so tests can drive it through writers that
/// inject `WouldBlock` at arbitrary chunk boundaries and assert the
/// reassembled byte stream is identical to a blocking write.
#[derive(Debug, Default)]
pub struct ConnMachine {
    /// Unparsed request bytes read so far.
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
    /// When the idle keep-alive wait, the wait for the rest of a partial
    /// request, or the flush window of a closing response ends. `None`
    /// for `/events` streams, which end only at shutdown or hang-up.
    deadline: Option<Instant>,
    /// The peer half-closed.
    eof: bool,
    /// The `/events` subscription, while the connection streams.
    watch: Option<Watch>,
}

/// An `/events` stream's subscription.
#[derive(Debug)]
struct Watch {
    rx: Receiver<String>,
    /// When the stream last carried a frame or heartbeat.
    quiet_since: Instant,
}

/// Outcome of one [`ConnMachine::write_some`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every queued byte is on the wire.
    Done,
    /// The writer would block; residual bytes stay queued for the next
    /// writable event.
    Blocked,
}

/// What a driver does with a connection after resuming its machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Open,
    Close,
}

impl ConnMachine {
    /// A fresh machine with nothing buffered and no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A machine for a just-admitted connection: its first request must
    /// arrive within the keep-alive timeout.
    pub(crate) fn accepted(srv: &Shared) -> Self {
        ConnMachine {
            deadline: Some(Instant::now() + srv.cfg.keep_alive_timeout),
            ..Self::default()
        }
    }

    /// Serialize `resp` onto the output queue with `write_response`, and
    /// arm close-after-flush when the exchange ends the connection.
    /// Returns the number of bytes queued.
    pub fn queue_response(
        &mut self,
        resp: &Response,
        keep_alive: bool,
        allow_chunked: bool,
        chunk_threshold: usize,
    ) -> usize {
        let threshold = if allow_chunked {
            chunk_threshold
        } else {
            usize::MAX
        };
        let before = self.out.len();
        write_response(&mut self.out, resp, keep_alive, threshold)
            .expect("writing into a Vec cannot fail");
        if !keep_alive {
            self.close_after_flush = true;
        }
        self.out.len() - before
    }

    /// Push queued output into `w` until done or it would block.
    /// `Interrupted` writes are retried; `Ok(0)` is an error (the peer
    /// cannot accept bytes but did not signal `WouldBlock`).
    pub fn write_some(&mut self, w: &mut impl Write) -> io::Result<WriteProgress> {
        while self.out_pos < self.out.len() {
            match w.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(WriteProgress::Blocked),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(WriteProgress::Done)
    }

    /// Whether response bytes are still queued for the wire.
    pub fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether the connection should close once the output drains.
    pub fn close_after_flush(&self) -> bool {
        self.close_after_flush
    }

    /// When [`expire`](Self::expire) is due; `None` while streaming.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the connection is an `/events` stream.
    #[cfg(target_os = "linux")]
    pub(crate) fn watching(&self) -> bool {
        self.watch.is_some()
    }

    /// Whether a stopping server may close the connection now: no
    /// partial request, nothing unflushed, no stream left to terminate.
    pub(crate) fn quiet(&self) -> bool {
        self.buf.is_empty() && !self.has_pending_out() && self.watch.is_none()
    }

    /// Resume the connection: finish an interrupted write, read what the
    /// peer sent (when `readable`), answer every complete request
    /// (pipelining), pump `/events` frames, and flush.
    pub(crate) fn advance(
        &mut self,
        io: &mut (impl Read + Write),
        readable: bool,
        srv: &Shared,
    ) -> Step {
        if self.has_pending_out() && self.write_some(io).is_err() {
            return Step::Close;
        }
        if readable && !self.eof && !self.read_some(io, &srv.stats) {
            return Step::Close;
        }
        while self.watch.is_none() && !self.close_after_flush {
            match parse_request(&self.buf) {
                Ok(None) => break,
                Ok(Some((req, consumed))) => {
                    self.buf.drain(..consumed);
                    match handle_request(&req, srv) {
                        Handled::Response {
                            resp,
                            keep_alive,
                            allow_chunked,
                        } => {
                            self.respond(&resp, keep_alive, allow_chunked, srv);
                            // The idle clock restarts once a request is
                            // answered (for a closing response: the
                            // flush window).
                            self.deadline = Some(Instant::now() + srv.cfg.keep_alive_timeout);
                        }
                        Handled::EventStream => self.start_stream(srv),
                        Handled::Sever => return Step::Close,
                    }
                }
                Err(e) => {
                    let (status, reason) = e.status();
                    let resp = Response::text(status, reason, format!("{status} {e}"));
                    self.respond(&resp, false, false, srv);
                }
            }
        }
        self.pump(srv);
        self.flush(io)
    }

    /// The deadline passed: close an idle connection, or one whose flush
    /// window ran out; answer a partial request `408` (slowloris) and
    /// give that response one more window to flush.
    pub(crate) fn expire(&mut self, io: &mut impl Write, srv: &Shared) -> Step {
        srv.stats.timers_fired.fetch_add(1, Ordering::Relaxed);
        if self.close_after_flush || self.buf.is_empty() {
            return Step::Close;
        }
        let resp = Response::text(408, "Request Timeout", "408 request timeout".into());
        self.respond(&resp, false, false, srv);
        self.deadline = Some(Instant::now() + srv.cfg.keep_alive_timeout);
        self.flush(io)
    }

    /// Queue `resp` and count it (status class, bytes out).
    fn respond(&mut self, resp: &Response, keep_alive: bool, allow_chunked: bool, srv: &Shared) {
        let stats = &srv.stats;
        let counter = match resp.status {
            200..=299 => &stats.responses_ok,
            400..=499 => &stats.responses_client_error,
            _ => &stats.responses_server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let queued = self.queue_response(resp, keep_alive, allow_chunked, srv.cfg.chunk_threshold);
        stats.bytes_out.fetch_add(queued as u64, Ordering::Relaxed);
    }

    /// Read what the peer has sent without waiting for more; `false` when
    /// the connection failed.
    fn read_some(&mut self, io: &mut impl Read, stats: &StatsInner) -> bool {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match io.read(&mut tmp) {
                Ok(0) => {
                    self.eof = true;
                    return true;
                }
                Ok(n) => {
                    stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    // A watcher has no more requests to make; what it
                    // sends is dropped.
                    if self.watch.is_none() {
                        self.buf.extend_from_slice(&tmp[..n]);
                    }
                    // A short read emptied the socket: stop before a read
                    // that could only block.
                    if n < tmp.len() {
                        return true;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return true
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Turn the connection into an `/events` stream.
    fn start_stream(&mut self, srv: &Shared) {
        self.out.extend_from_slice(EVENTS_HEAD);
        let mut queued = EVENTS_HEAD.len();
        self.watch = Some(Watch {
            rx: srv.hub.subscribe(),
            quiet_since: Instant::now(),
        });
        // An opening comment flushes the headers through any buffering
        // and tells the watcher the stream is live.
        queued += chunk(&mut self.out, ": hds event stream\n\n");
        srv.stats
            .bytes_out
            .fetch_add(queued as u64, Ordering::Relaxed);
        self.buf.clear();
        self.deadline = None;
    }

    /// Move published frames onto an `/events` stream's output queue,
    /// with a heartbeat after [`HEARTBEAT`] of quiet. Once the server
    /// stops, the stream carries every frame published before the stop,
    /// then the terminal chunk.
    fn pump(&mut self, srv: &Shared) {
        let Some(watch) = &mut self.watch else { return };
        // Read the flag before draining: every frame published before the
        // stop is then already in the channel.
        let mut ended = srv.stop.load(Ordering::SeqCst);
        let now = Instant::now();
        let mut queued = 0;
        loop {
            match watch.rx.try_recv() {
                Ok(frame) => {
                    queued += chunk(&mut self.out, &frame);
                    watch.quiet_since = now;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    ended = true;
                    break;
                }
            }
        }
        if ended {
            self.out.extend_from_slice(b"0\r\n\r\n");
            queued += 5;
            self.close_after_flush = true;
            self.watch = None;
        } else if now.duration_since(watch.quiet_since) >= HEARTBEAT {
            queued += chunk(&mut self.out, ": hb\n\n");
            watch.quiet_since = now;
        }
        srv.stats
            .bytes_out
            .fetch_add(queued as u64, Ordering::Relaxed);
    }

    /// Write what is queued; close once a closing exchange (or a
    /// half-closed peer's last answer) is fully on the wire.
    fn flush(&mut self, io: &mut impl Write) -> Step {
        match self.write_some(io) {
            Ok(WriteProgress::Done) if self.close_after_flush || self.eof => Step::Close,
            Ok(_) => Step::Open,
            Err(_) => Step::Close,
        }
    }
}

/// Append one chunked-transfer chunk carrying `text`; returns its framed
/// size in bytes.
fn chunk(out: &mut Vec<u8>, text: &str) -> usize {
    let before = out.len();
    write!(out, "{:X}\r\n{text}\r\n", text.len()).expect("writing into a Vec cannot fail");
    out.len() - before
}

/// Admission, shared by both drivers: count the accepted connection and,
/// with `max_conns` already open, answer `503` + `Retry-After` on the
/// (still blocking) socket and close it. Returns the stream when it is
/// admitted, counted in the open-connection gauge.
fn admit(stream: TcpStream, srv: &Shared) -> Option<TcpStream> {
    let stats = &srv.stats;
    stats.connections.fetch_add(1, Ordering::Relaxed);
    let cap = srv.cfg.max_conns as u64;
    if cap == 0 || stats.open_connections.load(Ordering::Relaxed) < cap {
        stats.open_connections.fetch_add(1, Ordering::Relaxed);
        return Some(stream);
    }
    stats.admission_rejects.fetch_add(1, Ordering::Relaxed);
    let mut resp = Response::text(503, "Service Unavailable", "503 server at capacity".into());
    resp.extra_headers.push(("Retry-After".into(), "1".into()));
    let mut machine = ConnMachine::new();
    machine.respond(&resp, false, false, srv);
    let mut stream = stream;
    let _ = machine.write_some(&mut stream);
    lingering_close(stream);
    None
}

/// Close a rejected connection without risking an RST: half-close the
/// write side first, then drain whatever request bytes the peer already
/// sent (briefly), so the kernel never discards our in-flight response
/// over unread input.
fn lingering_close(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut tmp = [0u8; 1024];
    while matches!(stream.read(&mut tmp), Ok(n) if n > 0) {}
}

/// Start serving `listener`: epoll readiness loops (one per core, or
/// `reactor_threads`) when every loop's epoll set can be created, the
/// blocking driver otherwise. Returns the threads to join at shutdown.
pub(crate) fn start(listener: TcpListener, srv: &Arc<Shared>) -> io::Result<Vec<JoinHandle<()>>> {
    #[cfg(target_os = "linux")]
    if let Ok(loops) = epoll::prepare(&listener, srv) {
        return epoll::spawn(loops, srv);
    }
    listener.set_nonblocking(false)?;
    let srv = Arc::clone(srv);
    let acceptor = std::thread::Builder::new()
        .name("hds-accept".into())
        .spawn(move || serve_blocking(listener, &srv))?;
    Ok(vec![acceptor])
}

/// The blocking fallback driver's acceptor: one thread per admitted
/// connection, all joined before it returns.
fn serve_blocking(listener: TcpListener, srv: &Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        // Checked after the accept: `ServerHandle::shutdown` stores the
        // stop flag and then dials a wake-up connection, which must not
        // be counted or served.
        if srv.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let Some(stream) = admit(stream, srv) else {
            continue;
        };
        conns.retain(|h| !h.is_finished());
        let conn_srv = Arc::clone(srv);
        let spawned = std::thread::Builder::new()
            .name("hds-conn".into())
            .spawn(move || drive_blocking(stream, &conn_srv));
        match spawned {
            Ok(handle) => conns.push(handle),
            Err(_) => {
                srv.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// Drive one connection's machine with blocking I/O until it closes.
fn drive_blocking(mut stream: TcpStream, srv: &Shared) {
    let ready = stream
        .set_read_timeout(Some(IDLE_POLL))
        .and_then(|()| stream.set_write_timeout(Some(IDLE_POLL)));
    if ready.is_ok() {
        let _ = stream.set_nodelay(true);
        let mut machine = ConnMachine::accepted(srv);
        while machine.advance(&mut stream, true, srv) == Step::Open {
            if srv.stop.load(Ordering::SeqCst) && machine.quiet() {
                break;
            }
            let due = machine.deadline().is_some_and(|d| Instant::now() >= d);
            if due && machine.expire(&mut stream, srv) == Step::Close {
                break;
            }
        }
    }
    srv.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
}

/// The epoll driver: per-core readiness loops over a connection slab.
#[cfg(target_os = "linux")]
mod epoll {
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};
    use std::io::{self, ErrorKind};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use hdsampler_webform::reactor::{Epoll, Interest, ReadyEvent};

    use super::{admit, ConnMachine, Step, IDLE_POLL};
    use crate::server::Shared;

    /// The reserved epoll token for the listener; slot `ix` is token
    /// `ix + 1`.
    const LISTENER_TOKEN: u64 = 0;

    /// Create every loop's epoll set, each with the listener registered,
    /// before any loop runs: a host that cannot create them gets the
    /// blocking driver instead of loops that silently never serve.
    pub(super) fn prepare(
        listener: &TcpListener,
        srv: &Shared,
    ) -> io::Result<Vec<(Epoll, TcpListener)>> {
        let loops = match srv.cfg.reactor_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        listener.set_nonblocking(true)?;
        (0..loops)
            .map(|_| {
                let ep = Epoll::new()?;
                // Every loop shares the listener's file description: the
                // kernel wakes all of them on a pending accept
                // (level-triggered) and the losers harvest `WouldBlock`.
                let listener = listener.try_clone()?;
                ep.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)?;
                Ok((ep, listener))
            })
            .collect()
    }

    pub(super) fn spawn(
        loops: Vec<(Epoll, TcpListener)>,
        srv: &Arc<Shared>,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        loops
            .into_iter()
            .enumerate()
            .map(|(i, (ep, listener))| {
                let srv = Arc::clone(srv);
                std::thread::Builder::new()
                    .name(format!("hds-reactor-{i}"))
                    .spawn(move || {
                        let state = Loop {
                            ep,
                            srv: &srv,
                            slots: Vec::new(),
                            timed: Vec::new(),
                            free: Vec::new(),
                            timers: BinaryHeap::new(),
                            watchers: BTreeSet::new(),
                        };
                        state.run(&listener)
                    })
            })
            .collect()
    }

    struct Conn {
        stream: TcpStream,
        machine: ConnMachine,
        /// Interest currently registered with the epoll set.
        interest: Interest,
    }

    /// One readiness loop's state.
    struct Loop<'a> {
        ep: Epoll,
        srv: &'a Shared,
        /// Connection slab; a slot is empty exactly when it is on `free`.
        slots: Vec<Option<Conn>>,
        /// Whether the timer heap holds slot `ix`'s entry. The flag
        /// outlives the slot's connection, so a reused slot inherits the
        /// entry instead of adding a second one.
        timed: Vec<bool>,
        free: Vec<usize>,
        /// Min-heap of (deadline when pushed, slot). The machine's own
        /// deadline is the truth: an entry that pops early is pushed
        /// again at the machine's current deadline.
        timers: BinaryHeap<Reverse<(Instant, usize)>>,
        /// Slots streaming `/events`, pumped on every wakeup.
        watchers: BTreeSet<usize>,
    }

    impl Loop<'_> {
        fn run(mut self, listener: &TcpListener) {
            let srv = self.srv;
            let mut events: Vec<ReadyEvent> = Vec::new();
            let mut grace: Option<Instant> = None;
            loop {
                if grace.is_none() && srv.stop.load(Ordering::SeqCst) {
                    grace = Some(Instant::now() + srv.cfg.keep_alive_timeout);
                    let _ = self.ep.deregister(listener.as_raw_fd());
                    // Quiet connections close now; the rest finish their
                    // in-flight exchange, and watchers their stream.
                    for ix in 0..self.slots.len() {
                        if self.slots[ix].as_ref().is_some_and(|c| c.machine.quiet()) {
                            self.close(ix);
                        }
                    }
                }
                if let Some(grace) = grace {
                    if self.slots.len() == self.free.len() || Instant::now() >= grace {
                        for ix in 0..self.slots.len() {
                            self.close(ix);
                        }
                        return;
                    }
                }

                let mut timeout = IDLE_POLL;
                if let Some(Reverse((at, _))) = self.timers.peek() {
                    timeout = timeout.min(at.saturating_duration_since(Instant::now()));
                }
                // Round sub-millisecond waits *up*: epoll's granularity is
                // 1 ms, and truncating to 0 turns the last millisecond
                // before every pending deadline into a busy poll.
                // Deadlines only need to fire eventually, never early.
                let timeout_ms = if timeout.is_zero() {
                    0
                } else {
                    timeout.as_millis().max(1) as i32
                };
                let n = self.ep.wait(&mut events, timeout_ms).unwrap_or(0);
                let stats = &srv.stats;
                stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
                stats
                    .reactor_ready_events
                    .fetch_add(n as u64, Ordering::Relaxed);

                for ev in &events {
                    if ev.token == LISTENER_TOKEN {
                        if grace.is_none() {
                            self.accept(listener);
                        }
                    } else {
                        self.resume((ev.token - 1) as usize, ev.readable);
                    }
                }
                if !self.watchers.is_empty() {
                    let watchers: Vec<usize> = self.watchers.iter().copied().collect();
                    for ix in watchers {
                        self.resume(ix, false);
                    }
                }
                self.fire_timers();
            }
        }

        fn accept(&mut self, listener: &TcpListener) {
            loop {
                // Re-checked per accept: `ServerHandle::shutdown` stores
                // the stop flag and then dials a wake-up connection, which
                // (like anything racing it) must not be counted or served.
                if self.srv.stop.load(Ordering::SeqCst) {
                    return;
                }
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Transient accept failure (e.g. fd exhaustion):
                        // back off one tick instead of spinning on the
                        // level-triggered listener readiness.
                        std::thread::sleep(Duration::from_millis(10));
                        return;
                    }
                };
                let srv = self.srv;
                let Some(stream) = admit(stream, srv) else {
                    continue;
                };
                let stats = &srv.stats;
                let ix = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    self.timed.push(false);
                    self.slots.len() - 1
                });
                let registered = stream.set_nonblocking(true).and_then(|()| {
                    self.ep
                        .register(stream.as_raw_fd(), ix as u64 + 1, Interest::Read)
                });
                if registered.is_err() {
                    self.free.push(ix);
                    stats.open_connections.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                stats.reactor_accepts.fetch_add(1, Ordering::Relaxed);
                self.slots[ix] = Some(Conn {
                    stream,
                    machine: ConnMachine::accepted(srv),
                    interest: Interest::Read,
                });
                self.settle(ix, Step::Open);
            }
        }

        /// Resume slot `ix` on a readiness event or a watcher pump.
        fn resume(&mut self, ix: usize, readable: bool) {
            let Some(conn) = self.slots.get_mut(ix).and_then(Option::as_mut) else {
                return;
            };
            let step = conn.machine.advance(&mut conn.stream, readable, self.srv);
            self.settle(ix, step);
        }

        /// Act on a machine's step: close, or bring the slot's timer
        /// entry, watcher membership and epoll interest in line with it.
        fn settle(&mut self, ix: usize, step: Step) {
            if step == Step::Close {
                self.close(ix);
                return;
            }
            let Some(conn) = self.slots[ix].as_mut() else {
                return;
            };
            if let Some(at) = conn.machine.deadline() {
                if !self.timed[ix] {
                    self.timers.push(Reverse((at, ix)));
                    self.timed[ix] = true;
                }
            }
            if conn.machine.watching() {
                self.watchers.insert(ix);
            }
            let interest = if conn.machine.has_pending_out() {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            if interest != conn.interest {
                // The token is positional and unchanged; only the mask
                // moves.
                let _ = self
                    .ep
                    .modify(conn.stream.as_raw_fd(), ix as u64 + 1, interest);
                conn.interest = interest;
            }
        }

        /// Expire every slot whose deadline has passed.
        fn fire_timers(&mut self) {
            let now = Instant::now();
            while let Some(&Reverse((at, ix))) = self.timers.peek() {
                if at > now {
                    break;
                }
                self.timers.pop();
                self.timed[ix] = false;
                let Some(conn) = self.slots[ix].as_mut() else {
                    continue;
                };
                match conn.machine.deadline() {
                    // Streams have no deadline.
                    None => {}
                    // The deadline moved on since this entry was pushed.
                    Some(deadline) if deadline > now => self.settle(ix, Step::Open),
                    Some(_) => {
                        let step = conn.machine.expire(&mut conn.stream, self.srv);
                        self.settle(ix, step);
                    }
                }
            }
        }

        fn close(&mut self, ix: usize) {
            if let Some(conn) = self.slots[ix].take() {
                // Deregister before the stream drops (and its fd closes):
                // see `Epoll::deregister` on fd-number reuse.
                let _ = self.ep.deregister(conn.stream.as_raw_fd());
                self.free.push(ix);
                self.watchers.remove(&ix);
                self.srv
                    .stats
                    .open_connections
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_and_drain_round_trips() {
        let resp = Response::text(200, "OK", "hello".into());
        let mut machine = ConnMachine::new();
        let queued = machine.queue_response(&resp, true, true, 1024);
        assert!(queued > 0);
        assert!(machine.has_pending_out());
        let mut sink = Vec::new();
        assert_eq!(machine.write_some(&mut sink).unwrap(), WriteProgress::Done);
        assert_eq!(sink.len(), queued);
        assert!(!machine.has_pending_out());
        assert!(!machine.close_after_flush());

        // The queued bytes are exactly what `write_response` produces.
        let mut direct = Vec::new();
        write_response(&mut direct, &resp, true, 1024).unwrap();
        assert_eq!(sink, direct);
    }

    #[test]
    fn close_response_arms_close_after_flush() {
        let resp = Response::text(400, "Bad Request", "nope".into());
        let mut machine = ConnMachine::new();
        machine.queue_response(&resp, false, false, 1024);
        assert!(machine.close_after_flush());
    }
}

/// Both drivers over loopback; the epoll driver only exists on Linux.
#[cfg(all(test, target_os = "linux"))]
mod driver_tests {
    use super::*;

    /// Serves `/big` with a 200-byte body (past the scripted 64-byte
    /// chunk threshold) and a short page for anything else.
    struct Pages;

    impl crate::site::SiteBehavior for Pages {
        fn get(&self, target: &str) -> Response {
            match target {
                "/big" => Response::html(200, "OK", "x".repeat(200)),
                _ => Response::html(200, "OK", format!("page {target}")),
            }
        }
    }

    /// Read until `done` holds for what arrived, or to EOF.
    fn read_until(stream: &mut TcpStream, done: impl Fn(&str) -> bool) -> String {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut text = String::new();
        let mut tmp = [0u8; 4096];
        while !done(&text) {
            match stream.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => text.push_str(&String::from_utf8_lossy(&tmp[..n])),
                Err(e) => panic!("read failed: {e}"),
            }
        }
        text
    }

    /// Run one scripted exchange against a server whose driver threads
    /// `spawn` starts; returns what each connection received.
    fn scripted_exchange(
        spawn: impl FnOnce(TcpListener, &Arc<Shared>) -> Vec<JoinHandle<()>>,
    ) -> Vec<String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = Arc::new(Shared {
            site: Arc::new(Pages),
            stats: StatsInner::default(),
            stop: std::sync::atomic::AtomicBool::new(false),
            hub: Arc::new(crate::events::EventHub::new()),
            cfg: crate::server::ServerConfig {
                reactor_threads: 1,
                keep_alive_timeout: Duration::from_millis(300),
                chunk_threshold: 64,
                ..Default::default()
            },
        });
        let threads = spawn(listener, &srv);
        let exchange = |request: &[u8]| {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(request).unwrap();
            read_until(&mut conn, |_| false)
        };
        let mut transcripts = vec![
            // Pipelined GETs, then a body-bearing request: 400 and close.
            exchange(
                b"GET /a HTTP/1.1\r\n\r\nGET /big HTTP/1.1\r\n\r\n\
                  GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello\
                  GET /a HTTP/1.1\r\n\r\n",
            ),
            // HTTP/1.0 never gets chunked framing.
            exchange(b"GET /big HTTP/1.0\r\n\r\n"),
            // A partial request sits past the deadline: 408.
            exchange(b"GET /a HT"),
        ];

        // `/events`: a heartbeat after the quiet period, then every frame
        // published before the stop, then the terminal chunk.
        let mut watcher = TcpStream::connect(addr).unwrap();
        watcher.write_all(b"GET /events HTTP/1.1\r\n\r\n").unwrap();
        let mut stream = read_until(&mut watcher, |t| t.contains(": hb"));
        srv.hub.publish_frame("note", "one");
        srv.hub.publish_frame("note", "two");
        srv.stop.store(true, Ordering::SeqCst);
        // The blocking acceptor waits in `accept`: wake it.
        let _ = TcpStream::connect(addr);
        stream.push_str(&read_until(&mut watcher, |_| false));
        transcripts.push(stream);

        for handle in threads {
            handle.join().unwrap();
        }
        assert_eq!(srv.stats.open_connections.load(Ordering::Relaxed), 0);
        transcripts
    }

    #[test]
    fn blocking_and_epoll_drivers_serve_identical_bytes() {
        let blocking = std::thread::spawn(|| {
            scripted_exchange(|listener, srv| {
                let srv = Arc::clone(srv);
                vec![std::thread::spawn(move || serve_blocking(listener, &srv))]
            })
        });
        let epoll = scripted_exchange(|listener, srv| {
            let loops = epoll::prepare(&listener, srv).expect("epoll sets");
            epoll::spawn(loops, srv).unwrap()
        });
        let blocking = blocking.join().unwrap();
        assert_eq!(
            blocking, epoll,
            "the drivers put different bytes on the wire"
        );

        let [pipelined, http10, partial, events] = &epoll[..] else {
            panic!("four transcripts");
        };
        let statuses: Vec<&str> = pipelined
            .match_indices("HTTP/1.1 ")
            .map(|(i, _)| &pipelined[i + 9..i + 12])
            .collect();
        assert_eq!(statuses, ["200", "200", "400"], "{pipelined}");
        assert!(pipelined.contains("Transfer-Encoding: chunked"));
        assert!(http10.contains("Content-Length: 200\r\n"), "{http10}");
        assert!(!http10.contains("chunked"), "{http10}");
        assert!(partial.starts_with("HTTP/1.1 408 "), "{partial}");
        assert!(events.starts_with("HTTP/1.1 200 OK\r\nContent-Type: text/event-stream"));
        let one = events.find("data: one").expect("first frame");
        let two = events.find("data: two").expect("second frame");
        assert!(events.find(": hb").unwrap() < one && one < two);
        assert!(events.ends_with("\r\n0\r\n\r\n"), "{events:?}");
    }
}
