//! Timing decorators over the public trait each layer exposes.
//!
//! Every decorator forwards to the wrapped layer unchanged. With tracing
//! off it adds nothing but the fetch-boundary timer (on the one decorator
//! built as the boundary) and a relaxed atomic load per call; with
//! tracing on it records a span per call ([`crate::trace`]).

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hdsampler_core::{
    merged, Classified, QueryExecutor, Sample, SampleEvent, SampleSink, Sampler, SamplerError,
    SamplerStats,
};
use hdsampler_model::{ConjunctiveQuery, FormInterface, InterfaceError, QueryResponse, Schema};
use hdsampler_server::{Response, SiteBehavior};
use hdsampler_webform::{AsyncTransport, Clocked, ConnId, FetchHandle, FetchPoll, Transport};

use crate::trace::{now_ns, request_span, span};

/// Charged fetches seen at the fetch boundary: the layer directly below
/// the history cache.
#[derive(Debug, Default, Clone)]
pub struct FetchLog {
    /// Latency of every completed fetch, ns.
    pub lat_ns: Vec<u64>,
    /// Fetch attempts (retries included).
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
}

static FETCHES: Mutex<FetchLog> = Mutex::new(FetchLog {
    lat_ns: Vec::new(),
    attempted: 0,
    failed: 0,
});

fn record_fetch(lat_ns: u64, ok: bool) {
    let mut log = FETCHES.lock().expect("fetch log lock");
    log.lat_ns.push(lat_ns);
    log.attempted += 1;
    log.failed += u64::from(!ok);
}

/// Take (and clear) the fetch log.
pub fn take_fetches() -> FetchLog {
    std::mem::take(&mut *FETCHES.lock().expect("fetch log lock"))
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The engine (`hidden-db`) behind its [`FormInterface`].
#[derive(Debug)]
pub struct TracedDb<F> {
    inner: F,
    boundary: bool,
}

impl<F> TracedDb<F> {
    /// Wrap `inner`; `boundary` makes this the fetch-boundary timer.
    pub fn new(inner: F, boundary: bool) -> Self {
        TracedDb { inner, boundary }
    }
}

impl<F: FormInterface> FormInterface for TracedDb<F> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn result_limit(&self) -> usize {
        self.inner.result_limit()
    }
    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
        let _s = span("hidden_db");
        if !self.boundary {
            return self.inner.execute(query);
        }
        let t0 = Instant::now();
        let r = self.inner.execute(query);
        record_fetch(elapsed_ns(t0), r.is_ok());
        r
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        let _s = span("hidden_db");
        if !self.boundary {
            return self.inner.count(query);
        }
        let t0 = Instant::now();
        let r = self.inner.count(query);
        record_fetch(elapsed_ns(t0), r.is_ok());
        r
    }
    fn supports_count(&self) -> bool {
        self.inner.supports_count()
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn dataset_digest(&self) -> Option<u64> {
        self.inner.dataset_digest()
    }
}

/// The scraper-side adapter behind its [`FormInterface`].
#[derive(Debug)]
pub struct TracedIface<F>(pub F);

impl<F: FormInterface> FormInterface for TracedIface<F> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn result_limit(&self) -> usize {
        self.0.result_limit()
    }
    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
        let _s = span("adapter");
        self.0.execute(query)
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        let _s = span("adapter");
        self.0.count(query)
    }
    fn supports_count(&self) -> bool {
        self.0.supports_count()
    }
    fn queries_issued(&self) -> u64 {
        self.0.queries_issued()
    }
    fn dataset_digest(&self) -> Option<u64> {
        self.0.dataset_digest()
    }
}

/// The in-process site (route, parse, execute, render) behind its
/// [`Transport`].
#[derive(Debug)]
pub struct TracedSite<T>(pub T);

impl<T: Transport> Transport for TracedSite<T> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        let _s = span("site");
        self.0.fetch(path)
    }
}

/// A served site behind the server's [`SiteBehavior`]; each request is a
/// root span on the serving thread.
pub struct TracedBehavior<S>(pub S);

impl<S: SiteBehavior> SiteBehavior for TracedBehavior<S> {
    fn get(&self, target: &str) -> Response {
        let _s = request_span("server.get");
        self.0.get(target)
    }
}

/// How many result pages a traced wire keeps for the codec replay.
pub const CAPTURE_PAGES: usize = 256;

#[derive(Debug, Default)]
struct WireState {
    /// Submit time (and path, while capturing) of every in-flight fetch,
    /// by transport fetch id.
    pending: HashMap<u64, (u64, Option<String>)>,
    submits: u64,
    polls: u64,
    completions: u64,
    /// ∫ in-flight count dt, in count·ns, and the last change time.
    inflight_area: u128,
    inflight_since: u64,
    /// Captured (request path, result page) pairs.
    captured: Vec<(String, String)>,
}

impl WireState {
    fn move_inflight(&mut self, now: u64) {
        let n = self.pending.len() as u128;
        self.inflight_area += n * u128::from(now.saturating_sub(self.inflight_since));
        self.inflight_since = now;
    }
}

/// Wire-level counters of a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireCounters {
    /// Asynchronous submissions.
    pub submits: u64,
    /// Asynchronous polls.
    pub polls: u64,
    /// Asynchronous completions (poll `Ready` or blocking `complete`).
    pub completions: u64,
    /// ∫ fetches in flight dt, in count·ns.
    pub inflight_area: f64,
    /// The time that integral covers, ns.
    pub span_ns: u64,
}

impl WireCounters {
    /// Fold in another wire's counters.
    pub fn add(&mut self, o: &WireCounters) {
        self.submits += o.submits;
        self.polls += o.polls;
        self.completions += o.completions;
        self.inflight_area += o.inflight_area;
        self.span_ns += o.span_ns;
    }

    /// Time-weighted mean of fetches in flight.
    pub fn inflight_mean(&self) -> f64 {
        self.inflight_area / self.span_ns.max(1) as f64
    }
}

/// The wire below the scraper, behind both transport faces. Built as the
/// fetch boundary on web stacks: one charged query's latency runs from
/// the request leaving the adapter to its page coming back (blocking
/// `fetch`, or `submit` until `poll`/`complete` hands the page over).
#[derive(Debug)]
pub struct TracedWire<T> {
    inner: T,
    state: Mutex<WireState>,
    capture: AtomicBool,
    built_at: u64,
}

/// The transport's id of a fetch. [`FetchHandle`] exposes no id, so it
/// is read off the handle's `Debug` form (`… id: N, …`).
fn fetch_id(h: &FetchHandle) -> u64 {
    let text = format!("{h:?}");
    text.split_once(" id: ")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .expect("FetchHandle debug form names its id")
}

impl<T> TracedWire<T> {
    /// Wrap `inner` as the fetch boundary.
    pub fn new(inner: T) -> Self {
        TracedWire {
            inner,
            state: Mutex::new(WireState {
                inflight_since: now_ns(),
                ..WireState::default()
            }),
            capture: AtomicBool::new(false),
            built_at: now_ns(),
        }
    }

    /// Keep the next [`CAPTURE_PAGES`] result pages (or stop keeping).
    pub fn set_capture(&self, on: bool) {
        self.capture.store(on, Ordering::Relaxed);
    }

    /// Take the captured (path, page) pairs.
    pub fn take_captured(&self) -> Vec<(String, String)> {
        std::mem::take(&mut self.lock().captured)
    }

    /// Counters since the wire was built.
    pub fn counters(&self) -> WireCounters {
        let now = now_ns();
        let mut st = self.lock();
        st.move_inflight(now);
        WireCounters {
            submits: st.submits,
            polls: st.polls,
            completions: st.completions,
            inflight_area: st.inflight_area as f64,
            span_ns: now.saturating_sub(self.built_at),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WireState> {
        self.state.lock().expect("wire state lock")
    }

    fn capturing(&self, path: &str) -> bool {
        self.capture.load(Ordering::Relaxed) && path.contains('?')
    }

    fn keep(&self, path: String, page: &Result<String, InterfaceError>) {
        if let Ok(page) = page {
            let mut st = self.lock();
            if st.captured.len() < CAPTURE_PAGES {
                st.captured.push((path, page.clone()));
            }
        }
    }

    /// Account a finished asynchronous fetch.
    fn finish(&self, id: u64, result: &Result<String, InterfaceError>) {
        let now = now_ns();
        let entry = {
            let mut st = self.lock();
            st.move_inflight(now);
            st.completions += 1;
            st.pending.remove(&id)
        };
        if let Some((sent, path)) = entry {
            record_fetch(now.saturating_sub(sent), result.is_ok());
            if let Some(path) = path {
                self.keep(path, result);
            }
        }
    }
}

impl<T: Transport> Transport for TracedWire<T> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        let _s = span("wire");
        let t0 = Instant::now();
        let r = self.inner.fetch(path);
        record_fetch(elapsed_ns(t0), r.is_ok());
        if self.capturing(path) {
            self.keep(path.to_string(), &r);
        }
        r
    }
    fn close_idle(&self) -> usize {
        self.inner.close_idle()
    }
    fn backoff(&self, ms: u64) {
        self.inner.backoff(ms)
    }
}

impl<T: Clocked> Clocked for TracedWire<T> {
    fn elapsed_ms(&self) -> u64 {
        self.inner.elapsed_ms()
    }
}

impl<T: AsyncTransport> AsyncTransport for TracedWire<T> {
    fn connect(&self) -> ConnId {
        self.inner.connect()
    }

    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        let _s = span("wire.submit");
        let sent = now_ns();
        let h = self.inner.submit(conn, path);
        let keep = self.capturing(path).then(|| path.to_string());
        let mut st = self.lock();
        st.move_inflight(sent);
        st.submits += 1;
        st.pending.insert(fetch_id(&h), (sent, keep));
        h
    }

    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        let _s = span("wire.poll");
        let id = fetch_id(&handle);
        self.lock().polls += 1;
        let r = self.inner.poll(handle);
        if let FetchPoll::Ready(result) = &r {
            self.finish(id, result);
        }
        r
    }

    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        let _s = span("wire.complete");
        let id = fetch_id(&handle);
        let r = self.inner.complete(handle);
        self.finish(id, &r);
        r
    }

    fn cancel(&self, handle: FetchHandle) {
        let id = fetch_id(&handle);
        {
            let mut st = self.lock();
            st.move_inflight(now_ns());
            st.pending.remove(&id);
        }
        self.inner.cancel(handle)
    }

    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        self.inner.observe_now(conn, now_ms)
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        self.inner.virtual_elapsed_ms()
    }

    fn wire_is_virtual(&self) -> bool {
        self.inner.wire_is_virtual()
    }

    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        let _s = span("wire.wait");
        self.inner.wait_ready(timeout_ms)
    }
}

/// The history cache behind its [`QueryExecutor`].
#[derive(Debug)]
pub struct TracedExec<E>(pub E);

impl<E: QueryExecutor> QueryExecutor for TracedExec<E> {
    fn classify(&self, query: &ConjunctiveQuery) -> Result<Classified, InterfaceError> {
        let _s = span("history");
        self.0.classify(query)
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        let _s = span("history");
        self.0.count(query)
    }
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn result_limit(&self) -> usize {
        self.0.result_limit()
    }
    fn supports_count(&self) -> bool {
        self.0.supports_count()
    }
    fn queries_issued(&self) -> u64 {
        self.0.queries_issued()
    }
    fn requests(&self) -> u64 {
        self.0.requests()
    }
}

/// The walk layer behind [`Sampler`]: one request span per sample.
#[derive(Debug)]
pub struct TracedSampler<S>(pub S);

impl<S: Sampler> Sampler for TracedSampler<S> {
    fn next_sample(&mut self) -> Result<Sample, SamplerError> {
        let _s = request_span("walk");
        self.0.next_sample()
    }
    fn stats(&self) -> SamplerStats {
        self.0.stats()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// An estimator behind [`SampleSink`].
pub struct TracedSink(pub Box<dyn SampleSink>);

impl SampleSink for TracedSink {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        let _s = span("estimator");
        self.0.observe(event);
    }
    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(TracedSink(self.0.fork()))
    }
    fn merge(&mut self, other: Box<dyn SampleSink>) {
        self.0.merge(merged::<TracedSink>(other).0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Stamps each accepted sample's arrival time (ns since the trace
/// epoch) with the walker that produced it. Forks share the stamp list.
#[derive(Clone, Default)]
pub struct Arrivals(pub Arc<Mutex<Vec<(usize, u64)>>>);

impl Arrivals {
    /// Take the (walker, time) stamps recorded so far.
    pub fn take(&self) -> Vec<(usize, u64)> {
        std::mem::take(&mut *self.0.lock().expect("arrival lock"))
    }
}

impl SampleSink for Arrivals {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        let t = now_ns();
        self.0.lock().expect("arrival lock").push((event.walker, t));
    }
    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(self.clone())
    }
    fn merge(&mut self, other: Box<dyn SampleSink>) {
        let _ = merged::<Arrivals>(other);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}
