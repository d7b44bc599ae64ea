//! The two web workloads: `inproc` (the `sample` stack with no socket)
//! and `loopback` (the same site behind the HTTP server on 127.0.0.1).
//!
//! Both run closed-loop rounds of `RunPlan`; each round is one sampling
//! session from an empty history cache, as one `sample` invocation is.

use std::sync::Arc;
use std::time::Duration;

use hdsampler_core::{
    CachingExecutor, HdsSampler, QueryExecutor, SampleSink, SamplingSession, StopReason,
};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::{ConjunctiveQuery, FormInterface};
use hdsampler_server::{HttpServer, ServeMode, ServerConfig, ServerHandle, ServerStats};
use hdsampler_webform::{
    AsyncTransport, Clocked, Driver, FleetConfig, HttpTransport, LatencyTransport, LocalSite,
    RunPlan, SiteTask, Transport, WebForm, WebFormInterface,
};

use crate::codec::{replay, CodecCosts};
use crate::common::{
    as_dyn, build_db, discover, estimator_sinks, round_seed, set_up, Discovered, Opts, Report, K,
    SLIDER,
};
use crate::layers::{
    take_fetches, Arrivals, TracedBehavior, TracedDb, TracedExec, TracedIface, TracedSampler,
    TracedSink, TracedSite, TracedWire, WireCounters, CAPTURE_PAGES,
};
use crate::metrics::{COOP_LAYER, INSIDE_COOP_DRIVER, L2_LAYER, SERVER_LAYER};
use crate::report::{
    e2e_metrics, flow_metrics, overhead, walk_metrics, write_trace, Clock, Session, Tally,
};
use crate::trace::{self, span, LayerTable};

/// Set-ups per end-to-end run; `setup_s` is their median. A set-up takes
/// about 10 ms, so one is easily disturbed; the median of many is not.
const SETUPS: usize = 25;

/// Set-ups of a run: a traced run reports no `setup_s`.
fn setups(opts: &Opts) -> usize {
    if opts.trace {
        1
    } else {
        SETUPS
    }
}

/// At most this share of an `inproc` round may lie outside the wrapped
/// layers' spans.
const MAX_UNATTRIBUTED_PCT: f64 = 10.0;

type InprocWire = TracedWire<LatencyTransport<TracedSite<LocalSite<TracedDb<Arc<HiddenDb>>>>>>;

/// The `inproc` site: the scraper task over the in-process wire.
struct Inproc {
    db: Arc<HiddenDb>,
    task: SiteTask<InprocWire>,
    form: WebForm,
}

fn inproc_setup(n: usize) -> Result<Inproc, String> {
    let db = Arc::new(build_db("vehicles-compact", n)?);
    let schema = Arc::new(db.schema().clone());
    let site = TracedSite(LocalSite::new(
        TracedDb::new(Arc::clone(&db), false),
        schema,
    ));
    // The 1 ms virtual wire is what a `local:` locator builds; it bills
    // latency on a virtual clock and never sleeps.
    let wire = TracedWire::new(LatencyTransport::new(site, 1));
    let found = discover(&wire)?;
    let iface =
        WebFormInterface::with_form(wire, found.form.clone(), found.k, found.supports_count);
    Ok(Inproc {
        db,
        task: SiteTask::new("inproc", iface),
        form: found.form,
    })
}

type Served = TracedBehavior<LocalSite<TracedDb<Arc<HiddenDb>>>>;

/// The `loopback` site: one server for the whole run, and what every
/// round's client is configured with.
struct Loopback {
    db: Arc<HiddenDb>,
    found: Discovered,
    server: ServerHandle,
}

/// The server's keep-alive timeout: longer than the run, so that no
/// keep-alive timer fires while it lasts. A reactor slab slot starts each
/// new connection at keep-alive generation 0, so a timer left behind by
/// the slot's previous connection can close the connection now in the
/// slot inside its own keep-alive window (`defects/` reproduces it). With
/// the default 5 s timeout, rounds that reconnect to one server fail
/// mid-round with `Broken pipe`; with this one the workload cannot catch
/// that defect.
fn keep_alive(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds + 60.0)
}

fn loopback_setup(n: usize, keep_alive: Duration) -> Result<Loopback, String> {
    let db = Arc::new(build_db("vehicles-compact", n)?);
    let schema = Arc::new(db.schema().clone());
    let site: Arc<Served> = Arc::new(TracedBehavior(LocalSite::new(
        TracedDb::new(Arc::clone(&db), false),
        schema,
    )));
    let cfg = ServerConfig {
        mode: ServeMode::Reactor,
        reactor_threads: 2,
        keep_alive_timeout: keep_alive,
        ..ServerConfig::default()
    };
    let server = HttpServer::serve(cfg, site).map_err(|e| format!("bind: {e}"))?;
    let found = discover(&TracedWire::new(HttpTransport::new(
        server.addr().to_string(),
    )))?;
    Ok(Loopback { db, found, server })
}

/// How one workload drives its rounds.
struct Shape {
    target: usize,
    walkers: usize,
    driver: Driver,
}

/// The `sample` headline: one walker, the default driver, 300 samples.
const INPROC: Shape = Shape {
    target: 300,
    walkers: 1,
    driver: Driver::Threaded,
};

/// 16 cooperative walkers over 2 pipelined connections.
const LOOPBACK: Shape = Shape {
    target: 1000,
    walkers: 16,
    driver: Driver::Coop { conns: Some(2) },
};

/// Run round `r` of `RunPlan` over `task` and fold it into `tally`.
#[allow(clippy::too_many_arguments)]
fn plan_round<T>(
    task: &mut SiteTask<TracedWire<T>>,
    db: &HiddenDb,
    shape: &Shape,
    seed: u64,
    r: usize,
    sinks: &mut [TracedSink],
    tally: &mut Tally,
    rep: &mut Report,
) where
    TracedWire<T>: Transport + AsyncTransport + Clocked + Send,
{
    let arrivals = Arrivals::default();
    let mut arr = arrivals.clone();
    let clock = Clock::start();
    let report = {
        let _round = span("round");
        let _driver = span("driver");
        let mut plan = RunPlan::target(shape.target)
            .walkers(shape.walkers)
            .driver(shape.driver)
            .seed(round_seed(seed, r))
            .slider(SLIDER)
            .attach(&mut arr);
        for s in as_dyn(sinks) {
            plan = plan.attach(s);
        }
        plan.run(std::slice::from_mut(task))
    };
    let s = report.site();
    tally.add_session(
        Session {
            clock,
            arrivals: &arrivals,
            samples: &s.samples,
            stats: &s.stats,
            history: &s.history,
            requests: s.requests,
            queries: s.queries_issued,
        },
        db,
        rep,
    );
    rep.check(
        s.stopped == StopReason::TargetReached && s.samples.len() == shape.target,
        format!(
            "round {r} stopped at {} samples: {:?}",
            s.samples.len(),
            s.stopped
        ),
    );
}

/// `inproc` rounds until `seconds` of round time have passed.
fn inproc_rounds(
    site: &mut Inproc,
    seed: u64,
    seconds: f64,
    sinks: &mut [TracedSink],
    rep: &mut Report,
) -> Tally {
    let mut tally = Tally::default();
    for r in 0.. {
        plan_round(
            &mut site.task,
            &site.db,
            &INPROC,
            seed,
            r,
            sinks,
            &mut tally,
            rep,
        );
        if tally.done(seconds) {
            break;
        }
    }
    tally
}

/// Server counters over a stretch of rounds.
#[derive(Debug, Default)]
struct ServerSums {
    requests: u64,
    connections: u64,
    bytes_out: u64,
    wakeups: u64,
    errors_5xx: u64,
}

impl ServerSums {
    /// What the server counted between two snapshots.
    fn between(a: &ServerStats, b: &ServerStats) -> Self {
        ServerSums {
            requests: b.requests - a.requests,
            connections: b.connections - a.connections,
            bytes_out: b.bytes_out - a.bytes_out,
            wakeups: b.reactor_wakeups - a.reactor_wakeups,
            errors_5xx: b.responses_server_error - a.responses_server_error,
        }
    }
}

/// What `loopback` rounds measured.
struct LoopbackRun {
    tally: Tally,
    server: ServerSums,
    wire: WireCounters,
    captured: Vec<(String, String)>,
}

/// `loopback` rounds until `seconds` of round time have passed. Every
/// round is one `sample` session with connections of its own, against the
/// run's one server.
fn loopback_rounds(
    site: &Loopback,
    seed: u64,
    seconds: f64,
    sinks: &mut [TracedSink],
    rep: &mut Report,
) -> LoopbackRun {
    let mut run = LoopbackRun {
        tally: Tally::default(),
        server: ServerSums::default(),
        wire: WireCounters::default(),
        captured: Vec::new(),
    };
    let before = site.server.stats();
    for r in 0.. {
        let wire = TracedWire::new(HttpTransport::new(site.server.addr().to_string()));
        wire.set_capture(trace::enabled() && run.captured.len() < CAPTURE_PAGES);
        let f = &site.found;
        let iface = WebFormInterface::with_form(wire, f.form.clone(), f.k, f.supports_count);
        let mut task = SiteTask::new("loopback", iface);
        plan_round(
            &mut task,
            &site.db,
            &LOOPBACK,
            seed,
            r,
            sinks,
            &mut run.tally,
            rep,
        );
        let wire = task.iface.transport();
        run.wire.add(&wire.counters());
        run.captured.extend(wire.take_captured());
        if run.tally.done(seconds) {
            break;
        }
    }
    run.server = ServerSums::between(&before, &site.server.stats());
    run.captured.truncate(CAPTURE_PAGES);
    rep.check(run.server.errors_5xx == 0, "the server answered 5xx");
    run
}

/// The same rounds as [`INPROC`]'s `RunPlan`, assembled from the public
/// parts the threaded driver uses for one walker, so that the history
/// cache, the walk and the adapter can each be wrapped. Round `r` walks
/// the same seeded sequence as `RunPlan` round `r`.
fn mirror_rounds(
    site: &mut Inproc,
    seed: u64,
    seconds: f64,
    sinks: &mut [TracedSink],
    rep: &mut Report,
) -> Result<Tally, String> {
    let arrivals = Arrivals::default();
    let mut tally = Tally::default();
    for r in 0.. {
        let mut arr = arrivals.clone();
        let clock = Clock::start();
        let (outcome, hist, requests, queries) = {
            let _round = span("round");
            let exec = CachingExecutor::new(TracedIface(&site.task.iface));
            let texec = TracedExec(&exec);
            let cfg = FleetConfig {
                walkers_per_site: 1,
                target_per_site: INPROC.target,
                seed: round_seed(seed, r),
                slider: SLIDER,
                scope: ConjunctiveQuery::empty(),
            }
            .walker_config(0, 0);
            let mut sampler =
                TracedSampler(HdsSampler::new(&texec, cfg).map_err(|e| format!("sampler: {e}"))?);
            let mut observers: Vec<&mut dyn SampleSink> = vec![&mut arr];
            observers.extend(as_dyn(sinks));
            let outcome = {
                let _driver = span("driver");
                SamplingSession::new(INPROC.target).run_observed(
                    &mut sampler,
                    &mut observers,
                    |_| {},
                )
            };
            (
                outcome,
                exec.history_stats(),
                exec.requests(),
                exec.queries_issued(),
            )
        };
        tally.add_session(
            Session {
                clock,
                arrivals: &arrivals,
                samples: &outcome.samples,
                stats: &outcome.stats,
                history: &hist,
                requests,
                queries,
            },
            &site.db,
            rep,
        );
        rep.check(
            outcome.reason == StopReason::TargetReached,
            format!("mirror round {r} stopped: {:?}", outcome.reason),
        );
        if tally.done(seconds) {
            break;
        }
    }
    Ok(tally)
}

fn codec_metrics(rep: &mut Report, c: &CodecCosts) {
    rep.set("form.encode_us", c.encode_us);
    rep.set("form.parse_us", c.parse_us);
    rep.set("render.us_per_page", c.render_us);
    rep.set("render.kb_per_page", c.render_kb);
    rep.set("scrape.us_per_page", c.scrape_us);
    println!(
        "codec replay over {} captured pages: encode {:.2} us, parse {:.2} us, \
         render {:.1} us ({:.1} KB), scrape {:.1} us",
        c.pages, c.encode_us, c.parse_us, c.render_us, c.render_kb, c.scrape_us
    );
}

/// `inproc`: `RunPlan` (threaded driver, one walker) over
/// `WebFormInterface<LatencyTransport<LocalSite<HiddenDb>>>`.
///
/// The traced run compares like with like: both halves run the mirror
/// stack, the first with tracing off. A `RunPlan` round 0 ahead of them
/// ties the mirror stack to the workload's own.
pub fn inproc(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let n = if opts.tiny { 2_000 } else { 20_000 };
    let (mut site, setups) = set_up(setups(opts), || inproc_setup(n))?;
    let mut sinks = estimator_sinks(site.form.schema())?;
    take_fetches();
    if !opts.trace {
        let t = inproc_rounds(&mut site, opts.seed, opts.seconds, &mut sinks, rep);
        println!("inproc seed={} digest={:016x}", opts.seed, t.digest0);
        return e2e_metrics(opts, rep, &t, take_fetches(), &setups);
    }
    rep.unmeasured(L2_LAYER);
    rep.unmeasured(SERVER_LAYER);
    rep.unmeasured(COOP_LAYER);
    let mut plan = Tally::default();
    let seed = opts.seed;
    plan_round(
        &mut site.task,
        &site.db,
        &INPROC,
        seed,
        0,
        &mut sinks,
        &mut plan,
        rep,
    );
    let half = opts.seconds / 2.0;
    let untraced = mirror_rounds(&mut site, seed, half, &mut sinks, rep)?;
    take_fetches();
    trace::set_enabled(true);
    site.task.iface.transport().set_capture(true);
    let traced = mirror_rounds(&mut site, seed, half, &mut sinks, rep)?;
    trace::set_enabled(false);
    let fetches = take_fetches();
    let spans = trace::take_all();
    for (half, t) in [("untraced", &untraced), ("traced", &traced)] {
        rep.check(
            t.digest0 == plan.digest0,
            format!("the {half} mirror stack walked another sequence than RunPlan"),
        );
    }
    println!("inproc seed={seed} digest={:016x}", plan.digest0);
    let table = LayerTable::build(&spans, "round", "driver");
    print!("{}", table.render());
    rep.check(
        table.unattributed_pct() <= MAX_UNATTRIBUTED_PCT,
        format!(
            "the layers account for only {:.1} % of the traced wall time",
            100.0 - table.unattributed_pct()
        ),
    );
    overhead(rep, &untraced, &traced);
    flow_metrics(rep, &traced, &table, &fetches);
    walk_metrics(rep, &table);
    let codec = replay(&site.form, K, &site.task.iface.transport().take_captured())?;
    codec_metrics(rep, &codec);
    rep.set("adapter.self_ms", table.self_ms("adapter"));
    rep.set("wire.self_ms", table.self_ms("wire"));
    rep.set("site.self_ms", table.self_ms("site"));
    let fetched = table.count("wire") as f64;
    rep.set(
        "adapter.encode_ms",
        codec.encode_us * table.count("adapter") as f64 / 1e3,
    );
    rep.set("adapter.scrape_ms", codec.scrape_us * fetched / 1e3);
    rep.set(
        "site.parse_ms",
        codec.parse_us * table.count("site") as f64 / 1e3,
    );
    rep.set("site.render_ms", codec.render_us * fetched / 1e3);
    write_trace(opts, &spans)
}

/// `loopback`: `RunPlan` (cooperative driver, 16 walkers, 2 connections)
/// over `HttpTransport` against an in-process reactor server.
pub fn loopback(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let n = if opts.tiny { 2_000 } else { 20_000 };
    let ka = keep_alive(opts.seconds);
    let (site, setups) = set_up(setups(opts), || loopback_setup(n, ka))?;
    let mut sinks = estimator_sinks(site.found.form.schema())?;
    take_fetches();
    if !opts.trace {
        let run = loopback_rounds(&site, opts.seed, opts.seconds, &mut sinks, rep);
        let fetches = take_fetches();
        rep.check(fetches.failed == 0, "transport errors on the loopback wire");
        return e2e_metrics(opts, rep, &run.tally, fetches, &setups);
    }
    rep.unmeasured(L2_LAYER);
    rep.unmeasured(INSIDE_COOP_DRIVER);
    let half = opts.seconds / 2.0;
    let untraced = loopback_rounds(&site, opts.seed, half, &mut sinks, rep);
    take_fetches();
    trace::set_enabled(true);
    let traced = loopback_rounds(&site, opts.seed, half, &mut sinks, rep);
    trace::set_enabled(false);
    // The serving threads hand their spans over when they exit.
    site.server.shutdown();
    let fetches = take_fetches();
    let spans = trace::take_all();
    rep.check(fetches.failed == 0, "transport errors on the loopback wire");
    let table = LayerTable::build(&spans, "round", "driver");
    print!("{}", table.render());
    overhead(rep, &untraced.tally, &traced.tally);
    flow_metrics(rep, &traced.tally, &table, &fetches);
    let codec = replay(&site.found.form, K, &traced.captured)?;
    codec_metrics(rep, &codec);
    let (srv, wc) = (&traced.server, &traced.wire);
    let get_ms = table.total_ms("server.get");
    let fetch_ms = fetches.lat_ns.iter().sum::<u64>() as f64 / 1e6;
    let requests = srv.requests.max(1) as f64;
    rep.set("server.get_ms", get_ms);
    rep.set("server.wire_ms", fetch_ms - get_ms);
    rep.set("server.requests", srv.requests as f64);
    rep.set("server.connections", srv.connections as f64);
    rep.set(
        "server.kb_out_per_request",
        srv.bytes_out as f64 / 1024.0 / requests,
    );
    rep.set("server.wakeups_per_request", srv.wakeups as f64 / requests);
    rep.set("server.5xx", srv.errors_5xx as f64);
    rep.set("coop.submits", wc.submits as f64);
    rep.set(
        "coop.polls_per_completion",
        wc.polls as f64 / wc.completions.max(1) as f64,
    );
    rep.set("coop.parked_ms", table.total_ms("wire.wait"));
    rep.set("coop.inflight_mean", wc.inflight_mean());
    rep.set("site.self_ms", table.self_ms("server.get"));
    rep.set(
        "wire.self_ms",
        table.self_ms("wire.submit") + table.self_ms("wire.poll") + table.self_ms("wire.complete"),
    );
    rep.set(
        "adapter.encode_ms",
        codec.encode_us * wc.submits as f64 / 1e3,
    );
    rep.set(
        "adapter.scrape_ms",
        codec.scrape_us * wc.completions as f64 / 1e3,
    );
    rep.set("site.parse_ms", codec.parse_us * srv.requests as f64 / 1e3);
    rep.set(
        "site.render_ms",
        codec.render_us * srv.requests as f64 / 1e3,
    );
    write_trace(opts, &spans)
}
