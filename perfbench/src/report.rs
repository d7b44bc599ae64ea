//! Turning a workload's sessions into the named metrics.

use hdsampler_core::{HistoryStats, SampleSet, SamplerStats};
use hdsampler_hidden_db::HiddenDb;

use crate::common::{
    check_rows, cpu_ns, digest, gaps_ms, median, peak_rss_mb, percentile, windowed_percentile,
    Opts, Report,
};
use crate::layers::{Arrivals, FetchLog};
use crate::trace::{now_ns, write_jsonl, LayerTable, Span};

/// Wall and CPU clocks at the start of a measured session.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start_ns: u64,
    cpu_ns: u64,
}

impl Clock {
    /// Read both clocks now.
    pub fn start() -> Self {
        Clock {
            start_ns: now_ns(),
            cpu_ns: cpu_ns(),
        }
    }
}

/// What one finished session (a round or a pass) hands the tally.
pub struct Session<'a> {
    /// Clocks read when the session started.
    pub clock: Clock,
    /// The session's arrival stamps.
    pub arrivals: &'a Arrivals,
    /// Accepted samples.
    pub samples: &'a SampleSet,
    /// Sampler counters.
    pub stats: &'a SamplerStats,
    /// History counters.
    pub history: &'a HistoryStats,
    /// Logical requests (history hits included).
    pub requests: u64,
    /// Charged queries.
    pub queries: u64,
}

/// Counters summed over a measured phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Accepted samples.
    pub samples: u64,
    /// Measured wall time, ns.
    pub wall_ns: u64,
    /// Process CPU time over the measured phase, ns.
    pub cpu_ns: u64,
    /// Charged queries.
    pub queries: u64,
    /// Logical requests (history hits included).
    pub requests: u64,
    /// Sampler counters.
    pub walks: u64,
    /// Candidates that reached acceptance–rejection.
    pub candidates: u64,
    /// Candidates accepted.
    pub accepted: u64,
    /// Requests answered from history (either tier).
    pub hits: u64,
    /// Requests charged at the interface.
    pub misses: u64,
    /// History eviction passes.
    pub evictions: u64,
    /// L2 hits, misses, puts and facts loaded.
    pub l2_hits: u64,
    /// See `l2_hits`.
    pub l2_misses: u64,
    /// See `l2_hits`.
    pub l2_puts: u64,
    /// See `l2_hits`.
    pub l2_loads: u64,
    /// Gaps between consecutive accepted samples of each walker, ms.
    pub gaps_ms: Vec<f64>,
    /// Sessions folded in.
    pub sessions: u64,
    /// Digest of the first session's accepted key sequence.
    pub digest0: u64,
}

impl Tally {
    /// Fold in a session that has just finished (its clocks stop now),
    /// and check its rows against the oracle of `db`.
    pub fn add_session(&mut self, s: Session<'_>, db: &HiddenDb, rep: &mut Report) {
        let end = now_ns();
        self.cpu_ns += cpu_ns() - s.clock.cpu_ns;
        self.wall_ns += end - s.clock.start_ns;
        self.gaps_ms
            .extend(gaps_ms(s.clock.start_ns, &s.arrivals.take()));
        if self.sessions == 0 {
            self.digest0 = digest(s.samples.keys());
        }
        self.sessions += 1;
        self.samples += s.samples.len() as u64;
        self.walks += s.stats.walks;
        self.candidates += s.stats.candidates;
        self.accepted += s.stats.accepted;
        self.requests += s.requests;
        self.queries += s.queries;
        let h = s.history;
        self.hits += h.total_hits();
        self.misses += h.misses;
        self.evictions += h.evictions;
        self.l2_hits += h.l2_hits;
        self.l2_misses += h.l2_misses;
        self.l2_puts += h.l2_puts;
        self.l2_loads += h.l2_loads;
        if let Err(e) = check_rows(db, s.samples) {
            rep.check(false, e);
        }
    }

    /// Accepted samples per second of measured wall time.
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Whether `seconds` of session time have passed.
    pub fn done(&self, seconds: f64) -> bool {
        self.wall_ns as f64 >= seconds * 1e9
    }
}

/// The untraced and traced halves' throughput, and the tracing overhead
/// between them.
pub fn overhead(rep: &mut Report, untraced: &Tally, traced: &Tally) {
    let a = untraced.samples_per_s();
    let b = traced.samples_per_s();
    rep.set("trace.samples_per_s_untraced", a);
    rep.set("trace.samples_per_s_traced", b);
    rep.set("trace.overhead_pct", 100.0 * (a - b) / a);
}

/// Fetches per latency window: twenty lie beyond each window's p99.
const FETCH_WINDOW: usize = 2_000;

/// The end-to-end metrics of an untraced run.
pub fn e2e_metrics(
    opts: &Opts,
    rep: &mut Report,
    t: &Tally,
    fetches: FetchLog,
    setups: &[f64],
) -> Result<(), String> {
    let lat_us: Vec<f64> = fetches.lat_ns.iter().map(|&n| n as f64 / 1e3).collect();
    rep.check(t.samples > 0, "no sample was accepted");
    rep.check(
        opts.tiny || lat_us.len() >= 3 * FETCH_WINDOW,
        format!("{} fetches: too few for a p99", lat_us.len()),
    );
    rep.attempted = fetches.attempted;
    rep.failed = fetches.failed;
    rep.set("setup_s", median(setups));
    rep.set("samples_per_s", t.samples_per_s());
    rep.set("sample_gap_p90_ms", percentile(&t.gaps_ms, 90.0));
    rep.set(
        "fetch_p50_us",
        windowed_percentile(&lat_us, FETCH_WINDOW, 50.0),
    );
    rep.set(
        "fetch_p99_us",
        windowed_percentile(&lat_us, FETCH_WINDOW, 99.0),
    );
    rep.set("queries_per_sample", t.queries as f64 / t.samples as f64);
    rep.set(
        "cpu_ms_per_sample",
        t.cpu_ns as f64 / 1e6 / t.samples as f64,
    );
    rep.set("peak_rss_mb", peak_rss_mb()?);
    println!(
        "{} samples in {:.3} s, {} fetches, {} setups",
        t.samples,
        t.wall_ns as f64 / 1e9,
        lat_us.len(),
        setups.len()
    );
    Ok(())
}

/// Per-layer metrics every workload reports from its traced phase: the
/// engine, the history cache, the walk, the driver, the estimators and
/// the benchmark's own accounting.
pub fn flow_metrics(rep: &mut Report, t: &Tally, table: &LayerTable, fetches: &FetchLog) {
    rep.attempted = fetches.attempted;
    rep.failed = fetches.failed;
    rep.set(
        "failed_ops_ratio",
        fetches.failed as f64 / fetches.attempted.max(1) as f64,
    );
    let calls = table.count("hidden_db");
    rep.set("hidden_db.calls", calls as f64);
    rep.set("hidden_db.busy_ms", table.total_ms("hidden_db"));
    rep.set(
        "hidden_db.us_per_call",
        table.total_ms("hidden_db") * 1e3 / calls.max(1) as f64,
    );
    rep.set("history.requests", t.requests as f64);
    rep.set("history.hits", t.hits as f64);
    rep.set("history.misses", t.misses as f64);
    rep.set("history.evictions", t.evictions as f64);
    rep.set(
        "history.hit_ratio",
        t.hits as f64 / t.requests.max(1) as f64,
    );
    rep.set(
        "walk.walks_per_sample",
        t.walks as f64 / t.accepted.max(1) as f64,
    );
    rep.set(
        "walk.acceptance_rate",
        t.accepted as f64 / t.candidates.max(1) as f64,
    );
    rep.set("driver.self_ms", table.self_ms("driver"));
    rep.set(
        "estimator.observe_us_per_sample",
        table.total_ms("estimator") * 1e3 / t.samples.max(1) as f64,
    );
    rep.set("trace.unattributed_pct", table.unattributed_pct());
}

/// Self times of the walk and the history cache, on the workloads whose
/// sampler and executor the benchmark builds (and so can wrap).
pub fn walk_metrics(rep: &mut Report, table: &LayerTable) {
    rep.set("walk.self_ms", table.self_ms("walk"));
    rep.set("history.self_ms", table.self_ms("history"));
}

/// Write the traced phase's spans as JSON lines under the benchmark's
/// work directory.
pub fn write_trace(opts: &Opts, spans: &[Span]) -> Result<(), String> {
    const CAP: usize = 200_000;
    let path = crate::work_dir().join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
    write_jsonl(&path, spans, CAP).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} spans ({} written) to {}",
        spans.len(),
        spans.len().min(CAP),
        path.display()
    );
    Ok(())
}
