//! Pieces every workload shares: the site build, discovery, estimator
//! sinks, output checks, resource probes and the metric report.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use hdsampler_core::{SampleSet, SampleSink};
use hdsampler_estimator::{Histogram, OnlineAvg};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::Row;
use hdsampler_webform::{scrape_form_page, Transport, WebForm};
use hdsampler_workload::{resolve_dataset, DbConfig, WorkloadSpec};

use crate::layers::TracedSink;
use crate::metrics::{E2E, PER_LAYER};

/// The interface's top-k display limit on every workload.
pub const K: usize = 250;
/// Efficiency ↔ skew slider position of every walker.
pub const SLIDER: f64 = 0.3;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed: every walk seed derives from it.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Small inputs, for smoke tests.
    pub tiny: bool,
}

/// Seed of every workload's dataset. The site is a fixed part of each
/// workload (seed 77 is the ROADMAP headline's); `--seed` drives the walks.
/// With the data drawn from `--seed` as well, the mix of page sizes moved
/// from seed to seed, and `fetch_p50_us` (which sits between the small-page
/// and the full-page modes) spread by 0.30 over ten seeds.
const DATA_SEED: u64 = 77;

/// Build a hidden database from the named registry dataset.
pub fn build_db(dataset: &str, n: usize) -> Result<HiddenDb, String> {
    let data = resolve_dataset(dataset)?.data_spec(n, DATA_SEED);
    Ok(WorkloadSpec {
        data,
        db: DbConfig::no_counts().with_k(K),
        seed: DATA_SEED,
    }
    .build())
}

/// What schema discovery off a site's landing page yields.
pub struct Discovered {
    /// The scraped form.
    pub form: WebForm,
    /// Advertised top-k.
    pub k: usize,
    /// Whether the site prints a count banner.
    pub supports_count: bool,
}

/// Scrape `/` off the wire, as a connector does before the first query.
pub fn discover(wire: &impl Transport) -> Result<Discovered, String> {
    let page = wire
        .fetch("/")
        .map_err(|e| format!("discovery fetch failed: {e}"))?;
    let found = scrape_form_page(&page).map_err(|e| format!("landing page: {e}"))?;
    Ok(Discovered {
        form: WebForm::new(Arc::new(found.schema), found.action),
        k: found.k,
        supports_count: found.supports_count,
    })
}

fn every_row(_: &Row) -> bool {
    true
}

/// The estimators an analyst attaches: a histogram over `make` and the
/// average `price_usd`.
pub fn estimator_sinks(schema: &hdsampler_model::Schema) -> Result<Vec<TracedSink>, String> {
    let make = schema.attr_by_name("make").map_err(|e| e.to_string())?;
    let price = schema
        .measure_by_name("price_usd")
        .map_err(|e| e.to_string())?;
    let hist = Histogram::new(schema, make);
    let avg = OnlineAvg::new(price, every_row as fn(&Row) -> bool);
    Ok(vec![TracedSink(Box::new(hist)), TracedSink(Box::new(avg))])
}

/// Every sample's row must equal the oracle's row for its key.
pub fn check_rows(db: &HiddenDb, samples: &SampleSet) -> Result<(), String> {
    let oracle = db.oracle();
    for s in samples.samples() {
        let tid = oracle
            .tuple_by_key(s.row.key)
            .ok_or_else(|| format!("sampled key {} is not in the database", s.row.key))?;
        if oracle.row(tid) != s.row {
            return Err(format!(
                "sampled row for key {} differs from the data",
                s.row.key
            ));
        }
    }
    Ok(())
}

/// FNV-1a over a key sequence.
pub fn digest(keys: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for b in k.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Seed of measured round `r`: round 0 uses the run's seed itself.
pub fn round_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of the whole process so far, ns.
pub fn cpu_ns() -> u64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a writable `struct rusage` of the x86-64/aarch64
    // Linux layout (two `timeval`s then fourteen `long`s), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
    (us(&ru.utime) + us(&ru.stime)) * 1_000
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median, over consecutive windows of `window` values, of each window's
/// percentile `p`. A tail percentile pooled over a whole run is set by
/// its worst stretch; the median over windows is not.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> f64 {
    let per_window: Vec<f64> = values
        .chunks(window)
        .filter(|c| c.len() == window || values.len() < window)
        .map(|c| percentile(c, p))
        .collect();
    median(&per_window)
}

/// Gaps between consecutive arrivals of each walker, in ms; a walker's
/// first gap is measured from `start_ns`. `arrivals` holds (walker,
/// time) pairs in arrival order.
pub fn gaps_ms(start_ns: u64, arrivals: &[(usize, u64)]) -> Vec<f64> {
    let mut last: HashMap<usize, u64> = HashMap::new();
    arrivals
        .iter()
        .map(|&(walker, t)| {
            let prev = last.insert(walker, t).unwrap_or(start_ns);
            t.saturating_sub(prev) as f64 / 1e6
        })
        .collect()
}

/// Time `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Sinks as the trait objects `RunPlan` and `SamplingSession` take.
pub fn as_dyn(sinks: &mut [TracedSink]) -> Vec<&mut dyn SampleSink> {
    sinks.iter_mut().map(|s| s as &mut dyn SampleSink).collect()
}

/// Repeat a set-up `reps` times, keep the last result, and return the
/// set-up times. The previous result is dropped before the next set-up
/// starts (a loopback site's server shuts down with it).
pub fn set_up<S>(
    reps: usize,
    build: impl Fn() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut site = None;
    for _ in 0..reps.max(1) {
        drop(site.take());
        let (s, secs) = timed(&build);
        site = Some(s?);
        times.push(secs);
    }
    let site = site.expect("at least one set-up");
    Ok((site, times))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Per-layer metrics the workload cannot measure: its stack does not
    /// run the layer, or runs it where no decorator can reach.
    pub unmeasured: Vec<&'static str>,
    /// Fetches attempted at the fetch boundary.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Declare per-layer metrics the workload cannot measure.
    pub fn unmeasured(&mut self, names: &[&'static str]) {
        self.unmeasured.extend_from_slice(names);
    }

    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.errors.push(what.into());
        }
    }

    /// Whether every check passed, and the result line: every end-to-end
    /// metric (untraced run) or every per-layer metric (traced run).
    ///
    /// A metric the run did not set fails the run, unless the workload
    /// declared it unmeasured; those read 0 in the line, which carries
    /// numbers only, and [`Report::unmeasured_line`] names them.
    pub fn result(&mut self, trace: bool) -> (bool, String) {
        let list = if trace { PER_LAYER } else { E2E };
        let mut fields = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let listed = trace && self.unmeasured.contains(&name);
            let v = match self.values.get(name) {
                Some(_) if listed => {
                    self.check(false, format!("{name} is both set and declared unmeasured"));
                    0.0
                }
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.check(false, format!("{name} is not finite: {v}"));
                    0.0
                }
                None if listed => 0.0,
                None => {
                    self.check(false, format!("{name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.errors.is_empty();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        (correct, line)
    }

    /// The line that names the per-layer metrics this workload cannot
    /// measure, if there are any.
    pub fn unmeasured_line(&self) -> Option<String> {
        (!self.unmeasured.is_empty())
            .then(|| format!("unmeasured (read 0): {}", self.unmeasured.join(" ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_are_taken_per_walker() {
        let arrivals = [(0, 110), (1, 120), (0, 150), (1, 400), (0, 160)];
        let ms: Vec<u64> = gaps_ms(100, &arrivals)
            .iter()
            .map(|g| (g * 1e6).round() as u64)
            .collect();
        assert_eq!(ms, vec![10, 20, 40, 280, 10]);
    }

    #[test]
    fn a_metric_neither_set_nor_declared_unmeasured_fails_the_run() {
        let mut rep = Report::default();
        let (ok, line) = rep.result(true);
        assert!(!ok);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(rep.errors.iter().any(|e| e == "l2.hits was not measured"));

        let mut rep = Report::default();
        for &(name, _) in PER_LAYER {
            rep.set(name, 1.0);
        }
        assert!(rep.result(true).0);
        rep.unmeasured(&["l2.hits"]);
        assert!(!rep.result(true).0, "set and declared unmeasured");

        let mut rep = Report::default();
        for &(name, _) in PER_LAYER.iter().filter(|(n, _)| *n != "l2.hits") {
            rep.set(name, 1.0);
        }
        rep.unmeasured(&["l2.hits"]);
        let (ok, line) = rep.result(true);
        assert!(ok);
        assert!(line.contains("\"l2.hits\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert_eq!(
            rep.unmeasured_line().as_deref(),
            Some("unmeasured (read 0): l2.hits")
        );
    }

    #[test]
    fn windowed_percentile_takes_the_median_window_and_drops_the_tail() {
        let mut values: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        // A bad stretch in one window moves the pooled p99, not the median
        // window's; a partial trailing window is ignored.
        values[150] = 1e6;
        values.extend([1e9; 50]);
        assert_eq!(windowed_percentile(&values, 100, 50.0), 49.5);
        assert!((windowed_percentile(&values, 100, 99.0) - 98.01).abs() < 1e-9);
        assert!(percentile(&values, 99.0) > 1e8);
        assert_eq!(windowed_percentile(&[1.0, 3.0], 100, 50.0), 2.0);
    }
}
