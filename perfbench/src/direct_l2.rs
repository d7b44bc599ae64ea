//! `direct-l2`: `HdsSampler` over `CachingExecutor::new(HiddenDb)` with a
//! warm persistent L2 tier and no web layer.
//!
//! A preparation pass under another walk seed writes the L2 log; the
//! measured pass starts from those facts and appends its own. The log
//! lives in a directory of its own that the run deletes at the end.
//!
//! The measured pass is a fixed number of samples, not a fixed time. Its
//! counts then do not depend on how fast the host runs: when the pass was
//! cut off at a deadline, a host slowed by 40 % sampled less, so its cache
//! held fewer facts, it charged 30 % more queries per sample, and its
//! peak RSS was 20 % lower.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hdsampler_core::{
    CachingExecutor, HdsSampler, L2Log, QueryExecutor, SampleSink, Sampler, SamplerConfig,
    SamplingSession, SiteFingerprint, StopReason,
};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::FormInterface;

use crate::common::{as_dyn, build_db, estimator_sinks, set_up, timed, Opts, Report};
use crate::layers::{take_fetches, Arrivals, TracedDb, TracedExec, TracedSampler, TracedSink};
use crate::metrics::{COOP_LAYER, SERVER_LAYER, WEB_LAYERS};
use crate::report::{
    e2e_metrics, flow_metrics, overhead, walk_metrics, write_trace, Clock, Session, Tally,
};
use crate::trace::{self, span, LayerTable};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Samples the measured pass takes per second of `--seconds`: on a
/// 2-core x86-64 host the pass then lasts about `--seconds`, and on a host
/// slowed by 40 % it still ends well inside the run's time limit.
const SAMPLES_PER_SECOND: f64 = 10_000.0;
/// Slider position of the walks: every candidate is accepted. At the web
/// workloads' 0.3 a sample costs about a hundred rejected walks here, so
/// a run held only a few hundred samples and its throughput moved by a
/// quarter from seed to seed; at 1 every layer does the same work per
/// walk and a run holds tens of thousands of samples.
const DIRECT_SLIDER: f64 = 1.0;
/// Tuples in the database. At 500 000 the engine's column scans made the
/// workload memory-bound, and on a shared 2-core host one seed's
/// throughput moved by up to 28 % between back-to-back runs; at 100 000
/// such runs agree within 6 %.
const N: usize = 100_000;
/// Facts the preparation pass writes to the L2 log.
const PREP_FACTS: u64 = 6_000;
/// Offset of the preparation pass's walk seed from the run's seed.
const PREP_SEED_OFFSET: u64 = 0xD1B5_4A32_D192_ED03;

type Exec = CachingExecutor<TracedDb<Arc<HiddenDb>>>;

/// An engine with its history cache and attached L2 log.
struct Stack {
    db: Arc<HiddenDb>,
    exec: Exec,
    load_ms: f64,
}

fn fingerprint(db: &HiddenDb) -> SiteFingerprint {
    SiteFingerprint::derive(
        db.schema(),
        db.result_limit(),
        db.supports_count(),
        db.dataset_digest(),
    )
}

/// Open the L2 log under `root` and attach it behind a fresh L1.
fn open_stack(db: Arc<HiddenDb>, root: &Path) -> Result<Stack, String> {
    let log = Arc::new(L2Log::open(root, fingerprint(&db)).map_err(|e| format!("L2 open: {e}"))?);
    let (exec, secs) =
        timed(|| CachingExecutor::new(TracedDb::new(Arc::clone(&db), true)).with_l2(log));
    Ok(Stack {
        db,
        exec,
        load_ms: secs * 1e3,
    })
}

fn sampler_config(seed: u64) -> SamplerConfig {
    SamplerConfig::seeded(seed).with_slider(DIRECT_SLIDER)
}

/// Write the L2 log that every measured pass starts from: sample until
/// `facts` facts are written, so the log's size does not vary with the
/// seed (a sample's cost does, a lot).
fn prepare(db: &Arc<HiddenDb>, root: &Path, seed: u64, facts: u64) -> Result<(), String> {
    let stack = open_stack(Arc::clone(db), root)?;
    let mut sampler = HdsSampler::new(
        &stack.exec,
        sampler_config(seed.wrapping_add(PREP_SEED_OFFSET)),
    )
    .map_err(|e| format!("sampler: {e}"))?;
    while stack.exec.history_stats().l2_puts < facts {
        sampler
            .next_sample()
            .map_err(|e| format!("preparation pass: {e}"))?;
    }
    Ok(())
}

/// One measured pass of `samples` samples from the stack's current L2
/// contents.
fn pass(
    stack: &Stack,
    seed: u64,
    samples: usize,
    sinks: &mut [TracedSink],
    rep: &mut Report,
) -> Result<Tally, String> {
    let arrivals = Arrivals::default();
    let mut arr = arrivals.clone();
    let texec = TracedExec(&stack.exec);
    let mut sampler = TracedSampler(
        HdsSampler::new(&texec, sampler_config(seed)).map_err(|e| format!("sampler: {e}"))?,
    );
    let mut observers: Vec<&mut dyn SampleSink> = vec![&mut arr];
    observers.extend(as_dyn(sinks));
    let clock = Clock::start();
    let outcome = {
        let _round = span("round");
        let _driver = span("driver");
        SamplingSession::new(samples).run_observed(&mut sampler, &mut observers, |_| {})
    };
    let mut t = Tally::default();
    t.add_session(
        Session {
            clock,
            arrivals: &arrivals,
            samples: &outcome.samples,
            stats: &outcome.stats,
            history: &stack.exec.history_stats(),
            requests: stack.exec.requests(),
            queries: stack.exec.queries_issued(),
        },
        &stack.db,
        rep,
    );
    rep.check(
        outcome.reason == StopReason::TargetReached,
        format!("the pass stopped early: {:?}", outcome.reason),
    );
    Ok(t)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Size of the files under `dir`, bytes.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Removes the run's L2 directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let (n, prep_facts, rate) = if opts.tiny {
        (20_000, 500, 1_000.0)
    } else {
        (N, PREP_FACTS, SAMPLES_PER_SECOND)
    };
    let samples = (opts.seconds * rate).ceil() as usize;
    let scratch =
        Scratch(crate::work_dir().join(format!("l2-{}-{}", opts.seed, std::process::id())));
    let root = scratch.0.join("root");
    let snapshot = scratch.0.join("snapshot");
    {
        let db = Arc::new(build_db("vehicles-full", n)?);
        prepare(&db, &root, opts.seed, prep_facts)?;
    }
    copy_dir(&root, &snapshot).map_err(|e| format!("L2 snapshot: {e}"))?;

    let reps = if opts.trace { 1 } else { SETUPS };
    let (stack, setups) = set_up(reps, || {
        let db = Arc::new(build_db("vehicles-full", n)?);
        open_stack(db, &root)
    })?;
    let mut sinks = estimator_sinks(stack.db.schema())?;
    take_fetches();

    if !opts.trace {
        let t = pass(&stack, opts.seed, samples, &mut sinks, rep)?;
        println!("direct-l2 seed={} digest={:016x}", opts.seed, t.digest0);
        return e2e_metrics(opts, rep, &t, take_fetches(), &setups);
    }

    rep.unmeasured(WEB_LAYERS);
    rep.unmeasured(SERVER_LAYER);
    rep.unmeasured(COOP_LAYER);
    let half = samples.div_ceil(2);
    let untraced = pass(&stack, opts.seed, half, &mut sinks, rep)?;
    let db = Arc::clone(&stack.db);
    drop(stack);
    // The traced pass starts from the same L2 contents as the untraced one.
    std::fs::remove_dir_all(&root).map_err(|e| format!("L2 reset: {e}"))?;
    copy_dir(&snapshot, &root).map_err(|e| format!("L2 restore: {e}"))?;
    let stack = open_stack(db, &root)?;
    let l2_bytes = || dir_bytes(&root).map_err(|e| format!("L2 size: {e}"));
    let bytes0 = l2_bytes()?;
    take_fetches();
    trace::set_enabled(true);
    let traced = pass(&stack, opts.seed, half, &mut sinks, rep)?;
    trace::set_enabled(false);
    let fetches = take_fetches();
    let spans = trace::take_all();
    rep.check(
        untraced.digest0 == traced.digest0,
        "the traced pass walked another sequence than the untraced one",
    );
    println!(
        "direct-l2 seed={} digest={:016x}",
        opts.seed, traced.digest0
    );
    let table = LayerTable::build(&spans, "round", "driver");
    print!("{}", table.render());
    overhead(rep, &untraced, &traced);
    flow_metrics(rep, &traced, &table, &fetches);
    walk_metrics(rep, &table);
    let bytes1 = l2_bytes()?;
    rep.set("l2.load_ms", stack.load_ms);
    rep.set("l2.facts_loaded", traced.l2_loads as f64);
    rep.set("l2.hits", traced.l2_hits as f64);
    rep.set("l2.misses", traced.l2_misses as f64);
    rep.set("l2.puts", traced.l2_puts as f64);
    rep.set(
        "l2.hit_ratio",
        traced.l2_hits as f64 / (traced.l2_hits + traced.l2_misses).max(1) as f64,
    );
    rep.set(
        "l2.bytes_per_put",
        bytes1.saturating_sub(bytes0) as f64 / traced.l2_puts.max(1) as f64,
    );
    rep.set("l2.disk_mb", bytes1 as f64 / (1024.0 * 1024.0));
    write_trace(opts, &spans)
}
