//! Incremental sampling sessions (§3.4).
//!
//! "The entire system works in an incremental fashion where the Sample
//! Generator, Sample Processor and Output module generate samples and
//! updates the final sample set and histograms till the desired number of
//! samples are obtained. A kill switch has been included to facilitate
//! stopping the sampling procedure in case the user is satisfied with the
//! samples extracted thus far."
//!
//! [`SamplingSession`] drives any [`Sampler`] toward a target count,
//! surfacing progress through an event callback (the AJAX live-update path
//! of the original demo) and honouring a shared kill switch. A parallel
//! variant ([`SamplingSession::run_parallel`]) fans walkers out over
//! threads that share one interface, budget and history cache; it takes
//! no sinks and exists to measure shared-cache contention. Fleets of
//! sites and walkers run on the webform crate's cooperative scheduler
//! instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::sample::{Sample, SampleSet, Sampler, SamplerError};
use crate::sink::{observe_all, SampleEvent, SampleSink};
use crate::stats::SamplerStats;

/// Why a session ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// The requested number of samples was collected.
    TargetReached,
    /// The kill switch was flipped.
    Killed,
    /// The site's query budget ran out.
    BudgetExhausted,
    /// The sampler failed for another reason.
    Failed(SamplerError),
}

/// Progress notifications emitted while a session runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A sample was accepted (carries the sample itself and the running
    /// total — the AJAX live-update payload).
    SampleAccepted {
        /// The accepted sample.
        sample: Sample,
        /// Samples collected so far (including this one).
        collected: usize,
        /// Target count.
        target: usize,
    },
    /// The session stopped.
    Stopped(StopReason),
}

/// Result of a completed session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The collected samples (possibly fewer than the target).
    pub samples: SampleSet,
    /// Why the session ended.
    pub reason: StopReason,
    /// Final sampler statistics.
    pub stats: SamplerStats,
}

/// An incremental sampling run with kill switch, progress events and
/// streaming [`SampleSink`] observers.
pub struct SamplingSession {
    target: usize,
    kill: Arc<AtomicBool>,
}

impl SamplingSession {
    /// Session targeting `target` samples.
    pub fn new(target: usize) -> Self {
        SamplingSession {
            target,
            kill: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Handle that stops the session from another thread (the demo UI's
    /// kill switch).
    pub fn kill_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.kill)
    }

    /// Drive `sampler` until the target, the kill switch, or an error.
    /// `on_event` observes progress.
    pub fn run<S: Sampler>(
        &self,
        sampler: &mut S,
        on_event: impl FnMut(&SessionEvent),
    ) -> SessionOutcome {
        self.run_observed(sampler, &mut [], on_event)
    }

    /// [`SamplingSession::run`], additionally streaming every accepted
    /// sample into `sinks` at the moment it is collected. The sinks' final
    /// state describes exactly the outcome's sample set, in order.
    pub fn run_observed<S: Sampler>(
        &self,
        sampler: &mut S,
        sinks: &mut [&mut dyn SampleSink],
        mut on_event: impl FnMut(&SessionEvent),
    ) -> SessionOutcome {
        let mut samples = SampleSet::new();
        let reason = loop {
            if samples.len() >= self.target {
                break StopReason::TargetReached;
            }
            if self.kill.load(Ordering::Relaxed) {
                break StopReason::Killed;
            }
            match sampler.next_sample() {
                Ok(s) => {
                    let collected = samples.len() + 1;
                    let stats = sampler.stats();
                    observe_all(
                        sinks,
                        &SampleEvent {
                            sample: &s,
                            site: 0,
                            walker: 0,
                            collected,
                            target: self.target,
                            queries: stats.queries_issued,
                            requests: stats.requests,
                        },
                    );
                    on_event(&SessionEvent::SampleAccepted {
                        sample: s.clone(),
                        collected,
                        target: self.target,
                    });
                    samples.push(s);
                }
                Err(SamplerError::BudgetExhausted { .. }) => {
                    break StopReason::BudgetExhausted;
                }
                Err(e) => break StopReason::Failed(e),
            }
        };
        on_event(&SessionEvent::Stopped(reason.clone()));
        SessionOutcome {
            samples,
            reason,
            stats: sampler.stats(),
        }
    }

    /// Parallel variant: spawn `workers` samplers built by `make_sampler`
    /// (one per thread, typically sharing an `Arc`'d executor/cache) and
    /// merge their samples until the global target is met.
    ///
    /// Ordering of the merged samples is nondeterministic; the *set* is
    /// reproducible only under a single worker. The outcome's stats merge
    /// every worker's counters ([`SamplerStats::merge_worker`]):
    /// sampler-local counters sum, the executor-view counters take the max
    /// (exact when the workers share one executor). `accepted` counts
    /// samples *produced*, which can exceed the collected set when workers
    /// overshoot the target before the kill switch reaches them.
    pub fn run_parallel<S, F>(&self, workers: usize, make_sampler: F) -> SessionOutcome
    where
        S: Sampler,
        F: Fn(usize) -> S + Sync,
    {
        assert!(workers >= 1, "need at least one worker");
        let (tx, rx) = crossbeam::channel::unbounded::<Result<Sample, SamplerError>>();
        let kill = &self.kill;
        // Run-local stop flag. Workers are told to wind down through this,
        // *never* by storing into the user-facing kill switch: the session
        // (and every `kill_switch()` handle a UI holds) must stay reusable
        // for another run, and a latched kill switch would make every later
        // run return 0 samples as `Killed`.
        let stop = AtomicBool::new(false);
        let stop = &stop;
        let target = self.target;

        let mut samples = SampleSet::new();
        let mut reason = StopReason::TargetReached;
        let mut merged_stats = SamplerStats::default();

        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let tx = tx.clone();
                let make_sampler = &make_sampler;
                handles.push(scope.spawn(move |_| {
                    let mut sampler = make_sampler(w);
                    loop {
                        if stop.load(Ordering::Relaxed) || kill.load(Ordering::Relaxed) {
                            break;
                        }
                        let out = sampler.next_sample();
                        let is_err = out.is_err();
                        if tx.send(out).is_err() || is_err {
                            break;
                        }
                    }
                    drop(tx);
                    sampler.stats()
                }));
            }
            drop(tx);

            while samples.len() < target {
                match rx.recv() {
                    Ok(Ok(s)) => samples.push(s),
                    Ok(Err(SamplerError::BudgetExhausted { .. })) => {
                        reason = StopReason::BudgetExhausted;
                        break;
                    }
                    Ok(Err(e)) => {
                        reason = StopReason::Failed(e);
                        break;
                    }
                    Err(_) => {
                        reason = StopReason::Failed(SamplerError::Config(
                            "all workers exited before reaching the target".into(),
                        ));
                        break;
                    }
                }
            }
            if self.kill.load(Ordering::Relaxed) && samples.len() < target {
                reason = StopReason::Killed;
            }
            // Stop workers, then collect each worker's final counters.
            stop.store(true, Ordering::Relaxed);
            for handle in handles {
                let worker_stats = handle.join().expect("worker panicked");
                merged_stats.merge_worker(&worker_stats);
            }
            while rx.try_recv().is_ok() {}
        })
        .expect("worker panicked");

        SessionOutcome {
            samples,
            reason,
            stats: merged_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplerConfig;
    use crate::executor::DirectExecutor;
    use crate::hds::HdsSampler;
    use hdsampler_workload::figure1_db;

    #[test]
    fn runs_to_target_with_events() {
        let db = figure1_db(1);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(1)).unwrap();
        let session = SamplingSession::new(25);
        let mut accepted_events = 0;
        let out = session.run(&mut s, |e| {
            if matches!(e, SessionEvent::SampleAccepted { .. }) {
                accepted_events += 1;
            }
        });
        assert_eq!(out.reason, StopReason::TargetReached);
        assert_eq!(out.samples.len(), 25);
        assert_eq!(accepted_events, 25);
        assert_eq!(out.stats.accepted, 25);
    }

    #[test]
    fn kill_switch_stops_early() {
        let db = figure1_db(1);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(2)).unwrap();
        let session = SamplingSession::new(1_000_000);
        let kill = session.kill_switch();
        let mut n = 0;
        let out = session.run(&mut s, |e| {
            if matches!(e, SessionEvent::SampleAccepted { .. }) {
                n += 1;
                if n == 10 {
                    kill.store(true, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(out.reason, StopReason::Killed);
        assert_eq!(out.samples.len(), 10, "stops at the kill point");
    }

    #[test]
    fn budget_exhaustion_yields_partial_results() {
        use hdsampler_hidden_db::HiddenDb;
        use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(std::sync::Arc::clone(&schema))
            .result_limit(1)
            .query_budget(30);
        for vals in [[0u16, 0], [0, 1], [1, 0], [1, 1]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        let db = b.finish();
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(3)).unwrap();
        let session = SamplingSession::new(10_000);
        let out = session.run(&mut s, |_| {});
        assert_eq!(out.reason, StopReason::BudgetExhausted);
        assert!(!out.samples.is_empty(), "partial results survive");
        assert!(out.samples.len() < 10_000);
    }

    #[test]
    fn session_is_reusable_after_run_parallel() {
        // Regression: `run_parallel` used to stop its workers by latching
        // `self.kill` to true and never resetting it, so a second
        // `run`/`run_parallel` on the same session returned 0 samples with
        // `StopReason::Killed` — and every `kill_switch()` Arc handed to a
        // UI read as permanently tripped.
        use crate::history::CachingExecutor;
        let db = figure1_db(1);
        let exec = Arc::new(CachingExecutor::new(&db));
        let session = SamplingSession::new(20);
        let kill = session.kill_switch();

        let first = session.run_parallel(3, |w| {
            HdsSampler::new(Arc::clone(&exec), SamplerConfig::seeded(500 + w as u64))
                .expect("valid config")
        });
        assert_eq!(first.reason, StopReason::TargetReached);
        assert_eq!(first.samples.len(), 20);
        assert!(
            !kill.load(Ordering::Relaxed),
            "finishing a run must not trip the user-facing kill switch"
        );

        // Same session object, second parallel run: must reach the target
        // again instead of dying instantly as Killed.
        let second = session.run_parallel(3, |w| {
            HdsSampler::new(Arc::clone(&exec), SamplerConfig::seeded(900 + w as u64))
                .expect("valid config")
        });
        assert_eq!(second.reason, StopReason::TargetReached);
        assert_eq!(second.samples.len(), 20);

        // And the single-threaded entry point still works on it too.
        let mut s = HdsSampler::new(Arc::clone(&exec), SamplerConfig::seeded(7)).unwrap();
        let third = session.run(&mut s, |_| {});
        assert_eq!(third.reason, StopReason::TargetReached);
        assert_eq!(third.samples.len(), 20);

        // The kill switch itself still functions after all that.
        kill.store(true, Ordering::Relaxed);
        let killed = session.run(&mut s, |_| {});
        assert_eq!(killed.reason, StopReason::Killed);
    }

    #[test]
    fn observed_run_streams_every_collected_sample() {
        use crate::sink::{SampleSetSink, SampleSink as _};
        let db = figure1_db(1);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(4)).unwrap();
        let session = SamplingSession::new(30);
        let mut collector = SampleSetSink::new();
        let mut events = Vec::new();
        let out = {
            let mut sinks: Vec<&mut dyn crate::sink::SampleSink> = vec![&mut collector];
            session.run_observed(&mut s, &mut sinks, |e| {
                if let SessionEvent::SampleAccepted {
                    sample, collected, ..
                } = e
                {
                    events.push((sample.row.key, *collected));
                }
            })
        };
        assert_eq!(out.reason, StopReason::TargetReached);
        // The sink saw exactly the collected set, in order.
        assert_eq!(collector.set().keys(), out.samples.keys());
        // The session event carries the sample payload and running count.
        assert_eq!(
            events,
            out.samples
                .keys()
                .into_iter()
                .zip(1..=30)
                .collect::<Vec<_>>()
        );
        // fork/merge of the set sink concatenates.
        let forked = collector.fork();
        collector.merge(forked);
        assert_eq!(collector.set().len(), 30);
    }

    #[test]
    fn parallel_session_reaches_target_on_shared_cache() {
        use crate::executor::QueryExecutor as _;
        use crate::history::CachingExecutor;
        let db = figure1_db(1);
        let exec = Arc::new(CachingExecutor::new(&db));
        let session = SamplingSession::new(60);
        let out = session.run_parallel(4, |w| {
            HdsSampler::new(Arc::clone(&exec), SamplerConfig::seeded(100 + w as u64))
                .expect("valid config")
        });
        assert_eq!(out.reason, StopReason::TargetReached);
        assert_eq!(out.samples.len(), 60);
        // All sampled rows are genuine database tuples.
        for row in out.samples.rows() {
            assert!(db.oracle().tuple_by_key(row.key).is_some());
        }
        // Merged worker stats are real counters, not approximations:
        // every collected sample was produced by some worker, and the
        // shared-executor charge figure matches the executor exactly.
        assert!(out.stats.accepted >= out.samples.len() as u64);
        assert!(out.stats.walks >= out.stats.accepted);
        assert_eq!(out.stats.queries_issued, exec.queries_issued());
        assert_eq!(out.stats.requests, exec.requests());
    }
}
