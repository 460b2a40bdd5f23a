//! Work-count regression gate for the miss-budgeted instruction walk.
//!
//! STREX and SLICC act only at their threshold-th L1-I miss, so the
//! segment engine lets the machine absorb the misses before it
//! ([`Policy::miss_budget`](addict_core::replay::Policy::miss_budget)).
//! Stopping the walk at every miss instead re-fetches the trace once per
//! miss — ~7-11x Baseline's trace reads on TPC-C. Trace reads are a
//! deterministic count, so this gate holds on any host, however noisy.

use std::cell::Cell;

use addict_core::algorithm1::find_migration_points;
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::SimConfig;
use addict_trace::event::FlatEvent;
use addict_trace::set::{DataRun, Fetched, TraceSet};
use addict_trace::XctTypeId;
use addict_workloads::{collect_traces, Benchmark};

/// Forwards every call to `inner`, counting [`TraceSet::fetch`] calls.
/// The defaulted methods forward too, so only the engine's own fetches
/// are counted.
struct CountingSet<'a, T: ?Sized> {
    inner: &'a T,
    fetches: Cell<u64>,
}

impl<T: TraceSet + ?Sized> TraceSet for CountingSet<'_, T> {
    type Cursor = T::Cursor;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn xct_type(&self, idx: usize) -> XctTypeId {
        self.inner.xct_type(idx)
    }

    fn instructions_of(&self, idx: usize) -> u64 {
        self.inner.instructions_of(idx)
    }

    fn fetch(&self, idx: usize, cur: Self::Cursor) -> Fetched {
        self.fetches.set(self.fetches.get() + 1);
        self.inner.fetch(idx, cur)
    }

    fn advance_run(&self, idx: usize, cur: &mut Self::Cursor, rem: u16, k: u16) {
        self.inner.advance_run(idx, cur, rem, k);
    }

    fn advance_event(&self, idx: usize, cur: &mut Self::Cursor, ev: FlatEvent) {
        self.inner.advance_event(idx, cur, ev);
    }

    fn gather_data_run(&self, idx: usize, cur: Self::Cursor, run: &mut DataRun) -> usize {
        self.inner.gather_data_run(idx, cur, run)
    }

    fn prefetch(&self, idx: usize) {
        self.inner.prefetch(idx);
    }

    fn advance_data_run(&self, idx: usize, cur: &mut Self::Cursor, k: usize) {
        self.inner.advance_data_run(idx, cur, k);
    }
}

#[test]
fn miss_driven_schedulers_fetch_like_baseline() {
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let eval = collect_traces(&mut engine, workload.as_mut(), 48, 2);
    let cfg = ReplayConfig {
        sim: SimConfig::paper_default().with_cores(8),
        ..ReplayConfig::paper_default()
    }
    .with_batch_size(8);
    let map = find_migration_points(&eval.xcts, cfg.sim.l1i);
    let fetches = |kind: SchedulerKind| -> (u64, u64) {
        let set = CountingSet {
            inner: eval.xcts.as_slice(),
            fetches: Cell::new(0),
        };
        let r = run_scheduler(kind, &set, Some(&map), &cfg);
        (set.fetches.get(), r.stats.l1i_misses())
    };
    let (baseline, _) = fetches(SchedulerKind::Baseline);
    for kind in [SchedulerKind::Strex, SchedulerKind::Slicc] {
        let (n, misses) = fetches(kind);
        assert!(
            n <= 2 * baseline,
            "{kind:?} made {n} trace fetches against Baseline's {baseline} \
             ({misses} L1-I misses): the walk stops at misses the policy ignores"
        );
    }
}
