//! The counting wrapper must not change what a replay computes: replays
//! through `CountingSet` serialize byte-identical to replays of the bare
//! `InternedSet` under all five schedulers, so the traced run measures
//! the same program as the untraced one.

use std::sync::Arc;

use addict_bench::job::total_events_interned;
use addict_core::algorithm1::find_migration_points_interned;
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_perfbench::counting::CountingSet;
use addict_trace::{InternedWorkload, SlicePool};
use addict_workloads::{collect_traces_interned_chunked, Benchmark};

fn interned(bench: Benchmark, n: usize, seed: u64) -> InternedWorkload {
    let (mut engine, mut runner) = bench.setup_small();
    let mut pool = SlicePool::new();
    let xcts =
        collect_traces_interned_chunked(&mut engine, runner.as_mut(), n, seed, &mut pool, 16);
    InternedWorkload {
        name: runner.name().to_owned(),
        xct_type_names: runner.xct_type_names(),
        pool: Arc::new(pool),
        xcts,
    }
}

#[test]
fn wrapped_replays_serialize_byte_identical() {
    let cfg = ReplayConfig::paper_default();
    for bench in [Benchmark::TpcB, Benchmark::TpcC, Benchmark::YcsbA] {
        let profile = interned(bench, 40, 1);
        let eval = interned(bench, 60, 2);
        let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);
        let set = eval.as_set();
        let events = total_events_interned(&eval);
        for kind in SchedulerKind::ALL {
            let bare = run_scheduler(kind, &set, Some(&map), &cfg);
            let wrapped = CountingSet::new(&set);
            let through = run_scheduler(kind, &wrapped, Some(&map), &cfg);
            assert_eq!(
                format!("{bare:#?}"),
                format!("{through:#?}"),
                "{}/{}: wrapper changed the replay",
                bench.name(),
                kind.name()
            );
            let r = wrapped.report();
            assert!(r.fetches > 0 && r.run_blocks > 0 && r.events > 0);
            // HTMX steps data events one at a time instead of in runs.
            assert_eq!(r.data_accesses == 0, kind == SchedulerKind::Htmx);
            assert!(r.data_runs <= r.data_accesses);
            assert!(r.self_ns >= 0.0);
            // Every block-granular event is consumed at least once (HTMX
            // re-executes aborted regions).
            assert!(
                r.run_blocks + r.events >= events,
                "{}/{}: consumed {} + {} of {events} events",
                bench.name(),
                kind.name(),
                r.run_blocks,
                r.events
            );
        }
    }
}
