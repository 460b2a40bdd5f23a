//! Workload inputs: seeds, the batch workloads' set-up, and the replay
//! digests their outputs are checked against.

use std::sync::Arc;

use addict_bench::job::total_events_interned;
use addict_bench::{run_grid, DEFAULT_GEN_CHUNK};
use addict_core::algorithm1::{find_migration_points_interned, MigrationMap};
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_storage::Engine;
use addict_trace::{InternedWorkload, SlicePool, TraceSet};
use addict_workloads::{collect_traces_interned_chunked, tpcb, Benchmark, WorkloadRunner};

use crate::measure::{fnv64, result_digest};
use crate::spans::Spans;

/// Digests of every replay at the default seed, made by `--make-digests`
/// and cross-checked then against the per-block reference path over
/// flat traces. Lines: `workload seed scheduler fnv64`.
const DIGEST_TABLE: &str = include_str!("../digests.tsv");

/// The seed used when `--seed` is not given: it maps to the harness's
/// `PROFILE_SEED` / `EVAL_SEED` pair.
pub const DEFAULT_SEED: u64 = 1;

/// Trace-stream seeds derived from the benchmark's `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The `--seed` argument.
    pub arg: u64,
    /// Profiling range seed: `2 * arg - 1`.
    pub profile: u64,
    /// Evaluation range seed: `2 * arg`.
    pub eval: u64,
}

impl Seeds {
    /// Disjoint profile/eval seeds for `--seed arg`; `arg = 1` gives the
    /// harness defaults (1, 2).
    pub fn new(arg: u64) -> Self {
        Seeds {
            arg,
            profile: arg.wrapping_mul(2).wrapping_sub(1),
            eval: arg.wrapping_mul(2),
        }
    }
}

/// The two replay-grid workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// TPC-C, 400 profile + 1000 eval transactions, default scale.
    TpccGrid,
    /// TPC-B, 400 profile + 10 000 eval transactions, 16 000 accounts.
    TpcbScale,
}

/// TPC-B population of `tpcb-scale`: 16 branches x 1 000 accounts, one
/// eighth of the default. Population is quadratic in rows inserted by
/// one transaction, and the default 128 000 accounts take 15-30 s per
/// engine, too long to set up several times per run.
pub const TPCB_SCALE: tpcb::TpcBConfig = tpcb::TpcBConfig {
    branches: 16,
    tellers_per_branch: 10,
    accounts_per_branch: 1_000,
};

impl Batch {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Batch::TpccGrid => "tpcc-grid",
            Batch::TpcbScale => "tpcb-scale",
        }
    }

    /// Profiling transactions.
    pub fn n_profile(self) -> usize {
        400
    }

    /// Evaluation transactions.
    pub fn n_eval(self) -> usize {
        match self {
            Batch::TpccGrid => 1_000,
            Batch::TpcbScale => 10_000,
        }
    }

    /// Build and populate one storage engine.
    fn populate(self) -> (Engine, Box<dyn WorkloadRunner>) {
        match self {
            Batch::TpccGrid => Benchmark::TpcC.setup(),
            Batch::TpcbScale => {
                let (e, w) = tpcb::TpcB::setup(TPCB_SCALE);
                (e, Box::new(w))
            }
        }
    }
}

/// Generate one trace range on a fresh engine through the streamed
/// generate-and-intern pipeline, with spans around the two layer calls.
pub fn generate_range(
    populate: Populate<'_>,
    n: usize,
    seed: u64,
    spans: &mut Spans,
) -> InternedWorkload {
    let (mut engine, mut runner) = spans.span("storage.populate", |_| populate());
    let mut pool = SlicePool::new();
    let xcts = spans.span("workloads.collect", |_| {
        collect_traces_interned_chunked(
            &mut engine,
            runner.as_mut(),
            n,
            seed,
            &mut pool,
            DEFAULT_GEN_CHUNK,
        )
    });
    InternedWorkload {
        name: runner.name().to_owned(),
        xct_type_names: runner.xct_type_names(),
        pool: Arc::new(pool),
        xcts,
    }
}

/// How to build one storage engine and its runner.
pub type Populate<'a> = &'a (dyn Fn() -> (Engine, Box<dyn WorkloadRunner>) + Sync);

/// Generate trace ranges `(populate, n, seed)` on up to two threads
/// through the harness's `run_grid`, one fresh engine per range (the
/// shape of `generate_interned_chunked`), returning the workloads in range
/// order. Each range's spans are merged under the innermost open span of
/// `spans`.
pub fn generate_ranges(
    ranges: &[(Populate<'_>, usize, u64)],
    spans: &mut Spans,
) -> Vec<InternedWorkload> {
    let parent = &*spans;
    let out = run_grid(
        ranges,
        crate::replay::workers(),
        |_, &(populate, n, seed)| {
            let mut sp = parent.fork();
            (generate_range(populate, n, seed, &mut sp), sp)
        },
    );
    out.into_iter()
        .map(|(w, sp)| {
            spans.merge(sp);
            w
        })
        .collect()
}

/// A workload's replay inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Evaluation traces (what is replayed).
    pub eval: InternedWorkload,
    /// Algorithm 1's migration map over the profiling traces.
    pub map: MigrationMap,
    /// Block-granular events in `eval`.
    pub events: u64,
}

impl Inputs {
    /// A digest of everything a set-up produced, to check that repeated
    /// set-ups are identical.
    pub fn fingerprint(&self) -> u64 {
        fnv64(
            format!(
                "{:?}|{}|{}",
                self.eval.footprint(),
                self.events,
                map_points(&self.map)
            )
            .as_bytes(),
        )
    }
}

/// The migration points of `map`, in a deterministic order.
pub fn map_points(map: &MigrationMap) -> String {
    let mut out = String::new();
    for x in map.xct_types() {
        for op in map.ops_of(x) {
            out.push_str(&format!("{x:?}/{op:?}:{:?};", map.points(x, op)));
        }
    }
    out
}

/// Set a batch workload up: profile and eval ranges on fresh engines, in
/// parallel, then Algorithm 1 over the profile.
pub fn set_up(batch: Batch, seeds: Seeds, spans: &mut Spans) -> Inputs {
    spans.span("setup", |sp| {
        let populate = || batch.populate();
        let mut ranges = generate_ranges(
            &[
                (&populate, batch.n_profile(), seeds.profile),
                (&populate, batch.n_eval(), seeds.eval),
            ],
            sp,
        );
        let eval = ranges.pop().expect("two ranges");
        let profile = ranges.pop().expect("two ranges");
        let l1i = ReplayConfig::paper_default().sim.l1i;
        let map = sp.span("core.algorithm1", |_| {
            find_migration_points_interned(profile.as_set(), l1i)
        });
        let events = total_events_interned(&eval);
        Inputs { eval, map, events }
    })
}

/// The per-block reference configuration: both fast paths off.
pub fn reference_config() -> ReplayConfig {
    ReplayConfig {
        segment_exec: false,
        data_run_exec: false,
        ..ReplayConfig::paper_default()
    }
}

/// Committed digests for `(workload, seed)`, one per scheduler in
/// [`SchedulerKind::ALL`] order, if the table has them.
pub fn table_digests(workload: &str, seed: u64) -> Option<Vec<u64>> {
    let rows: Vec<(SchedulerKind, u64)> = DIGEST_TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [w, s, k, d] if w == workload && s.parse() == Ok(seed) => {
                    Some((k.parse().ok()?, u64::from_str_radix(d, 16).ok()?))
                }
                _ => None,
            }
        })
        .collect();
    SchedulerKind::ALL
        .iter()
        .map(|k| rows.iter().find(|(rk, _)| rk == k).map(|&(_, d)| d))
        .collect()
}

/// Digests of all five schedulers replayed over `set` with `cfg`, two
/// schedulers at a time (outside any timed region).
pub fn digests_of<T: TraceSet + Sync + ?Sized>(
    set: &T,
    map: &MigrationMap,
    cfg: &ReplayConfig,
) -> Vec<u64> {
    run_grid(&SchedulerKind::ALL, crate::replay::workers(), |_, &k| {
        result_digest(&run_scheduler(k, set, Some(map), cfg))
    })
}

/// Reference digests for a batch workload: the committed table at a
/// seed it covers, else the per-block reference path over the interned
/// traces.
pub fn reference_digests(workload: &str, seeds: Seeds, inputs: &Inputs) -> Vec<u64> {
    table_digests(workload, seeds.arg)
        .unwrap_or_else(|| digests_of(&inputs.eval.as_set(), &inputs.map, &reference_config()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_harness_pair() {
        let s = Seeds::new(DEFAULT_SEED);
        assert_eq!(s.profile, addict_bench::PROFILE_SEED);
        assert_eq!(s.eval, addict_bench::EVAL_SEED);
        let z = Seeds::new(0);
        assert_ne!(z.profile, z.eval);
    }

    #[test]
    fn table_covers_the_default_seed() {
        for w in [
            "tpcc-grid",
            "tpcb-scale",
            "service-ycsba",
            "service-ycsbb",
            "service-tatp",
        ] {
            assert!(table_digests(w, DEFAULT_SEED).is_some(), "{w}");
        }
        assert!(table_digests("tpcc-grid", 12345).is_none());
    }
}
