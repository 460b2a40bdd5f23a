//! Fast-path replay must be *observationally identical* to the per-block,
//! per-event reference path: byte-identical `MachineStats`, makespan, and
//! per-transaction latencies for all five schedulers — on generated
//! transaction mixes and, via the full matrix gate below, on real trace
//! sets from **every registry benchmark**, in **both storage layouts**
//! (flat and interned), with segment-granular instruction execution and
//! run-granular data execution toggled independently.
//!
//! The engine guarantees bit-equality (not approximate equality): the fast
//! paths accumulate per-block `f64` charges in the same order as the
//! reference path (data-run hits charge a bitwise +0.0, exactly what the
//! per-event path adds), so even floating-point totals match exactly. Any
//! divergence is a bug in a fast path, not rounding.

use addict_core::algorithm1::find_migration_points;
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::{BlockAddr, SimConfig};
use addict_trace::{InternedWorkload, OpKind, TraceEvent, XctTrace, XctTypeId};
use addict_workloads::{collect_traces, Benchmark};
use proptest::prelude::*;

/// The four execution-mode combinations: (segment_exec, data_run_exec).
/// `(false, false)` is the reference per-block, per-event path.
const MODES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn with_modes(cfg: &ReplayConfig, segment: bool, data_run: bool) -> ReplayConfig {
    ReplayConfig {
        segment_exec: segment,
        data_run_exec: data_run,
        ..cfg.clone()
    }
}

/// Assert two replays are bit-identical in every observable field.
fn assert_identical(fast: &ReplayResult, reference: &ReplayResult, what: &str) {
    assert_eq!(fast.stats, reference.stats, "{what}: MachineStats diverged");
    assert_eq!(
        fast.total_cycles.to_bits(),
        reference.total_cycles.to_bits(),
        "{what}: makespan diverged ({} vs {})",
        fast.total_cycles,
        reference.total_cycles
    );
    assert_eq!(
        fast.avg_latency_cycles.to_bits(),
        reference.avg_latency_cycles.to_bits(),
        "{what}: mean latency diverged"
    );
    assert_eq!(fast.latencies.len(), reference.latencies.len());
    for (i, (s, f)) in fast.latencies.iter().zip(&reference.latencies).enumerate() {
        assert_eq!(
            s.to_bits(),
            f.to_bits(),
            "{what}: latency of transaction {i} diverged ({s} vs {f})"
        );
    }
    assert_eq!(fast.power, reference.power, "{what}: power report diverged");
    assert_eq!(fast.instructions, reference.instructions);
}

/// Run one scheduler in all four mode combinations and assert every fast
/// combination reproduces the reference path bit-for-bit.
fn assert_equivalent(kind: SchedulerKind, traces: &[XctTrace], cfg: &ReplayConfig) {
    let map = find_migration_points(traces, cfg.sim.l1i);
    let run = |(segment, data_run): (bool, bool)| -> ReplayResult {
        run_scheduler(
            kind,
            traces,
            Some(&map),
            &with_modes(cfg, segment, data_run),
        )
    };
    let reference = run(MODES[0]);
    for mode in &MODES[1..] {
        let fast = run(*mode);
        assert_identical(
            &fast,
            &reference,
            &format!("{kind:?} (segment={}, data_run={})", mode.0, mode.1),
        );
    }
}

/// A transaction with multi-block instruction runs interleaved with data
/// touches — the shape that exercises run splitting, watched blocks, and
/// mid-run yields/migrations.
fn arb_trace() -> impl Strategy<Value = XctTrace> {
    let op = prop_oneof![
        Just(OpKind::Probe),
        Just(OpKind::Scan),
        Just(OpKind::Update),
        Just(OpKind::Insert),
    ];
    (
        0u16..3,
        prop::collection::vec((op, 1u16..80, 0u64..4, 0u8..7), 1..6),
    )
        .prop_map(|(ty, ops)| {
            let mut events = vec![TraceEvent::XctBegin {
                xct_type: XctTypeId(ty),
            }];
            for (kind, blocks, base_sel, data) in ops {
                events.push(TraceEvent::OpBegin { op: kind });
                events.push(TraceEvent::Instr {
                    block: BlockAddr(0x1000 + base_sel * 0x90),
                    n_blocks: blocks,
                    ipb: 8,
                });
                // Consecutive data events form runs; the `ty % 2` overlap
                // makes different types write the same blocks, so runs hit
                // shared/upgraded blocks mid-stream on multicore replays.
                for d in 0..u64::from(data) {
                    events.push(TraceEvent::Data {
                        block: BlockAddr(0x100_000 + u64::from(ty % 2) * 4 + d),
                        write: d % 2 == 0,
                    });
                }
                events.push(TraceEvent::OpEnd { op: kind });
            }
            events.push(TraceEvent::XctEnd);
            XctTrace {
                xct_type: XctTypeId(ty),
                events,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat/segment equivalence on generated mixes, all five schedulers,
    /// varying core counts and batch sizes. Small STREX/SLICC thresholds
    /// put their miss budgets' expiry mid-run, across several runs, and
    /// at thresholds reached with no peer waiting.
    #[test]
    fn segment_replay_is_bit_identical(
        traces in prop::collection::vec(arb_trace(), 1..16),
        cores in 2usize..8,
        strex_miss_threshold in 1u64..10,
        slicc_fill_threshold in 1u64..10,
    ) {
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(cores),
            strex_miss_threshold,
            slicc_fill_threshold,
            ..ReplayConfig::paper_default()
        }
        .with_batch_size(cores);
        for kind in SchedulerKind::ALL {
            assert_equivalent(kind, &traces, &cfg);
        }
    }

    /// Same equivalence with the next-line L1-I prefetcher enabled (the
    /// machine's per-block fallback inside the segment engine).
    #[test]
    fn segment_replay_matches_with_prefetcher(
        traces in prop::collection::vec(arb_trace(), 1..8),
        strex_miss_threshold in 1u64..10,
        slicc_fill_threshold in 1u64..10,
    ) {
        let mut sim = SimConfig::paper_default().with_cores(4);
        sim.l1i_next_line_prefetch = true;
        let cfg = ReplayConfig {
            sim,
            strex_miss_threshold,
            slicc_fill_threshold,
            ..ReplayConfig::paper_default()
        }
        .with_batch_size(4);
        for kind in SchedulerKind::ALL {
            assert_equivalent(kind, &traces, &cfg);
        }
    }
}

/// The satellite's headline case: a real TPC-C trace set through the full
/// pipeline, equivalent under every scheduler.
#[test]
fn tpcc_segment_replay_is_bit_identical() {
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let eval = collect_traces(&mut engine, workload.as_mut(), 48, 2);
    let cfg = ReplayConfig {
        sim: SimConfig::paper_default().with_cores(8),
        ..ReplayConfig::paper_default()
    }
    .with_batch_size(8);
    for kind in SchedulerKind::ALL {
        assert_equivalent(kind, &eval.xcts, &cfg);
    }
}

/// Canonical byte form of a replay outcome: `Debug` covers every field and
/// renders `f64` shortest-roundtrip, so byte equality is bit equality.
fn serialize(r: &ReplayResult) -> Vec<u8> {
    format!("{r:#?}").into_bytes()
}

/// The full matrix gate: every scheduler × every registry benchmark ×
/// both storage layouts × data runs on/off (with segment execution on, the
/// production configuration) produces `ReplayResult`s byte-identical to
/// the per-block, per-event reference — and the data-access count is
/// single-sourced: `MachineStats::data_accesses` equals the traces' own
/// `Data`-event count on every path, so a miscounted run length can never
/// silently skew `l1d_mpki`.
#[test]
fn data_run_matrix_is_byte_identical_on_all_benchmarks() {
    for bench in Benchmark::ALL {
        let (mut engine, mut workload) = bench.setup_small();
        let profile = collect_traces(&mut engine, workload.as_mut(), 24, 1);
        let eval = collect_traces(&mut engine, workload.as_mut(), 24, 2);
        let interned = InternedWorkload::from_flat(&eval);
        let iset = interned.as_set();
        let trace_data_events: u64 = eval.xcts.iter().map(XctTrace::data_accesses).sum();
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(8),
            ..ReplayConfig::paper_default()
        }
        .with_batch_size(8);
        let map = find_migration_points(&profile.xcts, cfg.sim.l1i);
        for kind in SchedulerKind::ALL {
            let reference = run_scheduler(
                kind,
                &eval.xcts,
                Some(&map),
                &with_modes(&cfg, false, false),
            );
            let reference_bytes = serialize(&reference);
            assert_eq!(
                reference.stats.data_accesses(),
                trace_data_events,
                "{kind:?} on {}: reference path lost/duplicated data accesses",
                bench.name()
            );
            for (segment, data_run) in [(true, false), (true, true), (false, true)] {
                let modes = with_modes(&cfg, segment, data_run);
                let flat = run_scheduler(kind, &eval.xcts, Some(&map), &modes);
                assert_eq!(
                    serialize(&flat),
                    reference_bytes,
                    "{kind:?} on {} (flat, segment={segment}, data_run={data_run}) diverged",
                    bench.name()
                );
                let int = run_scheduler(kind, &iset, Some(&map), &modes);
                assert_eq!(
                    serialize(&int),
                    reference_bytes,
                    "{kind:?} on {} (interned, segment={segment}, data_run={data_run}) diverged",
                    bench.name()
                );
                // Stats single-source guard, both layouts, every mode.
                assert_eq!(flat.stats.data_accesses(), trace_data_events);
                assert_eq!(int.stats.data_accesses(), trace_data_events);
            }
        }
    }
}

/// Replays are reproducible run to run (deterministic `earliest_of`
/// tie-breaking): same inputs, same bits.
#[test]
fn replay_is_deterministic_across_runs() {
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let eval = collect_traces(&mut engine, workload.as_mut(), 32, 2);
    let cfg = ReplayConfig {
        sim: SimConfig::paper_default().with_cores(6),
        ..ReplayConfig::paper_default()
    }
    .with_batch_size(6);
    let map = find_migration_points(&eval.xcts, cfg.sim.l1i);
    for kind in SchedulerKind::ALL {
        let a = run_scheduler(kind, &eval.xcts, Some(&map), &cfg);
        let b = run_scheduler(kind, &eval.xcts, Some(&map), &cfg);
        assert_eq!(a.stats, b.stats, "{kind:?} not reproducible");
        assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.latencies), bits(&b.latencies));
    }
}
