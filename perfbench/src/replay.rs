//! Timed replay rounds over one or more replay units, untraced (the
//! end-to-end run) or traced (the per-layer run).
//!
//! A round replays every unit under every scheduler, schedulers
//! interleaved (ABCDE ABCDE ...), so minute-scale host drift hits all of
//! them alike. Two worker threads pull the jobs of consecutive rounds
//! from one queue, like a two-thread `run_grid` sweep, so both of the
//! host's cores stay busy: on the 2-core host the benchmark was tuned on,
//! per-replay on-CPU time spread over 10 s phases fell from ~10 % to ~4 %
//! (IQR / median) with both cores busy, since an idle core lets other
//! tenants' work share the replay's core. Every replay's `result_fnv64`
//! digest is checked against the unit's reference digests.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use addict_core::algorithm1::MigrationMap;
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::MachineStats;
use addict_trace::InternedSet;

use crate::counting::{CountingSet, DecodeReport};
use crate::machine_drive::{drive, MachineCost};
use crate::measure::{result_digest, timed, Op};
use crate::spans::Spans;

/// Worker threads of the timed phase: two, or one on a 1-core host.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One replayable input with its expected digests.
#[derive(Debug)]
pub struct Unit<'a> {
    /// Label for logs.
    pub label: String,
    /// The traces replayed.
    pub set: InternedSet<'a>,
    /// Algorithm 1's map for ADDICT.
    pub map: &'a MigrationMap,
    /// Block-granular events in `set`.
    pub events: u64,
    /// Expected digest per scheduler, in [`SchedulerKind::ALL`] order.
    pub reference: Vec<u64>,
}

/// `(round, job, result)` of every job run by [`run_rounds`].
pub type Rounds<R> = Vec<(usize, usize, R)>;

/// Run rounds of `per_round` jobs on [`workers`] threads until `seconds`
/// have passed, finishing the round in flight. `work(spans, round, job)`
/// runs one job on the calling worker. Returns `(round, job, result)`
/// for every job of rounds `0..n` (all complete), sorted, plus the wall seconds
/// of the phase. Each worker records spans in its own recorder; they are
/// merged into `spans` at the end.
pub fn run_rounds<R: Send>(
    per_round: usize,
    seconds: f64,
    spans: &mut Spans,
    work: impl Fn(&mut Spans, usize, usize) -> Result<R, String> + Sync,
) -> Result<(Rounds<R>, f64), String> {
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    type Worker<R> = Result<(Rounds<R>, Spans), String>;
    let per_thread: Vec<Worker<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers())
            .map(|_| {
                let mut sp = spans.fork();
                let (next, limit, work) = (&next, &limit, &work);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, SeqCst);
                        if k >= limit.load(SeqCst) {
                            return Ok((out, sp));
                        }
                        if start.elapsed() >= deadline {
                            limit.fetch_min((k / per_round + 1) * per_round, SeqCst);
                        }
                        match work(&mut sp, k / per_round, k % per_round) {
                            Ok(r) => out.push((k / per_round, k % per_round, r)),
                            Err(e) => {
                                limit.store(0, SeqCst);
                                return Err(e);
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for w in per_thread {
        let (out, sp) = w?;
        all.extend(out);
        spans.merge(sp);
    }
    all.sort_by_key(|&(round, job, _)| (round, job));
    // Keep the prefix of complete rounds (a job claimed in the instant the
    // limit was being set may belong to a later, incomplete round).
    let complete = (0..)
        .take_while(|&r| all.iter().filter(|&&(rr, _, _)| rr == r).count() == per_round)
        .count();
    all.retain(|&(r, _, _)| r < complete);
    if all.is_empty() {
        return Err("no complete round".to_owned());
    }
    Ok((all, wall_s))
}

/// One timed replay.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Round number.
    pub round: usize,
    /// Index into [`SchedulerKind::ALL`].
    pub sched: usize,
    /// Index of the unit.
    pub unit: usize,
    /// Host cost.
    pub op: Op,
    /// Digest matched the reference.
    pub ok: bool,
}

/// Output of [`untraced`].
#[derive(Debug)]
pub struct Untraced {
    /// Every timed replay of every complete round, in round order.
    pub reps: Vec<Rep>,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
}

fn check(r: &ReplayResult, unit: &Unit<'_>, si: usize) -> bool {
    result_digest(r) == unit.reference[si]
}

/// Replay rounds (every scheduler x every unit) until `seconds` have
/// passed.
pub fn untraced(units: &[Unit<'_>], seconds: f64) -> Result<Untraced, String> {
    let cfg = ReplayConfig::paper_default();
    let mut quiet = Spans::new(false, Instant::now());
    let per_round = SchedulerKind::ALL.len() * units.len();
    let (jobs, wall_s) = run_rounds(per_round, seconds, &mut quiet, |_, round, job| {
        let (si, ui) = (job / units.len(), job % units.len());
        let unit = &units[ui];
        let kind = SchedulerKind::ALL[si];
        let (r, op) = timed(|| run_scheduler(kind, &unit.set, Some(unit.map), &cfg))?;
        Ok(Rep {
            round,
            sched: si,
            unit: ui,
            op,
            ok: check(&r, unit, si),
        })
    })?;
    Ok(Untraced {
        reps: jobs.into_iter().map(|(_, _, rep)| rep).collect(),
        wall_s,
    })
}

/// Per-scheduler output of [`traced`].
#[derive(Debug, Clone)]
pub struct SchedLayers {
    /// Untraced replay on-CPU seconds per round (summed over units).
    pub cpu_s: Vec<f64>,
    /// Untraced replay run-queue wait seconds per round.
    pub wait_s: Vec<f64>,
    /// Traced replay on-CPU seconds per round.
    pub traced_cpu_s: Vec<f64>,
    /// Decode self seconds per round (traced replays).
    pub decode_self_s: Vec<f64>,
    /// Decode counts of one round, summed over units.
    pub counts: DecodeReport,
    /// Machine statistics of one round, units' cores concatenated.
    pub stats: MachineStats,
    /// HTM regions begun in one round.
    pub htm_begins: u64,
    /// HTM regions committed in one round.
    pub htm_commits: u64,
}

/// Output of [`traced`].
#[derive(Debug)]
pub struct Traced {
    /// One entry per scheduler, [`SchedulerKind::ALL`] order.
    pub scheds: Vec<SchedLayers>,
    /// Machine-layer cost per round.
    pub machine: Vec<MachineCost>,
    /// Replays attempted (untraced and traced alike).
    pub attempted: u64,
    /// Replays whose digest did not match.
    pub failed: u64,
}

/// One traced job's outcome.
enum Job {
    /// An untraced and a traced replay of one unit under one scheduler.
    Pair {
        sched: usize,
        untraced: Op,
        traced: Op,
        report: DecodeReport,
        result: Box<ReplayResult>,
        ok: [bool; 2],
    },
    /// One machine-layer pass over every unit.
    Machine(MachineCost),
}

/// The traced run: rounds until `seconds` have passed. A round replays
/// every unit under each scheduler untraced and then through a
/// [`CountingSet`] (one job per pair), plus one machine-layer pass over
/// every unit. Spans wrap each replay and machine pass.
pub fn traced(units: &[Unit<'_>], seconds: f64, spans: &mut Spans) -> Result<Traced, String> {
    let cfg = ReplayConfig::paper_default();
    let pairs = SchedulerKind::ALL.len() * units.len();
    let (jobs, _) = run_rounds(pairs + 1, seconds, spans, |sp, _, job| {
        if job == pairs {
            let sim = cfg.sim.clone();
            let costs = sp.span("sim.machine", |_| {
                units
                    .iter()
                    .map(|u| drive(&u.set, &sim))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            return Ok(Job::Machine(combine_costs(&costs)));
        }
        let (si, unit) = (job / units.len(), &units[job % units.len()]);
        let kind = SchedulerKind::ALL[si];
        let name = format!("core.replay.{}", kind.id());
        let (r, untraced) = sp.span(&name, |_| {
            timed(|| run_scheduler(kind, &unit.set, Some(unit.map), &cfg))
        })?;
        let ok0 = check(&r, unit, si);
        let wrapped = CountingSet::new(&unit.set);
        let (r, traced) = sp.span(&format!("{name}.traced"), |_| {
            timed(|| run_scheduler(kind, &wrapped, Some(unit.map), &cfg))
        })?;
        Ok(Job::Pair {
            sched: si,
            untraced,
            traced,
            report: wrapped.report(),
            ok: [ok0, check(&r, unit, si)],
            result: Box::new(r),
        })
    })?;

    let rounds = jobs.iter().map(|&(r, _, _)| r).max().map_or(0, |m| m + 1);
    let mut scheds: Vec<SchedLayers> = SchedulerKind::ALL
        .iter()
        .map(|_| SchedLayers {
            cpu_s: vec![0.0; rounds],
            wait_s: vec![0.0; rounds],
            traced_cpu_s: vec![0.0; rounds],
            decode_self_s: vec![0.0; rounds],
            counts: DecodeReport::default(),
            stats: MachineStats::new(0),
            htm_begins: 0,
            htm_commits: 0,
        })
        .collect();
    let (mut machine, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    for (round, _, job) in jobs {
        match job {
            Job::Machine(cost) => machine.push(cost),
            Job::Pair {
                sched,
                untraced,
                traced,
                report,
                result,
                ok,
            } => {
                attempted += 2;
                failed += ok.iter().filter(|&&o| !o).count() as u64;
                let l = &mut scheds[sched];
                l.cpu_s[round] += untraced.cpu_s();
                l.wait_s[round] += untraced.wait_ns as f64 * 1e-9;
                l.traced_cpu_s[round] += traced.cpu_s();
                l.decode_self_s[round] += report.self_ns * 1e-9;
                if round == 0 {
                    l.counts.add(&report);
                    l.stats.cores.extend(result.stats.cores.iter().cloned());
                    l.htm_begins += result.spec.begins;
                    l.htm_commits += result.spec.commits;
                }
            }
        }
    }
    Ok(Traced {
        scheds,
        machine,
        attempted,
        failed,
    })
}

fn combine_costs(costs: &[MachineCost]) -> MachineCost {
    let blocks: u64 = costs.iter().map(|c| c.blocks).sum();
    let accesses: u64 = costs.iter().map(|c| c.accesses).sum();
    let instr_ns: f64 = costs
        .iter()
        .map(|c| c.instr_ns_per_block * c.blocks as f64)
        .sum();
    let data_ns: f64 = costs
        .iter()
        .map(|c| c.data_ns_per_access * c.accesses as f64)
        .sum();
    MachineCost {
        instr_ns_per_block: instr_ns / blocks as f64,
        data_ns_per_access: data_ns / accesses as f64,
        blocks,
        accesses,
    }
}
