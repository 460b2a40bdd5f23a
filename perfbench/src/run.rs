//! One benchmark run: set-up, reference digests, the timed phase, and
//! the metrics derived from it.

use std::time::Instant;

use addict_bench::TracePool;
use addict_core::algorithm1::{find_migration_points_interned, MigrationMap};
use addict_core::replay::ReplayConfig;
use addict_core::sched::SchedulerKind;
use addict_trace::InternedWorkload;

use crate::inputs::{self, Batch, Seeds};
use crate::measure::{self, median, quantile};
use crate::metrics::Report;
use crate::replay::{self, Unit};
use crate::service::{self, Outcome};
use crate::spans::Spans;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Seconds of the service leg appended to the batch workloads' traced
/// run, so every traced run measures every per-layer metric.
const SERVICE_LEG_S: f64 = 3.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A replay grid (`tpcc-grid`, `tpcb-scale`).
    Batch(Batch),
    /// `service-short`.
    Service,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Batch(Batch::TpccGrid),
        Workload::Batch(Batch::TpcbScale),
        Workload::Service,
    ];

    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch(b) => b.name(),
            Workload::Service => "service-short",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.iter().copied().find(|w| w.name() == name)
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values.
    pub report: Report,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Every check outside the timed operations passed (repeated set-ups
    /// identical, reference digests matched).
    pub checks_ok: bool,
}

/// Run `workload` for `seconds`, traced or not.
pub fn run(
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let spans = Spans::new(trace, Instant::now());
    let (out, spans) = match workload {
        Workload::Batch(b) => run_batch(b, seeds, seconds, spans)?,
        Workload::Service => run_service(seeds, seconds, spans)?,
    };
    if trace {
        let mut err = std::io::stderr().lock();
        spans
            .write_to(&mut err)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

/// Set up `SETUPS` times, checking every set-up reproduces the first.
/// Returns the last inputs, each set-up's wall seconds, and whether they
/// all matched.
fn repeated_setup<T>(
    mut once: impl FnMut(&mut Spans) -> Result<T, String>,
    fingerprint: impl Fn(&T) -> u64,
    spans: &mut Spans,
) -> Result<(T, Vec<f64>, bool), String> {
    let mut walls = Vec::new();
    let mut first = None;
    let mut same = true;
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // free the previous set-up before building the next
        let t = Instant::now();
        let inputs = once(spans)?;
        walls.push(t.elapsed().as_secs_f64());
        let fp = fingerprint(&inputs);
        same &= *first.get_or_insert(fp) == fp;
        last = Some(inputs);
    }
    Ok((last.expect("SETUPS > 0"), walls, same))
}

fn log_ops(untraced: &replay::Untraced, units: &[Unit<'_>]) {
    for r in &untraced.reps {
        eprintln!(
            "op\treplay\t{}\t{}\t{}\twall_ns={}\tcpu_ns={}\twait_ns={}{}",
            SchedulerKind::ALL[r.sched].id(),
            units[r.unit].label,
            r.round,
            r.op.wall_ns,
            r.op.cpu_ns,
            r.op.wait_ns,
            if r.ok { "" } else { "\tDIGEST-MISMATCH" }
        );
    }
}

/// End-to-end replay metrics from untraced rounds: per-round rates
/// (events / on-CPU seconds) with their medians, and replay wall time
/// as the job latency of the batch workloads.
fn replay_e2e(u: &replay::Untraced, units: &[Unit<'_>], report: &mut Report) {
    let rounds = u.reps.iter().map(|r| r.round).max().map_or(0, |m| m + 1);
    // (events, on-CPU seconds) per round and scheduler.
    let mut per = vec![[(0u64, 0.0f64); SchedulerKind::ALL.len()]; rounds];
    for r in &u.reps {
        let cell = &mut per[r.round][r.sched];
        cell.0 += units[r.unit].events;
        cell.1 += r.op.cpu_s();
    }
    let rate = |(ev, cpu): (u64, f64)| ev as f64 / cpu / 1e6;
    for (si, kind) in SchedulerKind::ALL.iter().enumerate() {
        let rates: Vec<f64> = per.iter().map(|row| rate(row[si])).collect();
        report.set(format!("{}_mev_s", kind.id()), median(&rates));
    }
    let all: Vec<f64> = per
        .iter()
        .map(|row| rate(row.iter().fold((0, 0.0), |a, c| (a.0 + c.0, a.1 + c.1))))
        .collect();
    report.set("replay_mev_s", median(&all));
    let walls: Vec<f64> = u.reps.iter().map(|r| r.op.wall_s() * 1e3).collect();
    report.set("job_p50_ms", quantile(&walls, 0.5));
    report.set("job_p90_ms", quantile(&walls, 0.9));
    report.set("jobs_per_s", u.reps.len() as f64 / u.wall_s);
}

/// Per-layer metrics of the set-up spans (medians over set-ups) and of
/// the replayed eval sets' footprints.
fn setup_layers(
    spans: &Spans,
    xcts_per_setup: usize,
    evals: &[&InternedWorkload],
    report: &mut Report,
) {
    let populate = median(&spans.self_s_under("setup", "storage.populate"));
    let collect = median(&spans.self_s_under("setup", "workloads.collect"));
    let alg1 = median(&spans.self_s_under("setup", "core.algorithm1"));
    report.set("storage.populate_s", populate);
    report.set("workloads.collect_s", collect);
    report.set("workloads.xcts_per_s", xcts_per_setup as f64 / collect);
    report.set("core.algorithm1_s", alg1);
    let fps: Vec<_> = evals.iter().map(|w| w.footprint()).collect();
    let sum = |f: &dyn Fn(&addict_trace::InternFootprint) -> usize| {
        fps.iter().map(f).sum::<usize>() as f64
    };
    report.set("trace.resident_bytes", sum(&|f| f.resident_bytes()));
    report.set("trace.pool_bytes", sum(&|f| f.pool_bytes));
    report.set("trace.data_address_bytes", sum(&|f| f.data_bytes));
    report.set("trace.unique_slices", sum(&|f| f.unique_slices as usize));
}

/// Per-layer metrics of the traced replay rounds.
fn replay_layers(t: &replay::Traced, report: &mut Report) {
    let (mut traced_sum, mut untraced_sum) = (0.0, 0.0);
    for (kind, l) in SchedulerKind::ALL.iter().zip(&t.scheds) {
        let s = kind.id();
        let cpu = median(&l.cpu_s);
        let decode = median(&l.decode_self_s);
        traced_sum += median(&l.traced_cpu_s);
        untraced_sum += cpu;
        report.set(format!("core.replay.{s}.cpu_s"), cpu);
        report.set(format!("core.replay.{s}.wait_s"), median(&l.wait_s));
        report.set(format!("trace.decode.{s}.self_s"), decode);
        report.set(format!("trace.decode.{s}.fetches"), l.counts.fetches as f64);
        report.set(format!("trace.decode.{s}.events"), l.counts.events as f64);
        report.set(
            format!("trace.decode.{s}.run_blocks"),
            l.counts.run_blocks as f64,
        );
        report.set(
            format!("trace.decode.{s}.data_runs"),
            l.counts.data_runs as f64,
        );
        report.set(
            format!("trace.decode.{s}.data_accesses"),
            l.counts.data_accesses as f64,
        );
        report.set(format!("core.engine.{s}.self_s"), cpu - decode);
        report.set(format!("sim.{s}.l1i_mpki"), l.stats.l1i_mpki());
        report.set(format!("sim.{s}.l1d_mpki"), l.stats.l1d_mpki());
        report.set(
            format!("sim.{s}.switches_per_ki"),
            l.stats.switches_per_ki(),
        );
        report.set(
            format!("sim.{s}.invalidations"),
            l.stats.invalidations_received() as f64,
        );
        if *kind == SchedulerKind::Htmx {
            report.set(
                "sim.htmx.commit_ratio",
                l.htm_commits as f64 / l.htm_begins.max(1) as f64,
            );
        }
    }
    let instr: Vec<f64> = t.machine.iter().map(|m| m.instr_ns_per_block).collect();
    let data: Vec<f64> = t.machine.iter().map(|m| m.data_ns_per_access).collect();
    report.set("sim.machine.instr_ns_per_block", median(&instr));
    report.set("sim.machine.data_ns_per_access", median(&data));
    report.set("tracing.overhead_s", traced_sum - untraced_sum);
    report.set(
        "tracing.overhead_pct",
        100.0 * (traced_sum - untraced_sum) / untraced_sum,
    );
}

fn service_layer_metrics(l: &service::ServiceLayers, report: &mut Report) {
    report.set("bench.job.run_ms", l.run_job_ms);
    report.set("service.overhead_ms", l.overhead_ms);
    for (bench, ms) in service::MIX.iter().zip(&l.job_ms) {
        report.set(format!("service.job_ms.{}", bench.id()), *ms);
    }
    report.set("bench.cache.hits", l.cache_hits as f64);
    report.set("bench.cache.misses", l.cache_misses as f64);
    report.set("service.rejected", l.rejected as f64);
}

fn run_batch(
    batch: Batch,
    seeds: Seeds,
    seconds: f64,
    mut spans: Spans,
) -> Result<(RunResult, Spans), String> {
    let (inputs, setup_walls, same) = repeated_setup(
        |sp| Ok(inputs::set_up(batch, seeds, sp)),
        inputs::Inputs::fingerprint,
        &mut spans,
    )?;
    let reference = inputs::reference_digests(batch.name(), seeds, &inputs);
    let units = vec![Unit {
        label: batch.name().to_owned(),
        set: inputs.eval.as_set(),
        map: &inputs.map,
        events: inputs.events,
        reference,
    }];
    let mut out = RunResult {
        checks_ok: same,
        ..RunResult::default()
    };
    if !spans.enabled() {
        let u = replay::untraced(&units, seconds)?;
        log_ops(&u, &units);
        out.attempted = u.reps.len() as u64;
        out.failed = u.reps.iter().filter(|r| !r.ok).count() as u64;
        out.report.set("setup_s", median(&setup_walls));
        replay_e2e(&u, &units, &mut out.report);
        out.report.set(
            "peak_rss_mb",
            measure::peak_rss_bytes()? as f64 / f64::from(1 << 20),
        );
        return Ok((out, spans));
    }
    let t = replay::traced(&units, seconds, &mut spans)?;
    let xcts = batch.n_profile() + batch.n_eval();
    setup_layers(&spans, xcts, &[&inputs.eval], &mut out.report);
    replay_layers(&t, &mut out.report);
    let pool = TracePool::unbounded();
    let (expected, ok) = service::expected(seeds, &pool)?;
    out.checks_ok &= ok;
    let l = service::layers(&expected, &pool, SERVICE_LEG_S, &mut spans)?;
    service_layer_metrics(&l, &mut out.report);
    out.attempted = t.attempted + l.attempted;
    out.failed = t.failed + l.failed;
    Ok((out, spans))
}

/// The service mix's traces, generated like the trace pool generates
/// them (fresh engine per range, streamed interning), for the traced
/// run's replay and set-up layers.
struct MixInputs {
    evals: Vec<InternedWorkload>,
    maps: Vec<MigrationMap>,
}

fn mix_inputs(seeds: Seeds, spans: &mut Spans) -> MixInputs {
    spans.span("setup", |sp| {
        let l1i = ReplayConfig::paper_default().sim.l1i;
        let populates: Vec<_> = service::MIX.iter().map(|&b| move || b.setup()).collect();
        let ranges: Vec<(inputs::Populate<'_>, usize, u64)> = populates
            .iter()
            .flat_map(|p| {
                [
                    (
                        p as inputs::Populate<'_>,
                        service::JOB_XCTS,
                        addict_bench::PROFILE_SEED,
                    ),
                    (p as inputs::Populate<'_>, service::JOB_XCTS, seeds.eval),
                ]
            })
            .collect();
        let mut evals = Vec::new();
        let mut maps = Vec::new();
        let mut generated = inputs::generate_ranges(&ranges, sp).into_iter();
        while let (Some(profile), Some(eval)) = (generated.next(), generated.next()) {
            maps.push(sp.span("core.algorithm1", |_| {
                find_migration_points_interned(profile.as_set(), l1i)
            }));
            evals.push(eval);
        }
        MixInputs { evals, maps }
    })
}

fn run_service(seeds: Seeds, seconds: f64, mut spans: Spans) -> Result<(RunResult, Spans), String> {
    let pool = TracePool::unbounded();
    let (expected, ok) = service::expected(seeds, &pool)?;
    let mut out = RunResult {
        checks_ok: ok,
        ..RunResult::default()
    };
    if spans.enabled() {
        let (mix, _, same) = repeated_setup(
            |sp| Ok(mix_inputs(seeds, sp)),
            |m| {
                measure::fnv64(
                    format!(
                        "{:?}{}",
                        m.evals
                            .iter()
                            .map(InternedWorkload::footprint)
                            .collect::<Vec<_>>(),
                        m.maps.iter().map(inputs::map_points).collect::<String>()
                    )
                    .as_bytes(),
                )
            },
            &mut spans,
        )?;
        out.checks_ok &= same;
        let units: Vec<Unit<'_>> = mix
            .evals
            .iter()
            .zip(&mix.maps)
            .zip(&expected)
            .map(|((eval, map), e)| Unit {
                label: e.bench.id().to_owned(),
                set: eval.as_set(),
                map,
                events: e.events,
                reference: e.digests.clone(),
            })
            .collect();
        let t = replay::traced(&units, seconds / 2.0, &mut spans)?;
        let xcts = 2 * service::JOB_XCTS * service::MIX.len();
        let evals: Vec<&InternedWorkload> = mix.evals.iter().collect();
        setup_layers(&spans, xcts, &evals, &mut out.report);
        replay_layers(&t, &mut out.report);
        let l = service::layers(&expected, &pool, seconds / 2.0, &mut spans)?;
        service_layer_metrics(&l, &mut out.report);
        out.attempted = t.attempted + l.attempted;
        out.failed = t.failed + l.failed;
        return Ok((out, spans));
    }

    // Set-up: server boot plus the cold jobs that fill its trace pool,
    // `SETUPS` times; the last server stays up for the closed loop.
    let mut walls = Vec::new();
    let mut running = None;
    let mut cold_failed = 0u64;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (r, fill_ok) = service::boot_and_fill(&expected, &mut spans)?;
        walls.push(t.elapsed().as_secs_f64());
        cold_failed += u64::from(!fill_ok);
        if i + 1 < SETUPS {
            service::stop(r)?;
        } else {
            running = Some(r);
        }
    }
    let running = running.expect("SETUPS > 0");
    let (samples, wall_s) = service::closed_loop(running.addr, &expected, seconds, &mut spans);
    service::stop(running)?;
    for s in &samples {
        eprintln!(
            "op\tjob\t{}\tlatency_ms={:.3}\t{:?}",
            expected[s.mix].bench.id(),
            s.latency_ms,
            s.outcome
        );
    }
    let ok: Vec<&service::Sample> = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .collect();
    if ok.is_empty() {
        return Err("no service job succeeded".to_owned());
    }
    out.attempted = samples.len() as u64 + (SETUPS * expected.len()) as u64;
    out.failed = (samples.len() - ok.len()) as u64 + cold_failed * expected.len() as u64;
    let r = &mut out.report;
    r.set("setup_s", median(&walls));
    let (mut ev_all, mut s_all) = (0u64, 0.0);
    for kind in SchedulerKind::ALL {
        let (mut ev, mut secs) = (0u64, 0.0);
        for s in &ok {
            for &(k, t) in &s.points {
                if k == kind {
                    ev += expected[s.mix].events;
                    secs += t;
                }
            }
        }
        ev_all += ev;
        s_all += secs;
        r.set(format!("{}_mev_s", kind.id()), ev as f64 / secs / 1e6);
    }
    r.set("replay_mev_s", ev_all as f64 / s_all / 1e6);
    let lat: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    r.set("job_p50_ms", quantile(&lat, 0.5));
    r.set("job_p90_ms", quantile(&lat, 0.9));
    r.set("jobs_per_s", ok.len() as f64 / wall_s);
    r.set(
        "peak_rss_mb",
        measure::peak_rss_bytes()? as f64 / f64::from(1 << 20),
    );
    Ok((out, spans))
}

/// `--make-digests`: replay every workload at the default seed through
/// the production path and through the per-block reference path over
/// flat traces, require identical digests, and print the table rows.
pub fn make_digests() -> Result<String, String> {
    let seeds = Seeds::new(inputs::DEFAULT_SEED);
    let prod = ReplayConfig::paper_default();
    let reference = inputs::reference_config();
    let mut rows = String::from("# workload seed scheduler result_fnv64\n");
    let mut emit = |workload: &str, fast: Vec<u64>, flat: Vec<u64>| -> Result<(), String> {
        if fast != flat {
            return Err(format!(
                "{workload}: production digests differ from the flat per-block reference"
            ));
        }
        for (kind, d) in SchedulerKind::ALL.iter().zip(fast) {
            rows.push_str(&format!(
                "{workload} {} {} {d:016x}\n",
                seeds.arg,
                kind.id()
            ));
        }
        Ok(())
    };
    for batch in [Batch::TpccGrid, Batch::TpcbScale] {
        let i = inputs::set_up(batch, seeds, &mut Spans::new(false, Instant::now()));
        let flat = i.eval.flatten();
        emit(
            batch.name(),
            inputs::digests_of(&i.eval.as_set(), &i.map, &prod),
            inputs::digests_of(&flat.xcts[..], &i.map, &reference),
        )?;
    }
    let pool = TracePool::unbounded();
    for bench in service::MIX {
        let spec = service::spec(bench, seeds);
        let (profile, _) = pool.get(&spec.profile_key(bench), 1);
        let (eval, _) = pool.get(&spec.eval_key(bench), 1);
        let map = find_migration_points_interned(profile.as_set(), prod.sim.l1i);
        let job = addict_bench::run_job(&spec, &pool, &|_| {}).map_err(|e| e.to_string())?;
        let flat = eval.flatten();
        emit(
            &format!("service-{}", bench.id()),
            job.points
                .iter()
                .map(|p| measure::result_digest(&p.result))
                .collect(),
            inputs::digests_of(&flat.xcts[..], &map, &reference),
        )?;
    }
    Ok(rows)
}
