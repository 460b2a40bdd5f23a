//! `service-short`: an in-process `addict-serve` with two job workers,
//! driven by a closed loop of two client threads submitting `?wait=1`
//! jobs through `client::submit`. Each job is one benchmark x all five
//! schedulers at 400 transactions, rotating over YCSB-A, YCSB-B and TATP.
//! Every job's result bytes must equal an in-process `run_job` of the
//! same spec.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use addict_bench::jsontext::JsonValue;
use addict_bench::{run_job, JobSpec, TracePool};
use addict_core::algorithm1::find_migration_points_interned;
use addict_core::replay::ReplayConfig;
use addict_core::sched::SchedulerKind;
use addict_service::{client, Server, ServerConfig};
use addict_workloads::Benchmark;

use crate::inputs::{digests_of, reference_config, table_digests, Seeds};
use crate::measure::{median, result_digest};
use crate::spans::Spans;

/// The job mix, in rotation order.
pub const MIX: [Benchmark; 3] = [Benchmark::YcsbA, Benchmark::YcsbB, Benchmark::Tatp];
/// Transactions per job (profile and eval ranges alike).
pub const JOB_XCTS: usize = 400;
/// Closed-loop client threads (= the host's cores).
pub const CLIENTS: usize = 2;
/// Server job workers.
pub const JOB_WORKERS: usize = 2;

/// The job spec for `bench` at `seeds`.
pub fn spec(bench: Benchmark, seeds: Seeds) -> JobSpec {
    let mut s = JobSpec::new(vec![bench], JOB_XCTS);
    s.seed = seeds.eval;
    s
}

/// One job of the mix with its expected answer.
#[derive(Debug)]
pub struct Expected {
    /// Benchmark of the job.
    pub bench: Benchmark,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// The spec's JSON body.
    pub spec_json: String,
    /// In-process `run_job` result bytes.
    pub result_json: String,
    /// Block-granular events of the eval set (per scheduler point).
    pub events: u64,
    /// Reference digest per scheduler, [`SchedulerKind::ALL`] order.
    pub digests: Vec<u64>,
}

/// Run every job of the mix in process on `pool` and check each point's
/// digest against the committed table at a seed it covers, else against
/// the per-block reference path over the pool's traces. Returns the
/// expected answers and whether every digest matched.
pub fn expected(seeds: Seeds, pool: &TracePool) -> Result<(Vec<Expected>, bool), String> {
    let mut out = Vec::new();
    let mut ok = true;
    for bench in MIX {
        let spec = spec(bench, seeds);
        let result = run_job(&spec, pool, &|_| {}).map_err(|e| format!("in-process job: {e}"))?;
        let digests: Vec<u64> = result
            .points
            .iter()
            .map(|p| result_digest(&p.result))
            .collect();
        let reference = match table_digests(&format!("service-{}", bench.id()), seeds.arg) {
            Some(d) => d,
            None => {
                let (profile, _) = pool.get(&spec.profile_key(bench), 1);
                let (eval, _) = pool.get(&spec.eval_key(bench), 1);
                let l1i = ReplayConfig::paper_default().sim.l1i;
                let map = find_migration_points_interned(profile.as_set(), l1i);
                digests_of(&eval.as_set(), &map, &reference_config())
            }
        };
        if digests != reference {
            eprintln!(
                "perfbench: {} in-process job digests differ from the reference",
                bench.name()
            );
            ok = false;
        }
        out.push(Expected {
            bench,
            spec_json: spec.to_json(),
            result_json: result.to_json(),
            events: result.points[0].events,
            digests: reference,
            spec,
        });
    }
    Ok((out, ok))
}

/// A running in-process server.
pub struct Running {
    /// Bound address.
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Bind an ephemeral localhost port and serve on a thread.
pub fn boot() -> Result<Running, String> {
    let config = ServerConfig {
        workers: CLIENTS,
        job_workers: JOB_WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let handle = std::thread::spawn(move || server.serve());
    Ok(Running { addr, handle })
}

/// Drain and stop the server, waiting for its thread.
pub fn stop(r: Running) -> Result<(), String> {
    client::shutdown(r.addr).map_err(|e| format!("shutdown: {e}"))?;
    r.handle
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("serve: {e}"))
}

/// How one submitted job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 200 with the expected bytes.
    Ok,
    /// 200 with different bytes.
    Mismatch,
    /// 429 or 503.
    Rejected,
    /// Any other failure.
    Error,
}

/// One submitted job.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the mix.
    pub mix: usize,
    /// Client-observed latency, ms.
    pub latency_ms: f64,
    /// How it ended.
    pub outcome: Outcome,
    /// Per-point replay wall seconds the server reported, by scheduler.
    pub points: Vec<(SchedulerKind, f64)>,
}

/// `point 3/5 YCSB-A / SLICC / job in 0.012s` -> (SLICC, 0.012).
fn parse_point(line: &str) -> Option<(SchedulerKind, f64)> {
    let rest = line.strip_prefix("point ")?;
    let (_, rest) = rest.split_once(' ')?;
    let (desc, secs) = rest.rsplit_once(" in ")?;
    let secs: f64 = secs.strip_suffix('s')?.parse().ok()?;
    let kind = desc.split(" / ").nth(1)?.parse().ok()?;
    Some((kind, secs))
}

/// Submit one job and compare its result bytes.
pub fn submit(addr: SocketAddr, mix: usize, e: &Expected) -> Sample {
    let mut points = Vec::new();
    let t = Instant::now();
    let r = client::submit(addr, &e.spec_json, |line| {
        if let Some(p) = parse_point(line) {
            points.push(p);
        }
    });
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = match r {
        Ok(body) if body == e.result_json && points.len() == SchedulerKind::ALL.len() => {
            Outcome::Ok
        }
        Ok(_) => Outcome::Mismatch,
        Err(msg) if msg.contains("answered 429") || msg.contains("answered 503") => {
            Outcome::Rejected
        }
        Err(msg) => {
            eprintln!("perfbench: job failed: {msg}");
            Outcome::Error
        }
    };
    Sample {
        mix,
        latency_ms,
        outcome,
        points,
    }
}

/// Boot a server and fill its trace pool with one cold job per mix
/// entry, one job at a time. Returns the server and whether every cold
/// job answered the expected bytes.
pub fn boot_and_fill(expected: &[Expected], spans: &mut Spans) -> Result<(Running, bool), String> {
    let running = spans.span("service.boot", |_| boot())?;
    let mut ok = true;
    for (i, e) in expected.iter().enumerate() {
        let s = spans.span("service.submit.cold", |_| submit(running.addr, i, e));
        ok &= s.outcome == Outcome::Ok;
    }
    Ok((running, ok))
}

/// Closed loop: `CLIENTS` threads each submit their next job as soon as
/// the previous one answers, rotating over the mix, until `seconds` have
/// passed. Returns every sample and the loop's wall seconds.
pub fn closed_loop(
    addr: SocketAddr,
    expected: &[Expected],
    seconds: f64,
    spans: &mut Spans,
) -> (Vec<Sample>, f64) {
    spans.span("service.closed_loop", |spans| {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let deadline = Duration::from_secs_f64(seconds);
        let per_thread: Vec<(Vec<Sample>, Spans)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let mut sp = spans.fork();
                    let next = &next;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        while start.elapsed() < deadline {
                            let k = next.fetch_add(1, Ordering::Relaxed) % expected.len();
                            let name = format!("service.submit.{}", expected[k].bench.id());
                            let sample = sp.span(&name, |_| submit(addr, k, &expected[k]));
                            if sample.outcome == Outcome::Rejected {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            out.push(sample);
                        }
                        (out, sp)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut samples = Vec::new();
        for (s, thread_spans) in per_thread {
            samples.extend(s);
            spans.merge(thread_spans);
        }
        (samples, wall_s)
    })
}

/// Service-layer measurements of the traced run.
#[derive(Debug)]
pub struct ServiceLayers {
    /// Median in-process `run_job` ms on a warm pool.
    pub run_job_ms: f64,
    /// Median of client latency minus in-process `run_job` ms, paired by
    /// spec, one job at a time.
    pub overhead_ms: f64,
    /// Median closed-loop latency per mix entry, ms.
    pub job_ms: Vec<f64>,
    /// Trace-pool cache hits and misses at the end (`/stats`).
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Jobs answered 429/503.
    pub rejected: u64,
    /// Jobs attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

fn cache_counter(stats: &str, field: &str) -> Result<u64, String> {
    JsonValue::parse(stats.trim())?
        .get("cache")
        .and_then(|c| c.get(field))
        .ok_or_else(|| format!("/stats has no cache.{field}"))?
        .as_u64(field)
}

/// The traced service leg: boot and fill a server, run the closed loop
/// for half of `seconds`, then alternate in-process `run_job` on the
/// warm `pool` with a lone client submission of the same spec for the
/// other half.
pub fn layers(
    expected: &[Expected],
    pool: &TracePool,
    seconds: f64,
    spans: &mut Spans,
) -> Result<ServiceLayers, String> {
    let (running, fill_ok) = boot_and_fill(expected, spans)?;
    let (samples, _) = closed_loop(running.addr, expected, seconds / 2.0, spans);
    let mut attempted = samples.len() as u64 + expected.len() as u64;
    let mut failed = samples.iter().filter(|s| s.outcome != Outcome::Ok).count() as u64
        + u64::from(!fill_ok) * expected.len() as u64;
    let mut rejected = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Rejected)
        .count() as u64;
    let job_ms = (0..expected.len())
        .map(|i| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|s| s.mix == i && s.outcome == Outcome::Ok)
                .map(|s| s.latency_ms)
                .collect();
            if v.is_empty() {
                Err(format!("no successful {} job", expected[i].bench.name()))
            } else {
                Ok(median(&v))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;

    let start = Instant::now();
    let (mut run_ms, mut diff_ms) = (Vec::new(), Vec::new());
    let mut k = 0usize;
    while run_ms.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds / 2.0) {
        let e = &expected[k % expected.len()];
        let t = Instant::now();
        let r = spans.span("bench.run_job", |_| run_job(&e.spec, pool, &|_| {}));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        attempted += 1;
        failed += u64::from(!matches!(&r, Ok(r) if r.to_json() == e.result_json));
        let s = spans.span(&format!("service.submit.{}", e.bench.id()), |_| {
            submit(running.addr, k % expected.len(), e)
        });
        attempted += 1;
        failed += u64::from(s.outcome != Outcome::Ok);
        rejected += u64::from(s.outcome == Outcome::Rejected);
        run_ms.push(ms);
        diff_ms.push(s.latency_ms - ms);
        k += 1;
    }
    let stats = client::get(running.addr, "/stats").map_err(|e| format!("/stats: {e}"))?;
    stop(running)?;
    Ok(ServiceLayers {
        run_job_ms: median(&run_ms),
        overhead_ms: median(&diff_ms),
        job_ms,
        cache_hits: cache_counter(&stats, "hits")?,
        cache_misses: cache_counter(&stats, "misses")?,
        rejected,
        attempted,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_lines_parse() {
        assert_eq!(
            parse_point("point 3/5 YCSB-A / SLICC / job in 0.012s"),
            Some((SchedulerKind::Slicc, 0.012))
        );
        assert_eq!(
            parse_point("traces ycsba: profile cache hit | eval cache hit"),
            None
        );
    }
}
