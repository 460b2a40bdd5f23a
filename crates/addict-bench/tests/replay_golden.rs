//! Golden replay digests for every workload × scheduler pair.
//!
//! Every other replay gate is differential (fast path == reference
//! path), so a semantic change applied to both paths would pass them
//! all. This table pins the absolute outcome instead: the `result_fnv64`
//! that `JobResult::to_json` prints commits to every field of a
//! `ReplayResult` (per-core counters, power, the full latency vector).
//! A change that alters simulated behaviour on purpose must recompute
//! the table (the assertion message prints it) and say why.

use addict_bench::jsontext::JsonValue;
use addict_bench::{run_job, JobSpec, TracePool};
use addict_workloads::Benchmark;

/// `workload scheduler result_fnv64`, one line per point in
/// `Benchmark::ALL` × `SchedulerKind::ALL` order, for 40 evaluation
/// transactions at seed 2 over the small (`setup_small`) populations.
const GOLDEN: &str = "\
TPC-B Baseline ae019b82a8cd091d
TPC-B STREX aff268f0651821d1
TPC-B SLICC 05447acafceb7ef0
TPC-B ADDICT fcd52877932506c4
TPC-B HTMX d44eda2dcf25a3e6
TPC-C Baseline 9159a34c8f4fcc91
TPC-C STREX 2035aee7c591a734
TPC-C SLICC f69c1d042fab806e
TPC-C ADDICT ef2996bed311c3a2
TPC-C HTMX 49df4ebd1c21716c
TPC-E Baseline 9bf28a7ea98a2049
TPC-E STREX 3fdb7913bb438cca
TPC-E SLICC dc123c0a61d9f444
TPC-E ADDICT 74fd4a666918bd24
TPC-E HTMX ee8cfa9dfdf929f9
TATP Baseline 0948ab09152d8dc6
TATP STREX 9c0493afd5d40395
TATP SLICC bef656e4fbb5d040
TATP ADDICT b8f2c5d30b530422
TATP HTMX b596c424a1d516a6
YCSB-A Baseline 0968a37523978b35
YCSB-A STREX f405b376f413c524
YCSB-A SLICC 76c10c89e136d2f2
YCSB-A ADDICT 720b53653d2c1bb7
YCSB-A HTMX 6075f90086133e1a
YCSB-B Baseline a792b444a0703915
YCSB-B STREX 83aa4881ea5c0f8f
YCSB-B SLICC 7bf1cce8e3b54665
YCSB-B ADDICT d89f44e693f8c6a8
YCSB-B HTMX 5692425798cf1f89
";

#[test]
fn replay_digests_match_golden_table() {
    let mut spec = JobSpec::new(Benchmark::ALL.to_vec(), 40);
    spec.small = true;
    spec.seed = 2;
    spec.threads = 2;
    let result = run_job(&spec, &TracePool::new(usize::MAX), &|_| {}).expect("valid spec");
    let json = JsonValue::parse(&result.to_json()).expect("result JSON parses");
    let field = |p: &JsonValue, key: &str| p.get(key).unwrap().as_str(key).unwrap().to_owned();
    let got: String = json
        .get("points")
        .and_then(|p| p.as_arr("points").ok())
        .expect("points array")
        .iter()
        .map(|p| {
            let [w, s, d] = ["workload", "scheduler", "result_fnv64"].map(|k| field(p, k));
            format!("{w} {s} {d}\n")
        })
        .collect();
    assert_eq!(got, GOLDEN, "replay digests moved; computed table:\n{got}");
}
