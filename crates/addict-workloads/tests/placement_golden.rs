//! Golden trace digests at default scale.
//!
//! Every data address in a trace is a page id plus a record offset, so
//! these digests pin where the storage engine placed every populated
//! record — including heaps of ~1600 pages whose insert hint stops at the
//! first full page — together with the rest of the generated trace. The
//! table was computed with the original linear-scan heap; a heap change
//! that moves any record fails here.

use std::fmt::Write;

use addict_workloads::{collect_traces, Benchmark};

/// Transactions generated per benchmark.
const N_XCTS: usize = 50;
/// Generation seed.
const SEED: u64 = 1;

/// FNV-1a (64-bit) digest of each benchmark's `{:#?}` trace form, in
/// [`Benchmark::ALL`] order.
const GOLDEN: [(&str, u64); 6] = [
    ("TPC-B", 0xd831_3158_3b2f_e7a6),
    ("TPC-C", 0xcc55_15dc_964a_c0f4),
    ("TPC-E", 0xdbea_1f93_68f0_205b),
    ("TATP", 0xcdf5_ff87_b3e1_695f),
    ("YCSB-A", 0xe0f4_d905_52ca_fcbd),
    ("YCSB-B", 0xde66_d9b2_c764_6e85),
];

/// Streams formatted text into an FNV-1a hash, so the multi-megabyte
/// `Debug` form never materializes.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn trace_digest(bench: Benchmark) -> u64 {
    let (mut engine, mut workload) = bench.setup();
    let trace = collect_traces(&mut engine, workload.as_mut(), N_XCTS, SEED);
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{trace:#?}").expect("hashing cannot fail");
    h.0
}

#[test]
fn default_scale_trace_digests_match_golden_table() {
    let got: Vec<(&str, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = Benchmark::ALL
            .iter()
            .map(|&b| s.spawn(move || (b.name(), trace_digest(b))))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("generation panicked"))
            .collect()
    });
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, 0x{d:016x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "trace digests moved; computed table:\n{table}");
}
