//! The machine layer measured alone: a workload's decoded event stream
//! driven straight into `Machine::fetch_instr_run` and
//! `Machine::access_data_run`, trace `i` on core `i mod n_cores`, with no
//! scheduling policy and no trace decode inside the timed loops.

use addict_sim::{BlockAddr, CoreId, DataAccess, Machine, SimConfig};
use addict_trace::{DataRun, Fetched, InternedSet, TraceSet};

use crate::measure::{timed, Op};

/// Traces decoded per batch: bounds the decoded stream's memory.
const TRACES_PER_BATCH: usize = 256;

#[derive(Debug, Default)]
struct Decoded {
    /// `(core, start block, blocks, instructions per block)`.
    instr: Vec<(usize, BlockAddr, u16, u16)>,
    /// `(core, start, len)` into `accesses`.
    data: Vec<(usize, usize, usize)>,
    accesses: Vec<DataAccess>,
}

fn decode(set: &InternedSet<'_>, traces: std::ops::Range<usize>, n_cores: usize, d: &mut Decoded) {
    d.instr.clear();
    d.data.clear();
    d.accesses.clear();
    let mut run = DataRun::new();
    for idx in traces {
        let core = idx % n_cores;
        let mut cur = Default::default();
        loop {
            match set.fetch(idx, cur) {
                Fetched::Run { block, rem, ipb } => {
                    d.instr.push((core, block, rem, ipb));
                    set.advance_run(idx, &mut cur, rem, rem);
                }
                Fetched::Event(ev) => {
                    let n = set.gather_data_run(idx, cur, &mut run);
                    if n > 0 {
                        d.data.push((core, d.accesses.len(), n));
                        d.accesses.extend_from_slice(run.accesses());
                        set.advance_data_run(idx, &mut cur, n);
                    } else {
                        set.advance_event(idx, &mut cur, ev);
                    }
                }
                Fetched::End => break,
            }
        }
    }
}

/// Host cost of the machine layer over one pass of a workload.
#[derive(Debug, Clone, Copy)]
pub struct MachineCost {
    /// On-CPU ns per instruction block through `fetch_instr_run`.
    pub instr_ns_per_block: f64,
    /// On-CPU ns per data access through `access_data_run`.
    pub data_ns_per_access: f64,
    /// Instruction blocks driven.
    pub blocks: u64,
    /// Data accesses driven.
    pub accesses: u64,
}

/// Drive every trace of `set` through fresh machines (one for the
/// instruction stream, one for the data stream) and report on-CPU ns per
/// block and per access. Only the machine calls are inside timed regions.
pub fn drive(set: &InternedSet<'_>, cfg: &SimConfig) -> Result<MachineCost, String> {
    let mut instr_m = Machine::new(cfg);
    let mut data_m = Machine::new(cfg);
    let n_cores = instr_m.n_cores();
    let mut clocks_i = vec![0.0f64; n_cores];
    let mut clocks_d = vec![0.0f64; n_cores];
    let (mut instr_ns, mut data_ns, mut blocks, mut accesses) = (0u64, 0u64, 0u64, 0u64);
    let mut d = Decoded::default();
    let mut start = 0;
    while start < set.len() {
        let end = (start + TRACES_PER_BATCH).min(set.len());
        decode(set, start..end, n_cores, &mut d);
        let ((), op): ((), Op) = timed(|| {
            for &(core, block, n, ipb) in &d.instr {
                let out =
                    instr_m.fetch_instr_run(CoreId(core), block, n, ipb, clocks_i[core], false);
                clocks_i[core] = out.now;
            }
        })?;
        instr_ns += op.cpu_ns;
        blocks += d
            .instr
            .iter()
            .map(|&(_, _, n, _)| u64::from(n))
            .sum::<u64>();
        let ((), op) = timed(|| {
            for &(core, s, n) in &d.data {
                clocks_d[core] =
                    data_m.access_data_run(CoreId(core), &d.accesses[s..s + n], clocks_d[core]);
            }
        })?;
        data_ns += op.cpu_ns;
        accesses += d.accesses.len() as u64;
        start = end;
    }
    std::hint::black_box((&clocks_i, &clocks_d, instr_m.stats(), data_m.stats()));
    if blocks == 0 || accesses == 0 {
        return Err("machine drive saw no instruction blocks or no data accesses".to_owned());
    }
    Ok(MachineCost {
        instr_ns_per_block: instr_ns as f64 / blocks as f64,
        data_ns_per_access: data_ns as f64 / accesses as f64,
        blocks,
        accesses,
    })
}
