//! The four scheduling mechanisms of Section 4.1, plus the speculative
//! HTMX scheduler built on the speculation subsystem (beyond the paper).
//!
//! | Mechanism | Placement | Movement |
//! |-----------|-----------|----------|
//! | Baseline  | one core per transaction | none |
//! | STREX     | one core per same-type batch | yields the core after a burst of L1-I misses (stratified time multiplexing) |
//! | SLICC     | batch spread over cores | migrates when the L1-I has absorbed a stratum, preferring cores that already hold the current code |
//! | ADDICT    | batch enters at the planned entry core | migrates at the software-planned migration points (Algorithm 2) |
//! | HTMX      | one core per transaction | none — each transaction runs as a bounded speculative region with retries and a non-speculative fallback |

pub mod addict;
pub mod baseline;
pub mod htmx;
pub mod slicc;
pub mod strex;

use addict_trace::TraceSet;

use crate::algorithm1::MigrationMap;
use crate::plan::{AssignmentPlan, PlanConfig};
use crate::replay::{ReplayConfig, ReplayResult};

/// Which scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Traditional scheduling: a transaction runs start-to-finish on one
    /// core.
    Baseline,
    /// STREX (Atta et al., ISCA 2013).
    Strex,
    /// SLICC (Atta et al., MICRO 2012).
    Slicc,
    /// ADDICT (this paper).
    Addict,
    /// HTMX: bounded-read/write-set hardware-transaction speculation over
    /// the MESI directory (beyond the paper; see `sched::htmx`).
    Htmx,
}

impl SchedulerKind {
    /// All five: the paper's four in presentation order, then HTMX.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::Baseline,
        SchedulerKind::Strex,
        SchedulerKind::Slicc,
        SchedulerKind::Addict,
        SchedulerKind::Htmx,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "Baseline",
            SchedulerKind::Strex => "STREX",
            SchedulerKind::Slicc => "SLICC",
            SchedulerKind::Addict => "ADDICT",
            SchedulerKind::Htmx => "HTMX",
        }
    }

    /// Canonical lowercase token for serialized forms (job specs, cache
    /// keys). Round-trips through [`FromStr`](std::str::FromStr).
    pub fn id(self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "baseline",
            SchedulerKind::Strex => "strex",
            SchedulerKind::Slicc => "slicc",
            SchedulerKind::Addict => "addict",
            SchedulerKind::Htmx => "htmx",
        }
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    /// Case-insensitive parse of a scheduler name (`ADDICT`, `addict`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canon = s.to_ascii_lowercase();
        SchedulerKind::ALL
            .iter()
            .copied()
            .find(|k| k.id() == canon)
            .ok_or_else(|| {
                let ids: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.id()).collect();
                format!(
                    "unknown scheduler {s:?} (expected one of {})",
                    ids.join(", ")
                )
            })
    }
}

/// The [`Policy::miss_budget`](crate::replay::Policy::miss_budget) of a
/// miss-counting policy: the misses left before `count` reaches
/// `threshold`, at least 1, and never the unlimited `u32::MAX` (which
/// would stop `post` from counting).
pub(crate) fn misses_left(threshold: u64, count: u64) -> u32 {
    threshold
        .saturating_sub(count)
        .clamp(1, u64::from(u32::MAX - 1)) as u32
}

/// Replay `traces` under the chosen scheduler.
///
/// ADDICT requires the migration map produced by Algorithm 1 over a
/// *separate* profiling trace set (the paper profiles on traces 1–1000 and
/// evaluates on 1001–2000).
///
/// # Panics
/// Panics if `kind` is [`SchedulerKind::Addict`] and `map` is `None`.
pub fn run_scheduler<T: TraceSet + ?Sized>(
    kind: SchedulerKind,
    traces: &T,
    map: Option<&MigrationMap>,
    cfg: &ReplayConfig,
) -> ReplayResult {
    match kind {
        SchedulerKind::Baseline => baseline::run(traces, cfg),
        SchedulerKind::Strex => strex::run(traces, cfg),
        SchedulerKind::Slicc => slicc::run(traces, cfg),
        SchedulerKind::Addict => {
            let map = map.expect("ADDICT needs Algorithm 1's migration map");
            let plan = AssignmentPlan::build(map, PlanConfig::new(cfg.sim.n_cores));
            addict::run(traces, &plan, cfg)
        }
        SchedulerKind::Htmx => htmx::run(traces, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_ids_round_trip() {
        for kind in SchedulerKind::ALL {
            assert_eq!(kind.id().parse::<SchedulerKind>().unwrap(), kind);
            assert_eq!(kind.name().parse::<SchedulerKind>().unwrap(), kind);
        }
        assert!("stress".parse::<SchedulerKind>().is_err());
        assert!("".parse::<SchedulerKind>().is_err());
    }
}
