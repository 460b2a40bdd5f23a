//! The benchmark's metric catalogue and its result line.
//!
//! Every name the benchmark can print is declared here, once, with its
//! unit. [`validate`] checks the catalogue against the result format's
//! rules (name characters and length, unit characters, uniqueness, and
//! at most 16 end-to-end and 128 per-layer metrics), and the result line
//! refuses to print a metric that is not declared or to omit one that is.

use std::fmt::Write as _;

use addict_core::sched::SchedulerKind;

/// Most end-to-end metrics the result format allows.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics the result format allows.
pub const MAX_PER_LAYER: usize = 128;

/// End-to-end metrics: `(name, unit)`, printed with `--trace 0`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m = vec![
        ("setup_s".to_owned(), "s"),
        ("replay_mev_s".to_owned(), "Mev/s"),
    ];
    for kind in SchedulerKind::ALL {
        m.push((format!("{}_mev_s", kind.id()), "Mev/s"));
    }
    m.extend([
        ("peak_rss_mb".to_owned(), "MB"),
        ("job_p50_ms".to_owned(), "ms"),
        ("job_p90_ms".to_owned(), "ms"),
        ("jobs_per_s".to_owned(), "1/s"),
    ]);
    m
}

/// Per-layer metrics: `(name, unit)`, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("storage.populate_s", "s"),
        ("workloads.collect_s", "s"),
        ("workloads.xcts_per_s", "1/s"),
        ("trace.resident_bytes", "B"),
        ("trace.pool_bytes", "B"),
        ("trace.data_address_bytes", "B"),
        ("trace.unique_slices", "count"),
        ("core.algorithm1_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for kind in SchedulerKind::ALL {
        let s = kind.id();
        m.push((format!("core.replay.{s}.cpu_s"), "s"));
        m.push((format!("core.replay.{s}.wait_s"), "s"));
        m.push((format!("trace.decode.{s}.self_s"), "s"));
        for c in [
            "fetches",
            "events",
            "run_blocks",
            "data_runs",
            "data_accesses",
        ] {
            m.push((format!("trace.decode.{s}.{c}"), "count"));
        }
        m.push((format!("core.engine.{s}.self_s"), "s"));
        m.push((format!("sim.{s}.l1i_mpki"), "1/ki"));
        m.push((format!("sim.{s}.l1d_mpki"), "1/ki"));
        m.push((format!("sim.{s}.switches_per_ki"), "1/ki"));
        m.push((format!("sim.{s}.invalidations"), "count"));
    }
    m.extend(
        [
            ("sim.htmx.commit_ratio", "ratio"),
            ("sim.machine.instr_ns_per_block", "ns"),
            ("sim.machine.data_ns_per_access", "ns"),
            ("bench.job.run_ms", "ms"),
            ("service.overhead_ms", "ms"),
            ("service.job_ms.ycsba", "ms"),
            ("service.job_ms.ycsbb", "ms"),
            ("service.job_ms.tatp", "ms"),
            ("bench.cache.hits", "count"),
            ("bench.cache.misses", "count"),
            ("service.rejected", "count"),
            ("tracing.overhead_s", "s"),
            ("tracing.overhead_pct", "%"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_owned(), u)),
    );
    m
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check the catalogue and the workload names against the format.
pub fn validate(workloads: &[&str]) -> Result<(), String> {
    let e2e = end_to_end();
    let layer = per_layer();
    if e2e.is_empty() || e2e.len() > MAX_END_TO_END {
        return Err(format!(
            "{} end-to-end metrics (1..={MAX_END_TO_END} allowed)",
            e2e.len()
        ));
    }
    if layer.is_empty() || layer.len() > MAX_PER_LAYER {
        return Err(format!(
            "{} per-layer metrics (1..={MAX_PER_LAYER} allowed)",
            layer.len()
        ));
    }
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in e2e.iter().chain(&layer) {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if !valid_unit(unit) {
            return Err(format!("invalid unit {unit:?} of {name}"));
        }
        if !seen.insert(name.as_str()) {
            return Err(format!("metric {name} declared twice"));
        }
    }
    for w in workloads {
        if !valid_name(w) || !seen.insert(w) {
            return Err(format!("invalid or duplicate workload name {w:?}"));
        }
    }
    Ok(())
}

/// Measured values of one run, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(String, f64)>,
}

impl Report {
    /// Record `value` for metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Look a recorded value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The result line: exactly the `declared` metrics, in declared
    /// order, each recorded once and finite.
    pub fn result_line(
        &self,
        declared: &[(String, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        for (name, _) in &self.values {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("metric {name} is not declared for this mode"));
            }
            if self.values.iter().filter(|(n, _)| n == name).count() > 1 {
                return Err(format!("metric {name} recorded twice"));
            }
        }
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_valid() {
        validate(&["tpcc-grid", "tpcb-scale", "service-short"]).unwrap();
        assert_eq!(end_to_end().len(), 11);
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("trace.decode.strex.self_s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("Mev/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("m s"));
    }

    #[test]
    fn result_line_requires_every_declared_metric() {
        let declared = vec![("a".to_owned(), "s"), ("b".to_owned(), "count")];
        let mut r = Report::default();
        r.set("a", 1.5);
        assert!(r.result_line(&declared, true, 1, 0).is_err());
        r.set("b", 3.0);
        let line = r.result_line(&declared, true, 2, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        r.set("zzz", 1.0);
        assert!(r.result_line(&declared, true, 2, 0).is_err());
        let mut nan = Report::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.result_line(&declared, true, 1, 0).is_err());
    }
}
