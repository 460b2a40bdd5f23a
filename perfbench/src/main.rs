//! `addict-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Logs, the
//! per-operation noise record and, when traced, the spans go to standard
//! error. `--make-digests` prints the default-seed digest table instead.

use std::process::ExitCode;

use addict_perfbench::inputs::{Seeds, DEFAULT_SEED};
use addict_perfbench::measure::load_average;
use addict_perfbench::metrics::{end_to_end, per_layer, validate};
use addict_perfbench::run::{make_digests, run, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: addict-perfbench --workload <tpcc-grid|tpcb-scale|service-short> [--seed N] [--seconds S] [--trace 0|1]\n       addict-perfbench --make-digests";

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 25.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if let Err(e) = validate(&names) {
        eprintln!("perfbench: metric catalogue invalid: {e}");
        return ExitCode::from(2);
    }
    if argv == ["--make-digests"] {
        return match make_digests() {
            Ok(rows) => {
                print!("{rows}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<String, String> {
    let load = load_average()?;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | loadavg {} {} {} | cpus {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        load[0],
        load[1],
        load[2],
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let out = run(
        args.workload,
        Seeds::new(args.seed),
        args.seconds,
        args.trace,
    )?;
    let declared = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    for (name, unit) in &declared {
        if let Some(v) = out.report.get(name) {
            eprintln!("metric\t{name}\t{v:.6}\t{unit}");
        }
    }
    eprintln!(
        "perfbench: attempted {} failed {} checks {}",
        out.attempted,
        out.failed,
        if out.checks_ok { "ok" } else { "FAILED" }
    );
    let correct = out.checks_ok && out.failed == 0 && out.attempted > 0;
    out.report
        .result_line(&declared, correct, out.attempted.max(1), out.failed)
}
