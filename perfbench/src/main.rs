//! Host-performance benchmark of the PowerMANNA simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` measures one workload end to end (`setup_s`,
//! `sim_units_per_s`, `peak_rss_mb`). `--trace 1` makes the separate
//! traced run, which times calls into each layer and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it carries diagnostics: the host fingerprint, the calibration
//! loop timed before and after, and a digest of the generated inputs.

mod host;
mod measure;
mod spans;
mod traced;
mod workloads;

use measure::{fastest, measure, median, Measured};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{node_incache_cases, node_smp_mem_cases, FabricTraffic, NodeMix, Route1024};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports on its last line.
pub struct Report {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Digest of the generated inputs.
    pub digest: u64,
}

fn end_to_end(m: Measured) -> Result<Report, String> {
    eprintln!(
        "perfbench: {} repetitions, median {:.4} s, fastest {:.4} s; set-up trials {:?} s",
        m.rep_s.len(),
        median(&m.rep_s),
        fastest(&m.rep_s),
        m.setup_s
    );
    Ok(Report {
        attempted: m.attempted,
        failed: m.failed,
        digest: m.digest,
        metrics: vec![
            Metric::new("setup_s", median(&m.setup_s), "s"),
            Metric::new("sim_units_per_s", m.units / fastest(&m.rep_s), "units/s"),
            Metric::new("peak_rss_mb", host::peak_rss_mb()?, "MB"),
        ],
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    if args.trace {
        return traced::run(seed, args.seconds);
    }
    let measured = match args.workload.as_str() {
        "node_incache" => measure(|| NodeMix::new(node_incache_cases(seed)), args.seconds),
        "node_smp_mem" => measure(|| NodeMix::new(node_smp_mem_cases(seed)), args.seconds),
        "route1024" => measure(|| Route1024::new(seed), args.seconds),
        "fabric_traffic" => measure(|| FabricTraffic::new(seed), args.seconds),
        other => unreachable!("workload {other} passed argument validation"),
    }?;
    end_to_end(measured)
}

/// Renders a JSON string literal (names here are plain ASCII).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x:?}"))
    } else {
        Err(format!("non-finite value {x}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib_before = host::calibration_ms();
    let report = run(&args);
    let calib_after = host::calibration_ms();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let value = match json_num(m.value) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: metric {}: {e}", m.name);
                return ExitCode::FAILURE;
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(&m.name),
            json_str(m.unit)
        );
    }
    println!(
        "{{\"diagnostics\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu_model\": {}, \"calibration_ms_before\": {calib_before:.3}, \
         \"calibration_ms_after\": {calib_after:.3}, \"inputs_digest\": \"{:016x}\"}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        json_str(&host::cpu_model()),
        report.digest,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}
