//! The repository's benchmark: end-to-end metrics of two workloads, and a traced
//! run that attributes their time to the layers of the concretizer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot_sweep|service_steady> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The human-readable report goes to standard error; the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for the workloads, the metrics and the
//! layer map.

mod calib;
mod gen;
mod loadgen;
mod oneshot;
mod service;
mod stats;
mod trace;

use std::process::ExitCode;

/// One reported number.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// For a timing: how many samples the statistic was taken over.
    pub samples: Option<usize>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit, samples: None }
    }

    /// A latency statistic in milliseconds over a sorted sample: the median for
    /// `q == 0.5`, otherwise the tail percentile (which needs ten samples beyond it).
    pub fn timing(name: &'static str, sorted_ms: &[f64], q: f64) -> Result<Self, String> {
        let value = if q == 0.5 {
            stats::median(sorted_ms).ok_or_else(|| format!("{name}: no samples"))?
        } else {
            stats::tail_percentile(sorted_ms, q).map_err(|e| format!("{name}: {e}"))?
        };
        Ok(Metric { name, value, unit: "ms", samples: Some(sorted_ms.len()) })
    }
}

/// What a run measured and checked.
pub struct Outcome {
    /// Operations attempted (solves, updates, checks).
    pub attempted: usize,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Free-form report lines.
    pub report: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("oneshot_sweep", false) => oneshot::run(args.seed, args.seconds),
        ("service_steady", false) => service::run(args.seed, args.seconds),
        (w @ ("oneshot_sweep" | "service_steady"), true) => trace::run(w, args.seed, args.seconds),
        (other, _) => Err(format!("unknown workload {other} (oneshot_sweep, service_steady)")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# {} seed {} ({} s, trace {}, {} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    for line in &outcome.report {
        eprintln!("  {line}");
    }
    for m in &outcome.metrics {
        let samples = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        eprintln!("  {:<32} {:>14.4} {}{samples}", m.name, m.value, m.unit);
    }
    let failed = outcome.failures.len();
    eprintln!(
        "  error_rate {:.4} ({failed} of {} operations failed)",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    for f in outcome.failures.iter().take(20) {
        eprintln!("  FAILED {f}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
