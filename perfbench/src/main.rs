//! The repository benchmark. One command runs one workload; see
//! `perfbench/README.md` for the workloads, the metrics and how to
//! compare two runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload heatmap_session --seed 42 --seconds 10 --trace 0 [--record out.json]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare a.json b.json
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). The exit status is non-zero when any
//! operation or check failed.

mod checks;
mod layers;
mod record;
mod run;
mod spec;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use tabula_core::loss::{HeatmapLoss, MeanLoss, Metric};

use crate::run::{Inputs, Outcome};
use crate::spec::{LossKind, Spec};

/// Named measurements with their units, in the order they were taken.
#[derive(Default, Debug)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => (m.1, m.2) = (value, unit),
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Scratch files (the snapshot) live here, inside the working directory,
/// and are removed before the run ends.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args() -> Result<Command, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record) = (None, None, false, None);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--record" => record = Some(value()?),
            "--compare" => {
                let a = value()?;
                let b = it.next().ok_or("--compare needs two record files")?;
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        record,
    }))
}

fn run_workload(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::generate(spec, args.seed, args.seconds)?;
    let schema = inputs.table.schema();
    let work = Path::new(WORK_DIR);
    let result = match spec.loss {
        LossKind::Mean { .. } => {
            let fare = schema.index_of("fare_amount").map_err(|e| e.to_string())?;
            run::run(spec, &inputs, &MeanLoss::new(fare), args.seed, args.trace, work)
        }
        LossKind::Heatmap { .. } => {
            let pickup = schema.index_of("pickup").map_err(|e| e.to_string())?;
            let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
            run::run(spec, &inputs, &loss, args.seed, args.trace, work)
        }
    };
    std::fs::remove_dir_all(work).ok();
    result
}

/// `(steal, total)` jiffies of all CPUs, from `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::Compare(a, b)) => return record::compare(Path::new(&a), Path::new(&b)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed N [--seconds S] [--trace 0|1] [--record FILE]\n       \
                 --compare A.json B.json",
                spec::WORKLOADS.map(|s| s.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "# perfbench {} seed={} seconds={} trace={} | {} rows, {} attrs, {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.rows,
        spec.attrs,
        spec.loss.describe()
    );
    println!("# why: {}", spec.why);
    let cpu_before = cpu_times();
    let mut outcome = run_workload(spec, &args);
    // Time the hypervisor gave to other guests during the run: a run on a
    // contended host reads slower on every timing metric.
    if let (Ok(o), Some((steal0, total0)), Some((steal1, total1))) =
        (&mut outcome, cpu_before, cpu_times())
    {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        o.samples.push(("host_steal_pct", share * 100.0));
    }
    let rec = record::Record::new(spec, args.seed, args.seconds, args.trace, &outcome);
    rec.print_human();
    if let Some(path) = &args.record {
        if let Err(e) = std::fs::write(path, rec.to_json()) {
            eprintln!("perfbench: cannot write record {path}: {e}");
        }
    }
    println!("{}", rec.result_line());
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
