//! The run record: provenance, inputs, sample counts, failures and every
//! metric, as JSON; the one-line result; and the comparison of two
//! records, refused when their provenance differs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use serde::Value;

use crate::run::Outcome;
use crate::spec::Spec;

/// Version of the record layout and of the benchmark's definitions.
/// Records of different versions are not comparable.
pub const BENCH_VERSION: &str = "tabula-perfbench/1";

/// Inputs that two comparable records must share: they are fixed by the
/// workload and `--seconds`, never by what the run observed.
const INPUT_KEYS: [&str; 10] = [
    "table_rows",
    "cubed_attrs",
    "session_queries",
    "read_set_cells",
    "feed_rows",
    "ingest_rounds",
    "ingest_round_batches",
    "query_phase_s",
    "ingest_phase_s",
    "query_clients",
];

/// Provenance fields that two comparable records must share.
const MACHINE_KEYS: [&str; 4] = ["nproc", "cpu_model", "pool_threads", "env"];

fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

fn obj(entries: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Obj(entries.into_iter().collect())
}

/// Run `git` in the working directory; `None` outside a repository.
fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the run was made.
pub fn provenance() -> Value {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev.as_ref().and(git(&["status", "--porcelain"])).map(|s| !s.is_empty());
    let env: BTreeMap<String, Value> = std::env::vars()
        .filter(|(k, _)| k.starts_with("TABULA_"))
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("git_rev".into(), rev.map_or(Value::Null, Value::Str)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("nproc".into(), Value::Int(nproc as i128)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("pool_threads".into(), Value::Int(tabula_par::threads() as i128)),
        ("env".into(), Value::Obj(env)),
    ])
}

pub struct Record {
    json: Value,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the result line: end-to-end untraced, per-layer traced.
    reported: Vec<(String, f64, &'static str)>,
    human: Vec<String>,
}

impl Record {
    pub fn new(
        spec: &Spec,
        seed: u64,
        seconds: f64,
        trace: bool,
        outcome: &Result<Outcome, String>,
    ) -> Record {
        let mut human = Vec::new();
        let metrics_obj = |m: &crate::Metrics| {
            obj(m.iter().map(|(n, v, u)| {
                (
                    n.clone(),
                    obj([("value".into(), num(*v)), ("unit".into(), Value::Str((*u).into()))]),
                )
            }))
        };
        let (correct, attempted, failed, reported, body) = match outcome {
            Ok(o) => {
                let (attempted, failed) = (o.tally.attempted(), o.tally.failed());
                let chosen = if trace { &o.layers } else { &o.e2e };
                let reported: Vec<_> = chosen.iter().cloned().collect();
                let finite = o.e2e.iter().all(|m| m.1.is_finite());
                if !finite {
                    human.push("! an end-to-end metric is not a finite number".into());
                }
                for (n, v, u) in o.e2e.iter() {
                    human.push(format!("{n:<40} {v:>16.6} {u}"));
                }
                if trace {
                    human.push("-- per layer".into());
                    for (n, v, u) in o.layers.iter() {
                        human.push(format!("{n:<40} {v:>16.6} {u}"));
                    }
                }
                let error_rate = failed as f64 / attempted.max(1) as f64;
                human.push(format!(
                    "{:<40} {error_rate:>16.6} ratio   ({failed} failed of {attempted} attempted)",
                    "error_rate"
                ));
                for (kind, (a, f)) in o.tally.kinds() {
                    human.push(format!("  check {kind:<32} {f} failed of {a}"));
                }
                for n in o.tally.notes() {
                    human.push(format!("  ! {n}"));
                }
                for (k, v) in &o.samples {
                    human.push(format!("  n {k:<34} {v}"));
                }
                let kinds = obj(o.tally.kinds().iter().map(|(k, (a, f))| {
                    (
                        (*k).to_owned(),
                        obj([
                            ("attempted".into(), Value::Int(*a as i128)),
                            ("failed".into(), Value::Int(*f as i128)),
                        ]),
                    )
                }));
                let body = [
                    ("error_rate".to_owned(), num(error_rate)),
                    ("checks".into(), kinds),
                    (
                        "failure_notes".into(),
                        Value::Arr(o.tally.notes().iter().map(|n| Value::Str(n.clone())).collect()),
                    ),
                    (
                        "inputs".into(),
                        obj(o.samples.iter().map(|(k, v)| ((*k).to_owned(), num(*v)))),
                    ),
                    (
                        "raw".into(),
                        obj(o.raw.iter().map(|(k, v)| {
                            ((*k).to_owned(), Value::Arr(v.iter().map(|x| num(*x)).collect()))
                        })),
                    ),
                    ("end_to_end".into(), metrics_obj(&o.e2e)),
                    ("per_layer".into(), metrics_obj(&o.layers)),
                ];
                (failed == 0 && finite, attempted, failed, reported, body.to_vec())
            }
            Err(e) => {
                human.push(format!("! run failed: {e}"));
                (false, 1, 1, Vec::new(), vec![("fatal".to_owned(), Value::Str(e.clone()))])
            }
        };
        let mut json = vec![
            ("bench_version".to_owned(), Value::Str(BENCH_VERSION.into())),
            ("workload".into(), Value::Str(spec.name.into())),
            ("seed".into(), Value::Int(seed as i128)),
            ("seconds".into(), num(seconds)),
            ("trace".into(), Value::Bool(trace)),
            ("provenance".into(), provenance()),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Int(attempted as i128)),
            ("failed".into(), Value::Int(failed as i128)),
        ];
        json.extend(body);
        Record { json: obj(json), correct, attempted, failed, reported, human }
    }

    pub fn correct(&self) -> bool {
        self.correct
    }

    pub fn print_human(&self) {
        for line in &self.human {
            println!("{line}");
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.json).expect("a JSON value serializes")
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = obj(self.reported.iter().map(|(n, v, u)| {
            (n.clone(), obj([("value".into(), num(*v)), ("unit".into(), Value::Str((*u).into()))]))
        }));
        let line = obj([
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Int(self.attempted as i128)),
            ("failed".into(), Value::Int(self.failed as i128)),
            ("metrics".into(), metrics),
        ]);
        serde_json::to_string(&line).expect("a JSON value serializes")
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'v>(v: &'v Value, path: &[&str]) -> Option<&'v Value> {
    path.iter().try_fold(v, |v, k| v.as_obj()?.get(*k))
}

fn value_of(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Why two records may not be compared, if they may not.
pub fn incomparable(a: &Value, b: &Value) -> Vec<String> {
    let mut paths: Vec<Vec<&str>> =
        vec![vec!["bench_version"], vec!["workload"], vec!["seconds"], vec!["trace"]];
    paths.extend(MACHINE_KEYS.iter().map(|k| vec!["provenance", k]));
    paths.extend(INPUT_KEYS.iter().map(|k| vec!["inputs", k]));
    paths
        .into_iter()
        .filter_map(|p| {
            let (x, y) = (field(a, &p), field(b, &p));
            (x != y).then(|| format!("{}: {x:?} vs {y:?}", p.join(".")))
        })
        .collect()
}

/// Bounds and directions declared in `BENCHMARK.json`, when it is in
/// the working directory.
fn declared() -> BTreeMap<String, (String, Option<f64>)> {
    let Ok(v) = load(Path::new("BENCHMARK.json")) else { return BTreeMap::new() };
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in field(&v, &[key]).and_then(Value::as_arr).unwrap_or(&[]) {
            let name = field(m, &["name"]).and_then(Value::as_str);
            let better = field(m, &["better"]).and_then(Value::as_str);
            if let (Some(name), Some(better)) = (name, better) {
                let bound = field(m, &["bound"]).and_then(value_of);
                out.insert(name.to_owned(), (better.to_owned(), bound));
            }
        }
    }
    out
}

/// Print how record `b` differs from record `a`, metric by metric.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let why = incomparable(&ra, &rb);
    if !why.is_empty() {
        eprintln!("perfbench: refusing to compare records whose provenance differs:");
        for w in why {
            eprintln!("  {w}");
        }
        return ExitCode::from(3);
    }
    for r in [&ra, &rb] {
        if field(r, &["correct"]) != Some(&Value::Bool(true)) {
            eprintln!("perfbench: warning: a record is not correct; its figures are not evidence");
        }
    }
    let declared = declared();
    let rev = |r: &Value| {
        field(r, &["provenance", "git_rev"]).and_then(Value::as_str).unwrap_or("?").to_owned()
    };
    println!("# {} → {}  (single runs: see README for the ten-run rule)", rev(&ra), rev(&rb));
    println!("{:<40} {:>14} {:>14} {:>9}  note", "metric", "a", "b", "change");
    for section in ["end_to_end", "per_layer"] {
        let Some(ma) = field(&ra, &[section]).and_then(Value::as_obj) else { continue };
        for (name, va) in ma {
            let x = field(va, &["value"]).and_then(value_of);
            let y = field(&rb, &[section, name, "value"]).and_then(value_of);
            let (Some(x), Some(y)) = (x, y) else { continue };
            let change = (y - x) / x.abs();
            let note = match declared.get(name) {
                Some((better, Some(bound))) => {
                    let worse = if better == "lower" { change } else { -change };
                    if worse > *bound {
                        format!("worse than the {bound} bound")
                    } else {
                        format!("within the {bound} bound")
                    }
                }
                Some((better, None)) => format!("{better} is better"),
                None => String::new(),
            };
            let change = if change.is_finite() {
                format!("{:>+8.1}%", change * 100.0)
            } else {
                format!("{:>9}", "-")
            };
            println!("{name:<40} {x:>14.6} {y:>14.6} {change}  {note}");
        }
    }
    ExitCode::SUCCESS
}
