//! The repository's benchmark. `README.md` beside this crate says what
//! each workload and metric is for; `BENCHMARK.json` at the repository
//! root fixes the bounds.
//!
//! ```text
//! mimicnet-benchmark [run] [--seed S] [--seconds N] [--repeats R] [--smoke] [--out FILE]
//! mimicnet-benchmark aa    [--seed S] [--seconds N] [--repeats R] [--smoke]
//! mimicnet-benchmark compare A.json B.json
//! mimicnet-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]
//! ```
//!
//! The last form is one run of one workload; its last line of output is
//! the result object the benchmark driver reads. Run from the repository
//! root: outputs land in `benchmark/out/`.

mod compare;
mod json;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use spec::{Sizes, DEFAULT_SEED, FULL, SMOKE, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: mimicnet-benchmark [run|aa] [--seed S] [--seconds N] [--repeats R] [--smoke] [--out FILE]
       mimicnet-benchmark compare A.json B.json
       mimicnet-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]
workloads: train-cold truth-64 mimic-64 adaptive-64 serve-mix";

struct Cli {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            None => cli.positional.push(arg.clone()),
            Some("smoke") => {
                cli.flags.insert("smoke".into(), String::new());
            }
            Some(key) => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                cli.flags.insert(key.to_string(), value.clone());
            }
        }
    }
    Ok(cli)
}

impl Cli {
    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn sizes(&self) -> Sizes {
        if self.flags.contains_key("smoke") {
            SMOKE
        } else {
            FULL
        }
    }

    fn seconds(&self, default: f64) -> Result<f64, String> {
        let s: f64 = self.number("seconds", default)?;
        if s > 0.0 && s.is_finite() {
            Ok(s)
        } else {
            Err(format!("--seconds must be positive, got {s}"))
        }
    }

    fn workload(&self) -> Result<String, String> {
        let w = self.flags.get("workload").ok_or("--workload is required")?;
        if WORKLOADS.contains(&w.as_str()) {
            Ok(w.clone())
        } else {
            Err(format!("unknown workload {w}"))
        }
    }

    fn suite(&self) -> Result<suite::SuiteArgs, String> {
        let sizes = self.sizes();
        let seed = self.number("seed", DEFAULT_SEED)?;
        Ok(suite::SuiteArgs {
            seed,
            // The run length `BENCHMARK.json` states; a smoke run only
            // needs every path exercised once.
            seconds: self.seconds(if sizes == SMOKE { 0.5 } else { 15.0 })?,
            repeats: self.number("repeats", if sizes == SMOKE { 1 } else { 3 })?,
            sizes,
            out: self
                .flags
                .get("out")
                .map_or_else(|| suite::default_out(seed, &sizes), PathBuf::from),
        })
    }
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    let command = cli.positional.first().map(String::as_str);
    match command {
        Some("__fixture") => {
            let dir = cli.flags.get("dir").ok_or("--dir is required")?;
            workloads::build_fixture(
                &cli.workload()?,
                &cli.sizes(),
                cli.number("seed", DEFAULT_SEED)?,
                Path::new(dir),
            )?;
            Ok(true)
        }
        // Timed by the parent: what starting this program costs.
        Some("__start") => Ok(true),
        Some("compare") => {
            let [_, a, b] = cli.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let bounds = compare::read_bounds(Path::new("BENCHMARK.json"))?;
            Ok(compare::compare(
                &json::read_file(Path::new(a))?,
                &json::read_file(Path::new(b))?,
                &bounds,
                false,
            ))
        }
        Some("aa") => {
            let bounds = compare::read_bounds(Path::new("BENCHMARK.json"))?;
            let mut args = cli.suite()?;
            let stem = args.out.with_extension("");
            args.out = PathBuf::from(format!("{}-A.json", stem.display()));
            let (a, a_ok) = suite::run_suite(&args)?;
            args.out = PathBuf::from(format!("{}-B.json", stem.display()));
            let (b, b_ok) = suite::run_suite(&args)?;
            println!("\n== A/A: two runs of the suite on one commit ==");
            Ok(compare::compare(&a, &b, &bounds, true) && a_ok && b_ok)
        }
        None if cli.flags.contains_key("workload") => {
            let trace = match cli.flags.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
            };
            run::run_workload(&run::RunArgs {
                workload: cli.workload()?,
                seed: cli.number("seed", DEFAULT_SEED)?,
                seconds: cli.seconds(15.0)?,
                trace,
                sizes: cli.sizes(),
            })
        }
        None | Some("run") => Ok(suite::run_suite(&cli.suite()?)?.1),
        Some(_) => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a check failed (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
