//! The whole benchmark in one command: every workload untraced
//! (`repeats` fresh processes each) for the end-to-end metrics, then once
//! traced for the per-layer metrics, cross-checked and written to one
//! results file.

use crate::json::{get, get_array, get_f64, get_str, read_file};
use crate::run::{detail_path, out_dir};
use crate::spec::{Sizes, END_TO_END, PER_LAYER, SMOKE, THREADS, WORKLOADS};
use crate::stats::median;
use dcn_sim::snapshot::atomic_write;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    pub sizes: Sizes,
    pub out: PathBuf,
}

pub fn default_out(seed: u64, sizes: &Sizes) -> PathBuf {
    out_dir().join(format!("results-{}-seed{seed}.json", sizes.label))
}

fn command_stdout(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One run of one workload in a fresh process; returns its detail file.
fn run_once(args: &SuiteArgs, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.sizes == SMOKE {
        cmd.arg("--smoke");
    }
    let path = detail_path(workload, trace);
    let _ = std::fs::remove_file(&path);
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    print!("{}", String::from_utf8_lossy(&output.stdout));
    // A run that failed an output check still wrote its detail file.
    read_file(&path).map_err(|e| {
        format!(
            "{workload} (trace {}) exited with {} and left no result: {e}",
            trace as u8, output.status
        )
    })
}

/// Digest per input key over `runs`; an input seen with two digests is an
/// error: repeats and traced runs of one workload must agree exactly.
fn cross_check(workload: &str, runs: &[Value]) -> Vec<String> {
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    let mut errors = Vec::new();
    for run in runs {
        let keys = get_array(run, "op_key").unwrap_or(&[]);
        let digests = get_array(run, "op_digest").unwrap_or(&[]);
        for (k, d) in keys.iter().zip(digests) {
            let (Some(k), Some(d)) = (k.as_str(), d.as_str()) else {
                continue;
            };
            let first = seen.entry(k.to_string()).or_insert_with(|| d.to_string());
            if first != d {
                errors.push(format!(
                    "{workload}: input {k} gave digest {first} in one run and {d} in another"
                ));
            }
        }
    }
    errors
}

/// Run the suite, print the table, write the results file. Returns the
/// results and whether every output check passed.
pub fn run_suite(args: &SuiteArgs) -> Result<(Value, bool), String> {
    let mut rows = Vec::new();
    let mut layers = Vec::new();
    let mut identities = Vec::new();
    let mut all_runs = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut truth_op_ms = None;
    for workload in WORKLOADS {
        // The untraced repeats, then the one traced run.
        let mut everything = Vec::new();
        for _ in 0..args.repeats {
            everything.push(run_once(args, workload, false)?);
        }
        everything.push(run_once(args, workload, true)?);
        let (runs, traced) = (&everything[..args.repeats], &everything[args.repeats]);
        errors.extend(cross_check(workload, &everything));

        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    get(r, "metrics")
                        .and_then(|ms| get(ms, m.name))
                        .and_then(|v| get_f64(v, "value"))
                })
                .collect();
            if values.len() != runs.len() {
                return Err(format!("{workload}: a run did not report {}", m.name));
            }
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            rows.push(json!({
                "workload": workload,
                "metric": m.name,
                "unit": m.unit,
                "better": if m.higher_is_better { "higher" } else { "lower" },
                "values": values,
                "median": median(&values),
                "min": min,
                "max": max,
                "samples": values.len(),
            }));
        }
        for m in PER_LAYER {
            let value = get(traced, "metrics")
                .and_then(|ms| get(ms, m.name))
                .and_then(|v| get_f64(v, "value"));
            layers.push(
                json!({"workload": workload, "metric": m.name, "unit": m.unit, "value": value}),
            );
        }
        let (attempted, failed) = everything.iter().fold((0.0, 0.0), |(a, f), r| {
            (
                a + get_f64(r, "attempted").unwrap_or(0.0),
                f + get_f64(r, "failed").unwrap_or(0.0),
            )
        });
        for r in &everything {
            for failure in get_array(r, "failures").unwrap_or(&[]) {
                errors.push(failure.as_str().unwrap_or("failure").to_string());
            }
        }
        let w1s: Vec<f64> = everything
            .iter()
            .filter_map(|r| get_f64(r, "w1_fct_rel"))
            .collect();
        if w1s.windows(2).any(|w| w[0] != w[1]) {
            errors.push(format!(
                "{workload}: w1_fct_rel differs between runs of one seed: {w1s:?}"
            ));
        }
        let first = |key: &str| get(&runs[0], key).cloned().unwrap_or(Value::Null);
        let op_ms = median(
            &runs
                .iter()
                .filter_map(|r| {
                    get(r, "metrics")
                        .and_then(|m| get(m, "op_ms"))
                        .and_then(|v| get_f64(v, "value"))
                })
                .collect::<Vec<_>>(),
        );
        if workload == "truth-64" {
            truth_op_ms = Some(op_ms);
        }
        identities.push(json!({
            "workload": workload,
            "events0": first("events0"),
            "digest0": first("digest0"),
            "w1_fct_rel": w1s.first().copied(),
            "fct_p99_rel_err": get_f64(&runs[0], "fct_p99_rel_err"),
            // Base: the median op_ms of truth-64 in this same suite run.
            "speedup_vs_truth": truth_op_ms.filter(|_| !w1s.is_empty()).map(|t| t / op_ms),
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted.max(1.0),
        }));
        all_runs.extend(everything);
    }

    println!(
        "\n== end-to-end (untraced; median [min, max] of {} runs of {} s) ==",
        args.repeats, args.seconds
    );
    for row in &rows {
        println!(
            "{:<12} {:<12} {:>12.4} [{:.4}, {:.4}] {}",
            get_str(row, "workload").unwrap_or(""),
            get_str(row, "metric").unwrap_or(""),
            get_f64(row, "median").unwrap_or(0.0),
            get_f64(row, "min").unwrap_or(0.0),
            get_f64(row, "max").unwrap_or(0.0),
            get_str(row, "unit").unwrap_or(""),
        );
    }
    println!("\n== simulated statistics and accuracy (exact in the seed) ==");
    for id in &identities {
        let num = |key: &str| get_f64(id, key).map_or("-".to_string(), |v| format!("{v:.4}"));
        println!(
            "{:<12} sim.events[0] {:>9}  result_digest[0] {}  w1_fct_rel {}  fct_p99_rel_err {}  speedup_vs_truth {}  failed_frac {}",
            get_str(id, "workload").unwrap_or(""),
            get_f64(id, "events0").unwrap_or(0.0),
            get_str(id, "digest0").unwrap_or("-"),
            num("w1_fct_rel"),
            num("fct_p99_rel_err"),
            num("speedup_vs_truth"),
            num("failed_frac"),
        );
    }
    println!("\n== per layer (one traced run; 0 = the layer does no work here) ==");
    print!("{:<28} {:<6}", "metric", "unit");
    for workload in WORKLOADS {
        print!(" {workload:>14}");
    }
    println!();
    for m in PER_LAYER {
        print!("{:<28} {:<6}", m.name, m.unit);
        for workload in WORKLOADS {
            let value = layers
                .iter()
                .find(|l| {
                    get_str(l, "workload") == Some(workload) && get_str(l, "metric") == Some(m.name)
                })
                .and_then(|l| get_f64(l, "value"))
                .unwrap_or(f64::NAN);
            print!(" {value:>14.6}");
        }
        println!();
    }

    let correct = errors.is_empty();
    for e in &errors {
        eprintln!("FAILED: {e}");
    }
    let results = json!({
        "meta": json!({
            "seed": args.seed,
            "seconds": args.seconds,
            "repeats": args.repeats,
            "sizes": args.sizes.label,
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "threads": THREADS,
            "rustc": env!("BENCH_RUSTC_VERSION"),
            "rustflags": env!("BENCH_RUSTFLAGS"),
            "git_sha": command_stdout("git", &["rev-parse", "HEAD"]),
        }),
        "claim": Value::Null,
        "correct": correct,
        "errors": errors,
        "rows": rows,
        "identity": identities,
        "layers": layers,
        "runs": all_runs,
    });
    let text = serde_json::to_string_pretty(&results).expect("serializable results");
    atomic_write(&args.out, text.as_bytes())
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("\nwrote {}", args.out.display());
    Ok((results, correct))
}
