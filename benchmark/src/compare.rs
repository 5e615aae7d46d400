//! `compare A.json B.json`: apply the bounds of `BENCHMARK.json` to two
//! results files, one row per metric x workload.

use crate::json::{get, get_array, get_f64, get_str, read_file};
use crate::stats::median;
use serde_json::Value;
use std::path::Path;

/// `setup_s` is milliseconds on most workloads: below this much absolute
/// change a relative bound only measures process start-up jitter.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// `acc.w1_fct_rel` may rise by this much, absolute.
pub const W1_SLACK: f64 = 0.02;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A's own spread exceeds the bound: the row decides nothing.
    Unresolved,
}

/// Judge one row. `a` are the repeats of the baseline, `b` the median of
/// the candidate; `bound` is relative to A's median, and `floor_abs`
/// widens it to at least that absolute amount.
pub fn judge(a: &[f64], b: f64, bound: f64, higher_is_better: bool, floor_abs: f64) -> Verdict {
    let a_med = median(a);
    let allowed = (bound * a_med.abs()).max(floor_abs);
    let (min, max) = a
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    if max - min > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better {
        a_med - b
    } else {
        b - a_med
    };
    if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// `(name, bound, higher_is_better)` of every end-to-end metric.
pub fn read_bounds(path: &Path) -> Result<Vec<(String, f64, bool)>, String> {
    let spec = read_file(path)?;
    get_array(&spec, "end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .map(|m| {
            let name = get_str(m, "name").ok_or("end_to_end entry without a name")?;
            let bound = get_f64(m, "bound").ok_or("end_to_end entry without a bound")?;
            Ok((
                name.to_string(),
                bound,
                get_str(m, "better") == Some("higher"),
            ))
        })
        .collect()
}

fn row_values(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    get_array(results, "rows")?
        .iter()
        .find(|r| get_str(r, "workload") == Some(workload) && get_str(r, "metric") == Some(metric))
        .and_then(|r| get_array(r, "values"))
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
}

fn identity<'a>(results: &'a Value, workload: &str) -> Option<&'a Value> {
    get_array(results, "identity")?
        .iter()
        .find(|r| get_str(r, "workload") == Some(workload))
}

/// Compare two results files and print the table. Returns whether B
/// passes: no row regressed and no more operations failed; with
/// `same_commit` (the `aa` mode) the simulated statistics must also be
/// identical.
pub fn compare(a: &Value, b: &Value, bounds: &[(String, f64, bool)], same_commit: bool) -> bool {
    let mut pass = true;
    println!(
        "{:<12} {:<14} {:>13} {:>13} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for workload in crate::spec::WORKLOADS {
        for (metric, bound, higher) in bounds {
            let (Some(av), Some(bv)) = (
                row_values(a, workload, metric),
                row_values(b, workload, metric),
            ) else {
                println!("{workload:<12} {metric:<14} missing from one side");
                pass = false;
                continue;
            };
            if av.is_empty() || bv.is_empty() {
                println!("{workload:<12} {metric:<14} no samples");
                pass = false;
                continue;
            }
            let (a_med, b_med) = (median(&av), median(&bv));
            let floor = if metric == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let verdict = judge(&av, b_med, *bound, *higher, floor);
            pass &= verdict != Verdict::Regressed;
            println!(
                "{workload:<12} {metric:<14} {a_med:>13.4} {b_med:>13.4} {:>+7.1}% {:>7.0}%  {}",
                (b_med / a_med - 1.0) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (A's own spread exceeds the bound)",
                }
            );
        }
        let (Some(ia), Some(ib)) = (identity(a, workload), identity(b, workload)) else {
            println!("{workload:<12} identity row missing from one side");
            pass = false;
            continue;
        };
        for key in ["events0", "digest0"] {
            let same =
                get(ia, key).map(|v| format!("{v:?}")) == get(ib, key).map(|v| format!("{v:?}"));
            println!(
                "{workload:<12} {key:<14} {}",
                if same { "identical" } else { "DIFFERS" }
            );
            pass &= same || !same_commit;
        }
        if let (Some(wa), Some(wb)) = (get_f64(ia, "w1_fct_rel"), get_f64(ib, "w1_fct_rel")) {
            let ok = if same_commit {
                wa == wb
            } else {
                wb - wa <= W1_SLACK
            };
            println!(
                "{workload:<12} {:<14} {wa:>13.4} {wb:>13.4} {:>+8.4} {:>+8.2}  {}",
                "w1_fct_rel",
                wb - wa,
                W1_SLACK,
                if ok { "within bound" } else { "REGRESSED" }
            );
            pass &= ok;
        }
        let (fa, fb) = (
            get_f64(ia, "failed_frac").unwrap_or(0.0),
            get_f64(ib, "failed_frac").unwrap_or(1.0),
        );
        println!(
            "{workload:<12} {:<14} {fa:>13.4} {fb:>13.4}  {}",
            "failed_frac",
            if fb <= fa { "did not rise" } else { "ROSE" }
        );
        pass &= fb <= fa;
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_is_better_rows_regress_past_the_bound_only() {
        let a = [10.0, 10.2, 9.9];
        assert_eq!(judge(&a, 10.9, 0.10, false, 0.0), Verdict::Within);
        assert_eq!(judge(&a, 11.1, 0.10, false, 0.0), Verdict::Regressed);
        assert_eq!(judge(&a, 5.0, 0.10, false, 0.0), Verdict::Within);
    }

    #[test]
    fn higher_is_better_rows_regress_downwards() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&a, 91.0, 0.10, true, 0.0), Verdict::Within);
        assert_eq!(judge(&a, 89.0, 0.10, true, 0.0), Verdict::Regressed);
        assert_eq!(judge(&a, 150.0, 0.10, true, 0.0), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [10.0, 12.0, 9.0];
        assert_eq!(judge(&a, 10.0, 0.10, false, 0.0), Verdict::Unresolved);
        assert_eq!(judge(&a, 20.0, 0.10, false, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn setup_floor_widens_a_small_relative_bound() {
        // 4 ms of set-up: +25 % is 1 ms, the floor allows 20 ms.
        let a = [0.004, 0.0042, 0.0039];
        assert_eq!(judge(&a, 0.015, 0.25, false, 0.0), Verdict::Regressed);
        assert_eq!(
            judge(&a, 0.015, 0.25, false, SETUP_FLOOR_S),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, 0.030, 0.25, false, SETUP_FLOOR_S),
            Verdict::Regressed
        );
        // Half a second of set-up: the relative bound is the wider one.
        let slow = [0.50, 0.51, 0.49];
        assert_eq!(
            judge(&slow, 0.60, 0.25, false, SETUP_FLOOR_S),
            Verdict::Within
        );
        assert_eq!(
            judge(&slow, 0.70, 0.25, false, SETUP_FLOOR_S),
            Verdict::Regressed
        );
    }
}
