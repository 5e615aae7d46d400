//! The `mimicnet` binary rejects flags a subcommand does not read — a typo
//! such as `--partitons 2` must fail loudly instead of silently running
//! something else — prints the same estimate whichever engine the flags
//! put it on, and ends out-of-range input in a one-line error, never a
//! panic.

use std::path::PathBuf;
use std::process::Command;

fn cli(args: &[&str]) -> (Option<i32>, String) {
    let (code, _stdout, stderr) = cli_out(args);
    (code, stderr)
}

fn cli_out(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mimicnet"))
        .args(args)
        .output()
        .expect("spawn mimicnet");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mimicnet-cli-{}-{name}", std::process::id()))
}

#[test]
fn unknown_flags_exit_2_on_every_subcommand() {
    let estimate = |flag: &'static str, value: &'static str| {
        vec!["estimate", "--model", "unused.json", "--clusters", "4", flag, value]
    };
    for args in [
        vec!["train", "--out", "unused.json", "--epoch", "1"],
        estimate("--partitons", "2"),
        // `--adaptive` and `--json` are estimate-only.
        vec!["validate", "--model", "unused.json", "--clusters", "4", "--adaptive"],
        vec!["validate", "--model", "unused.json", "--clusters", "4", "--json"],
        vec!["diverge", "--a", "a.json", "--b", "b.json", "--chekpoint", "x"],
        vec!["tune", "--model", "unused.json"],
        // Checkpoint, resume and snap-flip inputs are unknown like any
        // typo, and diverge reads only its two obs files.
        vec!["train", "--out", "unused.json", "--checkpoint", "ckpt"],
        estimate("--checkpoint-every", "1"),
        estimate("--checkpoint-dir", "ckpt"),
        estimate("--resume", "ckpt"),
        estimate("--keep-generations", "3"),
        estimate("--resume-generation", "gen-00000000000000000001"),
        vec!["validate", "--model", "unused.json", "--clusters", "4", "--resume", "ckpt"],
        vec!["diverge", "--a", "a.json", "--b", "b.json", "--a-ckpt", "x"],
        vec!["diverge", "--a", "a.json", "--b", "b.json", "--model", "unused.json"],
        vec!["snap-flip", "--ckpt", "ckpt", "--model", "unused.json", "--clusters", "4"],
        // Drift feeds the tier budget and nothing sets a throughput
        // floor: neither has a flag.
        estimate("--slo-max-drift", "1"),
        estimate("--slo-events-per-sec", "1"),
        // The crash drill is a test-local panicking model, not a flag.
        estimate("--crash-at-window", "5"),
    ] {
        let (code, stderr) = cli(&args);
        assert_eq!(code, Some(2), "{args:?} must be rejected: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.starts_with("error: unknown"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn known_good_invocations_still_succeed_and_orphan_checkpoint_flags_fail() {
    let model = tmp("model.json");
    let model_s = model.to_str().expect("utf-8 temp path");
    let (code, stderr) = cli(&[
        "train", "--out", model_s, "--duration", "0.3", "--epochs", "1", "--hidden", "8",
        "--seed", "7",
    ]);
    assert_eq!(code, Some(0), "train failed: {stderr}");

    let estimate = ["estimate", "--model", model_s, "--clusters", "3", "--duration", "0.2"];
    let (code, stderr) = cli(&estimate);
    assert_eq!(code, Some(0), "in-process estimate failed: {stderr}");

    // One model: the JSON report is byte-equal with and without the flag
    // that moves the run onto the PDES driver (wall time aside).
    let json_of = |extra: &[&str]| {
        let (code, stdout, stderr) = cli_out(&[&estimate[..], &["--json"], extra].concat());
        assert_eq!(code, Some(0), "estimate {extra:?} failed: {stderr}");
        let report: Vec<&str> =
            stdout.lines().filter(|l| !l.contains("\"wall_seconds\"")).collect();
        assert!(report.iter().any(|l| l.contains("\"fct_p99\"")), "no report: {stdout}");
        report.join("\n")
    };
    let in_process = json_of(&[]);
    assert_eq!(in_process, json_of(&["--partitions", "1"]), "--partitions 1 changed the estimate");
    assert_eq!(in_process, json_of(&["--partitions", "2"]), "--partitions 2 changed the estimate");

    // A value that does not parse is a usage error, not a panic.
    for bad in [
        [&estimate[..], &["--partitions", "two"]].concat(),
        vec!["train", "--out", "unused.json", "--duration", "fast"],
    ] {
        let (code, stderr) = cli(&bad);
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("must be a"), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
    }

    // The checkpoint flags once configured by `--checkpoint-every` are
    // gone with it: a usage error even next to a working flag.
    for orphan in [["--checkpoint-dir", "ckpt"], ["--keep-generations", "3"]] {
        let (code, stderr) = cli(&[&estimate[..], &["--partitions", "2"], &orphan].concat());
        assert_eq!(code, Some(2), "{orphan:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag for this subcommand: {}", orphan[0])));
    }
    let _ = std::fs::remove_file(&model);
}

/// Assert each invocation exits with `code` and no panic backtrace.
fn assert_clean_exit(cases: &[Vec<&str>], code: i32) {
    for args in cases {
        let (got, stderr) = cli(args);
        assert_eq!(got, Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn out_of_range_training_input_exits_1_without_a_panic() {
    let out = tmp("never-written.json");
    let out = out.to_str().expect("utf-8 temp path");
    let train = |extra: &[&'static str]| [&["train", "--out", out][..], extra].concat();
    let mut cases: Vec<Vec<&str>> = ["0.02", "0.01", "0.001", "0", "-1", "nan"]
        .into_iter()
        .map(|d| train(&["--duration", d]))
        .collect();
    cases.push(train(&["--window", "0", "--duration", "0.3"]));
    cases.push(train(&["--layers", "0", "--duration", "0.3"]));
    cases.push(vec!["tune", "--duration", "0.001"]);
    cases.push(vec!["tune", "--evals", "0"]);
    assert_clean_exit(&cases, 1);
    assert!(!std::path::Path::new(out).exists(), "a failed train wrote its bundle");
}

#[test]
fn zero_checkpoint_or_tier_cadence_exits_2_without_a_panic() {
    let model = tmp("cadence-model.json");
    let model_s = model.to_str().expect("utf-8 temp path");
    let (code, stderr) = cli(&[
        "train", "--out", model_s, "--duration", "0.3", "--epochs", "1", "--hidden", "8",
    ]);
    assert_eq!(code, Some(0), "train failed: {stderr}");
    let run = |cmd: &'static str, extra: &[&'static str]| {
        [&[cmd, "--model", model_s, "--clusters", "3", "--duration", "0.2"][..], extra].concat()
    };
    let mut cases: Vec<Vec<&str>> = Vec::new();
    // `--checkpoint-every` no longer exists, so every value of it, zero
    // included, is a usage error.
    for cmd in ["estimate", "validate"] {
        for every in ["0", "-1", "nan"] {
            cases.push(run(cmd, &["--checkpoint-every", every]));
        }
    }
    cases.push(run("estimate", &["--adaptive", "--tier-every", "0"]));
    assert_clean_exit(&cases, 2);
    // Diagnostic values out of range are usage errors naming the flag,
    // not silently coerced.
    for cmd in ["estimate", "validate"] {
        for [flag, value] in [
            ["--partitions", "0"],
            ["--digest-stride", "0"],
            ["--flight", "0"],
            ["--stop-at", "0"],
            ["--stop-at", "-1"],
            ["--stop-at", "nan"],
        ] {
            let args = run(cmd, &[flag, value]);
            let (code, stderr) = cli(&args);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            let named = format!("error: {flag} must be");
            assert!(stderr.lines().any(|l| l.starts_with(&named)), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&model);
}

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    use std::process::Stdio;
    let model = tmp("pipe-model.json");
    let model_s = model.to_str().expect("utf-8 temp path");
    let (code, stderr) = cli(&[
        "train", "--out", model_s, "--duration", "0.3", "--epochs", "1", "--hidden", "8",
    ]);
    assert_eq!(code, Some(0), "train failed: {stderr}");
    for json in [false, true] {
        let mut args = vec!["estimate", "--model", model_s, "--clusters", "8", "--duration", "0.2"];
        if json {
            args.push("--json");
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_mimicnet"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mimicnet");
        // The reader goes before the estimate prints its first line.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for mimicnet");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&model);
}
