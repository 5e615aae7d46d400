//! The `mimicnet` binary rejects flags a subcommand does not read. Flag
//! *presence* selects the engine (scalar in-process vs batched PDES), so
//! a typo such as `--partitons 2` must fail loudly instead of silently
//! estimating with a different model.

use std::path::PathBuf;
use std::process::Command;

fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mimicnet"))
        .args(args)
        .output()
        .expect("spawn mimicnet");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mimicnet-cli-{}-{name}", std::process::id()))
}

#[test]
fn unknown_flags_exit_2_on_every_subcommand() {
    for args in [
        &["train", "--out", "unused.json", "--epoch", "1"][..],
        &["estimate", "--model", "unused.json", "--clusters", "4", "--partitons", "2"],
        // `--adaptive` and `--json` are estimate-only.
        &["validate", "--model", "unused.json", "--clusters", "4", "--adaptive"],
        &["validate", "--model", "unused.json", "--clusters", "4", "--json"],
        &["diverge", "--a", "a.json", "--b", "b.json", "--chekpoint", "x"],
        &["tune", "--model", "unused.json"],
    ] {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(2), "{args:?} must be rejected: {stderr}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
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
    assert_eq!(code, Some(0), "scalar estimate failed: {stderr}");
    let (code, stderr) = cli(&[&estimate[..], &["--partitions", "2", "--json"]].concat());
    assert_eq!(code, Some(0), "partitioned estimate failed: {stderr}");

    // These two only configure `--checkpoint-every`; alone they used to
    // be ignored.
    for orphan in [["--checkpoint-dir", "ckpt"], ["--keep-generations", "3"]] {
        let (code, stderr) = cli(&[&estimate[..], &["--partitions", "2"], &orphan].concat());
        assert_eq!(code, Some(2), "{orphan:?} without --checkpoint-every: {stderr}");
        assert!(stderr.contains("--checkpoint-every"), "{stderr}");
    }
    let _ = std::fs::remove_file(&model);
}
