//! The JSON surface of `own-experiments`, through the real binary:
//! `--spec` runs a single-point experiment, an invalid spec exits 2
//! before any simulation runs, and `--json` output parses as JSON. Also
//! `--resume` across a change of `--metrics-out`, a bad value of every
//! valued flag, `sweep --point-checkpoint 0`, and a sweep refused by a
//! run-dir lock that another process holds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use noc_sim::exit;
use noc_sim::json::Value;
use noc_sim::supervisor::RunLock;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_own-experiments")).args(args).output().unwrap()
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_spec(dir: &Path, name: &str, body: &str) -> String {
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, body).unwrap();
    path.display().to_string()
}

fn stdout_json(out: &Output) -> Value {
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    text.parse().unwrap_or_else(|e| panic!("stdout is not one JSON document ({e}):\n{text}"))
}

fn strings(v: &Value) -> Vec<&str> {
    v.as_array().unwrap().iter().map(|c| c.as_str().unwrap()).collect()
}

const TINY: &str = r#"{"topology": "cmesh-64", "pattern": "uniform", "rate": 0.02,
    "warmup": 100, "measure": 400, "drain": 2000, "seeds": [1, 2]}"#;

#[test]
fn spec_runs_a_tiny_cmesh_experiment() {
    let dir = scratch("tiny");
    let spec = write_spec(&dir, "tiny", TINY);
    let out = run(&["--json", "--spec", &spec]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v = stdout_json(&out);
    assert!(v["title"].as_str().unwrap().contains("(2 seeds)"), "{v:?}");
    assert_eq!(strings(&v["header"]), ["metric", "mean", "stddev", "ci95"]);
    let rows = v["rows"].as_array().unwrap();
    assert_eq!(rows.len(), 2);
    let latency: f64 = strings(&rows[0])[1].parse().unwrap();
    assert!(latency > 5.0, "latency {latency}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn invalid_specs_exit_2_before_any_simulation() {
    // The valid spec comes first: it must not run when a later one is bad.
    let dir = scratch("invalid");
    let good = write_spec(&dir, "good", TINY);
    for (name, body, message) in [
        (
            "typo",
            r#"{"topology": "cmesh-64", "pattern": "uniform", "rate": 0.02, "warmpu": 100}"#,
            "unknown field \"warmpu\"",
        ),
        ("negative", r#"{"topology": "cmesh-64", "pattern": "uniform", "rate": -0.1}"#, "outside"),
        ("above-one", r#"{"topology": "cmesh-64", "pattern": "uniform", "rate": 1.5}"#, "outside"),
        ("malformed", r#"{"topology": "cmesh-64", "#, "not valid JSON"),
        (
            "topology",
            r#"{"topology": "torus-64", "pattern": "un", "rate": 0.1}"#,
            "unknown topology",
        ),
    ] {
        let bad = write_spec(&dir, name, body);
        let out = run(&["--spec", &good, "--spec", &bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(exit::USAGE), "{name}: {stderr}");
        assert!(stderr.contains(message), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: a simulation ran before the diagnosis");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_table1_parses() {
    let out = run(&["--json", "table1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v = stdout_json(&out);
    assert!(v["title"].as_str().unwrap().starts_with("Table I"));
    let header = strings(&v["header"]);
    let rows = v["rows"].as_array().unwrap();
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| strings(r).len() == header.len()));
}

/// Run `own256` once, checkpointing into `dir`, with or without
/// `--metrics-out`.
fn checkpointed_own256(dir: &Path, metrics: bool) {
    let ckpt = dir.join("ckpt").display().to_string();
    let m = dir.join("first.jsonl").display().to_string();
    let mut args = vec!["--checkpoint-every", "2000", "--checkpoint-dir", &ckpt];
    if metrics {
        args.extend(["--metrics-out", &m]);
    }
    args.push("own256");
    let out = run(&args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn resume_without_metrics_out_of_a_metrics_checkpoint_exits_2() {
    let dir = scratch("resume-drops-metrics");
    checkpointed_own256(&dir, true);
    let ckpt = dir.join("ckpt").display().to_string();
    let out = run(&["--resume", "--checkpoint-dir", &ckpt, "own256"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(exit::USAGE), "{stderr}");
    assert!(stderr.contains("--metrics-out"), "{stderr}");
    assert!(out.stdout.is_empty(), "a simulation ran before the diagnosis");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The reverse is sound: the registry attaches with fresh counts at the
/// restore point and the run writes its telemetry.
#[test]
fn resume_with_metrics_out_of_a_plain_checkpoint_runs() {
    let dir = scratch("resume-adds-metrics");
    checkpointed_own256(&dir, false);
    let ckpt = dir.join("ckpt").display().to_string();
    let m = dir.join("resumed.jsonl");
    let m_arg = m.display().to_string();
    let out = run(&["--resume", "--checkpoint-dir", &ckpt, "--metrics-out", &m_arg, "own256"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("(resumed from cycle"));
    assert!(std::fs::metadata(&m).unwrap().len() > 0, "no metrics written");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every valued flag and subcommand, with values it must refuse: first an
/// unparsable one, then any that parse but lie out of range. Path-valued
/// flags accept any string, so only their missing value is checked.
const VALUED: &[(&str, &[&str])] = &[
    ("metrics", &[]),
    ("sweep", &[]),
    ("sweep-status", &[]),
    ("--run-dir", &[]),
    ("--point-timeout", &["soon", "0", "-1"]),
    ("--point-retries", &["x", "4294967296"]),
    ("--max-failures", &["x", "0"]),
    ("--point-checkpoint", &["x", "18446744073709551616"]),
    ("--max-points", &["x", "18446744073709551616"]),
    ("--point-backoff-ms", &["x", "18446744073709551616"]),
    ("--metrics-out", &[]),
    ("--metrics-interval", &["x", "0"]),
    ("--spec", &[]),
    ("--trace", &[]),
    ("--sample-interval", &["x", "0"]),
    ("--faults", &["band:3", "band:99@100"]),
    ("--ber", &["x", "1.5", "-0.1"]),
    ("--retry-limit", &["x", "256"]),
    ("--coding", &["secded:x", "on"]),
    ("--corruption-rate", &["x", "1.5"]),
    ("--recover", &["x", "0", "4:0"]),
    ("--chaos-seed", &["x", "18446744073709551616"]),
    ("--chaos-cycles", &["x", "0"]),
    ("--chaos-cuts", &["x", "4294967296"]),
    ("--throttle", &["x", "0:0", "4:8"]),
    ("--reconfig", &["x", "adaptive:0:10"]),
    ("--checkpoint-every", &["x", "0"]),
    ("--checkpoint-dir", &[]),
    ("--audit", &["x", "18446744073709551616"]),
    ("--threads", &["x", "0"]),
];

/// A missing, unparsable or out-of-range flag value exits 2 during
/// argument parsing, naming the flag. `fig3` (no simulation) comes first,
/// so a value wrongly accepted shows as a successful run.
#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    for (flag, bad) in VALUED {
        let missing = vec!["fig3", flag];
        for args in std::iter::once(missing).chain(bad.iter().map(|v| vec!["fig3", flag, v])) {
            let out = run(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(exit::USAGE), "{args:?}: {stderr}");
            assert!(stderr.contains(flag), "{args:?}: stderr does not name {flag}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}: an experiment ran");
        }
    }
}

/// A timeout too large for a `Duration` is a usage error, not a panic.
#[test]
fn point_timeout_beyond_a_duration_exits_2() {
    let out = run(&["fig3", "--point-timeout", "1e300"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(exit::USAGE), "{stderr}");
    assert!(stderr.contains("--point-timeout"), "{stderr}");
}

/// A flag error that is found only after the flags are read still stops
/// the run before a sweep executes.
#[test]
fn late_flag_errors_stop_a_sweep_before_it_runs() {
    let dir = scratch("late-flag-errors");
    let spec = write_spec(&dir, "sweep", TINY_SWEEP);
    for (flag, value) in [("--faults", "band:3"), ("--checkpoint-every", "100")] {
        let run_dir = dir.join(&flag[2..]);
        let run_dir_arg = run_dir.display().to_string();
        let out = run(&["sweep", &spec, "--run-dir", &run_dir_arg, flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(exit::USAGE), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(!run_dir.exists(), "{flag}: the sweep ran before the diagnosis");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

const TINY_SWEEP: &str = r#"{"topologies": ["cmesh-64"], "patterns": ["uniform"],
    "rates": [0.02], "seeds": [1], "warmup": 100, "measure": 400, "drain": 2000}"#;

/// `--point-checkpoint 0` is the documented "off": the sweep completes
/// and writes no checkpoint directory.
#[test]
fn point_checkpoint_0_sweeps_without_checkpoints() {
    let dir = scratch("point-checkpoint-0");
    let spec = write_spec(&dir, "sweep", TINY_SWEEP);
    let run_dir = dir.join("run");
    let run_dir_arg = run_dir.display().to_string();
    let out = run(&["sweep", &spec, "--run-dir", &run_dir_arg, "--point-checkpoint", "0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(run_dir.join("results.json").exists(), "the sweep did not complete");
    assert!(!run_dir.join("ckpt").exists(), "checkpoints written with --point-checkpoint 0");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The run-dir lock conflicts across processes, not just across handles
/// of one process: while this test holds it, the binary exits 8 without
/// running the sweep; once the guard drops, the same command completes.
#[test]
fn sweep_on_a_run_dir_locked_by_another_process_exits_8() {
    let dir = scratch("locked-run-dir");
    let spec = write_spec(&dir, "sweep", TINY_SWEEP);
    let run_dir = dir.join("run");
    let run_dir_arg = run_dir.display().to_string();
    let lock = RunLock::acquire(&run_dir).unwrap();
    let out = run(&["sweep", &spec, "--run-dir", &run_dir_arg]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(exit::LOCKED), "{stderr}");
    let holder = format!("locked by live process {}", std::process::id());
    assert!(stderr.contains(&holder), "{stderr}");
    assert!(!run_dir.join("results.json").exists(), "the sweep ran under a held lock");
    drop(lock);
    let out = run(&["sweep", &spec, "--run-dir", &run_dir_arg]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(run_dir.join("results.json").exists(), "the sweep did not complete");
    std::fs::remove_dir_all(&dir).unwrap();
}
