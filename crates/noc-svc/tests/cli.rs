//! Argument errors of the `noc-svc` binary: each exits 2 while the flags
//! are parsed, before a listener binds or a worker starts.

use std::process::Command;

use noc_sim::exit;

/// Every valued flag of `serve`, with values it must refuse: first an
/// unparsable one, then any that parse but lie out of range. `--addr`
/// and `--data-dir` take any string, so only their missing value is
/// checked.
const VALUED: &[(&str, &[&str])] = &[
    ("--addr", &[]),
    ("--data-dir", &[]),
    ("--workers", &["x", "0"]),
    ("--queue-cap", &["x", "0"]),
    ("--max-points", &["x", "18446744073709551616"]),
    ("--point-timeout", &["soon", "0", "-1"]),
    ("--point-retries", &["x", "4294967296"]),
    ("--point-checkpoint", &["x", "18446744073709551616"]),
    ("--point-backoff-ms", &["x", "18446744073709551616"]),
];

/// No case passes `--data-dir` with a value, so one wrongly accepted
/// falls through to the missing-`--data-dir` error, which names another
/// flag, instead of starting a service.
#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    for (flag, bad) in VALUED {
        let missing = vec!["serve", flag];
        for args in std::iter::once(missing).chain(bad.iter().map(|v| vec!["serve", flag, v])) {
            let out = Command::new(env!("CARGO_BIN_EXE_noc-svc")).args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(exit::USAGE), "{args:?}: {stderr}");
            assert!(stderr.contains(flag), "{args:?}: stderr does not name {flag}: {stderr}");
        }
    }
}

/// A timeout too large for a `Duration` is a usage error, not a panic.
#[test]
fn point_timeout_beyond_a_duration_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_noc-svc"))
        .args(["serve", "--point-timeout", "1e300"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(exit::USAGE), "{stderr}");
    assert!(stderr.contains("--point-timeout"), "{stderr}");
}
