//! Process exit codes for `own-experiments` and `noc-svc`, and the flag
//! reader both binaries refuse a bad command line through.
//!
//! CI and the sweep supervisor key off these numbers, so they are defined
//! once here and the README table is checked against [`TABLE`] by a test —
//! editing one without the other fails `readme_table_matches`.

use std::fmt::Display;
use std::str::FromStr;

/// Success — experiments ran, all gates passed.
pub const OK: i32 = 0;
/// Usage error — diagnosed before any simulation runs.
pub const USAGE: i32 = 2;
/// The watchdog declared a livelock/deadlock.
pub const STALL: i32 = 3;
/// The adaptive reconfiguration controller violated dwell-time hysteresis.
pub const FLAPPING: i32 = 4;
/// Deadlock recovery was armed but the fabric stayed wedged.
pub const RECOVERY_EXHAUSTED: i32 = 6;
/// A supervised sweep completed with points that exhausted their retries.
pub const SWEEP_INCOMPLETE: i32 = 7;
/// Another live process holds the run-dir (or service data-dir) lock.
pub const LOCKED: i32 = 8;

/// Every exit code with the exact wording of its README table row.
pub const TABLE: &[(i32, &str)] = &[
    (OK, "success — experiments ran, all gates passed"),
    (
        USAGE,
        "usage error — unknown experiment, bad flag value, unreadable `--spec` \
         (diagnosed before any simulation runs)",
    ),
    (STALL, "stall — the watchdog declared a livelock/deadlock; `StallReport` on stderr"),
    (
        FLAPPING,
        "flapping — the adaptive reconfiguration controller violated its dwell-time \
         hysteresis (`overload-smoke`)",
    ),
    (
        RECOVERY_EXHAUSTED,
        "recovery exhausted — deadlock recovery was armed (`--recover`, `chaos`) but the \
         fabric stayed wedged after the attempt budget",
    ),
    (
        SWEEP_INCOMPLETE,
        "sweep incomplete — a supervised `sweep` finished but some points exhausted their \
         retry budget; per-point outcomes are in the run-dir ledger",
    ),
    (
        LOCKED,
        "locked — another live process holds the `supervisor.lock` of this `--run-dir` or \
         service `--data-dir`; rerun after it exits (the lock is released when its holder \
         exits, however it exits)",
    ),
];

/// Render [`TABLE`] as the markdown rows of the README "Exit codes" table.
pub fn readme_rows() -> String {
    let mut out = String::from("| code | meaning |\n|---|---|\n");
    for (code, meaning) in TABLE {
        out.push_str(&format!("| {code} | {meaning} |\n"));
    }
    out
}

/// Validate a thread/worker-count request before any pool is built: zero
/// is always an error, and asking for more than 4× the machine's
/// available parallelism is almost certainly a typo'd oversubscription.
/// `flag` is the CLI flag being validated (`--threads`, `--workers`) so
/// the diagnostic names the flag the user actually typed.
pub fn validate_threads(n: usize, flag: &str) -> Result<(), String> {
    if n == 0 {
        return Err(format!("{flag} must be >= 1 (0 would mean an empty worker pool)"));
    }
    let avail = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let cap = avail.saturating_mul(4);
    if n > cap {
        return Err(format!(
            "{flag} {n} oversubscribes this machine: {avail} hardware threads \
             available (cap {cap} = 4x); pick a value <= {cap}"
        ));
    }
    Ok(())
}

/// Print `msg` on stderr and exit with [`USAGE`].
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(USAGE)
}

/// Take the value of `flag` from `args` and parse it as `T`. A missing
/// value exits 2 with "`flag` requires `expects`", one that does not
/// parse with "`flag`: expected `expects`, got `value`".
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = impl AsRef<str>>,
    flag: &str,
    expects: &str,
) -> T {
    flag_value_if(args, flag, expects, |_| true)
}

/// [`flag_value`] with the flag's range check: a parsed value for which
/// `ok` fails exits 2 with the same message as an unparsable one.
pub fn flag_value_if<T: FromStr>(
    args: &mut impl Iterator<Item = impl AsRef<str>>,
    flag: &str,
    expects: &str,
    ok: impl FnOnce(&T) -> bool,
) -> T {
    let Some(raw) = args.next() else { usage_error(format_args!("{flag} requires {expects}")) };
    let raw = raw.as_ref();
    match raw.parse() {
        Ok(v) if ok(&v) => v,
        _ => usage_error(format_args!("{flag}: expected {expects}, got {raw:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_nonzero_failures() {
        let mut seen = std::collections::BTreeSet::new();
        for (code, _) in TABLE {
            assert!(seen.insert(*code), "duplicate exit code {code}");
        }
        assert_eq!(TABLE[0].0, OK);
        assert!(TABLE[1..].iter().all(|(c, _)| *c != 0));
        // 1 is reserved: it's what an uncaught panic exits with.
        assert!(TABLE.iter().all(|(c, _)| *c != 1));
    }

    #[test]
    fn readme_table_matches() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        // Compare row-by-row after collapsing the doc-string line wraps:
        // README rows are single lines.
        for (code, meaning) in TABLE {
            let row = format!("| {code} | {meaning} |");
            assert!(
                readme.contains(&row),
                "README 'Exit codes' table is missing or differs for code {code};\n\
                 expected row:\n{row}\n\
                 regenerate with `noc_sim::exit::readme_rows()`"
            );
        }
        // And no stale extra rows: every `| N |` row between the section
        // header and the next heading must be one of ours.
        let header = readme.find("### Exit codes").expect("README lost its Exit codes section");
        let rows = readme[header..]
            .lines()
            .skip(1)
            .take_while(|l| !l.starts_with('#'))
            .filter(|l| {
                l.strip_prefix("| ")
                    .and_then(|r| r.split(' ').next())
                    .is_some_and(|tok| tok.parse::<i32>().is_ok())
            })
            .count();
        assert_eq!(rows, TABLE.len(), "README exit-code row count drifted from exit::TABLE");
    }

    #[test]
    fn thread_validation() {
        assert!(validate_threads(0, "--threads").is_err());
        assert!(validate_threads(1, "--threads").is_ok());
        let avail = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        assert!(validate_threads(avail, "--threads").is_ok());
        let err = validate_threads(avail * 4 + 1, "--threads").unwrap_err();
        assert!(err.contains("oversubscribes"), "got: {err}");
        assert!(err.starts_with("--threads "), "got: {err}");
        // The diagnostic names whichever flag the caller is validating.
        let err = validate_threads(0, "--workers").unwrap_err();
        assert!(err.starts_with("--workers "), "got: {err}");
    }

    /// The error paths exit the process; `tests/cli.rs` drives them
    /// through the binary.
    #[test]
    fn flag_value_takes_and_parses_the_next_argument() {
        let mut args = ["7", "0.5", "rest"].iter();
        assert_eq!(flag_value::<u32>(&mut args, "--n", "a count"), 7);
        assert_eq!(flag_value_if(&mut args, "--p", "a probability", |p: &f64| *p <= 1.0), 0.5);
        assert_eq!(args.next(), Some(&"rest"));
    }
}
