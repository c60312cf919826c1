//! `noc-svc` — the sweep service CLI.
//!
//! ```text
//! noc-svc serve --data-dir d [--addr host:port] [--workers n] [--queue-cap n]
//!               [--max-points n] [--point-timeout secs] [--point-retries n]
//!               [--point-checkpoint cycles] [--point-backoff-ms n]
//! ```
//!
//! Exit codes route through `noc_sim::exit`: 0 on a clean signal-driven
//! drain, 2 for usage errors, 8 when another live process holds the
//! data-dir lock.

use std::io;

use noc_sim::exit;
use noc_svc::config::SvcConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("serve") => {}
        Some("--help" | "-h" | "help") | None => {
            usage();
            std::process::exit(if args.is_empty() { exit::USAGE } else { exit::OK });
        }
        Some(other) => {
            eprintln!("noc-svc: unknown subcommand {other:?}");
            usage();
            std::process::exit(exit::USAGE);
        }
    }

    let mut cfg = SvcConfig::default();
    let mut data_dir_set = false;
    while let Some(a) = it.next() {
        let flag = a.as_str();
        if cfg.sup.apply_flag(flag, &mut it) {
            continue;
        }
        match flag {
            "--addr" => cfg.addr = exit::flag_value(&mut it, flag, "a host:port bind address"),
            "--data-dir" => {
                cfg.data_dir = exit::flag_value(&mut it, flag, "a directory path");
                data_dir_set = true;
            }
            "--workers" => {
                cfg.workers = exit::flag_value(&mut it, flag, "a thread count");
                if let Err(e) = exit::validate_threads(cfg.workers, flag) {
                    exit::usage_error(e);
                }
            }
            "--queue-cap" => {
                cfg.queue_cap =
                    exit::flag_value_if(&mut it, flag, "a queued-point cap >= 1", |n| *n >= 1);
            }
            other => {
                eprintln!("noc-svc: unknown flag {other:?}");
                usage();
                std::process::exit(exit::USAGE);
            }
        }
    }
    if !data_dir_set {
        exit::usage_error(
            "noc-svc: serve requires --data-dir (ledger, checkpoints and results live there)",
        );
    }

    match noc_svc::serve(cfg) {
        Ok(()) => std::process::exit(exit::OK),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            // Another live service owns the data dir; starting a second
            // writer would corrupt the ledger.
            eprintln!("noc-svc: {e}");
            std::process::exit(exit::LOCKED);
        }
        Err(e) => exit::usage_error(format_args!("noc-svc: {e}")),
    }
}

fn usage() {
    eprintln!(
        "noc-svc — crash-safe sweep service (see the \"Sweep service\" section of EXPERIMENTS.md)

usage: noc-svc serve --data-dir <dir> [flags]

flags:
  --addr host:port        bind address (default 127.0.0.1:7070; port 0 = pick a free port)
  --data-dir dir          ledger, checkpoints, specs and results (required)
  --workers n             simulation worker threads (default: min(4, cores))
  --queue-cap n           bound on queued points before 429 (default 1024)
  --max-points n          per-spec cross-product cap, 0 = unlimited (default 100000)
  --point-timeout secs    wall-clock budget per attempt
  --point-retries n       reruns after the first attempt (default 2)
  --point-checkpoint n    checkpoint cadence in cycles, 0 = off (default 2000)
  --point-backoff-ms n    first retry backoff (default 100)

routes: POST /sweeps  GET /sweeps/:id  GET /sweeps/:id/results
        GET /sweeps/:id/events (SSE)  GET /healthz  GET /readyz"
    );
}
