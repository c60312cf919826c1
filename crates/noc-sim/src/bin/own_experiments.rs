//! `own-experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! own-experiments [--quick|--full] [--csv] <experiment>...
//! own-experiments all            # everything, in paper order
//! own-experiments table1 table2 table3 table4
//! own-experiments fig3 fig4 fig5 fig6 fig7a fig7b fig7c fig8a fig8b
//! ```
//!
//! `--quick` (default) uses short simulation windows suitable for smoke
//! runs; `--full` uses report-quality windows (minutes of wall clock).
//! `--csv` and `--json` switch the output format.
//!
//! Observability flags:
//!
//! * `--trace <file>` — run one traced OWN-256 simulation and write its
//!   event trace in Chrome trace format (load into `chrome://tracing` or
//!   Perfetto). `<file>.jsonl` receives the same events as JSONL.
//! * `--sample-interval <n>` — sample network state every `n` cycles in
//!   every simulation-backed experiment; load sweeps use the series for
//!   saturation-onset detection (`*` markers on fig7b/fig7c cells).
//! * `--progress` — per-point sweep progress and per-experiment wall-clock
//!   timings on stderr.
//!
//! Resilience flags (consumed by the `resilience` experiment):
//!
//! * `--faults <spec>` — fault schedule, e.g. `band:3@5000` (permanent) or
//!   `band:3@5000+2000, token:0@8000+500` (transient, comma-separated);
//!   targets are `band:<n>`, `ch:<id>`, `bus:<id>`, `token:<id>`.
//! * `--ber <rate>` — uniform wireless bit error rate (default: derived
//!   per distance class from the noc-phy link budget).
//! * `--retry-limit <n>` — link-level retransmission budget per flit hop.
//!
//! Overload flags (consumed by `overload` and `overload-smoke`):
//!
//! * `--throttle <high>:<low>` — NIC admission watermarks in queued
//!   packets; offers shed above `high`, the latch releases below `low`
//!   (`low < high`, both validated up front).
//! * `--reconfig adaptive:<epoch>:<hysteresis>` — adaptive spare-band
//!   controller timing in cycles (`epoch >= 1`; only the `adaptive:` form
//!   is accepted here — the protection postures compared by the sweep are
//!   fixed).
//!
//! `overload-smoke` runs one short fully-observed adaptive hotspot run and
//! exits 3 on a watchdog stall or 4 when a spare band was re-steered twice
//! within one hysteresis window (flapping).
//!
//! Run-durability flags (consumed by `own256`/`own1024` and `--trace`):
//!
//! * `--checkpoint-every <n>` — write a checkpoint every `n` cycles
//!   (requires `--checkpoint-dir`).
//! * `--checkpoint-dir <dir>` — directory for checkpoint files.
//! * `--resume` — resume from the newest checkpoint in
//!   `--checkpoint-dir` (starts fresh when the directory has none).
//! * `--audit <n>` — run the full invariant audit every `n` cycles and
//!   abort on the first violation (debug aid; slows the run).
//!
//! The progress watchdog is always armed on these runs; a declared
//! livelock/deadlock prints the structured stall report on stderr and
//! exits with status 3 so CI can fail the job.
//!
//! Telemetry flags (consumed by `own256`/`own1024`):
//!
//! * `--metrics-out <file>` — attach the stage profiler and the spatial
//!   metrics registry to the run and write the telemetry artifact set:
//!   `<file>` (`own-noc-metrics/v1` JSONL), `<file>.heatmap.csv`
//!   (cluster×cluster traffic matrix), `<file>.bands.csv` (per-band
//!   utilization over time) and `<file>.prom` (Prometheus textfile).
//! * `--metrics-interval <n>` — cycles between metrics frames (default
//!   1000).
//!
//! The `metrics <file>` subcommand summarizes a previously written JSONL
//! stream: hot bands, stage-time pie, hottest cluster pairs, and the
//! shard-imbalance index.
//!
//! `--threads <n>` has two effects, both deterministic: it caps the
//! worker threads that run sweep points in parallel (`noc_sim::workers`;
//! default: the machine's available parallelism, with nested sweeps
//! running inline on their worker), and for the `own256` / `own1024` runs
//! it arms the cluster-sharded parallel engine (parallelism *within* one
//! simulation, `noc_core::par`) — which is bit-identical to the serial
//! engine at every thread count, so results are reproducible on shared
//! machines regardless of the value. Engine speed is measured by the
//! benchmark of record, `perfbench/`.
//!
//! Unknown experiment names and unreadable or invalid `--spec` files
//! (malformed JSON, unknown keys, a rate outside [0, 1], an unknown
//! topology or pattern) are diagnosed before anything runs, and exit with
//! status 2.

#![forbid(unsafe_code)]

use std::io;
use std::path::Path;
use std::time::Instant;

use noc_power::Scenario;
use noc_sim::exit;
use noc_sim::experiments::chaos::{self, ChaosOpts};
use noc_sim::experiments::overload::{self, OverloadOpts};
use noc_sim::experiments::resilience::{self, CodingSelect, ResilienceOpts};
use noc_sim::experiments::{extensions, perf, phy, power, tables, Budget};
use noc_sim::obs::{
    recovery_report_json, stall_report_json, write_chrome_trace_with_stall, write_jsonl_with_stall,
    RingRecorder,
};
use noc_sim::supervisor::{self, SimRunner, SupervisorConfig, SweepSpec};
use noc_sim::{Report, SimConfig, SimResult, SimSpec, Simulation};
use noc_topology::{Own256, Topology};
use noc_traffic::TrafficPattern;

/// Checkpoint/resume/audit options shared by the long-run commands.
#[derive(Default)]
struct DurabilityOpts {
    checkpoint_every: u64,
    checkpoint_dir: Option<String>,
    resume: bool,
    audit_every: u64,
}

/// Experiment names accepted on the command line (besides `all`/`extras`).
const KNOWN: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7a",
    "fig7b",
    "fig7c",
    "fig8a",
    "fig8b",
    "area",
    "loss",
    "sdm",
    "reconfig",
    "bursty",
    "breakdown",
    "placement",
    "nodes",
    "thermal",
    "resilience",
    "overload",
    "overload-smoke",
    "chaos",
    "own256",
    "own1024",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(exit::USAGE);
    }
    let mut budget = Budget::quick();
    let mut csv = false;
    let mut json = false;
    let mut chart = false;
    let mut progress = false;
    let mut trace_file: Option<String> = None;
    let mut sample_interval: u64 = 0;
    let mut resilience_opts = ResilienceOpts::default();
    let mut overload_opts = OverloadOpts::default();
    let mut chaos_opts = ChaosOpts::default();
    let mut recover: Option<(usize, u32)> = None;
    let mut durability = DurabilityOpts::default();
    let mut threads: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_interval: u64 = 1000;
    let mut summarize_files: Vec<String> = Vec::new();
    let mut wanted: Vec<String> = Vec::new();
    let mut spec_files: Vec<String> = Vec::new();
    let mut sweep_spec_file: Option<String> = None;
    let mut sweep_status_dirs: Vec<String> = Vec::new();
    let mut run_dir: Option<String> = None;
    let mut sup_cfg = SupervisorConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        if sup_cfg.apply_flag(flag, &mut it) {
            continue;
        }
        match flag {
            "metrics" => summarize_files.push(exit::flag_value(
                &mut it,
                flag,
                "a JSONL file written by --metrics-out",
            )),
            "sweep" => {
                sweep_spec_file = Some(exit::flag_value(
                    &mut it,
                    flag,
                    "a sweep spec JSON file (see EXPERIMENTS.md)",
                ));
            }
            "sweep-status" => {
                sweep_status_dirs.push(exit::flag_value(&mut it, flag, "a run directory"));
            }
            "--run-dir" => run_dir = Some(exit::flag_value(&mut it, flag, "a directory path")),
            "--max-failures" => {
                let n = exit::flag_value_if(&mut it, flag, "a count of gave-up points >= 1", |n| {
                    *n >= 1
                });
                sup_cfg.max_failures = Some(n);
            }
            "--metrics-out" => {
                metrics_out = Some(exit::flag_value(&mut it, flag, "an output file path"));
            }
            "--metrics-interval" => {
                metrics_interval =
                    exit::flag_value_if(&mut it, flag, "a cycle count >= 1", |n| *n >= 1);
            }
            "--spec" => spec_files.push(exit::flag_value(&mut it, flag, "a file path")),
            "--trace" => trace_file = Some(exit::flag_value(&mut it, flag, "an output file path")),
            "--sample-interval" => {
                sample_interval =
                    exit::flag_value_if(&mut it, flag, "a cycle count >= 1", |n| *n >= 1);
            }
            // Validated once the flags are read, against a built network.
            "--faults" => {
                resilience_opts.faults =
                    Some(exit::flag_value(&mut it, flag, "a schedule spec (e.g. band:3@5000)"));
            }
            "--ber" => {
                resilience_opts.ber =
                    Some(exit::flag_value_if(&mut it, flag, "a probability in [0, 1]", |p| {
                        (0.0..=1.0).contains(p)
                    }));
            }
            "--retry-limit" => {
                resilience_opts.retry_limit = Some(exit::flag_value(
                    &mut it,
                    flag,
                    "a count in 0..=255 (0 = drop on first corrupt delivery, 255 = retry forever)",
                ));
            }
            "--coding" => {
                let s: String = exit::flag_value(&mut it, flag, "off|secded|secded:<band>,...");
                resilience_opts.coding = CodingSelect::parse(&s)
                    .unwrap_or_else(|e| exit::usage_error(format_args!("--coding: {e}")));
            }
            "--corruption-rate" => {
                resilience_opts.corruption_rate =
                    exit::flag_value_if(&mut it, flag, "a probability in [0, 1]", |p| {
                        (0.0..=1.0).contains(p)
                    });
            }
            "--recover" => {
                let expects = "<budget>[:<attempts>], both >= 1 (packets per escape)";
                let s: String = exit::flag_value(&mut it, flag, expects);
                let (b, a) = s.split_once(':').unwrap_or((&s, "32"));
                match (b.parse::<usize>(), a.parse::<u32>()) {
                    (Ok(b), Ok(a)) if b >= 1 && a >= 1 => recover = Some((b, a)),
                    _ => {
                        exit::usage_error(format_args!("--recover: expected {expects}, got {s:?}"))
                    }
                }
            }
            "--chaos-seed" => chaos_opts.seed = exit::flag_value(&mut it, flag, "a seed"),
            "--chaos-cycles" => {
                chaos_opts.cycles =
                    exit::flag_value_if(&mut it, flag, "a cycle count >= 1", |n| *n >= 1);
            }
            "--chaos-cuts" => chaos_opts.cuts = exit::flag_value(&mut it, flag, "a count"),
            "--throttle" => {
                let expects = "<high>:<low> packet counts with high >= 1 and low < high";
                let s: String = exit::flag_value(&mut it, flag, expects);
                let watermarks = s.split_once(':').and_then(|(h, l)| {
                    let (h, l) = (h.parse::<u32>().ok()?, l.parse::<u32>().ok()?);
                    (h >= 1 && l < h).then_some((h, l))
                });
                overload_opts.throttle = Some(watermarks.unwrap_or_else(|| {
                    exit::usage_error(format_args!("--throttle: expected {expects}, got {s:?}"))
                }));
            }
            "--reconfig" => {
                let expects = "adaptive:<epoch>:<hysteresis> cycles with epoch >= 1";
                let s: String = exit::flag_value(&mut it, flag, expects);
                let timing = s.strip_prefix("adaptive:").and_then(|t| t.split_once(':')).and_then(
                    |(e, h)| {
                        let (e, h) = (e.parse::<u64>().ok()?, h.parse::<u64>().ok()?);
                        (e >= 1).then_some((e, h))
                    },
                );
                overload_opts.reconfig = timing.unwrap_or_else(|| {
                    exit::usage_error(format_args!("--reconfig: expected {expects}, got {s:?}"))
                });
            }
            "--checkpoint-every" => {
                durability.checkpoint_every =
                    exit::flag_value_if(&mut it, flag, "a cycle count >= 1", |n| *n >= 1);
            }
            "--checkpoint-dir" => {
                durability.checkpoint_dir =
                    Some(exit::flag_value(&mut it, flag, "a directory path"));
            }
            "--resume" => durability.resume = true,
            "--audit" => durability.audit_every = exit::flag_value(&mut it, flag, "a cycle count"),
            "--threads" => {
                let n = exit::flag_value(&mut it, flag, "a thread count");
                // Zero (an empty pool) and wild oversubscription are both
                // diagnosed before anything touches a worker pool.
                if let Err(e) = exit::validate_threads(n, flag) {
                    exit::usage_error(e);
                }
                threads = Some(n);
            }
            "--quick" => budget = Budget::quick(),
            "--full" => budget = Budget::full(),
            "--csv" => csv = true,
            "--json" => json = true,
            "--chart" => chart = true,
            "--progress" => progress = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                usage();
                std::process::exit(exit::USAGE);
            }
            other => wanted.push(other.to_string()),
        }
    }
    budget.sample_every = sample_interval;
    noc_sim::sweep::set_progress(progress);
    if let Some(n) = threads {
        noc_sim::workers::set_threads(n);
    }

    if wanted.iter().any(|w| w == "all") {
        wanted = [
            "table1", "table2", "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7a",
            "fig7b", "fig7c", "fig8a", "fig8b", "extras",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    if let Some(i) = wanted.iter().position(|w| w == "extras") {
        wanted.splice(
            i..=i,
            [
                "area",
                "loss",
                "sdm",
                "reconfig",
                "bursty",
                "breakdown",
                "placement",
                "nodes",
                "thermal",
                "resilience",
            ]
            .map(String::from),
        );
    }
    // Validate every requested name up front so a typo late in the list
    // cannot waste a long run and still exit zero-output-but-successful.
    let unknown: Vec<&String> = wanted.iter().filter(|w| !KNOWN.contains(&w.as_str())).collect();
    if !unknown.is_empty() {
        for w in unknown {
            eprintln!("unknown experiment: {w}");
        }
        eprintln!("known experiments: {}", KNOWN.join(" "));
        std::process::exit(exit::USAGE);
    }
    if wanted.is_empty()
        && spec_files.is_empty()
        && trace_file.is_none()
        && summarize_files.is_empty()
        && sweep_spec_file.is_none()
        && sweep_status_dirs.is_empty()
    {
        usage();
        std::process::exit(exit::USAGE);
    }
    if sweep_spec_file.is_some() && run_dir.is_none() {
        exit::usage_error("sweep requires --run-dir (the journaled run directory)");
    }
    if let Some(spec) = &resilience_opts.faults {
        if let Err(e) = resilience::validate_fault_spec(spec) {
            exit::usage_error(format_args!("--faults: {e}"));
        }
    }
    if (durability.checkpoint_every > 0 || durability.resume) && durability.checkpoint_dir.is_none()
    {
        exit::usage_error("--checkpoint-every/--resume require --checkpoint-dir");
    }
    // Every --spec file is read, parsed and resolved before anything runs.
    let specs: Vec<(&String, SimSpec)> = spec_files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f)
                .unwrap_or_else(|e| exit::usage_error(format_args!("cannot read {f}: {e}")));
            let spec = SimSpec::from_json(&text)
                .and_then(|s| {
                    s.topology()?;
                    s.traffic()?;
                    Ok(s)
                })
                .unwrap_or_else(|e| exit::usage_error(format_args!("{f}: {e}")));
            (f, spec)
        })
        .collect();
    // Observability flags that cannot take effect are diagnosed, not
    // silently ignored — a long run with no telemetry is expensive.
    let has_own_run = wanted.iter().any(|w| w == "own256" || w == "own1024");
    if metrics_out.is_some() && !has_own_run {
        eprintln!(
            "warning: --metrics-out only applies to the own256/own1024 experiments; \
             no telemetry will be written"
        );
    }
    if sample_interval > 0 && wanted.is_empty() && trace_file.is_none() && spec_files.is_empty() {
        eprintln!("warning: --sample-interval has no experiment to sample; flag is a no-op");
    }
    if metrics_interval != 1000 && metrics_out.is_none() {
        eprintln!("warning: --metrics-interval without --metrics-out is a no-op");
    }

    for f in &summarize_files {
        match noc_sim::summarize_metrics(Path::new(f)) {
            Ok(text) => print!("{text}"),
            Err(e) => exit::usage_error(format_args!("metrics: {e}")),
        }
    }
    for d in &sweep_status_dirs {
        match supervisor::status(Path::new(d)) {
            Ok(text) => print!("{text}"),
            Err(e) => exit::usage_error(format_args!("sweep-status: {d}: {e}")),
        }
    }
    if let Some(f) = &sweep_spec_file {
        run_supervised_sweep(f, run_dir.as_deref().expect("validated above"), &sup_cfg);
    }
    let emit = |r: &Report| {
        if json {
            println!("{}", r.to_json());
        } else if csv {
            println!("# {}", r.title);
            print!("{}", r.to_csv());
        } else {
            println!("{r}");
        }
    };

    if let Some(path) = &trace_file {
        run_traced(path, budget, sample_interval, &durability);
    }

    for (f, spec) in &specs {
        match spec.run() {
            Ok(r) => emit(&r),
            Err(e) => exit::usage_error(format_args!("{f}: {e}")),
        }
    }

    for w in &wanted {
        let t0 = Instant::now();
        match w.as_str() {
            "table1" => emit(&tables::table1()),
            "table2" => emit(&tables::table2()),
            "table3" => {
                emit(&tables::table3(Scenario::Ideal));
                emit(&tables::table3(Scenario::Conservative));
            }
            "table4" => emit(&tables::table4()),
            "fig3" => emit(&phy::fig3()),
            "fig4" => phy::fig4().iter().for_each(emit),
            "fig5" => emit(&power::fig5(budget)),
            "fig6" => emit(&power::fig6(budget)),
            "fig7a" => emit(&perf::fig7a(budget)),
            "fig7b" => {
                let r = perf::fig7bc(TrafficPattern::Uniform, &perf::default_loads(), budget);
                if chart {
                    println!("{}", noc_sim::chart::render_latency_report(&r));
                } else {
                    emit(&r);
                }
            }
            "fig7c" => {
                let r = perf::fig7bc(TrafficPattern::BitReversal, &perf::default_loads(), budget);
                if chart {
                    println!("{}", noc_sim::chart::render_latency_report(&r));
                } else {
                    emit(&r);
                }
            }
            "fig8a" => emit(&perf::fig8a(budget)),
            "fig8b" => emit(&power::fig8b(budget)),
            "area" => {
                emit(&extensions::area(256));
                emit(&extensions::area(1024));
            }
            "loss" => emit(&extensions::loss()),
            "sdm" => emit(&extensions::sdm()),
            "reconfig" => emit(&extensions::reconfig(budget)),
            "bursty" => emit(&extensions::bursty(budget)),
            "breakdown" => emit(&extensions::breakdown(budget)),
            "placement" => emit(&extensions::placement(budget)),
            "nodes" => emit(&extensions::nodes(budget)),
            "thermal" => {
                emit(&extensions::thermal(256));
                emit(&extensions::thermal(1024));
            }
            "resilience" => {
                emit(&resilience::resilience(budget, &resilience_opts));
                emit(&resilience::resilience_sweep(budget, &resilience_opts));
            }
            "overload" => emit(&overload::overload(budget, &overload_opts)),
            "overload-smoke" => run_overload_smoke(budget, &overload_opts),
            "chaos" => {
                let mut opts = chaos_opts;
                if durability.audit_every > 0 {
                    opts.audit_every = durability.audit_every;
                }
                run_chaos(&opts);
            }
            "own256" => run_own(
                256,
                budget,
                sample_interval,
                &durability,
                recover,
                metrics_out.as_deref(),
                metrics_interval,
                threads.unwrap_or(1),
            ),
            "own1024" => run_own(
                1024,
                budget,
                sample_interval,
                &durability,
                recover,
                metrics_out.as_deref(),
                metrics_interval,
                threads.unwrap_or(1),
            ),
            other => unreachable!("validated above: {other}"),
        }
        if progress {
            eprintln!("[exp] {w} finished in {:.1}s", t0.elapsed().as_secs_f64());
        }
    }
}

fn usage() {
    eprintln!(
        "usage: own-experiments [--quick|--full] [--csv|--json] [--chart] [--progress] \
         [--trace out.json] [--sample-interval n] [--spec file.json]... \
         [--faults spec] [--ber rate] [--retry-limit n] [--coding spec] \
         [--corruption-rate p] [--recover budget[:attempts]] \
         [--throttle high:low] [--reconfig adaptive:epoch:hysteresis] \
         [--checkpoint-every n --checkpoint-dir d] [--resume] [--audit n] [--threads n] \
         [--chaos-seed n] [--chaos-cycles n] [--chaos-cuts n] \
         [--metrics-out file] [--metrics-interval n] <experiment|all>..."
    );
    eprintln!("experiments: table1 table2 table3 table4 fig3 fig4 fig5 fig6 fig7a fig7b fig7c fig8a fig8b");
    eprintln!(
        "extensions:  area loss sdm reconfig bursty breakdown placement nodes thermal \
         resilience (or: extras)"
    );
    eprintln!(
        "overload:    overload overload-smoke (honor --throttle/--reconfig; smoke exits 3 \
         on stall, 4 on flapping)"
    );
    eprintln!(
        "long runs:   own256 own1024 (honor checkpoint/resume/audit/--recover flags and \
         --metrics-out/--metrics-interval; exit 3 on stall, 6 when recovery is exhausted)"
    );
    eprintln!(
        "chaos:       chaos (seed-derived fault fuzz with invariant audits and \
         checkpoint cuts; honors --chaos-seed/--chaos-cycles/--chaos-cuts/--audit; \
         exits 6 when recovery is exhausted)"
    );
    eprintln!(
        "integrity:   --retry-limit n bounds NACK retransmits per flit (0 = drop on \
         first corrupt delivery, 255 = retry forever); --coding off|secded|secded:3,4 \
         selects per-band SECDED FEC; --corruption-rate p injects silent bit flips \
         caught by the end-to-end CRC"
    );
    eprintln!("telemetry:   metrics <file> (summarize a --metrics-out JSONL stream)");
    eprintln!(
        "sweeps:      sweep <spec.json> --run-dir d (crash-safe supervised batch; honors \
         --point-timeout secs / --point-retries n / --max-failures n / \
         --point-checkpoint cycles / --point-backoff-ms n / --max-points n; journals \
         every point to <run-dir>/ledger.jsonl, resumes after a kill, exits 7 when \
         points exhaust their retry budget, exits 8 when another live process holds \
         the run-dir lock); sweep-status <run-dir> (summarize a run ledger)"
    );
}

/// Run (or resume) a supervised sweep from a spec file. Never returns on
/// failure; on an incomplete sweep exits with [`exit::SWEEP_INCOMPLETE`] so
/// callers can distinguish "some points gave up" from a crashed process.
fn run_supervised_sweep(spec_file: &str, run_dir: &str, cfg: &SupervisorConfig) {
    let text = std::fs::read_to_string(spec_file)
        .unwrap_or_else(|e| exit::usage_error(format_args!("sweep: {spec_file}: {e}")));
    let spec = SweepSpec::from_json(&text)
        .unwrap_or_else(|e| exit::usage_error(format_args!("sweep: {spec_file}: {e}")));
    let outcome =
        noc_sim::run_sweep(Path::new(run_dir), &spec, &SimRunner, cfg).unwrap_or_else(|e| {
            eprintln!("sweep: {e}");
            // A held run-dir lock is an operational conflict, not a
            // usage error: callers retry it, they do not fix a flag.
            if e.kind() == std::io::ErrorKind::WouldBlock {
                std::process::exit(exit::LOCKED);
            }
            std::process::exit(exit::USAGE);
        });
    eprintln!(
        "[sweep] {} points: {} done ({} reused from ledger), {} gave up, {} not run",
        outcome.total, outcome.done, outcome.skipped, outcome.gave_up, outcome.not_run
    );
    if outcome.complete() {
        if let Some(p) = &outcome.results_path {
            eprintln!("[sweep] results: {}", p.display());
        }
    } else {
        eprintln!("[sweep] incomplete; inspect with: own-experiments sweep-status {run_dir}");
        std::process::exit(outcome.exit_code());
    }
}

/// Build a simulation honoring the durability flags: resume from the
/// newest checkpoint when asked (falling back to a fresh run if the
/// directory holds none), then arm checkpointing and auditing. `metrics`
/// says whether the run will attach the metrics registry: a checkpoint
/// that carries metrics state cannot be restored without it.
fn build_sim(
    topo: &dyn Topology,
    cfg: SimConfig,
    opts: &DurabilityOpts,
    metrics: bool,
) -> Simulation {
    let mut sim = if opts.resume {
        let dir = Path::new(opts.checkpoint_dir.as_deref().expect("validated at parse"));
        match Simulation::resume(topo, cfg, dir) {
            Ok(sim) => {
                let ckpt = sim.pending_checkpoint().expect("resume leaves a pending checkpoint");
                if ckpt.snapshot.metrics.is_some() && !metrics {
                    eprintln!(
                        "--resume: the checkpoint in {} was written with --metrics-out; \
                         pass --metrics-out <file> to resume it",
                        dir.display()
                    );
                    std::process::exit(exit::USAGE);
                }
                sim
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                eprintln!("[resume] no checkpoint in {}: starting fresh", dir.display());
                Simulation::new(topo, cfg)
            }
            Err(e) => exit::usage_error(format_args!("--resume: {e}")),
        }
    } else {
        Simulation::new(topo, cfg)
    };
    if opts.checkpoint_every > 0 {
        let dir = opts.checkpoint_dir.as_deref().expect("validated at parse");
        sim.set_checkpointing(opts.checkpoint_every, dir);
    }
    if opts.audit_every > 0 {
        sim.set_audit_interval(opts.audit_every);
    }
    sim
}

/// When the watchdog declared a stall, print the structured report —
/// human form and one JSONL line — and exit 3 so CI fails the job.
/// When deadlock recovery was armed (`--recover`) and still could not
/// free anything, exit 6 instead: the escape path itself is exhausted.
fn exit_on_stall(result: &SimResult) {
    for rec in &result.recoveries {
        eprintln!("[watchdog] {}: {}", result.name, rec.summary());
        eprintln!("{}", recovery_report_json(rec));
    }
    let Some(stall) = &result.stall else { return };
    eprintln!("[watchdog] {} made no progress — stall report:", result.name);
    eprintln!("{stall}");
    eprintln!("{}", stall_report_json(stall));
    if result.recovery_exhausted {
        eprintln!("[watchdog] deadlock recovery exhausted — nothing left to drain");
        std::process::exit(exit::RECOVERY_EXHAUSTED);
    }
    std::process::exit(exit::STALL);
}

/// Run one chaos soak and print its summary; exits 6 when the fuzzed
/// scenario wedged the network beyond what the escape path could drain.
/// Invariant violations and corrupted deliveries panic inside the soak
/// (non-zero exit), so a zero exit here certifies a clean run.
fn run_chaos(opts: &ChaosOpts) {
    eprintln!(
        "[chaos] seed {} over {} cycles, {} cuts, audits every {}",
        opts.seed, opts.cycles, opts.cuts, opts.audit_every,
    );
    let out = chaos::chaos(opts);
    eprintln!("[chaos] plan: {}", out.plan);
    for rec in &out.recoveries {
        eprintln!("[chaos] {}", rec.summary());
        eprintln!("{}", recovery_report_json(rec));
    }
    if let Some(stall) = &out.exhausted {
        eprintln!("[chaos] recovery exhausted — stall report:");
        eprintln!("{stall}");
        eprintln!("{}", stall_report_json(stall));
        std::process::exit(exit::RECOVERY_EXHAUSTED);
    }
    println!(
        "chaos seed {}: {} cycles, {} checkpoint cuts, {} recoveries, \
         {} CRC catches, 0 corrupt deliveries, accounting balanced ({})",
        opts.seed,
        out.cycles,
        out.cuts,
        out.recoveries.len(),
        out.crc_detected,
        out.accounting,
    );
}

/// CI smoke run: one short adaptive-reconfig hotspot simulation with full
/// event recording. Exits 3 on a watchdog stall, 4 when a spare band was
/// re-steered for bandwidth twice within one hysteresis window (flapping —
/// structurally prevented by the controller's dwell rule, so any hit is a
/// regression).
fn run_overload_smoke(budget: Budget, opts: &OverloadOpts) {
    let (result, events, violations) = overload::smoke(budget, opts);
    exit_on_stall(&result);
    println!(
        "{}: {} cycles, {} steering events, shed {}, deferred {}, throughput {:.4}",
        result.name,
        result.cycles,
        events.len(),
        result.offers_shed,
        result.offers_deferred,
        result.throughput,
    );
    if !violations.is_empty() {
        eprintln!("[overload-smoke] spare-band flapping detected:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(exit::FLAPPING);
    }
}

/// Run one long OWN simulation (the checkpoint/resume workhorse) and
/// print a one-line summary; exits 3 on a watchdog stall, or 6 when
/// `--recover` armed the escape path and it still could not drain the
/// network. With
/// `metrics_out`, the stage profiler and the spatial metrics registry ride
/// along and the telemetry artifact set is written after the run.
#[allow(clippy::too_many_arguments)]
fn run_own(
    cores: u32,
    budget: Budget,
    sample_interval: u64,
    opts: &DurabilityOpts,
    recover: Option<(usize, u32)>,
    metrics_out: Option<&str>,
    metrics_interval: u64,
    threads: usize,
) {
    let topo = noc_topology::own(cores);
    let cfg = SimConfig {
        rate: 0.04,
        pattern: TrafficPattern::Uniform,
        warmup: budget.warmup,
        measure: budget.measure,
        drain: budget.drain,
        sample_every: sample_interval,
        ..Default::default()
    };
    let mut sim = build_sim(topo.as_ref(), cfg, opts, metrics_out.is_some());
    if threads > 1 {
        // Bit-identical at every thread count; the stage profiler (armed
        // below with --metrics-out) serializes stepping, so a profiled
        // run measures the serial engine regardless.
        sim.set_threads(threads, topo.as_ref());
    }
    if let Some((budget, attempts)) = recover {
        sim.set_recovery(budget, attempts);
    }
    if metrics_out.is_some() {
        // Sample 1-in-8 cycles: the stage breakdown stays representative
        // while the two clock reads per stage stay off 7/8 of cycles.
        sim.profile_stages(8, metrics_interval);
        sim.enable_metrics(topo.as_ref(), metrics_interval);
    }
    let result = sim.run();
    exit_on_stall(&result);
    let resumed =
        result.resumed_from.map_or(String::new(), |c| format!(" (resumed from cycle {c})"));
    println!(
        "{}: {} cycles{resumed}, avg latency {:.1}, p50/p95/p99 {}/{}/{}, \
         throughput {:.4} flits/core/cycle, delivered {:.3}, {:.0} kcycles/s",
        result.name,
        result.cycles,
        result.avg_latency,
        result.p50_latency,
        result.p95_latency,
        result.p99_latency,
        result.throughput,
        result.delivered_fraction,
        result.profile.cycles_per_sec / 1e3,
    );
    if let Some(path) = metrics_out {
        match noc_sim::export_metrics(&result, Path::new(path)) {
            Ok(arts) => {
                eprintln!(
                    "[metrics] wrote {} (+ {}, {}, {})",
                    arts.jsonl.display(),
                    arts.heatmap.display(),
                    arts.bands.display(),
                    arts.prom.display(),
                );
                if let Some(b) = &result.profile.stages {
                    let shares = b.shares();
                    let mut named: Vec<(&str, f64)> =
                        noc_core::STAGE_NAMES.iter().copied().zip(shares).collect();
                    named.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                    let top: Vec<String> = named
                        .iter()
                        .take(3)
                        .filter(|(_, s)| *s > 0.0)
                        .map(|(n, s)| format!("{n} {:.0}%", s * 100.0))
                        .collect();
                    eprintln!(
                        "[metrics] stage profile over {} timed cycles: {}",
                        b.timed_cycles,
                        top.join(", "),
                    );
                }
            }
            Err(e) => exit::usage_error(format_args!("--metrics-out: cannot write {path}: {e}")),
        }
    }
}

/// Run one fully-observed OWN-256 simulation and export its event trace:
/// Chrome trace format to `path`, JSONL to `path.jsonl`. The run keeps the
/// newest million events (photonic token grants, channel/bus traversals,
/// packet lifecycles) and reports sampling/fairness summaries on stderr.
/// A watchdog stall is embedded in both exports, then exits 3.
fn run_traced(path: &str, budget: Budget, sample_interval: u64, opts: &DurabilityOpts) {
    let cfg = SimConfig {
        rate: 0.04,
        pattern: TrafficPattern::Uniform,
        warmup: budget.warmup,
        measure: budget.measure,
        drain: budget.drain,
        sample_every: if sample_interval > 0 { sample_interval } else { 100 },
        ..Default::default()
    };
    let mut sim = build_sim(&Own256::new(), cfg, opts, false);
    sim.attach_observer(Box::new(RingRecorder::new(1 << 20)));
    let mut result = sim.run();
    let Some(rec) = RingRecorder::take_from(&mut result.net) else {
        eprintln!("--trace: recorder lost (internal error)");
        std::process::exit(1);
    };
    let events = rec.into_events();
    let stall = result.stall.as_deref();
    if let Err(e) = write_chrome_trace_with_stall(std::path::Path::new(path), &events, stall) {
        exit::usage_error(format_args!("--trace: cannot write {path}: {e}"));
    }
    let jsonl_path = format!("{path}.jsonl");
    if let Err(e) = write_jsonl_with_stall(std::path::Path::new(&jsonl_path), &events, stall) {
        exit::usage_error(format_args!("--trace: cannot write {jsonl_path}: {e}"));
    }
    let fairness = result.delivery_fairness();
    eprintln!(
        "[trace] {}: {} events -> {path} (+ {jsonl_path}); {:.0} kcycles/s, {:.0} kevents/s",
        result.name,
        events.len(),
        result.profile.cycles_per_sec / 1e3,
        result.profile.events_per_sec / 1e3,
    );
    if let Some(series) = &result.series {
        eprintln!(
            "[trace] sampled every {} cycles: {} samples, warmup converged at {}, {}",
            series.interval,
            series.samples.len(),
            series.convergence_cycle().map_or("n/a".to_string(), |c| format!("cycle {c}")),
            series
                .saturation_onset()
                .map_or("no saturation".to_string(), |c| format!("saturation onset at cycle {c}")),
        );
    }
    eprintln!(
        "[trace] delivery fairness: gini {:.3}, hotspot factor {:.2}",
        fairness.gini, fairness.hotspot_factor,
    );
    exit_on_stall(&result);
}
