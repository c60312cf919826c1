//! Crash-safe sweep supervisor: journaled runs, panic isolation,
//! timeout/retry, kill-resume.
//!
//! The supervisor turns a [`SweepSpec`] batch into completed points under
//! real-world failure: a point that panics, wedges, or fails transiently
//! must not take the batch down, and a supervisor process that is killed
//! (SIGKILL included) must resume from where the ledger says it was.
//!
//! The mechanism stack, bottom to top:
//!
//! * **Ledger** ([`ledger`]): every state transition is appended to a
//!   JSONL write-ahead log *before* the work happens, so the on-disk
//!   state is never more optimistic than reality. See the module docs
//!   for the format and the torn-tail rules.
//! * **Panic isolation**: each attempt runs under
//!   [`std::panic::catch_unwind`]; the payload becomes the journaled
//!   failure reason and the remaining points keep running.
//! * **Timeout**: each attempt gets a [`CancelToken`] armed with the
//!   per-point wall-clock budget; the simulation loop polls it
//!   cooperatively (cheaply — see `noc_core::cancel`) and exits at a
//!   clean cycle boundary, journaled as `timed-out`.
//! * **Retry**: failed/timed-out attempts rerun with the *same seed*
//!   (the sweep's results must not depend on how flaky the host was)
//!   after an exponential backoff with deterministic per-point jitter.
//!   A spent budget journals `gave-up`; `--max-failures` aborts the
//!   batch early once too many points give up.
//! * **Kill-resume**: a rerun of the same run-dir skips `done` points
//!   (verified against the spec fingerprint), resumes half-finished
//!   ones from their latest valid checkpoint, and re-attempts the rest.
//!   The merged `results.json` is byte-identical to an uninterrupted
//!   run's because it is always regenerated from the replayed ledger.

pub mod ledger;
pub mod lock;
pub mod spec;

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use noc_core::rng::SplitMix64;
use noc_core::{CancelToken, RouterConfig};

pub use ledger::{replay, Ledger, PointMetrics, PointState, Replay, LEDGER_FILE, LEDGER_SCHEMA};
pub use lock::{RunLock, LOCK_FILE};
pub use spec::{PointSpec, SweepSpec};

use crate::checkpoint;
use crate::exit;
use crate::json;
use crate::metrics::SimResult;
use crate::sim::{SimConfig, Simulation};
use crate::workers;

/// Results file name inside a run directory.
pub const RESULTS_FILE: &str = "results.json";

/// Spec copy stored inside a run directory (guards against resuming a
/// run-dir with a different spec).
pub const SPEC_FILE: &str = "spec.json";

/// Schema tag of the merged results file.
pub const RESULTS_SCHEMA: &str = "own-noc-results/v1";

/// Default admission cap on a sweep's cross-product size. Large enough
/// for any deliberate design-space exploration in this repo, small
/// enough that a fat-fingered spec (`"seeds": [0..10^9]`-style) is
/// refused before expansion allocates anything.
pub const DEFAULT_POINT_CAP: usize = 100_000;

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget per attempt; `None` = unlimited.
    pub point_timeout: Option<Duration>,
    /// Reruns after the first attempt (total attempts = retries + 1).
    pub point_retries: u32,
    /// Abort the batch once this many points have given up; `None` =
    /// keep going to the end no matter what.
    pub max_failures: Option<usize>,
    /// First backoff delay; doubles per retry (capped at 5 s) plus a
    /// deterministic per-point jitter.
    pub backoff_base: Duration,
    /// Per-point checkpoint cadence in cycles (0 = no checkpoints; then
    /// interrupted points restart from cycle 0 on resume).
    pub checkpoint_every: u64,
    /// Refuse specs whose cross product exceeds this many points
    /// (`None` = unlimited). Checked *before* expansion, so an
    /// adversarial or fat-fingered spec cannot balloon memory first.
    pub point_cap: Option<usize>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            point_timeout: None,
            point_retries: 2,
            max_failures: None,
            backoff_base: Duration::from_millis(100),
            checkpoint_every: 0,
            point_cap: Some(DEFAULT_POINT_CAP),
        }
    }
}

impl SupervisorConfig {
    /// Apply `flag` when it is one of the five supervisor flags that
    /// `own-experiments` and `noc-svc` share, reading its value from
    /// `args` and exiting 2 on a bad one ([`exit::flag_value`]). Returns
    /// false, having read nothing, for any other flag.
    pub fn apply_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = impl AsRef<str>>,
    ) -> bool {
        match flag {
            "--max-points" => {
                let n: usize = exit::flag_value(args, flag, "a point count cap (0 = unlimited)");
                self.point_cap = (n > 0).then_some(n);
            }
            "--point-timeout" => {
                // `try_from_secs_f64` also refuses NaN, infinities and
                // values too large for a `Duration` (`from_secs_f64` panics).
                let secs = exit::flag_value_if(args, flag, "a positive number of seconds", |s| {
                    *s > 0.0 && Duration::try_from_secs_f64(*s).is_ok()
                });
                self.point_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--point-retries" => {
                self.point_retries = exit::flag_value(args, flag, "a count of reruns");
            }
            "--point-checkpoint" => {
                self.checkpoint_every = exit::flag_value(args, flag, "a cycle count (0 = off)");
            }
            "--point-backoff-ms" => {
                let ms = exit::flag_value(args, flag, "a duration in milliseconds");
                self.backoff_base = Duration::from_millis(ms);
            }
            _ => return false,
        }
        true
    }
}

/// Why an attempt did not produce metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum PointFailure {
    /// The attempt failed outright (stall, setup error, ...).
    Failed(String),
    /// The attempt's cancel token fired.
    TimedOut,
}

/// Everything a [`PointRunner`] attempt is given by the supervisor.
pub struct PointCtx {
    /// Armed with the point timeout; long-running work must poll it.
    pub cancel: CancelToken,
    /// Where this point's checkpoints live, when checkpointing is on.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in cycles (0 = off).
    pub checkpoint_every: u64,
    /// Attempt number, counting every attempt ever journaled for the
    /// point (so reruns of a run-dir keep incrementing).
    pub attempt: u32,
}

/// The unit of work the supervisor schedules. The production impl is
/// [`SimRunner`]; tests substitute panicking/wedging/flaky runners.
pub trait PointRunner: Sync {
    fn run_point(&self, point: &PointSpec, ctx: &PointCtx) -> Result<PointMetrics, PointFailure>;
}

/// Runs a point as a real simulation, resuming from the latest valid
/// checkpoint in `ctx.checkpoint_dir` when one exists.
pub struct SimRunner;

impl PointRunner for SimRunner {
    fn run_point(&self, point: &PointSpec, ctx: &PointCtx) -> Result<PointMetrics, PointFailure> {
        let topo = point.topology().map_err(PointFailure::Failed)?;
        let pattern = point.traffic().map_err(PointFailure::Failed)?;
        let cfg = SimConfig {
            rate: point.rate,
            pattern,
            packet_len: point.packet_len,
            warmup: point.warmup,
            measure: point.measure,
            drain: point.drain,
            seed: point.seed,
            router: RouterConfig::new(point.vcs, point.buf_depth),
            ..Default::default()
        };
        let mut sim = match &ctx.checkpoint_dir {
            Some(dir) => match checkpoint::latest_valid_checkpoint(dir) {
                Ok(Some((_, ckpt))) => Simulation::resume_from_checkpoint(topo.as_ref(), cfg, ckpt)
                    .map_err(|e| PointFailure::Failed(format!("checkpoint resume: {e}")))?,
                Ok(None) => Simulation::new(topo.as_ref(), cfg),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    Simulation::new(topo.as_ref(), cfg)
                }
                Err(e) => return Err(PointFailure::Failed(format!("checkpoint scan: {e}"))),
            },
            None => Simulation::new(topo.as_ref(), cfg),
        };
        if let (Some(dir), true) = (&ctx.checkpoint_dir, ctx.checkpoint_every > 0) {
            sim.set_checkpointing(ctx.checkpoint_every, dir.clone());
        }
        sim.set_cancel(ctx.cancel.clone());
        let result = sim.run();
        if result.cancelled {
            return Err(PointFailure::TimedOut);
        }
        if let Some(stall) = &result.stall {
            return Err(PointFailure::Failed(format!("stall: {}", stall.summary())));
        }
        Ok(point_metrics(&result))
    }
}

/// Extract the journaled metrics summary from a finished run.
pub fn point_metrics(r: &SimResult) -> PointMetrics {
    PointMetrics {
        avg_latency: r.avg_latency,
        p50_latency: r.p50_latency,
        p95_latency: r.p95_latency,
        p99_latency: r.p99_latency,
        throughput: r.throughput,
        delivered_fraction: r.delivered_fraction,
        packets_measured: r.packets_measured,
        cycles: r.cycles,
    }
}

/// What a supervisor invocation accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Points in the expanded spec.
    pub total: usize,
    /// Points that finished — this run or (journaled `done`) earlier.
    pub done: usize,
    /// Of `done`, how many were skipped because the ledger already had
    /// their metrics (zero on a fresh run; the kill-resume tests assert
    /// it equals the pre-kill count).
    pub skipped: usize,
    /// Points that exhausted their retry budget this run.
    pub gave_up: usize,
    /// Points never attempted because `--max-failures` aborted the batch.
    pub not_run: usize,
    /// Written only when every point is done.
    pub results_path: Option<PathBuf>,
}

impl SweepOutcome {
    /// `true` when every point of the sweep has metrics.
    pub fn complete(&self) -> bool {
        self.done == self.total
    }

    /// The process exit code this outcome maps to.
    pub fn exit_code(&self) -> i32 {
        if self.complete() {
            crate::exit::OK
        } else {
            crate::exit::SWEEP_INCOMPLETE
        }
    }
}

/// Run (or resume) a sweep in `run_dir`. See the module docs for the
/// failure semantics; this function is safe to invoke repeatedly on the
/// same directory until [`SweepOutcome::complete`]. The outcome and
/// `results.json` come from one ledger replay taken after the batch, so
/// points finished by an earlier invocation render exactly as points
/// finished by this one.
pub fn run_sweep(
    run_dir: &Path,
    sweep: &SweepSpec,
    runner: &dyn PointRunner,
    cfg: &SupervisorConfig,
) -> io::Result<SweepOutcome> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    check_point_cap(sweep, cfg.point_cap).map_err(invalid)?;
    let points = sweep.expand().map_err(invalid)?;
    let spec_fp = sweep.fingerprint().map_err(invalid)?;

    // One writer per run-dir: interleaved appends from two supervisors
    // would scramble the ledger. Held for the whole invocation.
    let _lock = RunLock::acquire(run_dir)?;

    // Pin the spec to the run-dir: first invocation writes it, later
    // ones must match (a different spec would corrupt the ledger's
    // meaning, since points are keyed by content fingerprint).
    let spec_path = run_dir.join(SPEC_FILE);
    match std::fs::read_to_string(&spec_path) {
        Ok(text) => {
            let prior = SweepSpec::from_json(&text)
                .map_err(|e| invalid(format!("{}: {e}", spec_path.display())))?;
            let prior_fp = prior.fingerprint().map_err(invalid)?;
            if prior_fp != spec_fp {
                return Err(invalid(format!(
                    "run-dir {} belongs to a different sweep (spec fingerprint \
                     {prior_fp:016x}, this spec is {spec_fp:016x}); use a fresh --run-dir",
                    run_dir.display()
                )));
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            checkpoint::atomic_write(&spec_path, sweep.to_json().as_bytes())?;
        }
        Err(e) => return Err(e),
    }

    // Replay the ledger: done points are skipped, everything else is
    // (re)scheduled with its attempt counter continuing where it left
    // off. `running` as a final state means a kill interrupted the
    // attempt — its checkpoints (if any) make the rerun cheap.
    let prior = replay(run_dir)?;
    let mut skipped = 0usize;
    let mut work: Vec<(PointSpec, u32)> = Vec::new();
    for p in &points {
        match prior.points.get(&p.fingerprint()) {
            Some(rp) if matches!(rp.state, PointState::Done(_)) => skipped += 1,
            Some(rp) => work.push((p.clone(), rp.attempt + 1)),
            None => work.push((p.clone(), 0)),
        }
    }

    let mut led = Ledger::open(run_dir)?;
    led.run_start(spec_fp, points.len())?;
    let led = Mutex::new(led);
    let gave_up = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    let sched = PointScheduler {
        runner,
        cfg,
        ckpt_root: run_dir.join("ckpt"),
        led: &led,
        batch_cancel: None,
    };
    workers::map(&work, |(point, first_attempt)| {
        let give_up_now = || abort.load(Ordering::Relaxed);
        if let PointOutcome::GaveUp { .. } = sched.run_point(point, *first_attempt, &give_up_now) {
            let n = gave_up.fetch_add(1, Ordering::Relaxed) + 1;
            if cfg.max_failures.is_some_and(|max| n >= max) && !abort.swap(true, Ordering::Relaxed)
            {
                eprintln!("[sweep] aborting batch: {n} points gave up (--max-failures)");
            }
        }
    });

    // Always rebuild the outcome (and results.json) from the replayed
    // ledger rather than in-memory values: interrupted-then-resumed and
    // uninterrupted runs then emit byte-identical results.
    let after = replay(run_dir)?;
    let done = after.count("done");
    let attempted = points.iter().filter(|p| after.points.contains_key(&p.fingerprint())).count();
    let outcome = SweepOutcome {
        total: points.len(),
        done,
        skipped,
        gave_up: gave_up.load(Ordering::Relaxed),
        not_run: points.len() - attempted,
        results_path: None,
    };
    if outcome.complete() {
        let path = write_results(run_dir, spec_fp, &points, &after)?;
        return Ok(SweepOutcome { results_path: Some(path), ..outcome });
    }
    Ok(outcome)
}

/// Refuse a spec whose cross product exceeds `cap` — *before* expansion,
/// so rejection costs O(1) regardless of how big the spec claims to be.
pub fn check_point_cap(sweep: &SweepSpec, cap: Option<usize>) -> Result<(), String> {
    let Some(cap) = cap else { return Ok(()) };
    let n = sweep.cross_product();
    if n > cap as u128 {
        return Err(format!(
            "sweep spec: cross product is {n} points, over the cap of {cap} \
             (split the sweep, or raise the cap if this is deliberate)"
        ));
    }
    Ok(())
}

/// How one scheduled point ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// An attempt produced metrics (journaled `done`).
    Done(PointMetrics),
    /// The retry budget is spent (journaled `gave-up`).
    GaveUp { reason: String },
    /// The batch cancel (or abort predicate) fired before the point
    /// finished. Deliberately NOT journaled as a failure: the ledger's
    /// last state stays `running` (or never-attempted), which is exactly
    /// the resumable shape kill-resume expects.
    Interrupted,
}

/// The attempt loop PR 8's batch supervisor and the `noc-svc` worker pool
/// share: journal `running`, run under `catch_unwind` with a per-attempt
/// [`CancelToken`], journal the outcome, back off and retry until the
/// budget is spent. Construct one per batch (it is `Sync`; threads share
/// it by reference) and call [`PointScheduler::run_point`] per point.
pub struct PointScheduler<'a> {
    pub runner: &'a dyn PointRunner,
    pub cfg: &'a SupervisorConfig,
    /// Per-point checkpoint directories live at `ckpt_root/<fp>/`.
    pub ckpt_root: PathBuf,
    pub led: &'a Mutex<Ledger>,
    /// Batch-wide shutdown signal. Each attempt's token is linked under
    /// it, so a shutdown cancels in-flight simulations at their next
    /// cycle-boundary poll (forcing a final checkpoint) and the attempt
    /// comes back [`PointOutcome::Interrupted`] instead of `timed-out`.
    pub batch_cancel: Option<CancelToken>,
}

impl PointScheduler<'_> {
    /// Run one point to a terminal outcome. `give_up_now` is polled
    /// between attempts (the `--max-failures` abort, or the service's
    /// queue-drain signal); when it fires the point is left pending.
    pub fn run_point(
        &self,
        point: &PointSpec,
        first_attempt: u32,
        give_up_now: &(dyn Fn() -> bool + Sync),
    ) -> PointOutcome {
        let cfg = self.cfg;
        let fp = point.fingerprint();
        let journal = |attempt: u32, state: &PointState| {
            let mut led = self.led.lock().expect("ledger mutex poisoned");
            if let Err(e) = led.point(fp, point.idx, attempt, state) {
                // A dead ledger degrades durability, not correctness: the
                // batch keeps running, a later resume just redoes more work.
                eprintln!("[sweep] ledger append failed for {}: {e}", point.label());
            }
        };
        let shutting_down = || self.batch_cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let mut attempt = first_attempt;
        let mut last_reason = String::new();
        for try_no in 0..=cfg.point_retries {
            if give_up_now() || shutting_down() {
                return PointOutcome::Interrupted; // left pending; a rerun picks it up
            }
            journal(attempt, &PointState::Running);
            let cancel = match (&self.batch_cancel, cfg.point_timeout) {
                (Some(root), Some(t)) => CancelToken::linked_with_timeout(root, t),
                (Some(root), None) => CancelToken::linked(root),
                (None, Some(t)) => CancelToken::with_timeout(t),
                (None, None) => CancelToken::new(),
            };
            let ctx = PointCtx {
                cancel,
                checkpoint_dir: (cfg.checkpoint_every > 0)
                    .then(|| self.ckpt_root.join(format!("{fp:016x}"))),
                checkpoint_every: cfg.checkpoint_every,
                attempt,
            };
            let verdict = catch_unwind(AssertUnwindSafe(|| self.runner.run_point(point, &ctx)));
            let state = match verdict {
                Ok(Ok(metrics)) => {
                    journal(attempt, &PointState::Done(metrics.clone()));
                    return PointOutcome::Done(metrics);
                }
                // A "timeout" observed while the batch cancel is down is
                // really the shutdown broadcast arriving through the
                // linked token: leave the ledger at `running` so the
                // point resumes from its final checkpoint.
                Ok(Err(PointFailure::TimedOut)) if shutting_down() => {
                    return PointOutcome::Interrupted;
                }
                Ok(Err(PointFailure::Failed(reason))) => PointState::Failed { reason },
                Ok(Err(PointFailure::TimedOut)) => PointState::TimedOut,
                Err(payload) => {
                    PointState::Failed { reason: format!("panic: {}", panic_str(&*payload)) }
                }
            };
            last_reason = match &state {
                PointState::Failed { reason } => reason.clone(),
                PointState::TimedOut => "timed out".into(),
                _ => unreachable!("attempt outcomes are failed or timed-out"),
            };
            journal(attempt, &state);
            eprintln!(
                "[sweep] {} attempt {attempt}: {} ({last_reason})",
                point.label(),
                state.word()
            );
            if try_no < cfg.point_retries {
                if !self.backoff_sleep(backoff_delay(cfg.backoff_base, try_no, fp)) {
                    return PointOutcome::Interrupted;
                }
                attempt += 1;
            }
        }
        journal(attempt, &PointState::GaveUp { reason: last_reason.clone() });
        PointOutcome::GaveUp { reason: last_reason }
    }

    /// Sleep `total` in short slices so a shutdown does not have to wait
    /// out a multi-second backoff. Returns `false` if interrupted.
    fn backoff_sleep(&self, total: Duration) -> bool {
        let Some(root) = &self.batch_cancel else {
            std::thread::sleep(total);
            return true;
        };
        let slice = Duration::from_millis(25);
        let mut left = total;
        while left > Duration::ZERO {
            if root.is_cancelled() {
                return false;
            }
            let step = left.min(slice);
            std::thread::sleep(step);
            left -= step;
        }
        !root.is_cancelled()
    }
}

fn panic_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Exponential backoff (base·2^try, capped at 5 s) plus a deterministic
/// jitter derived from the point fingerprint — reruns are seed-preserving,
/// so the *work* is identical; only the scheduling detunes.
fn backoff_delay(base: Duration, try_no: u32, fp: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << try_no.min(6));
    let capped = exp.min(Duration::from_secs(5));
    let quarter = (capped.as_nanos() as u64 / 4).max(1);
    let jitter =
        SplitMix64::new(fp ^ u64::from(try_no).wrapping_mul(0x9e37_79b9)).next_u64() % quarter;
    capped + Duration::from_nanos(jitter)
}

/// Render the merged, idx-ordered `own-noc-results/v1` document from
/// each point's `done` metrics, looked up by fingerprint: the CLI
/// supervisor passes its post-batch ledger replay, the service its
/// in-memory registry. Metrics are printed in shortest round-trip form,
/// so the bytes do not depend on whether a value was replayed from the
/// ledger or kept in memory, nor on which invocation finished which
/// point. Errors if any point has no `done` metrics.
pub fn render_results<'m>(
    spec_fp: u64,
    points: &[PointSpec],
    done: impl Fn(u64) -> Option<&'m PointMetrics>,
) -> io::Result<String> {
    use std::fmt::Write as _;
    let mut s = format!("{{\"schema\":\"{RESULTS_SCHEMA}\",\"spec_fp\":\"{spec_fp:016x}\",");
    s.push_str("\"points\":[\n");
    for (i, p) in points.iter().enumerate() {
        let fp = p.fingerprint();
        let Some(m) = done(fp) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("results: {} is not done", p.label()),
            ));
        };
        write!(
            s,
            "{{\"idx\":\"{}\",\"fp\":\"{fp:016x}\",\"topology\":{},\"pattern\":{},\
             \"rate\":\"{:?}\",\"seed\":\"{}\",\"metrics\":{}}}",
            p.idx,
            json::quote(&p.topology),
            json::quote(&p.pattern),
            p.rate,
            p.seed,
            ledger::encode_metrics(m),
        )
        .unwrap();
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("]}\n");
    Ok(s)
}

/// Write the rendered results file atomically into `run_dir`.
fn write_results(
    run_dir: &Path,
    spec_fp: u64,
    points: &[PointSpec],
    rep: &Replay,
) -> io::Result<PathBuf> {
    let s = render_results(spec_fp, points, |fp| rep.done(fp))?;
    let final_path = run_dir.join(RESULTS_FILE);
    checkpoint::atomic_write(&final_path, s.as_bytes())?;
    Ok(final_path)
}

/// Human-readable status of a run directory (the `sweep-status`
/// subcommand). Reads only the spec and the ledger — safe to call while
/// a supervisor is running or after any kind of crash.
pub fn status(run_dir: &Path) -> io::Result<String> {
    use std::fmt::Write as _;
    let rep = replay(run_dir)?;
    let labels: std::collections::HashMap<u64, String> =
        match std::fs::read_to_string(run_dir.join(SPEC_FILE)) {
            Ok(text) => SweepSpec::from_json(&text)
                .and_then(|s| s.expand())
                .map(|ps| ps.iter().map(|p| (p.fingerprint(), p.label())).collect())
                .unwrap_or_default(),
            Err(_) => Default::default(),
        };
    let total = rep.declared_points.unwrap_or(rep.points.len());
    let mut s = format!(
        "run {}: {} invocation(s), {total} points — {} done, {} gave-up, {} failed, \
         {} timed-out, {} interrupted, {} pending{}\n",
        run_dir.display(),
        rep.run_starts,
        rep.count("done"),
        rep.count("gave-up"),
        rep.count("failed"),
        rep.count("timed-out"),
        rep.count("running"),
        total.saturating_sub(rep.points.len()),
        if rep.torn { " (torn ledger tail tolerated)" } else { "" },
    );
    let mut unfinished: Vec<_> =
        rep.points.iter().filter(|(_, rp)| !matches!(rp.state, PointState::Done(_))).collect();
    unfinished.sort_by_key(|(_, rp)| rp.idx);
    for (fp, rp) in unfinished {
        let label = labels.get(fp).cloned().unwrap_or_else(|| format!("{fp:016x}"));
        let reason = match &rp.state {
            PointState::Failed { reason } | PointState::GaveUp { reason } => format!(" — {reason}"),
            _ => String::new(),
        };
        writeln!(
            s,
            "  [{}] {} attempt {}: {}{}",
            rp.idx,
            label,
            rp.attempt,
            rp.state.word(),
            reason
        )
        .unwrap();
    }
    if run_dir.join(RESULTS_FILE).exists() {
        writeln!(s, "  results: {}", run_dir.join(RESULTS_FILE).display()).unwrap();
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bad value exits the process, so `tests/cli.rs` drives those
    /// cases through both binaries.
    #[test]
    fn apply_flag_reads_the_five_shared_flags() {
        let mut cfg = SupervisorConfig { checkpoint_every: 2_000, ..SupervisorConfig::default() };
        let mut args = ["0", "1.5", "5", "0", "7", "2"].iter();
        assert!(cfg.apply_flag("--max-points", &mut args));
        assert!(cfg.apply_flag("--point-timeout", &mut args));
        assert!(cfg.apply_flag("--point-retries", &mut args));
        assert!(cfg.apply_flag("--point-checkpoint", &mut args));
        assert!(cfg.apply_flag("--point-backoff-ms", &mut args));
        assert_eq!(cfg.point_cap, None, "0 = unlimited");
        assert_eq!(cfg.point_timeout, Some(Duration::from_millis(1_500)));
        assert_eq!(cfg.point_retries, 5);
        assert_eq!(cfg.checkpoint_every, 0, "0 = off");
        assert_eq!(cfg.backoff_base, Duration::from_millis(7));
        assert!(!cfg.apply_flag("--threads", &mut args), "not a supervisor flag");
        assert_eq!(args.next(), Some(&"2"), "an unknown flag reads nothing");
    }
}
