//! Service state: the sweep/point registry, admission control, the
//! worker pool's job queue, and crash recovery.
//!
//! One global `own-noc-ledger/v1` journal spans every sweep the service
//! has ever admitted, keyed — like the batch supervisor's — by content
//! fingerprints. That single namespace is what makes cross-sweep
//! dedup work: two overlapping specs share fingerprints, so the second
//! submission finds the first's points already journaled (or queued) and
//! never recomputes them.
//!
//! Data directory layout:
//!
//! ```text
//! data-dir/
//!   supervisor.lock     exclusive-writer lock (kernel file lock; body names the PID)
//!   ledger.jsonl        global WAL; `svc-start` markers bound each boot
//!   ckpt/<fp>/          per-point checkpoints (resume mid-point)
//!   sweeps/<id>.json    admitted specs, pinned at admission
//!   results/<id>.json   rendered once on completion, then immutable
//! ```
//!
//! Everything a restart needs is re-derivable from `sweeps/` plus the
//! ledger; `results/` is a cache of pure functions of those two. The
//! ledger is read once, at boot: from then on the registry holds every
//! done point's metrics, and status and results are served from it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use noc_core::CancelToken;
use noc_sim::json;
use noc_sim::supervisor::spec::Fnv;
use noc_sim::supervisor::{replay, Ledger, PointState, RunLock};
use noc_sim::{
    atomic_write, check_point_cap, render_results, PointMetrics, PointOutcome, PointRunner,
    PointScheduler, PointSpec, SweepSpec,
};

use crate::config::SvcConfig;

/// Schema tag of `GET /sweeps/:id` (and SSE frame) bodies.
pub const STATUS_SCHEMA: &str = "own-noc-sweep-status/v1";

/// A point's lifecycle inside the service (the ledger stays the durable
/// truth; this is the in-memory view the API serves from).
#[derive(Debug, Clone, PartialEq)]
enum PointPhase {
    Queued,
    Running,
    Done(PointMetrics),
    GaveUp(String),
}

impl PointPhase {
    fn word(&self) -> &'static str {
        match self {
            PointPhase::Queued => "queued",
            PointPhase::Running => "running",
            PointPhase::Done(_) => "done",
            PointPhase::GaveUp(_) => "gave-up",
        }
    }
}

#[derive(Debug)]
struct PointEntry {
    spec: PointSpec,
    phase: PointPhase,
    /// First attempt number for the next scheduler invocation — continues
    /// the ledger's count across restarts so attempt numbers never reuse.
    next_attempt: u32,
}

#[derive(Debug)]
struct SweepEntry {
    spec_fp: u64,
    /// Expanded points in this sweep's own idx order (fingerprints may be
    /// shared with other sweeps; idx is per-sweep).
    points: Vec<PointSpec>,
}

#[derive(Default)]
struct Registry {
    sweeps: BTreeMap<String, SweepEntry>,
    points: HashMap<u64, PointEntry>,
    /// Which sweeps reference each fingerprint (completion fan-out).
    point_sweeps: HashMap<u64, Vec<String>>,
    queue: VecDeque<u64>,
    /// Bumped on every observable state change; SSE and long-pollers
    /// wait on it.
    version: u64,
}

impl Registry {
    /// The metrics of `fp` if it is done.
    fn done(&self, fp: u64) -> Option<&PointMetrics> {
        match &self.points.get(&fp)?.phase {
            PointPhase::Done(m) => Some(m),
            _ => None,
        }
    }
}

/// A successful admission (or idempotent re-admission).
#[derive(Debug)]
pub struct SubmitReply {
    pub id: String,
    /// `false` when the sweep was already known — the idempotent path.
    pub created: bool,
    pub status_json: String,
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// Unparsable spec, failed validation, or over the point cap — 400.
    Bad(String),
    /// Admitting this spec would overflow the bounded queue — 429.
    Overloaded { queued: usize, wanted: usize },
    /// The service is draining for shutdown — 503.
    ShuttingDown,
}

/// Why `GET /sweeps/:id/results` has no results (yet).
#[derive(Debug)]
pub enum ResultsError {
    UnknownSweep,
    /// Not all points are done; the status JSON says which.
    Incomplete(String),
    Io(io::Error),
}

/// The sweep service core — everything except sockets. The HTTP layer
/// ([`crate::server`]) is a thin adapter over these methods, which keeps
/// admission/dedup/backpressure logic directly unit-testable.
pub struct Service {
    pub(crate) cfg: SvcConfig,
    runner: Box<dyn PointRunner + Send + Sync>,
    reg: Mutex<Registry>,
    /// Wakes workers when the queue gains items (or shutdown starts).
    work_cv: Condvar,
    /// Wakes status watchers when `Registry::version` bumps.
    progress_cv: Condvar,
    led: Mutex<Ledger>,
    /// Root of every attempt's linked CancelToken — cancelling it is the
    /// shutdown broadcast.
    root: CancelToken,
    shutting_down: AtomicBool,
    _lock: RunLock,
}

impl Service {
    /// Open (or recover) the service state at `cfg.data_dir`: take the
    /// writer lock, replay the ledger, re-admit persisted sweeps with
    /// non-`done` points re-queued, journal a `svc-start` boot marker,
    /// and render any results files a crash left unwritten.
    pub fn open(
        cfg: SvcConfig,
        runner: Box<dyn PointRunner + Send + Sync>,
    ) -> io::Result<Arc<Service>> {
        let lock = RunLock::acquire(&cfg.data_dir)?;
        std::fs::create_dir_all(cfg.data_dir.join("sweeps"))?;
        std::fs::create_dir_all(cfg.data_dir.join("results"))?;
        let prior = replay(&cfg.data_dir)?;
        let mut led = Ledger::open(&cfg.data_dir)?;
        // The boot boundary: point records after the last `svc-start`
        // were computed by *this* incarnation (the kill-resume smoke
        // test counts them to prove zero recomputation).
        led.marker("svc-start")?;

        let mut reg = Registry::default();
        let mut spec_files: Vec<PathBuf> = std::fs::read_dir(cfg.data_dir.join("sweeps"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        spec_files.sort(); // deterministic recovery order
        for path in spec_files {
            let text = std::fs::read_to_string(&path)?;
            let (spec, points, spec_fp) = match parse_and_expand(&text, None) {
                Ok(x) => x,
                Err(e) => {
                    // A spec that no longer parses (e.g. hand-edited)
                    // must not keep the whole service down; skip it.
                    eprintln!("[svc] skipping unreadable spec {}: {e}", path.display());
                    continue;
                }
            };
            let id = format!("{spec_fp:016x}");
            let _ = spec;
            for p in &points {
                let fp = p.fingerprint();
                reg.point_sweeps.entry(fp).or_default().push(id.clone());
                if reg.points.contains_key(&fp) {
                    continue;
                }
                let (phase, next_attempt) = match prior.points.get(&fp) {
                    Some(rp) => match &rp.state {
                        PointState::Done(m) => (PointPhase::Done(m.clone()), rp.attempt),
                        // Interrupted, failed, timed-out, even gave-up: a
                        // restart re-attempts them (same policy as
                        // rerunning the CLI supervisor on a run-dir),
                        // continuing the ledger's attempt numbering.
                        _ => (PointPhase::Queued, rp.attempt + 1),
                    },
                    None => (PointPhase::Queued, 0),
                };
                if phase == PointPhase::Queued {
                    reg.queue.push_back(fp);
                }
                reg.points.insert(fp, PointEntry { spec: p.clone(), phase, next_attempt });
            }
            reg.sweeps.insert(id, SweepEntry { spec_fp, points });
        }

        let svc = Arc::new(Service {
            cfg,
            runner,
            reg: Mutex::new(reg),
            work_cv: Condvar::new(),
            progress_cv: Condvar::new(),
            led: Mutex::new(led),
            root: CancelToken::new(),
            shutting_down: AtomicBool::new(false),
            _lock: lock,
        });
        // A crash can land between "last point done" and "results
        // rendered"; rendering is pure, so just do it now.
        {
            let reg = svc.reg.lock().expect("registry mutex poisoned");
            let complete: Vec<String> = reg
                .sweeps
                .iter()
                .filter(|(_, e)| sweep_done(&reg, e))
                .map(|(id, _)| id.clone())
                .collect();
            for id in complete {
                svc.write_results_file(&reg, &id)?;
            }
        }
        Ok(svc)
    }

    /// Admit a sweep spec (the `POST /sweeps` core). Validation and the
    /// cross-product cap run before expansion; registration is atomic
    /// under the registry lock, so concurrent duplicate submissions
    /// race to one insert and the losers take the idempotent path.
    pub fn submit(&self, body: &str) -> Result<SubmitReply, SubmitError> {
        if self.is_shutting_down() {
            return Err(SubmitError::ShuttingDown);
        }
        let (spec, points, spec_fp) =
            parse_and_expand(body, self.cfg.sup.point_cap).map_err(SubmitError::Bad)?;
        let id = format!("{spec_fp:016x}");

        let mut reg = self.reg.lock().expect("registry mutex poisoned");
        if let Some(entry) = reg.sweeps.get(&id) {
            let status_json = render_status(&reg, &id, entry);
            return Ok(SubmitReply { id, created: false, status_json });
        }
        let new_points: Vec<&PointSpec> =
            points.iter().filter(|p| !reg.points.contains_key(&p.fingerprint())).collect();
        if reg.queue.len() + new_points.len() > self.cfg.queue_cap {
            return Err(SubmitError::Overloaded {
                queued: reg.queue.len(),
                wanted: new_points.len(),
            });
        }
        // Persist the spec before queueing anything: a crash right here
        // recovers the whole sweep from sweeps/<id>.json + the ledger.
        let spec_path = self.cfg.data_dir.join("sweeps").join(format!("{id}.json"));
        if let Err(e) = atomic_write(&spec_path, spec.to_json().as_bytes()) {
            return Err(SubmitError::Bad(format!("persisting spec: {e}")));
        }
        for p in new_points {
            let fp = p.fingerprint();
            reg.points.insert(
                fp,
                PointEntry { spec: p.clone(), phase: PointPhase::Queued, next_attempt: 0 },
            );
            reg.queue.push_back(fp);
        }
        for p in &points {
            reg.point_sweeps.entry(p.fingerprint()).or_default().push(id.clone());
        }
        reg.sweeps.insert(id.clone(), SweepEntry { spec_fp, points });
        reg.version += 1;
        self.work_cv.notify_all();
        self.progress_cv.notify_all();
        let entry = &reg.sweeps[&id];
        let status_json = render_status(&reg, &id, entry);
        // An admitted sweep with every point already cached is complete
        // on arrival — make sure its results file exists too.
        if sweep_done(&reg, entry) {
            if let Err(e) = self.write_results_file(&reg, &id) {
                eprintln!("[svc] rendering results for {id}: {e}");
            }
        }
        Ok(SubmitReply { id, created: true, status_json })
    }

    /// The `GET /sweeps/:id` body, or `None` for an unknown id.
    pub fn status_json(&self, id: &str) -> Option<String> {
        let reg = self.reg.lock().expect("registry mutex poisoned");
        let entry = reg.sweeps.get(id)?;
        Some(render_status(&reg, id, entry))
    }

    /// The `GET /sweeps/:id/results` body: the immutable results file,
    /// rendered on first request if the completion hook lost the race.
    pub fn results(&self, id: &str) -> Result<Vec<u8>, ResultsError> {
        let reg = self.reg.lock().expect("registry mutex poisoned");
        let Some(entry) = reg.sweeps.get(id) else { return Err(ResultsError::UnknownSweep) };
        if !sweep_done(&reg, entry) {
            return Err(ResultsError::Incomplete(render_status(&reg, id, entry)));
        }
        self.write_results_file(&reg, id).map_err(ResultsError::Io)?;
        std::fs::read(self.results_path(id)).map_err(ResultsError::Io)
    }

    /// On-disk location of a sweep's rendered results.
    pub fn results_path(&self, id: &str) -> PathBuf {
        self.cfg.data_dir.join("results").join(format!("{id}.json"))
    }

    /// Current progress-version (pair with [`Service::wait_progress`]).
    pub fn version(&self) -> u64 {
        self.reg.lock().expect("registry mutex poisoned").version
    }

    /// Block until the registry version moves past `seen`, the timeout
    /// lapses, or shutdown starts; returns the current version.
    pub fn wait_progress(&self, seen: u64, timeout: Duration) -> u64 {
        let reg = self.reg.lock().expect("registry mutex poisoned");
        if reg.version != seen || self.is_shutting_down() {
            return reg.version;
        }
        let (reg, _) =
            self.progress_cv.wait_timeout(reg, timeout).expect("registry mutex poisoned");
        reg.version
    }

    /// Begin the graceful drain: refuse new work, broadcast cancel to
    /// every in-flight attempt (they stop at the next cycle boundary,
    /// checkpoint, and come back Interrupted — journaled as still
    /// `running`, the resumable shape), wake every waiter.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.root.cancel();
        let _reg = self.reg.lock().expect("registry mutex poisoned");
        self.work_cv.notify_all();
        self.progress_cv.notify_all();
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// One worker thread: pull fingerprints off the queue and run them
    /// through the shared [`PointScheduler`] until shutdown.
    pub(crate) fn worker_loop(self: &Arc<Service>) {
        loop {
            let (fp, point, first_attempt) = {
                let mut reg = self.reg.lock().expect("registry mutex poisoned");
                loop {
                    if self.is_shutting_down() {
                        return;
                    }
                    if let Some(fp) = reg.queue.pop_front() {
                        let e = reg.points.get_mut(&fp).expect("queued point is registered");
                        e.phase = PointPhase::Running;
                        let job = (fp, e.spec.clone(), e.next_attempt);
                        reg.version += 1;
                        self.progress_cv.notify_all();
                        break job;
                    }
                    let (guard, _) = self
                        .work_cv
                        .wait_timeout(reg, Duration::from_millis(200))
                        .expect("registry mutex poisoned");
                    reg = guard;
                }
            };
            let sched = PointScheduler {
                runner: self.runner.as_ref(),
                cfg: &self.cfg.sup,
                ckpt_root: self.cfg.data_dir.join("ckpt"),
                led: &self.led,
                batch_cancel: Some(self.root.clone()),
            };
            let outcome = sched.run_point(&point, first_attempt, &|| false);
            let mut reg = self.reg.lock().expect("registry mutex poisoned");
            let done = {
                let e = reg.points.get_mut(&fp).expect("running point is registered");
                match outcome {
                    PointOutcome::Done(m) => {
                        e.phase = PointPhase::Done(m);
                        true
                    }
                    PointOutcome::GaveUp { reason } => {
                        e.next_attempt = first_attempt + self.cfg.sup.point_retries + 1;
                        e.phase = PointPhase::GaveUp(reason);
                        false
                    }
                    // Shutdown caught it mid-attempt: back to queued so
                    // status reads honestly; the restart re-queues it
                    // from the ledger anyway.
                    PointOutcome::Interrupted => {
                        e.phase = PointPhase::Queued;
                        false
                    }
                }
            };
            reg.version += 1;
            if done {
                let finished: Vec<String> = reg
                    .point_sweeps
                    .get(&fp)
                    .into_iter()
                    .flatten()
                    .filter(|id| reg.sweeps.get(*id).is_some_and(|e| sweep_done(&reg, e)))
                    .cloned()
                    .collect();
                for id in finished {
                    if let Err(e) = self.write_results_file(&reg, &id) {
                        eprintln!("[svc] rendering results for {id}: {e}");
                    }
                }
            }
            self.progress_cv.notify_all();
        }
    }

    /// Render `results/<id>.json` from the registry and write it
    /// atomically — once. The file is immutable after creation, so
    /// restarted services serve the very same bytes (the byte-identity
    /// half of kill-resume).
    fn write_results_file(&self, reg: &Registry, id: &str) -> io::Result<()> {
        let path = self.results_path(id);
        if path.exists() {
            return Ok(());
        }
        let entry = reg.sweeps.get(id).expect("caller verified the sweep exists");
        let body = render_results(entry.spec_fp, &entry.points, |fp| reg.done(fp))?;
        atomic_write(&path, body.as_bytes())
    }
}

/// Parse + validate + expand a spec body; returns the expanded points
/// and the sweep fingerprint (computed from the already-expanded points,
/// not via `SweepSpec::fingerprint`, to avoid a second expansion).
#[allow(clippy::type_complexity)]
fn parse_and_expand(
    body: &str,
    cap: Option<usize>,
) -> Result<(SweepSpec, Vec<PointSpec>, u64), String> {
    let spec = SweepSpec::from_json(body)?;
    check_point_cap(&spec, cap)?;
    let points = spec.expand()?;
    let mut h = Fnv::new();
    for p in &points {
        h.bytes(&p.fingerprint().to_le_bytes());
    }
    Ok((spec, points, h.finish()))
}

/// Is every point of `entry` done?
fn sweep_done(reg: &Registry, entry: &SweepEntry) -> bool {
    entry.points.iter().all(|p| reg.done(p.fingerprint()).is_some())
}

/// Render the status JSON for one sweep (house encoding: integers as
/// decimal strings; a single line, so it doubles as an SSE frame).
fn render_status(reg: &Registry, id: &str, entry: &SweepEntry) -> String {
    use std::fmt::Write as _;
    let mut done = 0usize;
    let mut running = 0usize;
    let mut queued = 0usize;
    let mut gave_up = 0usize;
    let mut points = String::new();
    for (i, p) in entry.points.iter().enumerate() {
        let fp = p.fingerprint();
        let e = reg.points.get(&fp).expect("sweep points are registered");
        match e.phase {
            PointPhase::Done(_) => done += 1,
            PointPhase::Running => running += 1,
            PointPhase::Queued => queued += 1,
            PointPhase::GaveUp(_) => gave_up += 1,
        }
        write!(
            points,
            "{{\"idx\":\"{}\",\"fp\":\"{fp:016x}\",\"state\":\"{}\"",
            p.idx,
            e.phase.word()
        )
        .unwrap();
        if let PointPhase::GaveUp(reason) = &e.phase {
            write!(points, ",\"reason\":{}", json::quote(reason)).unwrap();
        }
        points.push('}');
        if i + 1 < entry.points.len() {
            points.push(',');
        }
    }
    format!(
        "{{\"schema\":\"{STATUS_SCHEMA}\",\"id\":\"{id}\",\"total\":\"{}\",\"done\":\"{done}\",\
         \"running\":\"{running}\",\"queued\":\"{queued}\",\"gave_up\":\"{gave_up}\",\
         \"complete\":{},\"points\":[{points}]}}",
        entry.points.len(),
        done == entry.points.len(),
    )
}
