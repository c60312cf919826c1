//! Integration tests for the sweep service: end-to-end submit → status →
//! results over real sockets, exactly-once execution under concurrent
//! duplicate submissions, 429 load shedding, graceful shutdown leaving a
//! resumable ledger, and a SIGKILL-then-restart round trip through the
//! real binary asserting zero recomputation and byte-identical results.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use noc_sim::supervisor::ledger::replay_text;
use noc_sim::supervisor::{replay, LEDGER_FILE};
use noc_sim::{
    render_results, PointCtx, PointFailure, PointMetrics, PointRunner, PointSpec, PointState,
    SupervisorConfig, SweepSpec,
};
use noc_svc::config::SvcConfig;
use noc_svc::server::{start, ServiceHandle};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-svc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_json(seeds: &[u64]) -> String {
    let list = seeds.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",");
    format!(
        r#"{{"topologies":["own-256"],"patterns":["uniform"],"rates":[0.03],
            "seeds":[{list}],"warmup":50,"measure":100,"drain":400}}"#
    )
}

fn metrics_for(fp: u64) -> PointMetrics {
    PointMetrics {
        avg_latency: (fp % 97) as f64 + 0.25,
        p50_latency: fp % 31,
        p95_latency: fp % 63,
        p99_latency: fp % 127,
        throughput: (fp % 11) as f64 / 100.0,
        delivered_fraction: 1.0,
        packets_measured: fp % 1009,
        cycles: 550,
    }
}

/// Minimal HTTP/1.1 client: one request, one response, one connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to service");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let (head, payload) = text.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in: {head}"));
    (status, head.to_string(), payload.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    http(addr, "GET", path, "")
}

fn post_sweep(addr: SocketAddr, spec: &str) -> (u16, String, String) {
    http(addr, "POST", "/sweeps", spec)
}

/// Pull the `"id":"<16 hex>"` out of a status body.
fn sweep_id(status_body: &str) -> String {
    let tail = status_body.split("\"id\":\"").nth(1).expect("status body has an id");
    tail[..16].to_string()
}

fn wait_complete(addr: SocketAddr, id: &str) {
    for _ in 0..3000 {
        let (code, _, body) = get(addr, &format!("/sweeps/{id}"));
        assert_eq!(code, 200, "status for admitted sweep");
        if body.contains("\"complete\":true") {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("sweep {id} never completed");
}

/// Instant success, every invocation counted per fingerprint.
struct InstantRunner {
    calls: Mutex<HashMap<u64, u32>>,
    delay: Duration,
}

impl PointRunner for InstantRunner {
    fn run_point(&self, point: &PointSpec, _ctx: &PointCtx) -> Result<PointMetrics, PointFailure> {
        *self.calls.lock().unwrap().entry(point.fingerprint()).or_insert(0) += 1;
        std::thread::sleep(self.delay);
        Ok(metrics_for(point.fingerprint()))
    }
}

/// Makes no progress until the cancel token fires — the in-flight shape
/// for shutdown and backpressure tests.
struct WedgeRunner;

impl PointRunner for WedgeRunner {
    fn run_point(&self, _point: &PointSpec, ctx: &PointCtx) -> Result<PointMetrics, PointFailure> {
        loop {
            if ctx.cancel.expired_now() {
                return Err(PointFailure::TimedOut);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Reports metrics no simulation produces but the codec must carry:
/// NaN, ±inf, -0.0, subnormals and `f64::MAX`, rotated by point idx so
/// seven points put every value in every float field.
struct AwkwardRunner;

impl PointRunner for AwkwardRunner {
    fn run_point(&self, point: &PointSpec, _ctx: &PointCtx) -> Result<PointMetrics, PointFailure> {
        const AWKWARD: [f64; 7] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            -2.225_073_858_507_201e-308,
            f64::MAX,
        ];
        let pick = |k: usize| AWKWARD[(3 * point.idx + k) % AWKWARD.len()];
        Ok(PointMetrics {
            avg_latency: pick(0),
            p50_latency: 0,
            p95_latency: u64::MAX,
            p99_latency: u64::MAX - 1,
            throughput: pick(1),
            delivered_fraction: pick(2),
            packets_measured: point.fingerprint(),
            cycles: 550,
        })
    }
}

fn test_cfg(dir: &std::path::Path, workers: usize) -> SvcConfig {
    SvcConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        sup: SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            // Synthetic runners ignore checkpoints; no need to write any.
            checkpoint_every: 0,
            ..SupervisorConfig::default()
        },
        ..SvcConfig::at(dir)
    }
}

#[test]
fn submit_status_results_round_trip() {
    let dir = scratch("e2e");
    let runner = InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::ZERO };
    let handle = start(test_cfg(&dir, 2), Box::new(runner)).expect("service starts");
    let addr = handle.addr();

    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(get(addr, "/readyz").0, 200);
    assert_eq!(get(addr, "/sweeps/0123456789abcdef").0, 404);
    assert_eq!(get(addr, "/nonsense").0, 404);

    let (code, head, body) = post_sweep(addr, &spec_json(&[1, 2, 3]));
    assert_eq!(code, 201, "fresh spec is created: {body}");
    assert!(head.contains("Location: /sweeps/"), "created reply names its resource");
    assert!(body.contains("\"schema\":\"own-noc-sweep-status/v1\""));
    let id = sweep_id(&body);
    wait_complete(addr, &id);

    let (code, _, results) = get(addr, &format!("/sweeps/{id}/results"));
    assert_eq!(code, 200);
    assert!(results.contains("\"schema\":\"own-noc-results/v1\""));
    assert!(results.contains("\"idx\":\"0\""));
    let (_, _, again) = get(addr, &format!("/sweeps/{id}/results"));
    assert_eq!(results, again, "results are immutable once rendered");

    // Idempotent resubmission: same id, 200 not 201, nothing recomputed.
    let (code, _, body2) = post_sweep(addr, &spec_json(&[1, 2, 3]));
    assert_eq!(code, 200);
    assert_eq!(sweep_id(&body2), id);
    assert!(body2.contains("\"complete\":true"));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The service renders results from the metrics it holds in memory; the
/// bytes must equal a render over a fresh replay of its ledger, even for
/// values whose text form is unusual.
#[test]
fn served_results_equal_a_render_over_a_fresh_ledger_replay() {
    let dir = scratch("awkward");
    let handle = start(test_cfg(&dir, 2), Box::new(AwkwardRunner)).expect("service starts");
    let addr = handle.addr();

    let spec = spec_json(&[1, 2, 3, 4, 5, 6, 7]);
    let (code, _, body) = post_sweep(addr, &spec);
    assert_eq!(code, 201, "{body}");
    let id = sweep_id(&body);
    wait_complete(addr, &id);
    let (code, _, served) = get(addr, &format!("/sweeps/{id}/results"));
    assert_eq!(code, 200);

    let points = SweepSpec::from_json(&spec).unwrap().expand().unwrap();
    let rep = replay(&dir).unwrap();
    let spec_fp = u64::from_str_radix(&id, 16).unwrap();
    let replayed = render_results(spec_fp, &points, |fp| rep.done(fp)).unwrap();
    assert_eq!(served, replayed, "in-memory and replayed metrics must render identically");
    for text in ["NaN", "\"inf\"", "-inf", "-0.0", "5e-324", "-2.225073858507201e-308"] {
        assert!(served.contains(text), "{text} missing from:\n{served}");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `shutdown` on a thread of its own and fail, instead of hanging the
/// suite, if it does not return within a generous bound — the shape a
/// missed wake of the blocked acceptor takes.
fn shutdown_within_10s(handle: ServiceHandle) {
    let (tx, rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        rx.recv_timeout(Duration::from_secs(10))
    {
        panic!("shutdown did not return within 10 s: the acceptor was not woken");
    }
    drain.join().expect("shutdown panicked");
}

#[test]
fn service_that_never_received_a_connection_shuts_down() {
    let dir = scratch("idle");
    let runner = InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::ZERO };
    let handle = start(test_cfg(&dir, 1), Box::new(runner)).expect("service starts");
    shutdown_within_10s(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_bound_to_the_wildcard_address_shuts_down() {
    let dir = scratch("wildcard");
    let runner = InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::ZERO };
    let cfg = SvcConfig { addr: "0.0.0.0:0".into(), ..test_cfg(&dir, 1) };
    let handle = start(cfg, Box::new(runner)).expect("service starts");
    assert!(handle.addr().ip().is_unspecified());
    shutdown_within_10s(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_oversized_specs_are_rejected() {
    let dir = scratch("reject");
    let runner = InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::ZERO };
    let mut cfg = test_cfg(&dir, 1);
    cfg.sup.point_cap = Some(4);
    let handle = start(cfg, Box::new(runner)).expect("service starts");
    let addr = handle.addr();

    let (code, _, body) = post_sweep(addr, "{not json");
    assert_eq!(code, 400, "unparsable spec: {body}");

    let (code, _, body) = post_sweep(addr, r#"{"topologies":["own-256"],"patterns":["uniform"]}"#);
    assert_eq!(code, 400);
    assert!(body.contains("missing field"), "got: {body}");

    let (code, _, body) = post_sweep(
        addr,
        r#"{"topologies":["hypercube-9"],"patterns":["uniform"],"rates":[0.03],"seeds":[1]}"#,
    );
    assert_eq!(code, 400);
    assert!(body.contains("unknown topology"), "got: {body}");

    // Cross product 5 > cap 4: refused before expansion.
    let (code, _, body) = post_sweep(addr, &spec_json(&[1, 2, 3, 4, 5]));
    assert_eq!(code, 400);
    assert!(body.contains("over the cap"), "got: {body}");

    // At the cap: admitted.
    let (code, _, _) = post_sweep(addr, &spec_json(&[1, 2, 3, 4]));
    assert_eq!(code, 201);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// N concurrent clients submit overlapping specs; every fingerprint must
/// execute exactly once, and exactly one client per distinct spec gets
/// the 201.
#[test]
fn concurrent_duplicate_submissions_execute_each_point_once() {
    let dir = scratch("dedup");
    let runner = Box::leak(Box::new(InstantRunner {
        calls: Mutex::new(HashMap::new()),
        // Wide enough that overlapping submissions land while earlier
        // points are still queued or running.
        delay: Duration::from_millis(10),
    }));
    struct Shared(&'static InstantRunner);
    impl PointRunner for Shared {
        fn run_point(
            &self,
            point: &PointSpec,
            ctx: &PointCtx,
        ) -> Result<PointMetrics, PointFailure> {
            self.0.run_point(point, ctx)
        }
    }
    let handle = start(test_cfg(&dir, 3), Box::new(Shared(runner))).expect("service starts");
    let addr = handle.addr();

    // 4 distinct specs, pairwise overlapping seeds, each submitted by 4
    // clients concurrently = 16 in-flight submissions.
    let specs: Vec<String> = (0..4u64).map(|i| spec_json(&[i + 1, i + 2, i + 3, i + 4])).collect();
    let mut clients = Vec::new();
    for spec in &specs {
        for _ in 0..4 {
            let spec = spec.clone();
            clients.push(std::thread::spawn(move || post_sweep(addr, &spec)));
        }
    }
    let replies: Vec<(u16, String, String)> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();

    let mut ids = std::collections::BTreeSet::new();
    let mut created = 0;
    for (code, _, body) in &replies {
        assert!(matches!(code, 200 | 201), "submission must be admitted: {body}");
        ids.insert(sweep_id(body));
        created += usize::from(*code == 201);
    }
    assert_eq!(ids.len(), 4, "4 distinct specs -> 4 sweep ids");
    assert_eq!(created, 4, "exactly one 201 per distinct spec");

    for id in &ids {
        wait_complete(addr, id);
    }
    // Seeds 1..=7 -> 7 distinct fingerprints despite 16 submissions
    // covering them several times over.
    let calls = runner.calls.lock().unwrap();
    assert_eq!(calls.len(), 7, "7 distinct points across the overlapping specs");
    for (fp, n) in calls.iter() {
        assert_eq!(*n, 1, "point {fp:016x} must execute exactly once, ran {n} times");
    }
    drop(calls);

    // Every sweep's results must be servable and mutually consistent on
    // the shared points (same fingerprint -> same metrics bytes).
    for id in &ids {
        let (code, _, _) = get(addr, &format!("/sweeps/{id}/results"));
        assert_eq!(code, 200);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_submissions_with_429_and_retry_after() {
    let dir = scratch("shed");
    let mut cfg = test_cfg(&dir, 1);
    cfg.queue_cap = 4;
    let handle = start(cfg, Box::new(WedgeRunner)).expect("service starts");
    let addr = handle.addr();

    // 4 points fit the queue bound (the worker wedges on the first).
    let (code, _, body) = post_sweep(addr, &spec_json(&[1, 2, 3, 4]));
    assert_eq!(code, 201, "{body}");

    // 3 more never fit: even after the worker pops one, 3 queued + 3 new
    // exceeds the cap of 4.
    let (code, head, body) = post_sweep(addr, &spec_json(&[10, 11, 12]));
    assert_eq!(code, 429, "overflow must shed: {body}");
    assert!(head.contains("Retry-After:"), "shed reply must carry Retry-After:\n{head}");
    assert!(body.contains("queue full"), "got: {body}");

    // An idempotent resubmission of the admitted spec is NOT shed — it
    // adds no points.
    let (code, _, _) = post_sweep(addr, &spec_json(&[1, 2, 3, 4]));
    assert_eq!(code, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown mid-point: the in-flight attempt is cancelled at a
/// cycle boundary and the ledger ends in the *resumable* shape — last
/// word `running`, no failure record — and a restarted service picks the
/// point back up and completes it.
#[test]
fn graceful_shutdown_mid_point_leaves_resumable_ledger() {
    let dir = scratch("drain");
    let handle = start(test_cfg(&dir, 1), Box::new(WedgeRunner)).expect("service starts");
    let addr = handle.addr();

    let (code, _, body) = post_sweep(addr, &spec_json(&[1]));
    assert_eq!(code, 201, "{body}");
    let id = sweep_id(&body);
    for _ in 0..1000 {
        let (_, _, body) = get(addr, &format!("/sweeps/{id}"));
        if body.contains("\"state\":\"running\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Drain while the point is wedged mid-attempt. This must return
    // promptly (the wedge polls its cancel token) — a hang here IS the
    // regression.
    handle.shutdown();

    let text = std::fs::read_to_string(dir.join(LEDGER_FILE)).expect("ledger exists");
    let rep = replay_text(&text);
    assert_eq!(rep.count("running"), 1, "interrupted attempt stays `running`:\n{text}");
    for bad in ["timed-out", "failed", "gave-up"] {
        assert!(
            !text.contains(&format!("\"state\":\"{bad}\"")),
            "shutdown must not journal {bad}:\n{text}"
        );
    }

    // Restart on the same data dir: the point is re-queued (attempt
    // numbering continues) and completes.
    let runner = InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::ZERO };
    let handle = start(test_cfg(&dir, 1), Box::new(runner)).expect("service restarts");
    let addr = handle.addr();
    wait_complete(addr, &id);
    let (code, _, _) = get(addr, &format!("/sweeps/{id}/results"));
    assert_eq!(code, 200);
    let text = std::fs::read_to_string(dir.join(LEDGER_FILE)).unwrap();
    let rep = replay_text(&text);
    let point = rep.points.values().next().expect("one point");
    assert!(matches!(point.state, PointState::Done(_)));
    assert_eq!(point.attempt, 1, "restart continues the attempt numbering");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second service on the same data dir must be refused while the first
/// lives (exit path: `noc_sim::exit::LOCKED`).
#[test]
fn second_service_on_same_data_dir_is_locked_out() {
    let dir = scratch("locked");
    let runner = InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::ZERO };
    let handle = start(test_cfg(&dir, 1), Box::new(runner)).expect("first service starts");
    let runner2 = InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::ZERO };
    match start(test_cfg(&dir, 1), Box::new(runner2)) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
        Ok(second) => {
            second.shutdown();
            panic!("second service on a live data dir must be refused");
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SSE progress: the event stream opens, emits status frames, and ends
/// once the sweep completes.
#[test]
fn sse_stream_reports_progress_to_completion() {
    let dir = scratch("sse");
    let runner =
        InstantRunner { calls: Mutex::new(HashMap::new()), delay: Duration::from_millis(5) };
    let handle = start(test_cfg(&dir, 1), Box::new(runner)).expect("service starts");
    let addr = handle.addr();

    let (code, _, body) = post_sweep(addr, &spec_json(&[1, 2]));
    assert_eq!(code, 201, "{body}");
    let id = sweep_id(&body);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(stream, "GET /sweeps/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream ends after completion");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("Content-Type: text/event-stream"), "got:\n{text}");
    assert!(text.contains("data: {\"schema\":\"own-noc-sweep-status/v1\""));
    assert!(text.contains("\"complete\":true"), "final frame announces completion:\n{text}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance round trip through the real binary: SIGKILL the
/// service mid-sweep, restart it, and require byte-identical results
/// with zero recomputed points (no pre-kill `done` fingerprint touched
/// after the restart's `svc-start` marker).
#[test]
fn sigkill_restart_serves_byte_identical_results_with_zero_recompute() {
    let bin = env!("CARGO_BIN_EXE_noc-svc");
    let victim_dir = scratch("kill");
    let ref_dir = scratch("kill-ref");
    // Enough points that the kill lands mid-sweep; real own-256
    // simulations so checkpoints and metrics are the genuine article.
    let spec = spec_json(&[1, 2, 3, 4, 5, 6]);

    let serve = |dir: &std::path::Path| {
        let mut child = std::process::Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                &dir.display().to_string(),
                "--workers",
                "2",
                "--point-backoff-ms",
                "1",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("service spawns");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("service announces its address");
        let addr: SocketAddr = line
            .trim()
            .rsplit("http://")
            .next()
            .expect("address in announce line")
            .parse()
            .unwrap_or_else(|e| panic!("bad announce line {line:?}: {e}"));
        (child, addr)
    };

    // Reference: same spec, never interrupted.
    let (mut ref_child, ref_addr) = serve(&ref_dir);
    let (code, _, body) = post_sweep(ref_addr, &spec);
    assert_eq!(code, 201, "{body}");
    let id = sweep_id(&body);
    wait_complete(ref_addr, &id);
    let (code, _, reference) = get(ref_addr, &format!("/sweeps/{id}/results"));
    assert_eq!(code, 200);

    // Victim: SIGKILL once roughly half the points are journaled done.
    let (mut victim, victim_addr) = serve(&victim_dir);
    let (code, _, body) = post_sweep(victim_addr, &spec);
    assert_eq!(code, 201, "{body}");
    assert_eq!(sweep_id(&body), id, "same spec, same id on any service");
    let ledger_path = victim_dir.join(LEDGER_FILE);
    for _ in 0..6000 {
        let done = std::fs::read_to_string(&ledger_path)
            .map(|t| replay_text(&t).count("done"))
            .unwrap_or(0);
        if done >= 3 || victim.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    victim.kill().expect("SIGKILL the service"); // no destructors, no flush
    victim.wait().unwrap();

    let pre = std::fs::read_to_string(&ledger_path).unwrap_or_default();
    let done_before_kill: Vec<String> = replay_text(&pre)
        .points
        .iter()
        .filter(|(_, p)| matches!(p.state, PointState::Done(_)))
        .map(|(fp, _)| format!("{fp:016x}"))
        .collect();
    assert!(!done_before_kill.is_empty(), "kill must land after some work finished");

    // Restart on the same data dir; it must recover, finish, and serve.
    let (restarted, new_addr) = serve(&victim_dir);
    wait_complete(new_addr, &id);
    let (code, _, resumed) = get(new_addr, &format!("/sweeps/{id}/results"));
    assert_eq!(code, 200);
    assert_eq!(
        resumed, reference,
        "killed+restarted results must be byte-identical to the uninterrupted run"
    );

    // Zero recomputation: nothing journaled after this boot's marker may
    // name a fingerprint that was already done before the kill.
    let full = std::fs::read_to_string(&ledger_path).unwrap();
    let after_boot = full.rsplit("\"kind\":\"svc-start\"").next().unwrap();
    for fp in &done_before_kill {
        assert!(
            !after_boot.contains(fp),
            "point {fp} was done before the kill but recomputed after restart"
        );
    }

    // Graceful exit on SIGTERM, exit code 0 (routed through noc_sim::exit).
    terminate(&restarted);
    terminate(&ref_child);
    let mut restarted = restarted;
    assert_eq!(restarted.wait().unwrap().code(), Some(0), "SIGTERM drain must exit 0");
    assert_eq!(ref_child.wait().unwrap().code(), Some(0), "SIGTERM drain must exit 0");

    let _ = std::fs::remove_dir_all(&victim_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Send SIGTERM (15) — `std::process::Child` only offers SIGKILL.
fn terminate(child: &std::process::Child) {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(child.id() as i32, 15);
        }
    }
}
