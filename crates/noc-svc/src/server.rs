//! The socket layer: accept loop, routing, worker pool lifecycle,
//! signal-driven graceful shutdown.
//!
//! Threading model: one acceptor (blocked in `accept`; shutdown wakes it
//! with a connection of its own), one short-lived thread per
//! connection (bounded by `max_connections` with a fast 503 past the
//! cap), and `workers` long-lived simulation threads sharing the
//! [`Service`] job queue. No async runtime — see the crate docs for why
//! that is the right shape here.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::{SvcConfig, IO_TIMEOUT, RETRY_AFTER_SECS};
use crate::http::{self, HttpError, Request};
use crate::state::{ResultsError, Service, SubmitError};

/// Set by the SIGTERM/SIGINT handler; polled by [`serve`]'s main loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// A running service: the bound address plus everything needed to drain
/// it cleanly. Obtained from [`start`]; tests drive it in-process.
pub struct ServiceHandle {
    svc: Arc<Service>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The actually-bound address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service core, for in-process assertions.
    pub fn service(&self) -> &Arc<Service> {
        &self.svc
    }

    /// Graceful drain: stop admitting, cancel in-flight points at a
    /// cycle boundary (their final checkpoints flush first), wake the
    /// acceptor, join every thread. The ledger needs no extra flush —
    /// every record was written and flushed when journaled.
    pub fn shutdown(self) {
        self.svc.begin_shutdown();
        // The acceptor is blocked in `accept`; one connection of our own
        // wakes it to see the shutdown flag. A wildcard bind is reached
        // through loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Err(e) = TcpStream::connect(wake) {
            eprintln!("[svc] waking the acceptor at {wake}: {e}");
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Open (or recover) the service at `cfg.data_dir` and start serving on
/// `cfg.addr`. Returns once the listener is bound and workers are live.
pub fn start(
    cfg: SvcConfig,
    runner: Box<dyn noc_sim::PointRunner + Send + Sync>,
) -> io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let svc = Service::open(cfg, runner)?;

    let mut threads = Vec::new();
    for i in 0..svc.cfg.workers {
        let svc = Arc::clone(&svc);
        threads.push(
            std::thread::Builder::new()
                .name(format!("svc-worker-{i}"))
                .spawn(move || svc.worker_loop())?,
        );
    }
    {
        let svc = Arc::clone(&svc);
        threads.push(
            std::thread::Builder::new()
                .name("svc-accept".into())
                .spawn(move || accept_loop(listener, svc))?,
        );
    }
    Ok(ServiceHandle { svc, addr, threads })
}

fn accept_loop(listener: TcpListener, svc: Arc<Service>) {
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        // Re-checked after every accept: shutdown's wake connection (or
        // a client arriving mid-drain) ends the loop unserved.
        if svc.is_shutting_down() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if live.load(Ordering::Relaxed) >= svc.cfg.max_connections {
                    // Shed before spawning: a connection flood must not
                    // become a thread flood.
                    let mut s = stream;
                    let _ = http::respond(
                        &mut s,
                        503,
                        "text/plain",
                        b"connection limit reached\n",
                        &[("Retry-After", RETRY_AFTER_SECS.to_string())],
                    );
                    continue;
                }
                live.fetch_add(1, Ordering::Relaxed);
                let svc = Arc::clone(&svc);
                let live_in_conn = Arc::clone(&live);
                let spawned =
                    std::thread::Builder::new().name("svc-conn".into()).spawn(move || {
                        handle_connection(stream, &svc);
                        live_in_conn.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    live.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) => {
                eprintln!("[svc] accept: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, svc: &Arc<Service>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let req = match http::read_request(&mut stream, svc.cfg.max_body) {
        Ok(req) => req,
        Err(HttpError::BodyTooLarge) => {
            let _ = http::respond(&mut stream, 413, "text/plain", b"spec body too large\n", &[]);
            return;
        }
        Err(HttpError::Malformed(why)) => {
            let body = format!("malformed request: {why}\n");
            let _ = http::respond(&mut stream, 400, "text/plain", body.as_bytes(), &[]);
            return;
        }
        Err(HttpError::Io(_)) => return, // client went away or stalled out
    };
    let _ = route(&mut stream, &req, svc);
}

fn route(stream: &mut TcpStream, req: &Request, svc: &Arc<Service>) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => http::respond(stream, 200, "text/plain", b"ok\n", &[]),
        ("GET", ["readyz"]) => {
            if svc.is_shutting_down() {
                http::respond(stream, 503, "text/plain", b"draining\n", &[])
            } else {
                http::respond(stream, 200, "text/plain", b"ready\n", &[])
            }
        }
        ("POST", ["sweeps"]) => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(s) => s,
                Err(_) => {
                    return http::respond(
                        stream,
                        400,
                        "text/plain",
                        b"spec body must be UTF-8 JSON\n",
                        &[],
                    );
                }
            };
            match svc.submit(body) {
                Ok(reply) => {
                    let status = if reply.created { 201 } else { 200 };
                    http::respond(
                        stream,
                        status,
                        "application/json",
                        reply.status_json.as_bytes(),
                        &[("Location", format!("/sweeps/{}", reply.id))],
                    )
                }
                Err(SubmitError::Bad(msg)) => {
                    let body = format!("{msg}\n");
                    http::respond(stream, 400, "text/plain", body.as_bytes(), &[])
                }
                Err(SubmitError::Overloaded { queued, wanted }) => {
                    let body = format!(
                        "queue full: {queued} points queued, this spec needs {wanted} more\n"
                    );
                    http::respond(
                        stream,
                        429,
                        "text/plain",
                        body.as_bytes(),
                        &[("Retry-After", RETRY_AFTER_SECS.to_string())],
                    )
                }
                Err(SubmitError::ShuttingDown) => http::respond(
                    stream,
                    503,
                    "text/plain",
                    b"service is draining for shutdown\n",
                    &[],
                ),
            }
        }
        ("GET", ["sweeps", id]) => match svc.status_json(id) {
            Some(json) => http::respond(stream, 200, "application/json", json.as_bytes(), &[]),
            None => http::respond(stream, 404, "text/plain", b"unknown sweep\n", &[]),
        },
        ("GET", ["sweeps", id, "results"]) => match svc.results(id) {
            Ok(bytes) => http::respond(stream, 200, "application/json", &bytes, &[]),
            Err(ResultsError::UnknownSweep) => {
                http::respond(stream, 404, "text/plain", b"unknown sweep\n", &[])
            }
            Err(ResultsError::Incomplete(status_json)) => {
                http::respond(stream, 409, "application/json", status_json.as_bytes(), &[])
            }
            Err(ResultsError::Io(e)) => {
                let body = format!("rendering results: {e}\n");
                http::respond(stream, 503, "text/plain", body.as_bytes(), &[])
            }
        },
        ("GET", ["sweeps", id, "events"]) => stream_events(stream, id, svc),
        _ => http::respond(stream, 404, "text/plain", b"no such route\n", &[]),
    }
}

/// SSE progress stream: one `data:` frame with the current status, then
/// a frame per state change, ending after the sweep completes (or on
/// shutdown / client disconnect).
fn stream_events(stream: &mut TcpStream, id: &str, svc: &Arc<Service>) -> io::Result<()> {
    // The version is read before the first frame is rendered, so a change
    // landing in between shows up as a newer version and gets its own
    // frame. Read after, it would be lost: the stream would then wait
    // for a further change that, on the sweep's last point, never comes.
    let mut version = svc.version();
    let Some(first) = svc.status_json(id) else {
        return http::respond(stream, 404, "text/plain", b"unknown sweep\n", &[]);
    };
    http::start_sse(stream)?;
    http::sse_data(stream, &first)?;
    let mut last = first;
    loop {
        if last.contains("\"complete\":true") || svc.is_shutting_down() {
            return Ok(());
        }
        let next = svc.wait_progress(version, Duration::from_millis(250));
        if next == version {
            continue;
        }
        version = next;
        let Some(json) = svc.status_json(id) else { return Ok(()) };
        if json != last {
            // A write error means the client hung up — just stop.
            http::sse_data(stream, &json)?;
            last = json;
        }
    }
}

/// Run the service in the foreground until SIGTERM/SIGINT, then drain
/// gracefully. Returns the process exit code (routed through
/// `noc_sim::exit` by the binary).
pub fn serve(cfg: SvcConfig) -> io::Result<()> {
    install_signal_handlers();
    let handle = start(cfg, Box::new(noc_sim::SimRunner))?;
    // The parseable "where am I" line tests and scripts key off (stdout,
    // flushed, exactly once, before any request is served).
    println!("noc-svc listening on http://{}", handle.addr());
    use io::Write as _;
    io::stdout().flush()?;
    while !SIGNALLED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("[svc] signal received; draining");
    handle.shutdown();
    eprintln!("[svc] drained cleanly");
    Ok(())
}

/// Install SIGTERM/SIGINT handlers via raw `signal(2)` — the handler
/// only stores to a static `AtomicBool`, which is async-signal-safe.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}
