//! The campaign server: HTTP front end, job recovery, and the serve loop.
//!
//! # Endpoints
//!
//! | Method | Path                 | Meaning                                        |
//! |--------|----------------------|------------------------------------------------|
//! | POST   | `/jobs`              | Submit a sweep grid; returns `{"id", "configs"}` (cached configs are settled before the reply: the job may already be `done`) |
//! | GET    | `/jobs/:id`          | Job status with per-config progress            |
//! | GET    | `/jobs/:id/results`  | Completed results as JSON lines (partial while running; `X-Job-Complete` header) |
//! | POST   | `/jobs/:id/cancel`   | Cancel a job (durable, fleet-wide)             |
//! | GET    | `/stats`             | Engine version, worker/job/cache counters      |
//! | POST   | `/shutdown`          | Graceful shutdown (in-flight configs finish)   |
//!
//! # Durability
//!
//! Everything lives under `data_dir`: `jobs/job-<id>.ckpt.jsonl`
//! (CRC-framed completed results in the core checkpoint format — this
//! file *is* the results stream; created first, exclusively, holding the
//! submission's cache hits — that create is the cross-process id claim),
//! `jobs/job-<id>.json` (the canonical submitted grid, whose creation
//! publishes the job to the fleet; a checkpoint without one is no job),
//! `jobs/job-<id>.ckpt.cancel` (durable cancellation marker), `leases/`
//! (per-config ownership), and `cache/` (content-addressed results). A
//! killed server recovers on the next [`CampaignServer::bind`]: grids are
//! re-expanded, checkpoints restored through the core
//! [`flexsim::CheckpointTail`] (digest-exact, torn final lines tolerated
//! and surfaced, corrupt frames quarantined), and unfinished
//! configurations re-enter the queue.
//!
//! # Fleet
//!
//! Any number of servers may share one `data_dir`. A scanner thread
//! discovers jobs submitted through siblings and runs each job's reconcile
//! step, which applies the checkpoint records and the cancel marker that
//! siblings wrote; per-config leases (renewed by a heartbeat thread)
//! arbitrate ownership, so a `kill -9`'d member's configs are reclaimed by
//! the survivors once its leases expire — with its completed records
//! adopted, never recomputed. `POST /jobs/:id/cancel` writes the marker
//! and runs the same step: it appends nothing, since only the submitter
//! and lease holders append checkpoint records.

use std::fs;
use std::io::{self, ErrorKind, Read};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use flexsim::jsonio::{durable, frame_record, obj, Json};
use flexsim::{checkpoint_line, read_results, ENGINE_VERSION};

use crate::cache::ResultCache;
use crate::grid::SweepGrid;
use crate::http::{
    read_request, respond_error, respond_json, respond_with_headers, Request, MAX_HEAD,
};
use crate::lease::LeaseDir;
use crate::signal;
use crate::state::{Job, Shared, SlotState, Stats};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Root of all durable state (`jobs/`, `cache/`, `leases/`).
    pub data_dir: PathBuf,
    /// Simulation workers, all popping the one work queue.
    pub workers: usize,
    /// Install a SIGINT handler so Ctrl-C takes the graceful path.
    pub handle_sigint: bool,
    /// Lease expiry window: a fleet member whose leases go unrenewed this
    /// long is presumed dead and its configs are reclaimed. (A provably
    /// dead pid on Linux is reclaimed immediately.)
    pub lease_expiry: Duration,
    /// Fleet scan interval: how often the scanner discovers sibling jobs
    /// and reconciles checkpoint progress.
    pub scan_interval: Duration,
}

impl ServerOptions {
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        ServerOptions {
            data_dir: data_dir.into(),
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            handle_sigint: false,
            lease_expiry: Duration::from_secs(5),
            scan_interval: Duration::from_millis(300),
        }
    }
}

/// HTTP handler threads (requests are cheap; 2 is plenty).
const HTTP_THREADS: usize = 2;

/// What the HTTP handlers need.
struct Ctx {
    shared: Arc<Shared>,
    /// The bound address; also where shutdown wakes the accept loop.
    addr: SocketAddr,
    jobs_dir: PathBuf,
    workers: usize,
}

/// A bound campaign server. [`bind`](CampaignServer::bind) recovers
/// durable state and starts the worker pool; [`serve`](CampaignServer::serve)
/// runs the accept loop until shutdown and drains gracefully.
pub struct CampaignServer {
    listener: TcpListener,
    ctx: Arc<Ctx>,
    workers: Vec<JoinHandle<()>>,
    handle_sigint: bool,
}

impl CampaignServer {
    /// Binds `addr` (use port 0 for an ephemeral port), recovers jobs
    /// from `data_dir`, and starts the worker pool.
    pub fn bind(addr: impl ToSocketAddrs, opts: &ServerOptions) -> io::Result<CampaignServer> {
        let jobs_dir = opts.data_dir.join("jobs");
        fs::create_dir_all(&jobs_dir)?;
        let cache = ResultCache::open(opts.data_dir.join("cache"))?;
        let leases = LeaseDir::open(opts.data_dir.join("leases"), opts.lease_expiry)?;

        let shared = Shared::new(cache, leases);
        let resumed = load_new_jobs(&shared, &jobs_dir);
        shared
            .stats
            .jobs_resumed
            .fetch_add(resumed, Ordering::Relaxed);

        let mut workers: Vec<JoinHandle<()>> = (0..opts.workers.max(1))
            .map(|w| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("campaign-worker-{w}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn worker")
            })
            .collect();

        // Fleet scanner: discovers jobs submitted through siblings and
        // reconciles checkpoint progress / cancellation markers.
        {
            let s = Arc::clone(&shared);
            let dir = jobs_dir.clone();
            let interval = opts.scan_interval;
            workers.push(
                thread::Builder::new()
                    .name("campaign-scanner".into())
                    .spawn(move || loop {
                        load_new_jobs(&s, &dir);
                        s.reconcile();
                        if s.wait_shutdown(interval) {
                            break;
                        }
                    })
                    .expect("spawn scanner"),
            );
        }
        // Lease heartbeat: renews this process's held leases several
        // times per expiry window so live work is never reclaimed.
        {
            let s = Arc::clone(&shared);
            let tick = (opts.lease_expiry / 4).max(Duration::from_millis(50));
            workers.push(
                thread::Builder::new()
                    .name("campaign-heartbeat".into())
                    .spawn(move || loop {
                        s.heartbeat();
                        if s.wait_shutdown(tick) {
                            break;
                        }
                    })
                    .expect("spawn heartbeat"),
            );
        }

        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(CampaignServer {
            listener,
            ctx: Arc::new(Ctx {
                shared,
                addr,
                jobs_dir,
                workers: opts.workers.max(1),
            }),
            workers,
            handle_sigint: opts.handle_sigint,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Runs until `POST /shutdown` or SIGINT, then drains: in-flight
    /// requests and simulations finish and are checkpointed; queued
    /// configurations stay on disk for the next lifetime.
    ///
    /// The accept loop blocks in `accept` — a request is handed to a
    /// handler the moment it connects — and whoever raises the shutdown
    /// latch wakes it with a connection of its own.
    pub fn serve(self) -> io::Result<()> {
        if self.handle_sigint {
            signal::install();
        }
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let handlers: Vec<JoinHandle<()>> = (0..HTTP_THREADS)
            .map(|h| {
                let rx = Arc::clone(&rx);
                let ctx = Arc::clone(&self.ctx);
                thread::Builder::new()
                    .name(format!("campaign-http-{h}"))
                    .spawn(move || loop {
                        // The receiver lock is held while waiting: the
                        // other handlers queue on it and take turns.
                        let next = rx.lock().unwrap().recv();
                        match next {
                            Ok(stream) => handle_connection(&ctx, stream),
                            Err(mpsc::RecvError) => break,
                        }
                    })
                    .expect("spawn http handler")
            })
            .collect();
        // SIGINT watcher. The handler may only flip an atomic, and the
        // signal is installed with `SA_RESTART`, so it never interrupts
        // `accept`: this thread turns the latch into a wake-up.
        let watcher = {
            let ctx = Arc::clone(&self.ctx);
            thread::Builder::new()
                .name("campaign-sigint".into())
                .spawn(move || {
                    while !ctx.shared.wait_shutdown(SIGINT_POLL) {
                        if signal::triggered() {
                            shut_down(&ctx);
                        }
                    }
                })
                .expect("spawn sigint watcher")
        };

        loop {
            let accepted = self.listener.accept();
            if self.ctx.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let _ = tx.send(stream);
                }
                // Out of descriptors, or a connection reset before it was
                // accepted: give the condition a moment to clear.
                Err(_) => thread::sleep(ACCEPT_ERROR_PAUSE),
            }
        }

        // Drain: stop feeding handlers, let them finish queued requests,
        // then collect the workers (their in-flight units checkpoint
        // first).
        drop(tx);
        for h in handlers {
            let _ = h.join();
        }
        let _ = watcher.join();
        for w in self.workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// How often the SIGINT watcher looks at the signal latch.
const SIGINT_POLL: Duration = Duration::from_millis(20);
/// Pause after a failed `accept`, so a persistent error cannot spin.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(50);
/// Read and write budget of an accepted connection: a client that stalls
/// longer than this mid-request (or mid-response) loses its handler.
const SOCKET_BUDGET: Duration = Duration::from_secs(5);

/// Raises the shutdown latch and wakes the accept loop by connecting to
/// the listener, so `serve` returns promptly.
fn shut_down(ctx: &Ctx) {
    ctx.shared.trigger_shutdown();
    // A wildcard bind address is not connectable; its loopback is.
    let ip = match ctx.addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        ip => ip,
    };
    let wake = SocketAddr::new(ip, ctx.addr.port());
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// Lists the job ids with a grid file in `jobs_dir`.
fn job_ids_on_disk(jobs_dir: &std::path::Path) -> Vec<u64> {
    let Ok(rd) = fs::read_dir(jobs_dir) else {
        return Vec::new();
    };
    let mut ids: Vec<u64> = rd
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("job-")?
                .strip_suffix(".json")?
                .parse()
                .ok()
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Builds the in-memory [`Job`] for `id` from its on-disk grid and
/// checkpoint. Recovery is the tail's first, whole-file pass: what it
/// found is kept for the job status, a torn tail is sealed with a guard
/// newline so fresh appends start clean, and the slots take the records
/// and the cancel marker through the one step from disk to slots,
/// [`Job::apply`]. A job that comes back settled is released and sealed
/// like one that settles here, but was completed in an earlier life and
/// is not counted again.
fn load_job_from_disk(jobs_dir: &std::path::Path, id: u64, stats: &Stats) -> Option<Job> {
    let grid_path = jobs_dir.join(format!("job-{id}.json"));
    let text = fs::read_to_string(&grid_path).ok()?;
    let grid = match SweepGrid::from_json(&text) {
        Ok(g) => g,
        Err(_) => {
            eprintln!(
                "campaign: ignoring unparseable grid {}",
                grid_path.display()
            );
            return None;
        }
    };
    let mut job = Job::new(
        id,
        grid.expand(),
        jobs_dir.join(format!("job-{id}.ckpt.jsonl")),
        grid.timeout_ms.map(Duration::from_millis),
    );
    let cancelled = job.ckpt.with_extension("cancel").exists();
    let tail = Arc::clone(&job.tail);
    let mut tail = tail.lock().expect("tail lock");
    stats.refresh(&mut tail);
    job.recovered = tail.report();
    if job.recovered.torn_tail {
        let _ = durable::append_line(&job.ckpt, "");
    }
    if job.apply(|index| tail.verdict(index), cancelled) == Some(true) {
        stats.seal(&mut tail);
    }
    drop(tail);
    Some(job)
}

/// Loads every job in `jobs_dir` this process does not know yet — all of
/// them at start-up (recovery), afterwards those submitted through a
/// sibling process (fleet discovery) — and queues their unfinished
/// slots. Returns how many were loaded.
fn load_new_jobs(shared: &Arc<Shared>, jobs_dir: &std::path::Path) -> u64 {
    let ids = job_ids_on_disk(jobs_dir);
    let new: Vec<u64> = {
        let inner = shared.inner.lock().unwrap();
        ids.into_iter()
            .filter(|id| !inner.jobs.contains_key(id))
            .collect()
    };
    let mut loaded = 0;
    for id in new {
        // Load outside the lock (grid parse + checkpoint pass do I/O).
        let Some(job) = load_job_from_disk(jobs_dir, id, &shared.stats) else {
            continue;
        };
        // The HTTP thread may have published it meanwhile.
        if shared.inner.lock().unwrap().publish(job) {
            shared.work_cv.notify_all();
            loaded += 1;
        }
    }
    loaded
}

/// Reads one request, dispatches it, writes the response. All errors end
/// the connection; the protocol is one request per connection anyway.
fn handle_connection(ctx: &Arc<Ctx>, stream: TcpStream) {
    let mut stream = stream;
    // A stalled client must not pin this handler.
    let _ = stream.set_read_timeout(Some(SOCKET_BUDGET));
    let _ = stream.set_write_timeout(Some(SOCKET_BUDGET));
    let req = match read_request(&stream) {
        Ok(r) => r,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            let _ = respond_error(&mut stream, 408, "request not received in time");
            return;
        }
        Err(e) => {
            let _ = respond_error(&mut stream, 400, &e.to_string());
            // Closing on unread input (the rest of an oversized head or
            // body) resets the connection, which can destroy the reply
            // in flight: end the reply, then discard a bounded amount of
            // what the client already sent before closing.
            let _ = stream.shutdown(Shutdown::Write);
            let _ = io::copy(&mut (&stream).take(MAX_HEAD), &mut io::sink());
            return;
        }
    };
    ctx.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    // `/shutdown` answers before raising the latch so the client sees the
    // acknowledgment.
    if req.method == "POST" && req.path == "/shutdown" {
        let _ = respond_json(&mut stream, 200, "{\"shutting_down\":true}");
        shut_down(ctx);
        return;
    }
    match dispatch(ctx, &req) {
        Ok(reply) => {
            let extra: Vec<(&str, &str)> = reply
                .headers
                .iter()
                .map(|(n, v)| (*n, v.as_str()))
                .collect();
            let _ = respond_with_headers(
                &mut stream,
                reply.status,
                reply.content_type,
                &extra,
                reply.body.as_bytes(),
            );
        }
        Err((status, msg)) => {
            let _ = respond_error(&mut stream, status, &msg);
        }
    }
}

/// A successful handler response.
struct Response {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Response {
    fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }
}

type Reply = Result<Response, (u16, String)>;

fn dispatch(ctx: &Arc<Ctx>, req: &Request) -> Reply {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit_job(ctx, &req.body),
        ("GET", ["jobs", id]) => job_status(ctx, parse_id(id)?),
        ("GET", ["jobs", id, "results"]) => job_results(ctx, parse_id(id)?),
        ("POST", ["jobs", id, "cancel"]) => cancel_job(ctx, parse_id(id)?),
        ("GET", ["stats"]) => stats(ctx),
        ("GET" | "POST", _) => Err((404, format!("no route for {} {}", req.method, req.path))),
        _ => Err((405, format!("method {} not supported", req.method))),
    }
}

fn parse_id(s: &str) -> Result<u64, (u16, String)> {
    s.parse().map_err(|_| (400, format!("bad id `{s}`")))
}

/// `POST /jobs`. A job is born with its cache hits: every configuration
/// is looked up before the job exists, the hits are framed as ordinary
/// checkpoint records, and the job id is claimed by creating the job's
/// checkpoint already holding that batch — one write, one fsync — before
/// the grid file that makes the job visible to the fleet. Only the misses
/// are queued for the workers (and their leases); a fully cached grid is
/// `done` in the reply's first status.
fn submit_job(ctx: &Arc<Ctx>, body: &[u8]) -> Reply {
    let text = std::str::from_utf8(body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    let grid = SweepGrid::from_json(text).map_err(|e| (400, format!("bad grid: {e}")))?;
    let configs = grid.expand();
    let n = configs.len();
    let grid_json = grid.to_json().to_string();

    // Off the job-table lock: n file reads, and for each hit a record.
    let mut hits = Vec::new();
    let mut batch = String::new();
    for (index, cfg) in configs.iter().enumerate() {
        if let Some(result) = ctx.shared.cache.lookup(cfg) {
            batch.push_str(&frame_record(&checkpoint_line(
                index,
                &cfg.label(),
                &result,
            )));
            batch.push('\n');
            hits.push(index);
        }
    }

    let mut inner = ctx.shared.inner.lock().unwrap();
    // Claim a job id fleet-wide: both files are created with
    // `O_CREAT|O_EXCL`, so an id a sibling already took (our counter can
    // lag theirs) fails cleanly and we advance to the next free one. The
    // checkpoint comes first — siblings discover a job by its grid file,
    // so nobody sees the job before its hits are durable. A crash between
    // the two creates leaves a checkpoint no grid names: never read,
    // and its id is skipped here like any other taken one.
    let (id, ckpt) = loop {
        let id = inner.next_job_id;
        inner.next_job_id += 1;
        let ckpt = ctx.jobs_dir.join(format!("job-{id}.ckpt.jsonl"));
        let grid_path = ctx.jobs_dir.join(format!("job-{id}.json"));
        let claimed = durable::create_exclusive(&ckpt, batch.as_bytes())
            .and_then(|()| durable::create_exclusive(&grid_path, grid_json.as_bytes()));
        match claimed {
            Ok(()) => break (id, ckpt),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
            Err(e) => return Err((500, format!("persisting job {id}: {e}"))),
        }
    };
    let mut job = Job::new(
        id,
        configs,
        ckpt,
        grid.timeout_ms.map(Duration::from_millis),
    );
    // Every config a hit: the job settles here and nowhere else.
    let mut settled = None;
    for index in hits {
        let hit = SlotState::Done {
            cached: true,
            restored: false,
        };
        settled = settled.or(job.set_slot(index, hit));
    }
    let seal = ctx.shared.stats.count_settled(settled);
    let tail = Arc::clone(&job.tail);
    // Holding the lock since the id claim, nobody can have published it.
    inner.publish(job);
    drop(inner);
    ctx.shared
        .stats
        .jobs_submitted
        .fetch_add(1, Ordering::Relaxed);
    ctx.shared.work_cv.notify_all();
    if seal {
        ctx.shared.stats.seal(&mut tail.lock().expect("tail lock"));
    }

    let body = obj(vec![
        ("id", Json::U64(id)),
        ("configs", Json::U64(n as u64)),
    ]);
    Ok(Response::json(body.to_string()))
}

/// `POST /jobs/:id/cancel`: writes the durable fleet-wide marker, then
/// runs the job's reconcile step, which applies it here as every fleet
/// member's scanner applies it there: waiting slots settle `cancelled`
/// unless their record is already in the checkpoint, and running configs
/// (here or on siblings) stop at their next observer check and are
/// recorded by their lease holders. Nothing is appended here.
fn cancel_job(ctx: &Arc<Ctx>, id: u64) -> Reply {
    let (marker, before) = {
        let inner = ctx.shared.inner.lock().unwrap();
        let job = inner
            .jobs
            .get(&id)
            .ok_or_else(|| (404, format!("no job {id}")))?;
        (job.ckpt.with_extension("cancel"), job.counts().cancelled)
    };
    // The marker first: once this returns, the decision survives any
    // crash and reaches every fleet member via its scanner.
    durable::write_atomic(&marker, b"cancelled\n")
        .map_err(|e| (500, format!("persisting cancel marker: {e}")))?;
    ctx.shared.reconcile_job(id);
    let t = ctx.shared.inner.lock().unwrap().jobs[&id].counts();
    let body = obj(vec![
        ("id", Json::U64(id)),
        ("cancelled", Json::Bool(true)),
        ("newly_cancelled", Json::U64((t.cancelled - before) as u64)),
        ("still_running", Json::U64(t.running as u64)),
    ]);
    Ok(Response::json(body.to_string()))
}

fn job_status(ctx: &Arc<Ctx>, id: u64) -> Reply {
    let inner = ctx.shared.inner.lock().unwrap();
    let job = inner
        .jobs
        .get(&id)
        .ok_or_else(|| (404, format!("no job {id}")))?;
    let t = job.counts();
    debug_assert_eq!(t, job.tally(), "running slot counters drifted");
    let state = if job.is_settled() {
        "done"
    } else if t.running > 0 || t.done > 0 {
        "running"
    } else {
        "queued"
    };
    let slots: Vec<Json> = job
        .slots()
        .iter()
        .map(|s| {
            Json::Str(match s {
                SlotState::Pending | SlotState::Queued => "pending".to_string(),
                SlotState::Running => "running".to_string(),
                SlotState::Done { cached: true, .. } => "done:cached".to_string(),
                SlotState::Done { restored: true, .. } => "done:restored".to_string(),
                SlotState::Done { .. } => "done".to_string(),
                SlotState::Failed(msg) => format!("failed: {msg}"),
                SlotState::Cancelled { timed_out: true } => "timed_out".to_string(),
                SlotState::Cancelled { timed_out: false } => "cancelled".to_string(),
            })
        })
        .collect();
    let body = obj(vec![
        ("id", Json::U64(id)),
        ("state", Json::Str(state.to_string())),
        ("configs", Json::U64(job.slots().len() as u64)),
        ("pending", Json::U64(t.pending as u64)),
        ("running", Json::U64(t.running as u64)),
        ("completed", Json::U64(t.done as u64)),
        ("cached", Json::U64(t.cached as u64)),
        ("restored", Json::U64(t.restored as u64)),
        ("failed", Json::U64(t.failed as u64)),
        ("cancelled", Json::U64(t.cancelled as u64)),
        ("reclaimed_leases", Json::U64(job.reclaimed_leases)),
        (
            "checkpoint",
            obj(vec![
                ("restored", Json::U64(job.recovered.restored as u64)),
                (
                    "skipped_lines",
                    Json::U64(job.recovered.skipped_lines as u64),
                ),
                (
                    "corrupt_frames",
                    Json::U64(job.recovered.corrupt_frames as u64),
                ),
                ("torn_tail", Json::Bool(job.recovered.torn_tail)),
            ]),
        ),
        ("slots", Json::Arr(slots)),
    ]);
    Ok(Response::json(body.to_string()))
}

/// `GET /jobs/:id/results`. Valid while the job is still running: the
/// body holds only whole, CRC-verified result records (a torn tail, a
/// damaged line, or a cancellation status record never reaches a
/// client), and the `X-Job-Complete` header says whether the stream is
/// the final word (`true`) or a partial snapshot worth re-fetching
/// (`false`).
fn job_results(ctx: &Arc<Ctx>, id: u64) -> Reply {
    let (tail, settled) = {
        let inner = ctx.shared.inner.lock().unwrap();
        let job = inner
            .jobs
            .get(&id)
            .ok_or_else(|| (404, format!("no job {id}")))?;
        (Arc::clone(&job.tail), job.is_settled())
    };
    // Verify what was appended since the last look, then render the
    // stream off the tail's lock: status records (cancelled / timed-out
    // markers) are job bookkeeping and were never listed, and each listed
    // line is checked against its CRC once more on the way out.
    let (path, lines) = {
        let mut tail = tail.lock().expect("tail lock");
        ctx.shared.stats.refresh(&mut tail);
        (tail.path().to_path_buf(), tail.result_lines().to_vec())
    };
    let body = read_results(&path, &lines).map_err(|e| (500, format!("reading results: {e}")))?;
    Ok(Response {
        status: 200,
        content_type: "application/x-ndjson",
        headers: vec![(
            "X-Job-Complete",
            if settled { "true" } else { "false" }.to_string(),
        )],
        body,
    })
}

fn stats(ctx: &Arc<Ctx>) -> Reply {
    let s = &ctx.shared.stats;
    let body = obj(vec![
        ("engine", Json::Str(ENGINE_VERSION.to_string())),
        ("workers", Json::U64(ctx.workers as u64)),
        (
            "jobs",
            obj(vec![
                (
                    "submitted",
                    Json::U64(s.jobs_submitted.load(Ordering::Relaxed)),
                ),
                (
                    "completed",
                    Json::U64(s.jobs_completed.load(Ordering::Relaxed)),
                ),
                ("resumed", Json::U64(s.jobs_resumed.load(Ordering::Relaxed))),
            ]),
        ),
        (
            "cache",
            obj(vec![
                (
                    "hits",
                    Json::U64(ctx.shared.cache.hits.load(Ordering::Relaxed)),
                ),
                (
                    "misses",
                    Json::U64(ctx.shared.cache.misses.load(Ordering::Relaxed)),
                ),
                ("entries", Json::U64(ctx.shared.cache.entries() as u64)),
            ]),
        ),
        ("sims_run", Json::U64(s.sims_run.load(Ordering::Relaxed))),
        (
            "leases_acquired",
            Json::U64(s.leases_acquired.load(Ordering::Relaxed)),
        ),
        (
            "leases_reclaimed",
            Json::U64(s.leases_reclaimed.load(Ordering::Relaxed)),
        ),
        ("requests", Json::U64(s.requests.load(Ordering::Relaxed))),
        (
            "checkpoint",
            obj(vec![
                (
                    "refreshes",
                    Json::U64(s.ckpt_refreshes.load(Ordering::Relaxed)),
                ),
                (
                    "bytes_read",
                    Json::U64(s.ckpt_bytes_read.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ]);
    Ok(Response::json(body.to_string()))
}
