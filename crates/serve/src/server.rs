//! The resident daemon: line-delimited JSON requests over stdin/stdout
//! (or a Unix socket), scheduled onto a bounded worker pool with warm
//! caches and per-request isolation.
//!
//! # Protocol
//!
//! One JSON object per line in, one-or-more JSON lines out:
//!
//! * job requests (`"op": "run" | "lint" | "suite"`) carry a caller-chosen
//!   numeric `"id"`; every line the daemon emits for that request echoes
//!   it. A job produces zero or more `"event"` lines (accepted, phase
//!   start/done, suite rows, supervision) followed by exactly one final
//!   line: `{"id": N, "ok": true, ...}` or `{"id": N, "error": {...}}`.
//! * control requests (`"op": "stats" | "cancel" | "shutdown"`) are
//!   answered immediately by the reader thread, ahead of queued jobs.
//! * a `run` of an inline or generated design whose result is in the
//!   durable store is answered by the reader too: it plans the request
//!   and reads the entry itself, so a replay never waits for a worker.
//!   On a miss the planned run goes to the queue.
//!
//! # Backpressure
//!
//! At most `queue_capacity` jobs wait behind the workers; when the queue
//! is full the reader stops consuming input, so the OS pipe/socket buffer
//! fills and the client blocks on write. Nothing is dropped.
//!
//! # Isolation
//!
//! Each job runs inside `catch_unwind` on its worker: a poisoned request
//! becomes an `{"error": {"code": "panicked"}}` response and the daemon
//! keeps serving. EOF (or `"op": "shutdown"`) stops intake, drains the
//! queue, and returns cleanly — exit code 0.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use snr_core::panic_message;
use snr_par::{CancelToken, Parallelism};

use crate::cache::WarmCache;
use crate::error::ApiError;
use crate::exec::{execute, lookup_run, recompute_run, Event, ExecCtx, Response, RunLookup};
use crate::json::Json;
use crate::plan::{plan, Plan, RunPlan};
use crate::queue::BoundedQueue;
use crate::render::{
    error_line, event_line, response_line, supervision_event_line, supervision_event_line_raw,
};
use crate::request::{CacheMode, Control, DesignSource, Envelope, Op, Request};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent job workers.
    pub workers: usize,
    /// Bounded queue depth (the backpressure point).
    pub queue_capacity: usize,
    /// Warm-cache entry cap.
    pub cache_capacity: usize,
    /// Durable result-store directory (`--store <DIR>`); `None` keeps the
    /// daemon disk-free.
    pub store_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: Parallelism::auto().jobs(),
            queue_capacity: 64,
            cache_capacity: 32,
            store_dir: None,
        }
    }
}

/// Aggregated per-phase wall-clock timing.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseStat {
    count: u64,
    total: Duration,
}

/// Request counters for `stats`.
#[derive(Debug, Default)]
struct Counters {
    received: u64,
    completed: u64,
    errors: u64,
    panics: u64,
    cancelled: u64,
}

/// Where a job sits for cancellation purposes.
enum CancelSlot {
    /// Still queued; `true` once a cancel arrived before it started.
    Queued(bool),
    /// Executing, with its live cancellation token.
    Running(CancelToken),
}

/// State shared by the reader and every worker — and, in socket mode, by
/// successive connections: the warm cache outlives any one client.
pub struct ServerState {
    cache: Mutex<WarmCache>,
    store: Option<snr_store::ResultStore>,
    counters: Mutex<Counters>,
    phases: Mutex<BTreeMap<&'static str, PhaseStat>>,
    cancels: Mutex<HashMap<u64, CancelSlot>>,
    workers: usize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServerState {
    /// Fresh state for `config`.
    pub fn new(config: &ServeConfig) -> Self {
        // The store is strictly additive: if the directory cannot be
        // opened the daemon still serves, it just recomputes everything.
        let store = config.store_dir.as_deref().and_then(|dir| {
            match snr_store::ResultStore::open(dir) {
                Ok(store) => Some(store),
                Err(e) => {
                    eprintln!("serve: result store disabled ({}: {e})", dir.display());
                    None
                }
            }
        });
        ServerState {
            cache: Mutex::new(WarmCache::new(config.cache_capacity)),
            store,
            counters: Mutex::new(Counters::default()),
            phases: Mutex::new(BTreeMap::new()),
            cancels: Mutex::new(HashMap::new()),
            workers: config.workers.max(1),
        }
    }

    fn record_phase(&self, phase: &'static str, elapsed: Duration) {
        let mut phases = lock(&self.phases);
        let stat = phases.entry(phase).or_default();
        stat.count += 1;
        stat.total += elapsed;
    }

    fn stats_json(&self, queue: &BoundedQueue<Job>) -> String {
        let c = lock(&self.counters);
        let (hits, misses, entries, cache_cap) = {
            let cache = lock(&self.cache);
            (cache.hits(), cache.misses(), cache.len(), cache.capacity())
        };
        let phases = lock(&self.phases)
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ms\": {:.3}}}",
                    s.count,
                    s.total.as_secs_f64() * 1e3
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let store = match &self.store {
            Some(store) => {
                let s = store.stats();
                format!(
                    "{{\"enabled\": true, \"hits\": {}, \"misses\": {}, \
                     \"quarantined\": {}, \"writes\": {}}}",
                    s.hits, s.misses, s.quarantined, s.writes
                )
            }
            None => "{\"enabled\": false}".to_owned(),
        };
        format!(
            concat!(
                "{{\"requests\": {{\"received\": {}, \"completed\": {}, \"errors\": {}, ",
                "\"panics\": {}, \"cancelled\": {}}}, ",
                "\"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"capacity\": {}}}, ",
                "\"store\": {}, ",
                "\"queue\": {{\"depth\": {}, \"capacity\": {}}}, ",
                "\"workers\": {}, \"phases\": {{{}}}}}"
            ),
            c.received,
            c.completed,
            c.errors,
            c.panics,
            c.cancelled,
            hits,
            misses,
            entries,
            cache_cap,
            store,
            queue.depth(),
            queue.capacity(),
            self.workers,
            phases,
        )
    }
}

/// One scheduled job.
struct Job {
    id: u64,
    work: Work,
}

/// What a worker does for a job.
enum Work {
    /// Plan and execute the request.
    Request(Request),
    /// Recompute a run the reader planned and found no stored result
    /// for; `Some` describes an entry the lookup quarantined.
    Run(Box<RunPlan>, Option<String>),
}

/// Plans a `run` of an inline or generated design and looks its result
/// up in the store, for the reader to answer a hit itself. `None` when
/// the request does not qualify (other ops, no store, `"cache": "off"`,
/// a design file the plan would read) or does not plan: the worker then
/// plans it and reports any error.
fn reader_lookup(state: &ServerState, req: &Request) -> Option<(RunPlan, RunLookup)> {
    let Request::Run(run) = req else { return None };
    let store = state.store.as_ref()?;
    if run.cache != CacheMode::On || matches!(run.design, DesignSource::Path(_)) {
        return None;
    }
    let Ok(Plan::Run(planned)) = plan(req) else {
        return None;
    };
    let lookup = lookup_run(&planned, store);
    Some((planned, lookup))
}

/// Writes one protocol line and flushes, so clients see it immediately.
fn send<W: Write>(out: &Mutex<W>, line: &str) {
    let mut out = lock(out);
    // A broken pipe means the client is gone; the daemon keeps draining
    // its queue (side effects such as store writes still matter) and
    // exits on EOF as usual.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn worker_loop<W: Write + Send>(state: &ServerState, queue: &BoundedQueue<Job>, out: &Mutex<W>) {
    while let Some(job) = queue.pop() {
        let id = job.id;
        // A cancel that arrived while the job was still queued wins: the
        // job never executes.
        let pre_cancelled = matches!(
            lock(&state.cancels).get(&id),
            Some(CancelSlot::Queued(true))
        );
        if pre_cancelled {
            lock(&state.cancels).remove(&id);
            lock(&state.counters).cancelled += 1;
            send(out, &error_line(Some(id), &ApiError::cancelled("cancelled while queued")));
            continue;
        }

        let result = catch_unwind(AssertUnwindSafe(|| {
            let sink = |event: &Event| {
                if let Event::PhaseDone { phase, elapsed } = event {
                    state.record_phase(phase, *elapsed);
                }
                send(out, &event_line(id, event));
            };
            let on_token = |token: &CancelToken| {
                lock(&state.cancels).insert(id, CancelSlot::Running(token.clone()));
            };
            let ctx = ExecCtx {
                cache: Some(&state.cache),
                store: state.store.as_ref(),
                sink: Some(&sink),
                on_token: Some(&on_token),
            };
            match &job.work {
                Work::Request(req) => execute(&plan(req)?, &ctx),
                Work::Run(planned, quarantined) => {
                    recompute_run(planned, &ctx, quarantined.clone())
                }
            }
        }));
        lock(&state.cancels).remove(&id);
        // Count before sending: the response line is the client's signal
        // that the request is settled, so a `stats` issued right after it
        // must already see this request in the counters.
        match result {
            Ok(Ok(resp)) => {
                lock(&state.counters).completed += 1;
                match &resp {
                    Response::Run(run) => send(out, &supervision_event_line(id, run)),
                    Response::Replayed(r) => {
                        send(out, &supervision_event_line_raw(id, &r.supervision));
                    }
                    _ => {}
                }
                send(out, &response_line(id, &resp));
            }
            Ok(Err(err)) => {
                lock(&state.counters).errors += 1;
                send(out, &error_line(Some(id), &err));
            }
            Err(payload) => {
                let err = ApiError::panicked(format!(
                    "request panicked: {} (request isolated; daemon still serving)",
                    panic_message(&*payload, 120)
                ));
                lock(&state.counters).panics += 1;
                send(out, &error_line(Some(id), &err));
            }
        }
    }
}

/// Handles one control operation on the reader thread.
fn handle_control<W: Write>(
    state: &ServerState,
    queue: &BoundedQueue<Job>,
    out: &Mutex<W>,
    id: Option<u64>,
    control: &Control,
) -> bool {
    let id_text = id.map_or_else(|| "null".to_owned(), |i| i.to_string());
    match control {
        Control::Stats => {
            send(
                out,
                &format!(
                    "{{\"id\": {id_text}, \"ok\": true, \"result\": {}}}",
                    state.stats_json(queue)
                ),
            );
            false
        }
        Control::Cancel { target } => {
            let disposition = {
                let mut cancels = lock(&state.cancels);
                match cancels.get_mut(target) {
                    Some(CancelSlot::Queued(requested)) => {
                        *requested = true;
                        "queued"
                    }
                    Some(CancelSlot::Running(token)) => {
                        token.cancel();
                        "running"
                    }
                    None => "unknown",
                }
            };
            send(
                out,
                &format!(
                    "{{\"id\": {id_text}, \"ok\": true, \"result\": \
                     {{\"target\": {target}, \"state\": \"{disposition}\"}}}}"
                ),
            );
            false
        }
        Control::Shutdown => {
            send(
                out,
                &format!(
                    "{{\"id\": {id_text}, \"ok\": true, \"result\": \
                     {{\"shutdown\": true, \"pending\": {}}}}}",
                    queue.depth()
                ),
            );
            true
        }
    }
}

/// Runs the daemon over one input/output pair until EOF or `shutdown`.
///
/// Returns `true` when the client asked for shutdown (socket mode uses
/// this to stop accepting further connections).
///
/// # Errors
///
/// Only genuine input-stream I/O errors; protocol problems become error
/// lines, never process failures.
pub fn serve_io<R: BufRead, W: Write + Send>(
    state: &ServerState,
    config: &ServeConfig,
    input: R,
    output: W,
) -> io::Result<bool> {
    let queue = BoundedQueue::new(config.queue_capacity);
    let out = Mutex::new(output);
    let mut shutdown = false;

    std::thread::scope(|scope| -> io::Result<()> {
        for _ in 0..state.workers {
            scope.spawn(|| worker_loop(state, &queue, &out));
        }

        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parsed = match Json::parse(&line) {
                Ok(v) => v,
                Err(e) => {
                    send(&out, &error_line(None, &ApiError::usage(e.to_string())));
                    continue;
                }
            };
            // Best-effort id for error reporting on malformed envelopes.
            let raw_id = parsed.get("id").and_then(Json::as_u64);
            let envelope = match Envelope::from_json(&parsed) {
                Ok(env) => env,
                Err(e) => {
                    send(&out, &error_line(raw_id, &e));
                    continue;
                }
            };
            match envelope.op {
                Op::Control(control) => {
                    if handle_control(state, &queue, &out, envelope.id, &control) {
                        shutdown = true;
                        break;
                    }
                }
                Op::Job(req) => {
                    let id = match envelope.id {
                        Some(id) => id,
                        None => unreachable!("Envelope::from_json enforces ids on jobs"),
                    };
                    {
                        let mut cancels = lock(&state.cancels);
                        if cancels.contains_key(&id) {
                            drop(cancels);
                            send(
                                &out,
                                &error_line(
                                    Some(id),
                                    &ApiError::usage(format!(
                                        "id {id} is already queued or running"
                                    )),
                                ),
                            );
                            continue;
                        }
                        cancels.insert(id, CancelSlot::Queued(false));
                    }
                    lock(&state.counters).received += 1;
                    send(
                        &out,
                        &format!(
                            "{{\"id\": {id}, \"event\": \"accepted\", \"queue_depth\": {}}}",
                            queue.depth()
                        ),
                    );
                    // Each job runs on the one worker that pops it.
                    let req = req.on_one_thread();
                    // A stored result is answered here; a panic while
                    // looking it up leaves the request to a worker, which
                    // isolates it.
                    let lookup = catch_unwind(AssertUnwindSafe(|| reader_lookup(state, &req)));
                    let work = match lookup.ok().flatten() {
                        Some((_, RunLookup::Replay(replay))) => {
                            lock(&state.cancels).remove(&id);
                            lock(&state.counters).completed += 1;
                            send(&out, &supervision_event_line_raw(id, &replay.supervision));
                            send(&out, &response_line(id, &Response::Replayed(replay)));
                            continue;
                        }
                        Some((planned, RunLookup::Recompute(quarantined))) => {
                            Work::Run(Box::new(planned), quarantined)
                        }
                        None => Work::Request(req),
                    };
                    // Blocks while the queue is full: backpressure.
                    if queue.push(Job { id, work }).is_err() {
                        send(
                            &out,
                            &error_line(
                                Some(id),
                                &ApiError::cancelled("daemon is shutting down"),
                            ),
                        );
                    }
                }
            }
        }
        // EOF or shutdown: stop intake, let the workers drain the queue.
        queue.close();
        Ok(())
    })?;
    Ok(shutdown)
}

/// Runs the daemon over this process's stdin/stdout until EOF or
/// `shutdown`.
///
/// # Errors
///
/// Only stdin I/O errors; see [`serve_io`].
pub fn serve_stdio(config: &ServeConfig) -> io::Result<()> {
    let state = ServerState::new(config);
    let stdin = io::stdin();
    serve_io(&state, config, stdin.lock(), io::stdout()).map(|_| ())
}

/// Runs the daemon on a Unix socket, one connection at a time; the warm
/// cache and statistics persist across connections. A `shutdown` request
/// (or removing the socket) stops the accept loop.
///
/// # Errors
///
/// Socket bind/accept failures.
#[cfg(unix)]
pub fn serve_socket(config: &ServeConfig, path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous daemon would fail the bind.
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let listener = UnixListener::bind(path)?;
    let state = ServerState::new(config);
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = io::BufReader::new(stream.try_clone()?);
        match serve_io(&state, config, reader, stream) {
            Ok(true) => break,
            Ok(false) => {}
            // One broken connection must not kill the daemon.
            Err(e) => eprintln!("serve: connection error: {e}"),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}
