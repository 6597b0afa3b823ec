//! An in-process daemon session: `snr_serve::server::serve_io` on a
//! thread, fed through a channel and answering into a router that hands
//! each output line to the client that owns its request id. Also the
//! parsing of the daemon's lines the checks and counters rely on.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snr_serve::json::Json;
use snr_serve::server::serve_io;
use snr_serve::{ServeConfig, ServerState};

/// Ids at or above this belong to the session's control client; below
/// it, id `k` belongs to client `k % clients`.
pub const CONTROL_IDS: u64 = 1 << 40;

/// Longest a client waits for one response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// One output line and when the daemon wrote it.
#[derive(Debug, Clone)]
pub struct Line {
    /// When the router received the line.
    pub at: Instant,
    /// The line, without its newline.
    pub text: String,
}

/// The daemon's input: chunks sent by clients, read as one stream that
/// ends when every sender is gone.
struct ChanReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The daemon's output: split into lines, each routed by request id.
struct Router {
    partial: Vec<u8>,
    clients: Vec<Sender<Line>>,
    control: Sender<Line>,
}

impl Router {
    fn route(&self, text: String) {
        let line = Line {
            at: Instant::now(),
            text,
        };
        let to = match line_id(&line.text) {
            Some(id) if id < CONTROL_IDS => {
                &self.clients[(id % self.clients.len() as u64) as usize]
            }
            _ => &self.control,
        };
        // A client that already left drops late lines; nothing to do.
        let _ = to.send(line);
    }
}

impl Write for Router {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.partial.extend_from_slice(bytes);
        while let Some(end) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=end).collect();
            self.route(String::from_utf8_lossy(&line[..end]).into_owned());
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One closed-loop client: sends a line, then collects every line of
/// that request up to its final response.
pub struct Client {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Line>,
}

impl Client {
    /// Sends `line` and waits for its final response. Returns the send
    /// time and every line of the request, the final one last.
    ///
    /// # Errors
    ///
    /// The daemon stopped or did not answer in time.
    pub fn call(&self, line: &str) -> Result<(Instant, Vec<Line>), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let sent = Instant::now();
        self.tx
            .send(bytes)
            .map_err(|_| "daemon input closed".to_owned())?;
        let mut lines = Vec::new();
        loop {
            let line = self
                .rx
                .recv_timeout(RESPONSE_TIMEOUT)
                .map_err(|e| match e {
                    RecvTimeoutError::Timeout => "no response within the timeout".to_owned(),
                    RecvTimeoutError::Disconnected => "daemon output closed".to_owned(),
                })?;
            let last = !is_event(&line.text);
            lines.push(line);
            if last {
                return Ok((sent, lines));
            }
        }
    }
}

/// A running daemon with a fresh result store under `store_dir`. Dropping
/// it closes the input and waits for the daemon to drain and exit; the
/// store stays on disk for the caller to remove.
pub struct Daemon {
    handle: Option<JoinHandle<io::Result<bool>>>,
    control: Option<Client>,
    store_dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon with `workers` workers and `clients` client
    /// handles; the control client keeps the input open until drop.
    ///
    /// # Errors
    ///
    /// The store directory could not be prepared.
    pub fn start(
        workers: usize,
        cache_capacity: usize,
        store_dir: PathBuf,
        clients: usize,
    ) -> io::Result<(Daemon, Vec<Client>)> {
        if store_dir.exists() {
            std::fs::remove_dir_all(&store_dir)?;
        }
        std::fs::create_dir_all(&store_dir)?;
        let config = ServeConfig {
            workers,
            queue_capacity: 64,
            cache_capacity,
            store_dir: Some(store_dir.clone()),
        };
        let state = Arc::new(ServerState::new(&config));
        let (in_tx, in_rx) = channel();
        let (control_tx, control_rx) = channel();
        let mut client_txs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..clients {
            let (tx, rx) = channel();
            client_txs.push(tx);
            handles.push(Client {
                tx: in_tx.clone(),
                rx,
            });
        }
        let router = Router {
            partial: Vec::new(),
            clients: client_txs,
            control: control_tx,
        };
        let reader = BufReader::new(ChanReader {
            rx: in_rx,
            buf: Vec::new(),
            pos: 0,
        });
        let handle = std::thread::spawn(move || serve_io(&state, &config, reader, router));
        let control = Client {
            tx: in_tx,
            rx: control_rx,
        };
        Ok((
            Daemon {
                handle: Some(handle),
                control: Some(control),
                store_dir,
            },
            handles,
        ))
    }

    /// The control client (ids at or above [`CONTROL_IDS`]).
    pub fn control(&self) -> &Client {
        self.control
            .as_ref()
            .expect("the control client lives until drop")
    }

    /// The result store's directory.
    pub fn store_dir(&self) -> &std::path::Path {
        &self.store_dir
    }

    /// Stops the daemon and waits for it, keeping the store on disk.
    ///
    /// # Errors
    ///
    /// The daemon thread panicked or its input failed.
    pub fn stop(&mut self) -> Result<(), String> {
        self.control = None;
        match self.handle.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(_))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon input failed: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_owned()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The request id a daemon line carries, if any.
pub fn line_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\": ")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// Whether a daemon line is a streamed event rather than a final
/// response.
pub fn is_event(line: &str) -> bool {
    line.split_once(", ")
        .is_some_and(|(_, rest)| rest.starts_with("\"event\": "))
}

/// A final response's cache disposition (`hit`, `miss`, `off`, `store`),
/// for responses that carry one.
pub fn cache_status(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()?
        .get("cache")?
        .as_str()
        .map(str::to_owned)
}

/// The embedded result object of a final response, verbatim.
pub fn result_text(line: &str) -> Option<&str> {
    let at = line.find("\"result\": ")?;
    line.get(at + "\"result\": ".len()..line.len().checked_sub(1)?)
}

/// `phase_done` events of a request: `(phase, elapsed_ms)`.
pub fn phases_done(lines: &[Line]) -> Vec<(String, f64)> {
    lines
        .iter()
        .filter_map(|l| {
            let v = Json::parse(&l.text).ok()?;
            if v.get("event")?.as_str()? != "phase_done" {
                return None;
            }
            Some((
                v.get("phase")?.as_str()?.to_owned(),
                v.get("elapsed_ms")?.as_f64()?,
            ))
        })
        .collect()
}

/// The queue depth the `accepted` event reported, if any.
pub fn accepted_depth(lines: &[Line]) -> Option<u64> {
    lines.iter().find_map(|l| {
        let v = Json::parse(&l.text).ok()?;
        (v.get("event")?.as_str()? == "accepted").then(|| v.get("queue_depth")?.as_u64())?
    })
}

/// The counters of a `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs received.
    pub received: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that returned an error.
    pub errors: u64,
    /// Jobs that panicked.
    pub panics: u64,
    /// Warm-cache hits.
    pub cache_hits: u64,
    /// Warm-cache misses.
    pub cache_misses: u64,
    /// Warm-cache entries.
    pub cache_entries: u64,
    /// Result-store hits.
    pub store_hits: u64,
    /// Result-store misses.
    pub store_misses: u64,
    /// Result-store entries quarantined.
    pub store_quarantined: u64,
    /// Result-store writes.
    pub store_writes: u64,
}

/// Parses a `stats` response line.
///
/// # Errors
///
/// The line is not a `stats` response with every counter.
pub fn parse_stats(line: &str) -> Result<DaemonStats, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let result = v.get("result").ok_or("stats line lacks \"result\"")?;
    let get = |section: &str, key: &str| {
        result
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats line lacks {section}.{key}"))
    };
    Ok(DaemonStats {
        received: get("requests", "received")?,
        completed: get("requests", "completed")?,
        errors: get("requests", "errors")?,
        panics: get("requests", "panics")?,
        cache_hits: get("cache", "hits")?,
        cache_misses: get("cache", "misses")?,
        cache_entries: get("cache", "entries")?,
        store_hits: get("store", "hits")?,
        store_misses: get("store", "misses")?,
        store_quarantined: get("store", "quarantined")?,
        store_writes: get("store", "writes")?,
    })
}

/// The design each warm-cache build was for: one entry per `phase_done`
/// event of phase `cts` (a build is parse + CTS), keyed through
/// `key_of(request id)`.
pub fn built_keys<K: Clone>(lines: &[Line], key_of: &BTreeMap<u64, K>) -> Vec<K> {
    lines
        .iter()
        .filter(|l| {
            Json::parse(&l.text).ok().is_some_and(|v| {
                v.get("event").and_then(Json::as_str) == Some("phase_done")
                    && v.get("phase").and_then(Json::as_str) == Some("cts")
            })
        })
        .filter_map(|l| key_of.get(&line_id(&l.text)?).cloned())
        .collect()
}
