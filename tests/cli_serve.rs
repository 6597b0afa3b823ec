//! End-to-end tests of `smart-ndr serve`: the resident daemon driven over
//! stdin/stdout exactly as a client would drive it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    reader: BufReader<ChildStdout>,
    /// Every line read so far, for assertions over the event stream.
    transcript: Vec<String>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let stdin = child.stdin.take().expect("piped stdin");
        let reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        Daemon { child, stdin: Some(stdin), reader, transcript: Vec::new() }
    }

    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin still open");
        writeln!(stdin, "{line}").expect("write to daemon");
        stdin.flush().expect("flush to daemon");
    }

    fn read_line(&mut self) -> String {
        let mut s = String::new();
        let n = self.reader.read_line(&mut s).expect("read from daemon");
        assert!(n > 0, "daemon closed stdout unexpectedly; transcript: {:#?}", self.transcript);
        let line = s.trim_end().to_owned();
        self.transcript.push(line.clone());
        line
    }

    /// Reads lines (collecting events into the transcript) until a final
    /// response line has arrived for every id in `ids`, in any order.
    fn finals_for(&mut self, ids: &[u64]) -> HashMap<u64, String> {
        let mut finals = HashMap::new();
        for _ in 0..10_000 {
            if ids.iter().all(|id| finals.contains_key(id)) {
                return finals;
            }
            let line = self.read_line();
            if line.contains("\"event\"") {
                continue;
            }
            for id in ids {
                if line.starts_with(&format!("{{\"id\": {id}, ")) {
                    finals.insert(*id, line.clone());
                }
            }
        }
        panic!("no final lines for {ids:?} after 10000 lines; transcript: {:#?}", self.transcript)
    }

    /// Closes stdin (EOF) and waits for the daemon to drain and exit.
    fn eof_and_wait(mut self) -> std::process::ExitStatus {
        drop(self.stdin.take());
        // Drain stdout so the daemon never blocks on a full pipe.
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.reader, &mut rest);
        self.child.wait().expect("daemon exits")
    }
}

fn run_request(id: u64, sinks: usize, seed: u64, extra: &str) -> String {
    format!(
        "{{\"op\": \"run\", \"id\": {id}, \"design\": {{\"generate\": {{\"sinks\": {sinks}, \"seed\": {seed}}}}}{extra}}}"
    )
}

/// Replaces every measured `"runtime_s"` value with `X`, leaving all
/// deterministic fields intact for byte comparison.
fn normalize_runtime(s: &str) -> String {
    const KEY: &str = "\"runtime_s\": ";
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find(KEY) {
        let start = i + KEY.len();
        out.push_str(&rest[..start]);
        out.push('X');
        let tail = &rest[start..];
        let end = tail
            .find([',', '}'])
            .expect("runtime_s value is followed by , or }");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The acceptance pin for the warm cache: N identical `run` requests parse
/// and synthesize once; every later request is a cache hit, visible both
/// in the response envelope and in `stats`.
#[test]
fn identical_requests_share_one_parse_and_cts() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    for id in 1..=3 {
        d.send(&run_request(id, 100, 7, ""));
    }
    let finals = d.finals_for(&[1, 2, 3]);
    assert!(finals[&1].contains("\"ok\": true") && finals[&1].contains("\"cache\": \"miss\""));
    for id in [2, 3] {
        assert!(
            finals[&id].contains("\"ok\": true") && finals[&id].contains("\"cache\": \"hit\""),
            "request {id} should hit the warm cache: {}",
            finals[&id]
        );
    }

    // All three responses arrived, so the workers are idle: stats are
    // settled and must show exactly one parse+CTS for three optimizations.
    d.send("{\"op\": \"stats\", \"id\": 9}");
    let stats = &d.finals_for(&[9])[&9];
    assert!(stats.contains("\"hits\": 2, \"misses\": 1"), "cache counters: {stats}");
    assert!(stats.contains("\"parse\": {\"count\": 1,"), "parse ran once: {stats}");
    assert!(stats.contains("\"cts\": {\"count\": 1,"), "cts ran once: {stats}");
    assert!(stats.contains("\"optimize\": {\"count\": 3,"), "optimize ran thrice: {stats}");
    assert!(stats.contains("\"received\": 3, \"completed\": 3"), "request counters: {stats}");

    // The daemon also streamed progress: intake acks and phase events.
    assert!(d.transcript.iter().any(|l| l.contains("\"event\": \"accepted\"")));
    assert!(d.transcript.iter().any(|l| l.contains("\"event\": \"phase_done\"")
        && l.contains("\"phase\": \"optimize\"")));

    let status = d.eof_and_wait();
    assert!(status.success(), "EOF must be a clean exit, got {status:?}");
}

/// Two different designs in flight at once on two workers; both succeed.
#[test]
fn concurrent_requests_complete_independently() {
    let mut d = Daemon::spawn(&["--jobs", "2"]);
    d.send(&run_request(1, 100, 1, ""));
    d.send(&run_request(2, 120, 2, ""));
    let finals = d.finals_for(&[1, 2]);
    assert!(finals[&1].contains("\"ok\": true") && finals[&1].contains("cli-s100"));
    assert!(finals[&2].contains("\"ok\": true") && finals[&2].contains("cli-s120"));
    assert!(d.eof_and_wait().success());
}

/// The acceptance pin for per-request isolation: a fault-injected request
/// that panics mid-execution yields a typed `panicked` error response
/// while its neighbor succeeds and the daemon keeps serving.
#[test]
fn poisoned_request_fails_alone_and_daemon_survives() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send(&run_request(1, 100, 7, ", \"fault\": \"panic\""));
    d.send(&run_request(2, 100, 7, ""));
    let finals = d.finals_for(&[1, 2]);
    assert!(
        finals[&1].contains("\"error\": {\"code\": \"panicked\""),
        "poisoned request must fail typed: {}",
        finals[&1]
    );
    assert!(
        finals[&2].contains("\"ok\": true"),
        "neighbor of a poisoned request must succeed: {}",
        finals[&2]
    );
    // Still alive: a control request round-trips after the panic.
    d.send("{\"op\": \"stats\", \"id\": 9}");
    assert!(d.finals_for(&[9])[&9].contains("\"panics\": 1"));
    assert!(d.eof_and_wait().success());
}

/// A generated design above the sink-count ceiling is a typed error raised
/// before anything is allocated, not an allocation abort that would end
/// every client's session; the same daemon answers the next request.
#[test]
fn oversized_generate_request_fails_typed_and_daemon_keeps_serving() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send(&run_request(1, 100_000_000_000, 7, ""));
    d.send(&run_request(2, 100, 7, ""));
    let finals = d.finals_for(&[1, 2]);
    assert!(
        finals[&1].contains("\"error\": {\"code\": \"invalid_input\"")
            && finals[&1].contains("at most 1000000 sinks"),
        "oversized request must fail typed: {}",
        finals[&1]
    );
    assert!(finals[&2].contains("\"ok\": true"), "{}", finals[&2]);
    assert!(d.eof_and_wait().success());
}

#[test]
fn oversized_monte_carlo_request_fails_typed_and_daemon_keeps_serving() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send(&run_request(1, 40, 7, ", \"mc\": 9007199254740992"));
    d.send(
        "{\"op\": \"pareto\", \"id\": 2, \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 7}}, \"mc\": 9007199254740992}",
    );
    d.send(&run_request(3, 40, 7, ", \"mc\": 20"));
    let finals = d.finals_for(&[1, 2, 3]);
    for id in [1, 2] {
        assert!(
            finals[&id].contains("\"error\": {\"code\": \"usage\"")
                && finals[&id].contains("must be at most 1000000 samples"),
            "oversized request must fail typed: {}",
            finals[&id]
        );
    }
    assert!(
        finals[&3].contains("\"ok\": true") && finals[&3].contains("\"variation\""),
        "{}",
        finals[&3]
    );
    assert!(d.eof_and_wait().success());
}

/// A request whose iteration budget expires mid-optimization still returns
/// a best-so-far result (ok, with the exhaustion receipt in supervision),
/// not an error.
#[test]
fn budget_expired_request_returns_best_so_far() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send(&run_request(1, 200, 3, ", \"max_iters\": 1"));
    let finals = d.finals_for(&[1]);
    let line = &finals[&1];
    assert!(line.contains("\"ok\": true"), "budget expiry is not an error: {line}");
    assert!(
        line.contains("\"budget_exhausted\": true") && line.contains("\"exhausted\": true"),
        "supervision must carry the exhaustion receipt: {line}"
    );
    assert!(d.eof_and_wait().success());
}

/// Malformed lines get typed error responses; well-formed neighbors on the
/// same connection still execute, and EOF still exits 0.
#[test]
fn malformed_lines_answer_typed_errors_without_killing_the_daemon() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send("this is not json");
    d.send("{\"op\": \"frobnicate\", \"id\": 8}");
    d.send("{\"op\": \"run\", \"id\": 9}"); // run without a design
    d.send(&run_request(1, 100, 7, ""));

    let garbage = d.read_line();
    assert!(
        garbage.starts_with("{\"id\": null, \"error\": {\"code\": \"usage\""),
        "unparseable line: {garbage}"
    );
    let finals = d.finals_for(&[8, 9, 1]);
    assert!(finals[&8].contains("\"error\": {\"code\": \"usage\""), "{}", finals[&8]);
    assert!(finals[&9].contains("\"error\": {\"code\": \"usage\""), "{}", finals[&9]);
    assert!(finals[&1].contains("\"ok\": true"), "{}", finals[&1]);
    assert!(d.eof_and_wait().success());
}

/// A field the daemon does not read is a usage error naming the field,
/// not a silent fallback to its default, and a non-boolean flag is not
/// read as `false`; the daemon keeps serving after both.
#[test]
fn unread_or_ill_typed_fields_fail_by_name_and_daemon_keeps_serving() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send(&run_request(30, 40, 1, ", \"slew_margn\": 1.3"));
    d.send(
        "{\"op\": \"pareto\", \"id\": 31, \
         \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 1}}, \"corners\": 1}",
    );
    d.send(&run_request(32, 40, 1, ""));
    let finals = d.finals_for(&[30, 31, 32]);
    assert!(
        finals[&30].contains("\"code\": \"usage\"")
            && finals[&30].contains("unknown field \\\"slew_margn\\\""),
        "{}",
        finals[&30]
    );
    assert!(
        finals[&31].contains("\"code\": \"usage\"")
            && finals[&31].contains("\\\"corners\\\" must be a boolean"),
        "{}",
        finals[&31]
    );
    assert!(finals[&32].contains("\"ok\": true"), "{}", finals[&32]);
    assert!(d.eof_and_wait().success());
}

/// Hostile requests against the newer ops — `pareto`, `import`,
/// `export_ndr` — answer typed errors (wrong-typed fields and missing
/// design are `usage`; unreadable or oversized payloads are
/// `invalid_input`) and the worker pool survives to serve a healthy
/// request on the same connection.
#[test]
fn hostile_pareto_import_export_requests_answer_typed_errors() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    // Wrong-typed field on pareto: scalars where arrays belong.
    d.send(
        "{\"op\": \"pareto\", \"id\": 20, \
         \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 1}}, \
         \"slew_margins\": \"wide\"}",
    );
    // Import with no design at all, then with bytes that are not DEF.
    d.send("{\"op\": \"import\", \"id\": 21}");
    d.send("{\"op\": \"import\", \"id\": 22, \"design\": {\"inline\": \"not a def file\"}}");
    // Oversized inline payload: one byte past the importer's input limit.
    let oversized = "x".repeat(8 * 1024 * 1024 + 1);
    d.send(&format!(
        "{{\"op\": \"import\", \"id\": 23, \"design\": {{\"inline\": \"{oversized}\"}}}}"
    ));
    // export_ndr with an unknown method, and with a from_tcl that does
    // not exist on disk.
    d.send(
        "{\"op\": \"export_ndr\", \"id\": 24, \
         \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 1}}, \
         \"method\": \"bogus\"}",
    );
    d.send(
        "{\"op\": \"export_ndr\", \"id\": 25, \
         \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 1}}, \
         \"from_tcl\": \"/nonexistent/no-such.tcl\"}",
    );
    // A healthy neighbor: the daemon must still execute real work.
    d.send(
        "{\"op\": \"export_ndr\", \"id\": 1, \
         \"design\": {\"generate\": {\"sinks\": 60, \"seed\": 3}}, \
         \"method\": \"greedy\"}",
    );

    let finals = d.finals_for(&[20, 21, 22, 23, 24, 25, 1]);
    for id in [20u64, 21, 24] {
        assert!(
            finals[&id].contains("\"error\": {\"code\": \"usage\""),
            "id {id}: {}",
            finals[&id]
        );
    }
    for id in [22u64, 23, 25] {
        assert!(
            finals[&id].contains("\"error\": {\"code\": \"invalid_input\""),
            "id {id}: {}",
            finals[&id]
        );
    }
    assert!(
        finals[&23].contains("I08"),
        "oversized payload must carry the I08 limit diagnostic: {}",
        finals[&23]
    );
    assert!(finals[&1].contains("\"ok\": true"), "{}", finals[&1]);
    assert!(finals[&1].contains("\"ndr_tcl\""), "{}", finals[&1]);
    assert!(d.eof_and_wait().success());
}

/// Limits `Constraints` would reject, and track fractions of a tree with
/// no wire, answer typed errors instead of `panicked`, and the daemon
/// keeps serving.
#[test]
fn out_of_range_limits_answer_typed_errors_and_daemon_keeps_serving() {
    // One sink on the root: zero skew and zero wirelength.
    let one = "{\"inline\": \"sndr 1\\ndesign one freq_ghz 1.0\\ndie 0 0 100000 100000\\n\
               root 50000 50000\\nsink 0 a 50000 50000 5.0\\nend\\n\"}";
    let generated = "{\"generate\": {\"sinks\": 40}}";
    let cases = [
        (30, "run", generated, "\"slew_margin\": 0.5", "usage"),
        (31, "export_ndr", generated, "\"skew_budget\": -3", "usage"),
        (32, "run", one, "\"skew_budget\": 0", "usage"),
        (33, "pareto", one, "\"skew_budgets\": [0], \"windows\": []", "usage"),
        (34, "pareto", one, "\"track_fracs\": [0.9]", "invalid_input"),
        // Finite, but the derived slew limit overflows.
        (35, "run", generated, "\"slew_margin\": 1e308", "usage"),
    ];
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    for (id, op, design, extra, _) in cases {
        d.send(&format!("{{\"op\": \"{op}\", \"id\": {id}, \"design\": {design}, {extra}}}"));
    }
    d.send(&run_request(1, 40, 1, ""));
    let finals = d.finals_for(&[30, 31, 32, 33, 34, 35, 1]);
    for (id, _, _, _, code) in cases {
        assert!(
            finals[&id].contains(&format!("\"error\": {{\"code\": \"{code}\"")),
            "id {id}: {}",
            finals[&id]
        );
    }
    assert!(finals[&1].contains("\"ok\": true"), "{}", finals[&1]);
    assert!(d.eof_and_wait().success());
}

/// The drift pin: the daemon's `result` object and the one-shot CLI's
/// `run --json` line are byte-identical (runtime fields normalized) —
/// both are rendered by the same serializer, and this test keeps it that
/// way.
#[test]
fn serve_result_is_byte_identical_to_cli_run_json() {
    let cli = Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
        .args(["run", "--sinks", "120", "--seed", "9", "--json"])
        .output()
        .expect("cli runs");
    assert!(cli.status.success(), "{}", String::from_utf8_lossy(&cli.stderr));
    let cli_json = String::from_utf8(cli.stdout).expect("utf-8").trim_end().to_owned();

    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send(&run_request(1, 120, 9, ""));
    let line = d.finals_for(&[1])[&1].clone();
    assert!(d.eof_and_wait().success());

    let prefix = "{\"id\": 1, \"ok\": true, \"cache\": \"miss\", \"result\": ";
    let serve_json = line
        .strip_prefix(prefix)
        .and_then(|rest| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unexpected envelope shape: {line}"));

    assert_eq!(
        normalize_runtime(serve_json),
        normalize_runtime(&cli_json),
        "daemon result and CLI --json output must not drift"
    );
}

/// The pareto drift pin: the daemon's `pareto` result object and the
/// one-shot CLI's `pareto --json` line are byte-identical with no
/// normalization at all — the pareto rendering carries no runtime or
/// replay fields by design — and the sweep streams one `front_point`
/// event per evaluated point.
#[test]
fn serve_pareto_result_is_byte_identical_to_cli_json() {
    let cli_args = [
        "pareto", "--sinks", "80", "--seed", "11", "--slew-margins", "1.05,1.2",
        "--skew-budgets", "15,60", "--windows", "25", "--mc", "6", "--json",
    ];
    let cli = Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
        .args(cli_args)
        .output()
        .expect("cli runs");
    assert!(cli.status.success(), "{}", String::from_utf8_lossy(&cli.stderr));
    let cli_json = String::from_utf8(cli.stdout).expect("utf-8").trim_end().to_owned();

    let mut d = Daemon::spawn(&["--jobs", "2"]);
    d.send(
        "{\"op\": \"pareto\", \"id\": 1, \
         \"design\": {\"generate\": {\"sinks\": 80, \"seed\": 11}}, \
         \"slew_margins\": [1.05, 1.2], \"skew_budgets\": [15, 60], \
         \"windows\": [25], \"mc\": 6}",
    );
    let line = d.finals_for(&[1])[&1].clone();

    let prefix = "{\"id\": 1, \"ok\": true, \"cache\": \"miss\", \"result\": ";
    let serve_json = line
        .strip_prefix(prefix)
        .and_then(|rest| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unexpected envelope shape: {line}"));
    assert_eq!(serve_json, cli_json, "daemon pareto result and CLI --json must not drift");

    // Six sweep points (2 margins × (2 budgets + 1 window)) → six events.
    let front_events = d
        .transcript
        .iter()
        .filter(|l| l.contains("\"event\": \"front_point\""))
        .count();
    assert_eq!(front_events, 6, "one front_point event per point: {:#?}", d.transcript);
    assert!(d.eof_and_wait().success());
}

/// `shutdown` stops intake and exits 0 even with stdin still open.
#[test]
fn shutdown_request_exits_cleanly() {
    let mut d = Daemon::spawn(&["--jobs", "1"]);
    d.send("{\"op\": \"shutdown\", \"id\": 1}");
    let ack = d.finals_for(&[1])[&1].clone();
    assert!(ack.contains("\"shutdown\": true"), "{ack}");
    assert!(d.eof_and_wait().success());
}

/// The durable store behind the daemon: results persist across daemon
/// restarts (unlike the in-memory warm cache), replay byte-identically,
/// and a corrupted entry is quarantined — visible as a `store_quarantined`
/// event and in the `stats` store section — then recomputed and healed.
#[test]
fn store_backed_daemon_replays_across_restarts_and_quarantines_corruption() {
    let dir = std::env::temp_dir()
        .join(format!("smart-ndr-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_arg = dir.to_str().expect("utf-8 path").to_owned();

    // First daemon: cold compute, persisted on the way out.
    let mut d = Daemon::spawn(&["--jobs", "1", "--store", &store_arg]);
    d.send(&run_request(1, 100, 7, ""));
    let cold = d.finals_for(&[1])[&1].clone();
    assert!(cold.contains("\"ok\": true") && cold.contains("\"cache\": \"miss\""), "{cold}");
    assert!(d.eof_and_wait().success());

    // Second daemon, same directory: a fresh process replays from disk.
    let mut d = Daemon::spawn(&["--jobs", "1", "--store", &store_arg]);
    d.send(&run_request(1, 100, 7, ""));
    let warm = d.finals_for(&[1])[&1].clone();
    assert!(
        warm.contains("\"cache\": \"store_hit\""),
        "a restarted daemon must replay from the store: {warm}"
    );
    assert_eq!(
        warm.replace("\"cache\": \"store_hit\"", "\"cache\": \"miss\""),
        cold,
        "the replayed result must be the cold run's bytes"
    );
    d.send("{\"op\": \"stats\", \"id\": 9}");
    let stats = d.finals_for(&[9])[&9].clone();
    assert!(
        stats.contains("\"store\": {\"enabled\": true, \"hits\": 1, \"misses\": 0"),
        "stats must carry the store section: {stats}"
    );
    assert!(
        stats.contains("\"phases\": {}"),
        "a store hit must skip parse, CTS and optimize entirely: {stats}"
    );
    assert!(d.eof_and_wait().success());

    // Corrupt the single persisted entry on disk.
    let entries = dir.join("entries").join("run");
    let entry = std::fs::read_dir(&entries)
        .expect("entry dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "entry"))
        .expect("one persisted entry");
    let mut bytes = std::fs::read(&entry).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).expect("corrupt entry");

    // Third daemon: the corruption is detected, quarantined, recomputed.
    let mut d = Daemon::spawn(&["--jobs", "1", "--store", &store_arg]);
    d.send(&run_request(1, 100, 7, ""));
    let recovered = d.finals_for(&[1])[&1].clone();
    assert!(
        recovered.contains("\"ok\": true") && recovered.contains("\"cache\": \"miss\""),
        "a corrupted entry must recompute, not replay: {recovered}"
    );
    assert!(
        recovered.contains("cache_entry_quarantined"),
        "the degradation must ride in the response supervision: {recovered}"
    );
    assert!(
        d.transcript.iter().any(|l| l.contains("\"event\": \"store_quarantined\"")),
        "the quarantine must stream as an event: {:#?}",
        d.transcript
    );
    d.send("{\"op\": \"stats\", \"id\": 9}");
    let stats = d.finals_for(&[9])[&9].clone();
    assert!(
        stats.contains("\"quarantined\": 1"),
        "stats must count the quarantine: {stats}"
    );
    assert!(d.eof_and_wait().success());

    let corpses = std::fs::read_dir(dir.join("corrupt")).expect("corrupt dir").count();
    assert_eq!(corpses, 1, "the corrupted entry must be preserved as evidence");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored run is answered by the reader thread: with the only worker
/// busy on a cold run, a replay sent after it still answers first, with
/// the cold run's bytes.
#[test]
fn stored_run_replays_while_the_only_worker_is_busy() {
    let dir = std::env::temp_dir().join(format!(
        "smart-ndr-serve-reader-replay-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store_arg = dir.to_str().expect("utf-8 path").to_owned();
    let mut d = Daemon::spawn(&["--jobs", "1", "--store", &store_arg]);
    d.send(&run_request(1, 100, 7, ""));
    let cold = d.finals_for(&[1])[&1].clone();
    assert!(cold.contains("\"cache\": \"miss\""), "{cold}");

    d.send(&run_request(2, 1500, 3, ""));
    d.send(&run_request(3, 100, 7, ""));
    let finals = d.finals_for(&[2, 3]);
    assert!(finals[&2].contains("\"ok\": true"), "{}", finals[&2]);
    assert_eq!(
        finals[&3]
            .replace("\"id\": 3", "\"id\": 1")
            .replace("\"cache\": \"store_hit\"", "\"cache\": \"miss\""),
        cold,
        "the replay must be the cold run's bytes"
    );
    let position = |id: u64| {
        let head = format!("{{\"id\": {id}, \"ok\"");
        d.transcript
            .iter()
            .position(|l| l.starts_with(&head))
            .expect("final line")
    };
    assert!(
        position(3) < position(2),
        "the replay must not wait behind the worker's cold run: {:#?}",
        d.transcript
    );
    assert!(d.eof_and_wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `"cache": "off"` per request bypasses the store on an otherwise
/// store-backed daemon — the CLI's `--no-cache` maps to exactly this.
#[test]
fn cache_off_request_bypasses_a_store_backed_daemon() {
    let dir = std::env::temp_dir()
        .join(format!("smart-ndr-serve-nocache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_arg = dir.to_str().expect("utf-8 path").to_owned();
    let mut d = Daemon::spawn(&["--jobs", "1", "--store", &store_arg]);
    d.send(&run_request(1, 100, 7, ", \"cache\": \"off\""));
    let fin = d.finals_for(&[1])[&1].clone();
    assert!(fin.contains("\"ok\": true") && fin.contains("\"cache\": \"off\""), "{fin}");
    assert!(d.eof_and_wait().success());
    let wrote = std::fs::read_dir(dir.join("entries").join("run"))
        .map(|rd| rd.count())
        .unwrap_or(0);
    assert_eq!(wrote, 0, "cache=off must not persist anything");
    let _ = std::fs::remove_dir_all(&dir);
}
