//! Integration tests for the request→plan→execute API and the in-process
//! daemon loop (`serve_io` driven over in-memory pipes).

use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};

use snr_serve::json::Json;
use snr_serve::render::{response_line, run_json};
use snr_serve::{
    execute, plan, CacheMode, CacheStatus, DesignSource, Event, ExecCtx, Request, Response,
    RunRequest, ServeConfig, ServerState, WarmCache,
};

fn gen_request(sinks: usize, seed: u64) -> Request {
    Request::Run(RunRequest::new(DesignSource::Generate { sinks, seed, freq_ghz: 1.0 }))
}

fn run_response(req: &Request, ctx: &ExecCtx<'_>) -> snr_serve::RunResponse {
    let plan = plan(req).expect("plan");
    match execute(&plan, ctx).expect("execute") {
        Response::Run(r) => *r,
        other => panic!("expected a run response, got {other:?}"),
    }
}

#[test]
fn oneshot_run_executes_without_a_cache() {
    let resp = run_response(&gen_request(40, 2), &ExecCtx::oneshot());
    assert_eq!(resp.cache, CacheStatus::Off);
    assert!(resp.result.power().network_uw() > 0.0);
    assert!(
        resp.result.power().network_uw() <= resp.baseline.power().network_uw(),
        "optimized result must not exceed the conservative baseline"
    );
}

#[test]
fn warm_cache_misses_then_hits_and_shares_artifacts() {
    let cache = Mutex::new(WarmCache::new(8));
    let ctx = ExecCtx { cache: Some(&cache), store: None, sink: None, on_token: None };
    let req = gen_request(40, 2);

    let first = run_response(&req, &ctx);
    let second = run_response(&req, &ctx);
    assert_eq!(first.cache, CacheStatus::Miss);
    assert_eq!(second.cache, CacheStatus::Hit);
    assert!(
        Arc::ptr_eq(&first.design, &second.design) && Arc::ptr_eq(&first.tree, &second.tree),
        "a hit must reuse the cached parse+CTS artifacts, not rebuild them"
    );

    let guard = cache.lock().expect("cache lock");
    assert_eq!((guard.hits(), guard.misses(), guard.len()), (1, 1, 1));
}

#[test]
fn cache_off_bypasses_an_attached_cache() {
    let cache = Mutex::new(WarmCache::new(8));
    let ctx = ExecCtx { cache: Some(&cache), store: None, sink: None, on_token: None };
    let mut req = RunRequest::new(DesignSource::Generate { sinks: 40, seed: 2, freq_ghz: 1.0 });
    req.cache = CacheMode::Off;

    let resp = run_response(&Request::Run(req), &ctx);
    assert_eq!(resp.cache, CacheStatus::Off);
    let guard = cache.lock().expect("cache lock");
    assert!(guard.is_empty(), "cache=off must not populate the cache");
    assert_eq!((guard.hits(), guard.misses()), (0, 0));
}

#[test]
fn response_envelope_embeds_run_json_byte_identically() {
    let resp = run_response(&gen_request(40, 2), &ExecCtx::oneshot());
    let body = run_json(&resp);
    let line = response_line(7, &Response::Run(Box::new(resp)));
    assert_eq!(
        line,
        format!("{{\"id\": 7, \"ok\": true, \"cache\": \"off\", \"result\": {body}}}"),
        "the daemon envelope must embed the shared serializer's output verbatim"
    );
    Json::parse(&line).expect("envelope must be valid JSON");
}

#[test]
fn events_bracket_every_phase_in_order() {
    let events = Mutex::new(Vec::new());
    let sink = |e: &Event| {
        let tag = match e {
            Event::PhaseStart { phase } => format!("start:{phase}"),
            Event::PhaseDone { phase, .. } => format!("done:{phase}"),
            Event::SuiteRow(_) => "row".to_owned(),
            Event::StoreQuarantined { scope, .. } => format!("quarantine:{scope}"),
            Event::FrontPoint { index, .. } => format!("front:{index}"),
        };
        events.lock().expect("events lock").push(tag);
    };
    let ctx = ExecCtx { cache: None, store: None, sink: Some(&sink), on_token: None };
    run_response(&gen_request(40, 2), &ctx);
    assert_eq!(
        events.lock().expect("events lock").as_slice(),
        [
            "start:parse",
            "done:parse",
            "start:cts",
            "done:cts",
            "start:optimize",
            "done:optimize"
        ],
    );
}

/// A `Write` the test can read back after `serve_io` consumed it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn lines(&self) -> Vec<String> {
        let buf = self.0.lock().expect("buffer lock");
        String::from_utf8(buf.clone())
            .expect("protocol output must be UTF-8")
            .lines()
            .map(str::to_owned)
            .collect()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn serve(state: &ServerState, config: &ServeConfig, input: &str) -> (Vec<String>, bool) {
    let out = SharedBuf::default();
    let shutdown = snr_serve::server::serve_io(state, config, Cursor::new(input.to_owned()), out.clone())
        .expect("serve_io");
    (out.lines(), shutdown)
}

fn line_for(lines: &[String], pred: impl Fn(&Json) -> bool) -> Option<&String> {
    lines.iter().find(|l| Json::parse(l).is_ok_and(|v| pred(&v)))
}

/// The final (non-event) line for request `id`, parsed.
fn final_line(lines: &[String], id: u64) -> Json {
    let line = line_for(lines, |v| {
        v.get("id").and_then(Json::as_u64) == Some(id) && v.get("event").is_none()
    })
    .unwrap_or_else(|| panic!("no final line for id {id} in {lines:?}"));
    Json::parse(line).expect("valid JSON")
}

#[test]
fn serve_io_runs_jobs_and_persists_the_cache_across_connections() {
    let config = ServeConfig { workers: 1, queue_capacity: 4, cache_capacity: 8, store_dir: None };
    let state = ServerState::new(&config);
    let request = r#"{"op": "run", "id": 1, "design": {"generate": {"sinks": 40, "seed": 2}}}"#;

    let (lines, shutdown) = serve(&state, &config, &format!("{request}\n"));
    assert!(!shutdown, "EOF is not a shutdown request");
    assert!(
        line_for(&lines, |v| v.get("event").and_then(Json::as_str) == Some("accepted")).is_some(),
        "job must be acknowledged on intake: {lines:?}"
    );
    let first = final_line(&lines, 1);
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));

    // Same state, new connection (socket-mode shape): the warm cache
    // survives, so the identical request is a hit.
    let (lines, _) = serve(&state, &config, &format!("{request}\n"));
    let second = final_line(&lines, 1);
    assert_eq!(second.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
}

#[test]
fn serve_io_reports_malformed_lines_and_keeps_serving() {
    let config = ServeConfig { workers: 1, queue_capacity: 4, cache_capacity: 8, store_dir: None };
    let state = ServerState::new(&config);
    let input = concat!(
        "this is not json\n",
        "{\"op\": \"frobnicate\", \"id\": 9}\n",
        "{\"op\": \"run\", \"id\": 2, \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 2}}}\n",
    );
    let (lines, _) = serve(&state, &config, input);

    let garbage = Json::parse(&lines[0]).expect("error line is JSON");
    assert!(matches!(garbage.get("id"), Some(Json::Null)), "unparseable line has no id");
    assert_eq!(
        garbage.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("usage")
    );

    let unknown_op = final_line(&lines, 9);
    assert_eq!(
        unknown_op.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("usage")
    );

    let ok = final_line(&lines, 2);
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn shutdown_acknowledges_and_stops_the_loop() {
    let config = ServeConfig { workers: 1, queue_capacity: 4, cache_capacity: 8, store_dir: None };
    let state = ServerState::new(&config);
    let (lines, shutdown) = serve(
        &state,
        &config,
        "{\"op\": \"shutdown\", \"id\": 5}\n{\"op\": \"stats\"}\n",
    );
    assert!(shutdown);
    let ack = final_line(&lines, 5);
    assert_eq!(
        ack.get("result").and_then(|r| r.get("shutdown")).and_then(Json::as_bool),
        Some(true)
    );
    assert!(
        line_for(&lines, |v| v.get("result").is_some_and(|r| r.get("queue").is_some())).is_none(),
        "lines after shutdown must not be processed: {lines:?}"
    );
}

#[test]
fn stats_reports_cache_queue_and_phase_timings() {
    let config = ServeConfig { workers: 1, queue_capacity: 4, cache_capacity: 8, store_dir: None };
    let state = ServerState::new(&config);
    let request = |id: u64| {
        format!("{{\"op\": \"run\", \"id\": {id}, \"design\": {{\"generate\": {{\"sinks\": 40, \"seed\": 2}}}}}}")
    };
    // First connection does the work; the second only asks for stats, so
    // the counters it sees are settled (serve_io joins its workers).
    serve(&state, &config, &format!("{}\n{}\n", request(1), request(2)));
    let (lines, _) = serve(&state, &config, "{\"op\": \"stats\", \"id\": 3}\n");

    let stats = final_line(&lines, 3);
    let result = stats.get("result").expect("stats result");
    let cache = result.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    let requests = result.get("requests").expect("requests section");
    assert_eq!(requests.get("received").and_then(Json::as_u64), Some(2));
    assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(2));
    let phases = result.get("phases").expect("phases section");
    for phase in ["parse", "cts", "optimize"] {
        let count = phases
            .get(phase)
            .and_then(|p| p.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing phase {phase}: {lines:?}"));
        // parse+cts run once (second request was a cache hit); optimize
        // runs per request.
        let want = if phase == "optimize" { 2 } else { 1 };
        assert_eq!(count, want, "phase {phase}");
    }
}

#[test]
fn cancel_of_an_unknown_id_reports_unknown() {
    let config = ServeConfig { workers: 1, queue_capacity: 4, cache_capacity: 8, store_dir: None };
    let state = ServerState::new(&config);
    let (lines, _) = serve(&state, &config, "{\"op\": \"cancel\", \"id\": 4, \"target\": 99}\n");
    let ack = final_line(&lines, 4);
    assert_eq!(
        ack.get("result").and_then(|r| r.get("state")).and_then(Json::as_str),
        Some("unknown")
    );
}

#[cfg(feature = "fault-inject")]
#[test]
fn poisoned_request_fails_in_isolation_while_neighbors_succeed() {
    let config = ServeConfig { workers: 1, queue_capacity: 4, cache_capacity: 8, store_dir: None };
    let state = ServerState::new(&config);
    let input = concat!(
        "{\"op\": \"run\", \"id\": 1, \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 2}}, ",
        "\"fault\": \"panic\"}\n",
        "{\"op\": \"run\", \"id\": 2, \"design\": {\"generate\": {\"sinks\": 40, \"seed\": 2}}}\n",
    );
    // Silence the default panic hook's backtrace spam for the injected
    // panic; restore it afterwards so other tests report normally.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (lines, _) = serve(&state, &config, input);
    std::panic::set_hook(prev);

    let poisoned = final_line(&lines, 1);
    assert_eq!(
        poisoned.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("panicked"),
        "poisoned request must fail with a typed error: {lines:?}"
    );
    let healthy = final_line(&lines, 2);
    assert_eq!(
        healthy.get("ok").and_then(Json::as_bool),
        Some(true),
        "the daemon must keep serving after a poisoned request: {lines:?}"
    );
}

/// Fresh per-test store directory under the system temp dir.
fn store_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("snr-serve-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn entry_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir.join("entries").join("run")) {
        for e in rd.flatten() {
            if e.path().extension().is_some_and(|x| x == "entry") {
                out.push(e.path());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn store_replays_across_restarts_byte_identically() {
    let dir = store_dir("replay");
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 8,
        store_dir: Some(dir.clone()),
    };
    let request = r#"{"op": "run", "id": 1, "design": {"generate": {"sinks": 40, "seed": 2}}}"#;

    // Cold daemon: compute, persist.
    let state = ServerState::new(&config);
    let (cold, _) = serve(&state, &config, &format!("{request}\n"));
    let cold_final = final_line(&cold, 1);
    assert_eq!(cold_final.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(entry_files(&dir).len(), 1, "clean run must persist one entry");

    // "Restarted" daemon: fresh memory cache, same store directory.
    let state = ServerState::new(&config);
    let (warm, _) = serve(&state, &config, &format!("{request}\n"));
    let warm_final = final_line(&warm, 1);
    assert_eq!(
        warm_final.get("cache").and_then(Json::as_str),
        Some("store_hit"),
        "restart must replay from disk: {warm:?}"
    );

    // The replayed result and supervision lines are the cold run's bytes;
    // only the envelope's cache tag differs.
    let cold_line = cold.iter().find(|l| l.contains("\"ok\": true")).expect("cold final");
    let warm_line = warm.iter().find(|l| l.contains("\"ok\": true")).expect("warm final");
    assert_eq!(
        warm_line.replace("\"cache\": \"store_hit\"", "\"cache\": \"miss\""),
        *cold_line,
        "replayed result must be byte-identical to the cold run"
    );
    let cold_sup = cold.iter().find(|l| l.contains("\"event\": \"supervision\"")).expect("cold");
    let warm_sup = warm.iter().find(|l| l.contains("\"event\": \"supervision\"")).expect("warm");
    assert_eq!(warm_sup, cold_sup, "replayed supervision must be byte-identical");

    // Stats surface the store section.
    let (lines, _) = serve(&state, &config, "{\"op\": \"stats\", \"id\": 9}\n");
    let store = final_line(&lines, 9);
    let store = store.get("result").and_then(|r| r.get("store")).expect("store section");
    assert_eq!(store.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(store.get("hits").and_then(Json::as_u64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_entry_quarantines_and_recomputes() {
    let dir = store_dir("quarantine");
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 8,
        store_dir: Some(dir.clone()),
    };
    let request = r#"{"op": "run", "id": 1, "design": {"generate": {"sinks": 40, "seed": 2}}}"#;

    let state = ServerState::new(&config);
    serve(&state, &config, &format!("{request}\n"));
    let entries = entry_files(&dir);
    assert_eq!(entries.len(), 1);

    // Flip one bit in the persisted payload: a torn/corrupted entry.
    let mut bytes = std::fs::read(&entries[0]).expect("read entry");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&entries[0], &bytes).expect("rewrite entry");

    let state = ServerState::new(&config);
    let (lines, _) = serve(&state, &config, &format!("{request}\n"));
    let quarantine = line_for(&lines, |v| {
        v.get("event").and_then(Json::as_str) == Some("store_quarantined")
    });
    assert!(quarantine.is_some(), "corruption must surface as an event: {lines:?}");
    let fin = final_line(&lines, 1);
    assert_eq!(fin.get("ok").and_then(Json::as_bool), Some(true), "{lines:?}");
    assert_eq!(
        fin.get("cache").and_then(Json::as_str),
        Some("miss"),
        "a quarantined entry is a miss, never a stale hit"
    );

    // The bad entry moved to corrupt/ and the slot was re-written clean.
    let corpses = std::fs::read_dir(dir.join("corrupt")).expect("corrupt dir").count();
    assert_eq!(corpses, 1, "quarantine must preserve the evidence");
    assert_eq!(entry_files(&dir).len(), 1, "the clean recompute must heal the slot");

    let (lines, _) = serve(&state, &config, "{\"op\": \"stats\", \"id\": 9}\n");
    let stats = final_line(&lines, 9);
    let store = stats.get("result").and_then(|r| r.get("store")).expect("store section");
    assert_eq!(store.get("quarantined").and_then(Json::as_u64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_off_requests_bypass_the_store_entirely() {
    let dir = store_dir("bypass");
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 8,
        store_dir: Some(dir.clone()),
    };
    let request = r#"{"op": "run", "id": 1, "cache": "off", "design": {"generate": {"sinks": 40, "seed": 2}}}"#;
    let state = ServerState::new(&config);
    let (lines, _) = serve(&state, &config, &format!("{request}\n"));
    let fin = final_line(&lines, 1);
    assert_eq!(fin.get("cache").and_then(Json::as_str), Some("off"));
    assert!(entry_files(&dir).is_empty(), "cache=off must not write to the store");
    let _ = std::fs::remove_dir_all(&dir);
}
