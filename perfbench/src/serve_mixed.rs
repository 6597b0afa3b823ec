//! `serve-mixed`: the resident daemon (`serve_io`, 2 workers, warm cache,
//! result store) under two closed-loop clients multiplexed by request id.
//! Inline designs of 400–1200 sinks in a seeded mix: ~63 % exact repeats
//! (store replays), ~23 % new constraints on a cached design (warm-cache
//! hit, optimize, store write), 10 % new designs that both clients walk
//! in the same order so cold requests for one key race, and 4 % `import`
//! / `export_ndr` on DEF-lite text. p50 lands on replays and p90 on
//! optimize-plus-write, so protocol, plan, store, render and cache show;
//! it is the only workload with repeated inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Barrier;
use std::time::Instant;

use snr_core::{Budget, Constraints, NdrOptimizer, OptContext, Parallelism, SmartNdr};
use snr_cts::{export_ndr_tcl, import_ndr_tcl, synthesize, ClockTree, CtsOptions};
use snr_netlist::validate::Bounds;
use snr_netlist::{import_design_with, Design, ImportLimits, ImportOptions};
use snr_power::PowerModel;
use snr_serve::json::{json_escape, Json};
use snr_serve::{plan, Envelope, Op as EnvOp, ReplayedRun, Response, ResultStore, StoreKind};
use snr_tech::Technology;

use crate::daemon::{self, Client, Daemon, DaemonStats, Line, CONTROL_IDS};
use crate::harness::{measure_setup, Args};
use crate::refkernel::RefKernel;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{host, inputs, stats};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Requests per client per second of `--seconds` at reference speed.
const RATE: f64 = 80.0;
/// Designs primed into the cache and store before timing.
const BASE: usize = 6;
/// Sink counts of the base designs, spanning the size range.
const BASE_SIZES: [usize; BASE] = [400, 560, 720, 880, 1040, 1200];
/// Size classes cold work is spread over, and their width in sinks.
const CLASSES: usize = 5;
const BAND: usize = 800 / CLASSES;
/// Other designs draw their sink count within their class in steps of
/// this many sinks, so latency quantiles do not sit between a few
/// discrete sizes.
const SIZE_STEP: usize = 8;
/// DEF-lite designs for `import` / `export_ndr`, and their sinks.
const DEFS: usize = 3;
const DEF_SINKS: usize = 400;
/// Slew margins new constraints draw from.
const SLEWS: [f64; 7] = [1.05, 1.08, 1.10, 1.12, 1.15, 1.20, 1.25];
/// Skew budgets (ps) per client: disjoint, so only new designs race.
const SKEWS: [[f64; 5]; CLIENTS] = [
    [10.0, 20.0, 40.0, 60.0, 80.0],
    [15.0, 25.0, 50.0, 70.0, 90.0],
];
/// The default constraints: slew margin, skew budget (ps).
const DEFAULT: (f64, f64) = (1.10, 30.0);
/// Input stream of the seed.
const STREAM: u64 = 3;
/// Seed of the base designs.
const BASE_SEED: u64 = 0x5eed;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `run` on pool design `design` under default constraints (`None`)
    /// or under `(client, slew index, skew index)`.
    Run {
        /// Index into the design pool.
        design: usize,
        /// Non-default constraints.
        constraint: Option<(usize, usize, usize)>,
    },
    /// `import` of DEF design `def`.
    Import {
        /// Index into the DEF designs.
        def: usize,
    },
    /// `export_ndr` of DEF design `def`.
    Export {
        /// Index into the DEF designs.
        def: usize,
    },
}

impl Op {
    fn constraints(self) -> (f64, f64) {
        match self {
            Op::Run {
                constraint: Some((c, s, k)),
                ..
            } => (SLEWS[s], SKEWS[c][k]),
            _ => DEFAULT,
        }
    }
}

/// The seeded request mix: design sizes by pool index and each client's
/// sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Sink count of each pool design (base designs first).
    pub sizes: Vec<usize>,
    /// Each client's requests, in order.
    pub clients: Vec<Vec<Op>>,
}

/// Whether position `j` of every client's sequence is a new design. All
/// clients walk the same new designs in the same order, so cold requests
/// for one key race whenever the clients run in step.
fn shared_position(j: usize) -> bool {
    j % 10 == 5
}

/// Size class of a sink count: `CLASSES` bands of `BAND` sinks from 400,
/// the last one closed at 1200.
fn class_of(sinks: usize) -> usize {
    (sinks.saturating_sub(400) / BAND).min(CLASSES - 1)
}

/// Builds the mix for `seed` with `per_client` requests per client.
///
/// The seed picks placements, constraints, which keys repeat and the
/// order of everything; the proportions are fixed. Positions decide the
/// kind of each request, and cold work is spread evenly over the size
/// classes (new designs and new-constraint targets cycle through them),
/// so the cost profile of a run does not depend on the seed.
pub fn mix(seed: u64, per_client: usize) -> Mix {
    let new_designs = per_client / 10 + 1;
    let mut rng = inputs::Rng::new(seed, STREAM);
    let sizes: Vec<usize> = (0..BASE + new_designs)
        .map(|i| match i.checked_sub(BASE) {
            None => BASE_SIZES[i],
            Some(j) => 400 + BAND * (j % CLASSES) + SIZE_STEP * rng.below(BAND / SIZE_STEP),
        })
        .collect();
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = inputs::Rng::new(seed, STREAM + 1 + c as u64);
            let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); CLASSES];
            for design in 0..BASE {
                by_class[class_of(sizes[design])].push(design);
            }
            let mut known: Vec<Op> = (0..BASE)
                .map(|design| Op::Run {
                    design,
                    constraint: None,
                })
                .collect();
            let mut used = BTreeSet::new();
            let (mut other, mut fresh) = (0usize, 0usize);
            (0..per_client)
                .map(|j| {
                    let op = if shared_position(j) {
                        let design = BASE + j / 10;
                        by_class[class_of(sizes[design])].push(design);
                        Op::Run {
                            design,
                            constraint: None,
                        }
                    } else if j % 25 == 12 {
                        let k = j / 25;
                        let def = (k / 2) % DEFS;
                        if k % 2 == 0 {
                            Op::Import { def }
                        } else {
                            Op::Export { def }
                        }
                    } else {
                        // 3 of every 11 remaining positions ask for new
                        // constraints; the rest repeat a known key.
                        other += 1;
                        let mut pick = None;
                        if (other * 3) % 11 < 3 {
                            let class = &by_class[fresh % CLASSES];
                            fresh += 1;
                            for _ in 0..64 {
                                let design = class[rng.below(class.len())];
                                let key =
                                    (design, rng.below(SLEWS.len()), rng.below(SKEWS[c].len()));
                                if used.insert(key) {
                                    let constraint = Some((c, key.1, key.2));
                                    pick = Some(Op::Run { design, constraint });
                                    break;
                                }
                            }
                        }
                        pick.unwrap_or_else(|| known[rng.below(known.len())])
                    };
                    if matches!(op, Op::Run { .. }) && !known.contains(&op) {
                        known.push(op);
                    }
                    op
                })
                .collect()
        })
        .collect();
    Mix { sizes, clients }
}

/// The generated designs behind a mix, with their inline encodings.
struct Pool {
    designs: Vec<Design>,
    sndr: Vec<String>,
    defs: Vec<Design>,
    def_text: Vec<String>,
}

impl Pool {
    fn new(seed: u64, mix: &Mix) -> Pool {
        let designs: Vec<Design> = mix
            .sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                // Base designs come from a fixed seed, so the priming pass
                // costs the same for every workload seed.
                let s = if i < BASE { BASE_SEED } else { seed };
                inputs::design(&format!("sm{i}"), n, inputs::design_seed(s, STREAM, i))
            })
            .collect();
        let sndr = designs
            .iter()
            .map(|d| json_escape(&inputs::sndr_text(d)))
            .collect();
        let defs: Vec<Design> = (0..DEFS)
            .map(|i| {
                let s = inputs::design_seed(seed, STREAM + 10, i);
                inputs::design(&format!("def{i}"), DEF_SINKS, s)
            })
            .collect();
        let def_text = defs
            .iter()
            .map(|d| json_escape(&inputs::def_text(d)))
            .collect();
        Pool {
            designs,
            sndr,
            defs,
            def_text,
        }
    }

    fn line(&self, id: u64, op: Op) -> String {
        match op {
            Op::Run { design, .. } => {
                let (slew, skew) = op.constraints();
                format!(
                    "{{\"op\": \"run\", \"id\": {id}, \"jobs\": 1, \"slew_margin\": {slew}, \
                     \"skew_budget\": {skew}, \"design\": {{\"inline\": \"{}\"}}}}",
                    self.sndr[design]
                )
            }
            Op::Import { def } => format!(
                "{{\"op\": \"import\", \"id\": {id}, \"design\": {{\"inline\": \"{}\"}}}}",
                self.def_text[def]
            ),
            Op::Export { def } => format!(
                "{{\"op\": \"export_ndr\", \"id\": {id}, \"design\": {{\"inline\": \"{}\"}}}}",
                self.def_text[def]
            ),
        }
    }
}

/// One request as a client saw it.
struct Call {
    op: Op,
    id: u64,
    sent: Instant,
    lines: Vec<Line>,
    error: Option<String>,
}

impl Call {
    fn final_line(&self) -> Option<&str> {
        self.lines.last().map(|l| l.text.as_str())
    }
}

/// A client's pass: its calls, raw latencies and kernel samples.
#[derive(Default)]
struct ClientLog {
    calls: Vec<Call>,
    raw_ms: Vec<f64>,
    kernel_ms: Vec<f64>,
    wait_ms: f64,
}

/// A started, primed daemon.
struct Live {
    clients: Vec<Client>,
    priming: Vec<Call>,
    daemon: Daemon,
}

/// This run's scratch directory: every store it opens lives here, and it
/// is removed only when the run ends, so no deletion runs beside timing.
fn run_dir(args: &Args) -> std::path::PathBuf {
    args.work_dir
        .join(format!("serve-mixed-{}", std::process::id()))
}

fn start(args: &Args, pool: &Pool, tag: &str) -> Result<Live, String> {
    let dir = run_dir(args).join(tag);
    let cache = pool.designs.len() + DEFS + 8;
    let (daemon, clients) =
        Daemon::start(WORKERS, cache, dir, CLIENTS).map_err(|e| format!("daemon start: {e}"))?;
    let mut priming = Vec::new();
    for design in 0..BASE {
        let op = Op::Run {
            design,
            constraint: None,
        };
        let id = CONTROL_IDS + design as u64;
        let line = pool.line(id, op);
        let (sent, lines) = daemon.control().call(&line)?;
        priming.push(Call {
            op,
            id,
            sent,
            lines,
            error: None,
        });
    }
    Ok(Live {
        clients,
        priming,
        daemon,
    })
}

/// Both clients run their first `count` requests, closed loop, with
/// kernel samples between requests.
fn session(pool: &Pool, mix: &Mix, clients: Vec<Client>, count: usize) -> Vec<ClientLog> {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut kernel = RefKernel::new();
                    let mut log = ClientLog::default();
                    let wait_before = host::thread_wait_ms();
                    barrier.wait();
                    log.kernel_ms.push(kernel.sample_ms());
                    for (k, &op) in mix.clients[c].iter().take(count).enumerate() {
                        let id = (k * CLIENTS + c) as u64;
                        let line = pool.line(id, op);
                        let (sent, lines, error) = match client.call(&line) {
                            Ok((sent, lines)) => (sent, lines, None),
                            Err(e) => (Instant::now(), Vec::new(), Some(e)),
                        };
                        let end = lines.last().map_or_else(Instant::now, |l| l.at);
                        log.raw_ms
                            .push(end.saturating_duration_since(sent).as_secs_f64() * 1e3);
                        log.calls.push(Call {
                            op,
                            id,
                            sent,
                            lines,
                            error,
                        });
                        log.kernel_ms.push(kernel.sample_ms());
                    }
                    log.wait_ms = host::thread_wait_ms()
                        .zip(wait_before)
                        .map_or(0.0, |(a, b)| a - b);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// The `saving.network_frac` of a run's final line.
fn saving_of(result: &str) -> Option<f64> {
    Json::parse(result)
        .ok()?
        .get("saving")?
        .get("network_frac")?
        .as_f64()
}

/// The rung a run records when its store entry failed verification and
/// was recomputed. It is recorded after the write-back, so the stored
/// entry never carries it.
const QUARANTINE_RUNG: &str = "{\"rung\": \"cache_entry_quarantined\", \"detail\": \"";

/// A rendered run without its quarantine rung, and whether it had one.
fn strip_quarantine(result: &str) -> (String, bool) {
    let Some(at) = result.find(QUARANTINE_RUNG) else {
        return (result.to_owned(), false);
    };
    let tail = &result[at + QUARANTINE_RUNG.len()..];
    let Some(close) = tail.find("\"}") else {
        return (result.to_owned(), false);
    };
    let mut head = &result[..at];
    let mut rest = &tail[close + 2..];
    if let Some(h) = head.strip_suffix(", ") {
        head = h;
    } else if let Some(r) = rest.strip_prefix(", ") {
        rest = r;
    }
    (format!("{head}{rest}"), true)
}

/// Degradation-ladder rungs a rendered run took; runs with any are never
/// written to the store.
fn degradations_of(result: &str) -> usize {
    let v = Json::parse(result).ok();
    match v
        .as_ref()
        .and_then(|v| v.get("supervision")?.get("degradations"))
    {
        Some(Json::Arr(items)) => items.len(),
        _ => 0,
    }
}

/// Blanks the wall-clock `runtime_s` values of a rendered run, leaving
/// what must be identical for one key.
fn deterministic_part(result: &str) -> String {
    let mut out = String::with_capacity(result.len());
    let mut rest = result;
    while let Some(at) = rest.find("\"runtime_s\": ") {
        let (head, tail) = rest.split_at(at + "\"runtime_s\": ".len());
        out.push_str(head);
        let skip = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        rest = &tail[skip..];
    }
    out.push_str(rest);
    out
}

/// Trees of the DEF designs, for checking exports.
fn def_tree(pool: &Pool, def: usize, tech: &Technology) -> Option<ClockTree> {
    synthesize(&pool.defs[def], tech, &CtsOptions::default()).ok()
}

/// What the checks counted over a daemon's lifetime.
#[derive(Debug, Default)]
struct Tally {
    failed: u64,
    jobs: u64,
    errors: u64,
    exports: u64,
    /// Run responses by cache disposition.
    run_hit: u64,
    run_miss: u64,
    run_store: u64,
    /// Cold runs recomputed because their entry failed verification.
    quarantine_recomputes: u64,
    /// Cold runs eligible for write-back (no degradation of their own).
    eligible: u64,
    /// Cold runs beyond the first per result key: each may have saved
    /// concurrently with another run of its key.
    raced: u64,
    /// Result keys computed cold more than once.
    raced_keys: BTreeSet<Op>,
    savings: Vec<f64>,
}

/// Checks every response: each succeeded; every store replay is
/// byte-identical to a cold response for its key; cold responses for one
/// key agree but for wall-clock times; imports are clean and exported
/// Tcl re-imports to the assignment it reports.
fn check_calls(pool: &Pool, priming: &[Call], timed: &[&Call], tally: &mut Tally) {
    let tech = Technology::n45();
    let trees: Vec<Option<ClockTree>> = (0..DEFS).map(|d| def_tree(pool, d, &tech)).collect();
    let mut cold: BTreeMap<Op, Vec<String>> = BTreeMap::new();
    let mut replays: Vec<(Op, String, bool)> = Vec::new();
    let all = priming
        .iter()
        .map(|c| (c, false))
        .chain(timed.iter().map(|c| (*c, true)));
    for (call, is_timed) in all {
        tally.jobs += 1;
        let verdict = (|| -> Result<(), String> {
            if let Some(e) = &call.error {
                return Err(e.clone());
            }
            let last = call.final_line().ok_or("no final line")?;
            if daemon::line_id(last) != Some(call.id) || !last.contains("\"ok\": true") {
                tally.errors += 1;
                return Err(format!("request failed: {last:.200}"));
            }
            let result = daemon::result_text(last).ok_or("final line lacks a result")?;
            match call.op {
                Op::Run { .. } => {
                    match daemon::cache_status(last).as_deref() {
                        Some("hit") => tally.run_hit += 1,
                        Some("miss") => tally.run_miss += 1,
                        Some("store_hit") => {
                            tally.run_store += 1;
                            replays.push((call.op, result.to_owned(), is_timed));
                            return Ok(());
                        }
                        other => return Err(format!("unexpected cache status {other:?}")),
                    }
                    if is_timed {
                        tally
                            .savings
                            .push(saving_of(result).ok_or("run lacks a saving")?);
                    }
                    let (stored_form, quarantined) = strip_quarantine(result);
                    tally.quarantine_recomputes += u64::from(quarantined);
                    if degradations_of(&stored_form) == 0 {
                        tally.eligible += 1;
                    }
                    cold.entry(call.op).or_default().push(stored_form);
                    Ok(())
                }
                Op::Import { def } => {
                    let v = Json::parse(result).map_err(|e| e.to_string())?;
                    let sinks = v.get("sinks").and_then(Json::as_u64);
                    if v.get("status").and_then(Json::as_str) != Some("clean")
                        || sinks != Some(pool.defs[def].sinks().len() as u64)
                    {
                        return Err("import result disagrees with the DEF design".to_owned());
                    }
                    Ok(())
                }
                Op::Export { def } => {
                    tally.exports += 1;
                    let v = Json::parse(result).map_err(|e| e.to_string())?;
                    let tcl = v
                        .get("ndr_tcl")
                        .and_then(Json::as_str)
                        .ok_or("export lacks Tcl")?;
                    let tree = trees[def]
                        .as_ref()
                        .ok_or("DEF design does not synthesize")?;
                    let asg = import_ndr_tcl(tcl, tree, &tech).map_err(|e| e.to_string())?;
                    let default = tech.rules().default_id();
                    let assigned = (0..asg.len())
                        .filter(|i| asg.rule(snr_cts::NodeId(*i)) != default)
                        .count() as u64;
                    if v.get("assigned").and_then(Json::as_u64) != Some(assigned) {
                        return Err("exported Tcl does not re-import to its assignment".to_owned());
                    }
                    Ok(())
                }
            }
        })();
        if let Err(e) = verdict {
            eprintln!("request {} failed its check: {e}", call.id);
            tally.failed += 1;
        }
    }
    for (op, result, is_timed) in replays {
        let matches = cold.get(&op).is_some_and(|texts| texts.contains(&result));
        if !matches {
            eprintln!("store replay of {op:?} differs from every cold response for its key");
            tally.failed += 1;
        }
        if is_timed {
            match saving_of(&result) {
                Some(s) => tally.savings.push(s),
                None => tally.failed += 1,
            }
        }
    }
    for (op, texts) in &cold {
        if texts.len() > 1 {
            tally.raced += texts.len() as u64 - 1;
            tally.raced_keys.insert(*op);
        }
        if texts
            .iter()
            .any(|t| deterministic_part(t) != deterministic_part(&texts[0]))
        {
            eprintln!("cold responses for {op:?} disagree");
            tally.failed += 1;
        }
    }
}

/// The warm-cache build keys: pool design or DEF design of each build.
fn built_keys(calls: &[&Call]) -> Vec<(bool, usize)> {
    let key_of: BTreeMap<u64, (bool, usize)> = calls
        .iter()
        .filter_map(|c| match c.op {
            Op::Run { design, .. } => Some((c.id, (false, design))),
            Op::Export { def } => Some((c.id, (true, def))),
            Op::Import { .. } => None,
        })
        .collect();
    let lines: Vec<Line> = calls.iter().flat_map(|c| c.lines.iter().cloned()).collect();
    daemon::built_keys(&lines, &key_of)
}

/// Checks the final `stats` counters against the responses. Exact but
/// for one documented race: two workers saving one result key stage
/// through the same per-process temp file, so one of the saves can fail
/// (a lost write) or leave a torn entry that a later load quarantines
/// and recomputes. Both stay within the number of raced cold runs, and
/// every quarantine shows in the response that recomputed it.
fn check_stats(s: &DaemonStats, t: &Tally, builds: &[(bool, usize)]) -> Result<(), String> {
    let cold = t.run_hit + t.run_miss;
    let distinct = builds.iter().collect::<BTreeSet<_>>().len() as u64;
    let checks = [
        ("requests.received", s.received, t.jobs),
        ("requests.completed", s.completed, t.jobs - t.errors),
        ("requests.errors", s.errors, t.errors),
        ("requests.panics", s.panics, 0),
        ("store.hits", s.store_hits, t.run_store),
        (
            "store.misses",
            s.store_misses,
            cold - t.quarantine_recomputes,
        ),
        (
            "store.quarantined",
            s.store_quarantined,
            t.quarantine_recomputes,
        ),
        (
            "cache.hits+misses",
            s.cache_hits + s.cache_misses,
            cold + t.exports,
        ),
        ("cache.misses", s.cache_misses, builds.len() as u64),
        ("cache.entries", s.cache_entries, distinct),
    ];
    for (name, daemon_says, responses_say) in checks {
        if daemon_says != responses_say {
            return Err(format!(
                "stats {name} = {daemon_says}, responses imply {responses_say}"
            ));
        }
    }
    if s.store_writes > t.eligible || t.eligible - s.store_writes > t.raced {
        return Err(format!(
            "stats store.writes = {}, responses imply {} less at most {} raced",
            s.store_writes, t.eligible, t.raced
        ));
    }
    if s.store_quarantined > t.raced {
        return Err(format!(
            "{} quarantines but only {} raced writes",
            s.store_quarantined, t.raced
        ));
    }
    Ok(())
}

fn stats_of(daemon: &Daemon) -> Result<DaemonStats, String> {
    let (_, lines) = daemon.control().call(&format!(
        "{{\"op\": \"stats\", \"id\": {}}}",
        CONTROL_IDS + 999
    ))?;
    daemon::parse_stats(&lines.last().ok_or("no stats line")?.text)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_checked(args, &mut report) {
        eprintln!("serve-mixed: {e}");
        report.failed += 1;
        report.attempted = report.attempted.max(1);
    }
    let _ = std::fs::remove_dir_all(run_dir(args));
    let _ = std::fs::remove_dir(&args.work_dir);
    report
}

fn run_checked(args: &Args, report: &mut Report) -> Result<(), String> {
    let requests = args.requests(RATE);
    let mut kernel = RefKernel::new();
    let mut rep = 0;
    let (setup_s, built) = measure_setup(args, &mut kernel, || {
        rep += 1;
        let mix = mix(args.seed, requests);
        let pool = Pool::new(args.seed, &mix);
        let live = start(args, &pool, &format!("setup{rep}"));
        (mix, pool, live)
    });
    report.set("setup_s", setup_s);
    let (mix, pool, live) = built;
    let Live {
        clients,
        priming,
        mut daemon,
    } = live?;

    let wait_before = host::process_wait_ms();
    let logs = session(&pool, &mix, clients, requests);
    let wait = host::process_wait_ms() - wait_before + logs.iter().map(|l| l.wait_ms).sum::<f64>();
    let stats = stats_of(&daemon);
    daemon.stop()?;

    let timed: Vec<&Call> = logs.iter().flat_map(|l| l.calls.iter()).collect();
    let mut tally = Tally::default();
    check_calls(&pool, &priming, &timed, &mut tally);
    let mut all: Vec<&Call> = priming.iter().collect();
    all.extend(&timed);
    if let Err(e) = stats.and_then(|s| check_stats(&s, &tally, &built_keys(&all))) {
        eprintln!("serve-mixed: {e}");
        tally.failed += 1;
    }

    let per_client: Vec<Vec<f64>> = logs
        .iter()
        .map(|l| stats::scale_latencies(&l.raw_ms, &l.kernel_ms, args.nominal_ms))
        .collect();
    let scaled: Vec<f64> = per_client.iter().flatten().copied().collect();
    let raw: Vec<f64> = logs.iter().flat_map(|l| l.raw_ms.iter().copied()).collect();
    let kernel_all: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.kernel_ms.iter().copied())
        .collect();
    let ref_ms = stats::median(&kernel_all);

    report.attempted = scaled.len() as u64;
    report.failed += tally.failed;
    report.set("latency_p50_ms", stats::median(&scaled));
    if let Some(p90) = stats::tail_percentile(&scaled, 0.9) {
        report.set("latency_p90_ms", p90);
    }
    // Each client's completed requests per second of its own latency;
    // the clients run side by side, so their rates add.
    let rates = per_client
        .iter()
        .map(|l| 1e3 * l.len() as f64 / l.iter().sum::<f64>());
    report.set("throughput_rps", rates.sum());
    report.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    report.set("saving_pct", 100.0 * stats::mean(&tally.savings));
    let ok = report.attempted.saturating_sub(report.failed);
    report.set("ok_pct", 100.0 * ok as f64 / report.attempted as f64);
    report.set("host.ref_ms", ref_ms);
    report.set("host.raw_latency_p50_ms", stats::median(&raw));
    if let Some(p90) = stats::tail_percentile(&raw, 0.9) {
        report.set("host.raw_latency_p90_ms", p90);
    }
    report.set("host.wait_ms", wait);

    if args.trace {
        traced(args, &pool, &mix, &per_client, report)?;
    }
    Ok(())
}

/// Layer totals of the traced session and its replays.
#[derive(Default)]
struct Layers {
    optimize: f64,
    parse: f64,
    synthesize: f64,
    iterations: u64,
    degradations: u64,
    nodes: u64,
    envelope: f64,
    plan: f64,
    render: f64,
    renders: u64,
    roundtrip: f64,
    depth: u64,
    load: f64,
    loads: u64,
    save: f64,
    saves: u64,
    import: f64,
    imports: u64,
    export_tcl: f64,
    exports: u64,
}

/// The traced run: a fresh, primed daemon serves the first quarter of
/// each client's sequence while the clients record a span per request
/// with the daemon's phase events inside; then the protocol, plan,
/// store, render, import and export steps are replayed with their public
/// functions and checked against the daemon's bytes.
fn traced(
    args: &Args,
    pool: &Pool,
    mix: &Mix,
    untraced: &[Vec<f64>],
    report: &mut Report,
) -> Result<(), String> {
    let count = args.traced_requests(untraced[0].len());
    let mut tracer = Tracer::new();
    let Live {
        clients,
        priming,
        mut daemon,
    } = start(args, pool, "traced")?;
    let logs = session(pool, mix, clients, count);
    let stats = stats_of(&daemon)?;
    daemon.stop()?;

    let timed: Vec<&Call> = logs.iter().flat_map(|l| l.calls.iter()).collect();
    let mut tally = Tally::default();
    check_calls(pool, &priming, &timed, &mut tally);
    let mut all: Vec<&Call> = priming.iter().collect();
    all.extend(&timed);
    let builds = built_keys(&all);
    check_stats(&stats, &tally, &builds)?;

    let mut acc = Layers::default();
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    let mut min_coverage = f64::INFINITY;
    let tech = Technology::n45();
    let mut trees: BTreeMap<(bool, usize), u64> = BTreeMap::new();
    let store = ResultStore::open(daemon.store_dir()).map_err(|e| e.to_string())?;
    let scratch = ResultStore::open(&run_dir(args).join("saves")).map_err(|e| e.to_string())?;
    for (c, log) in logs.iter().enumerate() {
        for (k, call) in log.calls.iter().enumerate() {
            let factor = args.nominal_ms / stats::local_ref(&log.kernel_ms, k, 2);
            let end = call.lines.last().map_or(call.sent, |l| l.at);
            let span = tracer.record("serve.roundtrip", call.sent, end, None, call.id);
            let roundtrip = tracer.spans()[span].duration_us() / 1e3 * factor;
            acc.roundtrip += roundtrip;
            traced_total += roundtrip;
            untraced_total += untraced[c][k];
            acc.depth += daemon::accepted_depth(&call.lines).unwrap_or(0);
            record_phase_spans(&mut tracer, span, call);
            for (phase, ms) in daemon::phases_done(&call.lines) {
                match phase.as_str() {
                    "optimize" => acc.optimize += ms * factor,
                    "parse" => acc.parse += ms * factor,
                    "cts" => acc.synthesize += ms * factor,
                    _ => {}
                }
            }
            if tracer.spans().iter().any(|s| s.parent == Some(span)) {
                let covered = 1.0 - tracer.self_time_us(span) / tracer.spans()[span].duration_us();
                min_coverage = min_coverage.min(covered);
            }
            replay_call(
                pool,
                &tally.raced_keys,
                &tech,
                call,
                &store,
                &scratch,
                &mut tracer,
                &mut acc,
                factor,
            )?;
        }
    }
    for key in &builds {
        if let std::collections::btree_map::Entry::Vacant(slot) = trees.entry(*key) {
            let design = if key.0 {
                &pool.defs[key.1]
            } else {
                &pool.designs[key.1]
            };
            let tree =
                synthesize(design, &tech, &CtsOptions::default()).map_err(|e| e.to_string())?;
            slot.insert(tree.len() as u64);
        }
        acc.nodes += trees[key];
    }

    let n = timed.len().max(1) as f64;
    let per_op = |total: f64, ops: u64| total / ops.max(1) as f64;
    report.set("core.optimize_ms", acc.optimize / n);
    report.set("core.optimize_iterations", acc.iterations as f64);
    report.set(
        "core.optimize_us_per_iter",
        1e3 * acc.optimize / acc.iterations.max(1) as f64,
    );
    report.set("core.degradations", acc.degradations as f64);
    report.set("netlist.parse_ms", acc.parse / n);
    report.set("netlist.import_ms", per_op(acc.import, acc.imports));
    report.set("cts.synthesize_ms", acc.synthesize / n);
    report.set("cts.nodes", acc.nodes as f64);
    report.set("cts.export_tcl_ms", per_op(acc.export_tcl, acc.exports));
    report.set("serve.envelope_ms", acc.envelope / n);
    report.set("serve.plan_ms", acc.plan / n);
    report.set("serve.render_ms", per_op(acc.render, acc.renders));
    report.set("serve.roundtrip_ms", acc.roundtrip / n);
    report.set("serve.queue_depth", acc.depth as f64 / n);
    report.set("store.load_ms", per_op(acc.load, acc.loads));
    report.set("store.save_ms", per_op(acc.save, acc.saves));
    report.set("store.hits", stats.store_hits as f64);
    report.set("store.misses", stats.store_misses as f64);
    report.set("store.writes", stats.store_writes as f64);
    report.set("store.quarantined", stats.store_quarantined as f64);
    report.set(
        "store.lost_writes",
        tally.eligible.saturating_sub(stats.store_writes) as f64,
    );
    report.set(
        "store.hit_ratio",
        stats::hit_ratio(stats.store_hits, stats.store_misses),
    );
    report.set("cache.hits", stats.cache_hits as f64);
    report.set("cache.misses", stats.cache_misses as f64);
    report.set("cache.entries", stats.cache_entries as f64);
    report.set(
        "cache.duplicate_builds",
        stats::duplicate_builds(&builds) as f64,
    );
    report.set("trace.requests", timed.len() as f64);
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_total - untraced_total) / untraced_total,
    );
    let coverage = if min_coverage.is_finite() {
        min_coverage
    } else {
        0.0
    };
    report.set("trace.coverage_pct", 100.0 * coverage);
    crate::zero_unset(report);
    crate::write_trace(args, &tracer)
}

/// The daemon's phase events of `call` as spans under `parent`, from
/// when their `phase_start` and `phase_done` lines arrived.
fn record_phase_spans(tracer: &mut Tracer, parent: usize, call: &Call) {
    let mut open: Vec<(String, Instant)> = Vec::new();
    for line in &call.lines {
        let Ok(v) = Json::parse(&line.text) else {
            continue;
        };
        let (Some(event), Some(phase)) = (
            v.get("event").and_then(Json::as_str),
            v.get("phase").and_then(Json::as_str),
        ) else {
            continue;
        };
        match event {
            "phase_start" => open.push((phase.to_owned(), line.at)),
            "phase_done" => {
                if let Some(at) = open.iter().rposition(|(p, _)| p == phase) {
                    let (_, start) = open.remove(at);
                    let name = crate::replay::phase_span(phase);
                    tracer.record(name, start, line.at, Some(parent), call.id);
                }
            }
            _ => {}
        }
    }
}

/// Replays one call's protocol, plan, store, render, import and export
/// steps with their public functions, in spans, checking each against
/// the daemon's bytes.
#[allow(clippy::too_many_arguments)]
fn replay_call(
    pool: &Pool,
    raced_keys: &BTreeSet<Op>,
    tech: &Technology,
    call: &Call,
    store: &ResultStore,
    scratch: &ResultStore,
    tracer: &mut Tracer,
    acc: &mut Layers,
    factor: f64,
) -> Result<(), String> {
    let id = call.id;
    let ms = |tracer: &Tracer, span: usize| tracer.spans()[span].duration_us() / 1e3 * factor;
    let replay = tracer.begin("replay", None, id);
    let line = pool.line(id, call.op);
    let (envelope, s) = tracer.time("serve.envelope", Some(replay), id, || {
        let v = Json::parse(&line).map_err(|e| e.to_string())?;
        Envelope::from_json(&v).map_err(|e| e.to_string())
    });
    acc.envelope += ms(tracer, s);
    let EnvOp::Job(req) = envelope?.op else {
        return Err(format!("request {id} is not a job"));
    };
    let (planned, s) = tracer.time("serve.plan", Some(replay), id, || plan(&req));
    acc.plan += ms(tracer, s);
    let planned = planned.map_err(|e| e.to_string())?;
    let last = call.final_line().ok_or("no final line")?;
    let result = daemon::result_text(last).ok_or("final line lacks a result")?;
    match (call.op, &planned) {
        (Op::Run { .. }, snr_serve::Plan::Run(p)) => {
            let replayed = daemon::cache_status(last).as_deref() == Some("store_hit");
            let supervision = Json::parse(result)
                .ok()
                .and_then(|v| v.get("supervision").cloned());
            let raced = raced_keys.contains(&call.op);
            if !replayed {
                if let Some(v) = &supervision {
                    acc.iterations += supervision_iterations(v);
                }
                let degradations = degradations_of(&strip_quarantine(result).0) as u64;
                acc.degradations += degradations;
                if degradations > 0 {
                    // Degraded runs are never stored: nothing to load or save.
                    tracer.finish(replay);
                    return Ok(());
                }
            }
            let (loaded, s) = tracer.time("store.load", Some(replay), id, || {
                store.load(StoreKind::Run, p.result_key)
            });
            acc.load += ms(tracer, s);
            acc.loads += 1;
            let snr_serve::Lookup::Hit(sections) = loaded else {
                if raced {
                    // Every save of this key may have lost the race.
                    tracer.finish(replay);
                    return Ok(());
                }
                return Err(format!("request {id}: its result is not in the store"));
            };
            if replayed {
                let replayed = replayed_run(&sections).ok_or("stored entry lacks a section")?;
                let response = Response::Replayed(Box::new(replayed));
                let (line, s) = tracer.time("serve.render", Some(replay), id, || {
                    snr_serve::render::response_line(id, &response)
                });
                acc.render += ms(tracer, s);
                acc.renders += 1;
                // A raced key's entry may have been rewritten since.
                if line != last && !raced {
                    return Err(format!(
                        "request {id}: re-rendered replay differs from the daemon's"
                    ));
                }
            } else {
                let borrowed: Vec<(&str, &[u8])> = sections
                    .iter()
                    .map(|(n, b)| (n.as_str(), b.as_slice()))
                    .collect();
                let (saved, s) = tracer.time("store.save", Some(replay), id, || {
                    scratch.save(StoreKind::Run, p.result_key, &borrowed)
                });
                saved.map_err(|e| e.to_string())?;
                acc.save += ms(tracer, s);
                acc.saves += 1;
            }
        }
        (Op::Import { def }, _) => {
            let text = inputs::def_text(&pool.defs[def]);
            let opts = ImportOptions {
                bounds: Bounds::for_tech(tech),
                repair: false,
                limits: ImportLimits::default(),
            };
            let (imported, s) = tracer.time("netlist.import", Some(replay), id, || {
                import_design_with(text.as_bytes(), &opts)
            });
            acc.import += ms(tracer, s);
            acc.imports += 1;
            let design = imported.map_err(|e| e.to_string())?.design;
            if design.sinks().len() != pool.defs[def].sinks().len() {
                return Err(format!("request {id}: replayed import lost sinks"));
            }
        }
        (Op::Export { def }, _) => {
            let text = inputs::def_text(&pool.defs[def]);
            let opts = ImportOptions {
                bounds: Bounds::for_tech(tech),
                repair: false,
                limits: ImportLimits::default(),
            };
            let design = import_design_with(text.as_bytes(), &opts)
                .map_err(|e| e.to_string())?
                .design;
            let tree =
                synthesize(&design, tech, &CtsOptions::default()).map_err(|e| e.to_string())?;
            let ctx = OptContext::new(&tree, tech, PowerModel::new(design.freq_ghz()))
                .with_constraints(Constraints::relative(&tree, tech, DEFAULT.0, DEFAULT.1));
            let out = SmartNdr::default()
                .with_budget(Budget::unlimited())
                .with_parallelism(Parallelism::serial())
                .optimize(&ctx);
            let (tcl, s) = tracer.time("cts.export_tcl", Some(replay), id, || {
                export_ndr_tcl(design.name(), &tree, out.assignment(), tech)
            });
            acc.export_tcl += ms(tracer, s);
            acc.exports += 1;
            let daemon_tcl = Json::parse(result)
                .ok()
                .and_then(|v| v.get("ndr_tcl").and_then(Json::as_str).map(str::to_owned));
            if daemon_tcl.as_deref() != Some(tcl.as_str()) {
                return Err(format!(
                    "request {id}: replayed export differs from the daemon's Tcl"
                ));
            }
        }
        _ => return Err(format!("request {id}: planned as another kind")),
    }
    tracer.finish(replay);
    Ok(())
}

/// Decision steps across the budget receipts of a supervision object.
fn supervision_iterations(supervision: &Json) -> u64 {
    match supervision.get("budgets") {
        Some(Json::Arr(budgets)) => budgets
            .iter()
            .filter_map(|b| b.get("iterations").and_then(Json::as_u64))
            .sum(),
        _ => 0,
    }
}

/// A store entry's sections as the replay the daemon serves from them.
fn replayed_run(sections: &[(String, Vec<u8>)]) -> Option<ReplayedRun> {
    let text = |name: &str| {
        sections
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, b)| String::from_utf8(b.clone()).ok())
    };
    Some(ReplayedRun {
        run_json: text("run_json")?,
        human: text("human")?,
        supervision: text("supervision")?,
    })
}
