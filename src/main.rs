//! `smart-ndr` — command-line front end for the smart-NDR flow.
//!
//! ```text
//! smart-ndr gen   --sinks 800 --seed 7 --out design.sndr
//! smart-ndr run   --design design.sndr [--tech n45|n32]
//!                 [--method smart|greedy|upgrade|level|uniform|anneal]
//!                 [--slew-margin 1.1] [--skew-budget 30] [--svg tree.svg] [--mc 200] [--jobs 4]
//!                 [--timeout 30] [--max-iters 100000] [--store cache/] [--no-cache]
//! smart-ndr run   --sinks 500 --seed 3            # generate on the fly
//! smart-ndr pareto --sinks 800 --seed 23 [--slew-margins 1.05,1.25] [--skew-budgets 10,60]
//!                 [--windows 40,15] [--track-fracs 0.9] [--jobs 4] [--store cache/]
//! smart-ndr lint  --design design.sndr [--repair [--out fixed.sndr]]   # validate / repair
//! smart-ndr suite [--designs dir/] [--jobs 4] [--out table.txt [--resume]]
//!                 [--store cache/] [--no-cache]
//! smart-ndr serve [--jobs 4] [--queue 64] [--cache 32] [--socket PATH] [--store cache/]
//! smart-ndr mesh  --sinks 800 [--grid 16] [--rule default|2w2s]   # mesh-vs-tree comparison
//! ```
//!
//! Every command is a thin adapter over the typed request→plan→execute API
//! in [`snr_serve`]: a request command turns its flags into the daemon's
//! JSON request and parses it with the daemon's own parser
//! ([`Envelope::from_json`]), plans and executes it, and renders the
//! response with the same shared serializers the resident daemon uses — one
//! code path for one-shot and resident execution, so the two front ends
//! share their defaults and error messages, and `run --json` output and
//! `serve` responses cannot drift.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success (for `lint`: design is clean, or was repaired) |
//! | 1    | usage error (bad flags, unknown command) |
//! | 3    | invalid input (unreadable, malformed or rejected design) |
//! | 4    | infeasible (design loads but cannot be synthesized under the constraints) |
//!
//! With `--json`, failures print a structured `{"error": {"code", "message"}}`
//! object on stdout so callers never have to scrape stderr.
//!
//! # Parallelism and panics
//!
//! `--jobs <N>` (alias `-j <N>`) runs the Monte Carlo samples of `run --mc`,
//! the per-design flow of `suite`, and the construction runs and Monte
//! Carlo of the sweep points of `pareto` on `N` worker threads; a single
//! `run` optimizes on one thread. Output is bit-identical for every job
//! count: sample seeds are derived per index and rows print in suite order.
//! Worker panics never abort the process:
//!
//! * `suite` catches a panicking design inside its worker and prints a
//!   `FAILED` row with the truncated panic message in the reason column
//!   (exit stays 0 — the table was produced);
//! * `run` maps a panicking Monte Carlo worker to the typed *infeasible*
//!   error (exit 4), or *invalid input* (exit 3) if the design never loaded.
//!
//! # Run supervision
//!
//! `run --timeout <SECS>` arms a cooperative deadline and `--max-iters <N>`
//! caps every optimizer phase at `N` iterations; both are *anytime* bounds —
//! the optimizer returns its best feasible solution so far and the `--json`
//! output carries a `"supervision"` object (per-phase budget receipts plus
//! the degradation-ladder record). `suite --out <FILE>` saves each clean
//! row to a result store as it completes (`--store <DIR>`, or else
//! `<FILE>.rows/`, removed once `FILE` lands); `--resume` replays the
//! stored rows of an interrupted run instead of re-evaluating them. The
//! final `--out` file is written atomically and is byte-identical whether
//! or not the run was interrupted.
//!
//! # Serve mode
//!
//! `smart-ndr serve` keeps parsed designs, synthesized trees and warm
//! statistics resident and speaks line-delimited JSON over stdin/stdout
//! (or `--socket <PATH>`): job requests (`run`/`lint`/`suite`) carry an
//! `"id"` and stream progress events; control requests (`stats`, `cancel`,
//! `shutdown`) are answered immediately. See `DESIGN.md` §3.9 for the
//! protocol.

use smart_ndr::core::{NdrOptimizer, OptContext, SmartNdr};
use smart_ndr::cts::{save_assignment, svg::render_svg, synthesize, CtsOptions};
use smart_ndr::netlist::{load_design, save_design, BenchmarkSpec, Design};
use smart_ndr::power::PowerModel;
use snr_fsio::atomic_write;
use snr_serve::render::{
    check_json, error_json, export_ndr_json, pareto_human, pareto_json, run_human, run_json,
    suite_det_header, suite_header,
};
use snr_serve::json::Json;
use snr_serve::{
    execute, plan, ApiCode, ApiError, CacheMode, Envelope, Event, ExecCtx, Op, Request, Response,
    ResultStore, ServeConfig, TechId,
};
use std::collections::HashMap;
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
smart-ndr: per-edge NDR assignment for clock power reduction

USAGE:
  smart-ndr gen   --sinks <N> [--seed <S>] [--freq <GHz>] --out <FILE>
  smart-ndr run   (--design <FILE> | --sinks <N> [--seed <S>])
                  [--tech n45|n32]
                  [--method smart|greedy|upgrade|level|uniform|anneal]
                  [--slew-margin <X>] [--skew-budget <PS>] [--svg <FILE>] [--mc <SAMPLES>]
                  [--save-asg <FILE>] [--jobs <N>] [--json]
                  [--timeout <SECS>] [--max-iters <N>] [--store <DIR>] [--no-cache]
  smart-ndr pareto (--design <FILE> | --sinks <N> [--seed <S>])
                  [--tech n45|n32] [--slew-margins 1.05,1.1,1.25]
                  [--skew-budgets 10,30,60] [--windows 40,15] [--track-fracs 0.9,0.8]
                  [--corners] [--mc <SAMPLES>] [--jobs <N>] [--json]
                  [--timeout <SECS>] [--max-points <N>] [--store <DIR>] [--no-cache]
  smart-ndr lint  --design <FILE> [--tech n45|n32] [--repair] [--out <FILE>] [--json]
  smart-ndr import --design <FILE.def> [--tech n45|n32] [--repair]
                  [--out <FILE.sndr>] [--json]
  smart-ndr export-ndr (--design <FILE> | --sinks <N> [--seed <S>]) [--tech n45|n32]
                  [--method smart|greedy|...] [--slew-margin <X>] [--skew-budget <PS>]
                  [--from-tcl <FILE.tcl>] [--out <FILE.tcl>] [--save-asg <FILE>] [--json]
  smart-ndr suite [--tech n45|n32] [--designs <DIR>] [--jobs <N>]
                  [--out <FILE> [--resume]] [--store <DIR>] [--no-cache]
  smart-ndr serve [--jobs <N>] [--queue <N>] [--cache <N>] [--socket <PATH>]
                  [--store <DIR>]
  smart-ndr mesh  (--design <FILE> | --sinks <N> [--seed <S>]) [--tech n45|n32]
                  [--grid <N>] [--drivers <K>] [--rule default|2w2s]
  smart-ndr help

PARETO:
  pareto sweeps the constraint space (slew margins x skew budgets /
  useful-skew windows x optional track budgets) and prints the
  non-dominated front over (power, skew, σ-skew, track cost). The
  front is bit-identical for any --jobs value; --timeout returns the
  front over the points that completed; --max-points evaluates a
  deterministic prefix of the sweep. Axis lists are comma-separated
  (an empty string clears an axis).

IMPORT / EXPORT:
  import reads an external DEF-lite/ISPD clock-sink file through a
  bounded, panic-free parser; damaged records are skipped with typed
  I-series diagnostics and --repair salvages semantic damage. --out
  writes the canonical .sndr, ready for run/suite/pareto. export-ndr
  solves an assignment (or reimports one with --from-tcl) and emits
  deterministic OpenROAD create_ndr/assign_ndr Tcl.

PARALLELISM:
  --jobs <N>, -j <N>  worker threads for Monte Carlo samples (run), designs
                      (suite), the construction runs and Monte Carlo of
                      sweep points (pareto) and requests (serve); a single
                      run optimizes on one thread. Output is identical for
                      any N

SUPERVISION:
  --timeout <SECS>    cooperative wall-clock deadline (0 = off); anytime —
                      the best feasible solution found so far is returned
  --max-iters <N>     per-phase iteration cap (0 = off); deterministic
  suite --resume      replay the rows an interrupted run stored in
                      <OUT>.rows/ (or --store) instead of re-evaluating
                      them (requires --out, conflicts with --no-cache)

CACHING:
  --store <DIR>       durable content-addressed result store: clean runs
                      persist to DIR and replay byte-identically on the
                      next identical invocation; entries failing integrity
                      verification are quarantined to DIR/corrupt/ and the
                      result is recomputed from scratch
  --no-cache          bypass warm caches and the store for this invocation
                      (serve requests take {\"cache\": \"off\"} per request)

SERVE:
  serve reads one JSON request per line from stdin (or --socket <PATH>)
  and writes id-tagged JSON responses and progress events to stdout.
  Parsed designs and synthesized trees stay warm across requests;
  `{\"op\": \"stats\"}` reports cache hits, queue depth and phase timings.
  EOF or `{\"op\": \"shutdown\"}` drains the queue and exits 0.

EXIT CODES:
  0 success / lint-clean    1 usage error
  3 invalid input           4 infeasible constraints
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            if json {
                println!("{}", error_json(&err));
            } else {
                eprintln!("error: {}", err.message());
                if err.code() == ApiCode::Usage {
                    eprintln!("\n{USAGE}");
                }
            }
            ExitCode::from(err.code().exit_code())
        }
    }
}

/// A subcommand's entry point.
type Command = fn(&Flags) -> Result<(), ApiError>;

fn run(args: Vec<String>) -> Result<(), ApiError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(ApiError::usage("no command given"));
    };
    let values = parse_flags(rest)?;
    // Each command with every flag it reads: the one record of what a
    // command accepts (`Flags` rejects the rest and checks every read).
    let (command, reads): (Command, &'static [&'static str]) = match cmd.as_str() {
        "gen" => (cmd_gen, &["design", "sinks", "seed", "freq", "out"]),
        "run" => (
            cmd_run,
            &[
                "design", "sinks", "seed", "freq", "tech", "method", "slew-margin", "skew-budget",
                "mc", "jobs", "timeout", "max-iters", "no-cache", "store", "svg", "save-asg",
            ],
        ),
        "pareto" => (
            cmd_pareto,
            &[
                "design", "sinks", "seed", "freq", "tech", "slew-margins", "skew-budgets",
                "windows", "track-fracs", "corners", "mc", "jobs", "timeout", "max-points",
                "no-cache", "store",
            ],
        ),
        "lint" => (|flags| cmd_check(flags, "lint"), &["design", "tech", "repair", "out"]),
        "import" => (|flags| cmd_check(flags, "import"), &["design", "tech", "repair", "out"]),
        "export-ndr" => (
            cmd_export_ndr,
            &[
                "design", "sinks", "seed", "freq", "tech", "method", "slew-margin", "skew-budget",
                "from-tcl", "out", "save-asg",
            ],
        ),
        "suite" => (cmd_suite, &["designs", "tech", "jobs", "out", "resume", "no-cache", "store"]),
        "serve" => (cmd_serve, &["jobs", "queue", "cache", "store", "socket"]),
        "mesh" => (
            cmd_mesh,
            &["design", "sinks", "seed", "freq", "tech", "grid", "drivers", "rule"],
        ),
        "help" | "--help" | "-h" => (cmd_help, &[]),
        other => return Err(ApiError::usage(format!("unknown command {other:?}"))),
    };
    // `<command> --help` (or `-h`) asks for the usage, whatever else is given.
    if values.contains_key("help") {
        println!("{USAGE}");
        return Ok(());
    }
    command(&Flags::new(cmd, values, reads)?)
}

/// The flags one command was given, checked against the flags it reads.
struct Flags {
    values: HashMap<String, String>,
    reads: &'static [&'static str],
}

impl Flags {
    /// Rejects any flag outside `reads`, so a misspelt flag cannot silently
    /// fall back to its default. `--json` is accepted everywhere: `main`
    /// honours it for error output.
    fn new(
        cmd: &str,
        values: HashMap<String, String>,
        reads: &'static [&'static str],
    ) -> Result<Flags, ApiError> {
        let unknown = values.keys().filter(|k| *k != "json" && !reads.contains(&k.as_str())).min();
        if let Some(key) = unknown {
            return Err(ApiError::usage(format!("unknown flag --{key} for {cmd}")));
        }
        Ok(Flags { values, reads })
    }

    /// The value of `--key`, if given. A command may only read the flags in
    /// its list; reading another would reject that flag whenever a caller
    /// passed it, so debug builds assert it here.
    fn get(&self, key: &str) -> Option<&String> {
        debug_assert!(
            key == "json" || self.reads.contains(&key),
            "--{key} is read but missing from the command's flag list"
        );
        self.values.get(key)
    }

    /// Whether `--key` was given, under the same check as [`Flags::get`].
    fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The flags given, in the order of the command's flag list.
    fn given(&self) -> impl Iterator<Item = (&'static str, &String)> + '_ {
        self.reads.iter().filter_map(|&key| Some((key, self.values.get(key)?)))
    }
}

fn cmd_help(_: &Flags) -> Result<(), ApiError> {
    println!("{USAGE}");
    Ok(())
}

/// Flags that take no value; present means "true".
const BOOL_FLAGS: &[&str] = &["json", "repair", "resume", "no-cache", "corners", "help"];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, ApiError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = match arg.strip_prefix("--") {
            Some(key) => key,
            None if arg == "-j" => "jobs",
            None if arg == "-h" => "help",
            None => return Err(ApiError::usage(format!("expected --flag, got {arg:?}"))),
        };
        if BOOL_FLAGS.contains(&key) {
            flags.insert(key.to_owned(), "true".to_owned());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| ApiError::usage(format!("flag --{key} needs a value")))?;
        flags.insert(key.to_owned(), value.clone());
    }
    Ok(flags)
}

fn get_parsed<T: std::str::FromStr>(
    flags: &Flags,
    key: &str,
    default: T,
) -> Result<T, ApiError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ApiError::usage(format!("invalid --{key} {v:?}"))),
    }
}

/// `serve --jobs <N>` / `-j <N>`, or `None` when absent so the daemon keeps
/// its default worker count.
fn jobs_of(flags: &Flags) -> Result<Option<usize>, ApiError> {
    match flags.get("jobs") {
        None => Ok(None),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| ApiError::usage(format!("invalid --jobs {v:?}")))?;
            if n == 0 {
                return Err(ApiError::usage("--jobs must be at least 1"));
            }
            Ok(Some(n))
        }
    }
}

fn tech_of(flags: &Flags) -> Result<TechId, ApiError> {
    match flags.get("tech") {
        None => Ok(TechId::default()),
        Some(v) => TechId::parse(v),
    }
}

/// Opens the durable result store at `dir`. An unopenable store degrades
/// to a warning — the run still computes.
fn open_store(dir: &Path) -> Option<ResultStore> {
    ResultStore::open(dir)
        .inspect_err(|e| eprintln!("warning: result store disabled ({}: {e})", dir.display()))
        .ok()
}

/// The result store named by `--store <DIR>`, if any.
fn store_of(flags: &Flags) -> Option<ResultStore> {
    open_store(Path::new(flags.get("store")?))
}

/// The CLI's execution context: no warm cache or cancel hook, and a stderr
/// warning for each quarantined store entry (the executor recomputes it).
fn cli_ctx(store: Option<&ResultStore>) -> ExecCtx<'_> {
    fn warn_quarantined(event: &Event) {
        if let Event::StoreQuarantined { detail, .. } = event {
            eprintln!("warning: {detail}; recomputing from scratch");
        }
    }
    ExecCtx { cache: None, store, sink: Some(&warn_quarantined), on_token: None }
}

/// One stderr line of store traffic for this invocation, when attached.
fn store_note(store: Option<&ResultStore>) {
    let Some(store) = store else { return };
    let s = store.stats();
    eprintln!(
        "store: {} hit(s), {} miss(es), {} quarantined, {} write(s)",
        s.hits, s.misses, s.quarantined, s.writes
    );
}

/// The job request a command's flags describe, as the daemon's op `op`:
/// the flags become the daemon's JSON request and [`Envelope::from_json`]
/// parses it, so the CLI and the daemon share one set of defaults, rules
/// and messages. Flags only the CLI reads are not sent. The flags are
/// walked in the command's list order, so an invocation with several bad
/// flags always reports the same one.
fn request_of(flags: &Flags, op: &str) -> Result<Request, ApiError> {
    let field = |key: &str, value| (key.to_owned(), value);
    let mut fields = vec![field("id", Json::Num(0.0)), field("op", Json::Str(op.to_owned()))];
    let (mut design, mut generate) = (Vec::new(), Vec::new());
    for (key, raw) in flags.given() {
        let value = match key {
            "out" | "svg" | "save-asg" | "store" | "resume" => continue,
            "design" | "tech" | "method" | "designs" | "from-tcl" => Json::Str(raw.clone()),
            "slew-margins" | "skew-budgets" | "windows" | "track-fracs" => number_list(key, raw)?,
            "no-cache" => Json::Str("off".to_owned()),
            _ if BOOL_FLAGS.contains(&key) => Json::Bool(true),
            _ => Json::Num(
                raw.parse()
                    .map_err(|_| ApiError::usage(format!("invalid --{key} {raw:?}")))?,
            ),
        };
        match key {
            "design" => design.push(field("path", value)),
            "sinks" | "seed" => generate.push(field(key, value)),
            "freq" => generate.push(field("freq_ghz", value)),
            "no-cache" => fields.push(field("cache", value)),
            _ => fields.push(field(&key.replace('-', "_"), value)),
        }
    }
    if !generate.is_empty() {
        design.push(field("generate", Json::Obj(generate)));
    }
    if !design.is_empty() {
        fields.push(field("design", Json::Obj(design)));
    }
    match Envelope::from_json(&Json::Obj(fields))?.op {
        Op::Job(request) => Ok(request),
        Op::Control(_) => unreachable!("{op} is a job op"),
    }
}

/// A comma-separated `--<key> a,b,c` list of numbers as a JSON array; an
/// empty string is the empty list, which clears a sweep axis.
fn number_list(key: &str, raw: &str) -> Result<Json, ApiError> {
    if raw.trim().is_empty() {
        return Ok(Json::Arr(Vec::new()));
    }
    raw.split(',')
        .map(|item| {
            item.trim()
                .parse()
                .map(Json::Num)
                .map_err(|_| ApiError::usage(format!("invalid --{key} value {item:?}")))
        })
        .collect::<Result<_, _>>()
        .map(Json::Arr)
}

/// Loads or generates a design eagerly — for `gen` and `mesh`, which need
/// the design itself rather than a plan over it.
fn design_of(flags: &Flags) -> Result<Design, ApiError> {
    if let Some(path) = flags.get("design") {
        let file = fs::File::open(path)
            .map_err(|e| ApiError::invalid(format!("cannot open {path}: {e}")))?;
        return load_design(BufReader::new(file)).map_err(|e| ApiError::invalid(e.to_string()));
    }
    let sinks: usize = get_parsed(flags, "sinks", 0)?;
    if sinks == 0 {
        return Err(ApiError::usage("need --design <FILE> or --sinks <N>"));
    }
    let seed: u64 = get_parsed(flags, "seed", 1)?;
    let freq: f64 = get_parsed(flags, "freq", 1.0)?;
    BenchmarkSpec::new(format!("cli-s{sinks}"), sinks)
        .seed(seed)
        .freq_ghz(freq)
        .build()
        .map_err(|e| ApiError::invalid(e.to_string()))
}

fn cmd_gen(flags: &Flags) -> Result<(), ApiError> {
    let design = design_of(flags)?;
    let out = flags
        .get("out")
        .ok_or_else(|| ApiError::usage("gen needs --out <FILE>"))?;
    let file = fs::File::create(out)
        .map_err(|e| ApiError::invalid(format!("cannot create {out}: {e}")))?;
    save_design(&design, file).map_err(|e| ApiError::invalid(e.to_string()))?;
    println!("wrote {design} to {out}");
    Ok(())
}

/// `smart-ndr run`: build the typed request from flags, plan, execute
/// one-shot, render. The engine is exactly the daemon's; only the
/// presentation here is CLI-specific.
fn cmd_run(flags: &Flags) -> Result<(), ApiError> {
    let json = flags.contains_key("json");
    let req = request_of(flags, "run")?;

    // A replayed run carries rendered text only — no live tree or
    // assignment — so artifact-producing flags keep the store detached
    // and always compute.
    let wants_artifacts = flags.contains_key("svg") || flags.contains_key("save-asg");
    let store = if wants_artifacts {
        if flags.contains_key("store") {
            eprintln!("note: --store is ignored with --svg/--save-asg (artifacts need a live run)");
        }
        None
    } else {
        store_of(flags)
    };

    let plan = plan(&req)?;
    let resp = match execute(&plan, &cli_ctx(store.as_ref()))? {
        Response::Run(resp) => resp,
        Response::Replayed(r) => {
            // The stored entry holds the cold run's rendered bytes, so a
            // warm replay prints exactly what the cold run printed.
            if json {
                println!("{}", r.run_json);
            } else {
                print!("{}", r.human);
            }
            store_note(store.as_ref());
            return Ok(());
        }
        _ => unreachable!("run plans produce run responses"),
    };

    if !json {
        print!("{}", run_human(&resp));
    }

    if let Some(path) = flags.get("save-asg") {
        let file = fs::File::create(path)
            .map_err(|e| ApiError::invalid(format!("cannot create {path}: {e}")))?;
        save_assignment(resp.result.assignment(), &resp.tree, file)
            .map_err(|e| ApiError::invalid(e.to_string()))?;
        if !json {
            println!("wrote {path}");
        }
    }

    if let Some(path) = flags.get("svg") {
        let svg = render_svg(&resp.tree, resp.tech.rules(), resp.result.assignment());
        fs::write(path, svg)
            .map_err(|e| ApiError::invalid(format!("cannot write {path}: {e}")))?;
        if !json {
            println!("wrote {path}");
        }
    }

    if json {
        println!("{}", run_json(&resp));
    }
    store_note(store.as_ref());
    Ok(())
}

/// `smart-ndr pareto`: sweep the constraint space and print the
/// non-dominated front. Same engine as the daemon's `pareto` op; the
/// CLI only adds flag parsing and the table rendering.
fn cmd_pareto(flags: &Flags) -> Result<(), ApiError> {
    let json = flags.contains_key("json");
    let req = request_of(flags, "pareto")?;
    let store = store_of(flags);
    let plan = plan(&req)?;
    let resp = match execute(&plan, &cli_ctx(store.as_ref()))? {
        Response::Pareto(resp) => resp,
        _ => unreachable!("pareto plans produce pareto responses"),
    };

    if json {
        println!("{}", pareto_json(&resp));
    } else {
        print!("{}", pareto_human(&resp));
    }
    store_note(store.as_ref());
    Ok(())
}

/// `smart-ndr lint` and `smart-ndr import` (`op`): check one design
/// without running the flow. `lint` validates (and optionally repairs) a
/// `.sndr` design; `import` brings an external DEF-lite/ISPD design in
/// through a bounded, panic-free parser that reports typed I-series
/// diagnostics. Every diagnostic and every repair action is printed; a
/// feasibility smoke-check (can the default CTS flow synthesize the design
/// at all?) separates "invalid input" from "infeasible". `--out` writes
/// the canonical `.sndr`, so an imported design feeds straight into
/// run/suite/pareto (and gets content-byte store keys like any other).
fn cmd_check(flags: &Flags, op: &str) -> Result<(), ApiError> {
    let json = flags.contains_key("json");
    let import = op == "import";
    let plan = plan(&request_of(flags, op)?)?;
    let resp = match execute(&plan, &ExecCtx::oneshot()) {
        Ok(Response::Lint(resp) | Response::Import(resp)) => resp,
        Ok(_) => unreachable!("{op} plans produce {op} responses"),
        Err(err) => {
            // Surface the individual diagnostics before failing, so the
            // user sees every problem at once instead of the first.
            if !json {
                for d in err.details() {
                    println!("{d}");
                }
            }
            return Err(err);
        }
    };

    if !json {
        for line in resp.diagnostics.iter().chain(&resp.repairs) {
            println!("{line}");
        }
    }

    if let Some(out) = flags.get("out") {
        let file = fs::File::create(out)
            .map_err(|e| ApiError::invalid(format!("cannot create {out}: {e}")))?;
        save_design(&resp.design, file).map_err(|e| ApiError::invalid(e.to_string()))?;
        if import && !json {
            println!("wrote {out}");
        }
    }

    if json {
        println!("{}", check_json(&resp, import));
    } else {
        let (verb, sinks) = if import {
            ("imported ", format!("{} sinks, ", resp.design.sinks().len()))
        } else {
            ("", String::new())
        };
        println!(
            "{}: {verb}{} ({sinks}{} diagnostics, {} repairs)",
            resp.design.name(),
            resp.status(),
            resp.diagnostics.len(),
            resp.repairs.len(),
        );
    }
    Ok(())
}

/// `smart-ndr export-ndr`: solve an assignment for a design and emit the
/// OpenROAD `create_ndr`/`assign_ndr` Tcl a physical-design flow
/// consumes — or, with `--from-tcl`, parse such a script back and
/// re-render it (the round-trip path the interop checks diff). The
/// script goes to `--out` or stdout; `--save-asg` additionally writes
/// the assignment in the native `.asg` format.
fn cmd_export_ndr(flags: &Flags) -> Result<(), ApiError> {
    let json = flags.contains_key("json");
    let plan = plan(&request_of(flags, "export_ndr")?)?;
    let resp = match execute(&plan, &ExecCtx::oneshot())? {
        Response::ExportNdr(resp) => resp,
        _ => unreachable!("export-ndr plans produce export-ndr responses"),
    };

    match flags.get("out") {
        Some(out) => {
            fs::write(out, resp.tcl.as_bytes())
                .map_err(|e| ApiError::invalid(format!("cannot write {out}: {e}")))?;
            if !json {
                println!(
                    "wrote {out} ({} NDR assignment(s) over {} nodes)",
                    resp.assigned(),
                    resp.tree.len()
                );
            }
        }
        None if !json => print!("{}", resp.tcl),
        None => {}
    }

    if let Some(path) = flags.get("save-asg") {
        let file = fs::File::create(path)
            .map_err(|e| ApiError::invalid(format!("cannot create {path}: {e}")))?;
        save_assignment(&resp.assignment, &resp.tree, file)
            .map_err(|e| ApiError::invalid(e.to_string()))?;
        if !json {
            println!("wrote {path}");
        }
    }

    if json {
        println!("{}", export_ndr_json(&resp));
    }
    Ok(())
}

fn cmd_mesh(flags: &Flags) -> Result<(), ApiError> {
    use smart_ndr::mesh::{ClockMesh, MeshSpec};
    use smart_ndr::tech::Rule;

    let design = design_of(flags)?;
    let tech = tech_of(flags)?.resolve();
    let grid: usize = get_parsed(flags, "grid", 16)?;
    let drivers: usize = get_parsed(flags, "drivers", 3)?;
    let rule = match flags.get("rule").map(String::as_str).unwrap_or("default") {
        "default" => Rule::DEFAULT,
        "2w2s" => Rule::new(2.0, 2.0).expect("2W2S is valid"),
        other => return Err(ApiError::usage(format!("unknown --rule {other:?} (default|2w2s)"))),
    };

    println!("design: {design}");
    let tree = synthesize(&design, &tech, &CtsOptions::default())
        .map_err(|e| ApiError::infeasible(e.to_string()))?;
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
    let smart = SmartNdr::default().optimize(&ctx);
    println!("tree:   {smart}");

    let spec =
        MeshSpec::new(grid, grid, drivers, rule).map_err(|e| ApiError::usage(e.to_string()))?;
    let mesh = ClockMesh::build(&design, &tech, spec);
    let rep = mesh.analyze(&tech, design.freq_ghz());
    println!("{rep} ({} drivers)", rep.n_drivers);
    println!(
        "mesh / tree network power: {:.2}x",
        rep.network_uw() / smart.power().network_uw()
    );
    Ok(())
}

/// The row store of `suite --out <FILE>` without `--store`: `<FILE>.rows/`.
fn rows_dir_of(out: &Path) -> PathBuf {
    let mut os = out.as_os_str().to_owned();
    os.push(".rows");
    PathBuf::from(os)
}

/// Opens the row store at `dir`, cleared first unless `resume`. Only a
/// result store is ever cleared or attached there: any other directory is
/// left alone with a warning and the run goes unstored.
fn open_rows(dir: &Path, resume: bool) -> Option<ResultStore> {
    if dir.exists() {
        if !ResultStore::is_store(dir) {
            eprintln!("warning: {} is not a result store; leaving it", dir.display());
            return None;
        }
        // A fresh run must not replay an older run's rows.
        if !resume {
            fs::remove_dir_all(dir)
                .inspect_err(|e| eprintln!("warning: cannot clear {}: {e}", dir.display()))
                .ok()?;
        }
    }
    open_store(dir)
}

/// `smart-ndr suite`: the headline table. Robust by construction — every
/// design runs inside `catch_unwind` (see the executor), so one poisoned
/// design yields a `FAILED` row and the run continues with the remaining
/// designs. With `--jobs <N>` the designs evaluate on `N` worker threads;
/// rows always print in suite order, so the table is byte-identical for any
/// job count. Always exits 0 when the table itself could be produced.
///
/// With `--out <FILE>` the deterministic columns (runtime excluded) are
/// additionally written to `FILE` through [`atomic_write`], and the
/// executor saves every clean row to a result store as it completes:
/// `--store <DIR>` if given, else `<FILE>.rows/`, which a fresh run clears
/// and which is removed once `FILE` lands. `--resume` keeps `<FILE>.rows/`,
/// so an interrupted run replays its stored rows instead of re-evaluating
/// them and still produces the byte-identical `FILE`.
fn cmd_suite(flags: &Flags) -> Result<(), ApiError> {
    let req = request_of(flags, "suite")?;
    let Request::Suite(suite) = &req else { unreachable!("suite flags make a suite request") };
    let cache = suite.cache;
    let out_path = flags.get("out").map(PathBuf::from);
    let resume = flags.contains_key("resume");
    if resume && out_path.is_none() {
        return Err(ApiError::usage(
            "suite --resume needs --out <FILE> (its rows are stored next to it)",
        ));
    }
    if resume && cache == CacheMode::Off {
        return Err(ApiError::usage(
            "suite --resume conflicts with --no-cache (it detaches the row store)",
        ));
    }
    let plan = plan(&req)?;
    let rows_dir = match &out_path {
        Some(out) if cache == CacheMode::On && !flags.contains_key("store") => {
            Some(rows_dir_of(out))
        }
        _ => None,
    };
    let store = match &rows_dir {
        Some(dir) => open_rows(dir, resume),
        None => store_of(flags),
    };

    println!("{}", suite_header());
    let resp = match execute(&plan, &cli_ctx(store.as_ref()))? {
        Response::Suite(resp) => resp,
        _ => unreachable!("suite plans produce suite responses"),
    };

    for row in &resp.rows {
        if let Some(diag) = &row.diagnostic {
            eprintln!("{diag}");
        }
        println!("{}", row.stdout_line());
    }
    let mut tail = String::new();
    if resp.failed > 0 {
        tail = format!("{} of {} designs FAILED", resp.failed, resp.rows.len());
        println!("{tail}");
    }

    if let Some(out) = &out_path {
        // The artifact keeps only deterministic columns, so a resumed run
        // reproduces it byte-for-byte.
        let mut text = String::new();
        text.push_str(suite_det_header().trim_end());
        text.push('\n');
        for row in &resp.rows {
            text.push_str(row.line.trim_end());
            text.push('\n');
        }
        if !tail.is_empty() {
            text.push_str(&tail);
            text.push('\n');
        }
        atomic_write(out, text.as_bytes())
            .map_err(|e| ApiError::invalid(format!("cannot write {}: {e}", out.display())))?;
    }
    store_note(store.as_ref());
    if let (Some(dir), Some(_)) = (&rows_dir, &store) {
        if let Err(e) = fs::remove_dir_all(dir) {
            eprintln!("warning: cannot remove {}: {e}", dir.display());
        }
    }
    Ok(())
}

/// `smart-ndr serve`: the resident daemon. See the module docs and
/// `DESIGN.md` §3.9 for the protocol.
fn cmd_serve(flags: &Flags) -> Result<(), ApiError> {
    let mut config = ServeConfig::default();
    if let Some(n) = jobs_of(flags)? {
        config.workers = n;
    }
    config.queue_capacity = get_parsed(flags, "queue", config.queue_capacity)?;
    if config.queue_capacity == 0 {
        return Err(ApiError::usage("--queue must be at least 1"));
    }
    config.cache_capacity = get_parsed(flags, "cache", config.cache_capacity)?;
    config.store_dir = flags.get("store").map(PathBuf::from);

    if let Some(path) = flags.get("socket") {
        #[cfg(unix)]
        return snr_serve::serve_socket(&config, Path::new(path))
            .map_err(|e| ApiError::invalid(format!("serve: cannot serve on {path}: {e}")));
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(ApiError::usage("--socket is only available on unix platforms"));
        }
    }
    snr_serve::serve_stdio(&config).map_err(|e| ApiError::invalid(format!("serve: {e}")))
}
