//! Plan execution: turning a [`Plan`] into a typed [`Response`].
//!
//! `execute` is the one code path behind both the one-shot CLI and the
//! resident daemon. The differences between the two are entirely in the
//! [`ExecCtx`]: the daemon attaches a warm [`WarmCache`], an [`Event`]
//! sink for progress streaming, and a cancellation-token registration
//! hook; the CLI attaches none and gets exactly the behavior the binary
//! has always had.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use snr_core::{
    panic_message, Annealing, Budget, Constraints, GreedyDowngrade, GreedyUpgradeRepair,
    LevelBased, NdrOptimizer, OptContext, Outcome, SmartNdr, Uniform,
};
use snr_cts::{synthesize, ClockTree, CtsOptions};
use snr_netlist::validate::{Bounds, Diagnostic, Repair};
use snr_netlist::{
    import_design_with, load_design, load_design_with, BenchmarkSpec, Design, ErrorKind,
    ImportLimits, ImportOptions, LoadOptions, NetlistError,
};
use snr_par::{par_map, CancelToken, Deadline, Parallelism};
use snr_power::PowerModel;
use snr_store::{CacheKey, Lookup, QuarantineReason, ResultStore, StoreKind};
use snr_tech::Technology;
use snr_variation::{MonteCarlo, VariationError, VariationModel};

use snr_pareto::{FrontPoint, ParetoFront, PointEval, SweepContext, SweepPoint};

use crate::cache::{CacheStatus, Warm, WarmCache};
use crate::error::ApiError;
use crate::plan::{
    suite_row_key, CheckPlan, DesignInput, ExportNdrPlan, ParetoPlan, Plan, RunPlan, SuiteEntry,
    SuitePlan,
};
use crate::request::{CacheMode, Method};

/// A progress event emitted while a plan executes. The daemon streams
/// these as protocol lines tagged with the request id; the CLI ignores
/// them (its progress is the final rendering).
#[derive(Debug, Clone)]
pub enum Event {
    /// A phase began.
    PhaseStart {
        /// Phase name: `parse`, `cts`, `optimize` or `mc`.
        phase: &'static str,
    },
    /// A phase finished.
    PhaseDone {
        /// Phase name.
        phase: &'static str,
        /// Wall-clock time the phase took.
        elapsed: Duration,
    },
    /// One suite row finished evaluating (fresh rows only — rows replayed
    /// from the result store are not re-announced).
    SuiteRow(
        /// The completed row.
        SuiteRow,
    ),
    /// A durable result-store entry failed integrity verification and was
    /// quarantined; the work was recomputed from scratch.
    StoreQuarantined {
        /// `run`, `suite` or `pareto`.
        scope: &'static str,
        /// Entry identity and the verification step that failed.
        detail: String,
    },
    /// One Pareto sweep point finished evaluating (fresh or replayed from
    /// the result store). The final front is in the response; these
    /// stream the candidates as they land.
    FrontPoint {
        /// The point's index in the sweep's canonical enumeration.
        index: usize,
        /// The measured evaluation.
        eval: PointEval,
        /// Whether the store served it without recomputation.
        replayed: bool,
    },
}

/// Execution context: what the front end attaches around `execute`.
pub struct ExecCtx<'c> {
    /// Warm parse+CTS cache shared across requests; `None` one-shot.
    pub cache: Option<&'c Mutex<WarmCache>>,
    /// Event sink; called from the executing thread (and, for suite rows,
    /// from worker threads — hence `Sync`).
    pub sink: Option<&'c (dyn Fn(&Event) + Sync)>,
    /// Called once with the run's cancellation token before optimization
    /// starts, so a resident front end can cancel mid-flight. When set, a
    /// token is created (and registered) even without a `--timeout`.
    pub on_token: Option<&'c (dyn Fn(&CancelToken) + Sync)>,
    /// Durable result store (L2, under the warm cache); `None` keeps
    /// execution disk-free.
    pub store: Option<&'c ResultStore>,
}

impl<'c> ExecCtx<'c> {
    /// The one-shot context: no cache, no events, no cancellation hook,
    /// no result store.
    pub fn oneshot() -> Self {
        ExecCtx { cache: None, sink: None, on_token: None, store: None }
    }

    fn emit(&self, event: &Event) {
        if let Some(sink) = self.sink {
            sink(event);
        }
    }

    /// Runs `f` bracketed by phase events.
    fn phase<T>(&self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        self.emit(&Event::PhaseStart { phase });
        let start = Instant::now();
        let out = f();
        self.emit(&Event::PhaseDone { phase, elapsed: start.elapsed() });
        out
    }
}

impl<'c> Default for ExecCtx<'c> {
    fn default() -> Self {
        ExecCtx::oneshot()
    }
}

/// The result of a `run` plan: everything a front end needs to render the
/// outcome, human or JSON, plus the artifacts (`tree`, assignment inside
/// the outcomes) that `--svg` / `--save-asg` serialize.
#[derive(Debug, Clone)]
pub struct RunResponse {
    /// The evaluated design.
    pub design: Arc<Design>,
    /// Its synthesized clock tree.
    pub tree: Arc<ClockTree>,
    /// The technology the run used.
    pub tech: Technology,
    /// The resolved constraints.
    pub constraints: Constraints,
    /// The conservative-uniform baseline.
    pub baseline: Outcome,
    /// The optimized result.
    pub result: Outcome,
    /// Monte-Carlo sample count requested (0 = none).
    pub mc_samples: usize,
    /// `(baseline σ-skew, result σ-skew)` in ps, when variation ran to
    /// completion.
    pub variation: Option<(f64, f64)>,
    /// Whether the deadline cancelled variation analysis mid-run.
    pub mc_cancelled: bool,
    /// How this run interacted with the warm cache.
    pub cache: CacheStatus,
}

/// The result of a `lint` or `import` plan: the design the bytes became,
/// plus everything its parser and the validation found and fixed.
#[derive(Debug, Clone)]
pub struct CheckResponse {
    /// The checked (possibly repaired) design.
    pub design: Arc<Design>,
    /// Diagnostics, rendered (`import`'s include its `I`-series codes).
    pub diagnostics: Vec<String>,
    /// Repair actions taken, rendered.
    pub repairs: Vec<String>,
}

impl CheckResponse {
    /// `clean` or `repaired` — the status word the CLI prints.
    pub fn status(&self) -> &'static str {
        if self.repairs.is_empty() {
            "clean"
        } else {
            "repaired"
        }
    }
}

/// The result of an `export_ndr` plan: the solved (or reimported)
/// assignment and its deterministic Tcl rendering.
#[derive(Debug, Clone)]
pub struct ExportNdrResponse {
    /// The design the assignment is for.
    pub design: Arc<Design>,
    /// Its synthesized clock tree.
    pub tree: Arc<ClockTree>,
    /// The technology the export used.
    pub tech: Technology,
    /// The edge→rule assignment the script encodes.
    pub assignment: snr_cts::Assignment,
    /// The rendered `create_ndr`/`assign_ndr` script.
    pub tcl: String,
    /// Whether the assignment was reimported from an existing script
    /// rather than solved.
    pub reimported: bool,
}

impl ExportNdrResponse {
    /// How many slots carry a non-default rule (the `assign_ndr` count).
    pub fn assigned(&self) -> usize {
        let default = self.tech.rules().default_id();
        (0..self.assignment.len())
            .filter(|i| self.assignment.rule(snr_cts::NodeId(*i)) != default)
            .count()
    }
}

/// One evaluated suite row: an optional stderr diagnostic, the
/// deterministic table columns (runtime excluded), the measured runtime
/// (absent for rows replayed from the result store), and the FAILED
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Design name.
    pub name: String,
    /// The deterministic table line.
    pub line: String,
    /// Optional stderr diagnostic.
    pub diagnostic: Option<String>,
    /// Measured runtime; `None` for FAILED and replayed rows.
    pub runtime_s: Option<f64>,
    /// Whether the flow failed on this design.
    pub failed: bool,
}

impl SuiteRow {
    /// The stdout rendering: deterministic columns plus the wall-clock
    /// runtime column (`-` for FAILED rows and rows replayed from the
    /// result store, whose runtime was not re-measured).
    pub fn stdout_line(&self) -> String {
        match self.runtime_s {
            Some(rt) => format!("{} {rt:>8.1}s", self.line),
            None => format!("{} {:>9}", self.line, "-"),
        }
    }
}

/// The result of a `suite` plan.
#[derive(Debug, Clone)]
pub struct SuiteResponse {
    /// All rows, in table order.
    pub rows: Vec<SuiteRow>,
    /// How many rows FAILED.
    pub failed: usize,
}

/// A run replayed byte-for-byte from the durable result store: the
/// renderings a cold run saved, returned without parsing, synthesizing
/// or optimizing anything. Holding rendered strings (not live objects)
/// is what makes the warm output *byte-identical* to the cold run's.
#[derive(Debug, Clone)]
pub struct ReplayedRun {
    /// Exactly what `run --json` printed on the cold run.
    pub run_json: String,
    /// Exactly what plain `run` printed on the cold run.
    pub human: String,
    /// The cold run's deterministic supervision object.
    pub supervision: String,
}

/// The section names a run entry stores.
const SECTION_RUN_JSON: &str = "run_json";
const SECTION_HUMAN: &str = "human";
const SECTION_SUPERVISION: &str = "supervision";

impl ReplayedRun {
    /// Reassembles a replay from a verified entry's sections. `None` when
    /// a required section is missing or not UTF-8 — a checksum-valid
    /// entry written by an incompatible writer, which callers quarantine.
    fn from_sections(sections: snr_store::Sections) -> Option<ReplayedRun> {
        let mut run_json = None;
        let mut human = None;
        let mut supervision = None;
        for (name, bytes) in sections {
            let text = String::from_utf8(bytes).ok()?;
            match name.as_str() {
                SECTION_RUN_JSON => run_json = Some(text),
                SECTION_HUMAN => human = Some(text),
                SECTION_SUPERVISION => supervision = Some(text),
                // Unknown sections are forward-compatible extras.
                _ => {}
            }
        }
        Some(ReplayedRun { run_json: run_json?, human: human?, supervision: supervision? })
    }
}

/// One member of a rendered Pareto front: the constraint point plus its
/// measured objectives, in canonical (ascending index) order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoFrontRow {
    /// The constraint point.
    pub point: SweepPoint,
    /// The measured objective vector.
    pub objectives: snr_pareto::Objectives,
}

/// The result of a `pareto` plan: the non-dominated front over the
/// evaluated points plus the sweep's bookkeeping. Every field that the
/// JSON rendering exposes is deterministic — identical for any job
/// count, and identical whether points were computed or replayed from
/// the durable store.
#[derive(Debug, Clone)]
pub struct ParetoResponse {
    /// The swept design.
    pub design: Arc<Design>,
    /// The technology the sweep used.
    pub tech: Technology,
    /// Size of the full canonical enumeration.
    pub points_total: usize,
    /// Points scheduled after `max_points` truncation.
    pub points_planned: usize,
    /// Points that completed (fresh + replayed).
    pub evaluated: usize,
    /// Completed points served from the durable store.
    pub replayed: usize,
    /// Completed points whose optimized assignment missed constraints
    /// (reported, never front members).
    pub infeasible: usize,
    /// Whether the deadline cancelled part of the planned sweep.
    pub cancelled: bool,
    /// The non-dominated front, ascending by point index.
    pub front: Vec<ParetoFrontRow>,
    /// The sweep's budget receipt (`pareto-sweep` phase).
    pub budget: snr_core::BudgetReport,
    /// How this sweep interacted with the warm cache.
    pub cache: CacheStatus,
}

/// The typed result of executing a plan.
#[derive(Debug, Clone)]
pub enum Response {
    /// A completed run.
    Run(Box<RunResponse>),
    /// A run replayed from the durable result store.
    Replayed(Box<ReplayedRun>),
    /// A completed lint.
    Lint(Box<CheckResponse>),
    /// A completed suite.
    Suite(SuiteResponse),
    /// A completed Pareto sweep.
    Pareto(Box<ParetoResponse>),
    /// A completed external-design import.
    Import(Box<CheckResponse>),
    /// A completed NDR Tcl export (or reimport).
    ExportNdr(Box<ExportNdrResponse>),
}

/// Executes a plan.
///
/// # Errors
///
/// The typed [`ApiError`] the front ends map to exit codes / error
/// objects. Panics inside the flow are *not* caught here (except where
/// the one-shot CLI always caught them: per suite row and around Monte
/// Carlo); resident front ends wrap the whole call in `catch_unwind` for
/// per-request isolation.
pub fn execute(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<Response, ApiError> {
    match plan {
        Plan::Run(p) => execute_run_stored(p, ctx),
        Plan::Pareto(p) => execute_pareto(p, ctx).map(|r| Response::Pareto(Box::new(r))),
        Plan::Lint(p) => execute_check(p, parse_sndr, SNDR_HINT).map(Response::Lint),
        Plan::Suite(p) => execute_suite(p, ctx).map(Response::Suite),
        Plan::Import(p) => execute_check(p, import_external, DEF_HINT).map(Response::Import),
        Plan::ExportNdr(p) => execute_export_ndr(p, ctx).map(Response::ExportNdr),
    }
}

/// The result store a plan may consult: attached to the context *and*
/// not opted out of by the request.
fn active_store<'c>(cache: CacheMode, ctx: &ExecCtx<'c>) -> Option<&'c ResultStore> {
    match (cache, ctx.store) {
        (CacheMode::On, Some(store)) => Some(store),
        _ => None,
    }
}

/// Whether a completed run may be written back to the store. Only fully
/// deterministic, undisturbed runs qualify: no wall-clock deadline (what
/// it completes is timing-dependent), no degradations taken, no injected
/// fault.
fn save_eligible(plan: &RunPlan, resp: &RunResponse) -> bool {
    #[cfg(feature = "fault-inject")]
    if plan.fault.is_some() {
        return false;
    }
    plan.timeout_s == 0.0 && !resp.mc_cancelled && resp.result.degradations().is_empty()
}

/// A result-store lookup through [`load_stored`].
pub(crate) enum Stored<T> {
    /// The verified, decoded entry.
    Hit(T),
    /// Nothing usable is stored: recompute. `Some` describes an entry
    /// that was quarantined; reporting it is the caller's.
    Recompute(Option<String>),
}

/// Loads the `kind` entry under `key` and decodes it. An entry that fails
/// verification is quarantined by the store; checksum-valid bytes `decode`
/// cannot use (an incompatible writer's sections) get the same treatment.
pub(crate) fn load_stored<T>(
    store: &ResultStore,
    kind: StoreKind,
    key: CacheKey,
    decode: impl FnOnce(snr_store::Sections) -> Option<T>,
) -> Stored<T> {
    let entry = match kind {
        StoreKind::Run => "result-store",
        StoreKind::SuiteRow | StoreKind::ParetoPoint => kind.as_str(),
    };
    match store.load_decoded(kind, key, decode) {
        Lookup::Hit(value) => Stored::Hit(value),
        Lookup::Quarantined(QuarantineReason::MissingSections) => Stored::Recompute(Some(format!(
            "{entry} entry {:016x} missing required sections",
            key.0
        ))),
        Lookup::Quarantined(reason) => Stored::Recompute(Some(format!(
            "{entry} entry {:016x} failed verification ({})",
            key.0,
            reason.as_str()
        ))),
        Lookup::Miss => Stored::Recompute(None),
    }
}

/// Looks `plan`'s result up in `store` — split from its recompute so the
/// daemon's reader can answer stored results without a worker (§3.9).
pub(crate) fn lookup_run(plan: &RunPlan, store: &ResultStore) -> Stored<Box<ReplayedRun>> {
    load_stored(store, StoreKind::Run, plan.result_key, |sections| {
        ReplayedRun::from_sections(sections).map(Box::new)
    })
}

/// The store-aware run path: consult the durable store, replay on a
/// verified hit, otherwise recompute ([`recompute_run`]).
fn execute_run_stored(plan: &RunPlan, ctx: &ExecCtx<'_>) -> Result<Response, ApiError> {
    let quarantine_detail = match active_store(plan.cache, ctx).map(|s| lookup_run(plan, s)) {
        Some(Stored::Hit(replay)) => return Ok(Response::Replayed(replay)),
        Some(Stored::Recompute(detail)) => detail,
        None => None,
    };
    recompute_run(plan, ctx, quarantine_detail)
}

/// A run whose store lookup found nothing usable: compute, write back,
/// and surface `quarantine_detail` (the lookup's quarantine, if any) as a
/// degradation event.
pub(crate) fn recompute_run(
    plan: &RunPlan,
    ctx: &ExecCtx<'_>,
    quarantine_detail: Option<String>,
) -> Result<Response, ApiError> {
    let store = active_store(plan.cache, ctx);
    let mut resp = execute_run(plan, ctx)?;

    // Write back *before* recording the quarantine rung: the stored
    // renderings must describe the computation itself, so a later replay
    // does not re-report this store's past corruption.
    if let Some(store) = store {
        if save_eligible(plan, &resp) {
            let run_json = crate::render::run_json(&resp);
            let human = crate::render::run_human(&resp);
            let supervision =
                crate::render::supervision_json(&resp.result, resp.mc_cancelled);
            // Best-effort: a full disk loses durability, not the answer.
            let _ = store.save(
                StoreKind::Run,
                plan.result_key,
                &[
                    (SECTION_RUN_JSON, run_json.as_bytes()),
                    (SECTION_HUMAN, human.as_bytes()),
                    (SECTION_SUPERVISION, supervision.as_bytes()),
                ],
            );
        }
    }

    if let Some(detail) = quarantine_detail {
        ctx.emit(&Event::StoreQuarantined { scope: "run", detail: detail.clone() });
        resp.result
            .record_degradation(snr_core::DegradationEvent::CacheEntryQuarantined { detail });
    }
    Ok(Response::Run(resp))
}

fn lock_cache(cache: &Mutex<WarmCache>) -> std::sync::MutexGuard<'_, WarmCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses/generates the design and synthesizes its tree (the cold path).
fn build_warm(
    input: &DesignInput,
    tech: &Technology,
    ctx: &ExecCtx<'_>,
) -> Result<Arc<Warm>, ApiError> {
    let design = ctx.phase("parse", || match input {
        DesignInput::Bytes(bytes) => {
            if looks_like_sndr(bytes) {
                load_design(&bytes[..]).map_err(|e| ApiError::invalid(e.to_string()))
            } else {
                import_external(bytes, Bounds::for_tech(tech), false)
                    .map(|(design, ..)| design)
                    .map_err(|e| rejection(e, DEF_HINT))
            }
        }
        DesignInput::Spec { name, sinks, seed, freq_ghz } => {
            BenchmarkSpec::new(name.clone(), *sinks)
                .seed(*seed)
                .freq_ghz(*freq_ghz)
                .build()
                .map_err(|e| ApiError::invalid(e.to_string()))
        }
    })?;
    let tree = ctx.phase("cts", || {
        synthesize(&design, tech, &CtsOptions::default())
            .map_err(|e| ApiError::infeasible(e.to_string()))
    })?;
    Ok(Arc::new(Warm { design: Arc::new(design), tree: Arc::new(tree) }))
}

/// Serves the design+tree from the warm cache or computes them.
fn acquire_warm(
    input: &DesignInput,
    tech: &Technology,
    key: CacheKey,
    cache_mode: CacheMode,
    ctx: &ExecCtx<'_>,
) -> Result<(Arc<Warm>, CacheStatus), ApiError> {
    let cache = match (cache_mode, ctx.cache) {
        (CacheMode::On, Some(cache)) => cache,
        _ => return Ok((build_warm(input, tech, ctx)?, CacheStatus::Off)),
    };
    if let Some(warm) = lock_cache(cache).lookup(key) {
        return Ok((warm, CacheStatus::Hit));
    }
    // Build outside the lock so a slow miss does not serialize the whole
    // daemon; a concurrent duplicate build is wasted work, never a wrong
    // answer (insert keeps the first entry).
    let warm = build_warm(input, tech, ctx)?;
    lock_cache(cache).insert(key, Arc::clone(&warm));
    Ok((warm, CacheStatus::Miss))
}

/// The request's limits over `tree`'s conservative baseline; a limit the
/// baseline makes unusable is a usage error naming the design.
fn relative_constraints(
    design: &Design,
    tree: &ClockTree,
    tech: &Technology,
    slew_margin: f64,
    skew_budget_ps: f64,
) -> Result<Constraints, ApiError> {
    Constraints::try_relative(tree, tech, slew_margin, skew_budget_ps)
        .map_err(|e| ApiError::usage(format!("{}: {e}", design.name())))
}

/// The cancellation token a `run` or `pareto` plan runs under: a deadline
/// `timeout_s` from now (0 = none), or a plain token when the front end
/// wants a cancellation hook, so a resident front end can cancel even
/// without a timeout. The hook receives the token; `None` when neither
/// asks for one.
fn cancel_token(timeout_s: f64, ctx: &ExecCtx<'_>) -> Option<CancelToken> {
    let token = if timeout_s > 0.0 {
        CancelToken::with_deadline(Deadline::after(Duration::from_secs_f64(timeout_s)))
    } else if ctx.on_token.is_some() {
        CancelToken::new()
    } else {
        return None;
    };
    if let Some(hook) = ctx.on_token {
        hook(&token);
    }
    Some(token)
}

/// Builds the optimizer a `method` spelling names, with the run's budget
/// attached where the optimizer supports it. Shared by `run` and
/// `export_ndr` so the two cannot disagree on what a method means.
fn make_optimizer(method: Method, budget: Budget) -> Box<dyn NdrOptimizer> {
    match method {
        Method::Smart => Box::new(SmartNdr::default().with_budget(budget)),
        Method::Greedy => Box::new(GreedyDowngrade::default().with_budget(budget)),
        Method::Upgrade => Box::new(GreedyUpgradeRepair::default().with_budget(budget)),
        Method::Level => Box::new(LevelBased),
        Method::Uniform => Box::new(Uniform::conservative()),
        Method::Anneal => Box::new(Annealing::new(20_000, 1).with_budget(budget)),
    }
}

fn execute_run(plan: &RunPlan, ctx: &ExecCtx<'_>) -> Result<Box<RunResponse>, ApiError> {
    #[cfg(feature = "fault-inject")]
    if plan.fault == Some(crate::request::ServeFault::Panic) {
        panic!("injected fault: poisoned request");
    }

    let (warm, cache_status) = acquire_warm(&plan.input, &plan.tech, plan.key, plan.cache, ctx)?;
    let design = Arc::clone(&warm.design);
    let tree = Arc::clone(&warm.tree);

    let constraints =
        relative_constraints(&design, &tree, &plan.tech, plan.slew_margin, plan.skew_budget_ps)?;
    let opt_ctx = OptContext::new(&tree, &plan.tech, PowerModel::new(design.freq_ghz()))
        .with_constraints(constraints);

    let mut budget = Budget::unlimited();
    if plan.max_iters > 0 {
        budget = budget.with_max_iters(plan.max_iters);
    }
    let token = cancel_token(plan.timeout_s, ctx);
    if let Some(t) = &token {
        budget = budget.with_token(t.clone());
    }

    let method = make_optimizer(plan.method, budget);

    let baseline = opt_ctx.conservative_baseline();
    let result = ctx.phase("optimize", || method.optimize(&opt_ctx));

    let mut variation = None;
    let mut mc_cancelled = false;
    if plan.mc_samples > 0 {
        let mut mc = MonteCarlo::new(VariationModel::default(), plan.mc_samples, 7);
        if let Some(par) = plan.jobs {
            mc = mc.with_parallelism(par);
        }
        // A panicking sample worker surfaces here after every worker has
        // joined; map it to the typed infeasible error so front ends
        // report it instead of aborting. Results are bit-identical per
        // job count, so jobs=1 reproduces the failure serially. The
        // baseline and the result are analyzed on one draw.
        let mc_token = token.clone().unwrap_or_default();
        let reps = ctx.phase("mc", || {
            catch_unwind(AssertUnwindSafe(|| -> Result<_, VariationError> {
                let deviations = mc.deviations(&tree, &mc_token)?;
                let analyze = |asg| {
                    mc.run_with_deviations(&tree, &plan.tech, asg, &deviations, &mc_token)
                };
                Ok((analyze(baseline.assignment())?, analyze(result.assignment())?))
            }))
        })
        .map_err(|payload| {
            ApiError::infeasible(format!(
                "Monte Carlo analysis panicked on {}: {} (re-run with --jobs 1 to localize)",
                design.name(),
                panic_message(&*payload, 120),
            ))
        })?;
        match reps {
            Ok((rep_base, rep_out)) => {
                variation = Some((rep_base.sigma_skew_ps(), rep_out.sigma_skew_ps()));
            }
            // The deadline fired mid-analysis. Partial statistics would
            // silently change the reported distribution, so the variation
            // section is dropped rather than degraded.
            Err(VariationError::Cancelled) => mc_cancelled = true,
            // Optimizer assignments always draw from the plan's rule set,
            // but the typed error must still be surfaced, not swallowed.
            Err(e @ VariationError::RuleOutOfRange { .. }) => {
                return Err(ApiError::infeasible(format!(
                    "Monte Carlo analysis rejected {}: {e}",
                    design.name()
                )));
            }
        }
    }

    let constraints = opt_ctx.constraints();
    Ok(Box::new(RunResponse {
        design,
        tree,
        tech: plan.tech.clone(),
        constraints,
        baseline,
        result,
        mc_samples: plan.mc_samples,
        variation,
        mc_cancelled,
        cache: cache_status,
    }))
}

/// The section name a pareto-point entry stores.
const SECTION_EVAL: &str = "eval";

/// Reassembles a point evaluation from a verified store entry. `None`
/// when the `eval` section is missing, not UTF-8, or written by an
/// incompatible encoder — callers quarantine, exactly like runs.
fn pareto_eval_from_sections(sections: snr_store::Sections) -> Option<PointEval> {
    for (name, bytes) in sections {
        if name == SECTION_EVAL {
            let text = String::from_utf8(bytes).ok()?;
            return snr_pareto::decode_eval(&text);
        }
    }
    None
}

/// Executes a Pareto sweep: evaluates every planned constraint point
/// (replaying completed points from the durable store where possible)
/// and folds the feasible evaluations through the dominance filter.
///
/// Determinism contract: each point's evaluation is seeded, its
/// optimizer serial and its Monte-Carlo bit-identical for any thread
/// count (with `jobs` it runs on the point's own worker, so a sweep never
/// exceeds `jobs` threads) — `par_map` returns results in enumeration
/// order, making the front (and its rendering) bit-identical for any
/// `--jobs` value, and identical whether a point was computed fresh or
/// replayed from the store.
fn execute_pareto(plan: &ParetoPlan, ctx: &ExecCtx<'_>) -> Result<ParetoResponse, ApiError> {
    let store = active_store(plan.cache, ctx);
    let (warm, cache_status) =
        acquire_warm(&plan.input, &plan.tech, plan.key, plan.cache, ctx)?;
    let design = Arc::clone(&warm.design);
    let tree = Arc::clone(&warm.tree);

    // The conservative-uniform baseline anchors every point's limits and
    // the relative track-budget axis: analyzed once, shared by every point
    // together with the Monte-Carlo deviations the first point draws.
    let sweep = SweepContext::new(&design, &tree, &plan.tech, plan.eval);
    if !plan.spec.track_fracs.is_empty() && sweep.baseline_track_um() <= 0.0 {
        return Err(ApiError::invalid(format!(
            "{}: track fractions need a clock tree with wire, and its baseline track cost is 0",
            design.name()
        )));
    }
    // Skew budgets are finite, so only a slew limit can overflow, and the
    // widest margin gives the largest: if it is usable, every point's is.
    let widest = plan.spec.slew_margins.iter().copied().fold(1.0, f64::max);
    sweep
        .constraints(widest, plan.eval.relaxed_skew_budget_ps)
        .map_err(|e| ApiError::usage(format!("{}: {e}", design.name())))?;

    let token = cancel_token(plan.timeout_s, ctx);

    // `max_points` truncation is a deterministic prefix of the canonical
    // enumeration, decided before any point is dispatched.
    let planned = if plan.max_points > 0 {
        plan.points.len().min(plan.max_points as usize)
    } else {
        plan.points.len()
    };
    let active = &plan.points[..planned];
    let par = plan.jobs.unwrap_or_else(Parallelism::serial);
    let start = Instant::now();

    // `None` slots are cancelled points: a fired deadline drops the whole
    // point (never a partial result), so everything that *does* land is
    // identical to what an untimed sweep would have produced.
    let evals: Vec<Option<(PointEval, bool)>> = ctx.phase("sweep", || {
        par_map(par, active, |_, point| {
            let key = store.map(|_| plan.point_key(point));
            if let (Some(store), Some(key)) = (store, key) {
                match load_stored(store, StoreKind::ParetoPoint, key, pareto_eval_from_sections) {
                    Stored::Hit(eval) => {
                        ctx.emit(&Event::FrontPoint { index: point.index, eval, replayed: true });
                        return Some((eval, true));
                    }
                    Stored::Recompute(Some(detail)) => {
                        ctx.emit(&Event::StoreQuarantined { scope: "pareto", detail });
                    }
                    Stored::Recompute(None) => {}
                }
            }
            let eval = snr_pareto::evaluate_point(&sweep, point, token.as_ref())?;
            ctx.emit(&Event::FrontPoint { index: point.index, eval, replayed: false });
            // Every completed point is replay-safe — evaluation is fully
            // serial and seeded, so even a degraded point (and a point
            // that completed under a cooperative deadline) is identical
            // to what any later sweep would recompute. Best-effort: a
            // full disk loses durability, not the answer.
            if let (Some(store), Some(key)) = (store, key) {
                let _ = store.save(
                    StoreKind::ParetoPoint,
                    key,
                    &[(SECTION_EVAL, snr_pareto::encode_eval(&eval).as_bytes())],
                );
            }
            Some((eval, false))
        })
    });

    #[cfg(test)]
    tests::SWEEP_DREW.with(|drew| drew.set(sweep.deviations_drawn()));

    let mut front = ParetoFront::new();
    let mut evaluated = 0usize;
    let mut replayed = 0usize;
    let mut infeasible = 0usize;
    let mut cancelled = false;
    for (point, slot) in active.iter().zip(&evals) {
        match slot {
            None => cancelled = true,
            Some((eval, was_replayed)) => {
                evaluated += 1;
                if *was_replayed {
                    replayed += 1;
                }
                if eval.meets {
                    front.insert(FrontPoint { index: point.index, objectives: eval.objectives });
                } else {
                    infeasible += 1;
                }
            }
        }
    }

    let front = front
        .into_sorted()
        .into_iter()
        .map(|fp| ParetoFrontRow {
            point: plan.points[fp.index],
            objectives: fp.objectives,
        })
        .collect();

    let budget = snr_core::BudgetReport {
        phase: "pareto-sweep",
        iterations_done: evaluated as u64,
        elapsed: start.elapsed(),
        exhausted: cancelled || planned < plan.points.len(),
    };

    Ok(ParetoResponse {
        design,
        tech: plan.tech.clone(),
        points_total: plan.points.len(),
        points_planned: planned,
        evaluated,
        replayed,
        infeasible,
        cancelled,
        front,
        budget,
        cache: cache_status,
    })
}

/// What a design parser returns: the design with every diagnostic found
/// and every repair applied.
type Parsed = (Design, Vec<Diagnostic>, Vec<Repair>);

/// The hint a `.sndr` syntax failure carries.
const SNDR_HINT: &str = " (syntax error; run with a valid .sndr file)";
/// The hint a DEF-lite syntax failure carries.
const DEF_HINT: &str = " (not a readable DEF-lite/ISPD file)";

/// The `.sndr` parser, under `bounds`, repairing when asked.
fn parse_sndr(bytes: &[u8], bounds: Bounds, repair: bool) -> Result<Parsed, NetlistError> {
    let report = load_design_with(bytes, &LoadOptions { bounds, repair })?;
    Ok((report.design, report.diagnostics, report.repairs))
}

/// The bounded DEF-lite importer, under `bounds`, repairing when asked. A
/// rejection carries every diagnostic, always at least one `I`-series
/// code.
fn import_external(bytes: &[u8], bounds: Bounds, repair: bool) -> Result<Parsed, NetlistError> {
    let opts = ImportOptions { bounds, repair, limits: ImportLimits::default() };
    let report = import_design_with(bytes, &opts)?;
    Ok((report.design, report.diagnostics, report.repairs))
}

/// A parser's rejection as a typed error carrying every diagnostic as a
/// detail line, so front ends can show every problem at once instead of
/// the first; a syntax failure ends with the parser's `parse_hint`.
fn rejection(e: NetlistError, parse_hint: &str) -> ApiError {
    let details: Vec<String> = e.diagnostics().iter().map(|d| d.to_string()).collect();
    let hint = match e.kind() {
        ErrorKind::Parse => parse_hint,
        _ if !details.is_empty() => " (re-run with --repair to attempt salvage)",
        _ => "",
    };
    ApiError::invalid(format!("{e}{hint}")).with_details(details)
}

/// `.sndr` files always open with their `sndr <version>` magic; any other
/// design bytes are treated as external DEF-lite, so `run`/`suite`/
/// `pareto`/`export-ndr` accept imported formats directly (strict import —
/// salvage belongs to the explicit `import --repair`).
fn looks_like_sndr(bytes: &[u8]) -> bool {
    let start = bytes.iter().position(|b| !b.is_ascii_whitespace()).unwrap_or(0);
    bytes[start..].starts_with(b"sndr")
}

/// Checks a design with the op's `parse` (`parse_hint` follows its syntax
/// failures). A rejection surfaces every diagnostic as error details, and
/// a design that loads but cannot be synthesized is *infeasible*, not
/// invalid: a constraint problem, not an input one. The diagnostics
/// travel with that error too, so nothing already discovered is lost.
fn execute_check(
    plan: &CheckPlan,
    parse: fn(&[u8], Bounds, bool) -> Result<Parsed, NetlistError>,
    parse_hint: &str,
) -> Result<Box<CheckResponse>, ApiError> {
    let bounds = Bounds::for_tech(&plan.tech);
    let (design, diagnostics, repairs) =
        parse(&plan.bytes, bounds, plan.repair).map_err(|e| rejection(e, parse_hint))?;
    let diagnostics: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
    let repairs: Vec<String> = repairs.iter().map(|r| r.to_string()).collect();

    synthesize(&design, &plan.tech, &CtsOptions::default()).map_err(|e| {
        let mut details = diagnostics.clone();
        details.extend(repairs.iter().cloned());
        ApiError::infeasible(format!("{}: {e}", design.name())).with_details(details)
    })?;

    Ok(Box::new(CheckResponse { design: Arc::new(design), diagnostics, repairs }))
}

/// Solves (or reimports) an assignment and renders it as NDR Tcl. The
/// solve path is deliberately serial and unbudgeted so the script is a
/// pure function of (design bytes, tech, method, constraints) — exported
/// artifacts must be byte-for-byte reproducible.
fn execute_export_ndr(
    plan: &ExportNdrPlan,
    ctx: &ExecCtx<'_>,
) -> Result<Box<ExportNdrResponse>, ApiError> {
    let (warm, _) = acquire_warm(&plan.input, &plan.tech, plan.key, CacheMode::On, ctx)?;
    let design = Arc::clone(&warm.design);
    let tree = Arc::clone(&warm.tree);

    let assignment = match &plan.from_tcl {
        Some(text) => snr_cts::import_ndr_tcl(text, &tree, &plan.tech)
            .map_err(|e| ApiError::invalid(format!("NDR script rejected: {e}")))?,
        None => {
            let constraints = relative_constraints(
                &design,
                &tree,
                &plan.tech,
                plan.slew_margin,
                plan.skew_budget_ps,
            )?;
            let opt_ctx = OptContext::new(&tree, &plan.tech, PowerModel::new(design.freq_ghz()))
                .with_constraints(constraints);
            let method = make_optimizer(plan.method, Budget::unlimited());
            let out = ctx.phase("optimize", || method.optimize(&opt_ctx));
            if !out.meets_constraints() {
                return Err(ApiError::infeasible(format!(
                    "{}: no feasible assignment under slew margin {} / skew budget {} ps",
                    design.name(),
                    plan.slew_margin,
                    plan.skew_budget_ps
                )));
            }
            out.assignment().clone()
        }
    };
    let tcl = snr_cts::export_ndr_tcl(design.name(), &tree, &assignment, &plan.tech);
    Ok(Box::new(ExportNdrResponse {
        design,
        tree,
        tech: plan.tech.clone(),
        assignment,
        tcl,
        reimported: plan.from_tcl.is_some(),
    }))
}

/// Collapses `s` to one whitespace-normalized reason token stream of at
/// most `max` chars (`-` when empty), so it fits a single table column.
fn reason_cell(s: &str, max: usize) -> String {
    let mut out = s.split_whitespace().collect::<Vec<_>>().join(" ");
    if out.is_empty() {
        out.push('-');
    }
    if out.chars().count() > max {
        out = out.chars().take(max.saturating_sub(1)).collect();
        out.push('…');
    }
    out
}

/// The deterministic columns of a row whose flow did not finish, with the
/// failure reason in the reason column.
fn failed_line(name: &str, sinks: &str, reason: &str) -> String {
    format!("{name:<8} {sinks:>8} {:>12} {:>12} {:>8} {:<8}", "FAILED", "-", "-", reason)
}

/// Evaluates one suite entry. Runs on a worker thread under `jobs`; the
/// whole flow sits inside `catch_unwind` so a poisoned design (bad file,
/// synthesis failure, even a panic in the flow) becomes a `FAILED` row —
/// carrying the truncated panic message in its reason column — instead of
/// taking down the run. Degradation-ladder rungs taken by a successful
/// run surface in the same column as `degraded:<rung,...>`.
fn suite_row(entry: &SuiteEntry, tech: &Technology) -> SuiteRow {
    let design = match entry {
        SuiteEntry::Design(d) => d,
        SuiteEntry::Unloadable { name, reason } => {
            return SuiteRow {
                diagnostic: Some(format!("{name}: {reason}")),
                name: name.clone(),
                line: failed_line(name, "-", &reason_cell(reason, 60)),
                runtime_s: None,
                failed: true,
            }
        }
    };
    let row = catch_unwind(AssertUnwindSafe(|| -> Result<(String, f64), String> {
        let tree = synthesize(design, tech, &CtsOptions::default()).map_err(|e| e.to_string())?;
        let ctx = OptContext::new(&tree, tech, PowerModel::new(design.freq_ghz()));
        let base = ctx.conservative_baseline();
        let out = SmartNdr::default().optimize(&ctx);
        let mut rungs: Vec<&str> = Vec::new();
        for d in out.degradations() {
            if !rungs.contains(&d.rung()) {
                rungs.push(d.rung());
            }
        }
        let reason = if rungs.is_empty() {
            "-".to_owned()
        } else {
            format!("degraded:{}", rungs.join(","))
        };
        Ok((
            format!(
                "{:<8} {:>8} {:>12.1} {:>12.1} {:>7.1}% {:<8}",
                design.name(),
                design.sinks().len(),
                base.power().network_uw(),
                out.power().network_uw(),
                100.0 * out.network_saving_vs(&base),
                reason,
            ),
            out.elapsed().as_secs_f64(),
        ))
    }));
    let name = design.name().to_owned();
    let sinks = design.sinks().len().to_string();
    match row {
        Ok(Ok((line, rt))) => {
            SuiteRow { diagnostic: None, name, line, runtime_s: Some(rt), failed: false }
        }
        Ok(Err(reason)) => SuiteRow {
            diagnostic: Some(format!("{name}: {reason}")),
            line: failed_line(&name, &sinks, &reason_cell(&reason, 60)),
            name,
            runtime_s: None,
            failed: true,
        },
        Err(panic) => {
            let reason = panic_message(&*panic, 60);
            SuiteRow {
                diagnostic: Some(format!("{name}: panicked: {reason}")),
                line: failed_line(&name, &sinks, &reason),
                name,
                runtime_s: None,
                failed: true,
            }
        }
    }
}

/// Reassembles a suite row from a verified store entry. Stored rows are
/// always clean ones (see the save gate), so the diagnostic is empty; the
/// runtime was not re-measured.
fn suite_row_from_sections(sections: snr_store::Sections) -> Option<SuiteRow> {
    let mut name = None;
    let mut line = None;
    for (section, bytes) in sections {
        let text = String::from_utf8(bytes).ok()?;
        match section.as_str() {
            "name" => name = Some(text),
            "line" => line = Some(text),
            _ => {}
        }
    }
    Some(SuiteRow {
        name: name?,
        line: line?,
        diagnostic: None,
        runtime_s: None,
        failed: false,
    })
}

fn execute_suite(plan: &SuitePlan, ctx: &ExecCtx<'_>) -> Result<SuiteResponse, ApiError> {
    let store = active_store(plan.cache, ctx);
    let rows = par_map(plan.par, &plan.entries, |_, entry| {
        let key = match (store, entry) {
            (Some(_), SuiteEntry::Design(d)) => suite_row_key(d, &plan.tech),
            _ => None,
        };
        if let (Some(store), Some(key)) = (store, key) {
            match load_stored(store, StoreKind::SuiteRow, key, suite_row_from_sections) {
                // Replayed rows are not re-announced (no SuiteRow event).
                Stored::Hit(row) => return row,
                Stored::Recompute(Some(detail)) => {
                    ctx.emit(&Event::StoreQuarantined { scope: "suite", detail });
                }
                Stored::Recompute(None) => {}
            }
        }
        let row = suite_row(entry, &plan.tech);
        ctx.emit(&Event::SuiteRow(row.clone()));
        // Only clean, undegraded rows are worth replaying; failures and
        // degraded runs re-evaluate every time.
        if let (Some(store), Some(key)) = (store, key) {
            if !row.failed && row.diagnostic.is_none() && !row.line.contains("degraded:") {
                let _ = store.save(
                    StoreKind::SuiteRow,
                    key,
                    &[("name", row.name.as_bytes()), ("line", row.line.as_bytes())],
                );
            }
        }
        row
    });
    let failed = rows.iter().filter(|r| r.failed).count();
    Ok(SuiteResponse { rows, failed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{DesignSource, ParetoRequest, Request};
    use std::cell::Cell;

    thread_local! {
        /// Whether the last sweep this thread executed drew its
        /// Monte-Carlo deviations.
        pub(super) static SWEEP_DREW: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn a_sweep_replayed_from_the_store_never_draws() {
        let dir = std::env::temp_dir().join(format!("snr-exec-draws-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let ctx = ExecCtx { cache: None, sink: None, on_token: None, store: Some(&store) };
        let mut req =
            ParetoRequest::new(DesignSource::Generate { sinks: 40, seed: 3, freq_ghz: 1.0 });
        req.mc_samples = 37;
        req.jobs = Some(2);
        let plan = crate::plan::plan(&Request::Pareto(req)).unwrap();
        let sweep = |want_drawn: bool| {
            let Ok(Response::Pareto(resp)) = execute(&plan, &ctx) else {
                panic!("a sweep answers with a front");
            };
            assert_eq!(SWEEP_DREW.get(), want_drawn);
            resp
        };
        let cold = sweep(true);
        let warm = sweep(false);
        assert_eq!((cold.replayed, warm.replayed), (0, cold.points_total));
        assert_eq!(crate::render::pareto_json(&cold), crate::render::pareto_json(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
