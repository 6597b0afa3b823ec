//! Typed requests: what a caller asks the flow to do.
//!
//! A [`Request`] is the single entry point shared by the one-shot CLI and
//! the resident daemon: the CLI builds one from flags, the daemon parses
//! one per protocol line. Either way it then goes through
//! [`plan`](crate::plan::plan) and [`execute`](crate::exec::execute) — one
//! code path for one-shot and resident execution.

use crate::error::ApiError;
use crate::json::Json;

/// Where a request's design comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSource {
    /// A `.sndr` file on disk; read (and content-hashed) at plan time.
    Path(String),
    /// Inline `.sndr` text carried by the request itself.
    Inline(String),
    /// Generate a benchmark on the fly. The design is named
    /// `cli-s{sinks}`, matching what `smart-ndr run --sinks` produces, so
    /// one-shot and resident outputs stay byte-identical.
    Generate {
        /// Number of sinks.
        sinks: usize,
        /// Generator seed.
        seed: u64,
        /// Clock frequency in GHz.
        freq_ghz: f64,
    },
}

/// The technology to run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TechId {
    /// The 45 nm demo technology (default).
    #[default]
    N45,
    /// The 32 nm demo technology.
    N32,
}

impl TechId {
    /// Parses the CLI/protocol spelling.
    pub fn parse(s: &str) -> Result<TechId, ApiError> {
        match s {
            "n45" => Ok(TechId::N45),
            "n32" => Ok(TechId::N32),
            other => Err(ApiError::usage(format!("unknown --tech {other:?} (n45|n32)"))),
        }
    }

    /// Resolves to the concrete technology model.
    pub fn resolve(self) -> snr_tech::Technology {
        match self {
            TechId::N45 => snr_tech::Technology::n45(),
            TechId::N32 => snr_tech::Technology::n32(),
        }
    }

    /// The CLI/protocol spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            TechId::N45 => "n45",
            TechId::N32 => "n32",
        }
    }
}

/// The optimizer a run request uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Best of the two greedy constructions (default, the headline flow).
    #[default]
    Smart,
    /// Sensitivity-ordered downgrades from the conservative start.
    Greedy,
    /// Upgrades from the all-default start until feasible.
    Upgrade,
    /// Conservative near the root, default near the leaves.
    Level,
    /// One conservative rule everywhere.
    Uniform,
    /// Simulated annealing.
    Anneal,
}

impl Method {
    /// Parses the CLI/protocol spelling.
    pub fn parse(s: &str) -> Result<Method, ApiError> {
        match s {
            "smart" => Ok(Method::Smart),
            "greedy" => Ok(Method::Greedy),
            "upgrade" => Ok(Method::Upgrade),
            "level" => Ok(Method::Level),
            "uniform" => Ok(Method::Uniform),
            "anneal" => Ok(Method::Anneal),
            other => Err(ApiError::usage(format!("unknown --method {other:?}"))),
        }
    }

    /// The CLI/protocol spelling (also part of result-store keys).
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Smart => "smart",
            Method::Greedy => "greedy",
            Method::Upgrade => "upgrade",
            Method::Level => "level",
            Method::Uniform => "uniform",
            Method::Anneal => "anneal",
        }
    }
}

/// Whether a request may consult (and populate) the warm cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Use the cache when one is attached to the execution context.
    #[default]
    On,
    /// Bypass the cache entirely (the `"cache": "off"` escape hatch).
    Off,
}

/// An injected request fault for chaos-testing the daemon's isolation
/// (feature `fault-inject` only; plain builds reject the field).
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeFault {
    /// Panic inside `execute`, after planning succeeded.
    Panic,
}

/// A `run` request: the full NDR flow on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The design to evaluate.
    pub design: DesignSource,
    /// Technology to run under.
    pub tech: TechId,
    /// Optimizer to use.
    pub method: Method,
    /// Slew margin over the conservative baseline (≥ 1).
    pub slew_margin: f64,
    /// Absolute skew budget in ps.
    pub skew_budget_ps: f64,
    /// Monte-Carlo sample count (0 = skip variation analysis).
    pub mc_samples: usize,
    /// Worker threads for Monte Carlo (`None` auto-detects cores); the
    /// optimizer always runs serially.
    pub jobs: Option<usize>,
    /// Cooperative wall-clock deadline in seconds (0 = off).
    pub timeout_s: f64,
    /// Per-phase iteration cap (0 = off).
    pub max_iters: u64,
    /// Cache participation.
    pub cache: CacheMode,
    /// Injected fault (chaos testing only).
    #[cfg(feature = "fault-inject")]
    pub fault: Option<ServeFault>,
}

impl RunRequest {
    /// A request with the CLI's defaults for everything but the design.
    pub fn new(design: DesignSource) -> Self {
        RunRequest {
            design,
            tech: TechId::default(),
            method: Method::default(),
            slew_margin: 1.10,
            skew_budget_ps: 30.0,
            mc_samples: 0,
            jobs: None,
            timeout_s: 0.0,
            max_iters: 0,
            cache: CacheMode::default(),
            #[cfg(feature = "fault-inject")]
            fault: None,
        }
    }
}

/// A `pareto` request: sweep constraint space (slew margin × skew budget
/// / useful-skew window × track budget) and return the non-dominated
/// front over (power, skew, robustness, track cost).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoRequest {
    /// The design to sweep.
    pub design: DesignSource,
    /// Technology to run under.
    pub tech: TechId,
    /// Slew margins over the conservative baseline (each ≥ 1).
    pub slew_margins: Vec<f64>,
    /// Global skew budgets, ps.
    pub skew_budgets_ps: Vec<f64>,
    /// Useful-skew window half-widths, ps (may be empty).
    pub windows_ps: Vec<f64>,
    /// Track budgets as fractions of the baseline track cost.
    pub track_fracs: Vec<f64>,
    /// Enforce feasibility at the slow/fast corners too.
    pub corners: bool,
    /// Monte-Carlo sample count for the robustness axis (0 = off).
    pub mc_samples: usize,
    /// Worker threads across sweep points; `None` = serial.
    pub jobs: Option<usize>,
    /// Cooperative wall-clock deadline in seconds (0 = off); anytime —
    /// the front over the completed points is returned.
    pub timeout_s: f64,
    /// Deterministic truncation: evaluate only the first N points of the
    /// canonical enumeration (0 = all).
    pub max_points: u64,
    /// Cache participation.
    pub cache: CacheMode,
}

impl ParetoRequest {
    /// A request with the default sweep (the table-5 / fig-9 slices
    /// generalized) for everything but the design.
    pub fn new(design: DesignSource) -> Self {
        let spec = snr_pareto::SweepSpec::default_sweep();
        ParetoRequest {
            design,
            tech: TechId::default(),
            slew_margins: spec.slew_margins,
            skew_budgets_ps: spec.skew_budgets_ps,
            windows_ps: spec.windows_ps,
            track_fracs: spec.track_fracs,
            corners: false,
            mc_samples: snr_pareto::EvalConfig::default().mc_samples,
            jobs: None,
            timeout_s: 0.0,
            max_points: 0,
            cache: CacheMode::default(),
        }
    }
}

/// A `lint` request: validate (and optionally repair) a design without
/// running the flow.
#[derive(Debug, Clone, PartialEq)]
pub struct LintRequest {
    /// The design to validate.
    pub design: DesignSource,
    /// Technology whose bounds the validation uses.
    pub tech: TechId,
    /// Attempt to repair salvageable diagnostics.
    pub repair: bool,
}

/// An `import` request: parse an external DEF-lite/ISPD file into the
/// native design database through the validate → repair → finish
/// pipeline. The hostile-input counterpart of [`LintRequest`]: the bytes
/// are untrusted, so the importer enforces resource limits and reports
/// `I`-series diagnostics instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportRequest {
    /// The DEF-lite file (or inline text) to import.
    pub design: DesignSource,
    /// Technology whose bounds the validation uses.
    pub tech: TechId,
    /// Attempt to repair salvageable diagnostics.
    pub repair: bool,
}

/// An `export_ndr` request: solve (or reimport) a routing-rule assignment
/// for one design and render it as OpenROAD `create_ndr`/`assign_ndr`
/// Tcl. With `from_tcl` set, the named script is parsed back into an
/// assignment instead of solving — the round-trip path interop checks
/// use to prove `import(export(a)) == a`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportNdrRequest {
    /// The design the assignment is for.
    pub design: DesignSource,
    /// Technology to run under.
    pub tech: TechId,
    /// Optimizer producing the assignment (ignored with `from_tcl`).
    pub method: Method,
    /// Slew margin over the conservative baseline (≥ 1).
    pub slew_margin: f64,
    /// Absolute skew budget in ps.
    pub skew_budget_ps: f64,
    /// Path of a previously exported script to reimport instead of
    /// solving.
    pub from_tcl: Option<String>,
}

impl ExportNdrRequest {
    /// A request with the run defaults for everything but the design.
    pub fn new(design: DesignSource) -> Self {
        ExportNdrRequest {
            design,
            tech: TechId::default(),
            method: Method::default(),
            slew_margin: 1.10,
            skew_budget_ps: 30.0,
            from_tcl: None,
        }
    }
}

/// Which designs a `suite` request evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteSource {
    /// The built-in 8-design ISPD-like suite.
    Builtin,
    /// Every `.sndr` file in a directory (sorted by name).
    Dir(String),
}

/// A `suite` request: the headline table over many designs.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRequest {
    /// Designs to evaluate.
    pub source: SuiteSource,
    /// Technology to run under.
    pub tech: TechId,
    /// Worker threads across designs; `None` = serial.
    pub jobs: Option<usize>,
    /// Cache participation (`--no-cache` / `"cache": "off"` bypasses the
    /// per-row result store).
    pub cache: CacheMode,
}

/// A job request: work that goes through plan → execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Full flow on one design.
    Run(RunRequest),
    /// Constraint-space sweep returning the Pareto front.
    Pareto(ParetoRequest),
    /// Validation / repair of one design.
    Lint(LintRequest),
    /// The multi-design table.
    Suite(SuiteRequest),
    /// Import an external DEF-lite/ISPD design.
    Import(ImportRequest),
    /// Export (or reimport) an NDR assignment as OpenROAD Tcl.
    ExportNdr(ExportNdrRequest),
}

impl Request {
    /// Gives a `run` or `pareto` request that names no `jobs` one thread,
    /// so it samples its Monte-Carlo on the thread executing it instead of
    /// on every core. Results are bit-identical for any job count; the
    /// daemon applies this to every job, so `serve --jobs N` runs at most
    /// `N` request threads.
    pub(crate) fn on_one_thread(mut self) -> Self {
        match &mut self {
            Request::Run(r) => {
                r.jobs.get_or_insert(1);
            }
            Request::Pareto(r) => {
                r.jobs.get_or_insert(1);
            }
            // Suites without `jobs` are serial; the rest never sample.
            Request::Lint(_) | Request::Suite(_) | Request::Import(_) | Request::ExportNdr(_) => {}
        }
        self
    }
}

/// A control operation the daemon answers directly, without scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// Report cache, queue and timing statistics.
    Stats,
    /// Cancel a queued or in-flight request by id.
    Cancel {
        /// The id of the request to cancel.
        target: u64,
    },
    /// Stop accepting input; drain the queue and exit.
    Shutdown,
}

/// One parsed protocol line: the request id (required for jobs, optional
/// for control ops) plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Caller-chosen request id, echoed on every response and event line.
    pub id: Option<u64>,
    /// What to do.
    pub op: Op,
}

/// The operation of an [`Envelope`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Schedulable work.
    Job(Request),
    /// Directly-answered control operation.
    Control(Control),
}

/// One JSON object, read field by field. Every key looked up is recorded,
/// so [`Fields::finish`] can reject the first key nothing read: the reads
/// themselves are the one record of what a request accepts.
struct Fields<'j> {
    pairs: &'j [(String, Json)],
    read: Vec<&'static str>,
    /// This object's dotted path in the request: `""` for the protocol
    /// line itself, else ending in `.`.
    at: &'static str,
}

impl<'j> Fields<'j> {
    fn new(v: &'j Json, at: &'static str) -> Result<Self, ApiError> {
        match v {
            Json::Obj(pairs) => Ok(Fields { pairs, read: Vec::new(), at }),
            _ if at.is_empty() => Err(ApiError::usage("protocol line must be a JSON object")),
            _ => Err(ApiError::usage(format!(
                "{:?} must be a JSON object",
                at.trim_end_matches('.')
            ))),
        }
    }

    fn get(&mut self, key: &'static str) -> Option<&'j Json> {
        self.read.push(key);
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of `key` through `conv`, or `None` when absent; a value
    /// `conv` rejects is a usage error saying it must be `kind`.
    fn typed<T>(
        &mut self,
        key: &'static str,
        conv: fn(&'j Json) -> Option<T>,
        kind: &str,
    ) -> Result<Option<T>, ApiError> {
        self.get(key)
            .map(|v| conv(v).ok_or_else(|| ApiError::usage(format!("field {key:?} must be {kind}"))))
            .transpose()
    }

    /// Rejects the first key no read looked up.
    fn finish(self) -> Result<(), ApiError> {
        match self.pairs.iter().find(|(k, _)| !self.read.contains(&k.as_str())) {
            Some((key, _)) => {
                Err(ApiError::usage(format!("unknown field {:?}", format!("{}{key}", self.at))))
            }
            None => Ok(()),
        }
    }
}

fn get_f64(obj: &mut Fields, key: &'static str, default: f64) -> Result<f64, ApiError> {
    Ok(obj.typed(key, Json::as_f64, "a number")?.unwrap_or(default))
}

fn get_u64(obj: &mut Fields, key: &'static str, default: u64) -> Result<u64, ApiError> {
    Ok(obj.typed(key, Json::as_u64, "a non-negative integer")?.unwrap_or(default))
}

fn get_bool(obj: &mut Fields, key: &'static str) -> Result<bool, ApiError> {
    Ok(obj.typed(key, Json::as_bool, "a boolean")?.unwrap_or(false))
}

fn get_str<'j>(obj: &mut Fields<'j>, key: &'static str) -> Result<Option<&'j str>, ApiError> {
    obj.typed(key, Json::as_str, "a string")
}

/// Parses the `design` field of a request: exactly one of `path`,
/// `inline` or `generate`.
fn design_source(obj: &mut Fields) -> Result<DesignSource, ApiError> {
    let Some(design) = obj.get("design") else {
        return Err(ApiError::usage("request needs a \"design\" object"));
    };
    let mut design = Fields::new(design, "design.")?;
    let source = if let Some(path) = get_str(&mut design, "path")? {
        DesignSource::Path(path.to_owned())
    } else if let Some(text) = get_str(&mut design, "inline")? {
        DesignSource::Inline(text.to_owned())
    } else if let Some(gen) = design.get("generate") {
        let mut gen = Fields::new(gen, "design.generate.")?;
        let sinks = get_u64(&mut gen, "sinks", 0)? as usize;
        if sinks == 0 {
            return Err(ApiError::usage("\"generate\" needs a positive \"sinks\" count"));
        }
        let seed = get_u64(&mut gen, "seed", 1)?;
        let freq_ghz = get_f64(&mut gen, "freq_ghz", 1.0)?;
        gen.finish()?;
        DesignSource::Generate { sinks, seed, freq_ghz }
    } else {
        return Err(ApiError::usage(
            "\"design\" must carry \"path\", \"inline\" or \"generate\"",
        ));
    };
    design.finish()?;
    Ok(source)
}

/// Parses an optional JSON array of numbers (e.g. `"slew_margins":
/// [1.05, 1.2]`). `None` when the field is absent.
fn f64_list(obj: &mut Fields, key: &'static str) -> Result<Option<Vec<f64>>, ApiError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| {
                    ApiError::usage(format!("field {key:?} must contain only numbers"))
                })
            })
            .collect::<Result<Vec<f64>, ApiError>>()
            .map(Some),
        Some(_) => Err(ApiError::usage(format!("field {key:?} must be an array of numbers"))),
    }
}

fn tech_of(obj: &mut Fields) -> Result<TechId, ApiError> {
    match get_str(obj, "tech")? {
        None => Ok(TechId::default()),
        Some(s) => TechId::parse(s),
    }
}

fn method_of(obj: &mut Fields) -> Result<Method, ApiError> {
    match get_str(obj, "method")? {
        None => Ok(Method::default()),
        Some(m) => Method::parse(m),
    }
}

fn jobs_of(obj: &mut Fields) -> Result<Option<usize>, ApiError> {
    match obj.typed("jobs", Json::as_u64, "a non-negative integer")? {
        Some(0) => Err(ApiError::usage("\"jobs\" must be at least 1")),
        n => Ok(n.map(|n| n as usize)),
    }
}

/// Parses the shared `"cache": "on"|"off"` escape hatch.
fn cache_of(obj: &mut Fields) -> Result<CacheMode, ApiError> {
    match get_str(obj, "cache")? {
        None | Some("on") => Ok(CacheMode::On),
        Some("off") => Ok(CacheMode::Off),
        Some(other) => Err(ApiError::usage(format!("unknown \"cache\" {other:?} (on|off)"))),
    }
}

#[cfg(feature = "fault-inject")]
fn fault_of(obj: &mut Fields) -> Result<Option<ServeFault>, ApiError> {
    match obj.get("fault") {
        None => Ok(None),
        Some(Json::Str(s)) if s == "panic" => Ok(Some(ServeFault::Panic)),
        Some(_) => Err(ApiError::usage("unknown \"fault\" (want \"panic\")")),
    }
}

impl Envelope {
    /// Parses one protocol line (already JSON-parsed) into an envelope.
    ///
    /// # Errors
    ///
    /// [`ApiError::usage`] for a missing/unknown `op`, a job without an
    /// `id`, any ill-typed field, or any field the op does not read
    /// (`fault` is read only by `fault-inject` builds).
    pub fn from_json(v: &Json) -> Result<Envelope, ApiError> {
        let mut fields = Fields::new(v, "")?;
        let v = &mut fields;
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_u64()
                    .ok_or_else(|| ApiError::usage("field \"id\" must be a non-negative integer"))?,
            ),
        };
        let op = get_str(v, "op")?.ok_or_else(|| ApiError::usage("request needs an \"op\""))?;
        let op = match op {
            "run" => {
                let mut req = RunRequest::new(design_source(v)?);
                req.tech = tech_of(v)?;
                req.method = method_of(v)?;
                req.slew_margin = get_f64(v, "slew_margin", req.slew_margin)?;
                req.skew_budget_ps = get_f64(v, "skew_budget", req.skew_budget_ps)?;
                req.mc_samples = get_u64(v, "mc", 0)? as usize;
                req.jobs = jobs_of(v)?;
                req.timeout_s = get_f64(v, "timeout", 0.0)?;
                req.max_iters = get_u64(v, "max_iters", 0)?;
                req.cache = cache_of(v)?;
                #[cfg(feature = "fault-inject")]
                {
                    req.fault = fault_of(v)?;
                }
                Op::Job(Request::Run(req))
            }
            "pareto" => {
                let mut req = ParetoRequest::new(design_source(v)?);
                req.tech = tech_of(v)?;
                if let Some(list) = f64_list(v, "slew_margins")? {
                    req.slew_margins = list;
                }
                if let Some(list) = f64_list(v, "skew_budgets")? {
                    req.skew_budgets_ps = list;
                }
                if let Some(list) = f64_list(v, "windows")? {
                    req.windows_ps = list;
                }
                if let Some(list) = f64_list(v, "track_fracs")? {
                    req.track_fracs = list;
                }
                req.corners = get_bool(v, "corners")?;
                req.mc_samples = get_u64(v, "mc", req.mc_samples as u64)? as usize;
                req.jobs = jobs_of(v)?;
                req.timeout_s = get_f64(v, "timeout", 0.0)?;
                req.max_points = get_u64(v, "max_points", 0)?;
                req.cache = cache_of(v)?;
                Op::Job(Request::Pareto(req))
            }
            "lint" => Op::Job(Request::Lint(LintRequest {
                design: design_source(v)?,
                tech: tech_of(v)?,
                repair: get_bool(v, "repair")?,
            })),
            "import" => Op::Job(Request::Import(ImportRequest {
                design: design_source(v)?,
                tech: tech_of(v)?,
                repair: get_bool(v, "repair")?,
            })),
            "export_ndr" => {
                let mut req = ExportNdrRequest::new(design_source(v)?);
                req.tech = tech_of(v)?;
                req.method = method_of(v)?;
                req.slew_margin = get_f64(v, "slew_margin", req.slew_margin)?;
                req.skew_budget_ps = get_f64(v, "skew_budget", req.skew_budget_ps)?;
                req.from_tcl = get_str(v, "from_tcl")?.map(str::to_owned);
                Op::Job(Request::ExportNdr(req))
            }
            "suite" => Op::Job(Request::Suite(SuiteRequest {
                source: match get_str(v, "designs")? {
                    None => SuiteSource::Builtin,
                    Some(dir) => SuiteSource::Dir(dir.to_owned()),
                },
                tech: tech_of(v)?,
                jobs: jobs_of(v)?,
                cache: cache_of(v)?,
            })),
            "stats" => Op::Control(Control::Stats),
            "shutdown" => Op::Control(Control::Shutdown),
            "cancel" => {
                let target = v
                    .get("target")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ApiError::usage("\"cancel\" needs a numeric \"target\" id"))?;
                Op::Control(Control::Cancel { target })
            }
            other => return Err(ApiError::usage(format!("unknown op {other:?}"))),
        };
        if id.is_none() && matches!(op, Op::Job(_)) {
            return Err(ApiError::usage("job requests need an \"id\""));
        }
        fields.finish()?;
        Ok(Envelope { id, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_run_request() {
        let v = Json::parse(r#"{"id": 1, "op": "run", "design": {"generate": {"sinks": 40}}}"#)
            .unwrap();
        let env = Envelope::from_json(&v).unwrap();
        assert_eq!(env.id, Some(1));
        let Op::Job(Request::Run(req)) = env.op else { panic!("expected run") };
        assert_eq!(req.design, DesignSource::Generate { sinks: 40, seed: 1, freq_ghz: 1.0 });
        assert_eq!(req.method, Method::Smart);
        assert_eq!(req.cache, CacheMode::On);
    }

    #[test]
    fn parses_a_pareto_request() {
        let v = Json::parse(
            r#"{"id": 2, "op": "pareto", "design": {"generate": {"sinks": 60}},
                "slew_margins": [1.05, 1.2], "skew_budgets": [15, 60], "windows": [],
                "track_fracs": [0.8], "corners": true, "mc": 4, "max_points": 3}"#,
        )
        .unwrap();
        let env = Envelope::from_json(&v).unwrap();
        let Op::Job(Request::Pareto(req)) = env.op else { panic!("expected pareto") };
        assert_eq!(req.slew_margins, vec![1.05, 1.2]);
        assert_eq!(req.skew_budgets_ps, vec![15.0, 60.0]);
        assert!(req.windows_ps.is_empty());
        assert_eq!(req.track_fracs, vec![0.8]);
        assert!(req.corners);
        assert_eq!(req.mc_samples, 4);
        assert_eq!(req.max_points, 3);
    }

    #[test]
    fn pareto_defaults_are_the_default_sweep() {
        let v = Json::parse(r#"{"id": 3, "op": "pareto", "design": {"inline": "x"}}"#).unwrap();
        let Op::Job(Request::Pareto(req)) = Envelope::from_json(&v).unwrap().op else {
            panic!("expected pareto")
        };
        let spec = snr_pareto::SweepSpec::default_sweep();
        assert_eq!(req.slew_margins, spec.slew_margins);
        assert_eq!(req.skew_budgets_ps, spec.skew_budgets_ps);
        assert_eq!(req.windows_ps, spec.windows_ps);
        assert!(!req.corners);
    }

    #[test]
    fn pareto_list_fields_must_be_numeric_arrays() {
        for line in [
            r#"{"id": 1, "op": "pareto", "design": {"inline": "x"}, "slew_margins": "1.1"}"#,
            r#"{"id": 1, "op": "pareto", "design": {"inline": "x"}, "windows": [true]}"#,
        ] {
            let v = Json::parse(line).unwrap();
            assert!(Envelope::from_json(&v).is_err(), "{line} should fail");
        }
    }

    #[test]
    fn parses_import_and_export_ndr_requests() {
        let v = Json::parse(
            r#"{"id": 4, "op": "import", "design": {"inline": "DESIGN x ;"}, "repair": true}"#,
        )
        .unwrap();
        let Op::Job(Request::Import(req)) = Envelope::from_json(&v).unwrap().op else {
            panic!("expected import")
        };
        assert!(req.repair);

        let v = Json::parse(
            r#"{"id": 5, "op": "export_ndr", "design": {"path": "d.sndr"},
                "method": "greedy", "from_tcl": "ndr.tcl"}"#,
        )
        .unwrap();
        let Op::Job(Request::ExportNdr(req)) = Envelope::from_json(&v).unwrap().op else {
            panic!("expected export_ndr")
        };
        assert_eq!(req.method, Method::Greedy);
        assert_eq!(req.from_tcl.as_deref(), Some("ndr.tcl"));
    }

    #[test]
    fn import_and_export_ndr_reject_ill_typed_fields() {
        for line in [
            r#"{"id": 1, "op": "import"}"#,
            r#"{"id": 1, "op": "import", "design": {"inline": "x"}, "tech": 42}"#,
            r#"{"id": 1, "op": "export_ndr", "design": {"inline": "x"}, "method": "bogus"}"#,
            r#"{"id": 1, "op": "export_ndr", "design": {"inline": "x"}, "from_tcl": 3}"#,
            r#"{"id": 1, "op": "export_ndr", "design": {"inline": "x"}, "slew_margin": "wide"}"#,
        ] {
            let v = Json::parse(line).unwrap();
            assert!(Envelope::from_json(&v).is_err(), "{line} should fail");
        }
    }

    #[test]
    fn job_without_id_is_a_usage_error() {
        let v = Json::parse(r#"{"op": "run", "design": {"inline": "x"}}"#).unwrap();
        let err = Envelope::from_json(&v).unwrap_err();
        assert_eq!(err.code(), crate::ApiCode::Usage);
    }

    #[test]
    fn control_ops_parse_without_id() {
        for (line, want) in [
            (r#"{"op": "stats"}"#, Control::Stats),
            (r#"{"op": "shutdown"}"#, Control::Shutdown),
            (r#"{"op": "cancel", "target": 3}"#, Control::Cancel { target: 3 }),
        ] {
            let env = Envelope::from_json(&Json::parse(line).unwrap()).unwrap();
            assert_eq!(env.op, Op::Control(want));
        }
    }

    #[test]
    fn unread_fields_are_rejected_by_name() {
        for (line, field) in [
            (
                r#"{"id": 1, "op": "run", "design": {"generate": {"sinks": 40}}, "slew_margn": 1.3}"#,
                "\"slew_margn\"",
            ),
            (r#"{"id": 1, "op": "lint", "design": {"inline": "x"}, "cache": "off"}"#, "\"cache\""),
            (r#"{"op": "stats", "verbose": true}"#, "\"verbose\""),
            (
                r#"{"id": 1, "op": "run", "design": {"path": "a.sndr", "inline": "x"}}"#,
                "\"design.inline\"",
            ),
            (
                r#"{"id": 1, "op": "run", "design": {"generate": {"sinks": 40, "sead": 2}}}"#,
                "\"design.generate.sead\"",
            ),
        ] {
            let err = Envelope::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert_eq!(err.code(), crate::ApiCode::Usage, "{line}");
            assert_eq!(err.message(), format!("unknown field {field}"), "{line}");
        }
    }

    #[test]
    fn flags_must_be_booleans() {
        for line in [
            r#"{"id": 1, "op": "pareto", "design": {"inline": "x"}, "corners": 1}"#,
            r#"{"id": 1, "op": "lint", "design": {"inline": "x"}, "repair": "yes"}"#,
            r#"{"id": 1, "op": "import", "design": {"inline": "x"}, "repair": null}"#,
        ] {
            let err = Envelope::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.message().contains("must be a boolean"), "{line}: {}", err.message());
        }
        let v = Json::parse(r#"{"id": 1, "op": "lint", "design": {"inline": "x"}, "repair": false}"#)
            .unwrap();
        let Op::Job(Request::Lint(req)) = Envelope::from_json(&v).unwrap().op else {
            panic!("expected lint")
        };
        assert!(!req.repair);
    }

    #[test]
    fn nested_design_objects_must_be_objects() {
        for line in [
            r#"{"id": 1, "op": "run", "design": "a.sndr"}"#,
            r#"{"id": 1, "op": "run", "design": {"generate": 40}}"#,
        ] {
            let err = Envelope::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.message().contains("must be a JSON object"), "{line}: {}", err.message());
        }
    }

    #[test]
    fn bad_fields_are_usage_errors() {
        for line in [
            r#"{"id": 1, "op": "run"}"#,
            r#"{"id": 1, "op": "run", "design": {}}"#,
            r#"{"id": 1, "op": "run", "design": {"inline": "x"}, "tech": "n99"}"#,
            r#"{"id": 1, "op": "run", "design": {"inline": "x"}, "jobs": 0}"#,
            r#"{"id": 1, "op": "run", "design": {"inline": "x"}, "cache": "maybe"}"#,
            r#"{"id": 1, "op": "frobnicate"}"#,
            r#"[1, 2]"#,
        ] {
            let v = Json::parse(line).unwrap();
            assert!(Envelope::from_json(&v).is_err(), "{line} should fail");
        }
    }
}
