//! Plan construction: resolving a [`Request`] into an explicit,
//! self-contained [`Plan`].
//!
//! Planning does everything that touches the outside world *once*: it
//! reads design files into bytes, lists suite directories, resolves the
//! technology, validates numeric fields, and computes the content-hash
//! [`CacheKey`]. What comes out is a value the executor can run without
//! further I/O decisions — the same plan executes identically one-shot or
//! inside the daemon, and identical inputs produce identical cache keys.

use std::fs;
use std::io::BufReader;

use snr_netlist::{ispd_like_suite, load_design, Design};
use snr_par::Parallelism;
use snr_tech::Technology;
use snr_variation::MAX_SAMPLES;

use snr_pareto::{
    check_skew_budget, check_slew_margin, EvalConfig, SkewAxis, SweepPoint, SweepSpec,
};

use crate::cache::{CacheKey, ContentHasher};
use crate::error::ApiError;
use crate::request::{
    CacheMode, CheckRequest, DesignSource, ExportNdrRequest, Method, ParetoRequest, Request,
    RunRequest, SuiteRequest, SuiteSource,
};

/// Fingerprint of the CTS options a plan bakes in. There is exactly one
/// configuration today (`CtsOptions::default()`); the constant keeps the
/// cache key honest if that ever changes.
pub(crate) const CTS_OPTIONS_FINGERPRINT: &str = "cts-default-v1";

/// Version of what the optimizers return, mixed into every result-store
/// key: run results ([`RunPlan::result_key`]), pareto points
/// ([`ParetoPlan::point_key`]) and suite rows ([`suite_row_key`]). Any
/// change to an optimizer's output bumps it, so a store written before
/// the change recomputes instead of replaying stale results. Version 1
/// is the keys written before the constant existed; version 2 is the
/// stage-net `SmartNdr` flow.
pub(crate) const RESULTS_VERSION: u64 = 2;

/// The design input a plan carries: raw bytes to parse, or a generator
/// spec to build.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignInput {
    /// Raw `.sndr` bytes (from a file or inline text).
    Bytes(Vec<u8>),
    /// A benchmark-generator spec.
    Spec {
        /// Design name.
        name: String,
        /// Number of sinks.
        sinks: usize,
        /// Generator seed.
        seed: u64,
        /// Clock frequency in GHz.
        freq_ghz: f64,
    },
}

/// A resolved `run` request.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Content-hash key for the warm cache.
    pub key: CacheKey,
    /// Content-hash key for the durable result store: [`Self::key`]
    /// extended with every option that changes the rendered result.
    /// `jobs` is deliberately excluded (results are bit-identical for
    /// every job count) and so is `timeout_s` (runs under a wall-clock
    /// deadline are never saved, because what they complete is
    /// nondeterministic).
    pub result_key: CacheKey,
    /// The design to parse or generate.
    pub input: DesignInput,
    /// Resolved technology model.
    pub tech: Technology,
    /// Optimizer to run.
    pub method: Method,
    /// Slew margin over the conservative baseline.
    pub slew_margin: f64,
    /// Absolute skew budget in ps.
    pub skew_budget_ps: f64,
    /// Monte-Carlo sample count (0 = off).
    pub mc_samples: usize,
    /// Worker threads; `None` keeps per-phase defaults.
    pub jobs: Option<Parallelism>,
    /// Wall-clock deadline in seconds (0 = off).
    pub timeout_s: f64,
    /// Per-phase iteration cap (0 = off).
    pub max_iters: u64,
    /// Cache participation.
    pub cache: CacheMode,
    /// Injected fault (chaos testing only).
    #[cfg(feature = "fault-inject")]
    pub fault: Option<crate::request::ServeFault>,
}

/// A resolved `pareto` request: the enumerated sweep plus everything one
/// point evaluation needs.
#[derive(Debug, Clone)]
pub struct ParetoPlan {
    /// Content-hash key for the warm parse+CTS cache (same key space as
    /// [`RunPlan::key`] — a sweep warms the cache for later runs).
    pub key: CacheKey,
    /// The design to parse or generate.
    pub input: DesignInput,
    /// Resolved technology model.
    pub tech: Technology,
    /// The validated sweep axes.
    pub spec: SweepSpec,
    /// The canonical point enumeration (indices are stable names).
    pub points: Vec<SweepPoint>,
    /// Sweep-wide evaluation knobs (seeds, MC samples, corners).
    pub eval: EvalConfig,
    /// Worker threads across points; `None` = serial.
    pub jobs: Option<Parallelism>,
    /// Wall-clock deadline in seconds (0 = off).
    pub timeout_s: f64,
    /// Deterministic prefix truncation (0 = all points).
    pub max_points: u64,
    /// Cache participation.
    pub cache: CacheMode,
}

impl ParetoPlan {
    /// The durable-store key of one sweep point: the warm key plus every
    /// knob that shapes the point's objective vector. `jobs`, `timeout_s`
    /// and `max_points` are deliberately excluded — they change *which*
    /// points get evaluated, never a point's value — so a truncated or
    /// killed sweep re-uses every point it completed.
    pub fn point_key(&self, point: &SweepPoint) -> CacheKey {
        let mut h = ContentHasher::new();
        h.chunk(b"pareto-point-v1")
            .chunk(&RESULTS_VERSION.to_le_bytes())
            .chunk(&self.key.0.to_le_bytes())
            .chunk(&[u8::from(self.eval.corners)])
            .chunk(&(self.eval.mc_samples as u64).to_le_bytes())
            .chunk(&self.eval.mc_seed.to_le_bytes())
            .chunk(&self.eval.relaxed_skew_budget_ps.to_bits().to_le_bytes())
            .chunk(&self.eval.arc_seed.to_le_bytes())
            .chunk(&(self.eval.max_arcs as u64).to_le_bytes())
            .chunk(&point.slew_margin.to_bits().to_le_bytes());
        match point.skew {
            SkewAxis::Global { budget_ps } => {
                h.chunk(b"global").chunk(&budget_ps.to_bits().to_le_bytes());
            }
            SkewAxis::Window { window_ps } => {
                h.chunk(b"window").chunk(&window_ps.to_bits().to_le_bytes());
            }
        }
        match point.track_frac {
            None => {
                h.chunk(b"track-none");
            }
            Some(frac) => {
                h.chunk(b"track-frac").chunk(&frac.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }
}

/// A resolved `lint` or `import` request. Execution hands `lint` bytes to
/// the `.sndr` parser and `import` bytes, which are untrusted, to the
/// bounded DEF-lite importer.
#[derive(Debug, Clone)]
pub struct CheckPlan {
    /// Raw design bytes to check.
    pub bytes: Vec<u8>,
    /// Resolved technology (bounds source).
    pub tech: Technology,
    /// Attempt repair.
    pub repair: bool,
}

/// A resolved `export_ndr` request.
#[derive(Debug, Clone)]
pub struct ExportNdrPlan {
    /// Content-hash key for the warm parse+CTS cache (same key space as
    /// [`RunPlan::key`]).
    pub key: CacheKey,
    /// The design to parse or generate.
    pub input: DesignInput,
    /// Resolved technology model.
    pub tech: Technology,
    /// Optimizer producing the assignment (ignored with `from_tcl`).
    pub method: Method,
    /// Slew margin over the conservative baseline.
    pub slew_margin: f64,
    /// Absolute skew budget in ps.
    pub skew_budget_ps: f64,
    /// Text of a previously exported script to reimport, read at plan
    /// time like design bytes.
    pub from_tcl: Option<String>,
}

/// One suite entry: either a loaded design or a load failure to report as
/// a `FAILED` row.
#[derive(Debug, Clone)]
pub enum SuiteEntry {
    /// A loadable design.
    Design(Box<Design>),
    /// A file that would not load; becomes a `FAILED` row.
    Unloadable {
        /// Design name (file stem).
        name: String,
        /// Why it would not load.
        reason: String,
    },
}

/// A resolved `suite` request.
#[derive(Debug, Clone)]
pub struct SuitePlan {
    /// The designs to evaluate, in table order.
    pub entries: Vec<SuiteEntry>,
    /// Resolved technology model.
    pub tech: Technology,
    /// Cross-design parallelism.
    pub par: Parallelism,
    /// Cache participation: `Off` bypasses the per-row result store.
    pub cache: CacheMode,
}

/// An executable plan: the output of [`plan`], the input of
/// [`execute`](crate::exec::execute).
#[derive(Debug, Clone)]
pub enum Plan {
    /// Full flow on one design.
    Run(RunPlan),
    /// Constraint-space sweep returning the Pareto front.
    Pareto(ParetoPlan),
    /// Validation / repair of `.sndr` bytes.
    Lint(CheckPlan),
    /// The multi-design table.
    Suite(SuitePlan),
    /// External DEF-lite import.
    Import(CheckPlan),
    /// NDR Tcl export / reimport.
    ExportNdr(ExportNdrPlan),
}

/// Reads the bytes behind a design source; `Generate` has no bytes.
fn source_bytes(source: &DesignSource) -> Result<Option<Vec<u8>>, ApiError> {
    match source {
        DesignSource::Path(path) => fs::read(path)
            .map(Some)
            .map_err(|e| ApiError::invalid(format!("cannot open {path}: {e}"))),
        DesignSource::Inline(text) => Ok(Some(text.clone().into_bytes())),
        DesignSource::Generate { .. } => Ok(None),
    }
}

/// The content-hash key for a run over `input` under `tech`.
fn run_key(input: &DesignInput, tech: &Technology) -> CacheKey {
    let mut h = ContentHasher::new();
    match input {
        DesignInput::Bytes(bytes) => {
            h.chunk(b"design-bytes").chunk(bytes);
        }
        DesignInput::Spec { name, sinks, seed, freq_ghz } => {
            h.chunk(b"design-spec")
                .chunk(name.as_bytes())
                .chunk(&(*sinks as u64).to_le_bytes())
                .chunk(&seed.to_le_bytes())
                .chunk(&freq_ghz.to_bits().to_le_bytes());
        }
    }
    h.chunk(b"tech").chunk(tech.name().as_bytes());
    h.chunk(b"cts").chunk(CTS_OPTIONS_FINGERPRINT.as_bytes());
    h.finish()
}

/// The result-store key: the warm key plus every request option that
/// shapes the rendered result.
fn result_key(warm_key: CacheKey, req: &RunRequest) -> CacheKey {
    ContentHasher::new()
        .chunk(b"result-v1")
        .chunk(&RESULTS_VERSION.to_le_bytes())
        .chunk(&warm_key.0.to_le_bytes())
        .chunk(req.method.as_str().as_bytes())
        .chunk(&req.slew_margin.to_bits().to_le_bytes())
        .chunk(&req.skew_budget_ps.to_bits().to_le_bytes())
        .chunk(&(req.mc_samples as u64).to_le_bytes())
        .chunk(&req.max_iters.to_le_bytes())
        .finish()
}

/// The result-store key of one suite row: a content hash of the design's
/// canonical serialized bytes (not its name or path), the technology and
/// the CTS configuration. `None` when the design cannot be serialized —
/// such a row just runs uncached.
pub(crate) fn suite_row_key(design: &Design, tech: &Technology) -> Option<CacheKey> {
    let mut bytes = Vec::new();
    snr_netlist::save_design(design, &mut bytes).ok()?;
    Some(
        ContentHasher::new()
            .chunk(b"suite-row-v1")
            .chunk(&RESULTS_VERSION.to_le_bytes())
            .chunk(&bytes)
            .chunk(tech.name().as_bytes())
            .chunk(CTS_OPTIONS_FINGERPRINT.as_bytes())
            .finish(),
    )
}

fn design_input(source: &DesignSource) -> Result<DesignInput, ApiError> {
    Ok(match source_bytes(source)? {
        Some(bytes) => DesignInput::Bytes(bytes),
        None => {
            let DesignSource::Generate { sinks, seed, freq_ghz } = source else {
                unreachable!("only Generate has no bytes")
            };
            DesignInput::Spec {
                // The same name `smart-ndr run --sinks N` has always used,
                // so generated one-shot and resident runs stay identical.
                name: format!("cli-s{sinks}"),
                sinks: *sinks,
                seed: *seed,
                freq_ghz: *freq_ghz,
            }
        }
    })
}

/// Checks a `run` or `export_ndr` request's constraints by the rules a
/// sweep's axes follow, so `Constraints::relative` gets limits it accepts.
fn check_constraints(slew_margin: f64, skew_budget_ps: f64) -> Result<(), ApiError> {
    check_slew_margin(slew_margin)
        .and_then(|()| check_skew_budget(skew_budget_ps))
        .map_err(ApiError::usage)
}

/// Refuses a `run` or `pareto` Monte-Carlo count above the engine's
/// ceiling, which [`MonteCarlo::new`](snr_variation::MonteCarlo::new)
/// would panic on.
fn check_mc(samples: usize) -> Result<(), ApiError> {
    if samples > MAX_SAMPLES {
        return Err(ApiError::usage(format!(
            "\"mc\" must be at most {MAX_SAMPLES} samples, got {samples}"
        )));
    }
    Ok(())
}

fn plan_run(req: &RunRequest) -> Result<RunPlan, ApiError> {
    if !req.timeout_s.is_finite() || req.timeout_s < 0.0 {
        return Err(ApiError::usage(format!(
            "--timeout must be >= 0 seconds, got {}",
            req.timeout_s
        )));
    }
    check_constraints(req.slew_margin, req.skew_budget_ps)?;
    check_mc(req.mc_samples)?;
    let input = design_input(&req.design)?;
    let tech = req.tech.resolve();
    let key = run_key(&input, &tech);
    Ok(RunPlan {
        key,
        result_key: result_key(key, req),
        input,
        tech,
        method: req.method,
        slew_margin: req.slew_margin,
        skew_budget_ps: req.skew_budget_ps,
        mc_samples: req.mc_samples,
        jobs: req.jobs.map(Parallelism::new),
        timeout_s: req.timeout_s,
        max_iters: req.max_iters,
        cache: req.cache,
        #[cfg(feature = "fault-inject")]
        fault: req.fault,
    })
}

fn plan_pareto(req: &ParetoRequest) -> Result<ParetoPlan, ApiError> {
    if !req.timeout_s.is_finite() || req.timeout_s < 0.0 {
        return Err(ApiError::usage(format!(
            "--timeout must be >= 0 seconds, got {}",
            req.timeout_s
        )));
    }
    let spec = SweepSpec {
        slew_margins: req.slew_margins.clone(),
        skew_budgets_ps: req.skew_budgets_ps.clone(),
        windows_ps: req.windows_ps.clone(),
        track_fracs: req.track_fracs.clone(),
    };
    spec.validate().map_err(ApiError::usage)?;
    check_mc(req.mc_samples)?;
    let input = design_input(&req.design)?;
    let tech = req.tech.resolve();
    let key = run_key(&input, &tech);
    let points = spec.enumerate();
    let eval = EvalConfig {
        mc_samples: req.mc_samples,
        corners: req.corners,
        // Under `jobs` the points share the workers, so each point's
        // Monte-Carlo runs on the worker evaluating it.
        mc_parallelism: match req.jobs {
            Some(_) => Parallelism::serial(),
            None => Parallelism::auto(),
        },
        ..EvalConfig::default()
    };
    Ok(ParetoPlan {
        key,
        input,
        tech,
        spec,
        points,
        eval,
        jobs: req.jobs.map(Parallelism::new),
        timeout_s: req.timeout_s,
        max_points: req.max_points,
        cache: req.cache,
    })
}

/// Plans the check `op` (`lint` or `import`), which needs bytes to parse.
fn plan_check(op: &str, req: &CheckRequest) -> Result<CheckPlan, ApiError> {
    let Some(bytes) = source_bytes(&req.design)? else {
        return Err(ApiError::usage(format!("{op} needs a design file or inline text")));
    };
    Ok(CheckPlan { bytes, tech: req.tech.resolve(), repair: req.repair })
}

fn plan_export_ndr(req: &ExportNdrRequest) -> Result<ExportNdrPlan, ApiError> {
    check_constraints(req.slew_margin, req.skew_budget_ps)?;
    let input = design_input(&req.design)?;
    let tech = req.tech.resolve();
    let key = run_key(&input, &tech);
    let from_tcl = match &req.from_tcl {
        None => None,
        Some(path) => Some(fs::read_to_string(path).map_err(|e| {
            ApiError::invalid(format!("cannot open {path}: {e}"))
        })?),
    };
    Ok(ExportNdrPlan {
        key,
        input,
        tech,
        method: req.method,
        slew_margin: req.slew_margin,
        skew_budget_ps: req.skew_budget_ps,
        from_tcl,
    })
}

/// Lists and pre-loads the designs of a suite request, preserving the
/// established contract: `.sndr` files sorted by name, unloadable files
/// becoming `FAILED` rows rather than failing the suite.
fn suite_entries(source: &SuiteSource) -> Result<Vec<SuiteEntry>, ApiError> {
    let dir = match source {
        SuiteSource::Builtin => {
            return Ok(ispd_like_suite()
                .into_iter()
                .map(|d| SuiteEntry::Design(Box::new(d)))
                .collect());
        }
        SuiteSource::Dir(dir) => dir,
    };
    let mut paths: Vec<std::path::PathBuf> = fs::read_dir(dir)
        .map_err(|e| ApiError::invalid(format!("cannot read {dir}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sndr"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(ApiError::invalid(format!("no .sndr files in {dir}")));
    }
    Ok(paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.display().to_string());
            let load = fs::File::open(&p)
                .map_err(|e| format!("cannot open {}: {e}", p.display()))
                .and_then(|f| load_design(BufReader::new(f)).map_err(|e| e.to_string()));
            match load {
                Ok(d) => SuiteEntry::Design(Box::new(d)),
                Err(reason) => SuiteEntry::Unloadable { name, reason },
            }
        })
        .collect())
}

fn plan_suite(req: &SuiteRequest) -> Result<SuitePlan, ApiError> {
    Ok(SuitePlan {
        entries: suite_entries(&req.source)?,
        tech: req.tech.resolve(),
        par: req.jobs.map(Parallelism::new).unwrap_or_else(Parallelism::serial),
        cache: req.cache,
    })
}

/// Resolves a request into an executable plan.
///
/// # Errors
///
/// [`ApiError::usage`] for invalid fields, [`ApiError::invalid`] for
/// unreadable inputs. Parse and synthesis failures are *execution*
/// results, not planning failures — planning never parses a design.
pub fn plan(req: &Request) -> Result<Plan, ApiError> {
    match req {
        Request::Run(r) => plan_run(r).map(Plan::Run),
        Request::Pareto(r) => plan_pareto(r).map(Plan::Pareto),
        Request::Lint(r) => plan_check("lint", r).map(Plan::Lint),
        Request::Suite(r) => plan_suite(r).map(Plan::Suite),
        Request::Import(r) => plan_check("import", r).map(Plan::Import),
        Request::ExportNdr(r) => plan_export_ndr(r).map(Plan::ExportNdr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TechId;

    fn gen_req(sinks: usize, seed: u64) -> RunRequest {
        RunRequest::new(DesignSource::Generate { sinks, seed, freq_ghz: 1.0 })
    }

    #[test]
    fn monte_carlo_sample_counts_have_a_ceiling() {
        let mut run = gen_req(40, 2);
        let mut pareto =
            ParetoRequest::new(DesignSource::Generate { sinks: 40, seed: 2, freq_ghz: 1.0 });
        for (samples, ok) in [(MAX_SAMPLES, true), (MAX_SAMPLES + 1, false), (1 << 53, false)] {
            run.mc_samples = samples;
            pareto.mc_samples = samples;
            for outcome in [plan_run(&run).map(|_| ()), plan_pareto(&pareto).map(|_| ())] {
                match outcome {
                    Ok(()) => assert!(ok, "{samples} samples must be refused"),
                    Err(e) => {
                        assert!(!ok, "{samples} samples must plan");
                        assert_eq!(e.code(), crate::ApiCode::Usage);
                        assert!(e.message().contains("must be at most 1000000 samples"), "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn identical_requests_share_a_cache_key() {
        let a = plan_run(&gen_req(40, 2)).unwrap();
        let b = plan_run(&gen_req(40, 2)).unwrap();
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn key_separates_design_tech_and_seed() {
        let base = plan_run(&gen_req(40, 2)).unwrap();
        assert_ne!(base.key, plan_run(&gen_req(40, 3)).unwrap().key);
        assert_ne!(base.key, plan_run(&gen_req(41, 2)).unwrap().key);
        let mut n32 = gen_req(40, 2);
        n32.tech = TechId::N32;
        assert_ne!(base.key, plan_run(&n32).unwrap().key);
    }

    #[test]
    fn result_key_tracks_result_shaping_options_only() {
        let base = plan_run(&gen_req(40, 2)).unwrap();
        let mut other_method = gen_req(40, 2);
        other_method.method = Method::Greedy;
        let greedy = plan_run(&other_method).unwrap();
        assert_eq!(base.key, greedy.key, "warm key ignores the optimizer");
        assert_ne!(base.result_key, greedy.result_key, "result key must not");
        let mut more_jobs = gen_req(40, 2);
        more_jobs.jobs = Some(4);
        assert_eq!(
            base.result_key,
            plan_run(&more_jobs).unwrap().result_key,
            "results are bit-identical per job count, so jobs is excluded"
        );
    }

    /// Known answers for the three result-store keys. They move only
    /// together with [`RESULTS_VERSION`] (or a deliberate key change): a
    /// store entry whose key does not move is replayed as it was written.
    #[test]
    fn result_store_keys_match_their_known_answers() {
        let generate = DesignSource::Generate { sinks: 40, seed: 2, freq_ghz: 1.0 };
        let run = plan_run(&gen_req(40, 2)).unwrap();
        let pareto = plan_pareto(&ParetoRequest::new(generate)).unwrap();
        let design = snr_netlist::BenchmarkSpec::new("kat", 40).seed(2).build().unwrap();
        let row = suite_row_key(&design, &Technology::n45()).unwrap();
        assert_eq!(RESULTS_VERSION, 2);
        assert_eq!(
            [run.result_key.0, pareto.point_key(&pareto.points[0]).0, row.0],
            [0x3a56_f007_9b1a_18c6, 0xa374_af36_f1ff_ddbd, 0x514b_d3fe_595e_3439],
            "run, pareto-point and suite-row keys"
        );
    }

    #[test]
    fn pareto_point_keys_ignore_scheduling_knobs() {
        let req = |jobs, timeout_s, max_points| {
            let mut r = ParetoRequest::new(DesignSource::Generate {
                sinks: 40,
                seed: 2,
                freq_ghz: 1.0,
            });
            r.jobs = jobs;
            r.timeout_s = timeout_s;
            r.max_points = max_points;
            r
        };
        let base = plan_pareto(&req(None, 0.0, 0)).unwrap();
        let truncated = plan_pareto(&req(Some(8), 30.0, 2)).unwrap();
        assert_eq!(base.points.len(), truncated.points.len());
        for (a, b) in base.points.iter().zip(&truncated.points) {
            assert_eq!(base.point_key(a), truncated.point_key(b));
        }
        // Every point of one sweep has a distinct identity.
        let mut keys: Vec<u64> = base.points.iter().map(|p| base.point_key(p).0).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), base.points.len());
    }

    #[test]
    fn pareto_point_keys_track_evaluation_shaping_knobs() {
        let mut r = ParetoRequest::new(DesignSource::Generate {
            sinks: 40,
            seed: 2,
            freq_ghz: 1.0,
        });
        let base = plan_pareto(&r).unwrap();
        r.mc_samples += 1;
        let more_mc = plan_pareto(&r).unwrap();
        r.mc_samples -= 1;
        r.corners = true;
        let corners = plan_pareto(&r).unwrap();
        assert_ne!(base.point_key(&base.points[0]), more_mc.point_key(&more_mc.points[0]));
        assert_ne!(base.point_key(&base.points[0]), corners.point_key(&corners.points[0]));
    }

    #[test]
    fn pareto_rejects_invalid_axes() {
        let mut r = ParetoRequest::new(DesignSource::Generate {
            sinks: 40,
            seed: 2,
            freq_ghz: 1.0,
        });
        r.slew_margins = vec![0.5];
        assert_eq!(plan_pareto(&r).unwrap_err().code(), crate::ApiCode::Usage);
    }

    #[test]
    fn inline_and_path_bytes_share_a_key() {
        let text = "sndr 1\ndesign d freq_ghz 1.0\ndie 0 0 1 1\nroot 0 0\nend\n";
        let dir = std::env::temp_dir();
        let path = dir.join(format!("snr-serve-plan-{}.sndr", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let from_path = plan_run(&RunRequest::new(DesignSource::Path(
            path.to_string_lossy().into_owned(),
        )))
        .unwrap();
        let from_inline =
            plan_run(&RunRequest::new(DesignSource::Inline(text.to_owned()))).unwrap();
        assert_eq!(from_path.key, from_inline.key, "key hashes content, not origin");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_invalid_input() {
        let err = plan(&Request::Run(RunRequest::new(DesignSource::Path(
            "/nonexistent/nope.sndr".into(),
        ))))
        .unwrap_err();
        assert_eq!(err.code(), crate::ApiCode::InvalidInput);
    }

    #[test]
    fn export_ndr_shares_the_run_warm_key() {
        let run = plan_run(&gen_req(40, 2)).unwrap();
        let export = plan_export_ndr(&ExportNdrRequest::new(DesignSource::Generate {
            sinks: 40,
            seed: 2,
            freq_ghz: 1.0,
        }))
        .unwrap();
        assert_eq!(run.key, export.key, "an export warms the same cache slot as a run");
    }

    #[test]
    fn export_ndr_missing_tcl_is_invalid_input() {
        let mut req = ExportNdrRequest::new(DesignSource::Generate {
            sinks: 40,
            seed: 2,
            freq_ghz: 1.0,
        });
        req.from_tcl = Some("/nonexistent/ndr.tcl".into());
        let err = plan(&Request::ExportNdr(req)).unwrap_err();
        assert_eq!(err.code(), crate::ApiCode::InvalidInput);
    }

    #[test]
    fn checks_need_bytes() {
        let req = CheckRequest {
            design: DesignSource::Generate { sinks: 4, seed: 1, freq_ghz: 1.0 },
            tech: TechId::N45,
            repair: false,
        };
        for (request, op) in [(Request::Lint(req.clone()), "lint"), (Request::Import(req), "import")]
        {
            let err = plan(&request).unwrap_err();
            assert_eq!(err.code(), crate::ApiCode::Usage);
            assert_eq!(err.message(), format!("{op} needs a design file or inline text"));
        }
    }

    #[test]
    fn negative_timeout_is_a_usage_error() {
        let mut req = gen_req(40, 2);
        req.timeout_s = -1.0;
        assert_eq!(plan_run(&req).unwrap_err().code(), crate::ApiCode::Usage);
    }
}
