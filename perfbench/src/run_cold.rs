//! `run-cold`: one closed-loop client sends `run` requests (method
//! `smart`, one job, no Monte Carlo, cache and store off) for distinct
//! seeded 1200-sink designs, inline as `.sndr` text. Optimize is ~95 % of
//! each request, so optimizer and timing-engine changes show here while
//! store, cache and protocol changes are bypassed.

use snr_core::{Budget, Constraints, NdrOptimizer, OptContext, Parallelism, SmartNdr};
use snr_cts::{synthesize, CtsOptions};
use snr_netlist::load_design;
use snr_power::PowerModel;
use snr_serve::json::Json;
use snr_serve::{
    execute, plan, CacheMode, DesignSource, ExecCtx, Method, Plan, Request, Response, RunRequest,
    RunResponse,
};

use crate::harness::{closed_loop, measure_setup, Args};
use crate::refkernel::RefKernel;
use crate::replay::{coverage, iterations, same_outcome, traced_request};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{host, inputs, stats};

/// Sinks per design.
const SINKS: usize = 1200;
/// Requests per second of `--seconds` at reference speed.
const RATE: f64 = 9.0;
/// Seed of the priming design: fixed, so set-up work does not vary
/// with the workload seed.
const PRIMING_SEED: u64 = 0x5eed;
/// Input stream of the seed.
const STREAM: u64 = 1;

fn request(text: &str) -> Request {
    let mut req = RunRequest::new(DesignSource::Inline(text.to_owned()));
    req.method = Method::Smart;
    req.jobs = Some(1);
    req.mc_samples = 0;
    req.cache = CacheMode::Off;
    Request::Run(req)
}

fn make_inputs(seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let name = format!("rc{i}");
            inputs::sndr_text(&inputs::design(
                &name,
                SINKS,
                inputs::design_seed(seed, STREAM, i),
            ))
        })
        .collect()
}

/// The public request path: plan, execute, render `run --json`.
fn serve(req: &Request, ctx: &ExecCtx<'_>) -> Result<(Box<RunResponse>, String), String> {
    let plan = plan(req).map_err(|e| e.to_string())?;
    match execute(&plan, ctx).map_err(|e| e.to_string())? {
        Response::Run(resp) => {
            let json = snr_serve::render::run_json(&resp);
            Ok((resp, json))
        }
        _ => Err("run request answered with another response kind".to_owned()),
    }
}

/// Re-analyses the returned assignment and checks the reported power,
/// skew, slew and feasibility, in the response and in its rendering.
/// Returns the network-power saving vs the uniform 2W2S baseline.
pub fn check_run(resp: &RunResponse, json: &str) -> Result<f64, String> {
    let ctx = OptContext::new(
        &resp.tree,
        &resp.tech,
        PowerModel::new(resp.design.freq_ghz()),
    )
    .with_constraints(resp.constraints);
    let out = &resp.result;
    let timing = ctx.analyze(out.assignment());
    let power = ctx.power(out.assignment());
    let meets = ctx.meets(out.assignment(), &timing);
    if timing.skew_ps().to_bits() != out.timing().skew_ps().to_bits()
        || timing.max_slew_ps().to_bits() != out.timing().max_slew_ps().to_bits()
        || power.network_uw().to_bits() != out.power().network_uw().to_bits()
        || meets != out.meets_constraints()
    {
        return Err("re-analysis disagrees with the reported outcome".to_owned());
    }
    let doc = Json::parse(json).map_err(|e| format!("rendering is not JSON: {e}"))?;
    let result = doc.get("result").ok_or("rendering lacks \"result\"")?;
    let field = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_f64);
    let same = |rendered: Option<f64>, value: f64| {
        rendered.is_some_and(|r| r == format!("{value:.6}").parse::<f64>().unwrap_or(f64::NAN))
    };
    let saving = out.network_saving_vs(&resp.baseline);
    let saving_rendered = doc.get("saving").and_then(|s| field(s, "network_frac"));
    if !same(field(result, "network_uw"), power.network_uw())
        || !same(field(result, "skew_ps"), timing.skew_ps())
        || !same(field(result, "max_slew_ps"), timing.max_slew_ps())
        || result.get("meets_constraints").and_then(Json::as_bool) != Some(meets)
        || !same(saving_rendered, saving)
    {
        return Err("rendered result disagrees with re-analysis".to_owned());
    }
    Ok(saving)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let n = args.requests(RATE);
    let mut kernel = RefKernel::new();
    let mut report = Report::default();

    let (setup_s, texts) = measure_setup(args, &mut kernel, || {
        let texts = make_inputs(args.seed, n);
        let prime = make_inputs(PRIMING_SEED, 1).remove(0);
        if let Err(e) = serve(&request(&prime), &ExecCtx::oneshot()) {
            eprintln!("priming request failed: {e}");
        }
        texts
    });
    report.set("setup_s", setup_s);

    let wait_before = host::thread_wait_ms();
    let mut savings = Vec::with_capacity(n);
    let timed = closed_loop(
        &texts,
        &mut kernel,
        |text| serve(&request(text), &ExecCtx::oneshot()),
        |_, (resp, json)| check_run(&resp, &json).map(|s| savings.push(s)),
    );
    let wait = host::thread_wait_ms()
        .zip(wait_before)
        .map_or(0.0, |(a, b)| a - b);
    timed.report(args, &mut report);
    report.set("host.wait_ms", wait);
    report.set("saving_pct", 100.0 * stats::mean(&savings));
    report.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));

    if args.trace {
        let untraced = timed.scaled(args);
        if let Err(e) = traced(args, &texts, &untraced, &mut kernel, &mut report) {
            eprintln!("traced replay failed: {e}");
            report.failed += 1;
        }
    }
    report
}

/// Per-request layer times of the traced replay, ms at reference speed.
#[derive(Default)]
struct Layers {
    parse: f64,
    synthesize: f64,
    constraints: f64,
    context: f64,
    baseline: f64,
    optimize: f64,
    plan: f64,
    render: f64,
    iterations: u64,
    degradations: u64,
    nodes: u64,
}

/// The traced run: the first quarter of the sequence again, each request
/// through the public path with spans around plan, execute (with the
/// program's phase events inside) and render, then its steps replayed
/// with their public functions and checked bit for bit.
fn traced(
    args: &Args,
    texts: &[String],
    untraced: &[f64],
    kernel: &mut RefKernel,
    report: &mut Report,
) -> Result<(), String> {
    let n = args.traced_requests(texts.len());
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    let mut min_coverage = f64::INFINITY;
    for (i, text) in texts.iter().take(n).enumerate() {
        let id = i as u64;
        let t = traced_request(
            &mut tracer,
            kernel,
            args.nominal_ms,
            id,
            &request(text),
            |r| match r {
                Response::Run(resp) => snr_serve::render::run_json(resp),
                _ => String::new(),
            },
        )?;
        let (Plan::Run(run_plan), Response::Run(resp)) = (&t.plan, &t.response) else {
            return Err(format!("traced request {i} did not return a run"));
        };
        let ms = |tracer: &Tracer, span: usize| t.ms(tracer, span);
        traced_total += ms(&tracer, t.request);
        untraced_total += untraced[i];
        min_coverage = min_coverage.min(coverage(&tracer, t.request, &[t.execute_span]));
        layers.plan += ms(&tracer, t.plan_span);
        layers.render += ms(&tracer, t.render_span);

        // Replay of `execute` for this request, step by step.
        let replay = tracer.begin("replay", None, id);
        let (design, s) = tracer.time("netlist.parse", Some(replay), id, || {
            load_design(text.as_bytes()).map_err(|e| e.to_string())
        });
        let design = design?;
        layers.parse += ms(&tracer, s);
        let tech = resp.tech.clone();
        let (tree, s) = tracer.time("cts.synthesize", Some(replay), id, || {
            synthesize(&design, &tech, &CtsOptions::default()).map_err(|e| e.to_string())
        });
        let tree = tree?;
        layers.synthesize += ms(&tracer, s);
        let (constraints, s) = tracer.time("core.constraints", Some(replay), id, || {
            Constraints::relative(&tree, &tech, run_plan.slew_margin, run_plan.skew_budget_ps)
        });
        layers.constraints += ms(&tracer, s);
        let (opt_ctx, s) = tracer.time("core.context", Some(replay), id, || {
            OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
                .with_constraints(constraints)
        });
        layers.context += ms(&tracer, s);
        let (baseline, s) = tracer.time("core.baseline", Some(replay), id, || {
            opt_ctx.conservative_baseline()
        });
        layers.baseline += ms(&tracer, s);
        let (result, s) = tracer.time("core.optimize", Some(replay), id, || {
            SmartNdr::default()
                .with_budget(Budget::unlimited())
                .with_parallelism(run_plan.jobs.unwrap_or_else(Parallelism::serial))
                .optimize(&opt_ctx)
        });
        layers.optimize += ms(&tracer, s);
        tracer.finish(replay);

        if *resp.design != design
            || resp.tree.nodes() != tree.nodes()
            || resp.constraints.slew_limit_ps().to_bits() != constraints.slew_limit_ps().to_bits()
            || resp.constraints.skew_limit_ps().to_bits() != constraints.skew_limit_ps().to_bits()
            || !same_outcome(&resp.baseline, &baseline)
            || !same_outcome(&resp.result, &result)
        {
            return Err(format!("replay of request {i} differs from its response"));
        }
        layers.iterations += iterations(&result);
        layers.degradations += result.degradations().len() as u64;
        layers.nodes += tree.len() as u64;
    }

    let per = |v: f64| v / n as f64;
    report.set("core.optimize_ms", per(layers.optimize));
    report.set("core.optimize_iterations", layers.iterations as f64);
    report.set(
        "core.optimize_us_per_iter",
        1e3 * layers.optimize / layers.iterations.max(1) as f64,
    );
    report.set("core.degradations", layers.degradations as f64);
    report.set("core.constraints_ms", per(layers.constraints));
    report.set("core.context_ms", per(layers.context));
    report.set("core.baseline_ms", per(layers.baseline));
    report.set("netlist.parse_ms", per(layers.parse));
    report.set("cts.synthesize_ms", per(layers.synthesize));
    report.set("cts.nodes", layers.nodes as f64);
    report.set("serve.plan_ms", per(layers.plan));
    report.set("serve.render_ms", per(layers.render));
    report.set("trace.requests", n as f64);
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_total - untraced_total) / untraced_total,
    );
    report.set("trace.coverage_pct", 100.0 * min_coverage);
    crate::zero_unset(report);
    crate::write_trace(args, &tracer)
}
