//! `pareto-sweep`: one closed-loop client sends the default 15-point
//! `pareto` sweep (3 slew margins × 3 skew budgets + 2 useful-skew
//! windows, 12 Monte-Carlo samples per point, one job, store off) for
//! distinct seeded 400-sink designs. The same optimizer runs under other
//! constraints (window arcs); Monte Carlo is ~14 % and per-point set-up
//! ~1 %, so per-point sharing and Monte-Carlo changes show here and not
//! in `run-cold`.

use std::time::Instant;

use snr_core::{Budget, CancelToken, Constraints, NdrOptimizer, OptContext, SmartNdr};
use snr_cts::{synthesize, ClockTree, CtsOptions};
use snr_netlist::{load_design, random_timing_arcs, Design};
use snr_pareto::{
    brute_force_front, encode_eval, EvalConfig, FrontPoint, Objectives, PointEval, SkewAxis,
    SweepPoint,
};
use snr_power::PowerModel;
use snr_serve::json::Json;
use snr_serve::{
    execute, plan, CacheMode, DesignSource, ExecCtx, ParetoRequest, ParetoResponse, Plan, Request,
    Response,
};
use snr_tech::Technology;
use snr_variation::{MonteCarlo, VariationModel};

use crate::harness::{closed_loop, measure_setup, Args};
use crate::refkernel::RefKernel;
use crate::replay::{coverage, iterations, traced_request, EventLog};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{host, inputs, stats};

/// Sinks per design.
const SINKS: usize = 400;
/// Requests per second of `--seconds` at reference speed.
const RATE: f64 = 9.0;
/// Seed of the priming design: fixed, so set-up work does not vary
/// with the workload seed.
const PRIMING_SEED: u64 = 0x5eed;
/// Input stream of the seed.
const STREAM: u64 = 2;

fn request(text: &str) -> Request {
    let mut req = ParetoRequest::new(DesignSource::Inline(text.to_owned()));
    req.jobs = Some(1);
    req.cache = CacheMode::Off;
    Request::Pareto(req)
}

fn make_inputs(seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let name = format!("ps{i}");
            inputs::sndr_text(&inputs::design(
                &name,
                SINKS,
                inputs::design_seed(seed, STREAM, i),
            ))
        })
        .collect()
}

type Streamed = Vec<(Instant, usize, PointEval)>;

/// The public request path: plan, execute (with the streamed front
/// points collected), render `pareto --json`.
fn serve(req: &Request) -> Result<(Box<ParetoResponse>, String, Streamed), String> {
    let log = EventLog::default();
    let sink = |e: &snr_serve::Event| log.on_event(e);
    let ctx = ExecCtx {
        cache: None,
        sink: Some(&sink),
        on_token: None,
        store: None,
    };
    let plan = plan(req).map_err(|e| e.to_string())?;
    match execute(&plan, &ctx).map_err(|e| e.to_string())? {
        Response::Pareto(resp) => {
            let json = snr_serve::render::pareto_json(&resp);
            Ok((resp, json, log.points()))
        }
        _ => Err("pareto request answered with another response kind".to_owned()),
    }
}

/// Re-filters the streamed evaluations with the brute-force dominance
/// oracle and checks the response front (and its rendering) equals it.
/// Returns the saving of the front's lowest-power point vs the uniform
/// 2W2S baseline.
pub fn check_pareto(resp: &ParetoResponse, json: &str, streamed: &Streamed) -> Result<f64, String> {
    if resp.cancelled || streamed.len() != resp.evaluated || resp.evaluated != resp.points_total {
        return Err(format!(
            "sweep incomplete: {} streamed, {} evaluated of {}",
            streamed.len(),
            resp.evaluated,
            resp.points_total
        ));
    }
    let feasible: Vec<FrontPoint> = streamed
        .iter()
        .filter(|(_, _, e)| e.meets)
        .map(|&(_, index, e)| FrontPoint {
            index,
            objectives: e.objectives,
        })
        .collect();
    let oracle = brute_force_front(&feasible);
    let same_front = oracle.len() == resp.front.len()
        && oracle.iter().zip(&resp.front).all(|(o, r)| {
            o.index == r.point.index && same_objectives(&o.objectives, &r.objectives)
        });
    if !same_front || streamed.len() - feasible.len() != resp.infeasible {
        return Err("response front differs from the oracle front".to_owned());
    }
    let doc = Json::parse(json).map_err(|e| format!("rendering is not JSON: {e}"))?;
    let rendered: Vec<u64> = match doc.get("front") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|p| p.get("index")?.as_u64())
            .collect(),
        _ => return Err("rendering lacks a \"front\" array".to_owned()),
    };
    if rendered != oracle.iter().map(|p| p.index as u64).collect::<Vec<_>>() {
        return Err("rendered front differs from the oracle front".to_owned());
    }
    let tree =
        synthesize(&resp.design, &resp.tech, &CtsOptions::default()).map_err(|e| e.to_string())?;
    let base = OptContext::new(&tree, &resp.tech, PowerModel::new(resp.design.freq_ghz()))
        .conservative_baseline()
        .power()
        .network_uw();
    let lowest = oracle
        .iter()
        .map(|p| p.objectives.power_uw)
        .fold(f64::INFINITY, f64::min);
    Ok((base - lowest) / base)
}

fn same_objectives(a: &Objectives, b: &Objectives) -> bool {
    encode_eval(&PointEval {
        objectives: *a,
        meets: true,
        degraded: false,
    }) == encode_eval(&PointEval {
        objectives: *b,
        meets: true,
        degraded: false,
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let n = args.requests(RATE);
    let mut kernel = RefKernel::new();
    let mut report = Report::default();

    let (setup_s, texts) = measure_setup(args, &mut kernel, || {
        let texts = make_inputs(args.seed, n);
        let prime = make_inputs(PRIMING_SEED, 1).remove(0);
        if let Err(e) = serve(&request(&prime)) {
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
        |text| serve(&request(text)),
        |_, (resp, json, streamed)| check_pareto(&resp, &json, &streamed).map(|s| savings.push(s)),
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

/// One point's steps as `snr_pareto::evaluate_point` takes them, each in
/// its own span under `parent`.
#[allow(clippy::too_many_arguments)]
fn replay_point(
    tracer: &mut Tracer,
    parent: usize,
    id: u64,
    design: &Design,
    tree: &ClockTree,
    tech: &Technology,
    point: &SweepPoint,
    cfg: &EvalConfig,
    baseline_track_um: f64,
    acc: &mut Layers,
    factor: f64,
) -> Result<PointEval, String> {
    let ms = |tracer: &Tracer, span: usize| tracer.spans()[span].duration_us() / 1e3 * factor;
    let (constraints, s) = tracer.time("core.constraints", Some(parent), id, || {
        let budget = match point.skew {
            SkewAxis::Global { budget_ps } => budget_ps,
            SkewAxis::Window { .. } => cfg.relaxed_skew_budget_ps,
        };
        let c = Constraints::relative(tree, tech, point.slew_margin, budget);
        match point.track_frac {
            Some(frac) => c.with_track_budget_um(frac * baseline_track_um),
            None => c,
        }
    });
    acc.constraints += ms(tracer, s);
    let (ctx, s) = tracer.time("core.context", Some(parent), id, || {
        let ctx = OptContext::new(tree, tech, PowerModel::new(design.freq_ghz()))
            .with_constraints(constraints);
        match point.skew {
            SkewAxis::Window { window_ps } if design.sinks().len() >= 2 => {
                let count = (design.sinks().len() / 2).clamp(1, cfg.max_arcs);
                let window = (window_ps, window_ps);
                let arcs = random_timing_arcs(design, count, window, window, cfg.arc_seed);
                ctx.with_timing_arcs(arcs).map_err(|e| e.to_string())
            }
            _ => Ok(ctx),
        }
    });
    let ctx = ctx?;
    acc.context += ms(tracer, s);
    let (out, s) = tracer.time("core.optimize", Some(parent), id, || {
        SmartNdr::default()
            .with_budget(Budget::unlimited())
            .optimize(&ctx)
    });
    acc.optimize += ms(tracer, s);
    acc.iterations += iterations(&out);
    acc.degradations += out.degradations().len() as u64;
    let (sigma, s) = tracer.time("variation.mc", Some(parent), id, || {
        if cfg.mc_samples == 0 {
            return Ok(0.0);
        }
        MonteCarlo::new(VariationModel::default(), cfg.mc_samples, cfg.mc_seed)
            .run_with_token(tree, tech, out.assignment(), &CancelToken::default())
            .map(|r| r.sigma_skew_ps())
            .map_err(|e| e.to_string())
    });
    acc.mc += ms(tracer, s);
    acc.mc_samples += cfg.mc_samples as u64;
    Ok(PointEval {
        objectives: Objectives {
            power_uw: out.power().network_uw(),
            skew_ps: out.timing().skew_ps(),
            sigma_skew_ps: sigma?,
            track_cost_um: out.power().track_cost_um(),
        },
        meets: out.meets_constraints(),
        degraded: !out.degradations().is_empty(),
    })
}

/// Layer totals of the traced replay, ms at reference speed.
#[derive(Default)]
struct Layers {
    parse: f64,
    synthesize: f64,
    baseline: f64,
    constraints: f64,
    context: f64,
    optimize: f64,
    mc: f64,
    point: f64,
    points: u64,
    plan: f64,
    render: f64,
    iterations: u64,
    degradations: u64,
    mc_samples: u64,
    nodes: u64,
    front: u64,
    infeasible: u64,
}

/// The traced run: the first quarter of the sequence again, with spans
/// around plan, execute (phases and streamed points inside) and render,
/// then every point replayed step by step and checked bit for bit
/// against the streamed evaluation.
fn traced(
    args: &Args,
    texts: &[String],
    untraced: &[f64],
    kernel: &mut RefKernel,
    report: &mut Report,
) -> Result<(), String> {
    let n = args.traced_requests(texts.len());
    let mut tracer = Tracer::new();
    let mut acc = Layers::default();
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
                Response::Pareto(resp) => snr_serve::render::pareto_json(resp),
                _ => String::new(),
            },
        )?;
        let (Plan::Pareto(pareto_plan), Response::Pareto(resp)) = (&t.plan, &t.response) else {
            return Err(format!("traced request {i} did not return a sweep"));
        };
        let ms = |tracer: &Tracer, span: usize| t.ms(tracer, span);
        let sweep = tracer
            .spans()
            .iter()
            .rposition(|s| s.name == "phase.sweep" && s.parent == Some(t.execute_span))
            .ok_or("traced sweep emitted no sweep phase")?;

        // Points as the program streamed them: each ends when its
        // evaluation arrives and starts where the previous one ended.
        let streamed = t.log.points();
        let mut point_start = t
            .log
            .phase_start("sweep")
            .ok_or("sweep phase has no start")?;
        for &(at, _, _) in &streamed {
            let s = tracer.record("pareto.point", point_start, at, Some(sweep), id);
            point_start = at;
            acc.point += ms(&tracer, s);
        }
        acc.points += streamed.len() as u64;
        traced_total += ms(&tracer, t.request);
        untraced_total += untraced[i];
        let intermediates = [t.execute_span, sweep];
        min_coverage = min_coverage.min(coverage(&tracer, t.request, &intermediates));
        acc.plan += ms(&tracer, t.plan_span);
        acc.render += ms(&tracer, t.render_span);
        acc.front += resp.front.len() as u64;
        acc.infeasible += resp.infeasible as u64;

        // Replay of `execute` for this request, step by step.
        let replay = tracer.begin("replay", None, id);
        let (design, s) = tracer.time("netlist.parse", Some(replay), id, || {
            load_design(text.as_bytes()).map_err(|e| e.to_string())
        });
        let design = design?;
        acc.parse += ms(&tracer, s);
        let tech = resp.tech.clone();
        let (tree, s) = tracer.time("cts.synthesize", Some(replay), id, || {
            synthesize(&design, &tech, &CtsOptions::default()).map_err(|e| e.to_string())
        });
        let tree = tree?;
        acc.synthesize += ms(&tracer, s);
        acc.nodes += tree.len() as u64;
        let (track_um, s) = tracer.time("core.baseline", Some(replay), id, || {
            OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
                .conservative_baseline()
                .power()
                .track_cost_um()
        });
        acc.baseline += ms(&tracer, s);
        if pareto_plan.eval.corners {
            return Err("the replay covers sweeps without corners only".to_owned());
        }
        for point in &pareto_plan.points {
            let span = tracer.begin("pareto.replay_point", Some(replay), id);
            let eval = replay_point(
                &mut tracer,
                span,
                id,
                &design,
                &tree,
                &tech,
                point,
                &pareto_plan.eval,
                track_um,
                &mut acc,
                t.factor,
            )?;
            tracer.finish(span);
            let streamed_eval = streamed.iter().find(|(_, idx, _)| *idx == point.index);
            if streamed_eval.map(|(_, _, e)| encode_eval(e)) != Some(encode_eval(&eval)) {
                return Err(format!(
                    "replay of request {i} point {} differs",
                    point.index
                ));
            }
        }
        tracer.finish(replay);
        if *resp.design != design {
            return Err(format!("replay of request {i} parsed another design"));
        }
    }

    let per = |v: f64| v / n as f64;
    report.set("core.optimize_ms", per(acc.optimize));
    report.set("core.optimize_iterations", acc.iterations as f64);
    report.set(
        "core.optimize_us_per_iter",
        1e3 * acc.optimize / acc.iterations.max(1) as f64,
    );
    report.set("core.degradations", acc.degradations as f64);
    report.set("core.constraints_ms", per(acc.constraints));
    report.set("core.context_ms", per(acc.context));
    report.set("core.baseline_ms", per(acc.baseline));
    report.set("variation.mc_ms", per(acc.mc));
    report.set(
        "variation.us_per_sample",
        1e3 * acc.mc / acc.mc_samples.max(1) as f64,
    );
    report.set("netlist.parse_ms", per(acc.parse));
    report.set("cts.synthesize_ms", per(acc.synthesize));
    report.set("cts.nodes", acc.nodes as f64);
    report.set("pareto.point_ms", acc.point / acc.points.max(1) as f64);
    report.set("pareto.front_size", acc.front as f64);
    report.set("pareto.infeasible_points", acc.infeasible as f64);
    report.set("serve.plan_ms", per(acc.plan));
    report.set("serve.render_ms", per(acc.render));
    report.set("trace.requests", n as f64);
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_total - untraced_total) / untraced_total,
    );
    report.set("trace.coverage_pct", 100.0 * min_coverage);
    crate::zero_unset(report);
    crate::write_trace(args, &tracer)
}
