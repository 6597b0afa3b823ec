//! The single shared JSON serializer for flow results.
//!
//! These functions are the *only* place run/lint outcomes are turned into
//! JSON: `smart-ndr run --json` prints [`run_json`] verbatim, and the
//! daemon embeds the very same string inside its response envelope — so
//! the two output paths cannot drift. (A test in `tests/api.rs` pins the
//! envelope to embed `run_json` byte-identically.)
//!
//! Formatting is inherited unchanged from the original CLI writers:
//! `": "` / `", "` separators, fixed decimal precisions, and elapsed
//! times only where the CLI always reported them (`runtime_s`).

use snr_core::Outcome;
use snr_cts::ClockTree;
use snr_tech::Technology;

use snr_pareto::{SkewAxis, SweepPoint};

use crate::error::ApiError;
use crate::exec::{
    Event, ExportNdrResponse, ImportResponse, LintResponse, ParetoResponse, Response,
    RunResponse, SuiteResponse,
};
use crate::json::json_escape;

/// Serializes an [`Outcome`] as a JSON object, including the per-rule
/// wirelength histogram.
pub fn outcome_json(out: &Outcome, tree: &ClockTree, tech: &Technology) -> String {
    let usage = out.assignment().usage_um(tree, tech.rules());
    let histogram = tech
        .rules()
        .iter()
        .map(|(id, rule)| format!("\"{}\": {:.3}", json_escape(&rule.to_string()), usage[id.0]))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\"name\": \"{}\", \"network_uw\": {:.6}, \"total_uw\": {:.6}, ",
            "\"track_cost_um\": {:.3}, \"skew_ps\": {:.6}, \"max_slew_ps\": {:.6}, ",
            "\"latency_ps\": {:.6}, \"meets_constraints\": {}, \"runtime_s\": {:.6}, ",
            "\"rule_histogram_um\": {{{}}}}}"
        ),
        json_escape(out.name()),
        out.power().network_uw(),
        out.power().total_uw(),
        out.power().track_cost_um(),
        out.timing().skew_ps(),
        out.timing().max_slew_ps(),
        out.timing().latency_ps(),
        out.meets_constraints(),
        out.elapsed().as_secs_f64(),
        histogram,
    )
}

/// Serializes an outcome's supervision record (budget receipts plus the
/// degradation ladder) as a JSON object. Elapsed times are deliberately
/// omitted: every field here is deterministic for a given seed and job
/// count, so callers can diff the whole object across runs.
pub fn supervision_json(out: &Outcome, mc_cancelled: bool) -> String {
    let budgets = out
        .budget_reports()
        .iter()
        .map(|b| {
            format!(
                "{{\"phase\": \"{}\", \"iterations\": {}, \"exhausted\": {}}}",
                json_escape(b.phase),
                b.iterations_done,
                b.exhausted
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let rungs = out
        .degradations()
        .iter()
        .map(|d| {
            format!(
                "{{\"rung\": \"{}\", \"detail\": \"{}\"}}",
                json_escape(d.rung()),
                json_escape(&d.detail())
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\"budget_exhausted\": {}, \"mc_cancelled\": {}, ",
            "\"budgets\": [{}], \"degradations\": [{}]}}"
        ),
        out.budget_exhausted(),
        mc_cancelled,
        budgets,
        rungs,
    )
}

/// The full machine-readable object for a completed run — exactly the
/// line `smart-ndr run --json` prints.
pub fn run_json(resp: &RunResponse) -> String {
    let variation = match resp.variation {
        Some((b, r)) => format!(
            ", \"variation\": {{\"samples\": {}, \"sigma_skew_baseline_ps\": {b:.6}, \"sigma_skew_result_ps\": {r:.6}}}",
            resp.mc_samples
        ),
        None => String::new(),
    };
    format!(
        concat!(
            "{{\"design\": {{\"name\": \"{}\", \"sinks\": {}, \"freq_ghz\": {}}}, ",
            "\"tech\": \"{}\", ",
            "\"constraints\": {{\"slew_limit_ps\": {:.6}, \"skew_limit_ps\": {:.6}}}, ",
            "\"baseline\": {}, \"result\": {}, ",
            "\"saving\": {{\"network_frac\": {:.6}, \"track_frac\": {:.6}}}, ",
            "\"supervision\": {}{}}}"
        ),
        json_escape(resp.design.name()),
        resp.design.sinks().len(),
        resp.design.freq_ghz(),
        json_escape(resp.tech.name()),
        resp.constraints.slew_limit_ps(),
        resp.constraints.skew_limit_ps(),
        outcome_json(&resp.baseline, &resp.tree, &resp.tech),
        outcome_json(&resp.result, &resp.tree, &resp.tech),
        resp.result.network_saving_vs(&resp.baseline),
        1.0 - resp.result.power().track_cost_um() / resp.baseline.power().track_cost_um(),
        supervision_json(&resp.result, resp.mc_cancelled),
        variation,
    )
}

/// The human rendering of a completed run — exactly the block plain
/// `smart-ndr run` prints (trailing newline included). Centralized here
/// so the result store can save it on a cold run and the warm replay can
/// reproduce it byte-for-byte.
pub fn run_human(resp: &RunResponse) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "design: {}", resp.design);
    let _ = writeln!(out, "tree:   {}", resp.tree.stats());
    let _ = writeln!(out, "constraints: {}", resp.constraints);
    let _ = writeln!(out, "\nbaseline: {}", resp.baseline);
    let _ = writeln!(out, "result:   {}", resp.result);
    let _ = writeln!(
        out,
        "saving:   {:.1}% of clock-network power, {:.1}% of track cost",
        100.0 * resp.result.network_saving_vs(&resp.baseline),
        100.0
            * (1.0
                - resp.result.power().track_cost_um()
                    / resp.baseline.power().track_cost_um()),
    );
    for b in resp.result.budget_reports().iter().filter(|b| b.exhausted) {
        let _ = writeln!(
            out,
            "budget:   {} exhausted after {} iterations — result is best-so-far",
            b.phase, b.iterations_done
        );
    }
    for d in resp.result.degradations() {
        let _ = writeln!(out, "degraded: {d}");
    }
    if let Some((b, r)) = resp.variation {
        let _ = writeln!(
            out,
            "variation ({} samples): σ-skew baseline {b:.2} ps, result {r:.2} ps",
            resp.mc_samples
        );
    } else if resp.mc_cancelled {
        let _ = writeln!(
            out,
            "variation: cancelled by --timeout before {} samples completed",
            resp.mc_samples
        );
    }
    out
}

/// The machine-readable object for a completed lint — exactly the line
/// `smart-ndr lint --json` prints.
pub fn lint_json(resp: &LintResponse) -> String {
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"design\": \"{}\", \"status\": \"{}\", \"diagnostics\": [{}], \"repairs\": [{}]}}",
        json_escape(resp.design.name()),
        resp.status(),
        list(&resp.diagnostics),
        list(&resp.repairs),
    )
}

/// The machine-readable object for a completed import — exactly the line
/// `smart-ndr import --json` prints.
pub fn import_json(resp: &ImportResponse) -> String {
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        concat!(
            "{{\"design\": \"{}\", \"status\": \"{}\", \"sinks\": {}, ",
            "\"diagnostics\": [{}], \"repairs\": [{}]}}"
        ),
        json_escape(resp.design.name()),
        resp.status(),
        resp.design.sinks().len(),
        list(&resp.diagnostics),
        list(&resp.repairs),
    )
}

/// The machine-readable object for a completed NDR export — exactly the
/// line `smart-ndr export-ndr --json` prints. The script itself rides
/// along escaped, so daemon clients need no second channel to fetch it.
pub fn export_ndr_json(resp: &ExportNdrResponse) -> String {
    format!(
        concat!(
            "{{\"design\": \"{}\", \"tech\": \"{}\", \"nodes\": {}, ",
            "\"assigned\": {}, \"reimported\": {}, \"ndr_tcl\": \"{}\"}}"
        ),
        json_escape(resp.design.name()),
        json_escape(resp.tech.name()),
        resp.tree.len(),
        resp.assigned(),
        resp.reimported,
        json_escape(&resp.tcl),
    )
}

/// The machine-readable object for a completed suite.
pub fn suite_json(resp: &SuiteResponse) -> String {
    let rows = resp
        .rows
        .iter()
        .map(|row| {
            let diag = match &row.diagnostic {
                Some(d) => format!(", \"diagnostic\": \"{}\"", json_escape(d)),
                None => String::new(),
            };
            format!(
                "{{\"name\": \"{}\", \"line\": \"{}\", \"failed\": {}{}}}",
                json_escape(&row.name),
                json_escape(&row.line),
                row.failed,
                diag,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"rows\": [{}], \"failed\": {}}}", rows, resp.failed)
}

/// The constraint-point fields of one sweep point, shared by the JSON
/// front rows: the slew margin, exactly one of `skew_budget_ps` /
/// `window_ps`, and `track_frac` only when the axis is active.
fn sweep_point_fields(point: &SweepPoint) -> String {
    let skew = match point.skew {
        SkewAxis::Global { budget_ps } => format!("\"skew_budget_ps\": {budget_ps}"),
        SkewAxis::Window { window_ps } => format!("\"window_ps\": {window_ps}"),
    };
    let track = match point.track_frac {
        Some(frac) => format!(", \"track_frac\": {frac}"),
        None => String::new(),
    };
    format!("\"slew_margin\": {}, {skew}{track}", point.slew_margin)
}

/// The human rendering of a sweep point's skew constraint.
fn skew_cell(point: &SweepPoint) -> String {
    match point.skew {
        SkewAxis::Global { budget_ps } => format!("budget {budget_ps}ps"),
        SkewAxis::Window { window_ps } => format!("window ±{window_ps}ps"),
    }
}

/// The machine-readable object for a completed Pareto sweep — exactly
/// the line `smart-ndr pareto --json` prints. Every field is
/// deterministic modulo a fired deadline: replay counters and elapsed
/// times are deliberately excluded, so a cold sweep, a store-warm
/// re-run, and any `--jobs` value all emit byte-identical objects.
pub fn pareto_json(resp: &ParetoResponse) -> String {
    let front = resp
        .front
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "{{\"index\": {}, {}, \"power_uw\": {:.6}, \"skew_ps\": {:.6}, ",
                    "\"sigma_skew_ps\": {:.6}, \"track_cost_um\": {:.3}}}"
                ),
                row.point.index,
                sweep_point_fields(&row.point),
                row.objectives.power_uw,
                row.objectives.skew_ps,
                row.objectives.sigma_skew_ps,
                row.objectives.track_cost_um,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\"design\": {{\"name\": \"{}\", \"sinks\": {}, \"freq_ghz\": {}}}, ",
            "\"tech\": \"{}\", ",
            "\"sweep\": {{\"points\": {}, \"planned\": {}, \"evaluated\": {}, ",
            "\"infeasible\": {}, \"cancelled\": {}, \"exhausted\": {}}}, ",
            "\"front\": [{}]}}"
        ),
        json_escape(resp.design.name()),
        resp.design.sinks().len(),
        resp.design.freq_ghz(),
        json_escape(resp.tech.name()),
        resp.points_total,
        resp.points_planned,
        resp.evaluated,
        resp.infeasible,
        resp.cancelled,
        resp.budget.exhausted,
        front,
    )
}

/// The human rendering of a completed Pareto sweep — exactly the block
/// plain `smart-ndr pareto` prints (trailing newline included).
pub fn pareto_human(resp: &ParetoResponse) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "design: {}", resp.design);
    let _ = writeln!(out, "tech:   {}", resp.tech.name());
    let _ = writeln!(
        out,
        "sweep:  {} of {} points planned, {} evaluated, {} infeasible",
        resp.points_planned, resp.points_total, resp.evaluated, resp.infeasible
    );
    let _ = writeln!(out, "front:  {} non-dominated point(s)", resp.front.len());
    if !resp.front.is_empty() {
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:<16} {:>6} {:>12} {:>10} {:>10} {:>12}",
            "idx", "slew", "skew", "track", "power µW", "skew ps", "σ ps", "track µm"
        );
        for row in &resp.front {
            let track = match row.point.track_frac {
                Some(frac) => format!("{frac}"),
                None => "-".to_owned(),
            };
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:<16} {:>6} {:>12.1} {:>10.2} {:>10.2} {:>12.1}",
                row.point.index,
                row.point.slew_margin,
                skew_cell(&row.point),
                track,
                row.objectives.power_uw,
                row.objectives.skew_ps,
                row.objectives.sigma_skew_ps,
                row.objectives.track_cost_um,
            );
        }
    }
    if resp.budget.exhausted {
        let _ = writeln!(
            out,
            "budget: {} exhausted after {} points — front is best-so-far",
            resp.budget.phase, resp.budget.iterations_done
        );
    }
    out
}

/// The structured error object for a failed command — exactly the line
/// the CLI prints on `--json` failures.
pub fn error_json(err: &ApiError) -> String {
    format!(
        "{{\"error\": {{\"code\": \"{}\", \"message\": \"{}\"}}}}",
        err.code().as_str(),
        json_escape(err.message())
    )
}

/// The suite table's stdout header (with the runtime column).
pub fn suite_header() -> String {
    format!(
        "{:<8} {:>8} {:>12} {:>12} {:>8} {:<8} {:>9}",
        "design", "sinks", "2w2s µW", "smart µW", "save", "reason", "runtime"
    )
}

/// The suite table's deterministic header (runtime excluded), used for
/// `--out` artifacts that must be byte-identical across resumed runs.
pub fn suite_det_header() -> String {
    format!(
        "{:<8} {:>8} {:>12} {:>12} {:>8} {:<8}",
        "design", "sinks", "2w2s µW", "smart µW", "save", "reason"
    )
}

// ---------------------------------------------------------------------------
// Daemon envelope: id-tagged response, error and event lines.
// ---------------------------------------------------------------------------

/// The daemon's success line for request `id`: the shared result object,
/// embedded verbatim, under an id-tagged envelope.
pub fn response_line(id: u64, resp: &Response) -> String {
    match resp {
        Response::Run(r) => format!(
            "{{\"id\": {id}, \"ok\": true, \"cache\": \"{}\", \"result\": {}}}",
            r.cache.as_str(),
            run_json(r)
        ),
        // The stored result object, embedded verbatim: byte-identical to
        // the envelope the cold run produced (modulo the cache status).
        Response::Replayed(r) => format!(
            "{{\"id\": {id}, \"ok\": true, \"cache\": \"{}\", \"result\": {}}}",
            crate::cache::CacheStatus::StoreHit.as_str(),
            r.run_json
        ),
        Response::Lint(r) => {
            format!("{{\"id\": {id}, \"ok\": true, \"result\": {}}}", lint_json(r))
        }
        Response::Suite(r) => {
            format!("{{\"id\": {id}, \"ok\": true, \"result\": {}}}", suite_json(r))
        }
        Response::Pareto(r) => format!(
            "{{\"id\": {id}, \"ok\": true, \"cache\": \"{}\", \"result\": {}}}",
            r.cache.as_str(),
            pareto_json(r)
        ),
        Response::Import(r) => {
            format!("{{\"id\": {id}, \"ok\": true, \"result\": {}}}", import_json(r))
        }
        Response::ExportNdr(r) => {
            format!("{{\"id\": {id}, \"ok\": true, \"result\": {}}}", export_ndr_json(r))
        }
    }
}

/// The daemon's error line. `id` is `null` when the failing line carried
/// no readable id. Detail lines (e.g. lint diagnostics) ride along.
pub fn error_line(id: Option<u64>, err: &ApiError) -> String {
    let id = match id {
        Some(id) => id.to_string(),
        None => "null".to_owned(),
    };
    let details = if err.details().is_empty() {
        String::new()
    } else {
        let items = err
            .details()
            .iter()
            .map(|d| format!("\"{}\"", json_escape(d)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(", \"details\": [{items}]")
    };
    format!(
        "{{\"id\": {id}, \"error\": {{\"code\": \"{}\", \"message\": \"{}\"{}}}}}",
        err.code().as_str(),
        json_escape(err.message()),
        details,
    )
}

/// One streamed event line for request `id`.
pub fn event_line(id: u64, event: &Event) -> String {
    match event {
        Event::PhaseStart { phase } => {
            format!("{{\"id\": {id}, \"event\": \"phase_start\", \"phase\": \"{phase}\"}}")
        }
        Event::PhaseDone { phase, elapsed } => format!(
            "{{\"id\": {id}, \"event\": \"phase_done\", \"phase\": \"{phase}\", \"elapsed_ms\": {:.3}}}",
            elapsed.as_secs_f64() * 1e3
        ),
        Event::SuiteRow(row) => format!(
            "{{\"id\": {id}, \"event\": \"suite_row\", \"name\": \"{}\", \"failed\": {}}}",
            json_escape(&row.name),
            row.failed
        ),
        Event::StoreQuarantined { scope, detail } => format!(
            "{{\"id\": {id}, \"event\": \"store_quarantined\", \"scope\": \"{scope}\", \
             \"detail\": \"{}\"}}",
            json_escape(detail)
        ),
        Event::FrontPoint { index, eval, replayed } => format!(
            concat!(
                "{{\"id\": {}, \"event\": \"front_point\", \"index\": {}, ",
                "\"power_uw\": {:.6}, \"skew_ps\": {:.6}, \"sigma_skew_ps\": {:.6}, ",
                "\"track_cost_um\": {:.3}, \"meets\": {}, \"replayed\": {}}}"
            ),
            id,
            index,
            eval.objectives.power_uw,
            eval.objectives.skew_ps,
            eval.objectives.sigma_skew_ps,
            eval.objectives.track_cost_um,
            eval.meets,
            replayed,
        ),
    }
}

/// The daemon's post-execution supervision event: the deterministic
/// budget/degradation summary of a finished run, streamed per request so
/// monitoring clients need not parse the full result object.
pub fn supervision_event_line(id: u64, resp: &RunResponse) -> String {
    supervision_event_line_raw(id, &supervision_json(&resp.result, resp.mc_cancelled))
}

/// Same event from an already-rendered supervision object — what a
/// store-replayed run carries.
pub fn supervision_event_line_raw(id: u64, supervision: &str) -> String {
    format!("{{\"id\": {id}, \"event\": \"supervision\", \"supervision\": {supervision}}}")
}
