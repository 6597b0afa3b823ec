//! Traced-run plumbing shared by the single-client workloads: phase spans
//! from the program's event sink, the replayed steps of `execute` and the
//! bit-for-bit comparison of their results.

use std::sync::Mutex;
use std::time::Instant;

use snr_core::Outcome;
use snr_serve::{execute, plan, Event, ExecCtx, Plan, Request, Response};

use crate::refkernel::RefKernel;
use crate::trace::Tracer;

/// Collects `PhaseStart`/`PhaseDone` pairs and `FrontPoint` arrivals
/// from an `ExecCtx` sink, stamped on arrival.
#[derive(Debug, Default)]
pub struct EventLog {
    inner: Mutex<EventLogInner>,
}

#[derive(Debug, Default)]
struct EventLogInner {
    open: Vec<(&'static str, Instant)>,
    phases: Vec<(&'static str, Instant, Instant)>,
    points: Vec<(Instant, usize, snr_pareto::PointEval)>,
}

impl EventLog {
    /// The sink to attach to an `ExecCtx`.
    pub fn on_event(&self, event: &Event) {
        let now = Instant::now();
        let mut log = self.inner.lock().expect("event log lock is never poisoned");
        match event {
            Event::PhaseStart { phase } => log.open.push((phase, now)),
            Event::PhaseDone { phase, .. } => {
                if let Some(at) = log.open.iter().rposition(|(p, _)| p == phase) {
                    let (_, start) = log.open.remove(at);
                    log.phases.push((phase, start, now));
                }
            }
            Event::FrontPoint { index, eval, .. } => log.points.push((now, *index, *eval)),
            _ => {}
        }
    }

    /// When phase `phase` started, if it completed.
    pub fn phase_start(&self, phase: &str) -> Option<Instant> {
        let log = self.inner.lock().expect("event log lock is never poisoned");
        log.phases
            .iter()
            .find(|(p, _, _)| *p == phase)
            .map(|&(_, start, _)| start)
    }

    /// The streamed point evaluations, in arrival order.
    pub fn points(&self) -> Vec<(Instant, usize, snr_pareto::PointEval)> {
        self.inner
            .lock()
            .expect("event log lock is never poisoned")
            .points
            .clone()
    }

    /// Records every completed phase as a span under `parent`.
    pub fn record_phases(&self, tracer: &mut Tracer, parent: usize, request: u64) {
        let log = self.inner.lock().expect("event log lock is never poisoned");
        for &(phase, start, end) in &log.phases {
            tracer.record(phase_span(phase), start, end, Some(parent), request);
        }
    }
}

/// The span name of a program phase.
pub fn phase_span(phase: &str) -> &'static str {
    match phase {
        "parse" => "phase.parse",
        "cts" => "phase.cts",
        "optimize" => "phase.optimize",
        "mc" => "phase.mc",
        "sweep" => "phase.sweep",
        _ => "phase.other",
    }
}

/// Whether two outcomes agree bit for bit in everything but wall-clock
/// times: name, assignment, power, timing, feasibility, budget receipts
/// and degradations.
pub fn same_outcome(a: &Outcome, b: &Outcome) -> bool {
    let receipts = |o: &Outcome| {
        o.budget_reports()
            .iter()
            .map(|r| (r.phase, r.iterations_done, r.exhausted))
            .collect::<Vec<_>>()
    };
    let rungs = |o: &Outcome| {
        o.degradations()
            .iter()
            .map(|d| d.rung())
            .collect::<Vec<_>>()
    };
    a.name() == b.name()
        && a.assignment() == b.assignment()
        && a.power() == b.power()
        && a.timing() == b.timing()
        && a.meets_constraints() == b.meets_constraints()
        && receipts(a) == receipts(b)
        && rungs(a) == rungs(b)
}

/// Decision steps across every budgeted phase of an outcome.
pub fn iterations(o: &Outcome) -> u64 {
    o.budget_reports().iter().map(|r| r.iterations_done).sum()
}

/// Share of `request` covered by leaf layer spans: one minus the self
/// time of the request span and of the listed intermediate spans.
pub fn coverage(tracer: &Tracer, request: usize, intermediates: &[usize]) -> f64 {
    let total = tracer.spans()[request].duration_us();
    let uncovered: f64 = std::iter::once(request)
        .chain(intermediates.iter().copied())
        .map(|i| tracer.self_time_us(i))
        .sum();
    1.0 - uncovered / total
}

/// One request sent through the public path under spans.
pub struct TracedRequest {
    /// The executed plan.
    pub plan: Plan,
    /// The response.
    pub response: Response,
    /// The program's events during `execute`.
    pub log: EventLog,
    /// The `request` span, enclosing the three below.
    pub request: usize,
    /// The `serve.plan` span.
    pub plan_span: usize,
    /// The `serve.execute` span; the program's phases sit under it.
    pub execute_span: usize,
    /// The `serve.render` span.
    pub render_span: usize,
    /// Nominal ÷ the reference time around the request.
    pub factor: f64,
}

impl TracedRequest {
    /// Duration of `span` at reference speed, ms.
    pub fn ms(&self, tracer: &Tracer, span: usize) -> f64 {
        tracer.spans()[span].duration_us() / 1e3 * self.factor
    }
}

/// Sends `req` through `plan`, `execute` (with an event sink, no cache or
/// store) and `render`, recording a `request` span around a span for
/// each, the program's phases under `serve.execute`, and kernel samples
/// on either side.
///
/// # Errors
///
/// Planning or execution failed.
pub fn traced_request(
    tracer: &mut Tracer,
    kernel: &mut RefKernel,
    nominal_ms: f64,
    id: u64,
    req: &Request,
    render: impl FnOnce(&Response) -> String,
) -> Result<TracedRequest, String> {
    let before = kernel.sample_ms();
    let log = EventLog::default();
    let start = Instant::now();
    let (planned, plan_span) = tracer.time("serve.plan", None, id, || plan(req));
    let planned = planned.map_err(|e| e.to_string())?;
    let (response, execute_span) = {
        let sink = |e: &Event| log.on_event(e);
        let ctx = ExecCtx {
            cache: None,
            sink: Some(&sink),
            on_token: None,
            store: None,
        };
        tracer.time("serve.execute", None, id, || execute(&planned, &ctx))
    };
    let response = response.map_err(|e| e.to_string())?;
    let (_, render_span) = tracer.time("serve.render", None, id, || render(&response));
    let request = tracer.record("request", start, Instant::now(), None, id);
    for child in [plan_span, execute_span, render_span] {
        tracer.set_parent(child, request);
    }
    log.record_phases(tracer, execute_span, id);
    let after = kernel.sample_ms();
    Ok(TracedRequest {
        plan: planned,
        response,
        log,
        request,
        plan_span,
        execute_span,
        render_span,
        factor: nominal_ms / ((before + after) / 2.0),
    })
}
