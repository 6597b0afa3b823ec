//! The metric catalogue and the one-line JSON result every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the tool sees, measured with tracing off. Timings are
/// at reference speed.
pub const END_TO_END: &[Metric] = &[
    m("latency_p50_ms", "ms", "lower"),
    m("latency_p90_ms", "ms", "lower"),
    m("throughput_rps", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("saving_pct", "%", "higher"),
    m("ok_pct", "%", "higher"),
    m("setup_s", "s", "lower"),
];

/// Single-layer metrics from the traced run. Time metrics are means per
/// traced request at reference speed unless the name says otherwise;
/// counts are sums over the traced requests.
pub const PER_LAYER: &[Metric] = &[
    m("core.optimize_ms", "ms", "lower"),
    m("core.optimize_iterations", "count", "lower"),
    m("core.optimize_us_per_iter", "us", "lower"),
    m("core.degradations", "count", "lower"),
    m("core.constraints_ms", "ms", "lower"),
    m("core.context_ms", "ms", "lower"),
    m("core.baseline_ms", "ms", "lower"),
    m("variation.mc_ms", "ms", "lower"),
    m("variation.us_per_sample", "us", "lower"),
    m("netlist.parse_ms", "ms", "lower"),
    m("netlist.import_ms", "ms", "lower"),
    m("cts.synthesize_ms", "ms", "lower"),
    m("cts.nodes", "count", "lower"),
    m("cts.export_tcl_ms", "ms", "lower"),
    m("pareto.point_ms", "ms", "lower"),
    m("pareto.front_size", "count", "higher"),
    m("pareto.infeasible_points", "count", "lower"),
    m("serve.envelope_ms", "ms", "lower"),
    m("serve.plan_ms", "ms", "lower"),
    m("serve.render_ms", "ms", "lower"),
    m("serve.roundtrip_ms", "ms", "lower"),
    m("serve.queue_depth", "count", "lower"),
    m("store.load_ms", "ms", "lower"),
    m("store.save_ms", "ms", "lower"),
    m("store.hits", "count", "higher"),
    m("store.misses", "count", "lower"),
    m("store.writes", "count", "lower"),
    m("store.quarantined", "count", "lower"),
    m("store.lost_writes", "count", "lower"),
    m("store.hit_ratio", "ratio", "higher"),
    m("cache.hits", "count", "higher"),
    m("cache.misses", "count", "lower"),
    m("cache.entries", "count", "lower"),
    m("cache.duplicate_builds", "count", "lower"),
    m("host.ref_ms", "ms", "lower"),
    m("host.raw_latency_p50_ms", "ms", "lower"),
    m("host.raw_latency_p90_ms", "ms", "lower"),
    m("host.wait_ms", "ms", "lower"),
    m("trace.requests", "count", "higher"),
    m("trace.overhead_pct", "%", "lower"),
    m("trace.coverage_pct", "%", "higher"),
];

/// The host diagnostics printed beside the end-to-end metrics of an
/// untraced run; never gated.
pub const HOST: &[&str] = &[
    "host.ref_ms",
    "host.raw_latency_p50_ms",
    "host.raw_latency_p90_ms",
    "host.wait_ms",
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted in the timed pass.
    pub attempted: u64,
    /// Requests that errored, panicked or failed an output check.
    pub failed: u64,
    /// Every metric measured, by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// When `name` is not in the catalogue, a bug in the workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: every end-to-end metric, or every per-layer
    /// metric when `traced`.
    ///
    /// # Errors
    ///
    /// A metric of that set that is missing or not finite.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let names: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics = self.metrics_json(&names)?;
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }

    /// The host diagnostics as one JSON object line.
    ///
    /// # Errors
    ///
    /// A diagnostic that is missing or not finite.
    pub fn host_line(&self) -> Result<String, String> {
        Ok(format!("{{\"host\": {}}}", self.metrics_json(HOST)?))
    }

    fn metrics_json(&self, names: &[&str]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let unit = unit_of(name).ok_or_else(|| format!("metric {name} unknown"))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}
