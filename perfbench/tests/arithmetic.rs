//! The benchmark's own arithmetic: percentiles, reference scaling, the
//! counters derived from daemon lines, span self time, and agreement of
//! the metric catalogue with `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::time::Instant;

use perfbench::daemon::{self, Line};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stats;
use perfbench::trace::{self_time, Tracer};

#[test]
fn tail_percentile_is_withheld_below_100_samples() {
    let values: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(stats::tail_percentile(&values, 0.9), None);
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::tail_percentile(&values, 0.9), Some(90.0));
    // Ten samples lie beyond the reported value.
    assert_eq!(values.iter().filter(|v| **v > 90.0).count(), 10);
    assert_eq!(stats::tail_percentile(&[], 0.9), None);
}

#[test]
fn percentiles_use_nearest_rank() {
    let values = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(stats::median(&values), 3.0);
    assert_eq!(stats::percentile(&values, 1.0), 5.0);
    assert_eq!(stats::percentile(&values, 0.2), 1.0);
    assert_eq!(stats::median(&[2.0, 1.0]), 1.0);
}

#[test]
fn reference_scaling_cancels_a_uniformly_slower_host() {
    let nominal = 0.4;
    let raw = [10.0, 12.0, 30.0, 11.0];
    let kernel = [0.40, 0.42, 0.38, 0.41, 0.40];
    let fast = stats::scale_latencies(&raw, &kernel, nominal);
    let slow_raw: Vec<f64> = raw.iter().map(|r| r * 2.0).collect();
    let slow_kernel: Vec<f64> = kernel.iter().map(|k| k * 2.0).collect();
    let slow = stats::scale_latencies(&slow_raw, &slow_kernel, nominal);
    for (a, b) in fast.iter().zip(&slow) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
    assert_eq!(stats::at_reference(20.0, 0.8, 0.4), 10.0);
}

#[test]
fn local_reference_is_the_median_of_nearby_samples() {
    let kernel = [1.0, 9.0, 2.0, 3.0, 100.0, 4.0];
    // Request 0 sits between samples 0 and 1; the window reaches 2 on
    // either side of that pair.
    assert_eq!(stats::local_ref(&kernel, 0, 2), 2.0);
    assert_eq!(stats::local_ref(&kernel, 4, 0), 4.0);
    assert_eq!(stats::local_ref(&kernel, 2, 1), 3.0);
}

fn lines(texts: &[&str]) -> Vec<Line> {
    let at = Instant::now();
    texts
        .iter()
        .map(|t| Line {
            at,
            text: (*t).to_owned(),
        })
        .collect()
}

#[test]
fn duplicate_builds_and_hit_ratio_derive_from_daemon_lines() {
    // Requests 1 and 2 race on design "a"; request 3 builds design "b";
    // request 4 is served warm (no build); request 5 rebuilds "a".
    let canned = lines(&[
        r#"{"id": 1, "event": "accepted", "queue_depth": 0}"#,
        r#"{"id": 2, "event": "accepted", "queue_depth": 1}"#,
        r#"{"id": 1, "event": "phase_done", "phase": "parse", "elapsed_ms": 0.700}"#,
        r#"{"id": 1, "event": "phase_done", "phase": "cts", "elapsed_ms": 3.100}"#,
        r#"{"id": 2, "event": "phase_done", "phase": "cts", "elapsed_ms": 3.300}"#,
        r#"{"id": 3, "event": "phase_done", "phase": "cts", "elapsed_ms": 1.000}"#,
        r#"{"id": 4, "event": "phase_done", "phase": "optimize", "elapsed_ms": 9.000}"#,
        r#"{"id": 5, "event": "phase_done", "phase": "cts", "elapsed_ms": 3.000}"#,
        r#"{"id": 1, "ok": true, "cache": "miss", "result": {}}"#,
    ]);
    let key_of: BTreeMap<u64, &str> = [(1, "a"), (2, "a"), (3, "b"), (4, "a"), (5, "a")]
        .into_iter()
        .collect();
    let built = daemon::built_keys(&canned, &key_of);
    assert_eq!(built, vec!["a", "a", "b", "a"]);
    assert_eq!(stats::duplicate_builds(&built), 2);
    assert_eq!(daemon::accepted_depth(&canned[1..]), Some(1));
    assert_eq!(
        daemon::phases_done(&canned[..4]),
        vec![("parse".to_owned(), 0.7), ("cts".to_owned(), 3.1)]
    );

    let stats_line = concat!(
        r#"{"id": 9, "ok": true, "result": {"requests": {"received": 12, "completed": 11, "#,
        r#""errors": 1, "panics": 0, "cancelled": 0}, "cache": {"hits": 5, "misses": 4, "#,
        r#""entries": 3, "capacity": 32}, "store": {"enabled": true, "hits": 6, "misses": 2, "#,
        r#""quarantined": 0, "writes": 2}, "queue": {"depth": 0, "capacity": 64}, "#,
        r#""workers": 2, "phases": {}}}"#
    );
    let s = daemon::parse_stats(stats_line).expect("a complete stats line");
    assert_eq!((s.received, s.completed, s.errors), (12, 11, 1));
    assert_eq!((s.cache_hits, s.cache_misses, s.cache_entries), (5, 4, 3));
    assert_eq!((s.store_hits, s.store_misses, s.store_writes), (6, 2, 2));
    assert_eq!(stats::hit_ratio(s.store_hits, s.store_misses), 0.75);
    assert_eq!(stats::hit_ratio(0, 0), 0.0);
    assert!(daemon::parse_stats(r#"{"id": 9, "ok": true, "result": {}}"#).is_err());
}

#[test]
fn daemon_lines_are_classified_and_routed_by_id() {
    assert!(daemon::is_event(
        r#"{"id": 7, "event": "accepted", "queue_depth": 0}"#
    ));
    assert!(!daemon::is_event(
        r#"{"id": 7, "ok": true, "result": {"a": 1}}"#
    ));
    assert!(!daemon::is_event(
        r#"{"id": 7, "error": {"code": "usage", "message": "x"}}"#
    ));
    assert_eq!(
        daemon::line_id(r#"{"id": 1099511627776, "ok": true}"#),
        Some(1 << 40)
    );
    assert_eq!(daemon::line_id(r#"{"id": null, "error": {}}"#), None);
    let line = r#"{"id": 3, "ok": true, "cache": "store_hit", "result": {"x": [1, 2]}}"#;
    assert_eq!(daemon::result_text(line), Some(r#"{"x": [1, 2]}"#));
    assert_eq!(daemon::cache_status(line).as_deref(), Some("store_hit"));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Parent [0, 100]; children overlap ([10, 30] and [20, 50]) and one
    // sticks out past the parent's end ([90, 120]).
    let children = [(10.0, 30.0), (20.0, 50.0), (90.0, 120.0)];
    assert_eq!(self_time(0.0, 100.0, &children), 100.0 - 40.0 - 10.0);
    assert_eq!(self_time(0.0, 100.0, &[]), 100.0);
    assert_eq!(self_time(0.0, 100.0, &[(-5.0, 200.0)]), 0.0);

    let mut tracer = Tracer::new();
    let parent = tracer.begin("request", None, 1);
    let (_, child) = tracer.time("core.optimize", Some(parent), 1, || {
        std::thread::sleep(std::time::Duration::from_millis(2));
    });
    tracer.finish(parent);
    let spans = tracer.spans();
    let expected = spans[parent].duration_us() - spans[child].duration_us();
    assert!((tracer.self_time_us(parent) - expected).abs() < 1e-6);
    assert_eq!(tracer.self_time_us(child), spans[child].duration_us());
}

/// The metric catalogue the binary reports must be the one
/// `BENCHMARK.json` declares, in the same order.
#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = snr_serve::json::Json::parse(&text).expect("BENCHMARK.json is JSON");
    for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(snr_serve::json::Json::Arr(entries)) = doc.get(section) else {
            panic!("BENCHMARK.json lacks {section}");
        };
        let declared: Vec<(String, String, String)> = entries
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = catalogue
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect();
        assert_eq!(declared, ours, "{section} differs from the catalogue");
    }
}
