//! Pareto front lock: the `pareto --json` bytes of three sweeps, checked
//! byte for byte against `tests/golden/pareto_*.txt`:
//!
//! - `pareto_default`: the default 15-point sweep of a 400-sink design;
//! - `pareto_corners`: the default sweep of a 180-sink design with the
//!   slow/fast corners enforced;
//! - `pareto_grid`: a 300-sink design under two track budgets and three
//!   useful-skew windows;
//! - `pareto_n32`: the default sweep of a 400-sink design on N32;
//! - `pareto_dense`: 45 points of a 200-sink design, five slew margins
//!   under six skew budgets and three windows, with 4 Monte-Carlo samples;
//! - `pareto_mixed`: 36 points of a 150-sink design with the corners
//!   enforced, under two track budgets and one window, 10 of them with an
//!   infeasible start.
//!
//! Each test leaves the output it produced as `<name>.actual.txt` in
//! Cargo's integration-test temp directory; `scripts/golden.sh --bless`
//! copies them over the checked-in files.

use std::path::Path;
use std::process::Command;

/// Runs `pareto <args> --json`, writes its stdout to `<name>.actual.txt`
/// and compares it with `tests/golden/<name>.txt`.
fn check(name: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
        .arg("pareto")
        .args(args)
        .arg("--json")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "pareto {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("pareto --json is UTF-8");
    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&actual, &got).expect("write the actual front");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    let want = std::fs::read_to_string(&golden).expect("read the golden front");
    assert!(
        want == got,
        "pareto {args:?} drifted from {}:\n--- golden\n{want}--- actual\n{got}",
        golden.display()
    );
}

#[test]
fn default_sweep_front_matches_golden() {
    check("pareto_default", &["--sinks", "400", "--seed", "1"]);
}

#[test]
fn corner_sweep_front_matches_golden() {
    check("pareto_corners", &["--sinks", "180", "--seed", "2", "--corners"]);
}

#[test]
fn track_and_window_sweep_front_matches_golden() {
    check(
        "pareto_grid",
        &["--sinks", "300", "--seed", "3", "--track-fracs", "0.9,0.8", "--windows", "40,15,8"],
    );
}

#[test]
fn n32_sweep_front_matches_golden() {
    check("pareto_n32", &["--tech", "n32", "--sinks", "400", "--seed", "4"]);
}

#[test]
fn dense_sweep_front_matches_golden() {
    check(
        "pareto_dense",
        &[
            "--sinks",
            "200",
            "--seed",
            "5",
            "--slew-margins",
            "1.02,1.05,1.1,1.25,1.5",
            "--skew-budgets",
            "5,10,20,40,80,150",
            "--windows",
            "40,15,8",
            "--mc",
            "4",
        ],
    );
}

#[test]
fn mixed_sweep_front_matches_golden() {
    check(
        "pareto_mixed",
        &[
            "--sinks",
            "150",
            "--seed",
            "6",
            "--corners",
            "--track-fracs",
            "0.95,0.85",
            "--windows",
            "20",
            "--mc",
            "4",
        ],
    );
}
