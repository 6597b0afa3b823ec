//! End-to-end tests of the `smart-ndr` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smart-ndr-clitest-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE") && text.contains("smart-ndr run"));
}

#[test]
fn command_help_flag_prints_usage_for_every_command() {
    let commands = [
        "gen", "run", "pareto", "lint", "import", "export-ndr", "suite", "serve", "mesh", "help",
    ];
    for cmd in commands {
        for flag in ["--help", "-h"] {
            let out = bin().args([cmd, flag]).output().expect("binary runs");
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{cmd} {flag} exited {:?}: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(text.contains("USAGE") && text.contains("smart-ndr run"), "{cmd} {flag}");
        }
    }
    // Other flags do not get in the way, but the command must exist.
    let out = bin().args(["run", "--sinks", "40", "--help"]).output().expect("binary runs");
    assert!(out.status.success() && String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    let out = bin().args(["frobnicate", "--help"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command") && err.contains("USAGE"));
}

#[test]
fn gen_then_run_roundtrip() {
    let design_path = tmp("design.sndr");
    let svg_path = tmp("tree.svg");

    let out = bin()
        .args(["gen", "--sinks", "120", "--seed", "9", "--out"])
        .arg(&design_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = bin()
        .args(["run", "--design"])
        .arg(&design_path)
        .args(["--method", "greedy", "--mc", "10", "--svg"])
        .arg(&svg_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("saving:"), "missing saving line: {text}");
    assert!(text.contains("σ-skew"), "missing variation line: {text}");
    assert!(text.contains("MET"), "result should meet constraints: {text}");

    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));

    let _ = std::fs::remove_file(&design_path);
    let _ = std::fs::remove_file(&svg_path);
}

#[test]
fn run_generates_on_the_fly() {
    let out = bin()
        .args(["run", "--sinks", "60", "--seed", "2", "--method", "level", "--tech", "n32"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("level-based"));
}

#[test]
fn mesh_command_compares_structures() {
    let out = bin()
        .args(["mesh", "--sinks", "80", "--seed", "3", "--grid", "8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mesh / tree network power"), "{text}");
    assert!(text.contains("drivers"));
}

#[test]
fn run_json_emits_machine_readable_outcome() {
    let out = bin()
        .args(["run", "--sinks", "80", "--seed", "4", "--method", "greedy", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.trim();
    // Exactly one line of output: the JSON object, no human table around it.
    assert!(!line.contains('\n'), "expected a single JSON line: {text}");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert_eq!(
        line.matches('{').count(),
        line.matches('}').count(),
        "unbalanced braces: {line}"
    );
    for key in [
        "\"design\"",
        "\"constraints\"",
        "\"baseline\"",
        "\"result\"",
        "\"network_uw\"",
        "\"skew_ps\"",
        "\"max_slew_ps\"",
        "\"runtime_s\"",
        "\"rule_histogram_um\"",
        "\"meets_constraints\": true",
        "\"saving\"",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
    // The N45 menu's rules appear as histogram keys.
    assert!(line.contains("\"2W2S\"") && line.contains("\"1W1S\""), "{line}");
}

#[test]
fn run_json_with_variation_includes_sigma_skew() {
    let out = bin()
        .args(["run", "--sinks", "60", "--seed", "2", "--method", "level", "--mc", "8", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"variation\""), "{text}");
    assert!(text.contains("\"sigma_skew_result_ps\""), "{text}");
    assert!(!text.contains("σ-skew"), "human line must be suppressed: {text}");
}

#[test]
fn run_without_design_or_sinks_fails() {
    let out = bin().arg("run").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--design") || err.contains("--sinks"));
}

#[test]
fn run_with_oversized_sink_count_is_invalid_input() {
    let out = bin().args(["run", "--sinks", "100000000000"]).output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "invalid input exits 3: {err}");
    assert!(err.contains("at most 1000000 sinks"), "{err}");
}

#[test]
fn bad_flag_value_fails_cleanly() {
    let out = bin()
        .args(["run", "--sinks", "not-a-number"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --sinks"));
}

/// The request commands hand their flags to the daemon's request parser,
/// so the daemon's rules hold on the command line too.
#[test]
fn request_flags_follow_the_daemon_rules() {
    let path = tmp("translate.sndr");
    let out = bin()
        .args(["gen", "--sinks", "30", "--seed", "5", "--out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // A design file and generator flags name two designs.
    let out = bin()
        .args(["run", "--sinks", "40", "--json", "--design"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("unknown field \\\"design.generate\\\""), "{text}");

    // JSON numbers are exact integers only up to 2^53.
    let out = bin()
        .args(["run", "--sinks", "40", "--seed", "18446744073709551615", "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("field \\\"seed\\\" must be a non-negative integer"), "{text}");

    // A count may be written as any JSON number with an integer value.
    let args = ["run", "--sinks", "4e1", "--mc", "1e1", "--json"];
    let out = bin().args(args).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"sinks\": 40") && text.contains("\"samples\": 10"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn misspelt_flag_is_a_usage_error() {
    // A typo must not silently run at the default 1.10 margin.
    let out = bin()
        .args(["run", "--sinks", "40", "--slew-margn", "1.3"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "unknown flags exit 1");
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --slew-margn"), "{err}");

    // Under --json the error is the structured object on stdout.
    let out = bin()
        .args(["run", "--sinks", "40", "--slew-margn", "1.3", "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("{\"error\": {\"code\": \"usage\"") && text.contains("--slew-margn"),
        "{text}"
    );

    // A flag another command reads is still unknown here; --json is not.
    let out = bin().args(["lint", "--sinks", "40", "--json"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("unknown flag --sinks for lint"));
}

// ---------------------------------------------------------------------------
// Robustness: lint, typed exit codes, JSON error objects, hardened suite.
// ---------------------------------------------------------------------------

/// A structurally broken `.sndr`: NaN coordinate, negative cap, duplicate id.
const BROKEN_SNDR: &str = "sndr 1\ndesign broken freq_ghz 1.0\n\
    die 0 0 100000 100000\nroot 0 0\n\
    sink 0 a nan 10000 5.0\nsink 0 b 20000 20000 -3.0\nsink 1 c 40000 40000 8.0\nend\n";

#[test]
fn lint_clean_design_exits_zero() {
    let path = tmp("lint-clean.sndr");
    let out = bin()
        .args(["gen", "--sinks", "30", "--seed", "5", "--out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = bin().args(["lint", "--design"]).arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lint_invalid_design_exits_three_with_diagnostics() {
    let path = tmp("lint-broken.sndr");
    std::fs::write(&path, BROKEN_SNDR).expect("write test design");
    let out = bin().args(["lint", "--design"]).arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "invalid input exits 3");
    let text = String::from_utf8_lossy(&out.stdout);
    // Each problem surfaces as a structured diagnostic with a stable code.
    assert!(text.contains("error[G01]"), "NaN coordinate diagnostic: {text}");
    assert!(text.contains("error[E02]"), "negative cap diagnostic: {text}");
    assert!(text.contains("error[T02]"), "duplicate id diagnostic: {text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--repair"), "repair hint");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lint_repair_salvages_and_output_is_loadable() {
    let path = tmp("lint-repairme.sndr");
    let fixed = tmp("lint-fixed.sndr");
    std::fs::write(&path, BROKEN_SNDR).expect("write test design");
    let out = bin()
        .args(["lint", "--repair", "--design"])
        .arg(&path)
        .arg("--out")
        .arg(&fixed)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("repaired"), "{text}");
    assert!(text.contains("repair["), "repair actions are reported: {text}");

    // The repaired file round-trips as a clean design.
    let out = bin().args(["lint", "--design"]).arg(&fixed).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&fixed);
}

#[test]
fn lint_infeasible_design_exits_four() {
    // Valid input, but no buffer in the library can drive a 90 nF sink:
    // that is a constraint problem (exit 4), not an input problem (exit 3).
    let path = tmp("lint-heavy.sndr");
    std::fs::write(
        &path,
        "sndr 1\ndesign heavy freq_ghz 1.0\ndie 0 0 100000 100000\nroot 0 0\n\
         sink 0 a 10000 10000 90000\nsink 1 b 90000 90000 12.0\nend\n",
    )
    .expect("write test design");
    let out = bin().args(["lint", "--design"]).arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "infeasible exits 4");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_json_failure_emits_structured_error_object() {
    // Invalid input: the error object lands on stdout with a stable code.
    let out = bin()
        .args(["run", "--design", "/nonexistent/nope.sndr", "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.trim();
    assert!(line.starts_with("{\"error\":"), "error object on stdout: {line}");
    assert!(line.contains("\"code\": \"invalid_input\""), "{line}");
    assert!(line.contains("\"message\":"), "{line}");

    // Infeasible is distinguishable from invalid input by its code.
    let path = tmp("run-heavy.sndr");
    std::fs::write(
        &path,
        "sndr 1\ndesign heavy freq_ghz 1.0\ndie 0 0 100000 100000\nroot 0 0\n\
         sink 0 a 10000 10000 90000\nsink 1 b 90000 90000 12.0\nend\n",
    )
    .expect("write test design");
    let out = bin()
        .args(["run", "--json", "--design"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"code\": \"infeasible\""), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn suite_continues_past_poisoned_design() {
    let dir = tmp("suite-pool");
    std::fs::create_dir_all(&dir).expect("create pool dir");
    for (name, sinks, seed) in [("a.sndr", "24", "1"), ("z.sndr", "32", "2")] {
        let out = bin()
            .args(["gen", "--sinks", sinks, "--seed", seed, "--out"])
            .arg(dir.join(name))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    // Sorts between the two healthy designs, so the suite must recover
    // mid-run, not merely tolerate a bad tail.
    std::fs::write(dir.join("m-poison.sndr"), "this is not a design\n").expect("write poison");

    let out = bin().args(["suite", "--designs"]).arg(&dir).output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "one poisoned design must not fail the suite: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAILED"), "poisoned row marked FAILED: {text}");
    assert!(text.contains("poison"), "{text}");
    // The healthy designs before and after the poisoned one still completed.
    assert!(text.contains("cli-s24") && text.contains("cli-s32"), "{text}");
    assert!(text.contains("1 of 3 designs FAILED"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The suite front-end of the durable store: rows persist per design
/// content, a second run replays them (runtime column shows `-`, like a
/// resumed row), and the deterministic `--out` artifact is byte-identical
/// cold vs warm.
#[test]
fn suite_store_replays_rows_byte_identically() {
    let dir = tmp("suite-store");
    let designs = dir.join("designs");
    std::fs::create_dir_all(&designs).expect("designs dir");
    for (name, sinks, seed) in [("a.sndr", "24", "1"), ("b.sndr", "32", "2")] {
        let out = bin()
            .args(["gen", "--sinks", sinks, "--seed", seed, "--out"])
            .arg(designs.join(name))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let store = dir.join("store");
    let run = |out_name: &str| {
        let out = bin()
            .args(["suite", "--designs"])
            .arg(&designs)
            .args(["--store"])
            .arg(&store)
            .args(["--out"])
            .arg(dir.join(out_name))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8(out.stdout).expect("utf-8"),
            String::from_utf8(out.stderr).expect("utf-8"),
        )
    };

    let (_, cold_err) = run("cold.txt");
    assert!(
        cold_err.contains("store: 0 hit(s), 2 miss(es), 0 quarantined, 2 write(s)"),
        "cold suite must persist every clean row: {cold_err}"
    );
    let (warm_out, warm_err) = run("warm.txt");
    assert!(
        warm_err.contains("store: 2 hit(s), 0 miss(es), 0 quarantined, 0 write(s)"),
        "warm suite must replay every row: {warm_err}"
    );
    // Replayed rows have no fresh runtime measurement, like resumed rows.
    for line in warm_out.lines().filter(|l| l.contains("cli-s")) {
        assert!(line.trim_end().ends_with(" -"), "replayed row must show '-': {line:?}");
    }
    let cold = std::fs::read(dir.join("cold.txt")).expect("cold artifact");
    let warm = std::fs::read(dir.join("warm.txt")).expect("warm artifact");
    assert_eq!(cold, warm, "the deterministic artifact must be byte-identical cold vs warm");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--no-cache` bypasses the store on both ends: nothing is replayed,
/// nothing is written.
#[test]
fn no_cache_flag_bypasses_the_store() {
    let dir = tmp("no-cache");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("store");
    let run_once = || {
        let out = bin()
            .args(["run", "--sinks", "40", "--seed", "2", "--json", "--no-cache", "--store"])
            .arg(&store)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stderr).expect("utf-8")
    };
    run_once();
    let err = run_once();
    assert!(
        err.contains("store: 0 hit(s), 0 miss(es), 0 quarantined, 0 write(s)"),
        "--no-cache must not touch the store: {err}"
    );
    let entries = std::fs::read_dir(store.join("entries").join("run"))
        .map(|rd| rd.count())
        .unwrap_or(0);
    assert_eq!(entries, 0, "--no-cache must not persist entries");
    let _ = std::fs::remove_dir_all(&dir);
}
