//! Error-line lock, checked byte for byte against
//! `tests/golden/cli_errors.txt`: for a fixed list of invocations, the
//! arguments, the exit code and the `--json` stdout. The list covers the
//! usage errors of the request commands, limits no constraint may take,
//! and `lint` of a broken design.
//!
//! The invocations run in a scratch directory holding two fixtures, so a
//! file argument reads the same on every machine:
//! - `one.sndr`: one sink on the root, so zero skew and zero wirelength;
//! - `broken.sndr`: a NaN coordinate, a negative cap and a duplicate id.
//!
//! The test leaves what it produced as `cli_errors.actual.txt` in Cargo's
//! integration-test temp directory; `scripts/golden.sh --bless` copies it
//! over the checked-in file.

use std::path::Path;
use std::process::Command;

const ONE_SNDR: &str = "sndr 1\ndesign one freq_ghz 1.0\ndie 0 0 100000 100000\n\
    root 50000 50000\nsink 0 a 50000 50000 5.0\nend\n";

const BROKEN_SNDR: &str = "sndr 1\ndesign broken freq_ghz 1.0\n\
    die 0 0 100000 100000\nroot 0 0\n\
    sink 0 a nan 10000 5.0\nsink 0 b 20000 20000 -3.0\nsink 1 c 40000 40000 8.0\nend\n";

/// The invocations, each run with `--json` appended.
const CASES: &[&[&str]] = &[
    // Request commands without a usable design.
    &["run"],
    &["export-ndr"],
    &["lint"],
    &["import"],
    &["run", "--sinks", "0"],
    // Counts the request parser checks.
    &["run", "--sinks", "40", "--jobs", "0"],
    &["pareto", "--sinks", "40", "--jobs", "0"],
    &["suite", "--jobs", "0"],
    &["run", "--sinks", "40", "--mc", "1.5"],
    &["run", "--sinks", "40", "--seed", "-1"],
    &["run", "--sinks", "40", "--max-iters", "-1"],
    &["pareto", "--sinks", "40", "--max-points", "-3"],
    // Malformed values, names and flags.
    &["run", "--sinks", "abc"],
    &["run", "--sinks", "40", "--tech", "n99"],
    &["run", "--sinks", "40", "--method", "bogus"],
    &["run", "--sinks", "40", "--slew-margin", "wide"],
    &["run", "--sinks", "40", "--timeout", "-1"],
    &["pareto", "--sinks", "40", "--slew-margins", "1.05,abc"],
    &["run", "--sinks", "40", "--slew-margn", "1.3"],
    &["suite", "--resume"],
    // Limits out of range, and limits a degenerate design makes zero.
    &["run", "--sinks", "40", "--slew-margin", "0.5"],
    &["run", "--sinks", "40", "--slew-margin", "nan"],
    &["run", "--sinks", "40", "--skew-budget", "inf"],
    &["export-ndr", "--sinks", "40", "--skew-budget", "-3"],
    &["run", "--design", "one.sndr", "--skew-budget", "0"],
    &["pareto", "--design", "one.sndr", "--skew-budgets", "0", "--windows", ""],
    &["pareto", "--design", "one.sndr", "--track-fracs", "0.9"],
    // Lint diagnostics, and the repair of the same design.
    &["lint", "--design", "broken.sndr"],
    &["lint", "--design", "broken.sndr", "--repair"],
];

#[test]
fn cli_error_lines_match_golden() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    std::fs::write(dir.join("one.sndr"), ONE_SNDR).expect("write one.sndr");
    std::fs::write(dir.join("broken.sndr"), BROKEN_SNDR).expect("write broken.sndr");

    let mut got = String::new();
    for args in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
            .args(*args)
            .arg("--json")
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let shown: Vec<&str> = args.iter().map(|a| if a.is_empty() { "''" } else { a }).collect();
        got.push_str(&format!("smart-ndr {} --json\n", shown.join(" ")));
        match out.status.code() {
            Some(code) => got.push_str(&format!("exit {code}\n")),
            None => got.push_str("exit signal\n"),
        }
        got.push_str(&String::from_utf8(out.stdout).expect("CLI output is UTF-8"));
        got.push('\n');
    }

    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors.actual.txt");
    std::fs::write(&actual, &got).expect("write the actual output");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli_errors.txt");
    let want = std::fs::read_to_string(&golden).expect("read the golden output");
    assert!(
        want == got,
        "cli_errors drifted from {}:\n--- golden\n{want}--- actual\n{got}",
        golden.display()
    );
}
