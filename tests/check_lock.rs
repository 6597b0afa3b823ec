//! Design-check output lock, checked byte for byte against
//! `tests/golden/check_outputs.txt`: what `lint` and `import` print, in
//! human and `--json` form, and what the daemon answers to the same ops.
//!
//! Each CLI case records its arguments, the exit code, stdout, every
//! stderr line (prefixed `stderr: `) and, for a `--out` case, the design
//! file it wrote. The cases cover, for each op: a clean design, one that
//! loads with warnings (`examples/dirty12.def`), an Error-severity
//! rejection (every diagnostic plus the `--repair` hint), its `--repair
//! --out` salvage, a design no buffer can drive (infeasible, exit 4) and
//! a file in the other op's format (each parser's rejection); and for
//! `lint`, a rejection whose repair leaves no sink, which advises no
//! repair, with its failing `--repair --out`.
//!
//! The daemon section holds the response and error lines (event lines
//! dropped, ordered by id) of `lint` and `import` requests, including a
//! generated design sent to each, which neither op accepts.
//!
//! Everything runs in a scratch directory holding the fixtures, so paths
//! read the same on every machine. The test leaves what it produced as
//! `check_outputs.actual.txt` in Cargo's integration-test temp directory;
//! `scripts/golden.sh --bless` copies it over the checked-in file.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const CLEAN_SNDR: &str = "sndr 1\ndesign clean3 freq_ghz 1.0\ndie 0 0 100000 100000\n\
    root 50000 0\nsink 0 a 10000 20000 5.0\nsink 1 b 90000 80000 7.0\n\
    sink 2 c 40000 60000 6.5\nend\n";

/// A NaN coordinate, a negative cap and a duplicate id.
const BROKEN_SNDR: &str = "sndr 1\ndesign broken freq_ghz 1.0\n\
    die 0 0 100000 100000\nroot 0 0\n\
    sink 0 a nan 10000 5.0\nsink 0 b 20000 20000 -3.0\nsink 1 c 40000 40000 8.0\nend\n";

/// A NaN coordinate on the only sink: repair drops the sink, which leaves
/// no design, so no repair is advised.
const EMPTIED_SNDR: &str = "sndr 1\ndesign emptied freq_ghz 1.0\n\
    die 0 0 100000 100000\nroot 0 0\nsink 0 a nan 10000 5.0\nend\n";

/// Valid, but no buffer in the library drives a 90 nF sink.
const HEAVY_SNDR: &str = "sndr 1\ndesign heavy freq_ghz 1.0\ndie 0 0 100000 100000\n\
    root 0 0\nsink 0 a 10000 10000 90000\nsink 1 b 90000 90000 12.0\nend\n";

const CLEAN_DEF: &str = "DESIGN cleandef ;\nUNITS DISTANCE MICRONS 1000 ;\nFREQUENCY 1.0 ;\n\
    DIEAREA ( 0 0 ) ( 100000 100000 ) ;\nCLOCKROOT ( 50000 0 ) ;\nPINS 3 ;\n\
    - ff0/clk ( 10000 20000 ) CAP 5.0 ;\n\
    - ff1/clk ( 90000 81000 ) CAP 7.25 ;\n\
    - ff2/clk ( 40000 60000 ) CAP 6.5 ;\n\
    END PINS\nEND DESIGN\n";

/// A negative cap and a pin outside the die: semantic damage that
/// rejects the file unless `--repair` salvages it.
const BROKEN_DEF: &str = "DESIGN brokendef ;\nUNITS DISTANCE MICRONS 1000 ;\nFREQUENCY 1.0 ;\n\
    DIEAREA ( 0 0 ) ( 100000 100000 ) ;\nCLOCKROOT ( 50000 0 ) ;\nPINS 3 ;\n\
    - ff0/clk ( 10000 20000 ) CAP 5.0 ;\n\
    - ff1/clk ( 90000 81000 ) CAP -3.0 ;\n\
    - ff2/clk ( 40000 160000 ) CAP 6.5 ;\n\
    END PINS\nEND DESIGN\n";

const HEAVY_DEF: &str = "DESIGN heavydef ;\nUNITS DISTANCE MICRONS 1000 ;\nFREQUENCY 1.0 ;\n\
    DIEAREA ( 0 0 ) ( 100000 100000 ) ;\nCLOCKROOT ( 0 0 ) ;\nPINS 2 ;\n\
    - ff0/clk ( 10000 10000 ) CAP 90000 ;\n\
    - ff1/clk ( 90000 90000 ) CAP 12.0 ;\n\
    END PINS\nEND DESIGN\n";

/// The CLI invocations, each run plain and with `--json`. A `--out` file
/// is removed before each run and recorded after the plain one.
const CASES: &[&[&str]] = &[
    &["lint", "--design", "clean.sndr"],
    &["lint", "--design", "broken.sndr"],
    &["lint", "--design", "broken.sndr", "--repair", "--out", "lint-fixed.sndr"],
    &["lint", "--design", "heavy.sndr"],
    &["lint", "--design", "dirty12.def"],
    &["import", "--design", "clean.def"],
    &["import", "--design", "dirty12.def"],
    &["import", "--design", "broken.def"],
    &["import", "--design", "broken.def", "--repair", "--out", "import-fixed.sndr"],
    &["import", "--design", "heavy.def"],
    &["import", "--design", "clean.sndr"],
    &["lint", "--design", "emptied.sndr"],
    &["lint", "--design", "emptied.sndr", "--repair", "--out", "lint-emptied.sndr"],
];

/// The daemon requests, each answered by one response or error line.
const REQUESTS: &[&str] = &[
    r#"{"op": "lint", "id": 1, "design": {"path": "clean.sndr"}}"#,
    r#"{"op": "lint", "id": 2, "design": {"path": "broken.sndr"}}"#,
    r#"{"op": "lint", "id": 3, "design": {"path": "broken.sndr"}, "repair": true}"#,
    r#"{"op": "import", "id": 4, "design": {"path": "dirty12.def"}}"#,
    r#"{"op": "import", "id": 5, "design": {"path": "broken.def"}}"#,
    r#"{"op": "import", "id": 6, "design": {"path": "broken.def"}, "repair": true}"#,
    r#"{"op": "lint", "id": 7, "design": {"generate": {"sinks": 12, "seed": 1}}}"#,
    r#"{"op": "import", "id": 8, "design": {"generate": {"sinks": 12, "seed": 1}}}"#,
    r#"{"op": "lint", "id": 9, "design": {"path": "emptied.sndr"}}"#,
];

fn record(got: &mut String, shown: &str, out: &Output) {
    got.push_str(&format!("smart-ndr {shown}\n"));
    match out.status.code() {
        Some(code) => got.push_str(&format!("exit {code}\n")),
        None => got.push_str("exit signal\n"),
    }
    got.push_str(&String::from_utf8_lossy(&out.stdout));
    for line in String::from_utf8_lossy(&out.stderr).lines() {
        got.push_str(&format!("stderr: {line}\n"));
    }
}

fn cli_cases(dir: &Path, got: &mut String) {
    for args in CASES {
        let out_file = args.iter().position(|a| *a == "--out").map(|i| args[i + 1]);
        for json in [false, true] {
            if let Some(name) = out_file {
                let _ = std::fs::remove_file(dir.join(name));
            }
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_smart-ndr"));
            cmd.args(*args).current_dir(dir);
            if json {
                cmd.arg("--json");
            }
            let out = cmd.output().expect("binary runs");
            let shown = args.join(" ") + if json { " --json" } else { "" };
            record(got, &shown, &out);
            if let (Some(name), false) = (out_file, json) {
                let text =
                    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| format!("({e})\n"));
                got.push_str(&format!("file {name}:\n{text}"));
            }
            got.push('\n');
        }
    }
}

fn daemon_lines(dir: &Path, got: &mut String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
        .args(["serve", "--jobs", "1"])
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        for line in REQUESTS {
            writeln!(stdin, "{line}").expect("write to the daemon");
        }
    }
    let out = child.wait_with_output().expect("daemon exits on EOF");
    got.push_str("smart-ndr serve --jobs 1\n");
    for line in REQUESTS {
        got.push_str(&format!("> {line}\n"));
    }
    got.push_str(&format!("exit {}\n", out.status.code().map_or(-1, i64::from)));
    let stdout = String::from_utf8(out.stdout).expect("daemon output is UTF-8");
    let id_of = |line: &str| -> u64 {
        let rest = line.strip_prefix("{\"id\": ").unwrap_or("");
        rest.split(',').next().and_then(|n| n.parse().ok()).unwrap_or(u64::MAX)
    };
    let mut finals: Vec<&str> = stdout.lines().filter(|l| !l.contains("\"event\": \"")).collect();
    finals.sort_by_key(|l| id_of(l));
    for line in finals {
        got.push_str(line);
        got.push('\n');
    }
}

/// A fresh scratch directory `name` holding every fixture.
fn fixtures(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let dirty = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/dirty12.def");
    std::fs::copy(dirty, dir.join("dirty12.def")).expect("copy dirty12.def");
    for (name, text) in [
        ("clean.sndr", CLEAN_SNDR),
        ("broken.sndr", BROKEN_SNDR),
        ("emptied.sndr", EMPTIED_SNDR),
        ("heavy.sndr", HEAVY_SNDR),
        ("clean.def", CLEAN_DEF),
        ("broken.def", BROKEN_DEF),
        ("heavy.def", HEAVY_DEF),
    ] {
        std::fs::write(dir.join(name), text).expect("write a fixture");
    }
    dir
}

#[test]
fn lint_and_import_outputs_match_golden() {
    let dir = fixtures("check_outputs");
    let mut got = String::new();
    cli_cases(&dir, &mut got);
    daemon_lines(&dir, &mut got);

    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("check_outputs.actual.txt");
    std::fs::write(&actual, &got).expect("write the actual output");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/check_outputs.txt");
    let want = std::fs::read_to_string(&golden).expect("read the golden output");
    assert!(
        want == got,
        "check_outputs drifted from {}:\n--- golden\n{want}--- actual\n{got}",
        golden.display()
    );
}

#[test]
fn repair_hints_appear_exactly_where_repair_salvages() {
    // Every rejection (exit 3) of the lock's CLI cases, re-run with
    // `--repair --out`: one that advises repair, in the importer's I11
    // message or in the front end's hint, must then exit 0, and one that
    // does not must still be rejected.
    let dir = fixtures("check_repair_hints");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs")
    };
    let mut hinted = 0;
    for args in CASES.iter().filter(|a| !a.contains(&"--repair")) {
        let out = run(args);
        if out.status.code() != Some(3) {
            continue;
        }
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        let hint = text.contains("re-run with --repair") || text.contains("re-run with repair");
        hinted += usize::from(hint);
        let repaired = run(&[*args, &["--repair", "--out", "salvaged.sndr"]].concat());
        let want = if hint { 0 } else { 3 };
        assert_eq!(
            repaired.status.code(),
            Some(want),
            "{} (hint shown: {hint}) exited {:?} with --repair:\n{text}",
            args.join(" "),
            repaired.status.code(),
        );
    }
    assert_eq!(
        hinted, 2,
        "lint and import of a broken design advise repair"
    );
}
