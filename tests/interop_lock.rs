//! Interop output lock, checked byte for byte against `tests/golden/`:
//!
//! - `export_ndr_examples`: the `export-ndr` Tcl of every `examples/*.def`
//!   (default method), concatenated in name order; each script names its
//!   design in its second line;
//! - `import_dirty12`: the `import --json` line of `examples/dirty12.def`,
//!   with its I01/I03/I04/I07 diagnostics.
//!
//! Each test leaves the output it produced as `<name>.actual.txt` in
//! Cargo's integration-test temp directory; `scripts/golden.sh --bless`
//! copies them over the checked-in files.

use std::path::Path;
use std::process::Command;

/// Runs the CLI with `args` from the repository root and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("CLI output is UTF-8")
}

/// Writes `got` to `<name>.actual.txt` and compares it with
/// `tests/golden/<name>.txt`.
fn check(name: &str, got: &str) {
    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&actual, got).expect("write the actual output");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    let want = std::fs::read_to_string(&golden).expect("read the golden output");
    assert!(
        want == got,
        "{name} drifted from {}:\n--- golden\n{want}--- actual\n{got}",
        golden.display()
    );
}

#[test]
fn exported_ndr_tcl_of_every_example_matches_golden() {
    let got: String = ["banks64", "dirty12", "grid25", "spiral16"]
        .iter()
        .map(|name| stdout_of(&["export-ndr", "--design", &format!("examples/{name}.def")]))
        .collect();
    check("export_ndr_examples", &got);
}

#[test]
fn dirty_import_diagnostics_match_golden() {
    let got = stdout_of(&["import", "--design", "examples/dirty12.def", "--json"]);
    for code in ["I01", "I03", "I04", "I07"] {
        assert!(got.contains(&format!("[{code}]")), "import lost its {code} diagnostic: {got}");
    }
    check("import_dirty12", &got);
}
