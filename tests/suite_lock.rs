//! Suite artifact lock: the `suite --out` bytes of the built-in suite and
//! of the four `examples/*.def` designs (imported, `dirty12` under
//! `--repair`), checked byte for byte against
//! `tests/golden/suite_builtin.txt` and `tests/golden/suite_examples.txt`.
//!
//! Each test leaves the artifact it produced as `<name>.actual.txt` in
//! Cargo's integration-test temp directory; `scripts/golden.sh --bless`
//! copies them over the checked-in files.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
}

fn run(cmd: &mut Command) {
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{cmd:?}: {}", String::from_utf8_lossy(&out.stderr));
}

/// Writes `suite --out` for `designs` (the built-in suite when `None`) to
/// `<name>.actual.txt` and compares it with `tests/golden/<name>.txt`.
fn check(name: &str, designs: Option<&Path>) {
    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    let mut cmd = bin();
    cmd.arg("suite").arg("--out").arg(&actual);
    if let Some(dir) = designs {
        cmd.arg("--designs").arg(dir);
    }
    run(&mut cmd);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    let want = std::fs::read_to_string(&golden).expect("read the golden artifact");
    let got = std::fs::read_to_string(&actual).expect("read the actual artifact");
    assert!(
        want == got,
        "suite artifact drifted from {}:\n--- golden\n{want}--- actual\n{got}",
        golden.display()
    );
}

#[test]
fn builtin_suite_artifact_matches_golden() {
    check("suite_builtin", None);
}

#[test]
fn imported_examples_suite_artifact_matches_golden() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("suite_examples");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create design dir");
    for name in ["banks64", "dirty12", "grid25", "spiral16"] {
        let mut cmd = bin();
        cmd.args(["import", "--design", &format!("examples/{name}.def"), "--out"])
            .arg(dir.join(format!("{name}.sndr")));
        if name == "dirty12" {
            cmd.arg("--repair");
        }
        run(cmd.current_dir(env!("CARGO_MANIFEST_DIR")));
    }
    check("suite_examples", Some(&dir));
}
