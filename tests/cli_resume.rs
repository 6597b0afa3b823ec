//! Kill-and-resume proof for `smart-ndr suite --resume`: rows an
//! interrupted run journaled in its row store `<out>.rows/` are replayed
//! instead of re-evaluated, the resumed `--out` artifact is byte-identical to an
//! uninterrupted run, and the row store and temp file never outlive a
//! successful run.
//!
//! An interrupted run is simulated deterministically: `<out>.rows/` is
//! pre-filled by a `suite --store <out>.rows` over a subset of the pool,
//! which stores exactly the rows a killed run would have completed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smart-ndr-resume-{}-{name}", std::process::id()));
    p
}

fn sibling(out: &Path, suffix: &str) -> PathBuf {
    let mut os = out.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

fn rows_of(out: &Path) -> PathBuf {
    sibling(out, ".rows")
}

/// A directory of generated designs, one `(file, sinks, seed)` each.
fn pool(tag: &str, designs: &[(&str, &str, &str)]) -> PathBuf {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create pool dir");
    for (file, sinks, seed) in designs {
        let out = bin()
            .args(["gen", "--sinks", sinks, "--seed", seed, "--out"])
            .arg(dir.join(file))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    dir
}

/// Three healthy designs with distinct sink counts.
const DISTINCT: [(&str, &str, &str); 3] =
    [("a.sndr", "24", "1"), ("m.sndr", "28", "2"), ("z.sndr", "32", "3")];

fn run_suite(dir: &Path, out_file: &Path, resume: bool) -> Output {
    let mut cmd = bin();
    cmd.args(["suite", "--jobs", "2", "--designs"]).arg(dir).arg("--out").arg(out_file);
    if resume {
        cmd.arg("--resume");
    }
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    out
}

/// Stores the rows of `files` (copied out of `dir`) in `<out>.rows/`, as a
/// run killed after completing exactly those rows would have.
fn store_rows(dir: &Path, files: &[&str], out_file: &Path) {
    let subset = sibling(out_file, ".subset");
    let _ = std::fs::remove_dir_all(&subset);
    std::fs::create_dir_all(&subset).expect("create subset dir");
    for file in files {
        std::fs::copy(dir.join(file), subset.join(file)).expect("copy design");
    }
    let out = bin()
        .args(["suite", "--designs"])
        .arg(&subset)
        .arg("--store")
        .arg(rows_of(out_file))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&subset);
}

/// The runtime column of each stdout table row, in order (`-` when the
/// row was not re-measured).
fn runtimes(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().last().unwrap_or("").to_owned())
        .collect()
}

fn assert_cleaned_up(out_file: &Path) {
    assert!(!rows_of(out_file).exists(), "row store must be removed after success");
    assert!(!sibling(out_file, ".tmp").exists(), "no temp file after an atomic write");
}

#[test]
fn resume_reproduces_byte_identical_artifact_and_skips_journaled_rows() {
    let dir = pool("pool-a", &DISTINCT);
    let (out_a, out_b) = (tmp("a.txt"), tmp("b.txt"));

    // Uninterrupted reference run.
    run_suite(&dir, &out_a, false);
    let reference = std::fs::read(&out_a).expect("artifact written");
    assert_cleaned_up(&out_a);

    // An interrupted run that completed exactly the middle row.
    store_rows(&dir, &["m.sndr"], &out_b);
    let out = run_suite(&dir, &out_b, true);
    let resumed = std::fs::read(&out_b).expect("resumed artifact written");
    assert_eq!(resumed, reference, "resumed artifact must be byte-identical to the uninterrupted run");
    // The replayed row carries no runtime measurement; the others ran.
    let rt = runtimes(&out);
    assert_eq!(rt.len(), 3, "one stdout row per design: {rt:?}");
    assert_eq!(rt[1], "-", "the stored row is replayed, not re-evaluated: {rt:?}");
    assert!(rt[0] != "-" && rt[2] != "-", "unstored rows are evaluated: {rt:?}");
    assert_cleaned_up(&out_b);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out_a);
    let _ = std::fs::remove_file(&out_b);
}

/// Plain FNV-1a, the store's entry checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Rewrites the one suite-row entry in `<out>.rows/` to hold `sections`
/// (`(section, body)` pairs), keeping its key and resealing the payload
/// length and checksum, so the entry still verifies.
fn reseal_only_row(out_file: &Path, sections: &[(&str, &str)]) {
    let suite = rows_of(out_file).join("entries").join("suite");
    let entries: Vec<PathBuf> = std::fs::read_dir(&suite)
        .expect("suite entries dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "exactly one stored row: {entries:?}");
    let text = std::fs::read_to_string(&entries[0]).expect("read entry");
    let header: Vec<&str> = text.lines().take(3).collect();
    let mut payload = String::new();
    for (section, body) in sections {
        payload.push_str(&format!("section {section} {}\n{body}\n", body.len()));
    }
    let entry = format!(
        "{}\npayload {} fnv {:016x}\n{payload}",
        header.join("\n"),
        payload.len(),
        fnv64(payload.as_bytes())
    );
    std::fs::write(&entries[0], entry).expect("reseal entry");
}

#[test]
fn resume_trusts_the_journal_instead_of_reevaluating() {
    let dir = pool("pool-g", &DISTINCT);
    let out_g = tmp("g.txt");
    // A sentinel row no real evaluation could ever produce: if it appears
    // in the output, the design was *not* re-run.
    store_rows(&dir, &["m.sndr"], &out_g);
    reseal_only_row(&out_g, &[("name", "cli-s28"), ("line", "SENTINEL-ROW cli-s28")]);

    let out = run_suite(&dir, &out_g, true);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("SENTINEL-ROW"),
        "the stored row must be replayed, not re-evaluated"
    );
    let artifact = std::fs::read_to_string(&out_g).expect("artifact written");
    assert!(artifact.contains("SENTINEL-ROW cli-s28"), "replayed row lands in the artifact");
    assert_cleaned_up(&out_g);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out_g);
}

/// A stored row that verifies but lacks a section its reader needs is
/// quarantined with a warning, as a run entry is, and recomputed.
#[test]
fn row_missing_a_section_is_quarantined_with_a_warning_and_recomputed() {
    let dir = pool("pool-q", &DISTINCT);
    let (out_a, out_q) = (tmp("qa.txt"), tmp("q.txt"));
    run_suite(&dir, &out_a, false);
    let reference = std::fs::read(&out_a).expect("artifact written");

    store_rows(&dir, &["m.sndr"], &out_q);
    reseal_only_row(&out_q, &[("name", "cli-s28")]);
    let out = run_suite(&dir, &out_q, true);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("warning: suite-row entry ")
            && err.contains(" missing required sections; recomputing from scratch"),
        "{err}"
    );
    assert!(err.contains(", 1 quarantined, "), "{err}");
    // The quarantined entry is no hit.
    assert!(err.contains("store: 0 hit(s), 2 miss(es), 1 quarantined, 3 write(s)"), "{err}");
    assert!(runtimes(&out).iter().all(|rt| rt != "-"), "no row was replayed: {out:?}");
    let recomputed = std::fs::read(&out_q).expect("artifact written");
    assert_eq!(recomputed, reference, "the recomputed row must be byte-identical");
    assert_cleaned_up(&out_q);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out_a);
    let _ = std::fs::remove_file(&out_q);
}

#[test]
fn resume_of_same_named_designs_matches_the_uninterrupted_run() {
    // Both designs are named `cli-s30`: rows must be told apart by content,
    // not by name.
    let dir = pool("pool-b", &[("a.sndr", "30", "2"), ("b.sndr", "30", "3")]);
    let (out_ref, out_c) = (tmp("ref-c.txt"), tmp("c.txt"));
    run_suite(&dir, &out_ref, false);
    let reference = std::fs::read_to_string(&out_ref).expect("artifact written");
    let rows: Vec<&str> = reference.lines().skip(1).collect();
    assert_eq!(rows.len(), 2);
    assert!(rows[0].starts_with("cli-s30") && rows[1].starts_with("cli-s30"));
    assert_ne!(rows[0], rows[1], "the seeds must give different rows");

    store_rows(&dir, &["a.sndr"], &out_c);
    let out = run_suite(&dir, &out_c, true);
    assert_eq!(std::fs::read_to_string(&out_c).expect("resumed artifact"), reference);
    assert_eq!(runtimes(&out)[0], "-", "the first row is replayed");
    assert_ne!(runtimes(&out)[1], "-", "the second row is evaluated");
    assert_cleaned_up(&out_c);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out_ref);
    let _ = std::fs::remove_file(&out_c);
}

#[test]
fn fresh_run_recomputes_next_to_a_stale_row_store() {
    let dir = pool("pool-c", &DISTINCT);
    let out_d = tmp("d.txt");
    store_rows(&dir, &["a.sndr", "m.sndr", "z.sndr"], &out_d);

    // Without --resume the stale rows are discarded, not replayed.
    let out = run_suite(&dir, &out_d, false);
    let rt = runtimes(&out);
    assert_eq!(rt.len(), 3);
    assert!(rt.iter().all(|r| r != "-"), "every row is evaluated afresh: {rt:?}");
    assert_cleaned_up(&out_d);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out_d);
}

#[test]
fn foreign_rows_directory_is_left_alone() {
    let dir = pool("pool-e", &DISTINCT[..1]);
    let out_e = tmp("e.txt");
    let foreign = rows_of(&out_e);
    let _ = std::fs::remove_dir_all(&foreign);
    std::fs::create_dir_all(&foreign).expect("create foreign dir");
    std::fs::write(foreign.join("notes.txt"), b"keep me").expect("write foreign file");

    for resume in [false, true] {
        let out = run_suite(&dir, &out_e, resume);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("is not a result store"),
            "a foreign directory draws a warning"
        );
        assert!(std::fs::read_to_string(&out_e).expect("artifact").contains("cli-s24"));
        assert_eq!(std::fs::read(foreign.join("notes.txt")).expect("kept"), b"keep me");
        let names: Vec<_> = std::fs::read_dir(&foreign)
            .expect("foreign dir kept")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names.len(), 1, "nothing is added to a foreign directory: {names:?}");
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&foreign);
    let _ = std::fs::remove_file(&out_e);
}

#[test]
fn resume_without_out_is_a_usage_error() {
    let dir = pool("pool-d", &DISTINCT[..1]);
    let out = bin()
        .args(["suite", "--resume", "--designs"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--out"),
        "error must point at the missing --out"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_no_cache_is_a_usage_error() {
    let dir = pool("pool-f", &DISTINCT[..1]);
    let out_f = tmp("f.txt");
    let out = bin()
        .args(["suite", "--resume", "--no-cache", "--designs"])
        .arg(&dir)
        .arg("--out")
        .arg(&out_f)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--no-cache"),
        "error must name --no-cache"
    );
    assert!(!out_f.exists() && !rows_of(&out_f).exists(), "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}
