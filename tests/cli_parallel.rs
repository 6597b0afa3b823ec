//! `--jobs` plumbing: the CLI must produce the same results for any job
//! count — suite rows in suite order (FAILED rows included), Monte Carlo
//! statistics and optimizer output bit-identical — and must reject a zero
//! job count cleanly.
//!
//! Runtime columns are wall-clock and legitimately vary between runs, so
//! comparisons strip them before asserting equality.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smart-ndr-partest-{}-{name}", std::process::id()));
    p
}

/// Drops the trailing runtime token from every suite row (header included:
/// its last token is just "runtime"), leaving only deterministic columns.
fn strip_runtime_column(table: &str) -> String {
    table
        .lines()
        .map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            match cols.as_slice() {
                [head @ .., _runtime] if head.len() >= 4 => head.join(" "),
                _ => line.to_owned(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn suite_rows_identical_across_job_counts() {
    let dir = tmp("suite-jobs");
    std::fs::create_dir_all(&dir).expect("create pool dir");
    for (name, sinks, seed) in [("a.sndr", "24", "1"), ("z.sndr", "32", "2")] {
        let out = bin()
            .args(["gen", "--sinks", sinks, "--seed", seed, "--out"])
            .arg(dir.join(name))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    // A mid-table poisoned design: the FAILED row must keep its position
    // under parallel evaluation, not drift to the end.
    std::fs::write(dir.join("m-poison.sndr"), "this is not a design\n").expect("write poison");

    let mut tables = Vec::new();
    for jobs in ["1", "4"] {
        let out = bin()
            .args(["suite", "--jobs", jobs, "--designs"])
            .arg(&dir)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "--jobs {jobs}: a poisoned design must not fail the suite: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains("FAILED"), "--jobs {jobs}: {text}");
        assert!(text.contains("1 of 3 designs FAILED"), "--jobs {jobs}: {text}");
        // Rows print in suite (sorted-by-name) order regardless of which
        // worker finished first.
        let a = text.find("cli-s24").expect("row for a.sndr");
        let m = text.find("m-poison").expect("row for poisoned design");
        let z = text.find("cli-s32").expect("row for z.sndr");
        assert!(a < m && m < z, "--jobs {jobs}: rows out of suite order: {text}");
        tables.push(strip_runtime_column(&text));
    }
    assert_eq!(tables[0], tables[1], "suite table must not depend on --jobs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn monte_carlo_stats_identical_across_job_counts() {
    let variation_of = |jobs: &str| {
        let out = bin()
            .args([
                "run", "--sinks", "60", "--seed", "2", "--method", "level", "--mc", "16",
                "--jobs", jobs, "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let start = text.find("\"variation\"").expect("variation object in JSON");
        text[start..].trim_end().to_owned()
    };
    let serial = variation_of("1");
    assert!(serial.contains("\"sigma_skew_result_ps\""), "{serial}");
    // Per-sample seed derivation makes the statistics independent of the
    // thread count, even oversubscribed on a small machine.
    assert_eq!(serial, variation_of("3"));
    assert_eq!(serial, variation_of("8"));
}

/// Blanks every `"runtime_s": <seconds>` value, the only wall-clock field
/// of `run --json`.
fn blank_runtimes(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find("\"runtime_s\": ") {
        let (head, tail) = rest.split_at(i + "\"runtime_s\": ".len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

#[test]
fn optimizer_json_identical_across_job_counts() {
    // Without --mc nothing in `run` is parallel: --jobs must not move a
    // byte of any optimizer's output.
    for method in ["smart", "greedy", "upgrade"] {
        let json_of = |jobs: &str| {
            let out = bin()
                .args(["run", "--sinks", "150", "--seed", "4", "--method", method, "--jobs", jobs])
                .arg("--json")
                .output()
                .expect("binary runs");
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(text.contains("\"runtime_s\": "), "{text}");
            blank_runtimes(&text)
        };
        let serial = json_of("1");
        assert!(serial.contains("\"supervision\""), "{serial}");
        assert_eq!(serial, json_of("2"), "--method {method}: jobs 1 vs 2");
        assert_eq!(serial, json_of("8"), "--method {method}: jobs 1 vs 8");
    }
}

#[test]
fn pareto_front_identical_across_job_counts() {
    let front_of = |jobs: &str| {
        let out = bin()
            .args([
                "pareto", "--sinks", "80", "--seed", "11", "--slew-margins", "1.05,1.2",
                "--skew-budgets", "15,60", "--windows", "25", "--mc", "6", "--jobs", jobs,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let serial = front_of("1");
    assert!(serial.contains("\"front\": ["), "{serial}");
    assert!(serial.contains("\"power_uw\""), "{serial}");
    // Each point evaluates serially and seeded (with --jobs its Monte
    // Carlo runs on the point's worker); parallelism exists only across
    // points and results fold in enumeration order, so the whole JSON
    // object — front included — is byte-identical.
    assert_eq!(serial, front_of("2"), "pareto front must not depend on --jobs");
    assert_eq!(serial, front_of("8"), "pareto front must not depend on --jobs");
}

/// `pareto --jobs 1` must run on one thread: each point's Monte Carlo
/// samples on the point's worker instead of spawning its own. Samples the
/// child's thread count from `/proc/<pid>/task` until it exits.
#[cfg(target_os = "linux")]
#[test]
fn pareto_jobs_one_stays_single_threaded() {
    use std::process::Stdio;
    let mut child = bin()
        .args(["pareto", "--sinks", "200", "--seed", "3", "--mc", "300", "--jobs", "1", "--json"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let tasks = PathBuf::from(format!("/proc/{}/task", child.id()));
    let (mut samples, mut peak) = (0usize, 0usize);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        // The directory vanishes (or lists nothing) once the child exits.
        if let Ok(entries) = std::fs::read_dir(&tasks) {
            let threads = entries.count();
            if threads > 0 {
                samples += 1;
                peak = peak.max(threads);
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    };
    assert!(status.success(), "pareto failed: {status:?}");
    assert!(samples > 0, "the sweep ended before a thread count was sampled");
    assert_eq!(peak, 1, "pareto --jobs 1 ran {peak} threads at once ({samples} samples)");
}

/// `serve --jobs 1` runs one request at a time on its single worker, and a
/// `run` or `pareto` request without `"jobs"` samples its Monte Carlo on
/// that worker too: the daemon never exceeds its reader plus one worker.
/// Samples the daemon's thread count from `/proc/<pid>/task` until it
/// exits.
#[cfg(target_os = "linux")]
#[test]
fn serve_jobs_one_bounds_the_daemon_threads() {
    use std::io::Write;
    use std::process::Stdio;
    let out_path = tmp("serve-threads.out");
    let mut child = bin()
        .args(["serve", "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(std::fs::File::create(&out_path).expect("output file"))
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        for line in [
            r#"{"op": "run", "id": 1, "design": {"generate": {"sinks": 200, "seed": 3}}, "mc": 300}"#,
            r#"{"op": "pareto", "id": 2, "design": {"generate": {"sinks": 200, "seed": 3}}, "mc": 300}"#,
        ] {
            writeln!(stdin, "{line}").expect("request written");
        }
    } // EOF: the daemon drains its queue and exits
    let tasks = PathBuf::from(format!("/proc/{}/task", child.id()));
    let (mut samples, mut peak) = (0usize, 0usize);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if let Ok(entries) = std::fs::read_dir(&tasks) {
            let threads = entries.count();
            if threads > 0 {
                samples += 1;
                peak = peak.max(threads);
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    };
    let out = std::fs::read_to_string(&out_path).expect("daemon output");
    let _ = std::fs::remove_file(&out_path);
    assert!(status.success(), "serve failed: {status:?}\n{out}");
    for id in [1, 2] {
        assert!(
            out.lines()
                .any(|l| l.starts_with(&format!("{{\"id\": {id}, \"ok\": true"))),
            "request {id} has no result:\n{out}"
        );
    }
    assert!(
        samples > 0,
        "the daemon exited before a thread count was sampled"
    );
    assert!(
        peak <= 2,
        "serve --jobs 1 ran {peak} threads at once ({samples} samples)"
    );
}

#[test]
fn short_jobs_alias_accepted() {
    let out = bin()
        .args(["run", "--sinks", "40", "--seed", "5", "--method", "level", "--mc", "8", "-j", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("σ-skew"));
}

#[test]
fn zero_jobs_is_a_usage_error() {
    for args in [
        vec!["suite", "--jobs", "0"],
        vec!["run", "--sinks", "40", "--mc", "4", "--jobs", "0"],
    ] {
        let out = bin().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "zero jobs exits 1 for {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--jobs"),
            "error names the flag for {args:?}"
        );
    }
}
