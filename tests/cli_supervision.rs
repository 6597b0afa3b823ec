//! End-to-end tests of the run-supervision flags: `--max-iters` and
//! `--timeout` must degrade gracefully (anytime: a feasible best-so-far
//! result, exit 0) and leave an auditable receipt in both the human and
//! `--json` output.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
}

#[test]
fn max_iters_yields_feasible_result_with_exhausted_receipt() {
    let out = bin()
        .args(["run", "--sinks", "80", "--seed", "4", "--method", "smart", "--max-iters", "5", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // Anytime: the capped run still meets constraints…
    assert!(text.contains("\"meets_constraints\": true"), "{text}");
    // …and the receipt says the cap bound.
    assert!(text.contains("\"supervision\""), "{text}");
    assert!(text.contains("\"budget_exhausted\": true"), "{text}");
    assert!(text.contains("\"exhausted\": true"), "{text}");
    assert!(text.contains("\"iterations\":"), "{text}");
}

#[test]
fn max_iters_human_output_flags_best_so_far() {
    let out = bin()
        .args(["run", "--sinks", "80", "--seed", "4", "--method", "greedy", "--max-iters", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("budget:"), "exhausted budgets get a human line: {text}");
    assert!(text.contains("best-so-far"), "{text}");
}

#[test]
fn expired_timeout_still_exits_zero_with_feasible_result() {
    // A microsecond deadline has long passed by the first budget check:
    // the conservative start is returned as the best-so-far answer and the
    // Monte-Carlo stage reports cancellation instead of partial statistics.
    let out = bin()
        .args(["run", "--sinks", "60", "--seed", "2", "--method", "smart", "--timeout", "0.000001", "--mc", "8", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"meets_constraints\": true"), "anytime under timeout: {text}");
    assert!(text.contains("\"budget_exhausted\": true"), "{text}");
    assert!(text.contains("\"mc_cancelled\": true"), "{text}");
    assert!(!text.contains("\"sigma_skew_result_ps\""), "no partial MC statistics: {text}");
}

#[test]
fn unexhausted_supervision_receipt_on_a_clean_run() {
    let out = bin()
        .args(["run", "--sinks", "60", "--seed", "2", "--method", "smart", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"supervision\""), "{text}");
    assert!(text.contains("\"budget_exhausted\": false"), "{text}");
    assert!(text.contains("\"degradations\": []"), "clean run takes no rungs: {text}");
}

#[test]
fn anneal_method_is_supervised_too() {
    let out = bin()
        .args(["run", "--sinks", "60", "--seed", "2", "--method", "anneal", "--max-iters", "4", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"meets_constraints\": true"), "{text}");
    assert!(text.contains("\"supervision\""), "{text}");
}

#[test]
fn invalid_supervision_flags_fail_cleanly() {
    for (flag, value, hint) in [
        ("--timeout", "-1", "--timeout"),
        ("--timeout", "nan", "--timeout"),
        ("--max-iters", "not-a-number", "--max-iters"),
    ] {
        let out = bin()
            .args(["run", "--sinks", "40", flag, value])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "usage errors exit 1: {flag} {value}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(hint),
            "{flag} {value} must name the flag"
        );
    }
}
