//! Seeded chaos soak (ISSUE 5 acceptance): ≥128 seeds of injected
//! incremental-engine divergence against the supervised flow, asserting
//! zero hangs (the test completes; `scripts/soak.sh` adds an outer
//! timeout), zero partial/orphaned files from the crash-safe writers, and
//! every recovery recorded on the degradation ladder.
//!
//! Runs the library API directly with the `fault-inject` hooks that the
//! root dev-dependency enables; designs are shared across seeds so the
//! soak stays fast while the fault parameters sweep.

use smart_ndr::core::{
    DegradationEvent, ExecFault, GreedyDowngrade, NdrOptimizer, OptContext, SupervisedRun,
};
use smart_ndr::cts::{synthesize, Assignment, ClockTree, CtsOptions};
use smart_ndr::netlist::BenchmarkSpec;
use smart_ndr::power::PowerModel;
use smart_ndr::tech::Technology;
use std::path::PathBuf;

const SEEDS: u64 = 128;

/// A small pool of trees shared by every seed: the fault parameters vary
/// per seed, the designs need not.
fn fixtures() -> Vec<(ClockTree, Technology)> {
    [(40usize, 2u64), (56, 9), (72, 17), (88, 23)]
        .into_iter()
        .map(|(sinks, seed)| {
            let design =
                BenchmarkSpec::new("chaos", sinks).seed(seed).build().expect("valid spec");
            let tech = Technology::n45();
            let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizable");
            (tree, tech)
        })
        .collect()
}

fn clean_reference(tree: &ClockTree, tech: &Technology) -> Assignment {
    let ctx = OptContext::new(tree, tech, PowerModel::new(1.0));
    GreedyDowngrade::default().assign(&ctx)
}

/// A run with the divergence guard on every commit and the incremental
/// engines corrupted at commit `at_commit`.
fn diverged_run(tree: &ClockTree, tech: &Technology, at_commit: usize) -> SupervisedRun {
    let ctx = OptContext::new(tree, tech, PowerModel::new(1.0))
        .with_divergence_guard(1, 1e-6)
        .with_exec_fault(ExecFault::Divergence { at_commit, delta_ps: 1e-3 });
    GreedyDowngrade::default().assign_supervised(&ctx)
}

fn rungs(run: &SupervisedRun) -> Vec<&'static str> {
    run.degradations.iter().map(DegradationEvent::rung).collect()
}

#[test]
fn chaos_soak_recovers_from_every_injected_fault() {
    let pool = fixtures();
    let references: Vec<Assignment> =
        pool.iter().map(|(tree, tech)| clean_reference(tree, tech)).collect();
    let mut guard_trips = 0usize;
    for seed in 0..SEEDS {
        let (tree, tech) = &pool[(seed % pool.len() as u64) as usize];
        let reference = &references[(seed % pool.len() as u64) as usize];

        // Divergence injection: the corrupted stage aggregates may or may
        // not dominate the next commit's maxima (a perturbed non-critical
        // stage is recomputed away harmlessly), so per-seed the invariant
        // is *correctness* — the guarded run must reproduce the clean
        // result either way, and any recovery that does happen must be the
        // incremental→full rung. tests in crates/core/tests/exec_faults.rs
        // pin a configuration where detection is deterministic.
        let diverge_run = diverged_run(tree, tech, 1 + (seed % 5) as usize);
        for rung in rungs(&diverge_run) {
            assert_eq!(
                rung, "incremental_to_full",
                "seed {seed}: unexpected rung for a divergence fault"
            );
        }
        guard_trips += diverge_run.degradations.len();
        assert_eq!(
            &diverge_run.assignment, reference,
            "seed {seed}: guarded run must stay correct under corruption"
        );
    }
    assert!(guard_trips > 0, "the sweep must trip the divergence guard at least once");
}

#[test]
fn chaos_soak_crash_safe_writers_leave_no_partial_files() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("smart-ndr-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let artifact = dir.join("rows.txt");
    for seed in 0..SEEDS {
        // A "crashed" predecessor left a stale temp; the atomic write lands
        // over it.
        std::fs::write(snr_fsio::temp_path(&artifact), b"torn artifact").expect("stale tmp");
        snr_fsio::atomic_write(&artifact, format!("rows after seed {seed}\n").as_bytes())
            .expect("atomic artifact");

        // Invariants after every cycle: the artifact is complete and no
        // temp file survives.
        let text = std::fs::read_to_string(&artifact).expect("artifact readable");
        assert_eq!(text, format!("rows after seed {seed}\n"));
        assert!(
            !snr_fsio::temp_path(&artifact).exists(),
            "seed {seed}: orphaned temp file survived an atomic write"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaces every measured `"runtime_s"` value with `X`, leaving all
/// deterministic fields intact for comparison.
fn normalize_runtime(s: &str) -> String {
    const KEY: &str = "\"runtime_s\": ";
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find(KEY) {
        let start = i + KEY.len();
        out.push_str(&rest[..start]);
        out.push('X');
        let tail = &rest[start..];
        let end = tail.find([',', '}']).expect("runtime_s value is delimited");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The disk-cache chaos arm (ISSUE 7 acceptance): `run --store` processes
/// SIGKILLed at seeded delays mid-run must never leave the store in a state
/// that panics, replays wrong bytes, or quarantines anything — atomic
/// per-pid staging means a torn write simply never becomes an entry. After
/// the dust settles, a completed run persists and the next run replays it
/// byte-identically, with no temp debris left behind.
#[test]
fn chaos_soak_store_survives_sigkill_mid_run() {
    let bin = env!("CARGO_BIN_EXE_smart-ndr");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("smart-ndr-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 path");
    let args = ["run", "--sinks", "80", "--seed", "5", "--json", "--store", store_arg];

    // The clean reference, computed without any store.
    let reference = std::process::Command::new(bin)
        .args(["run", "--sinks", "80", "--seed", "5", "--json"])
        .output()
        .expect("reference run");
    assert!(reference.status.success());
    let reference = normalize_runtime(&String::from_utf8(reference.stdout).expect("utf-8"));

    for seed in 0..24u64 {
        let mut child = std::process::Command::new(bin)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("store run spawns");
        // Seeded kill delay sweeps from "barely started" past "already
        // done"; both sides of the race must be survivable.
        std::thread::sleep(std::time::Duration::from_micros((seed * seed) % 40_000));
        let _ = child.kill();
        let _ = child.wait();

        // Recovery run: must complete and reproduce the clean reference
        // whether it found a persisted entry, torn debris, or nothing.
        let out = std::process::Command::new(bin).args(args).output().expect("recovery run");
        assert!(out.status.success(), "seed {seed}: recovery run failed");
        let json = normalize_runtime(&String::from_utf8(out.stdout).expect("utf-8"));
        assert_eq!(json, reference, "seed {seed}: recovery drifted from the clean reference");
    }

    // Atomic staging means a SIGKILL can tear a temp file but never an
    // entry: nothing across the whole soak may have been quarantined.
    let corpses = std::fs::read_dir(store.join("corrupt")).map(|rd| rd.count()).unwrap_or(0);
    assert_eq!(corpses, 0, "a torn write must never become a (quarantined) entry");

    // The store settled warm: two more runs replay the same entry, byte-
    // identical to each other (a replay serves the stored cold bytes).
    let a = std::process::Command::new(bin).args(args).output().expect("warm run");
    let b = std::process::Command::new(bin).args(args).output().expect("warm run");
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "warm replays must be byte-identical");
    assert_eq!(
        normalize_runtime(&String::from_utf8(a.stdout).expect("utf-8")),
        reference,
        "the persisted result must match the clean reference"
    );
    assert!(
        String::from_utf8(b.stderr).expect("utf-8").contains("store: 1 hit(s)"),
        "the final run must be served from the store"
    );

    // The final open swept every dead writer's temp file.
    for sub in ["run", "suite"] {
        let dir = store.join("entries").join(sub);
        let Ok(listing) = std::fs::read_dir(&dir) else { continue };
        for entry in listing.filter_map(Result::ok) {
            assert!(
                entry.path().extension().is_some_and(|x| x == "entry"),
                "stray non-entry file survived the soak: {:?}",
                entry.path()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pareto chaos arm (ISSUE 9 acceptance): `pareto --store` processes
/// SIGKILLed mid-sweep leave only whole per-point entries behind (atomic
/// staging), so a warm resume replays the completed points and recomputes
/// the rest — producing the byte-identical front with zero quarantines.
#[test]
fn chaos_soak_pareto_store_survives_sigkill_mid_sweep() {
    let bin = env!("CARGO_BIN_EXE_smart-ndr");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("smart-ndr-chaos-pareto-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 path");
    let sweep = [
        "pareto", "--sinks", "80", "--seed", "11", "--slew-margins", "1.05,1.2",
        "--skew-budgets", "15,60", "--windows", "25", "--mc", "6", "--json",
    ];
    let mut args: Vec<&str> = sweep.to_vec();
    args.extend(["--store", store_arg]);

    // The clean reference front, computed without any store. Pareto JSON
    // carries no runtime or replay fields, so no normalization is needed.
    let reference = std::process::Command::new(bin).args(sweep).output().expect("reference");
    assert!(reference.status.success());
    let reference = String::from_utf8(reference.stdout).expect("utf-8");

    for seed in 0..24u64 {
        let mut child = std::process::Command::new(bin)
            .args(&args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("pareto store run spawns");
        // Seeded kill delay sweeps from "barely started" past "sweep
        // done"; both sides of the race must be survivable.
        std::thread::sleep(std::time::Duration::from_micros((seed * seed * 7) % 50_000));
        let _ = child.kill();
        let _ = child.wait();

        // Warm resume: replays whatever points persisted, recomputes the
        // rest, and must land on the byte-identical front either way.
        let out = std::process::Command::new(bin).args(&args).output().expect("resume run");
        assert!(out.status.success(), "seed {seed}: resumed sweep failed");
        let json = String::from_utf8(out.stdout).expect("utf-8");
        assert_eq!(json, reference, "seed {seed}: resumed front drifted from the reference");
    }

    // A SIGKILL can tear a temp file but never an entry: zero quarantines.
    let corpses = std::fs::read_dir(store.join("corrupt")).map(|rd| rd.count()).unwrap_or(0);
    assert_eq!(corpses, 0, "a torn point write must never become a (quarantined) entry");

    // Settled warm: every point replays (6 points → 6 hits, no misses)
    // and the front is still the reference's bytes.
    let warm = std::process::Command::new(bin).args(&args).output().expect("warm run");
    assert!(warm.status.success());
    assert_eq!(String::from_utf8(warm.stdout).expect("utf-8"), reference);
    assert!(
        String::from_utf8(warm.stderr)
            .expect("utf-8")
            .contains("store: 6 hit(s), 0 miss(es), 0 quarantined"),
        "the settled sweep must replay every point from the store"
    );

    // The final open swept every dead writer's temp file.
    let entries = store.join("entries").join("pareto");
    if let Ok(listing) = std::fs::read_dir(&entries) {
        for entry in listing.filter_map(Result::ok) {
            assert!(
                entry.path().extension().is_some_and(|x| x == "entry"),
                "stray non-entry file survived the soak: {:?}",
                entry.path()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
