#!/usr/bin/env bash
# Full verification gate for the smart-ndr workspace: build, tests, lints,
# and a CLI robustness smoke pass. Run from anywhere; exits non-zero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

step "cargo build --release --workspace"
# --workspace: the root manifest is also a package, so a bare build would
# skip the other members (and leave target/release/bench_parallel stale).
cargo build --release --workspace

step "output locks (scripts/golden.sh)"
# Runs before the full test step so that result drift fails here, under
# its own name: every optimizer outcome on the golden corpus must match
# tests/golden/optimizer_digests.txt bit for bit (the failure lists each
# drifted entry), and the suite --out artifacts and the pareto --json
# fronts must match tests/golden/suite_*.txt and tests/golden/pareto_*.txt
# byte for byte. Bless intended changes with scripts/golden.sh --bless.
scripts/golden.sh

step "cargo test --workspace"
cargo test -q --workspace

step "perfbench builds against the public APIs"
# The benchmark is a workspace of its own that imports snr-core,
# snr-pareto and snr-serve by path; a public API change that breaks it
# would stop the benchmark from building.
cargo check --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench-check

step "cargo clippy --all-targets -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

step "cargo doc -D warnings --document-private-items"
# Broken intra-doc links and ambiguous paths fail the gate, so the public
# API docs keep resolving; with the crate-private items documented too,
# so do the links between internal types.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --document-private-items

step "smart-ndr lint smoke"
BIN=target/release/smart-ndr
T="$(mktemp -d)"
trap 'rm -rf "$T"' EXIT

# Clean design: lint exits 0.
"$BIN" gen --sinks 60 --seed 7 --out "$T/ok.sndr" >/dev/null
"$BIN" lint --design "$T/ok.sndr" >/dev/null

# Broken design: strict lint exits 3, --repair salvages to exit 0, and the
# repaired output lints clean.
printf 'sndr 1\ndesign broken freq_ghz 1.0\ndie 0 0 100000 100000\nroot 0 0\nsink 0 a nan 10000 5.0\nsink 0 b 20000 20000 -3.0\nsink 1 c 40000 40000 8.0\nend\n' > "$T/broken.sndr"
if "$BIN" lint --design "$T/broken.sndr" >/dev/null 2>&1; then
    echo "FAIL: lint accepted a broken design" >&2; exit 1
fi
rc=0; "$BIN" lint --design "$T/broken.sndr" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: broken design should exit 3, got $rc" >&2; exit 1
fi
"$BIN" lint --repair --design "$T/broken.sndr" --out "$T/fixed.sndr" >/dev/null
"$BIN" lint --design "$T/fixed.sndr" >/dev/null

# JSON error object on stdout for failures.
rc=0; out="$("$BIN" run --design /nonexistent.sndr --json 2>/dev/null)" || rc=$?
case "$out" in
    '{"error":'*'"invalid_input"'*) ;;
    *) echo "FAIL: expected a JSON error object, got: $out" >&2; exit 1 ;;
esac
if [ "$rc" -ne 3 ]; then
    echo "FAIL: missing design should exit 3, got $rc" >&2; exit 1
fi

step "SVG render smoke"
# run --svg writes one self-contained document with a marker per sink.
"$BIN" run --sinks 60 --seed 2 --svg "$T/t.svg" >/dev/null
[ "$(head -c 4 "$T/t.svg")" = "<svg" ] \
    || { echo "FAIL: the SVG must start with <svg" >&2; exit 1; }
[ "$(tail -c 6 "$T/t.svg")" = "</svg>" ] \
    || { echo "FAIL: the SVG must end with </svg>" >&2; exit 1; }
circles="$(grep -o '<circle' "$T/t.svg" | wc -l)"
[ "$circles" -eq 60 ] \
    || { echo "FAIL: the SVG must draw 60 sink markers, drew $circles" >&2; exit 1; }

step "parallel determinism smoke"
# The whole run must not depend on the thread count: the Monte-Carlo
# samples run in parallel at --jobs 4, and only the wall-clock runtime_s
# fields may differ.
blank_runtimes() { sed -E 's/"runtime_s": [0-9.]+/"runtime_s": _/g'; }
one="$("$BIN" run --sinks 60 --seed 2 --mc 12 --jobs 1 --json | blank_runtimes)"
many="$("$BIN" run --sinks 60 --seed 2 --mc 12 --jobs 4 --json | blank_runtimes)"
if [ "$one" != "$many" ]; then
    echo "FAIL: --jobs changed the run --json output" >&2; exit 1
fi
# --mc 37 is three sample chunks: the baseline and the result are analyzed
# on one draw, whose scratch the workers of both analyses share at --jobs 4.
one="$("$BIN" run --sinks 60 --seed 2 --mc 37 --jobs 1 --json | blank_runtimes)"
many="$("$BIN" run --sinks 60 --seed 2 --mc 37 --jobs 4 --json | blank_runtimes)"
if [ "$one" != "$many" ]; then
    echo "FAIL: --jobs changed the run --mc 37 --json output" >&2; exit 1
fi
# --jobs 0 is a usage error.
rc=0; "$BIN" suite --jobs 0 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: --jobs 0 should exit 1, got $rc" >&2; exit 1
fi
# bench_parallel --smoke asserts parallel == serial internally; write to a
# temp path so the checked-in full-mode BENCH_parallel.json stays put.
target/release/bench_parallel --smoke --out "$T/BENCH_smoke.json" >/dev/null

step "batched timing kernel smoke"
# bench_timing --smoke asserts every batch lane bit-identical to the serial
# analyzer before timing anything; temp output path for the same reason.
target/release/bench_timing --smoke --out "$T/BENCH_timing_smoke.json" >/dev/null
grep -q '"batched_kernel"' "$T/BENCH_timing_smoke.json" \
    || { echo "FAIL: bench_timing smoke artifact is malformed" >&2; exit 1; }
# The checked-in full-mode record must stay well-formed and cover the
# 100k-sink row the README cites.
grep -q '"sinks": 100000' BENCH_timing.json \
    || { echo "FAIL: BENCH_timing.json lost its 100k-sink row" >&2; exit 1; }
# So must the scaling figure's 100k-sink row EXPERIMENTS F4 cites.
grep -q '^100000,' results/fig4_scaling.csv \
    || { echo "FAIL: results/fig4_scaling.csv lost its 100k-sink row" >&2; exit 1; }

step "supervision smoke"
# Anytime contract: an absurdly small budget still yields a feasible
# result (exit 0) with an exhausted-budget receipt in the JSON.
capped="$("$BIN" run --sinks 60 --seed 2 --method smart --max-iters 3 --json)"
case "$capped" in
    *'"meets_constraints": true'*'"budget_exhausted": true'*|*'"budget_exhausted": true'*'"meets_constraints": true'*) ;;
    *) echo "FAIL: capped run must stay feasible and report exhaustion: $capped" >&2; exit 1 ;;
esac
# Rescue-only repair: upgrade-repair runs only when the conservative start
# is infeasible, so a default run (feasible start) has no such phase.
plain="$("$BIN" run --sinks 180 --seed 2 --json)"
case "$plain" in
    *'"phase": "stage-nets"'*) ;;
    *) echo "FAIL: smart run must report its stage-net phase: $plain" >&2; exit 1 ;;
esac
case "$plain" in
    *'"phase": "upgrade-repair"'*)
        echo "FAIL: upgrade-repair ran on a feasible start: $plain" >&2; exit 1 ;;
esac

step "run at scale"
# A 20k-sink default run, two orders of magnitude above the other smokes,
# exits 0 with a result that meets its constraints. Only "baseline" and
# "result" carry the flag, and "result" comes second.
big="$("$BIN" run --sinks 20000 --seed 3 --json)"
case "$big" in
    *'"result": {'*'"meets_constraints": true'*) ;;
    *) echo "FAIL: the 20k-sink run must meet its constraints" >&2; exit 1 ;;
esac

step "serve smoke (resident daemon)"
# Three requests, one invalid: the invalid one gets a typed error, the
# daemon keeps serving (the repeat request hits the warm cache), and EOF
# drains the queue and exits 0 — set -e fails the script otherwise.
serve_out="$T/serve_out.jsonl"
printf '%s\n' \
    '{"op": "run", "id": 1, "design": {"generate": {"sinks": 60, "seed": 2}}}' \
    '{"op": "frobnicate", "id": 2}' \
    '{"op": "run", "id": 3, "design": {"generate": {"sinks": 60, "seed": 2}}}' \
    | "$BIN" serve --jobs 1 > "$serve_out"
grep -q '"id": 1, "ok": true, "cache": "miss"' "$serve_out" \
    || { echo "FAIL: first serve request should succeed with a cache miss" >&2; exit 1; }
grep -q '"id": 2, "error": {"code": "usage"' "$serve_out" \
    || { echo "FAIL: invalid serve request should get a typed error" >&2; exit 1; }
grep -q '"id": 3, "ok": true, "cache": "hit"' "$serve_out" \
    || { echo "FAIL: repeat serve request should hit the warm cache" >&2; exit 1; }

step "result-store round trip smoke"
# Cold run persists; the warm rerun replays byte-identically from disk.
"$BIN" run --sinks 60 --seed 2 --json --store "$T/store" > "$T/cold.json" 2>/dev/null
"$BIN" run --sinks 60 --seed 2 --json --store "$T/store" > "$T/warm.json" 2> "$T/warm.err"
cmp -s "$T/cold.json" "$T/warm.json" \
    || { echo "FAIL: warm store rerun must be byte-identical to the cold run" >&2; exit 1; }
grep -q "store: 1 hit(s)" "$T/warm.err" \
    || { echo "FAIL: warm rerun should be served from the store" >&2; exit 1; }
# A corrupted entry is quarantined (degradation visible in the JSON) and
# recomputed — never a stale or wrong answer, never a crash.
entry="$(ls "$T"/store/entries/run/*.entry)"
printf 'X' | dd of="$entry" bs=1 seek=40 conv=notrunc 2>/dev/null
"$BIN" run --sinks 60 --seed 2 --json --store "$T/store" > "$T/recovered.json" 2>/dev/null
grep -q "cache_entry_quarantined" "$T/recovered.json" \
    || { echo "FAIL: corruption must surface as a degradation in the JSON" >&2; exit 1; }
[ -n "$(ls -A "$T/store/corrupt")" ] \
    || { echo "FAIL: the corrupted entry must be preserved in corrupt/" >&2; exit 1; }
# The recompute healed the slot: the next run replays again.
"$BIN" run --sinks 60 --seed 2 --json --store "$T/store" >/dev/null 2> "$T/healed.err"
grep -q "store: 1 hit(s)" "$T/healed.err" \
    || { echo "FAIL: the recompute must heal the store slot" >&2; exit 1; }
# bench_cache --smoke asserts cold==warm bytes internally; temp output so
# the checked-in full-mode BENCH_cache.json stays put.
target/release/bench_cache --smoke --out "$T/BENCH_cache_smoke.json" >/dev/null

step "pareto sweep smoke"
# Headline contract: the front's JSON bytes are a pure function of the
# request — identical for any --jobs and replayed from a warm store.
"$BIN" pareto --sinks 80 --seed 11 --mc 4 --jobs 1 --json > "$T/pareto1.json"
"$BIN" pareto --sinks 80 --seed 11 --mc 4 --jobs 4 --json > "$T/pareto4.json"
cmp -s "$T/pareto1.json" "$T/pareto4.json" \
    || { echo "FAIL: pareto front must not depend on --jobs" >&2; exit 1; }
grep -q '"power_uw"' "$T/pareto1.json" \
    || { echo "FAIL: pareto smoke produced an empty front" >&2; exit 1; }
"$BIN" pareto --sinks 80 --seed 11 --mc 4 --json --store "$T/pstore" \
    > "$T/pcold.json" 2>/dev/null
"$BIN" pareto --sinks 80 --seed 11 --mc 4 --json --store "$T/pstore" \
    > "$T/pwarm.json" 2> "$T/pwarm.err"
cmp -s "$T/pcold.json" "$T/pwarm.json" \
    || { echo "FAIL: warm pareto rerun must be byte-identical to cold" >&2; exit 1; }
cmp -s "$T/pcold.json" "$T/pareto1.json" \
    || { echo "FAIL: store participation must not change pareto bytes" >&2; exit 1; }
grep -q "store: 15 hit(s), 0 miss(es), 0 quarantined" "$T/pwarm.err" \
    || { echo "FAIL: warm pareto rerun must replay every point" >&2; exit 1; }
# --mc 37 is three sample chunks (two full, one ragged) of the deviations
# the sweep's points share: the same bytes for any --jobs and from a warm
# store, where no point draws.
"$BIN" pareto --sinks 80 --seed 11 --mc 37 --jobs 1 --json > "$T/p37_1.json"
"$BIN" pareto --sinks 80 --seed 11 --mc 37 --jobs 4 --json > "$T/p37_4.json"
cmp -s "$T/p37_1.json" "$T/p37_4.json" \
    || { echo "FAIL: the --mc 37 front must not depend on --jobs" >&2; exit 1; }
"$BIN" pareto --sinks 80 --seed 11 --mc 37 --json --store "$T/p37store" \
    > "$T/p37cold.json" 2>/dev/null
"$BIN" pareto --sinks 80 --seed 11 --mc 37 --json --store "$T/p37store" \
    > "$T/p37warm.json" 2>/dev/null
cmp -s "$T/p37cold.json" "$T/p37warm.json" && cmp -s "$T/p37cold.json" "$T/p37_1.json" \
    || { echo "FAIL: the --mc 37 front must not depend on the store" >&2; exit 1; }
# The pareto_mixed lock's sweep optimizes its points in lockstep: corner
# members, rescued points (an infeasible start) and window members that
# leave their group as forks. Its bytes must not depend on --jobs or on a
# warm store, and must be the locked front.
MIXED=(pareto --sinks 150 --seed 6 --corners --track-fracs 0.95,0.85 --windows 20 --mc 4 --json)
"$BIN" "${MIXED[@]}" --jobs 1 > "$T/mixed1.json"
"$BIN" "${MIXED[@]}" --jobs 4 > "$T/mixed4.json"
"$BIN" "${MIXED[@]}" --store "$T/mstore" > "$T/mixedcold.json" 2>/dev/null
"$BIN" "${MIXED[@]}" --store "$T/mstore" > "$T/mixedwarm.json" 2> "$T/mixedwarm.err"
for f in mixed4 mixedcold mixedwarm; do
    cmp -s "$T/mixed1.json" "$T/$f.json" \
        || { echo "FAIL: the mixed sweep's $f front differs from --jobs 1" >&2; exit 1; }
done
cmp -s "$T/mixed1.json" tests/golden/pareto_mixed.txt \
    || { echo "FAIL: the mixed sweep drifted from tests/golden/pareto_mixed.txt" >&2; exit 1; }
grep -q "store: 36 hit(s), 0 miss(es), 0 quarantined" "$T/mixedwarm.err" \
    || { echo "FAIL: the warm mixed sweep must replay every point" >&2; exit 1; }
# A Monte-Carlo count past the ceiling is a typed usage error (exit 1),
# never an allocation abort (exit 134).
for cmd in run pareto; do
    rc=0; out="$("$BIN" "$cmd" --sinks 40 --mc 9007199254740992 --json 2>/dev/null)" || rc=$?
    case "$rc:$out" in
        '1:{"error": {"code": "usage"'*) ;;
        *) echo "FAIL: $cmd --mc 2^53 should be a usage error, got $rc: $out" >&2; exit 1 ;;
    esac
done
# bench_pareto --smoke asserts serial == parallel == store-warm bytes
# internally; temp output path keeps the checked-in record put.
target/release/bench_pareto --smoke --out "$T/BENCH_pareto_smoke.json" >/dev/null
grep -q '"pareto_sweep"' "$T/BENCH_pareto_smoke.json" \
    || { echo "FAIL: bench_pareto smoke artifact is malformed" >&2; exit 1; }

step "import / export-ndr interop smoke"
# Every checked-in DEF example imports (the dirty one needs --repair to
# write output), solves, exports create_ndr Tcl, and the exported script
# reimports onto the same tree byte-exactly: assignments saved from the
# solve and from the reimport must compare identical.
mkdir -p "$T/imported"
for def in examples/*.def; do
    name="$(basename "$def" .def)"
    repair_flag=""
    [ "$name" = dirty12 ] && repair_flag="--repair"
    "$BIN" import --design "$def" $repair_flag --out "$T/imported/$name.sndr" >/dev/null
    "$BIN" export-ndr --design "$def" --method greedy \
        --out "$T/$name.tcl" --save-asg "$T/$name.solved.asg" >/dev/null
    grep -q 'create_ndr -name NDR_' "$T/$name.tcl" \
        || { echo "FAIL: $name export produced no create_ndr commands" >&2; exit 1; }
    "$BIN" export-ndr --design "$def" --from-tcl "$T/$name.tcl" \
        --save-asg "$T/$name.reimported.asg" >/dev/null
    cmp -s "$T/$name.solved.asg" "$T/$name.reimported.asg" \
        || { echo "FAIL: $name NDR Tcl round trip changed the assignment" >&2; exit 1; }
done
# Imported designs are first-class flow inputs.
"$BIN" run --design "$T/imported/banks64.sndr" --method greedy >/dev/null
# Hostile bytes: a truncated DEF is a typed exit-3 rejection, not a crash.
head -c 200 examples/banks64.def > "$T/truncated.def"
rc=0; "$BIN" import --design "$T/truncated.def" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: truncated DEF should exit 3, got $rc" >&2; exit 1
fi
# Quick fuzz smoke: a 32-seed slice of the full tests/import_fuzz.rs soak
# (the full 256-seed run already happened in the workspace test step).
IMPORT_FUZZ_CASES=32 cargo test -q --test import_fuzz corrupted_imports >/dev/null

step "chaos soak + kill-and-resume (scripts/soak.sh)"
scripts/soak.sh

echo
echo "verify: all checks passed"
