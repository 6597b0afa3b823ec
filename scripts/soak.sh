#!/usr/bin/env bash
# Chaos/soak gate for the run-supervision layer: the seeded fault-injection
# soak (128 seeds of forced incremental-engine divergence plus the
# crash-safe-writer cycle) and a real kill-and-resume round-trip of
# `smart-ndr suite`. Everything sits under an outer timeout so a hang is a
# failure, not a stuck CI job. Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

SOAK_TIMEOUT="${SOAK_TIMEOUT:-600}"

step() { printf '\n== %s\n' "$*"; }

step "chaos soak (tests/chaos.rs, 128 seeds)"
timeout "$SOAK_TIMEOUT" cargo test -q --release --test chaos

step "kill-and-resume round-trip"
cargo build --release -q
BIN=target/release/smart-ndr
T="$(mktemp -d)"
trap 'rm -rf "$T"' EXIT
mkdir "$T/pool"
for i in 1 2 3 4 5 6; do
    "$BIN" gen --sinks $((160 + 40 * i)) --seed "$i" --out "$T/pool/d$i.sndr" >/dev/null
done

# Reference: one uninterrupted run.
timeout "$SOAK_TIMEOUT" "$BIN" suite --designs "$T/pool" --out "$T/ref.txt" >/dev/null

# Victim: start, SIGKILL mid-flight, resume. Whatever progress the journal
# captured is restored (not re-evaluated) and the resumed artifact must be
# byte-identical to the reference; the journal and temp file must not
# survive the successful resume.
"$BIN" suite --designs "$T/pool" --out "$T/victim.txt" >/dev/null 2>&1 &
pid=$!
sleep 0.4
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
timeout "$SOAK_TIMEOUT" "$BIN" suite --resume --designs "$T/pool" --out "$T/victim.txt" >/dev/null
cmp "$T/ref.txt" "$T/victim.txt" || {
    echo "FAIL: resumed artifact differs from the uninterrupted run" >&2; exit 1
}
if [ -e "$T/victim.txt.journal.jsonl" ]; then
    echo "FAIL: journal outlived the successful resume" >&2; exit 1
fi
if [ -e "$T/victim.txt.tmp" ]; then
    echo "FAIL: temp file orphaned by the atomic write" >&2; exit 1
fi

step "kill-and-resume over imported external designs"
# Same contract, but the pool comes through the DEF import frontier (with
# the dirty example salvaged by --repair) instead of the generator —
# imported designs must be first-class suite inputs, crash-safety included.
mkdir "$T/defpool"
for def in examples/*.def; do
    name="$(basename "$def" .def)"
    repair_flag=""
    [ "$name" = dirty12 ] && repair_flag="--repair"
    "$BIN" import --design "$def" $repair_flag \
        --out "$T/defpool/$name.sndr" >/dev/null
done
timeout "$SOAK_TIMEOUT" "$BIN" suite --designs "$T/defpool" --out "$T/dref.txt" >/dev/null
"$BIN" suite --designs "$T/defpool" --out "$T/dvictim.txt" >/dev/null 2>&1 &
pid=$!
sleep 0.2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
timeout "$SOAK_TIMEOUT" "$BIN" suite --resume --designs "$T/defpool" --out "$T/dvictim.txt" >/dev/null
cmp "$T/dref.txt" "$T/dvictim.txt" || {
    echo "FAIL: resumed imported-suite artifact differs from the uninterrupted run" >&2; exit 1
}
if [ -e "$T/dvictim.txt.journal.jsonl" ] || [ -e "$T/dvictim.txt.tmp" ]; then
    echo "FAIL: journal or temp file outlived the successful imported-suite resume" >&2; exit 1
fi

echo
echo "soak: all checks passed"
