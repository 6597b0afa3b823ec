#!/usr/bin/env bash
# Chaos/soak gate for the run-supervision layer: the seeded fault-injection
# soak (128 seeds of forced incremental-engine divergence plus the
# crash-safe-writer cycle) and real kill-and-resume round-trips of
# `smart-ndr suite`, which resumes from the rows stored in `<out>.rows/`.
# Everything sits under an outer timeout so a hang is a failure, not a
# stuck CI job. Exits non-zero on the first failure.
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

# Starts `suite --designs $1 --out $2` and SIGKILLs it as soon as its first
# row is stored in `$2.rows/`. Fails when the run ends first or the
# artifact already exists at kill time: the kill must land mid-run, or the
# resume below proves nothing.
kill_after_first_row() {
    local pool="$1" out="$2" pid
    "$BIN" suite --designs "$pool" --out "$out" >/dev/null 2>&1 &
    pid=$!
    until compgen -G "$out.rows/entries/suite/*.entry" >/dev/null; do
        kill -0 "$pid" 2>/dev/null || {
            echo "FAIL: suite exited before storing a row" >&2; exit 1
        }
        sleep 0.01
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    if [ -e "$out" ]; then
        echo "FAIL: $out existed at kill time; the kill did not land mid-run" >&2; exit 1
    fi
    echo "killed after $(compgen -G "$out.rows/entries/suite/*.entry" | wc -l) stored row(s)"
}

# Resumes the killed run and checks its artifact against the reference;
# the row store and temp file must not survive the successful resume.
resume_and_compare() {
    local pool="$1" out="$2" ref="$3"
    timeout "$SOAK_TIMEOUT" "$BIN" suite --resume --designs "$pool" --out "$out" >/dev/null
    cmp "$ref" "$out" || {
        echo "FAIL: resumed artifact differs from the uninterrupted run" >&2; exit 1
    }
    if [ -e "$out.rows" ] || [ -e "$out.tmp" ]; then
        echo "FAIL: row store or temp file outlived the successful resume" >&2; exit 1
    fi
}

# ~1.5 s of rows, so the kill lands mid-run. The first two designs share a
# sink count, and so a name (`cli-s3000`): stored rows must be told apart
# by content.
mkdir "$T/pool"
i=0
for spec in "3000 2" "3000 3" "4000 4" "5000 5" "6000 6" "8000 7"; do
    set -- $spec
    i=$((i + 1))
    "$BIN" gen --sinks "$1" --seed "$2" --out "$T/pool/d$i.sndr" >/dev/null
done
timeout "$SOAK_TIMEOUT" "$BIN" suite --designs "$T/pool" --out "$T/ref.txt" >/dev/null
kill_after_first_row "$T/pool" "$T/victim.txt"
resume_and_compare "$T/pool" "$T/victim.txt" "$T/ref.txt"

step "kill-and-resume over imported external designs"
# Same contract, but the pool comes through the DEF import frontier (with
# the dirty example salvaged by --repair) instead of the generator —
# imported designs must be first-class suite inputs, crash-safety included.
# One large generated design, sorted last, keeps the run alive past the
# first stored row.
mkdir "$T/defpool"
for def in examples/*.def; do
    name="$(basename "$def" .def)"
    repair_flag=""
    [ "$name" = dirty12 ] && repair_flag="--repair"
    "$BIN" import --design "$def" $repair_flag \
        --out "$T/defpool/$name.sndr" >/dev/null
done
"$BIN" gen --sinks 8000 --seed 9 --out "$T/defpool/zz_large.sndr" >/dev/null
timeout "$SOAK_TIMEOUT" "$BIN" suite --designs "$T/defpool" --out "$T/dref.txt" >/dev/null
kill_after_first_row "$T/defpool" "$T/dvictim.txt"
resume_and_compare "$T/defpool" "$T/dvictim.txt" "$T/dref.txt"

echo
echo "soak: all checks passed"
