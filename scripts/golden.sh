#!/usr/bin/env bash
# Optimizer output lock (tests/optimizer_lock.rs).
#
#   scripts/golden.sh           check: run the lock test, fail on any drift
#   scripts/golden.sh --bless   regenerate tests/golden/optimizer_digests.txt
#                               and print every entry that changed
#
# Bless only when a change is meant to alter optimizer results; an
# engine or refactoring change must leave the file untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/optimizer_digests.txt
ACTUAL=target/tmp/optimizer_digests.actual.txt

case "${1:-}" in
    "")
        exec cargo test -q --test optimizer_lock
        ;;
    --bless)
        # The test writes the digests it computed before comparing, so a
        # failing comparison still leaves a complete actual file.
        rm -f "$ACTUAL"
        cargo test -q --test optimizer_lock >/dev/null 2>&1 || true
        [ -s "$ACTUAL" ] || { echo "golden: the lock test produced no digests" >&2; exit 1; }
        mkdir -p "$(dirname "$GOLDEN")"
        touch "$GOLDEN"
        changed=0
        # Entries are keyed by their first field (design/set/optimizer).
        while read -r key rest; do
            old="$(grep -F -m1 -- "$key " "$GOLDEN" || true)"
            if [ "$old" != "$key $rest" ]; then
                changed=$((changed + 1))
                if [ -z "$old" ]; then
                    echo "added:   $key $rest"
                else
                    echo "changed: $old"
                    echo "     ->  $key $rest"
                fi
            fi
        done < "$ACTUAL"
        while read -r key _; do
            grep -q -F -- "$key " "$ACTUAL" || { echo "removed: $key"; changed=$((changed + 1)); }
        done < "$GOLDEN"
        cp "$ACTUAL" "$GOLDEN"
        echo "golden: $changed entr$([ "$changed" -eq 1 ] && echo y || echo ies) changed in $GOLDEN"
        ;;
    *)
        echo "usage: scripts/golden.sh [--bless]" >&2
        exit 1
        ;;
esac
