#!/usr/bin/env bash
# Output locks: optimizer digests (tests/optimizer_lock.rs), suite
# artifacts (tests/suite_lock.rs), Pareto fronts (tests/pareto_lock.rs),
# interop outputs (tests/interop_lock.rs), CLI error lines
# (tests/cli_errors_lock.rs), what `lint` and `import` print and answer
# (tests/check_lock.rs), the optimizers' gaps to the exhaustive optimum
# on tiny trees (tests/global_oracle.rs) and the clock trees CTS builds
# (tests/cts_lock.rs).
#
#   scripts/golden.sh           check: run the lock tests, fail on any drift
#   scripts/golden.sh --bless   regenerate tests/golden/optimizer_digests.txt,
#                               the suite_*.txt artifacts, the
#                               pareto_*.txt fronts, the interop
#                               outputs, the CLI error lines, the
#                               lint/import outputs, the oracle gaps
#                               and the tree digests and
#                               print every entry or line that changed
#
# Bless only when a change is meant to alter results; an engine or
# refactoring change must leave every file untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/optimizer_digests.txt
ACTUAL=target/tmp/optimizer_digests.actual.txt
ARTIFACTS="suite_builtin suite_examples pareto_default pareto_corners pareto_grid export_ndr_examples import_dirty12 cli_errors check_outputs oracle_gaps cts_trees"
LOCKS=(--test optimizer_lock --test suite_lock --test pareto_lock --test interop_lock --test cli_errors_lock --test check_lock --test global_oracle --test cts_lock)

case "${1:-}" in
    "")
        exec cargo test -q "${LOCKS[@]}"
        ;;
    --bless)
        # The tests write what they computed before comparing, so a
        # failing comparison still leaves complete actual files.
        rm -f "$ACTUAL"
        for s in $ARTIFACTS; do rm -f "target/tmp/$s.actual.txt"; done
        cargo test -q --no-fail-fast "${LOCKS[@]}" >/dev/null 2>&1 || true
        [ -s "$ACTUAL" ] || { echo "golden: the lock test produced no digests" >&2; exit 1; }
        for s in $ARTIFACTS; do
            [ -s "target/tmp/$s.actual.txt" ] || {
                echo "golden: the locks produced no $s artifact" >&2; exit 1
            }
        done
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
        for s in $ARTIFACTS; do
            diff -u --label "golden $s" --label "actual $s" \
                "tests/golden/$s.txt" "target/tmp/$s.actual.txt" || true
            cp "target/tmp/$s.actual.txt" "tests/golden/$s.txt"
        done
        ;;
    *)
        echo "usage: scripts/golden.sh [--bless]" >&2
        exit 1
        ;;
esac
