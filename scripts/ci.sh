#!/usr/bin/env bash
# Every CI step, in order.  The workflow runs this script in each job of its
# Python matrix; run it locally, from anywhere in a checkout, before pushing:
#
#   scripts/ci.sh
#
# The first step checks the installed `divdiff` console script.  Without an
# installed package, point it at the module instead:
#
#   DIVDIFF="python -m divdiff.cli" scripts/ci.sh
#
# The benchmark smoke runs write under perfbench/out (git-ignored).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
DIVDIFF=${DIVDIFF:-divdiff}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

step() { printf '\n== %s\n' "$1"; }
fail() { echo "FAIL: $1"; exit 1; }

step "console script and the error contract"
$DIVDIFF stencil -m 1 -n 1 -t 2 --json
# exit 2, one error: line, no traceback
code=0
$DIVDIFF interp no-such-file.csv -x 1 2> "$tmp/err.txt" || code=$?
cat "$tmp/err.txt"
[ "$code" -eq 2 ] || fail "exit code $code, want 2"
grep -q '^error: ' "$tmp/err.txt" || fail "no error: line on stderr"
if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi

step "console script: comma lists that start with a negative number"
printf 'x,y\n-1,1\n0,0\n1,1\n' > "$tmp/sq.csv"
for cmd in "quad --panels 4 --func exp --interval -1,1" \
           "quad --panels 4 --func exp --inter -1,1" \
           "interp $tmp/sq.csv -x -0.5,0.3"; do
  $DIVDIFF $cmd 2> "$tmp/err.txt" || fail "divdiff $cmd: exit code $?"
  if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
done

step "tier-1 tests"
# the ten slowest tests, to watch the suite against its time budget
python -m pytest -q --continue-on-collection-errors --durations=10

step "reproduce the reference tables"
python -m divdiff.cli reproduce all

step "demos against demos/expected"
for demo in demos/*.py; do
  name=$(basename "$demo" .py)
  python "$demo" > "$tmp/$name.txt"
  diff -u "demos/expected/$name.txt" "$tmp/$name.txt" || fail "$name output"
  echo "$name: matches"
done

# --trace 1 runs perfbench/tracing.py, which wraps every public library
# function and method in a span and checks the op tallies
for trace in 0 1; do
  step "benchmark smoke run, --trace $trace"
  for w in scatter-reuse window-stream grid-weights cli; do
    last=$(python perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
           --trace "$trace" | tail -n 1)
    echo "$w: $last"
    case "$last" in
      *'"correct": true'*) ;;
      *) fail "$w: the last line does not report \"correct\": true" ;;
    esac
  done
done

step "all steps passed"
