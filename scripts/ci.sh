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
# the stencil's text form, StencilWeights.display, on this Python
$DIVDIFF stencil -m 2 -n 3 -t 2 | tee "$tmp/stencil.txt"
grep -qxF 'f^(2)(a) ~ 1/(12*h^2) * [-1, 16, -30, 16, -1, 0] on offsets [-2, -1, 0, 1, 2, 3] (accuracy order 4)' \
  "$tmp/stencil.txt" || fail "stencil text line"
# an even grid rule from the integer Lagrange kernel, EvenQuadPlan.display
$DIVDIFF quad --grid 0,1,0,6 --func exp | tee "$tmp/quad.txt"
grep -qxF 'weights: h/140 * (41, 216, 27, 272, 27, 216, 41)' "$tmp/quad.txt" \
  || fail "quad weights line"
# exit 2, one error: line, no traceback
code=0
$DIVDIFF interp no-such-file.csv -x 1 2> "$tmp/err.txt" || code=$?
cat "$tmp/err.txt"
[ "$code" -eq 2 ] || fail "exit code $code, want 2"
grep -q '^error: ' "$tmp/err.txt" || fail "no error: line on stderr"
if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi

step "console script: cold start"
# what each fresh command imports with bytecode writes off, under
# -X importtime (PYTHONPROFILEIMPORTTIME): the self time in microseconds of
# each divdiff module.  No command may load dataclasses.  Neither may
# divdiff.tables load on the grid routes, nor on the off-node diff and quad
# routes over a CSV file.  Without --func, diff --grid samples the reference
# function and so loads divdiff.oracle, which also holds the paper's
# two-sided coefficient solve (the grid rules' test reference, which no
# route runs); it must stay as lean.  table and
# interp load divdiff.tables, but nothing of the derivative or quadrature
# routes.
printf 'x,y\n-1,1\n0,0\n1,1\n' > "$tmp/sq.csv"
lean() {  # lean "<command>" <module>...: it loads none of the modules
  local cmd=$1
  shift
  echo "divdiff $cmd"
  PYTHONDONTWRITEBYTECODE=1 PYTHONPROFILEIMPORTTIME=1 \
    $DIVDIFF $cmd > /dev/null 2> "$tmp/imports.txt" \
    || fail "divdiff $cmd under -X importtime: exit code $?"
  grep -E '\| +divdiff(\.|$)' "$tmp/imports.txt" | cut -d'|' -f1,3
  cut -d'|' -f3 "$tmp/imports.txt" | tr -d ' ' > "$tmp/modules.txt"
  for mod in dataclasses "$@"; do
    if grep -qxF "$mod" "$tmp/modules.txt"; then
      fail "divdiff $cmd loads $mod"
    fi
  done
}
for cmd in "stencil -m 2 -n 2 -t 2" \
           "diff --grid 0,0.1,2,2 --func exp -t 2" \
           "diff --grid 0,0.1,2,2 -t 2" \
           "quad --grid 0,1,0,6 --func exp" \
           "quad --panels 4 --func sin" \
           "diff $tmp/sq.csv -t 1 --at 0.5" \
           "quad $tmp/sq.csv --at 0.5"; do
  lean "$cmd" divdiff.tables
done
lean "table $tmp/sq.csv" divdiff.interpolate divdiff.derivatives \
  divdiff.counting
lean "interp $tmp/sq.csv -x 0.5" divdiff.derivatives divdiff.quadrature \
  divdiff.oracle

step "console script: comma lists that start with a negative number"
for cmd in "quad --panels 4 --func exp --interval -1,1" \
           "quad --panels 4 --func exp --inter -1,1" \
           "interp $tmp/sq.csv -x -0.5,0.3"; do
  $DIVDIFF $cmd 2> "$tmp/err.txt" || fail "divdiff $cmd: exit code $?"
  if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
done
# a non-finite first value joins its list option and meets the finite check
code=0
$DIVDIFF quad --panels 2 --func exp --interval -inf,0 2> "$tmp/err.txt" \
  || code=$?
cat "$tmp/err.txt"
[ "$code" -eq 2 ] || fail "exit code $code, want 2"
grep -q 'must be finite' "$tmp/err.txt" || fail "no finite-check message"
if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi

step "console script: weighted sums that span two statements"
# the generated weighted-sum kernel splits each sum into statements of at
# most 32 terms; this checks that its source compiles on each Python of the
# matrix, in the panel form of a composite (width 34) and the one-rule form
# of a stencil (width 35) and of a grid quadrature rule (width 34)
for cmd in "quad --panels 3 --func sin --rule-n 33" \
           "diff --grid 0,0.1,17,17 --func exp -t 2" \
           "quad --grid 0,0.05,0,33 --func exp"; do
  $DIVDIFF $cmd 2> "$tmp/err.txt" || fail "divdiff $cmd: exit code $?"
  if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
done

step "console script: the largest generated Lagrange, cardinal and plan kernels"
# sets of up to 16 nodes run straight-line Lagrange, cardinal and split-plan
# kernels generated per node count; 16 nodes is the largest generated size
# and 17 the first that runs the loops.  This checks that the generated
# source compiles on each Python of the matrix: -r 0 runs the first-kind
# suffix sum, at its first point the 16-node Lagrange kernel (on 17 nodes
# the loop) and at its second point the loop, the default r = n the
# (16, 15) plan kernel, and the off-node derivative the cardinal kernel of
# the whole set.  With --rational the suffix weights are exact, so y = k^2
# reads back exactly on both sides of the kernel size
for count in 16 17; do
  { echo x,y; for ((k = 0; k < count; k++)); do echo "$k,$((k * k))"; done; } \
    > "$tmp/n$count.csv"
  for cmd in "interp $tmp/n$count.csv -x 2.5,3.5 -r 0" \
             "interp $tmp/n$count.csv -x 2.5" \
             "diff $tmp/n$count.csv -t 2 --at 2.5"; do
    $DIVDIFF $cmd 2> "$tmp/err.txt" || fail "divdiff $cmd: exit code $?"
    if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
  done
  $DIVDIFF interp "$tmp/n$count.csv" -x 5/2,7/2 -r 0 --rational \
    | tee "$tmp/exact.txt"
  for line in 5/2,25/4 7/2,49/4; do
    grep -qxF "$line" "$tmp/exact.txt" || fail "n$count.csv: no $line line"
  done
done
# the evenly spaced forms run the same suffix sum over integer positions,
# whose weights are exact (and none, on new_forward's empty suffix at
# -r 4 of 0..8): y = x^3 at x = 9/2
{ echo x,y; for ((k = 0; k <= 8; k++)); do echo "$k,$((k * k * k))"; done; } \
  > "$tmp/cube.csv"
for variant in "stirling -r 2" "new_forward -r 4"; do
  $DIVDIFF interp "$tmp/cube.csv" -x 9/2 --variant $variant --rational \
    | tee "$tmp/exact.txt"
  grep -qxF 9/2,729/8 "$tmp/exact.txt" || fail "--variant $variant: no 9/2,729/8"
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

step "library size"
wc -l src/divdiff/*.py | tail -n 1

step "all steps passed"
