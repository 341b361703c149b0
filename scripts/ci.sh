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
# a reader that stops early, so the pipe closes under the command: exit 0,
# no error: line, no traceback
closed_pipe() {  # closed_pipe "<command>" <reader>...
  local cmd=$1
  shift
  { code=0; $DIVDIFF $cmd 2> "$tmp/err.txt" || code=$?
    echo "$code" > "$tmp/code.txt"; } | "$@" > /dev/null
  code=$(cat "$tmp/code.txt")
  echo "divdiff ${cmd:0:32}... | $*: exit code $code"
  [ "$code" -eq 0 ] || fail "exit code $code under a closed pipe, want 0"
  if grep -q '^error: ' "$tmp/err.txt"; then fail "error: line on stderr"; fi
  if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
}
printf 'x,y\n0,0\n1,1\n2,4\n' > "$tmp/pipe.csv"
closed_pipe "reproduce all --json" head -1
# 10000 points, far more output than a pipe buffers
closed_pipe "interp $tmp/pipe.csv -x $(seq -s, 0 9999 | sed 's/,/e-4,/g')e-4" \
  head -c 10

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
# matrix, for a stencil (width 35) and a grid quadrature rule (width 34),
# and below for a composite's 34 column sums (--rule-n 33)
for cmd in "diff --grid 0,0.1,17,17 --func exp -t 2" \
           "quad --grid 0,0.05,0,33 --func exp"; do
  $DIVDIFF $cmd 2> "$tmp/err.txt" || fail "divdiff $cmd: exit code $?"
  if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
done

step "console script: composites as column sums"
# quad_composite adds up each rule column with the built-in sum, which
# Python 3.12 and later compensate, and applies the rule once to the n + 1
# column sums: the Simpson composite of exp over [0, 1] in 10000 panels
# prints the same digits with either sum.  A rule of 34 columns runs the
# float kernel at width 34, in two statements
$DIVDIFF quad --panels 10000 --func exp --interval 0,1 \
  | tee "$tmp/composite.txt"
grep -qxF 'value: 1.71828182846' "$tmp/composite.txt" \
  || fail "composite value line"
# columns of 10000 values near 1e307 sum past the float maximum; the
# per-panel sum keeps the composite finite
$DIVDIFF quad --panels 10000 --func exp --interval 700,709 \
  | tee "$tmp/composite.txt"
grep -qxF 'value: 8.2173932295e+307' "$tmp/composite.txt" \
  || fail "near-max composite value line"
$DIVDIFF quad --panels 3 --func sin --rule-n 33 2> "$tmp/err.txt" \
  || fail "divdiff quad --rule-n 33: exit code $?"
if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi

step "console script: the largest traced first-call and derivative kernels"
# a loop compiles once per shape where its recorded tape fits the tracer's
# budget (samples._TAPE_BUDGET), and runs as itself beyond: on 16 and 17
# nodes the split form's first call (plan, Newton prefix and first-kind
# suffix sum in one kernel) and the split-plan loops compile at every r,
# and the off-node derivative at a new point (the cardinal basis and the
# derivative together) at low orders; at -t 15 on 16 nodes and -t 16 on
# 17 it is the loop.  This checks that the traced source compiles on each
# Python of the matrix: -r 0 and -r 8 run the first-call kernel at their
# first point and the plan's bound repeat kernel at their second, the
# default r = n the (16, 15) first-call kernel.  With --rational the suffix
# weights and the derivative are exact, so y = k^2 reads back exactly on
# both sides of the budget
for count in 16 17; do
  { echo x,y; for ((k = 0; k < count; k++)); do echo "$k,$((k * k))"; done; } \
    > "$tmp/n$count.csv"
  for cmd in "interp $tmp/n$count.csv -x 2.5,3.5 -r 0" \
             "interp $tmp/n$count.csv -x 2.5,3.5 -r 8" \
             "interp $tmp/n$count.csv -x 2.5" \
             "diff $tmp/n$count.csv -t 2 --at 2.5" \
             "diff $tmp/n$count.csv -t $((count - 1)) --at 2.5"; do
    $DIVDIFF $cmd 2> "$tmp/err.txt" || fail "divdiff $cmd: exit code $?"
    if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
  done
  for r in 0 8; do
    $DIVDIFF interp "$tmp/n$count.csv" -x 5/2,7/2 -r $r --rational \
      | tee "$tmp/exact.txt"
    for line in 5/2,25/4 7/2,49/4; do
      grep -qxF "$line" "$tmp/exact.txt" \
        || fail "n$count.csv -r $r: no $line line"
    done
  done
  $DIVDIFF diff "$tmp/n$count.csv" -t 2 --at 5/2 --rational \
    | tee "$tmp/exact.txt"
  grep -qxF "value: 2" "$tmp/exact.txt" || fail "n$count.csv: no value: 2 line"
  # the second point is a node, reached on the repeat path of the suffix
  # sum, whose division by zero gives the nodal value
  for opts in "-x 2.5,3 -r 0" "-x 5/2,3 -r 0 --rational"; do
    $DIVDIFF interp "$tmp/n$count.csv" $opts | tee "$tmp/nodal.txt"
    grep -qxF "3,9" "$tmp/nodal.txt" || fail "n$count.csv $opts: no 3,9 line"
  done
  # the op counts, recorded off the reference loops on both sides of the
  # kernel size, equal the closed form
  counts=$(python -c "import divdiff as dd
c = dd.diff_op_counts($((count - 1)), 2)
print(f'op-counts: add={c.additions} sub={c.subtractions} '
      f'mul={c.multiplications} div={c.divisions}')")
  $DIVDIFF diff "$tmp/n$count.csv" -t 2 --at 2.5 --opcount \
    | tee "$tmp/counts.txt"
  grep -qxF "$counts" "$tmp/counts.txt" \
    || fail "n$count.csv: no $counts line"
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

step "console script: repeat points through the plan's kernels"
# a set's first call at a point runs the first-call loop (over budget on 33
# and 129 nodes), its second the plan's bound kernel of the same sums, in
# both suffix forms: the two rows of a repeated point must be one line
for count in 32 128; do
  python - "$count" > "$tmp/cheb$count.csv" <<'PY'
import math, sys
n = int(sys.argv[1])
print("x,y")
for k in range(n + 1):
    x = math.cos(math.pi * k / n)
    print(f"{x!r},{math.exp(x)!r}")
PY
  for opts in "" "--barycentric" "-r 0" "--barycentric -r 0" \
              "-r $((count / 2))" "--barycentric -r $((count / 2))"; do
    $DIVDIFF interp "$tmp/cheb$count.csv" -x 0.3,0.3 $opts \
      > "$tmp/repeat.txt" 2> "$tmp/err.txt" \
      || fail "cheb$count.csv $opts: exit code $?"
    if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
    rows=$(tail -n 2 "$tmp/repeat.txt" | sort -u | wc -l)
    [ "$(wc -l < "$tmp/repeat.txt")" -eq 3 ] && [ "$rows" -eq 1 ] \
      || fail "cheb$count.csv $opts: the repeated point's rows differ"
    echo "cheb$count.csv $opts: $(tail -n 1 "$tmp/repeat.txt")"
  done
done

step "console script: a rational table past the int-string limit"
# the exact divided differences on 33 Chebyshev nodes have numerators and
# denominators longer than Python converts to a string: the text table
# prints them rounded to 17 significant digits, with one note on stderr
$DIVDIFF table "$tmp/cheb32.csv" --rational > "$tmp/table.txt" \
  2> "$tmp/err.txt" || fail "table cheb32.csv --rational: exit code $?"
cat "$tmp/err.txt"
[ "$(grep -c '^note: ' "$tmp/err.txt")" -eq 1 ] \
  || fail "table cheb32.csv --rational: want one note: line"
if grep -q Traceback "$tmp/err.txt"; then fail "traceback on stderr"; fi
echo "table cheb32.csv --rational: $(wc -l < "$tmp/table.txt") lines"

step "grid stencils on exact data"
# diff at a node of evenly spaced data reroutes to the grid stencil, which
# applies its weights to exact data with an exact step as one Fraction:
# y = k^2 on k = 0..8, and y = x^3 on the h = 1/8 grid of [0, 1]
{ echo x,y; for ((k = 0; k <= 8; k++)); do echo "$k,$((k * k))"; done; } \
  > "$tmp/n9.csv"
{ echo x,y; for ((k = 0; k <= 8; k++)); do echo "$k/8,$((k * k * k))/512"; done; } \
  > "$tmp/cube8.csv"
$DIVDIFF diff "$tmp/n9.csv" -t 2 --at 4 --rational | tee "$tmp/exact.txt"
grep -qxF "value: 2" "$tmp/exact.txt" || fail "n9.csv: no value: 2 line"
$DIVDIFF diff "$tmp/cube8.csv" -t 3 --at 1/2 --rational | tee "$tmp/exact.txt"
grep -qxF "value: 6" "$tmp/exact.txt" || fail "cube8.csv: no value: 6 line"

step "tier-1 tests"
# the ten slowest tests, to watch the suite against its time budget
python -m pytest -q --continue-on-collection-errors --durations=10

# the reproduction and the demos run with warnings as errors, as pytest does
step "reproduce the reference tables"
python -W error -m divdiff.cli reproduce all

step "demos against demos/expected"
for demo in demos/*.py; do
  name=$(basename "$demo" .py)
  python -W error "$demo" > "$tmp/$name.txt"
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
