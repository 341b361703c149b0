"""The ``cli`` workload: a seeded list of ``divdiff`` commands.

Each command runs as ``python -m divdiff.cli`` in a fresh process with the
checkout's ``src`` on the path, one process at a time; its wall time runs
from process start to exit.  Inputs are CSV files written under the
benchmark's own ``out`` directory.  Every exit code and every printed value
is checked against a reference computed here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

import divdiff as dd

import harness
import refs

PRINT_REL = 6e-12  # values are printed with %.12g
COMMAND_TIMEOUT_S = 120


def _printed_close(ref, tol):
    return lambda got: abs(got - ref) <= tol + PRINT_REL * max(abs(got), abs(ref))


def _explicit_dd(xs, fs):
    """f[x_0..x_k] as sum_j f_j / prod_{l!=j}(x_j - x_l), exactly."""
    total = Fraction(0)
    for j, (xj, fj) in enumerate(zip(xs, fs)):
        den = Fraction(1)
        for l, xl in enumerate(xs):
            if l != j:
                den *= xj - xl
        total += fj / den
    return total


def accuracy_order(offsets, weights, t):
    """Order p of f^(t)(a) ~ sum c_i f(a + o_i h) / h^t, from the first
    non-vanishing moment beyond t."""
    j = t + 1
    while sum(c * Fraction(o) ** j for c, o in zip(weights, offsets)) == 0:
        j += 1
    return j - t


def _value_line(out):
    m = re.search(r"^value: (\S+)$", out, re.M)
    return float(m.group(1))


def _rows(out):
    lines = out.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


class Command:
    __slots__ = ("label", "argv", "check")

    def __init__(self, label, argv, check):
        self.label, self.argv, self.check = label, argv, check


class CliWorkload:
    name = "cli"
    why = ("Wall time of a divdiff command from process start to exit, which "
           "import dominates; the only workload that runs dataio, cli and "
           "repro.")
    # quad on scattered nodes and diff --method recursive run the
    # quad_uneven and derivative_uneven paths, whose known errors (about
    # 1e-13 relative at n = 8, mid-gap) sit below the 12 printed digits:
    # none of their checks failed on seeds 1-100
    KNOWN_DEFECTS = ()
    TAIL_PCT = 80.0
    N_SCATTER = 8
    N_SMALL = 5
    PANELS = 10_000

    def __init__(self, seed, root, workdir):
        self.rng = rng = random.Random(seed)
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.shapes = {"interpolate": {}, "derivative": {}}
        self.peak_rss_kb = 0
        os.makedirs(workdir, exist_ok=True)
        scatter = self._data_file(rng, "scatter.csv", self.N_SCATTER, 0.0, 2.0,
                                  math.exp)
        small = self._data_file(rng, "small.csv", self.N_SMALL, 0.0, 1.0,
                                lambda x: math.cos(3 * x))
        self.scatter = scatter
        self.commands = [
            self._table(scatter), self._interp(scatter, "plain"),
            self._interp(scatter, "barycentric"),
            self._interp(scatter, "rational"),
            self._interp(scatter, "reference"), self._diff_grid(),
            self._diff_recursive(scatter), self._diff_lincomb(small),
            self._quad_panels(), self._quad_grid(), self._quad_scattered(small),
            self._stencil(),
            Command("reproduce all", ["reproduce", "all"],
                    lambda out: out.strip().splitlines()[-1]
                    == "178/178 cases passed"),
        ]
        rng.shuffle(self.commands)

    # -- inputs -------------------------------------------------------------

    def _data_file(self, rng, name, n, lo, hi, fn):
        """Rows of decimal strings, written shuffled, kept sorted here."""
        xs = set()
        while len(xs) < n + 1:
            xs.add(f"{rng.uniform(lo, hi):.6f}")
        rows = [(x, "%.17g" % fn(float(x))) for x in xs]
        rng.shuffle(rows)
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# seeded benchmark input\nx,y\n")
            fh.writelines(f"{x},{y}\n" for x, y in rows)
        rows.sort(key=lambda r: float(r[0]))
        return {"path": path,
                "xs": [float(x) for x, _ in rows], "fs": [float(y) for _, y in rows],
                "qx": [Fraction(x) for x, _ in rows],
                "qf": [Fraction(y) for _, y in rows]}

    def _mid_gap_points(self, data, count, decimals=None):
        xs = data["xs"]
        out = []
        for _ in range(count):
            i = self.rng.randrange(len(xs) - 1)
            x = xs[i] + (xs[i + 1] - xs[i]) * self.rng.uniform(0.25, 0.75)
            out.append(f"{x:.{decimals}f}" if decimals else repr(x))
        return out

    def tally_inputs(self):
        return {self.N_SCATTER: dd.SampleSet(self.scatter["xs"],
                                             self.scatter["fs"])}

    def _count(self, kind, shape):
        bucket = self.shapes[kind]
        bucket[shape] = bucket.get(shape, 0) + 1

    # -- commands -----------------------------------------------------------

    def _table(self, data):
        r = self.rng.randint(1, self.N_SCATTER)
        qx, qf = data["qx"], data["qf"]
        want = [qf] + [[_explicit_dd(qx[:i] + [qx[i + j]], qf[:i] + [qf[i + j]])
                        for j in range(len(qx) - i)] for i in range(1, r + 1)]

        def check(out):
            got = json.loads(out)
            return (got["scheme"] == "new" and got["r"] == r
                    and [[Fraction(v) for v in col] for col in got["columns"]]
                    == want)
        return Command("table --scheme new --json --rational",
                       ["table", data["path"], "--scheme", "new", "-r", str(r),
                        "--json", "--rational"], check)

    def _interp(self, data, mode):
        n = self.N_SCATTER
        r = n if mode == "reference" else self.rng.randint(0, n)
        xs, fs = data["xs"], data["fs"]
        pts = self._mid_gap_points(data, 4, decimals=4 if mode == "rational" else None)
        argv = ["interp", data["path"], "-r", str(r), "-x", ",".join(pts)]
        if mode == "rational":
            want = [dd.oracle_interpolate(refs.Points(data["qx"], data["qf"]),
                                          Fraction(p)) for p in pts]

            def check(out):
                return [Fraction(row[1]) for row in _rows(out)] == want
            argv.append("--rational")
        else:
            checks = [_printed_close(*refs.interp_ref(xs, fs, float(p))) for p in pts]
            exps = [math.exp(float(p)) for p in pts]

            def check(out):
                rows = _rows(out)
                if len(rows) != len(pts):
                    return False
                for row, value_ok, e in zip(rows, checks, exps):
                    v = float(row[1])
                    if not value_ok(v):
                        return False
                    if mode == "reference":
                        err = float(row[2])
                        if abs(err - (v - e)) > PRINT_REL * (abs(v) + abs(err)) \
                                + 2 * refs.U * e:
                            return False
                return True
            if mode == "barycentric":
                argv.append("--barycentric")
            if mode == "reference":
                argv += ["--reference", "exp"]
        if mode != "barycentric":
            self._count("interpolate", (n, r))
        return Command(f"interp {mode}", argv, check)

    def _diff_grid(self):
        rng = self.rng
        t = rng.randint(1, 3)
        m = rng.randint(0, 4)
        n = rng.randint(max(0, t - m), 4)
        a, h = f"{rng.uniform(-1, 1):.4f}", f"{rng.uniform(0.05, 0.2):.4f}"
        af, hf = float(a), float(h)
        offsets = list(range(-m, n + 1))
        w = refs.grid_derivative_weights(offsets, t)[t]
        vals = [math.exp(af + i * hf) for i in offsets]
        ref = sum(float(c) * v for c, v in zip(w, vals)) / hf ** t
        tol = refs.gamma(m + n) * sum(abs(float(c) * v)
                                      for c, v in zip(w, vals)) / hf ** t
        value_ok = _printed_close(ref, tol)
        order = accuracy_order(offsets, w, t)

        def check(out):
            st = re.search(r"^stencil: 1/\((\d+)\*h\^\d+\) \* \[([^\]]*)\] "
                           r"on offsets \[([^\]]*)\]$", out, re.M)
            den = int(st.group(1))
            nums = [int(v) for v in st.group(2).split(",")]
            return (value_ok(_value_line(out))
                    and [Fraction(v, den) for v in nums] == list(w)
                    and f"accuracy-order: {order}" in out)
        return Command("diff --grid",
                       ["diff", f"--grid={a},{h},{m},{n}", "--func", "exp",
                        "-t", str(t)], check)

    def _diff_recursive(self, data):
        t = 2
        n = self.N_SCATTER
        x = self._mid_gap_points(data, 1)[0]
        value_ok = _printed_close(*refs.derivative_ref(data["xs"], data["fs"],
                                                       float(x), t))
        c = dd.diff_op_counts(n, t)
        counts = (f"op-counts: add={c.additions} sub={c.subtractions} "
                  f"mul={c.multiplications} div={c.divisions}")
        self._count("derivative", (n, t))
        return Command("diff recursive --opcount",
                       ["diff", data["path"], "-t", str(t), "--at", x,
                        "--opcount"],
                       lambda out: value_ok(_value_line(out)) and counts in out)

    def _diff_lincomb(self, data):
        x = self._mid_gap_points(data, 1)[0]
        value_ok = _printed_close(*refs.derivative_ref(data["xs"], data["fs"],
                                                       float(x), 1))
        return Command("diff lincomb",
                       ["diff", data["path"], "-t", "1", "--at", x,
                        "--method", "lincomb"],
                       lambda out: value_ok(_value_line(out)))

    def _quad_panels(self):
        b = f"{self.rng.uniform(1.0, 3.0):.6f}"
        bf = float(b)
        h = bf / self.PANELS / 2
        truncation = bf / 180 * h ** 4
        # Simpson weights sum to 2 over two steps: kappa = b * max|sin|
        tol = truncation + 2 * (3 * 2 + 4 + self.PANELS) * refs.U * bf
        value_ok = _printed_close(1.0 - math.cos(bf), tol)
        return Command("quad --panels",
                       ["quad", "--panels", str(self.PANELS), "--func", "sin",
                        "--interval", f"0,{b}"],
                       lambda out: value_ok(_value_line(out)))

    def _quad_grid(self):
        n = self.rng.randint(1, 8)
        a, h = f"{self.rng.uniform(-1, 1):.4f}", f"{self.rng.uniform(0.05, 0.3):.4f}"
        af, hf = float(a), float(h)
        w = refs.grid_quad_weights(range(n + 1), 0, n)
        vals = [math.exp(af + i * hf) for i in range(n + 1)]
        ref = hf * sum(float(c) * v for c, v in zip(w, vals))
        tol = refs.gamma(n) * hf * sum(abs(float(c) * v) for c, v in zip(w, vals))
        value_ok = _printed_close(ref, tol)

        def check(out):
            m = re.search(r"^weights: h/(\d+) \* \(([^)]*)\)$", out, re.M)
            den = int(m.group(1))
            nums = [int(v) for v in m.group(2).split(",")]
            return (value_ok(_value_line(out))
                    and [Fraction(v, den) for v in nums] == list(w))
        return Command("quad --grid",
                       ["quad", f"--grid={a},{h},0,{n}", "--func", "exp"],
                       check)

    def _quad_scattered(self, data):
        x = self._mid_gap_points(data, 1)[0]
        xs = data["xs"]
        step = min(b - a for a, b in zip(xs, xs[1:])) / 4
        s = repr(step)
        value_ok = _printed_close(*refs.step_integral_ref(xs, data["fs"],
                                                          float(x), float(s)))
        return Command("quad scattered",
                       ["quad", data["path"], "--at", x, "--step", s],
                       lambda out: value_ok(_value_line(out)))

    def _stencil(self):
        rng = self.rng
        t = rng.randint(1, 4)
        m = rng.randint(0, 6)
        n = rng.randint(max(0, t - m), 6)
        offsets = list(range(-m, n + 1))
        w = refs.grid_derivative_weights(offsets, t)[t]
        order = accuracy_order(offsets, w, t)

        def check(out):
            got = json.loads(out)
            return (got["offsets"] == offsets and got["t"] == t
                    and got["order"] == order
                    and [Fraction(v, got["den"]) for v in got["num"]] == list(w))
        return Command("stencil --json",
                       ["stencil", "-m", str(m), "-n", str(n), "-t", str(t),
                        "--json"], check)

    # -- running --------------------------------------------------------------

    def _checked(self, cmd):
        def check(result):
            code, out = result
            try:
                return code == 0 and bool(cmd.check(out))
            except (ValueError, AttributeError, KeyError, IndexError, TypeError):
                return False  # output not in the expected shape
        return check

    def _subprocess(self, cmd):
        """Run one command in a fresh interpreter; (exit code, stdout)."""
        env = dict(harness.ONE_THREAD_ENV)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "w+", encoding="utf-8") as out, \
                open(os.devnull, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-m", "divdiff.cli", *cmd.argv],
                                    stdout=out, stderr=err, env=env)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            return proc.returncode, out.read()

    @staticmethod
    def _in_process(cmd):
        """Run one command through ``cli.main`` in this process."""
        from divdiff import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def phase(self, ledger, seconds, in_process=False):
        """Rounds over the command list until ``seconds`` have passed; the
        whole phase is one block (about 50 commands a run)."""
        run = self._in_process if in_process else self._subprocess
        end = perf_counter() + seconds
        while perf_counter() < end:
            for cmd in self.commands:
                ledger.run(cmd.label, lambda cmd=cmd: run(cmd), self._checked(cmd))
                if perf_counter() >= end:
                    break
        ledger.end_block()

    def record(self):
        return {"commands": [" ".join(["divdiff", *c.argv]).replace(
                    self.workdir + os.sep, "") for c in self.commands],
                "runner": "python -m divdiff.cli, src on PYTHONPATH, one "
                          "process at a time",
                "inputs": f"scatter.csv (n={self.N_SCATTER}, f = exp), "
                          f"small.csv (n={self.N_SMALL}, f = cos 3x)"}
