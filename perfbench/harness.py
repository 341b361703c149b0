"""Closed-loop op runner, host-speed probes, statistics, set-up timing, output.

One caller, one thread: each op starts only after the previous one has
returned and been checked.  Only the library call sits inside an op's
timer; input generation, reference computation and checking run outside
it.

Shared hosts switch, for seconds at a time, between an uncontended speed
and ones up to twice as slow, so plain wall times of one run differ from
the next by 20 % and more.  The ledger therefore runs a fixed piece of
pure-Python work, the probe, at least every ``PROBE_EVERY_S`` and files
each op between the probes before and after it.  Every reported time is
host-normalized: the op's wall time times ``NOMINAL_PROBE_S`` over the
mean of its two probes, i.e. the time it would take on a host where the
probe takes exactly ``NOMINAL_PROBE_S``.  The probe shares nothing with
the library, so a change to the library moves the normalized times as it
moves the wall times; the record keeps the plain wall-time figures too.

Work that starts a Python process -- a ``divdiff`` command, a fresh
``import divdiff`` -- tracks the in-process probe poorly (correlation
about 0.4 on a shared 2-core host), so it is normalized the same way
against a process probe instead: the wall time of a fresh interpreter
importing a fixed set of standard-library modules (correlation about
0.85), with ``NOMINAL_PROCESS_PROBE_S`` as its nominal time.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from time import perf_counter, perf_counter_ns

PROBE_EVERY_S = 0.025
NOMINAL_PROBE_S = 1e-3
NOMINAL_PROCESS_PROBE_S = 0.1
IMPORT_RUNS = 9
PROCESS_TIMEOUT_S = 60

_PROCESS_PROBE = [sys.executable, "-c", "import argparse, csv, dataclasses, "
                  "decimal, fractions, json"]

# Environment for every Python process the benchmark starts: numpy's import
# otherwise starts a BLAS thread per core, which puts a second thread's load
# on the host and doubles the spread of command times on a 2-core host.
ONE_THREAD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                      OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

_IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                   "t = time.perf_counter(); import divdiff; "
                   "print(time.perf_counter() - t)")


def probe_ns():
    """Wall time of a fixed piece of pure-Python work: integer, float-list
    and Fraction arithmetic, like the library's (about a millisecond)."""
    t0 = perf_counter_ns()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(1, k)
    xs = [k * 0.5 for k in range(1500)]
    total = 0
    for k in range(6000):
        total += k * k
    total += sum(v * v for v in xs)
    return perf_counter_ns() - t0


def process_probe_ns():
    """Wall time of a fresh interpreter that imports a fixed set of
    standard-library modules, start to exit (about 0.1 s)."""
    t0 = perf_counter_ns()
    subprocess.run(_PROCESS_PROBE, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, env=ONE_THREAD_ENV,
                   timeout=PROCESS_TIMEOUT_S, check=True)
    return perf_counter_ns() - t0


class Ledger:
    """Attempted and failed counts of one measured phase, the first failure
    note of each failed op kind, and one latency summary per block.

    A workload closes a block (``end_block``) after a fixed share of its op
    mix -- one pass, or a fixed number of windows or requests -- so every
    block holds the same mix.  The end-to-end times are medians over the
    blocks, so a few seconds of a busy host move one block, not the run.
    Per-op latencies are kept only until their block closes, which keeps
    the benchmark's own memory flat however many ops a run gets through.
    Ops after the last closed block count in ``attempted`` and ``failed``
    but in no block.  With ``process_probe`` the ops are processes: the
    ledger runs the process probe before every op instead of the
    in-process one at most every PROBE_EVERY_S.
    """

    def __init__(self, tail_pct=99.0, process_probe=False):
        self.tail_pct = tail_pct
        if process_probe:
            self._probe_fn, self._every = process_probe_ns, 0.0
            self._nominal = NOMINAL_PROCESS_PROBE_S
        else:
            self._probe_fn, self._every = probe_ns, PROBE_EVERY_S
            self._nominal = NOMINAL_PROBE_S
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # kind -> count
        self.notes = {}     # kind -> first failure note
        self.blocks = []    # one Block per closed block
        self.probes_ns = array("q")  # every probe of the phase
        self._lat = array("q")       # wall ns of each op of the open block
        self._slot = array("l")      # index into _probes of the probe before it
        self._probes = array("q")    # probes since the open block began
        self._failed = 0             # failed ops of the open block
        self._next_probe = 0.0

    def _probe(self):
        t = self._probe_fn()
        self._probes.append(t)
        self.probes_ns.append(t)
        self._next_probe = perf_counter() + self._every

    def run(self, kind, call, check):
        """Time ``call()``, then check its result outside the timer.

        Returns the result, or None when the op failed.
        """
        if perf_counter() >= self._next_probe:
            self._probe()
        self.attempted += 1
        note = None
        t0 = perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a failed op is recorded, not fatal
            t1 = perf_counter_ns()
            note = f"{type(exc).__name__}: {exc}"[:160]
        else:
            t1 = perf_counter_ns()
            if not check(result):
                note = f"wrong result {result!r}"[:160]
                result = None
        self._lat.append(t1 - t0)
        self._slot.append(len(self._probes) - 1)
        if note is not None:
            self.failed += 1
            self._failed += 1
            self.failures[kind] = self.failures.get(kind, 0) + 1
            self.notes.setdefault(kind, note)
            return None
        return result

    def end_block(self):
        """Close the open block: probe once more, so every op of the block
        sits between two probes, and keep only its summary."""
        if not self._lat:
            return
        self._probe()
        probes = self._probes
        scale = [self._nominal * 2 / (a + b) for a, b in zip(probes, probes[1:])]
        norm = sorted(t * scale[s] for t, s in zip(self._lat, self._slot))
        wall = sorted(t / 1e9 for t in self._lat)
        ops = len(norm)
        self.blocks.append(Block(
            ops, ops - self._failed, sum(norm), percentile(norm, 50),
            percentile(norm, self.tail_pct), sum(wall), percentile(wall, 50),
            percentile(wall, self.tail_pct)))
        self._lat = array("q")
        self._slot = array("l")
        self._probes = array("q", probes[-1:])
        self._failed = 0

    def closed_blocks(self):
        """The closed blocks; a phase too short to close one gets its open
        ops as its only block."""
        if not self.blocks:
            self.end_block()
        return self.blocks

    def rate(self):
        """Correct ops per host-normalized second over the closed blocks."""
        blocks = self.closed_blocks()
        return sum(b.correct for b in blocks) / sum(b.norm_s for b in blocks)


Block = namedtuple("Block", "ops correct norm_s norm_p50_s norm_tail_s "
                            "wall_s wall_p50_s wall_tail_s")


def close(ref, tol):
    """Check: a number within ``tol`` of ``ref``."""
    return lambda got: abs(got - ref) <= tol


def percentile(ordered, pct):
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(ledger, setup_s, peak_rss_kb):
    """The six end-to-end metrics of one untraced phase.

    Throughput and latencies are medians over the phase's blocks.  The
    tail percentile is fixed per workload: the highest one that keeps at
    least ten samples beyond it in every block and stays steady from run
    to run.
    """
    blocks = ledger.closed_blocks()
    pct = ledger.tail_pct

    def med(values):
        return statistics.median(list(values))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (med(b.correct / b.norm_s for b in blocks), "1/s"),
        "op_p50_ms": (med(b.norm_p50_s for b in blocks) * 1e3, "ms"),
        "op_tail_ms": (med(b.norm_tail_s for b in blocks) * 1e3, "ms"),
        "correct_share": ((ledger.attempted - ledger.failed) / ledger.attempted,
                          "share"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    probes = sorted(ledger.probes_ns)
    info = {"tail_percentile": pct, "samples": ledger.attempted,
            "blocks": len(blocks),
            "ops_per_block": sorted({b.ops for b in blocks}),
            "samples_beyond_tail_per_block": min(
                b.ops - math.ceil(pct / 100.0 * b.ops) for b in blocks),
            "busy_s": round(sum(b.wall_s for b in blocks), 4),
            "wall_ops_per_s": med(b.correct / b.wall_s for b in blocks),
            "wall_op_p50_ms": med(b.wall_p50_s for b in blocks) * 1e3,
            "wall_op_tail_ms": med(b.wall_tail_s for b in blocks) * 1e3,
            "probe_ms_p5_p50_p95": [
                round(percentile(probes, p) / 1e6, 4) for p in (5, 50, 95)],
            "fail_share": ledger.failed / ledger.attempted}
    return metrics, info


def self_peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def import_times(src):
    """Seconds to ``import divdiff`` in IMPORT_RUNS fresh interpreters:
    (host-normalized, wall).  Each run sits between two process probes."""
    wall, probes = [], [process_probe_ns()]
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, src],
                              capture_output=True, text=True, env=ONE_THREAD_ENV,
                              timeout=PROCESS_TIMEOUT_S, check=True)
        wall.append(float(proc.stdout))
        probes.append(process_probe_ns())
    norm = [t * NOMINAL_PROCESS_PROBE_S * 2e9 / (a + b)
            for t, a, b in zip(wall, probes, probes[1:])]
    return norm, wall


def numpy_import_s(src, runs=3):
    """Median host-normalized cumulative numpy import time, as
    ``-X importtime`` reports it while importing divdiff."""
    code = f"import sys; sys.path.insert(0, {src!r}); import divdiff"
    found = []
    before = process_probe_ns()
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, env=ONE_THREAD_ENV,
                              timeout=PROCESS_TIMEOUT_S, check=True)
        after = process_probe_ns()
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$", line)
            if m and m.group(2).strip() == "numpy":
                found.append(int(m.group(1)) * 1e3 * NOMINAL_PROCESS_PROBE_S * 2
                             / (before + after))
        before = after
    return statistics.median(found) if found else 0.0


def run_for(seconds, step):
    """Call ``step()`` until ``seconds`` of wall time have passed."""
    end = perf_counter() + seconds
    while perf_counter() < end:
        step()


def emit(correct, attempted, failed, metrics, record):
    """Print the metrics by name and unit, the record, then the result line."""
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print("record: " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
