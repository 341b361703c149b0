#!/usr/bin/env python3
"""divdiff benchmark: four seeded workloads against the library and its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scatter-reuse --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the per-layer metrics: it runs the workload for half
the time untraced and half traced, with the library's caches cleared
before each half, and reports the tracing overhead from the two.  Either
way the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, ``record:``,
says what the workload ran, its measured properties and every failed op
kind.  After the timed work, each run checks once, untimed, the ops of the
seed defects its workload lists (``known_defects``); their results go to
the record (``defect_check``), not into ``attempted`` or ``failed``, which
count only the timed ops.  All load comes from this one process and
thread, in a closed loop with one caller; the ``cli`` workload runs one
command process at a time.  End-to-end times are host-normalized against
a probe and are medians over blocks of the op mix (see ``harness``);
per-layer times are plain wall times of the traced half.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("scatter-reuse", "window-stream", "grid-weights", "cli")
PER_LAYER_ORDER = (
    "import.s", "import.numpy_s", "samples.self_s", "samples.sets",
    "tables.self_s", "tables.calls", "tables.builds_per_point",
    "interpolate.self_s", "interpolate.us_per_point.n8",
    "interpolate.us_per_point.n32", "interpolate.us_per_point.n128",
    "interpolate.ref_ops_per_point", "derivatives.self_s",
    "derivatives.recursive_us.n8", "derivatives.recursive_us.n32",
    "derivatives.recursive_us.n128", "derivatives.coeff_gen_s",
    "derivatives.coeff_gens_per_request", "derivatives.ref_ops_per_eval",
    "quadrature.self_s", "quadrature.rule_gen_s", "quadrature.rule_hit_ratio",
    "quadrature.apply_s", "quadrature.panels_per_s", "quadrature.uneven_us",
    "dataio.self_s", "dataio.rows", "cli.self_s", "repro.self_s",
    "repro.cases", "oracle.self_s", "trace.overhead_share")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def make_workload(name, seed, workdir):
    import workloads
    if name == "scatter-reuse":
        return workloads.ScatterReuse(seed)
    if name == "window-stream":
        return workloads.WindowStream(seed)
    if name == "grid-weights":
        return workloads.GridWeights(seed)
    from cli_workload import CliWorkload
    return CliWorkload(seed, ROOT, workdir)


def op_tallies(workload):
    """OpTally counts of one interpolate_general / derivative_uneven call per
    shape, weighted by how often the workload runs that shape; each count
    must equal the closed-form count_ops / diff_op_counts."""
    import divdiff as dd
    inputs = workload.tally_inputs()
    mismatches = []

    def weighted(kind, run, expected):
        total = weight = 0
        for shape, count in sorted(workload.shapes[kind].items()):
            samples = inputs[shape[0]]
            x = (samples.nodes[0] + samples.nodes[1]) / 2
            tally = dd.OpTally()
            run(samples, shape[1], x, tally)
            got = tally.snapshot()
            if got != expected(*shape):
                mismatches.append(f"{kind} n={shape[0]}: {got} != {expected(*shape)}")
            total += count * got.total()
            weight += count
        return total / weight if weight else 0.0

    def interp_expected(n, r):
        c = dd.count_ops(n, r)
        if r < n:
            return c
        # documented in count_ops: at r = n the Newton path costs one more
        # multiplication and one fewer division than the closed form
        return dd.OpCounts(c.additions, c.subtractions, c.multiplications + 1,
                           c.divisions - 1)

    interp = weighted(
        "interpolate",
        lambda s, r, x, t: dd.interpolate_general(s, r, x, tally=t),
        interp_expected)
    deriv = weighted(
        "derivative",
        lambda s, k, x, t: dd.derivative_uneven(s, x, k, tally=t),
        dd.diff_op_counts)
    return interp, deriv, mismatches


def check_defects(workload, record):
    """Run the workload's known-defect ops once and record how they fare."""
    import harness
    ledger = harness.Ledger()
    check = getattr(workload, "check_defects", None)
    if check:
        check(ledger)
    record["defect_check"] = {
        "attempted": ledger.attempted, "failed": ledger.failed,
        "fail_share": ledger.failed / ledger.attempted if ledger.attempted else 0.0,
        "failures_by_kind": ledger.failures,
        "first_failure_by_kind": ledger.notes}


def traced_run(args, workload, ledgers, record):
    import harness
    import tracing
    caches = tracing.lru_caches()
    in_process = {"in_process": True} if args.workload == "cli" else {}
    half = args.seconds / 2

    for cache in caches.values():
        cache.cache_clear()
    plain = harness.Ledger(workload.TAIL_PCT)
    workload.phase(plain, half, **in_process)

    for cache in caches.values():
        cache.cache_clear()
    traced = harness.Ledger(workload.TAIL_PCT)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.phase(traced, half, **in_process)
        # traced too, so the layers of the defect-only ops (quad_uneven,
        # derivative_uneven at n = 32, 128) have spans
        check_defects(workload, record)
    finally:
        tracer.uninstall()
    ledgers += [plain, traced]

    metrics = tracing.layer_metrics(tracer.spans)
    rules = [caches[k].cache_info() for k in
             ("quadrature.even_quad_weights", "quadrature.central_quad_weights")]
    lookups = sum(c.hits + c.misses for c in rules)
    metrics["quadrature.rule_hit_ratio"] = (
        sum(c.hits for c in rules) / lookups if lookups else 0.0, "share")
    metrics["trace.overhead_share"] = (1.0 - traced.rate() / plain.rate(),
                                       "share")
    record["spans"] = len(tracer.spans)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump({"fields": ["layer", "name", "start_ns", "end_ns", "parent",
                              "tag"], "spans": tracer.spans}, fh)
    record["spans_file"] = os.path.relpath(path, ROOT)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divdiff", "__init__.py")):
        print(f"error: no divdiff package under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import refs

    imports, wall_imports = harness.import_times(SRC)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        golden_mismatch = refs.check_against_golden()
        record = {"workload": args.workload, "seed": args.seed,
                  "why": workload.why, "known_defects": workload.KNOWN_DEFECTS,
                  "import_s_runs": [round(v, 5) for v in imports],
                  "import_s_wall_runs": [round(v, 5) for v in wall_imports]}
        ledgers = []
        if args.trace:
            metrics = {"import.s": (statistics.median(imports), "s"),
                       "import.numpy_s": (harness.numpy_import_s(SRC), "s")}
            interp_ops, deriv_ops, tally_mismatch = op_tallies(workload)
            metrics["interpolate.ref_ops_per_point"] = (interp_ops, "count")
            metrics["derivatives.ref_ops_per_eval"] = (deriv_ops, "count")
            record["op_tally_mismatches"] = tally_mismatch
            metrics.update(traced_run(args, workload, ledgers, record))
            metrics = {k: metrics[k] for k in PER_LAYER_ORDER}
        else:
            tally_mismatch = []
            # cli commands are processes: normalize them by the process probe
            ledger = harness.Ledger(workload.TAIL_PCT,
                                    process_probe=args.workload == "cli")
            workload.phase(ledger, args.seconds)
            ledgers.append(ledger)
            peak = getattr(workload, "peak_rss_kb", None) or harness.self_peak_rss_kb()
            metrics, info = harness.end_to_end(
                ledger, statistics.median(imports), peak)
            record.update(info)
            check_defects(workload, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = {}
    failures = {}
    for ledger in ledgers:
        notes.update(ledger.notes)
        for kind, count in ledger.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    record.update(workload.record())
    record["failures_by_kind"] = failures
    record["first_failure_by_kind"] = notes
    record["golden_mismatches"] = golden_mismatch
    correct = not failures and not golden_mismatch and not tally_mismatch
    harness.emit(correct, sum(l.attempted for l in ledgers),
                 sum(l.failed for l in ledgers), metrics, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
