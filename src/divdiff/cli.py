"""Command-line interface.

Subcommands: ``table``, ``interp``, ``diff``, ``quad``, ``stencil``,
``reproduce``.  Exit codes: 0 success, 1 failed reproduction case,
2 usage, parse or input error, including non-finite numbers, a zero step,
arithmetic that overflows or divides by zero, and a computed value that is
inf or nan (reported before any result line).  ``--rational`` parses the
input decimals as exact fractions and keeps all arithmetic exact where the
operation supports it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import derivatives, interpolate, quadrature, repro, tables
from .counting import OpTally
from .dataio import ParseError, read_data
from .oracle import table5_function
from .samples import GridSpec, SampleSet, uniform_step

_FUNCS = {"table5": table5_function, "sin": math.sin, "cos": math.cos,
          "exp": math.exp}


def _fmt(v):
    if isinstance(v, Fraction):
        return str(v)
    return "%.12g" % v


def _load_samples(args) -> SampleSet:
    if not getattr(args, "input", None):
        raise ValueError("need an input CSV file (or a --grid specification)")
    data = read_data(args.input, rational=args.rational)
    return data.to_sample_set()


def _parse_number(text, rational, what):
    """One number from the command line; inf and nan are rejected."""
    try:
        v = Fraction(text) if rational else float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be a number, got {text.strip()!r}") \
            from None
    if not rational and not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {text.strip()!r}")
    return v


def _finite(v, what):
    """``v`` itself, or ValueError naming ``what`` if it is inf or nan."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{what} is not finite ({_fmt(v)})")
    return v


def _parse_xlist(text, rational):
    xs = [_parse_number(tok, rational, "-x") for tok in text.split(",")
          if tok.strip()]
    if not xs:
        raise ValueError("-x needs at least one point")
    return xs


# ---------------------------------------------------------------------------
# subcommands

def cmd_table(args) -> int:
    samples = _load_samples(args)
    if args.scheme == "newton":
        table = tables.build_newton_table(samples)
    elif args.scheme == "new":
        table = tables.build_new_table(samples, _default_r(args.r, samples.n))
    elif args.scheme == "combined":
        table = tables.build_combined_table(samples, _default_r(args.r, samples.n))
    else:  # integer
        h = uniform_step(samples.nodes)
        if h is None:
            raise ValueError("integer scheme needs evenly spaced input")
        table = tables.build_integer_table(samples.values,
                                           _default_r(args.r, samples.n))
    if args.json:
        print(table.to_json())
    else:
        print(table.render_text())
    return 0


def _default_r(r, n):
    return n if r is None else r


def cmd_interp(args) -> int:
    samples = _load_samples(args)
    n = samples.n
    r = _default_r(args.r, n)
    xs = _parse_xlist(args.x, args.rational)
    reference = _reference_fn(args.reference)
    tail = None
    if args.tail_coeffs is not None and args.tail is None:
        raise ValueError("--tail-coeffs needs --tail, the degree of the tail")
    if args.tail is not None:
        if args.tail < 0:
            raise ValueError(f"--tail must be >= 0, got {args.tail}")
        if args.tail_coeffs is not None:
            coeffs = [_parse_number(c, args.rational, "--tail-coeffs")
                      for c in args.tail_coeffs.split(",")]
            if len(coeffs) != args.tail + 1:
                raise ValueError(f"--tail {args.tail} needs {args.tail + 1} "
                                 f"--tail-coeffs, got {len(coeffs)}")
            tail = interpolate.TailModel(tuple(coeffs), r, basis="x")
        else:
            tail = interpolate.fit_tail(samples, r, args.tail)
    variant_setup = None
    if args.variant:
        h = uniform_step(samples.nodes)
        if h is None:
            raise ValueError("--variant needs evenly spaced input")
        centre = n // 2
        n_right = n - centre
        rc = args.r if args.r is not None else \
            min(centre, n_right - (1 if args.variant == "bessel" else 0))
        variant_setup = (h, centre, rc)
    gap = (samples.nodes[-1] - samples.nodes[0]) / max(n, 1)
    rows = []
    for x in xs:
        if x < samples.nodes[0] - gap or x > samples.nodes[-1] + gap:
            print(f"warning: x={_fmt(x)} is outside the extended node hull",
                  file=sys.stderr)
        if variant_setup is not None:
            h, centre, rc = variant_setup
            s = (x - samples.nodes[centre]) / h
            val = interpolate.interpolate_central(samples.values, centre, rc,
                                                  s, args.variant)
        elif tail is not None:
            val = interpolate.interpolate_with_tail(samples, r, tail, x)
        elif args.barycentric:
            val = interpolate.interpolate_barycentric(samples, r, x)
        else:
            val = interpolate.interpolate_general(samples, r, x)
        row = [x, _finite(val, f"interpolant at x={_fmt(x)}")]
        if reference:
            row.append(_finite(val - reference(float(x)),
                               f"error at x={_fmt(x)}"))
        rows.append(",".join(_fmt(v) for v in row))
    print("x,value" + (",error" if reference else ""))
    for row in rows:
        print(row)
    return 0


def _reference_fn(name):
    if not name:
        return None
    if name in _FUNCS:
        fn = _FUNCS[name]
    else:
        data = read_data(name)
        fn = dict(zip(data.xs, data.ys)).__getitem__

    def reference(x):
        try:
            return fn(x)
        except KeyError:
            raise ValueError(f"reference file has no value at x={x}")
        except OverflowError:
            raise ValueError(f"reference {name} overflows at x={_fmt(x)}")
    return reference


def _grid_count(text, what):
    if not text.isdecimal():
        raise ValueError(f"{what} must be a nonnegative integer, got {text!r}")
    return int(text)


def _grid_samples(spec_text, func_name, rational):
    parts = [s.strip() for s in spec_text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--grid needs four values a,h,m,n, got {spec_text!r}")
    a = _parse_number(parts[0], rational, "--grid origin a")
    h = _parse_number(parts[1], rational, "--grid step h")
    if h == 0:
        raise ValueError("--grid step h must be nonzero")
    grid = GridSpec(a, h, forward_count=_grid_count(parts[3], "--grid n"),
                    backward_count=_grid_count(parts[2], "--grid m"))
    name = func_name or "table5"
    fn = _FUNCS[name]
    values = []
    for k, x in zip(grid.offsets(), grid.nodes()):
        node = "--grid node " + (f"a{k:+d}*h" if k else "a")
        try:
            x = float(x)
        except OverflowError:  # an exact node beyond the float range
            x = math.inf
        if not math.isfinite(x):
            raise ValueError(f"{node} is beyond the float range")
        try:
            values.append(fn(x))
        except OverflowError:
            raise ValueError(f"--func {name} overflows at {node}, "
                             f"x={_fmt(x)}") from None
    return grid.origin, grid.step, grid.backward_count, grid.forward_count, values


def cmd_diff(args) -> int:
    t = args.order
    if args.grid:
        a, h, m, n, values = _grid_samples(args.grid, args.func, args.rational)
        value = _finite(derivatives.twosided_derivative(values, h, t, m),
                        f"derivative at x={_fmt(a)}")
        st = derivatives.stencil_weights(m, n, t)
        print(f"value: {_fmt(value)}")
        print(f"method: grid (m={m}, n={n})")
        print(f"accuracy-order: {st.accuracy_order}")
        num, den = st.common_denominator()
        print(f"stencil: 1/({den}*h^{t}) * {num} on offsets {list(st.offsets)}")
        return 0

    if args.at is None:
        raise ValueError("need --at (or a --grid specification)")
    if args.method == "series":
        fn = _FUNCS[args.func or "table5"]
        a = _parse_number(args.at, False, "--at")
        value = _finite(derivatives.series_derivative(fn, a, args.step, t,
                                                      args.terms),
                        f"derivative at x={_fmt(a)}")
        print(f"value: {_fmt(value)}")
        print(f"method: series (terms={args.terms}, h={args.step})")
        print("accuracy-order: conditional (alternating series)")
        return 0

    samples = _load_samples(args)
    x = _parse_number(args.at, args.rational, "--at")
    method = args.method
    what = f"derivative at x={_fmt(x)}"
    at_node = any(x == xi for xi in samples.nodes)
    if method == "recursive" and at_node:
        h = uniform_step(samples.nodes)
        if h is not None:
            m = samples.nodes.index(x)
            value = _finite(
                derivatives.twosided_derivative(samples.values, h, t, m), what)
            print(f"value: {_fmt(value)}")
            print(f"method: grid (rerouted from recursive; x is node {m})")
            print("accuracy-order: "
                  f"{derivatives.stencil_weights(m, samples.n - m, t).accuracy_order}")
            return 0
        method = "lincomb"
        print("note: x is a node; rerouted to lincomb", file=sys.stderr)
    if method == "recursive":
        tally = OpTally() if args.opcount else None
        value = _finite(derivatives.derivative_uneven(samples, x, t,
                                                      tally=tally), what)
        print(f"value: {_fmt(value)}")
        print(f"method: recursive (n={samples.n})")
        print(f"accuracy-order: {samples.n + 1 - t}")
        if tally:
            c = tally.snapshot()
            print(f"op-counts: add={c.additions} sub={c.subtractions} "
                  f"mul={c.multiplications} div={c.divisions}")
    else:  # lincomb
        if at_node:
            idx = samples.nodes.index(x)
            rest = [i for i in range(samples.n + 1) if i != idx]
            value = derivatives.derivative_lincomb(
                samples.subset(rest), x, t, fx=samples.values[idx])
        else:
            value = derivatives.derivative_lincomb(samples, x, t)
        _finite(value, what)
        print(f"value: {_fmt(value)}")
        print(f"method: lincomb (n={samples.n})")
        print(f"accuracy-order: {samples.n + 1 - t}")
    return 0


def cmd_quad(args) -> int:
    if args.panels is not None:
        fn = _FUNCS[args.func or "sin"]
        p, q = (_parse_number(s, False, "--interval")
                for s in args.interval.split(","))
        plan = quadrature.even_quad_weights(args.rule_n)
        value = _finite(quadrature.quad_composite(fn, p, q, args.panels, plan),
                        f"integral over [{_fmt(p)}, {_fmt(q)}]")
        print(f"value: {_fmt(value)}")
        print(f"weights: {plan.display()} per panel, {args.panels} panels")
        return 0
    if args.grid:
        a, h, m, n, values = _grid_samples(args.grid, args.func, args.rational)
        if args.central:
            if m != n:
                raise ValueError("central rule needs m == n")
            plan = quadrature.central_quad_weights(n)
            value = plan.apply(values, h)
        else:
            if m:
                raise ValueError("even rule runs forward from the anchor (m=0)")
            plan = quadrature.even_quad_weights(n)
            value = plan.apply(values, h)
        _finite(value, f"integral anchored at x={_fmt(a)}")
        print(f"value: {_fmt(value)}")
        print(f"weights: {plan.display()}")
        return 0

    samples = _load_samples(args)
    if args.at is None or args.step is None:
        raise ValueError("uneven quadrature needs --at and --step")
    x = _parse_number(args.at, args.rational, "--at")
    if args.step == "auto":
        if samples.n < 1:
            raise ValueError("--step auto needs at least 2 nodes")
        h = min(b - a for a, b in zip(samples.nodes, samples.nodes[1:]))
    else:
        h = _parse_number(args.step, args.rational, "--step")
        if h == 0:
            raise ValueError("--step must be nonzero")
    plan = quadrature.uneven_quad_plan(samples, x, h)
    what = f"at x={_fmt(x)}"
    value = _finite(plan.apply(samples.values), f"integral anchored {what}")
    for w in plan.node_weights:
        _finite(w, f"quadrature weight anchored {what}")
    print(f"value: {_fmt(value)}")
    print("weights: " + ", ".join(_fmt(w) for w in plan.node_weights))
    return 0


def cmd_stencil(args) -> int:
    st = derivatives.stencil_weights(args.m, args.n, args.order)
    if args.json:
        print(json.dumps(st.to_json_dict()))
    else:
        num, den = st.common_denominator()
        print(f"f^({st.order})(a) ~ 1/({den}*h^{st.order}) * "
              f"{num} on offsets {list(st.offsets)} "
              f"(accuracy order {st.accuracy_order})")
    return 0


def cmd_reproduce(args) -> int:
    report = repro.run_reproduction(args.which)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for line in report.format_lines():
            print(line)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rational", action="store_true",
                        help="exact fraction arithmetic where supported")
    common.add_argument("--json", action="store_true", help="JSON output")

    p = argparse.ArgumentParser(prog="divdiff",
                                description="divided-difference toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[common],
                       help="render a divided-difference table")
    t.add_argument("input", help="CSV file of x,y rows")
    t.add_argument("--scheme", choices=("newton", "new", "combined", "integer"),
                   default="newton")
    t.add_argument("-r", type=int, default=None, help="split index (default n)")
    t.set_defaults(fn=cmd_table)

    i = sub.add_parser("interp", parents=[common],
                       help="evaluate the split-form interpolant")
    i.add_argument("input")
    i.add_argument("-r", type=int, default=None)
    i.add_argument("-x", required=True, help="comma-separated evaluation points")
    evaluator = i.add_mutually_exclusive_group()
    evaluator.add_argument("--barycentric", action="store_true")
    evaluator.add_argument("--variant", choices=interpolate.CENTRAL_VARIANTS,
                           default=None,
                           help="centred difference arrangement "
                                "(even grids only)")
    evaluator.add_argument("--tail", type=int, default=None,
                           help="replace the suffix with a fitted tail of "
                                "this degree")
    i.add_argument("--tail-coeffs", default=None,
                   help="comma-separated ascending tail coefficients")
    i.add_argument("--reference", default=None,
                   help="function name or CSV file for an error column")
    i.set_defaults(fn=cmd_interp)

    d = sub.add_parser("diff", parents=[common],
                       help="numerical derivative")
    d.add_argument("input", nargs="?", help="CSV file (omit with --grid)")
    d.add_argument("--grid", default=None, help="a,h,m,n sampled from --func")
    d.add_argument("--func", default=None, choices=sorted(_FUNCS))
    d.add_argument("-t", "--order", type=int, required=True)
    d.add_argument("--at", default=None, help="evaluation point x")
    d.add_argument("--method", choices=("recursive", "lincomb", "series"),
                   default="recursive")
    d.add_argument("--step", type=float, default=0.3, help="series step h")
    d.add_argument("--terms", type=int, default=500)
    d.add_argument("--opcount", action="store_true")
    d.set_defaults(fn=cmd_diff)

    q = sub.add_parser("quad", parents=[common], help="numerical integration")
    q.add_argument("input", nargs="?")
    q.add_argument("--grid", default=None, help="a,h,m,n sampled from --func")
    q.add_argument("--func", default=None, choices=sorted(_FUNCS))
    q.add_argument("--central", action="store_true")
    q.add_argument("--panels", type=int, default=None)
    q.add_argument("--interval", default="0,3.141592653589793")
    q.add_argument("--rule-n", type=int, default=2)
    q.add_argument("--at", default=None, help="uneven anchor x")
    q.add_argument("--step", default="auto", help="uneven step h")
    q.set_defaults(fn=cmd_quad)

    s = sub.add_parser("stencil", parents=[common],
                       help="derivative stencil weights")
    s.add_argument("-m", type=int, required=True, help="points left of a")
    s.add_argument("-n", type=int, required=True, help="points right of a")
    s.add_argument("-t", "--order", type=int, required=True)
    s.set_defaults(fn=cmd_stencil)

    r = sub.add_parser("reproduce", parents=[common],
                       help="re-check the bundled reference tables")
    r.add_argument("which", choices=repro.WHICH)
    r.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


def _message(exc):
    # float overflow in math functions carries an (errno, strerror) pair
    if isinstance(exc, OverflowError) and len(exc.args) == 2:
        return "numerical result out of range"
    return str(exc)


if __name__ == "__main__":
    sys.exit(main())
