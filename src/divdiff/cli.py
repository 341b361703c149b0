"""Command-line interface.

Subcommands: ``table``, ``interp``, ``diff``, ``quad``, ``stencil``,
``reproduce``.  Exit codes: 0 success, 1 failed reproduction case,
2 usage, parse or input error, including non-finite numbers, a zero step,
arithmetic that overflows or divides by zero, and a computed value that is
inf or nan (reported before any result line), and an option the chosen
route does not read.  A reader that closes stdout early (``| head -1``)
drops the rest of the output, with exit code 0 and nothing on stderr, as
no input was wrong.  ``--rational`` parses the input decimals as exact
fractions and keeps all arithmetic exact where the operation supports it;
an exact value too long for Python's int-to-string conversion prints
rounded to 17 significant digits, with a note on stderr (one per table).

One table, ``ROUTES``, drives every subcommand.  Each entry names its
subcommand, the route's name in error messages, the condition that selects
it (the first entry of the subcommand whose condition holds runs; ``None``
always holds), the options it reads, and the function that prints its
result.  A set option that the selected route does not read is an error
naming the option and the route.  An entry with no function is an input
error whose message is its name.  Route functions import the library
modules they run when they run, so a command loads only those.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .samples import GridSpec, SampleSet, _fraction_text, uniform_step

# copies of library constants, so that building the parser loads none of
# the modules that define them; a test checks each against its source
SCHEMES = ("newton", "new", "combined", "integer")  # tables.SCHEMES
CENTRAL_VARIANTS = ("new_forward", "new_backward", "stirling", "bessel",
                    "everett", "steffensen")  # interpolate.CENTRAL_VARIANTS
WHICH = ("table5", "table6", "table7", "table8", "table9",
         "stencils", "quadweights", "all")  # repro.WHICH
FUNCS = ("cos", "exp", "sin", "table5")  # the --func choices
_ROUNDED = ("note: an exact value has too many digits to print; printed "
            "rounded to 17 significant digits")


def _fmt(v):
    """``v`` as a result line prints it: a float to 12 significant digits,
    and a Fraction as :func:`~divdiff.samples._fraction_text` gives it,
    with a note on stderr when that is rounded."""
    if not isinstance(v, Fraction):
        return "%.12g" % v
    text, exact = _fraction_text(v)
    if not exact:
        print(_ROUNDED, file=sys.stderr)
    return text


def _func(name):
    """The function named by --func or --reference."""
    if name == "table5":
        from .oracle import table5_function
        return table5_function
    return getattr(math, name)


def _load_samples(args):
    from .dataio import read_data
    data = read_data(args.input, rational=args.rational)
    return SampleSet(data.xs, data.ys)


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


def _print_value(value, what, *lines):
    """``value: v`` and then ``lines``; nothing, and a ValueError naming
    ``what``, if v is inf or nan."""
    print("\n".join((f"value: {_fmt(_finite(value, what))}", *lines)))


# routes: each prints its result and returns None (success) or an exit code

def _check_option(value, flag, low, high=None, where=""):
    """``value``; a ValueError naming the option ``flag`` unless it is in
    ``low..high``, or without ``high`` at least ``low``."""
    if high is None:
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"{flag} must be in {low}..{high}{where}, "
                         f"got {value}")
    return value


def _table(args):
    from . import tables
    samples = _load_samples(args)
    n = samples.n
    r = _check_option(n if args.r is None else args.r, "-r", 0, n,
                      f" on {n + 1} nodes")
    if args.scheme == "newton":
        table = tables.build_newton_table(samples)
    elif args.scheme == "integer":
        # one node is trivially evenly spaced
        if n and uniform_step(samples.nodes) is None:
            raise ValueError("integer scheme needs evenly spaced input")
        table = tables.build_integer_table(samples.values, r)
    elif args.scheme == "new":
        table = tables.build_new_table(samples, r)
    else:
        table = tables.build_combined_table(samples, r)
    text, exact = (table.to_json(), True) if args.json else table._render()
    if not exact:
        print(_ROUNDED, file=sys.stderr)
    print(text)


def _interp(args):
    from . import interpolate
    samples = _load_samples(args)
    n = samples.n
    top, where = n, f" on {n + 1} nodes"
    if args.variant:
        h = uniform_step(samples.nodes)
        if h is None:
            raise ValueError("--variant needs evenly spaced input")
        centre = n // 2
        top = min(centre, n - centre - (args.variant == "bessel"))
        where = f" for --variant {args.variant}{where}"
    r = _check_option(top if args.r is None else args.r, "-r", 0, top, where)
    xs = [_parse_number(tok, args.rational, "-x") for tok in args.x.split(",")
          if tok.strip()]
    if not xs:
        raise ValueError("-x needs at least one point")
    reference = args.reference and _reference_fn(args.reference)
    tail = None
    if args.tail_coeffs is not None and args.tail is None:
        raise ValueError("--tail-coeffs needs --tail, the degree of the tail")
    if args.tail is not None:
        _check_option(args.tail, "--tail", 0)
        if r < 1:
            raise ValueError(f"--tail {args.tail} needs -r >= 1, got -r {r}")
        if args.tail_coeffs is not None:
            coeffs = [_parse_number(c, args.rational, "--tail-coeffs")
                      for c in args.tail_coeffs.split(",")]
            if len(coeffs) != args.tail + 1:
                raise ValueError(f"--tail {args.tail} needs {args.tail + 1} "
                                 f"--tail-coeffs, got {len(coeffs)}")
            tail = interpolate.TailModel(tuple(coeffs), r, basis="x")
        elif n - args.tail < 1:
            raise ValueError(f"--tail {args.tail} needs at least "
                             f"{args.tail + 2} nodes, got {n + 1}")
        elif r > n - args.tail:
            raise ValueError(f"--tail {args.tail} needs -r <= {n - args.tail}"
                             f" on {n + 1} nodes, got -r {r}")
        else:
            tail = interpolate.fit_tail(samples, r, args.tail)
    gap = (samples.nodes[-1] - samples.nodes[0]) / max(n, 1)
    rows = ["x,value" + (",error" if reference else "")]
    for x in xs:
        if x < samples.nodes[0] - gap or x > samples.nodes[-1] + gap:
            print(f"warning: x={_fmt(x)} is outside the extended node hull",
                  file=sys.stderr)
        if args.variant:
            val = interpolate.interpolate_central(
                samples.values, centre, r, (x - samples.nodes[centre]) / h,
                args.variant)
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
    print("\n".join(rows))


def _reference_fn(name):
    if name in FUNCS:
        fn = _func(name)
    else:
        from .dataio import read_data
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


def _grid_samples(spec_text, func_name, rational):
    parts = [s.strip() for s in spec_text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--grid needs four values a,h,m,n, got {spec_text!r}")
    a = _parse_number(parts[0], rational, "--grid origin a")
    h = _parse_number(parts[1], rational, "--grid step h")
    if h == 0:
        raise ValueError("--grid step h must be nonzero")
    for text, what in ((parts[3], "--grid n"), (parts[2], "--grid m")):
        if not text.isdecimal():
            raise ValueError(f"{what} must be a nonnegative integer, "
                             f"got {text!r}")
    grid = GridSpec(a, h, forward_count=int(parts[3]),
                    backward_count=int(parts[2]))
    name = func_name or "table5"
    fn = _func(name)
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


def _diff_grid(args):
    from . import derivatives
    t = args.order
    a, h, m, n, values = _grid_samples(args.grid, args.func, args.rational)
    if not 1 <= t <= m + n:
        raise ValueError(f"-t must be in 1..m+n of --grid m,n = {m},{n}, "
                         f"got {t}")
    value = derivatives.twosided_derivative(values, h, t, m)
    st = derivatives.stencil_weights(m, n, t)
    _print_value(value, f"derivative at x={_fmt(a)}",
                 f"method: grid (m={m}, n={n})",
                 f"accuracy-order: {st.accuracy_order}",
                 f"stencil: {st.display()}")


def _diff_series(args):
    if args.input or args.func not in ("sin", "cos"):
        raise ValueError("--method series needs --func sin or --func cos "
                         "and no input file: the series converges only "
                         "for a function whose derivatives stay bounded")
    t = args.order
    h = 0.3 if args.step is None else args.step
    terms = 500 if args.terms is None else args.terms
    _check_option(t, "-t", 1)
    _check_option(terms, "--terms", 1)
    if not 0 < abs(h) < 1:
        raise ValueError(f"--step must satisfy 0 < |h| < 1, got {_fmt(h)}")
    a = _parse_number(args.at, False, "--at")
    from .derivatives import series_derivative
    try:
        value = series_derivative(_func(args.func), a, h, t, terms)
    except OverflowError:  # i**t or t! past the float range
        raise ValueError(f"-t {t} is too large: the series overflows "
                         "the float range") from None
    _print_value(value, f"derivative at x={_fmt(a)}",
                 f"method: series (terms={terms}, h={h})",
                 "accuracy-order: conditional (alternating series)")


def _diff_samples(args):
    from . import derivatives
    samples = _load_samples(args)
    t, n = args.order, samples.n
    _check_option(t, "-t", 1, n, f" on {n + 1} nodes")
    x = _parse_number(args.at, args.rational, "--at")
    method = args.method or "recursive"
    what = f"derivative at x={_fmt(x)}"
    node = samples.nodes.index(x) if x in samples.nodes else None
    if args.opcount and (method != "recursive" or node is not None):
        raise ValueError("--opcount counts only the recursive route, "
                         "which runs off the nodes")
    if method == "recursive" and node is not None:
        h = uniform_step(samples.nodes)
        if h is not None:
            value = derivatives.twosided_derivative(samples.values, h, t, node)
            st = derivatives.stencil_weights(node, n - node, t)
            _print_value(value, what, "method: grid (rerouted from "
                         f"recursive; x is node {node})",
                         f"accuracy-order: {st.accuracy_order}")
            return
        method = "lincomb"
        print("note: x is a node; rerouted to lincomb", file=sys.stderr)
    lines = []
    if method == "recursive":
        from .counting import OpTally
        tally = OpTally() if args.opcount else None
        value = derivatives.derivative_uneven(samples, x, t, tally=tally)
        if tally:
            c = tally.snapshot()
            lines.append(f"op-counts: add={c.additions} sub={c.subtractions} "
                         f"mul={c.multiplications} div={c.divisions}")
    elif node is None:
        value = derivatives.derivative_lincomb(samples, x, t)
    else:
        rest = [i for i in range(n + 1) if i != node]
        value = derivatives.derivative_lincomb(
            samples.subset(rest), x, t, fx=samples.values[node])
    _print_value(value, what, f"method: {method} (n={n})",
                 f"accuracy-order: {n + 1 - t}", *lines)


def _quad_panels(args):
    from . import quadrature
    fn = _func(args.func or "sin")
    interval = "0,3.141592653589793" if args.interval is None else args.interval
    ends = interval.split(",")
    if len(ends) != 2:
        raise ValueError(f"--interval needs two values p,q, got {interval!r}")
    p, q = (_parse_number(s, False, "--interval") for s in ends)
    if not p < q:
        raise ValueError(f"--interval needs p < q, got {interval!r}")
    rule_n = _check_option(2 if args.rule_n is None else args.rule_n,
                           "--rule-n", 1)
    _check_option(args.panels, "--panels", 1)
    plan = quadrature.even_quad_weights(rule_n)
    _print_value(quadrature.quad_composite(fn, p, q, args.panels, plan),
                 f"integral over [{_fmt(p)}, {_fmt(q)}]",
                 f"weights: {plan.display()} per panel, {args.panels} panels")


def _quad_grid(args):
    from . import quadrature
    a, h, m, n, values = _grid_samples(args.grid, args.func, args.rational)
    if args.central and m != n:
        raise ValueError(f"--central needs m == n in --grid m,n, got {m},{n}")
    if m and not args.central:
        raise ValueError(f"--grid m must be 0 without --central, got {m}")
    _check_option(n, "--grid n", 1)
    plan = (quadrature.central_quad_weights if args.central
            else quadrature.even_quad_weights)(n)
    _print_value(plan.apply(values, h), f"integral anchored at x={_fmt(a)}",
                 f"weights: {plan.display()}")


def _quad_samples(args):
    from . import quadrature
    samples = _load_samples(args)
    if args.at is None:
        raise ValueError("uneven quadrature needs --at, the anchor x")
    x = _parse_number(args.at, args.rational, "--at")
    if args.step in (None, "auto"):
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
    print(f"value: {_fmt(value)}\nweights: "
          + ", ".join(_fmt(w) for w in plan.node_weights))


def _stencil(args):
    from .derivatives import stencil_weights
    st = stencil_weights(args.m, args.n, args.order)
    print(json.dumps(st.to_json_dict()) if args.json else
          f"f^({st.order})(a) ~ {st.display()} "
          f"(accuracy order {st.accuracy_order})")


def _reproduce(args):
    from . import repro
    report = repro.run_reproduction(args.which)
    print(json.dumps(report.to_json_dict(), indent=2) if args.json
          else "\n".join(report.format_lines()))
    return 0 if report.ok else 1


_NO_INPUT = "need an input CSV file (or a --grid specification)"
Route = namedtuple("Route", "command name when reads run")

ROUTES = (
    Route("table", "--scheme newton", lambda a: a.scheme == "newton",
          "input rational json scheme", _table),
    Route("table", "table", None, "input rational json scheme r", _table),
    Route("interp", "interp", None, "input rational r x barycentric variant "
          "tail tail_coeffs reference", _interp),
    Route("diff", "--grid", lambda a: a.grid, "grid func order rational",
          _diff_grid),
    Route("diff", "need --at (or a --grid specification)",
          lambda a: a.at is None, None, None),
    Route("diff", "--method series", lambda a: a.method == "series",
          "input func order at method step terms", _diff_series),
    Route("diff", "an input file", lambda a: a.input,
          "input rational order at method opcount", _diff_samples),
    Route("diff", _NO_INPUT, None, None, None),
    Route("quad", "--central needs --grid",
          lambda a: a.central and not a.grid, None, None),
    Route("quad", "--panels", lambda a: a.panels is not None,
          "func panels interval rule_n", _quad_panels),
    Route("quad", "--grid", lambda a: a.grid, "rational grid func central",
          _quad_grid),
    Route("quad", "an input file", lambda a: a.input, "input rational at step",
          _quad_samples),
    Route("quad", _NO_INPUT, None, None, None),
    Route("stencil", "stencil", None, "json m n order", _stencil),
    Route("reproduce", "reproduce", None, "json which", _reproduce),
)


def _check_unread(route, args):
    """ValueError naming the first option set in ``args`` (in parser
    order) that ``route`` does not read."""
    for name, value in vars(args).items():
        if (name != "command" and name not in route.reads.split()
                and value is not None and value is not False):
            flag = ("an input file" if name == "input" else
                    ("-" if len(name) == 1 else "--") + name.replace("_", "-"))
            raise ValueError(f"{flag} does not apply to {route.name}")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    rational = argparse.ArgumentParser(add_help=False)
    rational.add_argument("--rational", action="store_true",
                          help="exact fraction arithmetic where supported")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="JSON output")
    p = argparse.ArgumentParser(prog="divdiff",
                                description="divided-difference toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[rational, as_json],
                       help="render a divided-difference table")
    t.add_argument("input", help="CSV file of x,y rows")
    t.add_argument("--scheme", choices=SCHEMES, default="newton")
    t.add_argument("-r", type=int, help="split index (default n)")

    i = sub.add_parser("interp", parents=[rational],
                       help="evaluate the split-form interpolant")
    i.add_argument("input")
    i.add_argument("-r", type=int)
    i.add_argument("-x", required=True, help="comma-separated evaluation points")
    evaluator = i.add_mutually_exclusive_group()
    evaluator.add_argument("--barycentric", action="store_true")
    evaluator.add_argument("--variant", choices=CENTRAL_VARIANTS, help="centred "
                           "difference arrangement (even grids only)")
    evaluator.add_argument("--tail", type=int, help="replace the suffix with "
                           "a fitted tail of this degree")
    i.add_argument("--tail-coeffs",
                   help="comma-separated ascending tail coefficients")
    i.add_argument("--reference",
                   help="function name or CSV file for an error column")

    d = sub.add_parser("diff", parents=[rational], help="numerical derivative")
    d.add_argument("input", nargs="?", help="CSV file (omit with --grid)")
    d.add_argument("--grid", help="a,h,m,n sampled from --func")
    d.add_argument("--func", choices=FUNCS)
    d.add_argument("-t", "--order", type=int, required=True)
    d.add_argument("--at", help="evaluation point x")
    d.add_argument("--method", choices=("recursive", "lincomb", "series"),
                   help="default recursive")
    d.add_argument("--step", type=float, help="series step h (default 0.3)")
    d.add_argument("--terms", type=int, help="series terms (default 500)")
    d.add_argument("--opcount", action="store_true")

    q = sub.add_parser("quad", parents=[rational], help="numerical integration")
    q.add_argument("input", nargs="?")
    q.add_argument("--grid", help="a,h,m,n sampled from --func")
    q.add_argument("--func", choices=FUNCS)
    q.add_argument("--central", action="store_true")
    q.add_argument("--panels", type=int)
    q.add_argument("--interval", help="composite p,q (default 0,pi)")
    q.add_argument("--rule-n", type=int,
                   help="composite rule steps per panel (default 2)")
    q.add_argument("--at", help="uneven anchor x")
    q.add_argument("--step", help="uneven step h (default auto)")

    s = sub.add_parser("stencil", parents=[as_json],
                       help="derivative stencil weights")
    s.add_argument("-m", type=int, required=True, help="points left of a")
    s.add_argument("-n", type=int, required=True, help="points right of a")
    s.add_argument("-t", "--order", type=int, required=True)

    r = sub.add_parser("reproduce", parents=[as_json],
                       help="re-check the bundled reference tables")
    r.add_argument("which", choices=WHICH)
    p.commands = sub.choices  # each subcommand's parser, by name
    return p


# the options that take a comma-separated number list
_LIST_OPTIONS = ("-x", "--grid", "--interval", "--tail-coeffs")
_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_negative_lists(parser, argv):
    """argparse reads a value such as ``-0.5,0.3`` or ``-inf,0`` as an
    option, since it is no single negative number; pass each one after a
    list option joined to it, as ``--grid=-1,0.1,2,2``, so that a
    non-finite value reaches the finite check.

    An option counts as a list option when argparse would read it as one
    of the subcommand's: its full name, or a ``--`` prefix of exactly one
    of the subcommand's options (``--inter`` for ``--interval``).  An
    ambiguous prefix is left alone for argparse to reject.
    """
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return argv
    names = sub._option_string_actions

    def is_list(arg):
        if arg not in names and arg.startswith("--"):
            matches = [name for name in names if name.startswith(arg)]
            arg = matches[0] if len(matches) == 1 else arg
        return arg in _LIST_OPTIONS

    out = argv[:1]
    for arg in argv[1:]:
        if _NEGATIVE.match(arg) and is_list(out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(_join_negative_lists(parser, argv))
    route = next(r for r in ROUTES if r.command == args.command
                 and (r.when is None or r.when(args)))
    try:
        if route.run is None:
            raise ValueError(route.name)
        _check_unread(route, args)
        code = route.run(args) or 0
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # so that the exit flush cannot fail and print
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, ArithmeticError) as exc:
        # a ParseError comes only from a route that loaded the dataio module
        dataio = sys.modules.get(f"{__package__}.dataio")
        if dataio is not None and isinstance(exc, dataio.ParseError):
            print(f"parse error: {exc}", file=sys.stderr)
        # float overflow in math functions carries an (errno, strerror) pair
        elif isinstance(exc, OverflowError) and len(exc.args) == 2:
            print("error: numerical result out of range", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
