"""The ROADMAP's silent-garbage table as CLI tests: commands that print
wrong digits and exit 0.

Each row asserts the behaviour the library owes its caller: either value
lines (``value: v``, or the rows of ``interp``) whose values are within a
relative 1e-6 of the exact answers (1e-9 where the wrong value is closer
than that), or exit code 2 with an ``error:``
line that names the cause.  A row that still prints garbage is a strict
xfail naming the ROADMAP item that closes it, so the change that closes a
row must flip it, and no row closes unnoticed.  Every command runs
in-process through ``cli.main``, on the data files of the
``data_files`` fixture (``chebN.csv``, ``nN.csv``).
"""

import math

import pytest

from divdiff.cli import main


def _row(number, argv, exact, cause, item, rel=1e-6):
    return pytest.param(argv, exact, cause, rel, id=f"row{number}",
                        marks=pytest.mark.xfail(
                            strict=True, reason=f"ROADMAP item {item}"))


ROWS = [
    # the off-node paper route: the step integral and the derivative cancel
    # in powers of 1 / (x_i - x)
    _row(1, ["quad", "cheb16.csv", "--at", "0.19", "--step", "0.125"],
         math.exp(0.315) - math.exp(0.19), "digit", 1),
    _row(2, ["diff", "cheb16.csv", "-t", "2", "--at", "0.1950903"],
         math.exp(0.1950903), "digit", "1, 19"),
    # the Newton prefix over sorted nodes at n = 128 (the second point runs
    # the plan's repeat kernel)
    _row(3, ["interp", "cheb128.csv", "-x", "0.3,0.77"],
         (math.exp(0.3), math.exp(0.77)), "digit", "2, 19"),
    # the barycentric weights' products underflow: 8e-7 off
    _row(4, ["interp", "cheb800.csv", "-x", "0.3", "--barycentric", "-r",
             "0"], math.exp(0.3), "underflow", 12, rel=1e-9),
    # the grid-rule rows: the rounding amplification of an exact rule,
    # sum |w_i| times the data's rounding over |h|^t (times h for a
    # quadrature rule), swamps the value
    _row(5, ["quad", "--panels", "2", "--func", "sin", "--rule-n", "70"],
         2.0, "amplification", 10),
    _row(6, ["quad", "--grid", "0,0.0125,0,80", "--func", "exp"],
         math.e - 1, "amplification", 10),
    _row(7, ["diff", "--grid", "0,1e-6,4,4", "--func", "exp", "-t", "4"],
         1.0, "amplification", 10),
    _row(8, ["diff", "--grid", "0,1e-3,6,6", "--func", "exp", "-t", "6"],
         1.0, "amplification", 10),
    # the series route subtracts every lower order, each with its own
    # truncation error times about k! / h^k
    _row(9, ["diff", "--method", "series", "--func", "sin", "--at", "0.3",
             "-t", "8"], math.sin(0.3), "estimate", 16),
    _row(10, ["diff", "--method", "series", "--func", "cos", "--at", "0.3",
              "-t", "6"], -math.cos(0.3), "estimate", 16),
    # at a node the subset sum prints 12 digits where the data allow 5
    _row(11, ["diff", "cheb32.csv", "-t", "5", "--at",
              "0.9807852804032304"], 2.666549409, "digit", 17),
    # a quadratic's 15th derivative
    _row(12, ["diff", "n16.csv", "-t", "15", "--at", "2.5"], 0.0, "digit",
         "1, 19"),
]


def _values(out):
    """The values of ``value: v`` lines, or of the rows after an
    ``interp`` header."""
    lines = out.splitlines()
    if lines and lines[0].startswith("x,value"):
        return [float(line.split(",")[1]) for line in lines[1:]]
    return [float(line.split(": ", 1)[1]) for line in lines
            if line.startswith("value: ")]


@pytest.mark.parametrize("argv,exact,cause,rel", ROWS)
def test_row_gives_the_right_digits_or_exits_2(capsys, data_files, argv,
                                               exact, cause, rel):
    argv = [data_files(a) if a.endswith(".csv") else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and cause in err.lower()
        return
    assert code == 0
    exact = exact if isinstance(exact, tuple) else (exact,)
    assert _values(out) == pytest.approx(list(exact), rel=rel)


def test_row3_prints_the_tables_digits(capsys, data_files):
    # the digits of the ROADMAP table: the first point runs the loop of a
    # set's first call, the second the plan's bound repeat kernel, which
    # must give the same floats as the loop it is traced from
    assert main(["interp", data_files("cheb128.csv"), "-x", "0.3,0.77"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x,value", "0.3,6.8260142218e+35", "0.77,-8.17245750411e+35"]
