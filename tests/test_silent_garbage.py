"""The ROADMAP's silent-garbage table as CLI tests: commands that print
wrong digits and exit 0.

Each row asserts the behaviour the library owes its caller: either a
value line whose value is within a relative 1e-6 of the exact answer, or
exit code 2 with an ``error:`` line that names the cause.  A row that still
prints garbage is a strict xfail naming the ROADMAP item that closes it, so
the change that closes a row must flip it, and no row closes unnoticed.
Every command runs in-process through ``cli.main``.
"""

import math

import pytest

from divdiff.cli import main


def _row(number, argv, exact, cause, item):
    return pytest.param(argv, exact, cause, id=f"row{number}",
                        marks=pytest.mark.xfail(
                            strict=True, reason=f"ROADMAP item {item}"))


# the grid-rule rows: the rounding amplification of an exact rule,
# sum |w_i| times the data's rounding over |h|^t (times h for a quadrature
# rule), swamps the value
ROWS = [
    _row(5, ["quad", "--panels", "2", "--func", "sin", "--rule-n", "70"],
         2.0, "amplification", 10),
    _row(6, ["quad", "--grid", "0,0.0125,0,80", "--func", "exp"],
         math.e - 1, "amplification", 10),
    _row(7, ["diff", "--grid", "0,1e-6,4,4", "--func", "exp", "-t", "4"],
         1.0, "amplification", 10),
    _row(8, ["diff", "--grid", "0,1e-3,6,6", "--func", "exp", "-t", "6"],
         1.0, "amplification", 10),
]


@pytest.mark.parametrize("argv,exact,cause", ROWS)
def test_row_gives_the_right_digits_or_exits_2(capsys, argv, exact, cause):
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and cause in err.lower()
        return
    assert code == 0
    values = [float(line.split(": ", 1)[1]) for line in out.splitlines()
              if line.startswith("value: ")]
    assert values and values[0] == pytest.approx(exact, rel=1e-6)
