"""Reproduction harness for the bundled reference tables and weight sets.

Each case records what was expected, what the library computed, the
registered tolerance and the deviation; a report is machine-readable and
prints one line per case.  Error-table tolerances are two units of the
last printed significant digit with a 1e-9 absolute floor (entries printed
as pure float dust at interpolation nodes are only reproducible to
round-off, not to their own last digit).
"""

from __future__ import annotations

import json
import math
from importlib import resources

from . import derivatives, interpolate, quadrature
from .counting import OpTally
from .oracle import known_stencils, table5_function
from .samples import SampleSet, _Record
from .tables import zigzag_positions

WHICH = ("table5", "table6", "table7", "table8", "table9",
         "stencils", "quadweights", "all")


def _fixture(name: str) -> dict:
    text = resources.files("divdiff").joinpath("data", name).read_text()
    return json.loads(text)


def printed_unit(value: float) -> float:
    """Size of one unit in the last place of a 3-significant-digit print."""
    if value == 0.0:
        return 1e-2  # printed as 0.00e+00
    return 10.0 ** (math.floor(math.log10(abs(value))) - 2)


def error_table_tolerance(printed: float) -> float:
    return max(2.0 * printed_unit(printed), 1e-9)


class ReproCase(_Record):
    """One checked value: what was expected, what was computed, the
    tolerance, the deviation and the verdict."""

    __slots__ = _fields = ("case_id", "expected", "computed", "tolerance",
                           "deviation", "passed", "note")

    def __init__(self, case_id, expected, computed, tolerance, deviation,
                 passed, note=""):
        self._init(case_id, expected, computed, tolerance, deviation, passed,
                   note)


class ReproReport(_Record):
    """The cases of a run, in order; mutable and unhashable."""

    __slots__ = _fields = ("cases",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, cases=None):
        self.cases = [] if cases is None else cases

    def add_numeric(self, case_id, expected, computed, tolerance, note=""):
        dev = abs(computed - expected)
        self.cases.append(ReproCase(case_id, expected, computed, tolerance,
                                    float(dev), dev <= tolerance, note))

    def add_exact(self, case_id, expected, computed, note=""):
        ok = computed == expected
        self.cases.append(ReproCase(case_id, _pretty(expected), _pretty(computed),
                                    0.0, 0.0 if ok else float("nan"), ok, note))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cases)

    def counts(self):
        good = sum(1 for c in self.cases if c.passed)
        return good, len(self.cases)

    def to_json_dict(self):
        return {"cases": [{"id": c.case_id, "expected": _pretty(c.expected),
                           "computed": _pretty(c.computed), "tolerance": c.tolerance,
                           "deviation": c.deviation, "pass": c.passed,
                           "note": c.note} for c in self.cases],
                "pass": self.ok}

    def format_lines(self):
        lines = []
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.case_id}: computed={c.computed} "
                         f"expected={c.expected} dev={c.deviation:.3g} "
                         f"tol={c.tolerance:.3g}")
        good, total = self.counts()
        lines.append(f"{good}/{total} cases passed")
        return lines


def _pretty(v):
    from fractions import Fraction
    if isinstance(v, (tuple, list)):
        return [_pretty(u) for u in v]
    if isinstance(v, Fraction):
        return str(v)
    return v


# ---------------------------------------------------------------------------
# reference-table computations (shared with the test suite)

def table5_cases(report: ReproReport):
    fix = _fixture("table5.json")
    for x, y in zip(fix["x"], fix["y"]):
        report.add_numeric(f"table5/x={x}", y, table5_function(x), 5e-7)


def _reference_samples():
    # full-precision samples of the reference function at the tabulated
    # nodes; the bundled error tables were computed from these, with the
    # 7-decimal value table being a rounded display of the same data
    return [table5_function(1.0 + 0.25 * i) for i in range(9)]


def table6_computed() -> dict:
    """Errors of the three fourth-degree fits at the tabulated x values."""
    ys = _reference_samples()
    xs23 = _fixture("table6.json")["x"]
    out = {"newton_forward": [], "newton_backward": [], "stirling": []}
    back = ys[::-1][:5]
    central = ys[2:7]
    for x in xs23:
        actual = table5_function(x)
        out["newton_forward"].append(
            interpolate.interpolate_forward_even(ys[:5], 4, (x - 1.0) / 0.25) - actual)
        out["newton_backward"].append(
            interpolate.interpolate_backward_even(back, 4, (x - 3.0) / 0.25) - actual)
        out["stirling"].append(
            interpolate.interpolate_central(central, 2, 2, (x - 2.0) / 0.25,
                                            "stirling") - actual)
    return out


def table6_cases(report: ReproReport):
    fix = _fixture("table6.json")
    computed = table6_computed()
    for col in ("newton_forward", "newton_backward", "stirling"):
        for x, printed, got in zip(fix["x"], fix[col], computed[col]):
            report.add_numeric(f"table6/{col}/x={x}", printed, got,
                               error_table_tolerance(printed))


def _table7_samples():
    ys = _reference_samples()
    fwd = SampleSet(range(9), ys)
    bwd = SampleSet([-k for k in range(9)], ys[::-1])
    zig = zigzag_positions(4, 4)
    by_pos = {p - 4: v for p, v in enumerate(ys)}
    cen = SampleSet(zig, [by_pos[p] for p in zig])
    return {"modified_forward": fwd, "modified_backward": bwd,
            "modified_central": cen}


def table7_theta_fitted() -> dict:
    """Refit of the order-3 tail lines; matches the printed pairs to ~1e-6."""
    return {name: fit_tail_line(samp) for name, samp in _table7_samples().items()}


def fit_tail_line(samples: SampleSet):
    model = interpolate.fit_tail(samples, 3, 1, basis="s")
    return model.coefficients[1], model.coefficients[0]  # (slope, intercept)


def table7_computed(theta_source: str = "fitted") -> dict:
    """Errors of the order-2-prefix-plus-fitted-line forms.

    ``theta_source`` picks the tail line: "fitted" refits it from the data
    (this is how the tabulated errors were produced); "printed" uses the
    tabulated 6-decimal roundings, whose rounding alone moves a handful of
    far-from-centre entries by more than their own last printed digit.
    """
    fix7 = _fixture("table7.json")
    xs23 = fix7["x"]
    samples = _table7_samples()
    anchors = {"modified_forward": 1.0, "modified_backward": 3.0,
               "modified_central": 2.0}
    fitted = table7_theta_fitted() if theta_source != "printed" else None
    out = {}
    for name, samp in samples.items():
        if theta_source == "printed":
            slope, intercept = fix7["theta_printed"][name]
        else:
            slope, intercept = fitted[name]
        model = interpolate.TailModel((intercept, slope), 3, basis="s")
        errs = []
        for x in xs23:
            s = (x - anchors[name]) / 0.25
            val = interpolate.interpolate_with_tail(samp, 3, model, s)
            errs.append(val - table5_function(x))
        out[name] = errs
    return out


def table7_cases(report: ReproReport, theta_source: str = "fitted"):
    fix = _fixture("table7.json")
    computed = table7_computed(theta_source)
    for col in ("modified_forward", "modified_backward", "modified_central"):
        for x, printed, got in zip(fix["x"], fix[col], computed[col]):
            report.add_numeric(f"table7/{col}/x={x}", printed, got,
                               error_table_tolerance(printed),
                               note=f"theta={theta_source}")


# ---------------------------------------------------------------------------
# operation-count and weight-set cases

def table8_cases(report: ReproReport):
    for n in range(1, 9):
        report.add_exact(f"table8/lagrange-boundary/n={n}",
                         interpolate.lagrange_op_counts(n).as_tuple(),
                         interpolate.count_ops(n, 0).as_tuple())
    for n in range(2, 7):
        report.add_exact(
            f"table8/newton-subtractions/n={n}",
            interpolate.newton_op_counts(n).subtractions,
            interpolate.count_ops(n, n).subtractions)
    for n, r in ((4, 2), (5, 1), (6, 3), (7, 5)):
        samples = SampleSet([0.1 * i + 0.003 * i * i for i in range(n + 1)],
                            [math.sin(1.0 + 0.4 * i) for i in range(n + 1)])
        tally = OpTally()
        interpolate.interpolate_general(samples, r, 0.123, tally=tally)
        report.add_exact(f"table8/instrumented/n={n},r={r}",
                         interpolate.count_ops(n, r).as_tuple(),
                         tally.snapshot().as_tuple())


def table9_cases(report: ReproReport):
    report.add_exact("table9/spot/n=2,k=1/divisions", 9,
                     derivatives.diff_op_counts(2, 1).divisions)
    report.add_exact("table9/spot/n=2,k=1/additions", 7,
                     derivatives.diff_op_counts(2, 1).additions)
    for n, k in ((2, 1), (3, 2), (4, 3), (6, 2)):
        samples = SampleSet([0.2 * i + 0.01 * i * i for i in range(n + 1)],
                            [math.cos(0.3 * i) for i in range(n + 1)])
        tally = OpTally()
        derivatives.derivative_uneven(samples, 0.07, k, tally=tally)
        report.add_exact(f"table9/instrumented/n={n},k={k}",
                         derivatives.diff_op_counts(n, k).as_tuple(),
                         tally.snapshot().as_tuple())


def stencil_cases(report: ReproReport):
    golden = known_stencils()
    layouts = {"backward-5pt-d2": (4, 0), "semi-backward-5pt-d2": (3, 1),
               "central-5pt-d2": (2, 2), "semi-forward-5pt-d2": (1, 3),
               "forward-5pt-d2": (0, 4)}
    for name, (m, n) in layouts.items():
        got = derivatives.stencil_weights(m, n, 2)
        report.add_exact(f"stencils/{name}", golden[name].weights, got.weights)


def quadweight_cases(report: ReproReport):
    golden = known_stencils()
    report.add_exact("quadweights/simpson", golden["simpson"].weights,
                     quadrature.even_quad_weights(2).node_weights)
    report.add_exact("quadweights/nc7", golden["nc7"].weights,
                     quadrature.even_quad_weights(6).node_weights)
    # symmetric three-point rule collapses to the 1-4-1 weights
    report.add_exact("quadweights/central-3pt", golden["simpson"].weights,
                     quadrature.central_quad_weights(1).node_weights)


_BUILDERS = {
    "table5": table5_cases,
    "table6": table6_cases,
    "table7": table7_cases,
    "table8": table8_cases,
    "table9": table9_cases,
    "stencils": stencil_cases,
    "quadweights": quadweight_cases,
}


def run_reproduction(which: str = "all") -> ReproReport:
    if which not in WHICH:
        raise ValueError(f"unknown selection {which!r}; choose from {WHICH}")
    report = ReproReport()
    names = [w for w in WHICH if w != "all"] if which == "all" else [which]
    for name in names:
        _BUILDERS[name](report)
    return report
