"""The three in-process workloads: scatter-reuse, window-stream, grid-weights.

Each workload builds its inputs from the seed alone, hands the library only
those inputs, and runs its ops through a :class:`harness.Ledger`.  Ops call
the library through the ``divdiff`` package attributes at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from time import perf_counter

import divdiff as dd

import refs
from harness import close, run_for


def _off_node(rng, lo, hi, nodes):
    while True:
        x = rng.uniform(lo, hi)
        if x not in nodes:
            return x


class ScatterReuse:
    name = "scatter-reuse"
    why = ("A few global scattered sample sets, each evaluated at many "
           "points: at the seed the table and suffix weights are rebuilt for "
           "every point, so this is where building a plan once must show.")
    POINTS = 100
    DERIV_EVERY = 10
    # one block per pass over the pool (4700 ops): p99 leaves 47 beyond it
    TAIL_PCT = 99.0
    SETS = (("chebyshev-sorted", 8), ("chebyshev-sorted", 32),
            ("chebyshev-sorted", 128), ("clustered-random", 8),
            ("clustered-random", 32), ("clustered-random", 128),
            ("equispaced", 8), ("equispaced", 32))
    # Seed defects, one per op category.  Ops in these categories fail on
    # every seed or on a seed-dependent few of the points, so they are
    # kept out of the timed pool and run once per run by check_defects.
    KNOWN_DEFECTS = (
        "interpolate_general and interpolate_barycentric at n = 128, "
        "r in {64, 128}: the fixed-prefix table loses every digit on "
        "sorted Chebyshev nodes with f = exp (errors 1e30 and more), and "
        "at most points of some seeds on random-order clustered nodes "
        "(seed 38)",
        "extended_dd_eval(barycentric=True) at n = 128, r = 64: wrong at "
        "some points on sorted Chebyshev nodes",
        "interpolate_barycentric: the ratio form's denominator cancels on "
        "unevenly spread nodes; one fixed case, independent arcsine draws "
        "at n = 32, divides by zero",
        "derivative_uneven: when x lies close to a node the rho power sums "
        "cancel past the conditioning bound; seen on every node family, "
        "from n = 8 up",
        "quad_uneven: the expansion in powers of 1/(x_i - x) cancels; "
        "wrong at n = 32 (errors near 1e20 to 1e40), ZeroDivisionError "
        "at n = 128, and beyond the tolerance at a third of the points "
        "at n = 8",
    )
    # Independent arcsine draws at n = 32 and the point at which
    # interpolate_barycentric(r = 0) divides by zero (f = exp)
    RATIO_FORM_CASE = (
        (0.29300309163742816, -0.0041659410794231124, -0.9997674737222724,
         0.704165740864212, 0.9731847265623039, 0.49563958037243244,
         0.9955943762712228, 0.13991701730344105, 0.9406255355439717,
         0.07089851214850965, 0.9661599964205312, 0.5219588915938588,
         0.6832849300213242, -0.7011470950845103, 0.49180803894099817,
         -0.7868343721881746, 0.36756250021434456, 0.8077438745908311,
         -0.9940682978663187, 0.9991417569443934, 0.7704781005345889,
         0.9504062683533195, -0.21227618051952335, -0.22683471420316953,
         0.16236923758124233, 0.22744218216861314, 0.828218881678979,
         -0.7316715446293177, 0.439726521681611, 0.4257926358093549,
         0.7422485615813956, 0.9839272772579519, 0.6990145873142228),
        -0.9482124956842244)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.shapes = {"interpolate": {}, "derivative": {}}
        blocks = [self._block(rng, family, n) for family, n in self.SETS]
        rng.shuffle(blocks)
        # round-robin over the sets, one point at a time, so any stretch
        # of the run holds the same mix of ops
        ops = [op for k in range(self.POINTS) for block in blocks
               for op in block[k]]
        self.pool = [op[:3] for op in ops if not op[3]]
        self.defect_pool = [op[:3] for op in ops if op[3]]
        xs, x = self.RATIO_FORM_CASE
        fs = [math.exp(v) for v in xs]
        S = dd.SampleSet(xs, fs)
        self.defect_pool.append((
            "interpolate_barycentric independent-draws n=32 r=0",
            lambda: dd.interpolate_barycentric(S, 0, x),
            close(*refs.interp_ref(xs, fs, x))))

    @staticmethod
    def nodes(family, n, rng):
        if family == "chebyshev-sorted":  # the order the CLI passes in
            return sorted(math.cos(math.pi * k / n) for k in range(n + 1))
        if family == "equispaced":
            return [-1.0 + 2.0 * k / n for k in range(n + 1)]
        # arcsine-clustered random nodes in a random order: one node per
        # cell of an even angle grid, jittered within the cell's middle
        # half.  Independent draws would now and then put two nodes so
        # close that the seed's output depends on the seed's luck (see
        # check_defects); the jitter keeps every seed's conditioning alike.
        xs = [math.cos(math.pi * (k + rng.uniform(0.25, 0.75)) / (n + 1))
              for k in range(n + 1)]
        rng.shuffle(xs)
        return xs

    def _block(self, rng, family, n):
        """Per point, the ops (kind, call, check, defect) on one sample set;
        ``defect`` marks the KNOWN_DEFECTS categories."""
        xs = self.nodes(family, n, rng)
        fs = [math.exp(x) for x in xs]
        poly = refs.random_poly(rng, min(n, 6))
        ps = [float(poly(Fraction(x))) for x in xs]
        S = dd.SampleSet(xs, fs)
        P = dd.SampleSet(xs, ps)
        h = 2.0 / n
        mid = n // 2
        where = f"{family} n={n}"
        sorted_big = family == "chebyshev-sorted" and n == 128
        points = []
        for k in range(self.POINTS):
            ops = []
            points.append(ops)
            x = _off_node(rng, -1.0, 1.0, xs)
            ref, tol = refs.interp_ref(xs, fs, x)
            value = close(ref, tol)
            for r in (0, mid, n):
                defect = n == 128 and r > 0
                ops.append((f"interpolate_general {where} r={r}",
                            lambda r=r, x=x: dd.interpolate_general(S, r, x),
                            value, defect))
                ops.append((f"interpolate_barycentric {where} r={r}",
                            lambda r=r, x=x: dd.interpolate_barycentric(S, r, x),
                            value, defect))
                self._count("interpolate", (n, r))
            ref, tol = refs.dd_function_ref(xs, fs, mid, x)
            ops.append((f"extended_dd_eval {where} r={mid}",
                        lambda x=x: dd.extended_dd_eval(S, mid, x, barycentric=True),
                        close(ref, tol), sorted_big))
            if k % self.DERIV_EVERY:
                continue
            for t in (1, 2):
                ref, tol = refs.poly_derivative_ref(poly, xs, ps, x, t)
                ops.append((f"derivative_uneven {where} t={t}",
                            lambda t=t, x=x: dd.derivative_uneven(P, x, t),
                            close(ref, tol), True))
                self._count("derivative", (n, t))
            ref, tol = refs.poly_step_integral_ref(poly, xs, ps, x, h)
            ops.append((f"quad_uneven {where}", lambda x=x: dd.quad_uneven(P, x, h),
                        close(ref, tol), True))
        return points

    def _count(self, kind, shape):
        bucket = self.shapes[kind]
        bucket[shape] = bucket.get(shape, 0) + 1

    def tally_inputs(self):
        """One sample set per n, for the op-count tallies."""
        out = {}
        for family, n in self.SETS:
            xs = self.nodes("equispaced", n, None)
            out[n] = dd.SampleSet(xs, [math.exp(x) for x in xs])
        return out

    def phase(self, ledger, seconds):
        """Whole passes over the pool until ``seconds`` have passed, one
        block each, so every block and run sees the same mix of ops."""
        end = perf_counter() + seconds
        while True:
            for kind, call, check in self.pool:
                ledger.run(kind, call, check)
            ledger.end_block()
            if perf_counter() >= end:
                return

    def check_defects(self, ledger):
        """One pass over the known-defect ops, checked like the rest."""
        for kind, call, check in self.defect_pool:
            ledger.run(kind, call, check)

    def record(self):
        return {"node_families": [f"{f} n={n}" for f, n in self.SETS],
                "points_per_set": self.POINTS,
                "order": "sets visited round-robin, one point at a time",
                "ops_per_pass": len(self.pool),
                "defect_ops": len(self.defect_pool),
                "interp_r": "0, n/2, n", "extended_dd_r": "n/2",
                "derivative_and_quad_every": self.DERIV_EVERY,
                "data": "f = exp for values; a random degree-min(n,6) "
                        "polynomial for derivatives and step integrals",
                "quad_step": "h = 2/n"}


class WindowStream:
    name = "window-stream"
    why = ("Every sample set is used once, so plan reuse is bypassed: the "
           "cost is per-call validation, table build and derivative "
           "basis/rho work.")
    N = 8
    R = 4
    # p99.9 of ops this cheap is set by interpreter and host hiccups; p99
    # of a block of BLOCK_WINDOWS windows leaves 80 samples beyond it
    TAIL_PCT = 99.0
    BLOCK_WINDOWS = 2000
    # quad_uneven misses the tolerance more often further along the series
    # (2 % of the first 300 windows, two thirds of every 100th of the
    # first 30000; errors up to 40 times the bound), so its step runs only
    # in check_defects, on every DEFECT_STRIDE-th window
    KNOWN_DEFECTS = ScatterReuse.KNOWN_DEFECTS[-1:]
    DEFECT_WINDOWS = 300
    DEFECT_STRIDE = 100

    def __init__(self, seed):
        self.seed = seed
        self.shapes = {"interpolate": {(self.N, self.R): 1},
                       "derivative": {(self.N, 1): 1, (self.N, 2): 1}}
        self.windows_run = 0

    @staticmethod
    def signal(x):
        return math.sin(0.3 * x) + 0.5 * math.cos(0.11 * x + 1.0)

    def _windows(self):
        rng = random.Random(self.seed)
        xs, x = [], 0.0
        while True:
            xs.append(x)
            x += 1.0 + rng.uniform(-0.4, 0.4)
            if len(xs) > self.N + 1:
                xs.pop(0)
            if len(xs) == self.N + 1:
                left, right = xs[self.R], xs[self.R + 1]
                gap = right - left
                yield (list(xs), [self.signal(v) for v in xs],
                       left + gap * rng.uniform(0.25, 0.75), gap / 4)

    def tally_inputs(self):
        xs, fs, _, _ = next(self._windows())
        return {self.N: dd.SampleSet(xs, fs)}

    def phase(self, ledger, seconds):
        windows = self._windows()
        in_block = itertools.count(1)

        def step():
            xs, fs, x, h = next(windows)
            self.windows_run += 1
            interp = refs.interp_ref(xs, fs, x)
            d1 = refs.derivative_ref(xs, fs, x, 1)
            d2 = refs.derivative_ref(xs, fs, x, 2)
            want = (tuple(xs), tuple(fs))
            S = ledger.run("SampleSet", lambda: dd.SampleSet(xs, fs),
                           lambda s: (s.nodes, s.values) == want)
            if S is None:
                S = dd.SampleSet(xs, fs)
            ledger.run("interpolate_general",
                       lambda: dd.interpolate_general(S, self.R, x), close(*interp))
            ledger.run("derivative_uneven",
                       lambda: dd.derivative_uneven(S, x, 1), close(*d1))
            ledger.run("derivative_uneven",
                       lambda: dd.derivative_uneven(S, x, 2), close(*d2))
            if next(in_block) % self.BLOCK_WINDOWS == 0:
                ledger.end_block()

        run_for(seconds, step)

    def check_defects(self, ledger):
        """One quad_uneven step on DEFECT_WINDOWS windows spread over the
        stretch of the series a run covers."""
        for xs, fs, x, h in itertools.islice(
                self._windows(), 0, self.DEFECT_WINDOWS * self.DEFECT_STRIDE,
                self.DEFECT_STRIDE):
            S = dd.SampleSet(xs, fs)
            ledger.run("quad_uneven", lambda: dd.quad_uneven(S, x, h),
                       close(*refs.step_integral_ref(xs, fs, x, h)))

    def record(self):
        return {"node_families": [f"jittered series, window n={self.N}"],
                "series": "x_{k+1} = x_k + 1 + U(-0.4, 0.4); "
                          "f = sin(0.3x) + 0.5cos(0.11x + 1)",
                "points_per_set": 1, "split_r": self.R,
                "ops_per_window": "SampleSet, interpolate_general, "
                                  "derivative_uneven t=1,2",
                "windows_run": self.windows_run,
                "defect_ops": f"quad_uneven on every {self.DEFECT_STRIDE}th "
                              f"of the first "
                              f"{self.DEFECT_WINDOWS * self.DEFECT_STRIDE} "
                              "windows, anchor in the middle half of the "
                              "centre gap, h = gap/4"}


# ---------------------------------------------------------------------------

def _zipf_cum(count, s=1.1):
    acc, out = 0.0, []
    for k in range(1, count + 1):
        acc += k ** -s
        out.append(acc)
    return out


class GridWeights:
    name = "grid-weights"
    why = ("Even-grid derivative and quadrature requests with Zipf-repeated "
           "keys: cold keys pay exact Fraction coefficient generation, "
           "repeated keys and composite panels pay only for applying weights.")
    T_MAX = 4
    # The requests and their references are drawn once, at set-up, and the
    # run passes over them again and again, one block per pass: drawn on
    # the fly, the reference work per request cut the timed requests to a
    # host-dependent 25-40 thousand a run and every block held another key
    # mix, which spread ops_per_s by 9 % between runs.  Keys are drawn
    # stratified (one uniform per equal slice of [0, 1) for each kind and
    # data type) so every seed's pool holds nearly the same key counts.
    POOL_REQUESTS = 2000
    # p99.9 sits on the four composite requests of a pass and moves with
    # how well the probes bracket them; p99 of a pass leaves 20 beyond it
    TAIL_PCT = 99.0
    PANELS = 10_000
    COMPOSITE_EVERY = 500
    FRACTION_EVERY = 20
    # fixed kind schedule, so every run and seed sees the same kind mix
    SCHEDULE = ("forward", "twosided", "central", "stencil", "even_quad",
                "forward", "twosided", "central", "stencil", "central_quad",
                "forward", "twosided", "central", "stencil", "even_quad",
                "forward", "twosided", "central", "stencil", "even_quad")
    KNOWN_DEFECTS = ()

    def __init__(self, seed):
        tm = self.T_MAX
        # popularity follows size: small stencils and rules are the common keys
        keys = {
            "forward": [(0, n, t) for n in range(1, 13)
                        for t in range(1, min(tm, n) + 1)],
            "twosided": [(m, n, t) for m in range(1, 13) for n in range(1, 13)
                         for t in range(1, min(tm, m + n) + 1)],
            "central": [(n, n, t) for n in range(1, 13)
                        for t in range(1, min(tm, 2 * n) + 1)],
            "stencil": [(m, n, t) for m in range(13) for n in range(13)
                        for t in range(1, min(tm, m + n) + 1)],
            "even_quad": [(n,) for n in range(1, 25)],
            "central_quad": [(n,) for n in range(1, 13)],
            "composite": [(2,)],  # Simpson panels, one cost per request
        }
        for kind in ("forward", "twosided", "central", "stencil"):
            keys[kind].sort(key=lambda k: (k[0] + k[1], k[2], k[0]))
        self.keys = keys
        self.cum = {kind: _zipf_cum(len(v)) for kind, v in keys.items()}
        self.deriv_weights = {}  # (m, n) -> {t: exact weights}
        self.quad_weights = {}   # (kind, n) -> exact weights
        self.composite_data = {}
        self.shapes = {"interpolate": {}, "derivative": {}}
        self.fractions = self.repeats = 0
        self.seen = set()
        rng = random.Random(seed)
        self.pool = [self._request(rng, index, key)
                     for index, key in enumerate(self._stratified_keys(rng))]
        self.requests_run = 0

    def _slot(self, index):
        """(kind, exact Fraction data?) of pool request ``index``."""
        if index % self.COMPOSITE_EVERY == self.COMPOSITE_EVERY - 1:
            return "composite", False
        return (self.SCHEDULE[index % len(self.SCHEDULE)],
                index % self.FRACTION_EVERY == 7)

    def _stratified_keys(self, rng):
        """Zipf keys for every pool slot, stratified per slot class and
        shuffled within it."""
        classes = {}
        for index in range(self.POOL_REQUESTS):
            classes.setdefault(self._slot(index), []).append(index)
        keys = [None] * self.POOL_REQUESTS
        for (kind, _), slots in classes.items():
            cum, count = self.cum[kind], len(slots)
            drawn = [self.keys[kind][bisect.bisect_left(
                         cum, (j + rng.random()) / count * cum[-1])]
                     for j in range(count)]
            rng.shuffle(drawn)
            for index, key in zip(slots, drawn):
                keys[index] = key
        return keys

    @staticmethod
    def tally_inputs():
        return {}

    # -- exact references, built on first use and kept for the run --------

    def _dweights(self, m, n):
        if (m, n) not in self.deriv_weights:
            self.deriv_weights[m, n] = refs.grid_derivative_weights(
                range(-m, n + 1), self.T_MAX)
        return self.deriv_weights[m, n]

    def _qweights(self, kind, n):
        if (kind, n) not in self.quad_weights:
            if kind == "central_quad":
                w = refs.grid_quad_weights(range(-n, n + 1), -n, n)
            else:
                w = refs.grid_quad_weights(range(n + 1), 0, n)
            self.quad_weights[kind, n] = w
        return self.quad_weights[kind, n]

    def _composite(self, rng, n):
        """Float samples of a degree-n polynomial at panels*n + 1 even points
        of [0, 1], its exact integral, and sum |c_k| (1 + n), which bounds
        |P| + |P'| there and so the data's rounding."""
        if n not in self.composite_data:
            poly = refs.random_poly(rng, n)
            coeffs = [float(c) for c in poly.coefficients]
            count = self.PANELS * n + 1
            values = []
            for i in range(count):
                x, acc = i / (count - 1), 0.0
                for c in reversed(coeffs):
                    acc = acc * x + c
                values.append(acc)
            big = sum(abs(c) for c in coeffs) * (1 + n)
            self.composite_data[n] = (values, float(poly.definite_integral(0, 1)),
                                      big)
        return self.composite_data[n]

    # -- one request --------------------------------------------------------

    def _request(self, rng, index, key):
        """Pool request ``index`` on ``key``: (kind, call, check)."""
        kind, exact = self._slot(index)
        self.fractions += exact
        if (kind, key) in self.seen:
            self.repeats += 1
        self.seen.add((kind, key))

        if kind == "composite":
            n = key[0]
            values, ref, big = self._composite(rng, n)
            w = self._qweights("even_quad", n)
            kappa = sum(abs(float(c)) for c in w) / n * big
            tol = 2 * (3 * n + 4 + 2 * n + self.PANELS) * refs.U * kappa \
                + 2 * refs.U * abs(ref)
            return ("quad_composite",
                    lambda: dd.quad_composite(values, 0.0, 1.0, self.PANELS, n),
                    close(ref, tol))

        a = Fraction(rng.randint(-64, 64), 64)
        h = Fraction(rng.randint(3, 13), 64)  # dyadic: exact as a float too
        if kind in ("even_quad", "central_quad"):
            n = key[0]
            offsets = range(-n, n + 1) if kind == "central_quad" else range(n + 1)
            lo = -n if kind == "central_quad" else 0
            degree = min(len(offsets) - 1, 6)
        else:
            m, n, t = key
            offsets = range(-m, n + 1)
            degree = min(m + n, max(t, 6))
        poly = refs.random_poly(rng, degree)
        exact_vals = [poly(a + o * h) for o in offsets]
        vals = exact_vals if exact else [float(v) for v in exact_vals]
        hh = h if exact else float(h)

        if kind in ("even_quad", "central_quad"):
            # the rule's exact weights are checked along with its value
            w = self._qweights(kind, n)
            ref = poly.definite_integral(a + lo * h, a + n * h)
            builder = (dd.central_quad_weights if kind == "central_quad"
                       else dd.even_quad_weights)

            def call():
                plan = builder(n)
                return plan.node_weights, plan.apply(vals, hh)
            kappa = float(h) * sum(abs(float(c) * float(v))
                                   for c, v in zip(w, vals))
        else:
            w = self._dweights(m, n)[t]
            ref = poly.derivative(t)(a)
            kappa = sum(abs(float(c) * float(v)) for c, v in zip(w, vals)) \
                / float(h) ** t
            if kind == "stencil":
                def call():
                    st = dd.stencil_weights(m, n, t)
                    return st.weights, st.apply(vals, hh)
            else:
                w = None  # the grid formulas do not expose their weights
                if kind == "forward":
                    call = lambda: (None, dd.forward_derivative(vals, hh, t))
                elif kind == "central":
                    call = lambda: (None, dd.central_derivative(vals, hh, t))
                else:
                    call = lambda: (None, dd.twosided_derivative(vals, hh, t, m))
        if exact:
            check = lambda got: got[0] == w and got[1] == ref \
                and isinstance(got[1], Fraction)
        else:
            tol = refs.gamma(len(offsets) - 1) * kappa
            fref = float(ref)
            check = lambda got: got[0] == w and abs(got[1] - fref) <= tol
        return kind, call, check

    def phase(self, ledger, seconds):
        """Whole passes over the pool until ``seconds`` have passed, one
        block each."""
        end = perf_counter() + seconds
        while True:
            for kind, call, check in self.pool:
                ledger.run(kind, call, check)
            ledger.end_block()
            self.requests_run += len(self.pool)
            if perf_counter() >= end:
                return

    def record(self):
        return {"kinds": "forward/twosided/central_derivative, "
                         "stencil_weights(...).apply, even_quad_weights(n<=24), "
                         "central_quad_weights(n<=12), quad_composite",
                "derivative_keys": f"m, n <= 12, t <= {self.T_MAX}",
                "zipf_exponent": 1.1,
                "composite": f"{self.PANELS} panels, every "
                             f"{self.COMPOSITE_EVERY}th request",
                "pool_requests": len(self.pool),
                "requests_run": self.requests_run,
                "repeat_key_share_in_pool": self.repeats / len(self.pool),
                "fraction_share": self.fractions / len(self.pool),
                "distinct_keys": len(self.seen)}
