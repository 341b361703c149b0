"""Sample-set and grid containers, the cardinal-basis kernel, and the
tracer that compiles an arithmetic loop once per shape, shared by every
other module.

Nodes are kept in the numeric type they arrive in: pass floats for the
ordinary fast path, or :class:`fractions.Fraction` everywhere for exact
arithmetic.  No epsilon-merging is ever applied -- coincident nodes are a
hard error.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

_set = object.__setattr__  # bypasses _Record.__setattr__


class _Record:
    """Base of the library's value classes.

    A subclass names its fields in ``_fields``; ``==``, ``hash`` and
    ``repr`` read them in that order.  ``==`` holds only between instances
    of the same class (``NotImplemented`` otherwise), ``hash`` is the hash
    of the field tuple (a TypeError when a field is a list), and assigning
    or deleting an attribute raises AttributeError: ``__init__`` sets the
    fields through :meth:`_init`, or through ``_set`` on a hot path.
    ``copy`` and ``pickle`` rebuild an instance from its fields, so caches
    kept on it start empty.
    """

    __slots__ = ()
    _fields = ()

    def _init(self, *values):
        """Set the fields, in ``_fields`` order, to ``values`` (about
        0.4 us slower than one ``_set`` line per field)."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _fraction_text(q):
    """``(str(q), True)`` for the Fraction ``q``, or ``(_rounded17(q),
    False)`` when q has more digits than Python converts to a string
    (``sys.get_int_max_str_digits``): what every exact value prints."""
    try:
        return str(q), True
    except ValueError:
        return _rounded17(q), False


def _rounded17(q):
    """The Fraction ``q`` rounded half to even to 17 significant digits,
    in ``format(Decimal, "g")`` layout: one correctly rounded division."""
    from decimal import ROUND_HALF_EVEN, Context, Decimal
    return format(Context(prec=17, rounding=ROUND_HALF_EVEN).divide(
        Decimal(q.numerator), Decimal(q.denominator)), "g")


def _check_finite(v, name):
    """ValueError ``name=v is not finite`` when v is an inf or nan float;
    ints and Fractions are always finite."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{name}={v} is not finite")


def _as_order(value, name, low=None, high=None):
    """``value`` as an int (``operator.index``, so ``True`` is 1 and 2.0 a
    TypeError ``name must be an integer, got 2.0``), and a ValueError
    outside ``low..high``, ``name=v out of range low..high``, or without
    ``high`` below ``low``, ``name must be >= low``: the type and range
    check of every public order, count, split index and rule size."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if high is not None:
        if not low <= value <= high:
            raise ValueError(f"{name}={value} out of range {low}..{high}")
    elif low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


# the most entries a kernel's recorded tape may hold, placeholders included:
# _trace stops recording at the first entry past it and runs the loop
# itself.  It admits the O(n) repeat loops of a split plan up to 129 nodes
# (1035 entries) and no O(n^2) first-call loop on 33 (1777 and more).
# Recording and compiling a kernel at the budget takes about 10 ms, and a
# recording cut at it about 3 ms, once per shape (Python 3.11, one x86-64
# core)
_TAPE_BUDGET = 1200


def _compile_kernel(lines, label):
    """The function ``kernel`` that the source ``lines`` define, compiled
    under the file name ``<label>``: every traced or generated kernel.  Its
    source holds fixed text and index-built names (``a0_3``, ``t5``,
    ``w0``), never a value of the data, so one kernel serves a shape."""
    namespace = {}
    exec(compile("\n".join(lines), f"<{label}>", "exec"), namespace)
    return namespace["kernel"]


class _Tape(list):
    """The placeholders and operations of one recording, in order.
    ``written`` maps each operator and the ids of its operands to the
    value it gave when the recording shares its operations (a kernel's),
    and is None when it keeps every one (an op count's); ``budget`` is the
    most entries it takes (a kernel's :data:`_TAPE_BUDGET`, or none)."""

    __slots__ = ("written", "budget")

    def release(self):
        """Drop the entries and ``written``: each entry refers to the tape,
        so this frees them as soon as nothing else holds them."""
        self.clear()
        self.written = None


class _OverBudget(Exception):
    """Raised by the entry that takes a tape past its budget; its one
    argument is the tape."""


class _Traced:
    """A placeholder value of a loop that :func:`_record` runs: each ``+ -
    * /`` on it, with a placeholder or an ``int`` on the other side, and
    each unary minus appends one operation to its tape.  On a tape that
    shares its operations, the same operator on the same operands gives
    the value it gave before, and a computed value times the ``int`` 1 is
    that value (a placeholder times 1 stays a product: ``True * 1`` is an
    ``int``).  Testing it (``bool``, ``==`` and so ``in``, ordering,
    ``hash``) raises TypeError: a loop that branches on its data has no
    one trace."""

    __slots__ = ("tape", "op", "args", "uses", "name")

    def __init__(self, tape, op, args=(), name=None):
        self.tape, self.op, self.args, self.uses, self.name = \
            tape, op, args, 0, name
        tape.append(self)
        if len(tape) > tape.budget:
            raise _OverBudget(tape)

    def _record(self, op, *args):
        if not all(isinstance(a, _Traced) or type(a) is int for a in args):
            return NotImplemented
        written = self.tape.written
        if written is None:
            return _Traced(self.tape, op, args)
        if op == "*":
            for a, b in (args, args[::-1]):
                if type(b) is int and b == 1 and type(a) is _Traced and a.op:
                    return a
        key = (op, *map(id, args))  # the args keep each id's object alive
        value = written.get(key)
        if value is None:
            value = written[key] = _Traced(self.tape, op, args)
        return value

    def __neg__(self):
        return self._record("-", self)

    def _refuse(self, *_):
        raise TypeError("a traced loop tested a value of its data")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = \
        __hash__ = _refuse


for _op, _name in zip("+-*/", ("add", "sub", "mul", "truediv")):
    setattr(_Traced, f"__{_name}__", lambda a, b, op=_op: a._record(op, a, b))
    setattr(_Traced, f"__r{_name}__", lambda a, b, op=_op: a._record(op, b, a))
del _op, _name


def _parameters(loop, key):
    """The number of ``loop``'s positional parameters, and its keyword-only
    ones set to the values that follow them in ``key``; a loop that
    ``functools.wraps`` wraps is read through the wrapper."""
    code = getattr(loop, "__wrapped__", loop).__code__
    count = code.co_argcount
    return count, dict(zip(code.co_varnames[count:], key[count:]))


def _record(loop, key, share=False):
    """Run ``loop`` once on fresh :class:`_Traced` placeholders, shaped by
    ``key`` as :func:`_trace` reads it: the placeholders, the tape of them
    and of every operation on them in order (of each distinct one, with
    ``share``), and the result.  Nothing is compiled.  With ``share`` the
    tape holds at most :data:`_TAPE_BUDGET` entries, and the entry past
    them raises :class:`_OverBudget`; without, it records in full."""
    count, keywords = _parameters(loop, key)
    tape = _Tape()
    tape.written, tape.budget = ({}, _TAPE_BUDGET) if share else \
        (None, math.inf)
    args = [_Traced(tape, None, name=f"a{k}") if size is None else
            tuple(_Traced(tape, None, name=f"a{k}_{i}") for i in range(size))
            for k, size in enumerate(key[:count])]
    return args, tape, loop(*args, **keywords)


@functools.lru_cache(maxsize=None)
def _op_counts(loop, *key):
    """The additions, subtractions, multiplications and divisions that
    ``loop`` performs on its data at the shape ``key`` (as :func:`_trace`
    reads it), counted once per shape off its recorded tape, at any size;
    unary minus is free."""
    ops = [v.op for v in _record(loop, key)[1] if len(v.args) == 2]
    return tuple(map(ops.count, "+-*/"))


def _charge(tally, loop, *key):
    """Add :func:`_op_counts` of ``loop`` at ``key`` to the ``OpTally``
    ``tally``."""
    for name, count in zip(("additions", "subtractions", "multiplications",
                            "divisions"), _op_counts(loop, *key)):
        setattr(tally, name, getattr(tally, name) + count)


@functools.lru_cache(maxsize=None)
def _trace(loop, *key):
    """``loop`` as one straight-line kernel, traced and compiled once per
    key: the shape of each positional parameter of the loop (the length
    of a sequence, or None for a single value), then the values of its
    keyword-only parameters, which the kernel fixes (a flat key, as every
    call looks it up and a nested one hashes slower).  When the recording
    runs past :data:`_TAPE_BUDGET` entries, placeholders included, it
    stops there, and the result is the loop itself with those values
    fixed, so every caller runs ``_trace(loop, *key)(*args)`` at any size
    and the budget alone decides which shapes compile: the O(n) loops of a
    split plan's repeat point up to about 150 nodes, the O(n^2) ones of a
    first call up to about 20.

    The kernel forms each distinct operation that :func:`_record` taped
    once (it records with ``share``): one operator on the same operands is
    written once and its value reused, and a product by the ``int`` 1 of
    a computed value is that value.  Neither can change a float, a
    ``Fraction`` or an ``int``, so the kernel gives the loop's values and
    types, with at most the loop's operations: tallies are charged off
    the loops (:func:`_op_counts`), never off a kernel.  Every other
    operation is kept, dead ones too, so the kernel raises where the
    loop does.  A value used once, not returned, is written into its
    consumer; every other value gets a name."""
    count, keywords = _parameters(loop, key)
    try:
        args, tape, result = _record(loop, key, share=True)
    except _OverBudget as over:
        over.args[0].release()
        return functools.partial(loop, **keywords)
    lines = ["".join(f"{v.name}, " for v in arg) + f"= a{k}"
             for k, arg in enumerate(args) if type(arg) is tuple and arg]

    def leaves(v):
        return ([leaf for item in v for leaf in leaves(item)]
                if type(v) in (list, tuple) else [v])

    def text(v):
        if type(v) in (list, tuple):
            items = "".join(f"{text(item)}, " for item in v)
            return f"[{items}]" if type(v) is list else f"({items})"
        if type(v) is int:
            return repr(v) if v >= 0 else f"({v})"
        if not isinstance(v, _Traced):
            raise TypeError(f"a traced loop returned {v!r}")
        if v.name:
            return v.name
        if len(v.args) == 1:
            return f"(-{text(v.args[0])})"
        return f"({text(v.args[0])} {v.op} {text(v.args[1])})"

    for v in [arg for op in tape for arg in op.args] + 2 * leaves(result):
        if isinstance(v, _Traced):
            v.uses += 1
    for v in tape:
        if v.op and v.uses != 1:
            lines.append(f"t{len(lines)} = {text(v)}")
            v.name = f"t{len(lines) - 1}"
    params = ", ".join(f"a{k}" for k in range(count))
    lines = [f"def kernel({params}):", *(f"    {line}" for line in lines),
             f"    return {text(result)}"]
    args = result = v = None  # free the placeholders before compiling
    tape.release()
    return _compile_kernel(lines, f"trace of {loop.__qualname__} {key}")


def _cardinal(nodes, x):
    """Cardinal basis values ``L_i(x) = num_i / den_i`` over ``nodes``,
    where ``num_i = prod_{j!=i} (x - x_j)`` and ``den_i = prod_{j!=i}
    (x_i - x_j)``, each product taken factor by factor from its first
    factor.  One node gives ``[1]``.

    The basis of the off-node routes' point slot (``rho_coeffs``, the
    step-integral weights): the trace of :func:`_cardinal_loop` where its
    tape fits :data:`_TAPE_BUDGET` (up to 21 nodes).  A derivative's first
    call at a point traces that loop inside its own kernel, and the
    tallied routes run the loop itself, so their tallies count it.

    The limit of this form on floats: ``den_i`` is a plain product, so on
    many nodes its running product underflows.  On the Chebyshev nodes
    ``cos(pi k / N)`` it goes subnormal from about N = 770, which costs
    digits (the basis values at x = 0.3 sum to 1 - 2e-6 at N = 800), and
    some ``den_i`` are 0.0 from N = 860, where the division raises
    ZeroDivisionError.
    """
    count = len(nodes)
    if count == 1:
        return [1]
    return _trace(_cardinal_loop, count, None)(nodes, x)


def _cardinal_loop(nodes, x):
    """:func:`_cardinal` on two nodes or more."""
    product = functools.partial(functools.reduce, operator.mul)
    return [product([x - xj for j, xj in enumerate(nodes) if j != i])
            / product([xi - xj for j, xj in enumerate(nodes) if j != i])
            for i, xi in enumerate(nodes)]


class SampleSet(_Record):
    """Ordered distinct abscissae with matching ordinates.

    ``nodes[k]`` carries the k-th abscissa, ``values[k]`` the sampled
    ordinate.  The order is meaningful: prefix-based formulas treat
    ``nodes[:r]`` as the fixed prefix.

    Each instance caches, in two slots that are not fields, what later
    calls at the same set reuse: its split-form plans
    (:func:`divdiff.tables.split_plan`), one per split index r, in a plain
    dict, and the cardinal basis at the most recent off-node point
    (:func:`divdiff.derivatives._at_point`), replaced whole by a new tuple
    at a new point.  A first split-form call at r, or derivative at a
    point, fills its cache from the kernel that also computes the value.
    Neither takes part in ``==``, ``hash`` or ``repr``, and every new
    instance, :meth:`subset` and :meth:`sorted` included, starts with both
    empty.

    Entries must be distinct, and floats finite: one ``math.fsum`` over
    the nodes and values vouches for float data (it is finite only when
    every entry converts to a finite float), and a first entry that is
    not a float, or a sum that overflows or raises, takes the check
    entry by entry, which passes ints and Fractions of any size and
    raises TypeError, naming ``nodes[k]`` or ``values[k]``, at an entry
    that is not an int, a float or a Fraction (subclasses, bool among
    them, pass).
    """

    _fields = ("nodes", "values")
    __slots__ = _fields + ("_plans", "_point")

    def __init__(self, nodes, values):
        nodes = tuple(nodes)
        values = tuple(values)
        _set(self, "nodes", nodes)
        _set(self, "values", values)
        if len(nodes) != len(values):
            raise ValueError("nodes and values must have equal length")
        if not nodes:
            raise ValueError("need at least one sample")
        data = nodes + values
        try:
            finite = type(nodes[0]) is float and \
                math.isfinite(math.fsum(data))
        except (OverflowError, TypeError, ValueError):
            finite = False
        if not finite:
            for k, v in enumerate(data):
                if not isinstance(v, (int, float, Fraction)):
                    name = "nodes" if k < len(nodes) else "values"
                    raise TypeError(f"{name}[{k % len(nodes)}] is not a "
                                    f"number: {v!r}")
                # ints and Fractions are always finite
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError("non-finite entry in sample set")
        if len(set(nodes)) != len(nodes):
            raise ValueError("coincident nodes")
        _set(self, "_plans", {})
        _set(self, "_point", None)

    @property
    def n(self) -> int:
        """Highest index, i.e. sample count minus one."""
        return len(self.nodes) - 1

    def subset(self, indices):
        """New SampleSet over the selected indices, in the given order."""
        idx = list(indices)
        return SampleSet([self.nodes[i] for i in idx], [self.values[i] for i in idx])

    def sorted(self):
        order = sorted(range(len(self.nodes)), key=lambda i: self.nodes[i])
        return self.subset(order)


class GridSpec(_Record):
    """Evenly spaced node layout ``origin + i*step`` for i in -backward..forward."""

    __slots__ = _fields = ("origin", "step", "forward_count", "backward_count")

    def __init__(self, origin, step, forward_count=0, backward_count=0):
        forward_count = _as_order(forward_count, "forward_count", 0)
        backward_count = _as_order(backward_count, "backward_count", 0)
        _check_finite(origin, "origin")
        # ints and Fractions are always finite
        if step == 0 or isinstance(step, float) and not math.isfinite(step):
            raise ValueError("step must be finite and nonzero")
        self._init(origin, step, forward_count, backward_count)

    def offsets(self):
        return list(range(-self.backward_count, self.forward_count + 1))

    def nodes(self):
        return [self.origin + i * self.step for i in self.offsets()]

    def sample(self, func) -> SampleSet:
        xs = self.nodes()
        return SampleSet(xs, [func(x) for x in xs])


def uniform_step(nodes, rel_tol=1e-12):
    """Return the common spacing of ``nodes`` or None if they are not a grid.

    Detection only: the node values themselves are never altered.  The
    spacing is ``(x_n - x_0)/n`` and every gap must match it to ``rel_tol``
    relatively.
    """
    xs = list(nodes)
    if len(xs) < 2:
        return None
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    if h == 0:
        return None
    for a, b in zip(xs, xs[1:]):
        if abs((b - a) - h) > rel_tol * abs(h):
            return None
    return h
