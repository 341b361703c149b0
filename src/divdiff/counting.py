"""Arithmetic-operation tallies for the reference evaluation paths.

An :class:`OpTally` is threaded through a call as an explicit argument;
values are wrapped so that every `+ - * /` on data increments the tally.
Negation, comparisons and integer bookkeeping are free, matching the
costing convention of the closed-form count formulas.
"""

from __future__ import annotations

from .samples import _Record


class OpCounts(_Record):
    """Frozen operation counts; :meth:`as_tuple` is their tuple form."""

    __slots__ = _fields = ("additions", "subtractions", "multiplications",
                           "divisions")

    def __init__(self, additions=0, subtractions=0, multiplications=0,
                 divisions=0):
        self._init(additions, subtractions, multiplications, divisions)

    def as_tuple(self):
        """``(additions, subtractions, multiplications, divisions)``."""
        return self._astuple()

    def total(self) -> int:
        return self.additions + self.subtractions + self.multiplications + self.divisions


class OpTally:
    """Mutable counter; take a :meth:`snapshot` to get frozen counts."""

    __slots__ = ("additions", "subtractions", "multiplications", "divisions")

    def __init__(self):
        self.additions = 0
        self.subtractions = 0
        self.multiplications = 0
        self.divisions = 0

    def snapshot(self) -> OpCounts:
        return OpCounts(self.additions, self.subtractions,
                        self.multiplications, self.divisions)


def _raw(v):
    return v.value if isinstance(v, Counted) else v


class Counted:
    """Numeric wrapper that charges each arithmetic op to a tally.  Only
    ``+`` and ``*`` reflect: data stay left of every ``-`` and ``/``."""

    __slots__ = ("value", "tally")

    def __init__(self, value, tally: OpTally):
        self.value = value
        self.tally = tally

    def __add__(self, other):
        self.tally.additions += 1
        return Counted(self.value + _raw(other), self.tally)

    __radd__ = __add__

    def __sub__(self, other):
        self.tally.subtractions += 1
        return Counted(self.value - _raw(other), self.tally)

    def __mul__(self, other):
        self.tally.multiplications += 1
        return Counted(self.value * _raw(other), self.tally)

    __rmul__ = __mul__

    def __truediv__(self, other):
        self.tally.divisions += 1
        return Counted(self.value / _raw(other), self.tally)

    def __neg__(self):
        return Counted(-self.value, self.tally)

    def __eq__(self, other):
        return self.value == _raw(other)
