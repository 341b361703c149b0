"""Arithmetic-operation tallies for the reference evaluation paths.

An :class:`OpTally` is threaded through a call as an explicit argument.
The call computes its value by its reference loop on plain values, then
charges the tally every ``+ - * /`` that loop performs on data at the
call's shape, counted off the loop's recorded tape once per shape
(:func:`divdiff.samples._op_counts`).  Negation, comparisons and integer
bookkeeping are free, matching the costing convention of the closed-form
count formulas.
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
    """Mutable counter; take a :meth:`snapshot` to get frozen counts.

    A tallied call charges it only after its value is computed, so a call
    that raises charges nothing."""

    __slots__ = ("additions", "subtractions", "multiplications", "divisions")

    def __init__(self):
        self.additions = 0
        self.subtractions = 0
        self.multiplications = 0
        self.divisions = 0

    def snapshot(self) -> OpCounts:
        return OpCounts(self.additions, self.subtractions,
                        self.multiplications, self.divisions)
