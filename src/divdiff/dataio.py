"""CSV ingestion for the command-line tools.

Rows are ``x,y`` decimal pairs; ``#`` starts a comment line and a single
non-numeric first row is accepted as a header.  A number that is inf or
nan, or overflows to inf, is a parse error naming its line and column.  Rows are sorted by x on
load, with the original ordering kept for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .samples import SampleSet


class ParseError(ValueError):
    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{where}: {message}")


def _parse_number(token, rational):
    text = token.strip()
    if rational:
        return Fraction(text)
    return float(text)


@dataclass(frozen=True)
class DataFile:
    """Parsed (x, y) rows, sorted ascending by x."""

    xs: tuple
    ys: tuple
    header: tuple | None
    original_order: tuple  # position of each sorted row in the input

    def to_sample_set(self) -> SampleSet:
        return SampleSet(self.xs, self.ys)


def parse_data(text: str, rational: bool = False) -> DataFile:
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p for p in line.split(",") if p.strip() != ""]
        if len(parts) != 2:
            raise ParseError(f"expected two comma-separated fields, got {len(parts)}",
                             lineno)
        try:
            x = _parse_number(parts[0], rational)
        except (ValueError, ZeroDivisionError):
            if header is None and not rows:
                header = tuple(p.strip() for p in parts)
                continue
            raise ParseError(f"bad number {parts[0].strip()!r}", lineno, 1) from None
        try:
            y = _parse_number(parts[1], rational)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad number {parts[1].strip()!r}", lineno, 2) from None
        for column, (v, token) in enumerate(zip((x, y), parts), start=1):
            if not rational and not math.isfinite(v):
                raise ParseError(f"non-finite number {token.strip()!r}",
                                 lineno, column)
        rows.append((x, y))
    if not rows:
        raise ParseError("no data rows", 1)
    order = sorted(range(len(rows)), key=lambda i: rows[i][0])
    xs = tuple(rows[i][0] for i in order)
    ys = tuple(rows[i][1] for i in order)
    return DataFile(xs, ys, header, tuple(order))


def read_data(path, rational: bool = False) -> DataFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_data(fh.read(), rational)
