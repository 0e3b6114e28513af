"""Hankel-type matrix construction from recurrence terms.

Entry (i, j) of a d x d build is a function of the single index n+i+j,
so every anti-diagonal is constant and the matrix is symmetric:

  rising mode:  W_{n+i+j} * W_{n+i+j+1} * ... * W_{n+i+j+r-1}
  power mode:   W_{n+i+j} ** r          (r = 0 gives the all-ones matrix)

anti_diagonal holds that rule: the values h_k a build's anti-diagonals
carry, for one build or for a run of builds at n, n+1, ..., which
determinant.det_hankel_strip reads as one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from . import ring
from .ring import ExactScalar
from .sequence import RecurrenceSpec, SequenceCache, cache_for

RISING = "rising"
POWER = "power"
MODES = (RISING, POWER)


@dataclass(frozen=True)
class MatrixQuery:
    n: int
    r: int
    d: int
    mode: str = RISING

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("matrix dimension d must be at least 1")
        if self.r < 0:
            raise ValueError("power length r must be non-negative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


class SquareMatrix:
    """Immutable dense square matrix of ExactScalars in one domain."""

    __slots__ = ("rows", "dim", "domain")

    def __init__(self, rows: Sequence[Sequence[ExactScalar]]):
        rows = tuple(tuple(row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("rows must form a non-empty square")
        domains = {entry.domain for row in rows for entry in row}
        if len(domains) != 1:
            raise ValueError(f"entries span domains {sorted(domains)}")
        self.rows = rows
        self.dim = len(rows)
        self.domain = domains.pop()

    def entry(self, i: int, j: int) -> ExactScalar:
        return self.rows[i][j]

    def drop_row_col(self, i: int, j: int) -> "SquareMatrix":
        return SquareMatrix(
            tuple(row[:j] + row[j + 1:] for k, row in enumerate(self.rows) if k != i)
        )

    def interior(self) -> "SquareMatrix":
        if self.dim < 3:
            raise ValueError("interior needs dimension >= 3")
        return SquareMatrix(tuple(row[1:-1] for row in self.rows[1:-1]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SquareMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"SquareMatrix[{body}]"


def build(spec: RecurrenceSpec, query: MatrixQuery) -> SquareMatrix:
    # one value per anti-diagonal; row i is the window starting at i
    diagonal = anti_diagonal(spec, query)
    return SquareMatrix([diagonal[i:i + query.d] for i in range(query.d)])


def anti_diagonal(spec: RecurrenceSpec, query: MatrixQuery, count: int = 1) -> Tuple[ExactScalar, ...]:
    """h_n, ..., h_{n+count+2d-3}: the anti-diagonal values of the count
    builds at n, n+1, ..., n+count-1 with the query's r, d and mode.  The
    build at n+m reads h_{n+m}..h_{n+m+2d-2}."""
    cache = cache_for(spec)
    return tuple(_entry(cache, k, query) for k in range(query.n, query.n + count + 2 * query.d - 2))


def _entry(cache: SequenceCache, index: int, query: MatrixQuery) -> ExactScalar:
    if query.mode == RISING:
        return cache.rising_power(index, query.r)
    return ring.pow_signed(cache.term(index), query.r)
