"""Exact determinants with deterministic operation counts.

Three general algorithms over any scalar domain, and two for Hankel
matrices:

  det_cofactor       Laplace expansion along the first row (dim <= 10)
  det_bareiss        fraction-free Gaussian elimination, read off at
                     every step for each leading minor
  det_condensation   Dodgson condensation; a zero interior divisor falls
                     back to det_bareiss on the whole matrix
  det_hankel_minors  every leading minor of a Hankel matrix: the one-row
                     det_hankel_strip of its 2d-1 anti-diagonal values
  det_hankel_strip   every leading minor of each d x d Hankel matrix
                     along a run of anti-diagonal values, from one
                     Desnanot-Jacobi table, O(d^2) operations a row; a
                     row that meets a zero divisor is blocked and takes
                     Bareiss's minors of its own matrix

The first four return a DetReport.  det_bareiss and det_hankel_minors also
fill its minors, the determinant of every leading block, so minors[-1] is
the value; the other two leave minors empty.  det_hankel_strip returns a
StripReport.

A Hankel block is fixed by its size t and the index k of its top-left
anti-diagonal value h_k; call its determinant D(k, t).  Desnanot-Jacobi
applied to that block (Dodgson 1866) reads

    D(k, t) * D(k+2, t-2) = D(k, t-1) * D(k+2, t-1) - D(k+1, t-1)^2

with D(k, 0) = 1 and D(k, 1) = h_k, and D(0, t) is the leading t x t
minor.

Bareiss, condensation and this triangle are one step over different
minors: _step, (a*b - c*d) / e, two multiplications and one exact
division.  Bareiss divides by the previous pivot, condensation by the
interior of the level two back, and the triangle by D(k+2, t-2).
Condensation starts, as the triangle does, from a level of ones, so its
first division is by one and is not charged.

The step moves along the anti-diagonals as well as in t: the d x d
matrix starting on h_m has leading minors D(m, 1..d), so the matrices
starting on h_0, h_1, ..., h_{N-1} share one table over h_0..h_{N+2d-3},
whose level t keeps D(k, t) for k = 0..N-1+2(d-t).  Row m of the table is
D(m, 1..d), and its own triangle is the cone of D(m, d): the entries
D(k, t) with m <= k <= m+2(d-t).  A zero divisor at D(k, t) blocks every
row whose cone holds that entry, m = k-2(d-t)..k, and an entry whose
rows are all blocked is not computed.  So an unblocked row's values are
exactly its own triangle's, a row is blocked exactly when its own
triangle meets a zero divisor, and the rows share every entry their
cones have in common.  The table fills a blocked row with _bareiss_minors
of that row's own d x d matrix, so every row it returns holds the leading
minors, and its report counts the blocked rows.  det_hankel_minors is the
one-row table (N = 1) of its matrix, which stops computing at its first
zero divisor.

Reports carry multiplication/division counts observed by the ring-level
counter, so shortcut operations on exact zeros/ones are not charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

from . import ring
from .ring import ExactScalar
from .matgen import SquareMatrix

COFACTOR = "cofactor"
BAREISS = "bareiss"
CONDENSATION = "condensation"
CONDENSATION_FALLBACK = "condensation-fallback"
STRUCTURED = "structured"
STRUCTURED_FALLBACK = "structured-fallback"

_COFACTOR_LIMIT = 10


@dataclass(frozen=True)
class DetReport:
    """minors[k-1] is the determinant of the leading k x k block, for the
    algorithms that produce them; empty for the others."""

    value: ExactScalar
    algorithm: str
    mul_count: int
    div_count: int
    fallback_used: bool = False
    minors: Tuple[ExactScalar, ...] = ()


class StripReport(NamedTuple):
    """One Desnanot-Jacobi table over a run of anti-diagonal values:
    rows[m][t-1] = D(m, t).  fallback_used counts the blocked rows, whose
    minors came from Bareiss elimination; algorithm is structured-fallback
    when there is one.
    """

    rows: Tuple[Tuple[ExactScalar, ...], ...]
    algorithm: str
    mul_count: int
    div_count: int
    fallback_used: int


def check_cofactor_dim(dim: int) -> None:
    """Raise ValueError for a matrix too large for cofactor expansion."""
    if dim > _COFACTOR_LIMIT:
        raise ValueError(f"cofactor expansion is limited to dimension {_COFACTOR_LIMIT}")


def det_cofactor(matrix: SquareMatrix) -> DetReport:
    check_cofactor_dim(matrix.dim)
    with ring.count_ops() as counter:
        value = _cofactor(matrix.rows, matrix.domain)
    return DetReport(value, COFACTOR, counter.muls, counter.divs)


def _cofactor(rows, domain: str) -> ExactScalar:
    if len(rows) == 1:
        return rows[0][0]
    total = ring.zero(domain)
    for j, lead in enumerate(rows[0]):
        if lead.is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
        term = ring.mul(lead, _cofactor(minor, domain))
        total = ring.add(total, term) if j % 2 == 0 else ring.sub(total, term)
    return total


def _step(a, b, c, d, divisor) -> ExactScalar:
    """(a*b - c*d) / divisor as one exact division: the Desnanot-Jacobi step
    of Bareiss elimination, condensation and the Hankel strip alike."""
    return ring.exact_div(ring.sub(ring.mul(a, b), ring.mul(c, d)), divisor)


def det_bareiss(matrix: SquareMatrix) -> DetReport:
    """Every leading-block determinant from one fraction-free elimination.

    Each minor equals det_bareiss on that block, row swaps included.  The
    block of size k+2 is finished after step k, and matches the full run
    unless a pivot search at some step s <= k picked a row p >= k+2: the
    block's own search stops at row k+1, finds nothing, and returns zero.
    A failed search at step k likewise zeroes every block beyond k+1.
    """
    with ring.count_ops() as counter:
        minors = _bareiss_minors(matrix)
    return DetReport(minors[-1], BAREISS, counter.muls, counter.divs, minors=minors)


def _bareiss_minors(matrix: SquareMatrix) -> Tuple[ExactScalar, ...]:
    n = matrix.dim
    zero = ring.zero(matrix.domain)
    rows = [list(row) for row in matrix.rows]
    values = [rows[0][0]]
    sign_flip = False
    zero_through = 0  # blocks up to this size are singular
    previous = ring.one(matrix.domain)
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if pivot_row is None:
            values.extend([zero] * (n - len(values)))
            break
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign_flip = not sign_flip
            zero_through = max(zero_through, pivot_row)
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = _step(pivot, rows[i][j], rows[i][k], rows[k][j], previous)
        previous = pivot
        if k + 2 <= zero_through:
            values.append(zero)
        else:
            value = rows[k + 1][k + 1]
            values.append(ring.neg(value) if sign_flip else value)
    return tuple(values)


def det_hankel_minors(matrix: SquareMatrix) -> DetReport:
    """Every leading-block determinant of a Hankel matrix, by the
    Desnanot-Jacobi triangle: the one-row table of its anti-diagonal.

    minors[t-1] = D(0, t).  When some divisor D(k+2, t-2) is zero the
    triangle stops and the row is the matrix's _bareiss_minors, so the
    minors are then exactly Bareiss's and the report says
    structured-fallback; the counts include the abandoned triangle.  A
    matrix that is not Hankel raises ValueError.
    """
    d = matrix.dim
    diagonal = matrix.rows[0] + tuple(row[-1] for row in matrix.rows[1:])
    if any(row != diagonal[i:i + d] for i, row in enumerate(matrix.rows)):
        raise ValueError("the structured algorithm needs a Hankel matrix")
    strip = det_hankel_strip(diagonal, d)
    (minors,) = strip.rows
    return DetReport(
        minors[-1], strip.algorithm, strip.mul_count, strip.div_count, bool(strip.fallback_used), minors
    )


def det_hankel_strip(diagonal: Sequence[ExactScalar], d: int) -> StripReport:
    """The leading minors D(m, 1..d) of every d x d Hankel matrix that
    starts on one of diagonal = h_0, h_1, ...: rows m = 0..len(diagonal)-2d+1
    from one table.  A blocked row, which the module docstring defines, is
    _bareiss_minors of its own matrix.
    """
    if d < 1 or len(diagonal) < 2 * d - 1:
        raise ValueError(f"a {d} x {d} Hankel strip needs at least {2 * d - 1} anti-diagonal values")
    with ring.count_ops() as counter:
        rows, blocked = _hankel_strip(tuple(diagonal), d, diagonal[0].domain)
    algorithm = STRUCTURED_FALLBACK if blocked else STRUCTURED
    return StripReport(rows, algorithm, counter.muls, counter.divs, blocked)


def _hankel_strip(diagonal, d: int, domain: str):
    """The rows (D(m, 1), ..., D(m, d)) for m = 0..len(diagonal)-2d+1,
    each blocked one from _bareiss_minors of its own matrix, and the
    number of blocked rows.

    Level t keeps D(k, t) for k = 0..len(diagonal)-2t+1, one value per
    anti-diagonal its block can start on; None marks an entry that is
    blocked or not computed.  The rows holding D(k, t) are k-reach..k,
    reach = 2(d-t), and those rows hold every input of D(k, t) too, so an
    entry with an unblocked row has no None input.
    """
    count = len(diagonal) - 2 * d + 2
    blocked = [False] * count
    older = [ring.one(domain)] * len(diagonal)  # level 0, the empty blocks
    current = list(diagonal)
    levels = [current[:count]]
    for t in range(2, d + 1):
        reach = 2 * (d - t)
        level = []
        for k in range(len(current) - 2):
            first = max(k - reach, 0)
            if all(blocked[first:k + 1]):
                level.append(None)
                continue
            divisor = older[k + 2]
            if divisor.is_zero():
                for m in range(first, min(k + 1, count)):
                    blocked[m] = True
                level.append(None)
                continue
            level.append(_step(current[k], current[k + 2], current[k + 1], current[k + 1], divisor))
        older, current = current, level
        levels.append(current[:count])
    rows = tuple(
        _bareiss_minors(SquareMatrix([diagonal[m + i:m + i + d] for i in range(d)]))
        if blocked[m]
        else tuple(level[m] for level in levels)
        for m in range(count)
    )
    return rows, blocked.count(True)


def det_condensation(matrix: SquareMatrix) -> DetReport:
    with ring.count_ops() as counter:
        fallback = False
        value = _condense(matrix)
        if value is None:
            fallback = True
            value = _bareiss_minors(matrix)[-1]
    algorithm = CONDENSATION_FALLBACK if fallback else CONDENSATION
    return DetReport(value, algorithm, counter.muls, counter.divs, fallback)


def _condense(matrix: SquareMatrix):
    """Condensed determinant, or None when an interior divisor is zero.

    Level 0 is all ones and level 1 is the matrix; level t is _step over
    the 2 x 2 blocks of level t-1, divided by the interior of level t-2.
    """
    older = ((ring.one(matrix.domain),) * matrix.dim,) * matrix.dim
    grid = matrix.rows
    while len(grid) > 1:
        size = len(grid) - 1
        nxt = []
        for i in range(size):
            row = []
            for j in range(size):
                divisor = older[i + 1][j + 1]
                if divisor.is_zero():
                    return None
                row.append(_step(grid[i][j], grid[i + 1][j + 1], grid[i][j + 1], grid[i + 1][j], divisor))
            nxt.append(tuple(row))
        older, grid = grid, tuple(nxt)
    return grid[0][0]
