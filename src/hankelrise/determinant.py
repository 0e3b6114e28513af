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
minors: (a*b - c*d) / e, two multiplications and one exact division.
Bareiss divides by the previous pivot, condensation by the interior of
the level two back, and the triangle by D(k+2, t-2).  Condensation
starts, as the triangle does, from a level of ones, so its first
division is by one and is not charged.

The step runs on plain payloads, not on scalars: each algorithm unwraps
its input once and wraps each minor it returns once.  The payloads are
ints (a numeric strip's scaled diagonal, and int matrices), Polys, and
reduced Fractions only for a rat matrix given to det_bareiss or
det_condensation.  Each domain's zero, one, exact quotient and fused step
live in ring._PAYLOADS, and ring.exact_div divides through the same
quotient functions.  When neither product has an operand 0 or 1, a poly
step is ring's one Kronecker pass (ring._kronecker, which Poly's product
also calls) unless the pass declines it, and a Fraction step runs on
ring's slot arithmetic (ring._rat_step); otherwise, and for ints, the
step multiplies and subtracts with the payloads' operators and makes one
exact division.  The int quotient divides through ring._divmod, so a
strip's int steps past CPython 3.12's crossover take recursive division,
as the poly kernel's image quotients do.  The step counts by ring's
rules, into two ints that are ticked once per call, on exit, even when a
step raises.
det_cofactor stays on ring's scalar operations: it shares no code with
the other three, which makes it their independent reference.

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

Scaling a t x t block by c scales its determinant by c^t, so the table
may run on the diagonal times any nonzero scale and read its entries
back.  A numeric diagonal runs on its primitive integer part, the
diagonal times s/g, s the lcm of its denominators and g the gcd of its
numerators: the table runs over small ints, with no reduction per step,
whether the values are fractions or share a large factor.  A product of
r consecutive Fibonacci numbers is a multiple of F_1 * ... * F_r (Lucas
1878), so every D(m, t) of theorem1's table is a multiple of g^t, and
dividing it out nearly halves the entries' bits.

Reports carry multiplication/division counts observed by the ring-level
counter, so shortcut operations on exact zeros/ones are not charged, by
the step as by ring.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from math import gcd, lcm
from operator import floordiv
from typing import NamedTuple, Sequence, Tuple

from . import ring
from .ring import ExactScalar, Payload
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


@contextmanager
def _counted_steps(kind: tuple):
    """The Desnanot-Jacobi step on payloads of one kind, counted as ring
    counts: step(a, b, c, d, e) = (a*b - c*d) / e.  As in ring.mul, a
    product with an operand 0 or 1 is not counted and not multiplied; as
    in ring.exact_div, a division of 0 or by 1 is neither, and a division
    is counted before it divides.  kind is the domain's ring._PAYLOADS
    tuple.  When both products are counted and the kind has a fused step,
    that step computes the whole quotient in one call (the poly kind's
    one Kronecker pass, or rational slot arithmetic), and its result counts
    one division unless it is 0 or e is 1; when it declines, or the kind
    has none, the payloads' own operators multiply and subtract and the
    kind's quotient divides.  Either way the values and counts are the
    same.  The counts are two local ints, ticked once on exit, so a table
    that raises still counts what it did."""
    muls = divs = 0
    zero, _, units, quotient, fused = kind
    nought, unit = units

    def step(a, b, c, d, e):
        nonlocal muls, divs
        if a not in units and b not in units:
            if fused is not None and c not in units and d not in units:
                value = fused(a, b, c, d, e)
                if value is not None:
                    muls += 2
                    if value != nought and e != unit:
                        divs += 1
                    return value
            muls += 1
            ab = a * b
        elif a == nought or b == nought:
            ab = zero
        else:
            ab = b if a == unit else a
        if c not in units and d not in units:
            muls += 1
            cd = c * d
        elif c == nought or d == nought:
            cd = zero
        else:
            cd = d if c == unit else c
        top = ab - cd
        if top == nought or e == unit:
            return top
        divs += 1
        return quotient(top, e)

    try:
        yield step
    finally:
        ring._tick_mul(muls)
        ring._tick_div(divs)


def _payload_rows(matrix: SquareMatrix):
    return [[x.value for x in row] for row in matrix.rows]


def det_bareiss(matrix: SquareMatrix) -> DetReport:
    """Every leading-block determinant from one fraction-free elimination.

    Each minor equals det_bareiss on that block, row swaps included.  The
    block of size k+2 is finished after step k, and matches the full run
    unless a pivot search at some step s <= k picked a row p >= k+2: the
    block's own search stops at row k+1, finds nothing, and returns zero.
    A failed search at step k likewise zeroes every block beyond k+1.
    """
    domain = matrix.domain
    kind = ring._PAYLOADS[domain]
    with ring.count_ops() as counter, _counted_steps(kind) as step:
        minors = _bareiss_minors(_payload_rows(matrix), kind, step)
    minors = tuple(ExactScalar(domain, y) for y in minors)
    return DetReport(minors[-1], BAREISS, counter.muls, counter.divs, minors=minors)


def _bareiss_minors(rows, kind: tuple, step) -> Tuple[Payload, ...]:
    """The leading minors of the square payload matrix rows by Bareiss
    elimination, each of its updates one step."""
    n = len(rows)
    zero, one, (nought, _), *_ = kind
    rows = [list(row) for row in rows]
    values = [rows[0][0]]
    sign_flip = False
    zero_through = 0  # blocks up to this size are singular
    previous = one
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if rows[i][k] != nought), None)
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
                rows[i][j] = step(pivot, rows[i][j], rows[i][k], rows[k][j], previous)
        previous = pivot
        if k + 2 <= zero_through:
            values.append(zero)
        else:
            value = rows[k + 1][k + 1]
            values.append(-value if sign_flip else value)
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

    A numeric diagonal, int or rat, runs on its primitive integer part:
    each value is top/bottom (an int has bottom 1), g is the gcd of the
    tops (1 when all are zero) and s the lcm of the bottoms, and the table
    runs over the ints top * (s/bottom) / g.  It holds
    D''(m, t) = D(m, t) * (s/g)^t, since scaling a t x t block by c scales
    its determinant by c^t.  Entries with t >= 2 are read back as
    D''(m, t) * g^t / s^t, an int over int and one reduction over rat;
    D(m, 1) is the input value h_m itself, so it is taken from the
    diagonal.  Scaling moves no zero, so the same rows block, and a
    blocked row's Bareiss minors of its scaled matrix are read back alike.
    Unless g = s = 1 the counts include the scaling's and the read-back's
    ticks: one div per nonzero value and one mul per entry D''(m, t),
    t >= 2, other than 0 and 1.  So an integer-valued diagonal counts the
    same in both domains.  A poly diagonal runs as it is.  A value whose
    domain is not the first value's raises DomainMismatchError before any
    tick.
    """
    if d < 1 or len(diagonal) < 2 * d - 1:
        raise ValueError(f"a {d} x {d} Hankel strip needs at least {2 * d - 1} anti-diagonal values")
    domain = diagonal[0].domain
    for x in diagonal:
        if x.domain != domain:
            raise ring._mismatch(diagonal[0], x)
    with ring.count_ops() as counter:
        if domain == ring.POLYNOMIAL:
            rows, blocked = _hankel_strip([x.value for x in diagonal], d, ring._PAYLOADS[domain])
            rows = tuple(
                (diagonal[m], *(ExactScalar(domain, y) for y in row[1:])) for m, row in enumerate(rows)
            )
        else:
            rows, blocked = _primitive_strip(diagonal, d, domain)
    algorithm = STRUCTURED_FALLBACK if blocked else STRUCTURED
    return StripReport(rows, algorithm, counter.muls, counter.divs, blocked)


def _primitive_strip(diagonal: Sequence[ExactScalar], d: int, domain: str):
    """_hankel_strip of an int or rat diagonal, run on its primitive
    integer part and read back as det_hankel_strip describes."""
    # a rat value's two slots, as ring reads them
    if domain == ring.RATIONAL:
        tops = [x.value._numerator for x in diagonal]
        bottoms = [x.value._denominator for x in diagonal]
    else:
        tops = [x.value for x in diagonal]
        bottoms = [1] * len(tops)
    content = gcd(*tops) or 1
    scale = lcm(*bottoms)
    scaled = [top * (scale // bottom) // content for top, bottom in zip(tops, bottoms)]
    rows, blocked = _hankel_strip(scaled, d, ring._PAYLOADS[ring.INTEGER])
    if content != 1 or scale != 1:
        ring._tick_div(len(tops) - tops.count(0))
        ring._tick_mul(sum(1 for row in rows for y in row[1:] if y not in (0, 1)))
    # the scale is kept as the int pair (g^t, s^t); s = 1 over int, so the
    # floor division there is exact, and a rat entry is reduced only when
    # s > 1
    over = ring._reduced if domain == ring.RATIONAL else floordiv
    powers = [(content**t, scale**t) for t in range(2, d + 1)]
    rows = tuple(
        (diagonal[m], *(ExactScalar(domain, over(y * up, down)) for y, (up, down) in zip(row[1:], powers)))
        for m, row in enumerate(rows)
    )
    return rows, blocked


def _hankel_strip(diagonal, d: int, kind: tuple):
    """The payload rows (D(m, 1), ..., D(m, d)) for m = 0..len(diagonal)-2d+1
    of a payload diagonal, each blocked one from _bareiss_minors of its own
    matrix, and the number of blocked rows.

    Level t keeps D(k, t) for k = 0..len(diagonal)-2t+1, one value per
    anti-diagonal its block can start on; None marks an entry that is
    blocked or not computed.  The rows holding D(k, t) are k-reach..k,
    reach = 2(d-t), and those rows hold every input of D(k, t) too, so an
    entry with an unblocked row has no None input.
    """
    count = len(diagonal) - 2 * d + 2
    blocked = [False] * count
    any_blocked = False
    _, one, (nought, _), *_ = kind
    with _counted_steps(kind) as step:
        older = [one] * len(diagonal)  # level 0, the empty blocks
        current = list(diagonal)
        levels = [current[:count]]
        for t in range(2, d + 1):
            reach = 2 * (d - t)
            level = []
            for k in range(len(current) - 2):
                if any_blocked and all(blocked[max(k - reach, 0):k + 1]):
                    level.append(None)
                    continue
                divisor = older[k + 2]
                if divisor == nought:
                    for m in range(max(k - reach, 0), min(k + 1, count)):
                        blocked[m] = True
                    any_blocked = True
                    level.append(None)
                    continue
                middle = current[k + 1]
                level.append(step(current[k], current[k + 2], middle, middle, divisor))
            older, current = current, level
            levels.append(current[:count])
        rows = tuple(
            _bareiss_minors([diagonal[m + i:m + i + d] for i in range(d)], kind, step)
            if blocked[m]
            else tuple(level[m] for level in levels)
            for m in range(count)
        )
    return rows, blocked.count(True)


def det_condensation(matrix: SquareMatrix) -> DetReport:
    domain = matrix.domain
    kind = ring._PAYLOADS[domain]
    rows = _payload_rows(matrix)
    with ring.count_ops() as counter, _counted_steps(kind) as step:
        value = _condense(rows, kind, step)
        fallback = value is None
        if fallback:
            value = _bareiss_minors(rows, kind, step)[-1]
    algorithm = CONDENSATION_FALLBACK if fallback else CONDENSATION
    return DetReport(ExactScalar(domain, value), algorithm, counter.muls, counter.divs, fallback)


def _condense(grid, kind: tuple, step):
    """Condensed determinant of the square payload matrix grid, or None
    when an interior divisor is zero.

    Level 0 is all ones and level 1 is the matrix; level t is one step
    over each 2 x 2 block of level t-1, divided by the interior of level
    t-2.
    """
    _, one, (nought, _), *_ = kind
    older = [[one] * len(grid)] * len(grid)
    while len(grid) > 1:
        size = len(grid) - 1
        nxt = []
        for i in range(size):
            row = []
            for j in range(size):
                divisor = older[i + 1][j + 1]
                if divisor == nought:
                    return None
                row.append(step(grid[i][j], grid[i + 1][j + 1], grid[i][j + 1], grid[i + 1][j], divisor))
            nxt.append(row)
        older, grid = grid, nxt
    return grid[0][0]
