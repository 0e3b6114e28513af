"""Grid verification of closed forms against determinant oracles.

A GridSpec names one identity and the inclusive integer ranges to sweep;
run_grid evaluates both sides at every point in lexicographic order and
reports mismatches with both values as canonical strings.  Comparison is
structural equality of exact scalars: there are no tolerances anywhere.
run_grid is the one loop for every grid, the random one included: it
validates the grid, then times, counts, scopes and judges the points a
point source yields (run_random_dj only builds a GridSpec for it).

Identity ids and the point shape they sweep:

  theorem1                (n, r, d)  Fibonacci rising-power det vs product form
  theorem2                (n, r, d)  general-spec rising-power det vs product form
  prodinger               (n, r)     theorem1 product form at d = r+1 vs its
                                     collapsed (F_1...F_r)^(r+1) form
  carlitz                 (n, r)     Fibonacci plain-power det vs product form
  vajda                   (n, i, j)  Fibonacci bilinear identity
  eq4                     (n, i, j)  general-spec bilinear identity
  rank-zero               (n, r, d)  oracle det is zero beyond the square case
  desnanot-jacobi-random  seeded random matrices vs the corner-minor identity

IDENTITY_TABLE defines every id but the random one in one row: the
GridSpec fields it takes after n, and its two sides.  Grid validation,
the sweep and the CLI's closed command all read that row.  A row takes
its axes, spec and domain unless it is Fibonacci-only, and oracle if its
lhs is a determinant; the random grid takes seed, count, dim, bound and
oracle.

The oracles are cofactor, bareiss and structured (the Desnanot-Jacobi
triangle, which needs a Hankel matrix): det_cofactor, det_bareiss and
det_hankel_strip, looked up in this module at call time, so a wrapper or
patch on verify.<name> sees every call.  An unset oracle is structured
on every determinant row, in every domain, and bareiss on the random
grid, whose matrices are not Hankel and which rejects structured.

An unset d range means the identity's natural window: [1, r+1] for the
square cases, [r+2, r+3] for rank-zero.  An explicit one is clipped to
[1, r+1] for the square cases, and for rank-zero below at r+2 but not
above.  run_grid rejects before the sweep a field the identity does not
take (any GridSpec field off its default), an r range below zero, a d
range that leaves the window of every r empty, a cofactor grid whose
largest matrix is over the cofactor limit, an unknown oracle, the
structured oracle on the random grid, and a negative n, i or j unless
ring.invertible(c2) (sequence.check_index): a backward step divides by
c2, and the closed forms raise c2 to negative powers.

Random matrices come from a 64-bit linear congruential generator chosen
for cross-language reproducibility:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

One draw takes the top 31 bits, value = state >> 33; an integer in
[lo, hi] is lo + value mod (hi - lo + 1).  Matrix entries are drawn
row-major, matrices consecutively from one stream seeded once.

Reports are deterministic field by field except elapsed_ms, which is wall
time.  Points are evaluated sequentially, by one loop for every row: d
spans r's window, and every lhs is a callable.  A determinant row,
theorem1, theorem2 and rank-zero on rising-power builds and carlitz on
plain-power builds at d = r+1, reads its oracle through one memo per r,
made at r's first point and kept for every n.  With the structured
oracle the memo is one Desnanot-Jacobi table (det_hankel_strip) over the
anti-diagonal values W^(r)_m, m = n_lo..n_hi+2D-2, to depth D, the top of
r's d window: row n reads D(n - n_lo, 1..D) without building a matrix,
and the table itself gives a blocked row Bareiss's minors.  With the
bareiss oracle it is every n's build at the top of r's window and one
fraction-free elimination each.  A failure in a memo marks every point
of its r.  The cofactor oracle and the random grid read DetReport.value,
one call per matrix.  Every build and closed form in one
run_grid call reads the same sequence cache, companion cache and delta
per spec (sequence.shared_sequences), released when the call returns.
The scope is per context: run separate grids in separate threads or
processes, not the rows of one grid, and merge their counts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from functools import partial
from itertools import product
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from . import determinant, matgen, ring
from .closedform import (
    carlitz_rhs,
    generalized_vajda_lhs,
    generalized_vajda_rhs,
    hankel_rank_bound_value,
    prodinger_rhs,
    theorem1_rhs,
    theorem2_rhs,
    vajda_lhs,
    vajda_rhs,
)
from .determinant import det_bareiss, det_cofactor, det_hankel_strip
from .matgen import POWER, RISING, MatrixQuery, SquareMatrix, build
from .ring import ExactScalar
from .sequence import RecurrenceSpec, check_index, preset, shared_sequences, symbolic_spec


class Identity(NamedTuple):
    """One closed-form identity: the GridSpec fields it takes after n, its
    point axes first, and its two sides, lhs(spec, n, *axes) and
    rhs(spec, n, *axes).  lhs a build mode (RISING or POWER) means the
    oracle determinant of that build, which _points reads through one
    memo per r (_oracle_lhs); an identity without a d axis takes d = r+1.
    """

    takes: Tuple[str, ...]
    lhs: Union[str, Callable[..., ExactScalar]]
    rhs: Callable[..., ExactScalar]

    @property
    def axes(self) -> Tuple[str, ...]:
        return tuple(name for name in self.takes if name in ("r", "d", "i", "j"))


# The sides look up the closed forms in this module at call time, so a
# wrapper or patch on verify.<name> sees every call.
IDENTITY_TABLE: Dict[str, Identity] = {
    "theorem1": Identity(("r", "d", "oracle"), RISING, lambda spec, n, r, d: theorem1_rhs(n, r, d)),
    "theorem2": Identity(
        ("r", "d", "spec", "domain", "oracle"), RISING, lambda spec, n, r, d: theorem2_rhs(spec, n, r, d)
    ),
    "prodinger": Identity(
        ("r",),
        lambda spec, n, r: theorem1_rhs(n, r, r + 1),
        lambda spec, n, r: prodinger_rhs(n, r),
    ),
    "carlitz": Identity(("r", "oracle"), POWER, lambda spec, n, r: carlitz_rhs(n, r)),
    "vajda": Identity(
        ("i", "j"),
        lambda spec, n, i, j: vajda_lhs(n, i, j),
        lambda spec, n, i, j: vajda_rhs(n, i, j),
    ),
    "eq4": Identity(
        ("i", "j", "spec", "domain"),
        lambda spec, n, i, j: generalized_vajda_lhs(spec, n, i, j),
        lambda spec, n, i, j: generalized_vajda_rhs(spec, n, i, j),
    ),
    "rank-zero": Identity(
        ("r", "d", "spec", "domain", "oracle"),
        RISING,
        lambda spec, n, r, d: hankel_rank_bound_value(spec, n, r, d),
    ),
}

_RANDOM = "desnanot-jacobi-random"
_RANDOM_TAKES = ("seed", "count", "dim", "bound", "oracle")

IDENTITIES = (*IDENTITY_TABLE, _RANDOM)


ORACLES = ("cofactor", "bareiss", "structured")

Range = Tuple[int, int]


class Lcg64:
    """The documented 64-bit LCG; see the module docstring for constants."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self._MASK
        return self.state

    def next_int(self, lo: int, hi: int) -> int:
        return lo + (self.next_u64() >> 33) % (hi - lo + 1)


@dataclass(frozen=True)
class GridSpec:
    identity: str
    n: Optional[Range] = None
    r: Optional[Range] = None
    d: Optional[Range] = None
    i: Optional[Range] = None
    j: Optional[Range] = None
    spec: Optional[RecurrenceSpec] = None
    domain: str = ring.INTEGER
    oracle: Optional[str] = None  # None: structured, bareiss on the random grid
    seed: int = 1
    count: int = 100
    dim: int = 4
    bound: int = 9


@dataclass(frozen=True)
class Mismatch:
    point: Dict[str, int]
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerifyReport:
    grid: GridSpec
    checked: int
    mismatches: Tuple[Mismatch, ...]
    elapsed_ms: int
    mul_count: int
    div_count: int

    @property
    def passed(self) -> bool:
        return not self.mismatches


def report_json(report: VerifyReport) -> str:
    payload = {
        "identity": report.grid.identity,
        "checked": report.checked,
        "pass": report.passed,
        "mismatches": [
            {"point": m.point, "lhs": m.lhs, "rhs": m.rhs} for m in report.mismatches
        ],
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(payload, indent=2)


def _span(bounds: Range) -> range:
    lo, hi = bounds
    if lo > hi:
        raise ValueError(f"empty range {bounds}")
    return range(lo, hi + 1)


def _validate(grid: GridSpec) -> Tuple[RecurrenceSpec, str]:
    """The grid's spec and oracle name, or ValueError before any point."""
    if grid.identity not in IDENTITIES:
        raise ValueError(f"unknown identity {grid.identity!r}")
    row = IDENTITY_TABLE.get(grid.identity)
    # the fields each grid reads; every other field must keep its default
    takes = ("n", *row.takes) if row else _RANDOM_TAKES
    ignored = [
        f.name for f in fields(GridSpec)[1:] if f.name not in takes and getattr(grid, f.name) != f.default
    ]
    if ignored:
        raise ValueError(f"identity {grid.identity} does not take {', '.join(ignored)}")
    oracle = grid.oracle if grid.oracle is not None else "structured" if row else "bareiss"
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}")
    spec = grid.spec
    if spec is None:
        spec = symbolic_spec() if grid.domain == ring.POLYNOMIAL else preset("fibonacci", grid.domain)
    if grid.spec is not None and grid.spec.domain != grid.domain:
        raise ValueError("grid domain does not match the provided spec")
    if row is None:
        if not 3 <= grid.dim <= 7:
            raise ValueError("random minor grids need 3 <= dim <= 7")
        if grid.count < 1 or grid.bound < 1:
            raise ValueError("count and bound must be positive")
        if oracle == "structured":
            raise ValueError(f"oracle structured needs Hankel matrices; {_RANDOM} draws general ones")
        return spec, oracle
    for name in ("n", *row.axes):
        bounds = getattr(grid, name)
        if bounds is not None:
            _span(bounds)  # an empty range is rejected here, not mid-sweep
        elif name != "d":  # an unset d range means the identity's natural window
            raise ValueError(f"identity {grid.identity} needs a {name} range")
    if "r" in row.axes and grid.r[0] < 0:
        raise ValueError("power length r must be non-negative")
    if "d" in row.axes and grid.d is not None and not any(_d_window(grid, r) for r in _span(grid.r)):
        window = "r+2.." if grid.identity == "rank-zero" else "1..r+1"
        raise ValueError(
            f"d range {grid.d[0]}..{grid.d[1]} is outside the window {window} of every r"
            f" in {grid.r[0]}..{grid.r[1]}"
        )
    # a backward step divides by c2, and the closed forms raise c2
    # to negative powers; U_i and U_j step backwards at a negative i or j
    for axis in ("n", "i", "j"):
        bounds = getattr(grid, axis)
        if bounds is not None:
            check_index(spec, axis, bounds[0])
    # the largest matrix the oracle sees tops the widest d window
    if oracle == "cofactor":
        # reached through the module: every determinant name bound here is
        # an oracle, and a wrapper on one may read its DetReport
        determinant.check_cofactor_dim(
            max(window[-1] for window in map(partial(_d_window, grid), _span(grid.r)) if window)
        )
    return spec, oracle


def _d_window(grid: GridSpec, r: int) -> range:
    if "d" not in IDENTITY_TABLE[grid.identity].axes:
        return range(r + 1, r + 2)  # carlitz: the square case only
    if grid.identity == "rank-zero":
        lo, hi = grid.d if grid.d else (r + 2, r + 3)
        return range(max(lo, r + 2), hi + 1)
    lo, hi = grid.d if grid.d else (1, r + 1)
    return range(max(lo, 1), min(hi, r + 1) + 1)


def run_grid(grid: GridSpec) -> VerifyReport:
    """Sweep any grid: the one loop that times, counts, scopes and judges
    every point."""
    spec, oracle = _validate(grid)
    if grid.identity == _RANDOM:
        # looked up when the sweep starts, so it sees a wrapper on verify.<name>
        det = {"cofactor": det_cofactor, "bareiss": det_bareiss}[oracle]
        points = _random_points(grid, lambda matrix: det(matrix).value)
    else:
        points = _points(grid, spec, oracle)
    started = time.perf_counter_ns()
    checked = 0
    mismatches: List[Mismatch] = []
    with ring.count_ops() as counter, shared_sequences():
        for point, lhs, rhs in points:
            checked += 1
            # an error string on either side is never agreement, even when
            # both sides failed the same way
            if lhs != rhs or isinstance(lhs, str) or isinstance(rhs, str):
                mismatches.append(Mismatch(point, str(lhs), str(rhs)))
    elapsed_ms = (time.perf_counter_ns() - started) // 1_000_000
    return VerifyReport(grid, checked, tuple(mismatches), elapsed_ms, counter.muls, counter.divs)


def _points(grid: GridSpec, spec: RecurrenceSpec, oracle: str):
    """Each point's (point, lhs, rhs) in lexicographic order.  d, the last
    axis of a row that has it, spans r's window; a determinant row's lhs
    reads the oracle (_oracle_lhs)."""
    identity = IDENTITY_TABLE[grid.identity]
    axes = ("n", *identity.axes)
    lhs = identity.lhs if callable(identity.lhs) else _oracle_lhs(grid, oracle, identity.lhs)
    for head in product(*(_span(getattr(grid, axis)) for axis in axes if axis != "d")):
        for values in [(*head, d) for d in _d_window(grid, head[1])] if "d" in axes else [head]:
            yield (
                dict(zip(axes, values)),
                _guarded(lambda: lhs(spec, *values)),
                _guarded(lambda: identity.rhs(spec, *values)),
            )


def _oracle_lhs(grid: GridSpec, oracle: str, mode: str) -> Callable[..., ExactScalar]:
    """lhs(spec, n, r, d = r+1): the oracle determinant of the build in
    mode.  cofactor evaluates each matrix; structured and bareiss make one
    memo per r at its first point, rows[n - n_lo][d - 1] over every n to
    the top of r's d window, and a failure in it marks every point of r."""
    n_lo, n_hi = grid.n
    memos = {}  # r -> its rows, or the error that made them

    def rows(spec: RecurrenceSpec, r: int):
        top = _d_window(grid, r)[-1]
        if oracle == "bareiss":
            return [det_bareiss(build(spec, MatrixQuery(n, r, top, mode))).minors for n in _span(grid.n)]
        # matgen is reached through the module, since a wrapper on a matgen
        # name bound here reads a build
        first = MatrixQuery(n_lo, r, top, mode)
        return det_hankel_strip(matgen.anti_diagonal(spec, first, n_hi - n_lo + 1), top).rows

    def lhs(spec: RecurrenceSpec, n: int, r: int, d: Optional[int] = None):
        d = r + 1 if d is None else d
        if oracle == "cofactor":
            return det_cofactor(build(spec, MatrixQuery(n, r, d, mode))).value
        if r not in memos:
            memos[r] = _guarded(lambda: rows(spec, r))
        return memos[r] if isinstance(memos[r], str) else memos[r][n - n_lo][d - 1]

    return lhs


def _guarded(thunk: Callable[[], ExactScalar]):
    """Evaluate one side; domain-gate failures become reportable strings."""
    try:
        return thunk()
    except (ring.NotInvertibleError, ring.InexactDivisionError, ZeroDivisionError) as exc:
        return f"error({type(exc).__name__}: {exc})"


def _random_points(grid: GridSpec, oracle):
    """det(M) * det(interior) against the four corner minors, one case per
    seeded random integer matrix."""
    rng = Lcg64(grid.seed)
    dim, bound, last = grid.dim, grid.bound, grid.dim - 1
    for case in range(grid.count):
        matrix = SquareMatrix(
            tuple(
                tuple(ring.integer(rng.next_int(-bound, bound)) for _ in range(dim))
                for _ in range(dim)
            )
        )
        lhs = ring.mul(oracle(matrix), oracle(matrix.interior()))
        rhs = ring.sub(
            ring.mul(oracle(matrix.drop_row_col(0, 0)), oracle(matrix.drop_row_col(last, last))),
            ring.mul(oracle(matrix.drop_row_col(0, last)), oracle(matrix.drop_row_col(last, 0))),
        )
        yield {"case": case}, lhs, rhs


def run_random_dj(
    seed: int, count: int, dim: int, entry_bound: int, oracle: str = "bareiss"
) -> VerifyReport:
    """run_grid on the corner-minor identity over seeded random matrices."""
    return run_grid(
        GridSpec(identity=_RANDOM, seed=seed, count=count, dim=dim, bound=entry_bound, oracle=oracle)
    )
