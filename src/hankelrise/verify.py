"""Grid verification of closed forms against determinant oracles.

A GridSpec names one identity and the inclusive integer ranges to sweep;
run_grid evaluates both sides at every point in lexicographic order and
reports mismatches with both values as canonical strings.  Comparison is
structural equality of exact scalars: there are no tolerances anywhere.

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

When d ranges are left unset they default to the identity's natural
window: [1, r+1] for the square cases, [r+2, r+3] for rank-zero; explicit
d ranges are clipped to the same windows.

Random matrices come from a 64-bit linear congruential generator chosen
for cross-language reproducibility:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

One draw takes the top 31 bits, value = state >> 33; an integer in
[lo, hi] is lo + value mod (hi - lo + 1).  Matrix entries are drawn
row-major, matrices consecutively from one stream seeded once.

Reports are deterministic field by field except elapsed_ms, which is wall
time.  Points are evaluated sequentially.  With the bareiss oracle, the
points of one (n, r) row share one build at the top of the row's d window
and one fraction-free elimination, whose leading minors give every d (a
row whose shared pass fails a domain gate reports that error for every d);
the cofactor oracle evaluates each d on its own.  Every build and closed
form in one run_grid call reads the same sequence cache, companion cache
and delta per spec (sequence.shared_sequences), released when the call
returns.  The scope is per context, so run separate grids in separate
threads or processes if ever needed, not the rows of one grid, and merge
their operation counts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import ring
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
from .determinant import det_bareiss, det_bareiss_minors, det_cofactor
from .matgen import POWER, RISING, MatrixQuery, SquareMatrix, build
from .ring import ExactScalar
from .sequence import RecurrenceSpec, preset, shared_sequences, symbolic_spec

IDENTITIES = (
    "theorem1",
    "theorem2",
    "prodinger",
    "carlitz",
    "vajda",
    "eq4",
    "rank-zero",
    "desnanot-jacobi-random",
)

_FIBONACCI_IDENTITIES = {"theorem1", "prodinger", "carlitz", "vajda"}
_SPEC_IDENTITIES = {"theorem2", "eq4", "rank-zero"}

ORACLES = ("cofactor", "bareiss")

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
    oracle: str = "bareiss"
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


def _resolve_spec(grid: GridSpec) -> RecurrenceSpec:
    if grid.spec is not None:
        return grid.spec
    if grid.domain == ring.POLYNOMIAL:
        return symbolic_spec()
    return preset("fibonacci", grid.domain)


def _validate(grid: GridSpec) -> RecurrenceSpec:
    if grid.identity not in IDENTITIES:
        raise ValueError(f"unknown identity {grid.identity!r}")
    spec = _resolve_spec(grid)
    if grid.spec is not None and grid.spec.domain != grid.domain:
        raise ValueError("grid domain does not match the provided spec")
    if grid.identity in _FIBONACCI_IDENTITIES and grid.domain == ring.POLYNOMIAL:
        raise ValueError(f"{grid.identity} is a numeric Fibonacci identity")
    check_fibonacci_spec(grid.identity, grid.spec, grid.domain)
    if grid.identity == "desnanot-jacobi-random":
        return spec  # run_random_dj checks its own inputs
    needed = {
        "theorem1": ("n", "r"),
        "theorem2": ("n", "r"),
        "prodinger": ("n", "r"),
        "carlitz": ("n", "r"),
        "rank-zero": ("n", "r"),
        "vajda": ("n", "i", "j"),
        "eq4": ("n", "i", "j"),
    }[grid.identity]
    for name in needed:
        if getattr(grid, name) is None:
            raise ValueError(f"identity {grid.identity} needs a {name} range")
    # negative indices outside the rational domain need exact backward steps
    if grid.n and grid.n[0] < 0 and spec.domain == ring.INTEGER:
        c2 = spec.c2.value
        if c2 not in (1, -1):
            raise ValueError("negative n over the integers needs c2 = +-1; use the rational domain")
    if grid.n and grid.n[0] < 0 and spec.domain == ring.POLYNOMIAL:
        raise ValueError("negative n is not available in the polynomial domain")
    return spec


def check_fibonacci_spec(identity: str, spec: Optional[RecurrenceSpec], domain: str) -> None:
    """Reject a numeric spec other than Fibonacci for a Fibonacci-only identity."""
    if identity in _FIBONACCI_IDENTITIES and spec is not None and spec != preset("fibonacci", domain):
        raise ValueError(f"{identity} is specific to the fibonacci spec")


def _oracle_fn(name: str) -> Callable[[SquareMatrix], ExactScalar]:
    if name not in ORACLES:
        raise ValueError(f"unknown oracle {name!r}")
    runner = det_cofactor if name == "cofactor" else det_bareiss
    return lambda matrix: runner(matrix).value


def _d_window(grid: GridSpec, r: int) -> range:
    if grid.identity == "rank-zero":
        lo, hi = grid.d if grid.d else (r + 2, r + 3)
        return range(max(lo, r + 2), hi + 1)
    lo, hi = grid.d if grid.d else (1, r + 1)
    return range(max(lo, 1), min(hi, r + 1) + 1)


def run_grid(grid: GridSpec) -> VerifyReport:
    spec = _validate(grid)
    if grid.identity == "desnanot-jacobi-random":
        return run_random_dj(grid.seed, grid.count, grid.dim, grid.bound, grid.oracle, grid)
    oracle = _oracle_fn(grid.oracle)
    started = time.perf_counter_ns()
    checked = 0
    mismatches: List[Mismatch] = []
    with ring.count_ops() as counter, shared_sequences():
        for point, lhs, rhs in _points(grid, spec, oracle):
            checked += 1
            # an error string on either side is never agreement, even when
            # both sides failed the same way
            if lhs != rhs or isinstance(lhs, str) or isinstance(rhs, str):
                mismatches.append(Mismatch(point, str(lhs), str(rhs)))
    elapsed_ms = (time.perf_counter_ns() - started) // 1_000_000
    return VerifyReport(grid, checked, tuple(mismatches), elapsed_ms, counter.muls, counter.divs)


def _points(grid: GridSpec, spec: RecurrenceSpec, oracle):
    identity = grid.identity
    if identity in ("theorem1", "theorem2", "rank-zero"):
        for n in _span(grid.n):
            for r in _span(grid.r):
                window = _d_window(grid, r)
                row = None
                if grid.oracle == "bareiss" and window:
                    # one build at the top of the window and one elimination
                    # give every d.  If that raises, each d alone raises the
                    # same error: the only failing step is a backward
                    # recurrence step inside term(n), the entry every d
                    # computes first, and Bareiss divides only exactly, by
                    # nonzero earlier pivots.
                    top = MatrixQuery(n, r, window[-1], RISING)
                    row = _guarded(lambda: det_bareiss_minors(build(spec, top)).values)
                for d in window:
                    point = {"n": n, "r": r, "d": d}
                    if row is None:
                        lhs = _guarded(lambda: oracle(build(spec, MatrixQuery(n, r, d, RISING))))
                    else:
                        lhs = row if isinstance(row, str) else row[d - 1]
                    if identity == "theorem1":
                        rhs = _guarded(lambda: theorem1_rhs(n, r, d))
                    elif identity == "theorem2":
                        rhs = _guarded(lambda: theorem2_rhs(spec, n, r, d))
                    else:
                        rhs = _guarded(lambda: hankel_rank_bound_value(spec, n, r, d))
                    yield point, lhs, rhs
    elif identity == "prodinger":
        for n in _span(grid.n):
            for r in _span(grid.r):
                yield (
                    {"n": n, "r": r},
                    _guarded(lambda: theorem1_rhs(n, r, r + 1)),
                    _guarded(lambda: prodinger_rhs(n, r)),
                )
    elif identity == "carlitz":
        for n in _span(grid.n):
            for r in _span(grid.r):
                yield (
                    {"n": n, "r": r},
                    _guarded(lambda: oracle(build(spec, MatrixQuery(n, r, r + 1, POWER)))),
                    _guarded(lambda: carlitz_rhs(n, r)),
                )
    elif identity == "vajda":
        for n in _span(grid.n):
            for i in _span(grid.i):
                for j in _span(grid.j):
                    yield (
                        {"n": n, "i": i, "j": j},
                        _guarded(lambda: vajda_lhs(n, i, j)),
                        _guarded(lambda: vajda_rhs(n, i, j)),
                    )
    else:
        for n in _span(grid.n):
            for i in _span(grid.i):
                for j in _span(grid.j):
                    yield (
                        {"n": n, "i": i, "j": j},
                        _guarded(lambda: generalized_vajda_lhs(spec, n, i, j)),
                        _guarded(lambda: generalized_vajda_rhs(spec, n, i, j)),
                    )


def _guarded(thunk: Callable[[], ExactScalar]):
    """Evaluate one side; domain-gate failures become reportable strings."""
    try:
        return thunk()
    except (ring.NotInvertibleError, ring.InexactDivisionError, ZeroDivisionError) as exc:
        return f"error({type(exc).__name__}: {exc})"


def run_random_dj(
    seed: int,
    count: int,
    dim: int,
    entry_bound: int,
    oracle: str = "bareiss",
    grid: Optional[GridSpec] = None,
) -> VerifyReport:
    """Check det(M) * det(interior) against the four corner minors on
    seeded random integer matrices."""
    det = _oracle_fn(oracle)
    if not 3 <= dim <= 7:
        raise ValueError("random minor grids need 3 <= dim <= 7")
    if count < 1 or entry_bound < 1:
        raise ValueError("count and bound must be positive")
    if grid is None:
        grid = GridSpec(
            identity="desnanot-jacobi-random",
            seed=seed,
            count=count,
            dim=dim,
            bound=entry_bound,
            oracle=oracle,
        )
    rng = Lcg64(seed)
    started = time.perf_counter_ns()
    mismatches: List[Mismatch] = []
    with ring.count_ops() as counter:
        for case in range(count):
            matrix = SquareMatrix(
                tuple(
                    tuple(ring.integer(rng.next_int(-entry_bound, entry_bound)) for _ in range(dim))
                    for _ in range(dim)
                )
            )
            last = dim - 1
            lhs = ring.mul(det(matrix), det(matrix.interior()))
            rhs = ring.sub(
                ring.mul(det(matrix.drop_row_col(0, 0)), det(matrix.drop_row_col(last, last))),
                ring.mul(det(matrix.drop_row_col(0, last)), det(matrix.drop_row_col(last, 0))),
            )
            if lhs != rhs:
                mismatches.append(Mismatch({"case": case}, str(lhs), str(rhs)))
    elapsed_ms = (time.perf_counter_ns() - started) // 1_000_000
    return VerifyReport(grid, count, tuple(mismatches), elapsed_ms, counter.muls, counter.divs)
