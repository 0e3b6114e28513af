"""Product-formula evaluators for the Hankel determinant identities.

Every function returns the exact value of a determinant (or bilinear
combination) as a product of recurrence terms, powers of the spec values
c2, -c2 and delta = b^2 - c1*a*b - c2*a^2, and an explicit sign.  Explicit
signs are resolved through exponent parity only; nothing here computes
(-1)**e as a sign.

Naming follows the verification grid identity ids.  theorem2 (rising
powers) and eq4 (the generalized Vajda bilinear identity the rank
arguments rest on) hold for any spec.  theorem1 and vajda are the same
formulas at the Fibonacci spec (a, b, c1, c2) = (0, 1, 1, 1), where
c2 = delta = 1, and delegate to them.  prodinger (the d = r+1 square case)
and carlitz (plain powers) are Fibonacci-only forms written out on their
own: the grids compare them with theorem1 and with the oracle, which
checks something only while they stay independent.

The square-case evaluators accept 1 <= d <= r+1.  Beyond that window the
matrices are rank-deficient and the determinant is zero, which
hankel_rank_bound_value returns as a tested convention for d > r+1.
"""

from __future__ import annotations

from math import comb

from . import ring
from .ring import ExactScalar
from .sequence import RecurrenceSpec, cache_for, companion_cache, delta, preset

_FIBONACCI = preset("fibonacci")


def _apply_sign(value: ExactScalar, exponent: int) -> ExactScalar:
    return ring.neg(value) if exponent % 2 else value


def _check_window(r: int, d: int) -> None:
    if r < 0:
        raise ValueError("power length r must be non-negative")
    if not 1 <= d <= r + 1:
        raise ValueError(f"square-case evaluators need 1 <= d <= r+1, got d={d}, r={r}")


def theorem1_rhs(n: int, r: int, d: int) -> ExactScalar:
    """d x d determinant of rising powers F_{n+i+j}^(r), 1 <= d <= r+1:

    (-1)^(n*C(d,2) + C(d+1,3))
      * prod_{i=1}^{d-1} (F_i * F_{r+1-i})^(d-i)
      * prod_{i=d-1}^{2(d-1)} F_{n+i}^(r+1-d)
    """
    return theorem2_rhs(_FIBONACCI, n, r, d)


def theorem2_rhs(spec: RecurrenceSpec, n: int, r: int, d: int) -> ExactScalar:
    """General-spec version of theorem1_rhs:

    (-1)^(n*C(d,2) + C(d+1,3)) * c2^((n+d-2)*C(d,2)) * delta^C(d,2)
      * prod_{i=1}^{d-1} (U_i * U_{r+1-i})^(d-i)
      * prod_{i=d-1}^{2(d-1)} W_{n+i}^(r+1-d)

    with U the companion sequence (seeds 0, 1).  Negative c2 exponents
    need ring.invertible(c2); zero-exponent factors are skipped, so d = 1
    works for any spec.
    """
    _check_window(r, d)
    pairs = comb(d, 2)
    cache = cache_for(spec)
    units = companion_cache(spec)
    total = ring.one(spec.domain)
    c2_exponent = (n + d - 2) * pairs
    if c2_exponent:
        total = ring.mul(total, ring.pow_signed(spec.c2, c2_exponent))
    if pairs:
        total = ring.mul(total, ring.pow_signed(delta(spec), pairs))
    running = ring.one(spec.domain)
    for i in range(1, d):
        running = ring.mul(running, ring.mul(units.term(i), units.term(r + 1 - i)))
        total = ring.mul(total, running)
    for i in range(d - 1, 2 * d - 1):
        total = ring.mul(total, cache.rising_power(n + i, r + 1 - d))
    return _apply_sign(total, n * pairs + comb(d + 1, 3))


def prodinger_rhs(n: int, r: int) -> ExactScalar:
    """The d = r+1 square case of the Fibonacci rising-power determinant:

    (-1)^(n*C(r+1,2) + C(r+2,3)) * (F_1 * F_2 * ... * F_r)^(r+1)
    """
    if r < 0:
        raise ValueError("power length r must be non-negative")
    fib = cache_for(_FIBONACCI)
    base = ring.one(ring.INTEGER)
    for i in range(1, r + 1):
        base = ring.mul(base, fib.term(i))
    value = ring.pow_signed(base, r + 1)
    return _apply_sign(value, n * comb(r + 1, 2) + comb(r + 2, 3))


def carlitz_rhs(n: int, r: int) -> ExactScalar:
    """(r+1) x (r+1) determinant of plain powers F_{n+i+j}^r:

    (-1)^((n+1)*C(r+1,2)) * (F_1^r * F_2^(r-1) * ... * F_r)^2
      * prod_{i=0}^{r} C(r,i)
    """
    if r < 0:
        raise ValueError("power length r must be non-negative")
    fib = cache_for(_FIBONACCI)
    staircase = ring.one(ring.INTEGER)
    running = ring.one(ring.INTEGER)
    for i in range(1, r + 1):
        running = ring.mul(running, fib.term(i))
        staircase = ring.mul(staircase, running)
    total = ring.mul(staircase, staircase)
    binomials = 1
    for i in range(r + 1):
        binomials *= comb(r, i)
    total = ring.mul(total, ring.integer(binomials))
    return _apply_sign(total, (n + 1) * comb(r + 1, 2))


def vajda_lhs(n: int, i: int, j: int) -> ExactScalar:
    """F_n * F_{n+i+j} - F_{n+i} * F_{n+j}, evaluated literally."""
    return generalized_vajda_lhs(_FIBONACCI, n, i, j)


def vajda_rhs(n: int, i: int, j: int) -> ExactScalar:
    """(-1)^(n+1) * F_i * F_j."""
    return generalized_vajda_rhs(_FIBONACCI, n, i, j)


def generalized_vajda_lhs(spec: RecurrenceSpec, n: int, i: int, j: int) -> ExactScalar:
    """W_n * W_{n+i+j} - W_{n+i} * W_{n+j}, evaluated literally."""
    cache = cache_for(spec)
    return ring.sub(
        ring.mul(cache.term(n), cache.term(n + i + j)),
        ring.mul(cache.term(n + i), cache.term(n + j)),
    )


def generalized_vajda_rhs(spec: RecurrenceSpec, n: int, i: int, j: int) -> ExactScalar:
    """(-1) * (-c2)^n * delta * U_i * U_j = (-1)^(n+1) * c2^n * delta * U_i * U_j.

    Negative n needs ring.invertible(c2); c2^0 is skipped, as 0^0 raises.
    """
    units = companion_cache(spec)
    value = ring.mul(delta(spec), ring.mul(units.term(i), units.term(j)))
    if n:
        value = ring.mul(value, ring.pow_signed(spec.c2, n))
    return _apply_sign(value, n + 1)


def hankel_rank_bound_value(spec: RecurrenceSpec, n: int, r: int, d: int) -> ExactScalar:
    """Zero, the determinant value forced by the rank bound once d > r+1.

    The rising-power sequence m -> W_m^(r) satisfies a linear recurrence of
    order r+1, so any d x d Hankel slice with d > r+1 is rank-deficient.
    Calling this inside the square-case window is an error; use the
    evaluators above there.
    """
    if r < 0:
        raise ValueError("power length r must be non-negative")
    if d <= r + 1:
        raise ValueError(f"rank bound applies only beyond the square case, got d={d}, r={r}")
    return ring.zero(spec.domain)
