"""Second-order linear recurrences with exact bidirectional indexing.

A RecurrenceSpec fixes seeds W_0 = a, W_1 = b and coefficients c1, c2 of

    W_k = c1 * W_{k-1} + c2 * W_{k-2}

with all four values in one scalar domain.  A SequenceCache memoizes terms
in both directions; negative indices extend backwards through

    W_k = (W_{k+2} - c1 * W_{k+1}) / c2

which needs c2 != 0 and, outside the rational domain, an exact division at
every step (c2 = +-1 always qualifies).

cache_for, companion_cache and delta give one cache (or value) per spec
value for the life of a shared_sequences() scope, and a new one on every
call outside a scope.  Caches are single-writer: the scope lives in a
ContextVar, so each thread or context has its own; share a spec across
workers, not a cache.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

from . import ring
from .ring import ExactScalar

PRESETS = {
    "fibonacci": (0, 1, 1, 1),
    "lucas": (2, 1, 1, 1),
    "pell": (0, 1, 2, 1),
    "jacobsthal": (0, 1, 1, 2),
}


@dataclass(frozen=True)
class RecurrenceSpec:
    a: ExactScalar
    b: ExactScalar
    c1: ExactScalar
    c2: ExactScalar

    def __post_init__(self):
        domains = {self.a.domain, self.b.domain, self.c1.domain, self.c2.domain}
        if len(domains) != 1:
            raise ring.DomainMismatchError(f"spec values span domains {sorted(domains)}")

    @property
    def domain(self) -> str:
        return self.a.domain

    # shared_sequences() looks a spec up on every closed-form call, and
    # hashing four Fractions was most of a lookup's cost.  The payloads
    # alone hash the same in every process, so a copied or unpickled spec
    # may carry the cached value.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.a.value, self.b.value, self.c1.value, self.c2.value))


def preset(name: str, domain: str = ring.INTEGER) -> RecurrenceSpec:
    """One of the named classical specs, in the given numeric domain."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    if domain == ring.POLYNOMIAL:
        raise ValueError("presets are numeric; use symbolic_spec() for the polynomial domain")
    a, b, c1, c2 = (ring._make(domain, v) for v in PRESETS[name])
    return RecurrenceSpec(a, b, c1, c2)


def symbolic_spec() -> RecurrenceSpec:
    """The fully generic spec: seeds and coefficients as the four variables."""
    return RecurrenceSpec(
        ring.variable("a"), ring.variable("b"), ring.variable("c1"), ring.variable("c2")
    )


def companion(spec: RecurrenceSpec) -> RecurrenceSpec:
    """Same coefficients, seeds (0, 1)."""
    domain = spec.domain
    return RecurrenceSpec(ring.zero(domain), ring.one(domain), spec.c1, spec.c2)


class SequenceCache:
    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._forward = [spec.a, spec.b]
        self._backward: list[ExactScalar] = []  # index i holds W_{-1-i}

    def term(self, k: int) -> ExactScalar:
        if k >= 0:
            forward = self._forward
            while len(forward) <= k:
                forward.append(
                    ring.add(
                        ring.mul(self.spec.c1, forward[-1]),
                        ring.mul(self.spec.c2, forward[-2]),
                    )
                )
            return forward[k]
        backward = self._backward
        while len(backward) < -k:
            # next slot holds W_{-1-i} = (W_{1-i} - c1*W_{-i}) / c2
            above1 = self.term(1 - len(backward))
            above0 = self.term(-len(backward))
            backward.append(
                ring.exact_div(ring.sub(above1, ring.mul(self.spec.c1, above0)), self.spec.c2)
            )
        return backward[-k - 1]

    def rising_power(self, m: int, r: int) -> ExactScalar:
        """W_m * W_{m+1} * ... * W_{m+r-1}; the empty product (r = 0) is one."""
        if r < 0:
            raise ValueError("rising power length must be non-negative")
        if r == 0:
            return ring.one(self.spec.domain)
        value = self.term(m)
        for offset in range(1, r):
            value = ring.mul(value, self.term(m + offset))
        return value


_SHARED: ContextVar[Optional[Dict[Tuple[str, RecurrenceSpec], object]]] = ContextVar(
    "shared_sequences", default=None
)

_T = TypeVar("_T")


@contextmanager
def shared_sequences() -> Iterator[None]:
    """Share one cache, companion cache and delta per spec until exit.

    Terms computed once stay for the rest of the scope, so their
    multiplications are counted only where first computed.  Leaving the
    scope releases everything; a nested scope starts empty.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(kind: str, spec: RecurrenceSpec, make: Callable[[RecurrenceSpec], _T]) -> _T:
    """The scope's ``kind`` value for spec, made on first use; outside a
    scope, a new one on every call."""
    scope = _SHARED.get()
    if scope is None:
        return make(spec)
    key = (kind, spec)
    value = scope.get(key)
    if value is None:
        value = scope[key] = make(spec)
    return value


def cache_for(spec: RecurrenceSpec) -> SequenceCache:
    return _shared("terms", spec, SequenceCache)


def companion_cache(spec: RecurrenceSpec) -> SequenceCache:
    return _shared("companion", spec, lambda spec: SequenceCache(companion(spec)))


def delta(spec: RecurrenceSpec) -> ExactScalar:
    """b^2 - c1*a*b - c2*a^2, the quantity controlling degeneracy of the spec."""
    return _shared("delta", spec, _delta)


def _delta(spec: RecurrenceSpec) -> ExactScalar:
    bb = ring.mul(spec.b, spec.b)
    c1ab = ring.mul(spec.c1, ring.mul(spec.a, spec.b))
    c2aa = ring.mul(spec.c2, ring.mul(spec.a, spec.a))
    return ring.sub(ring.sub(bb, c1ab), c2aa)
