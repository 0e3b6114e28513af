"""Second-order linear recurrences with exact bidirectional indexing.

A RecurrenceSpec fixes seeds W_0 = a, W_1 = b and coefficients c1, c2 of

    W_k = c1 * W_{k-1} + c2 * W_{k-2}

with all four values in one scalar domain.  A SequenceCache memoizes terms
in both directions; negative indices extend backwards through

    W_k = (W_{k+2} - c1 * W_{k+1}) / c2

which needs an exact division by c2 at every step.  ring.invertible(c2)
guarantees one, and check_index is the one gate that admits a negative
index only then; verify and every CLI command call it before any
arithmetic.

cache_for(spec) is the one scope lookup: within a shared_sequences()
scope it gives one SequenceCache per spec value, which keeps everything
memoized for that spec, and a new one on every call outside a scope.
companion_cache and delta read through it.  A spec seeded (0, 1) is its
own companion, so within a scope its companion cache is its terms cache.
The scope lives in a ContextVar, so each thread or context has its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple

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


def check_index(spec: RecurrenceSpec, axis: str, lowest: int) -> None:
    """ValueError unless index ``axis`` may go down to ``lowest``: a
    backward step divides by c2, so a negative index needs
    ring.invertible(c2)."""
    if lowest < 0 and not ring.invertible(spec.c2):
        raise ValueError(
            f"negative {axis} needs c2 = +-1, or a nonzero c2 in the rational domain;"
            f" this {spec.domain} spec has c2 = {spec.c2}"
        )


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
    """The memoized sequences and constants of one spec.

    term(k) keeps every W_k it computes, in both directions, and
    rising_power(m, r) every prefix chain W_m, W_m*W_{m+1}, ... it builds,
    by first index m.  companion, the cache of the spec's (0, 1)-seeded
    companion as cache_for gives it, and delta are made on first read.
    Four tables hold the factors of the closed forms in closedform:

      c2_powers      c2^k by signed exponent k, made by c2_power and read
                     by theorem2 and eq4
      theorem2       theorem2_rhs's n-free factor by (r, d)
      eq4_leads      generalized_vajda_rhs's delta * c2^n by n, unsigned
      unit_products  generalized_vajda_rhs's U_i * U_j by (i, j), U the
                     companion's terms

    Each entry is made, and its multiplications counted, on first use; an
    entry whose making raises is not kept.  All of it lives as long as the
    cache.  Within a shared_sequences() scope
    cache_for shares one cache per spec value until the scope exits;
    outside one it makes a new cache on every call.  A cache is
    single-writer: share a spec across threads or workers, not a cache.
    """

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._forward = [spec.a, spec.b]
        self._backward: list[ExactScalar] = []  # index i holds W_{-1-i}
        self._chains: Dict[int, list[ExactScalar]] = {}  # chain[s - 1] = W_m^(s)
        self.c2_powers: Dict[int, ExactScalar] = {}
        self.theorem2: Dict[Tuple[int, int], ExactScalar] = {}
        self.eq4_leads: Dict[int, ExactScalar] = {}
        self.unit_products: Dict[Tuple[int, int], ExactScalar] = {}

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
        """W_m * W_{m+1} * ... * W_{m+r-1}; the empty product (r = 0) is one.

        Read from the prefix chain of index m, which is extended only past
        its end.
        """
        if r < 0:
            raise ValueError("rising power length must be non-negative")
        if r == 0:
            return ring.one(self.spec.domain)
        chain = self._chains.get(m)
        if chain is None:
            chain = self._chains[m] = [self.term(m)]
        while len(chain) < r:
            chain.append(ring.mul(chain[-1], self.term(m + len(chain))))
        return chain[r - 1]

    def c2_power(self, k: int) -> ExactScalar:
        """c2^k for signed k, made by ring.pow_signed on first use and kept
        in c2_powers; a k that raises keeps nothing."""
        power = self.c2_powers.get(k)
        if power is None:
            power = self.c2_powers[k] = ring.pow_signed(self.spec.c2, k)
        return power

    @cached_property
    def companion(self) -> SequenceCache:
        return cache_for(companion(self.spec))

    @cached_property
    def delta(self) -> ExactScalar:
        spec = self.spec
        bb = ring.mul(spec.b, spec.b)
        c1ab = ring.mul(spec.c1, ring.mul(spec.a, spec.b))
        c2aa = ring.mul(spec.c2, ring.mul(spec.a, spec.a))
        return ring.sub(ring.sub(bb, c1ab), c2aa)


_SHARED: ContextVar[Optional[Dict[RecurrenceSpec, SequenceCache]]] = ContextVar(
    "shared_sequences", default=None
)


@contextmanager
def shared_sequences() -> Iterator[None]:
    """Share one SequenceCache per spec value until exit.

    Terms, chains and constants computed once stay for the rest of the
    scope, so their multiplications are counted only where first
    computed.  Leaving the scope releases everything; a nested scope
    starts empty.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def cache_for(spec: RecurrenceSpec) -> SequenceCache:
    """The scope's cache for spec, made on first use; outside a scope, a
    new one on every call."""
    scope = _SHARED.get()
    if scope is None:
        return SequenceCache(spec)
    cache = scope.get(spec)
    if cache is None:
        cache = scope[spec] = SequenceCache(spec)
    return cache


def companion_cache(spec: RecurrenceSpec) -> SequenceCache:
    return cache_for(spec).companion


def delta(spec: RecurrenceSpec) -> ExactScalar:
    """b^2 - c1*a*b - c2*a^2, the quantity controlling degeneracy of the spec."""
    return cache_for(spec).delta
