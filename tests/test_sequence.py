import pickle

import pytest

from hankelrise import ring
from hankelrise.ring import integer, rational, variable
from hankelrise.sequence import (
    PRESETS,
    RecurrenceSpec,
    SequenceCache,
    cache_for,
    companion,
    companion_cache,
    delta,
    preset,
    shared_sequences,
    symbolic_spec,
)

FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]
LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
PELL = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985]
JACOBSTHAL = [0, 1, 1, 3, 5, 11, 21, 43, 85, 171]


@pytest.mark.parametrize(
    "name,expected",
    [("fibonacci", FIB), ("lucas", LUCAS), ("pell", PELL), ("jacobsthal", JACOBSTHAL)],
)
def test_preset_forward_terms(name, expected):
    cache = SequenceCache(preset(name))
    assert [cache.term(k).value for k in range(len(expected))] == expected


def test_preset_names():
    assert sorted(PRESETS) == ["fibonacci", "jacobsthal", "lucas", "pell"]
    with pytest.raises(ValueError):
        preset("tribonacci")
    with pytest.raises(ValueError, match="symbolic_spec"):
        preset("fibonacci", ring.POLYNOMIAL)
    with pytest.raises(ValueError, match="'real'"):
        preset("lucas", "real")


def test_negative_indices_fibonacci():
    cache = SequenceCache(preset("fibonacci"))
    # F_{-k} = (-1)^{k+1} F_k
    for k in range(1, 12):
        sign = 1 if k % 2 == 1 else -1
        assert cache.term(-k).value == sign * FIB[k]


def test_negative_indices_need_invertible_c2():
    pell = SequenceCache(preset("pell"))
    assert pell.term(-1).value == 1 and pell.term(-2).value == -2
    jac = SequenceCache(preset("jacobsthal"))
    with pytest.raises(ring.InexactDivisionError):
        jac.term(-1)
    jac_rat = SequenceCache(preset("jacobsthal", domain=ring.RATIONAL))
    assert jac_rat.term(-1) == rational(1, 2)
    assert jac_rat.term(-3) == rational(3, 8)


def test_recurrence_holds_across_zero():
    cache = SequenceCache(preset("lucas", domain=ring.RATIONAL))
    spec = cache.spec
    for k in range(-8, 10):
        lhs = cache.term(k)
        rhs = ring.add(ring.mul(spec.c1, cache.term(k - 1)), ring.mul(spec.c2, cache.term(k - 2)))
        assert lhs == rhs


def test_companion_seeds():
    spec = preset("lucas")
    comp = companion(spec)
    assert (comp.a, comp.b) == (ring.zero(ring.INTEGER), ring.one(ring.INTEGER))
    assert (comp.c1, comp.c2) == (spec.c1, spec.c2)
    cache = companion_cache(spec)
    assert [cache.term(k).value for k in range(7)] == FIB[:7]


def test_symbolic_spec_terms():
    cache = SequenceCache(symbolic_spec())
    assert str(cache.term(0)) == "a"
    assert str(cache.term(1)) == "b"
    assert str(cache.term(2)) == "c1*b + c2*a"
    assert str(cache.term(3)) == "c2*b + c1^2*b + c1*c2*a"
    # specializing to Fibonacci reproduces integer terms
    for k in range(10):
        assert cache.term(k).value.evaluate(0, 1, 1, 1) == FIB[k]


def test_symbolic_negative_index():
    cache = SequenceCache(symbolic_spec())
    with pytest.raises(ring.InexactDivisionError):
        cache.term(-1)


def test_rising_power():
    cache = SequenceCache(preset("fibonacci"))
    assert cache.rising_power(1, 3).value == 1 * 1 * 2
    assert cache.rising_power(5, 2).value == 5 * 8
    assert cache.rising_power(4, 0) == ring.one(ring.INTEGER)
    assert cache.rising_power(-3, 3).value == 2 * (-1) * 1
    with pytest.raises(ValueError):
        cache.rising_power(2, -1)


def test_rising_power_longer_window():
    cache = SequenceCache(preset("fibonacci"))
    assert cache.rising_power(3, 4).value == 2 * 3 * 5 * 8


def _plain_rising(cache, m, s):
    value = 1
    for k in range(m, m + s):
        value *= cache.term(k).value
    return value


def test_rising_powers_share_prefix_chains_within_a_scope():
    spec = RecurrenceSpec(*(rational(v) for v in (2, 3, 5, 7)))
    plain = SequenceCache(spec)
    points = [(m, s) for m in range(-3, 7) for s in range(9)]
    orders = [points, points[::-1], sorted(points, key=lambda p: (p[1] * 7 + p[0] * 3) % 11)]
    for order in orders:
        longest = {}
        with shared_sequences():
            cache = cache_for(spec)
            for m, s in order:
                with ring.count_ops() as counter:
                    assert cache.rising_power(m, s).value == _plain_rising(plain, m, s), (m, s)
                # a chain that already reaches s multiplies nothing
                if s <= longest.get(m, -1):
                    assert (counter.muls, counter.divs) == (0, 0), (m, s)
                longest[m] = max(s, longest.get(m, -1))


def test_rising_powers_keep_no_chain_outside_a_scope():
    # c1 = c2 = 1 makes every term free, and no term from W_0 on is 0 or 1,
    # so a rising power of length r ticks only its r - 1 products
    spec = RecurrenceSpec(*(rational(v) for v in (2, 3, 1, 1)))
    for m, r in ((2, 5), (0, 8), (5, 1)):
        # outside a scope each cache_for call is a new cache, chains and all
        for _ in range(2):
            with ring.count_ops() as counter:
                cache_for(spec).rising_power(m, r)
            assert (counter.muls, counter.divs) == (r - 1, 0), (m, r)
        # one cache keeps its chains, as it keeps its terms
        cache = cache_for(spec)
        with ring.count_ops() as counter:
            first = cache.rising_power(m, r)
        assert counter.muls == r - 1
        with ring.count_ops() as counter:
            assert cache.rising_power(m, r) is first
        assert (counter.muls, counter.divs) == (0, 0), (m, r)


def test_delta():
    assert delta(preset("fibonacci")) == integer(1)
    assert delta(preset("lucas")) == integer(-5)
    assert delta(preset("pell")) == integer(1)
    assert delta(preset("jacobsthal")) == integer(1)
    sym = delta(symbolic_spec())
    assert str(sym) == "b^2 - c1*a*b - c2*a^2"


def test_spec_rejects_mixed_domains():
    with pytest.raises(ring.DomainMismatchError):
        RecurrenceSpec(a=integer(0), b=rational(1), c1=integer(1), c2=integer(1))
    with pytest.raises(ring.DomainMismatchError):
        RecurrenceSpec(a=integer(0), b=integer(1), c1=variable("c1"), c2=integer(1))


def test_term_caching_is_consistent():
    cache = SequenceCache(preset("pell", domain=ring.RATIONAL))
    far = cache.term(40)
    near = [cache.term(k) for k in range(-6, 41)]
    assert near[-1] == far
    fresh = SequenceCache(preset("pell", domain=ring.RATIONAL))
    assert [fresh.term(k) for k in range(-6, 41)] == near


def test_shared_sequences_scope():
    def generic(domain=ring.RATIONAL):
        return RecurrenceSpec(*(ring._make(domain, v) for v in (2, 3, 5, 7)))

    spec = generic()
    # outside a scope every call makes a new cache and recomputes delta
    assert cache_for(spec) is not cache_for(spec)
    assert companion_cache(spec) is not companion_cache(spec)
    with ring.count_ops() as counter:
        delta(spec), delta(spec)
    assert counter.muls == 2 * 5
    with shared_sequences():
        # one of each per spec value, not per spec object
        shared = cache_for(spec)
        assert cache_for(generic()) is shared
        assert companion_cache(spec) is companion_cache(generic())
        assert companion_cache(spec) is not shared
        assert [companion_cache(spec).term(k).value for k in range(3)] == [0, 1, 5]
        # the same values in another domain are another spec
        assert cache_for(generic(ring.INTEGER)) is not shared
        assert cache_for(generic(ring.INTEGER)).term(0) == integer(2)
        with ring.count_ops() as counter:
            assert delta(spec) == delta(generic()) == rational(9 - 30 - 28)
        assert counter.muls == 5
        assert cache_for(generic()).companion is companion_cache(spec)
        assert cache_for(generic()).delta is delta(spec)
        with shared_sequences():
            assert cache_for(spec) is not shared
        assert cache_for(spec) is shared
    assert cache_for(spec) is not shared


def test_a_zero_one_seeded_spec_is_its_own_companion_within_a_scope():
    for spec in (preset("fibonacci"), preset("pell", ring.RATIONAL), companion(symbolic_spec())):
        with shared_sequences():
            assert companion_cache(spec) is cache_for(spec)
        # outside a scope the two are separate new caches
        assert companion_cache(spec) is not cache_for(spec)


def test_a_nested_scope_makes_its_own_companion_and_delta():
    spec = RecurrenceSpec(*(rational(v) for v in (2, 3, 5, 7)))
    with shared_sequences():
        units = companion_cache(spec)
        with ring.count_ops() as counter:
            outer = delta(spec)
        assert counter.muls == 5
        with shared_sequences():
            assert companion_cache(spec) is not units
            with ring.count_ops() as counter:
                assert delta(spec) == outer and delta(spec) is not outer
            assert counter.muls == 5
        # leaving the inner scope leaves the outer one as it was
        assert companion_cache(spec) is units
        with ring.count_ops() as counter:
            assert delta(spec) is outer
        assert counter.muls == 0


def test_shared_cache_is_unchanged_by_a_failed_step():
    degenerate = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))
    with shared_sequences():
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="exact division by zero"):
                cache_for(degenerate).term(-2)
        assert cache_for(degenerate).term(3) == rational(1)


def test_spec_hash_follows_value():
    for domain in (ring.INTEGER, ring.RATIONAL):
        spec = preset("pell", domain)
        assert hash(spec) == hash(preset("pell", domain))
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
    sym = symbolic_spec()
    assert hash(sym) == hash(symbolic_spec()) and {sym: 1}[symbolic_spec()] == 1
    assert preset("pell") != preset("pell", ring.RATIONAL)
