from fractions import Fraction
from math import comb

import pytest

from hankelrise import ring
from hankelrise.closedform import (
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
from hankelrise.determinant import det_bareiss
from hankelrise.matgen import MatrixQuery, build
from hankelrise.ring import integer
from hankelrise.sequence import PRESETS, RecurrenceSpec, cache_for, delta, preset, shared_sequences, symbolic_spec
from hankelrise.verify import Lcg64


def _det(spec, n, r, d, mode="rising"):
    return det_bareiss(build(spec, MatrixQuery(n, r, d, mode))).value


def test_rising_anchors():
    assert theorem1_rhs(0, 1, 2) == integer(-1)
    assert theorem1_rhs(1, 2, 2) == integer(2)
    # r = 0 builds all-ones matrices; the 1x1 value is the empty product
    assert theorem1_rhs(0, 0, 1) == integer(1)
    assert _det(preset("fibonacci"), 0, 0, 1) == integer(1)


def test_rising_matches_oracle():
    fib = preset("fibonacci")
    for n in range(0, 5):
        for r in range(0, 5):
            for d in range(1, r + 2):
                assert theorem1_rhs(n, r, d) == _det(fib, n, r, d)


def test_rising_matches_oracle_negative_base():
    fib = preset("fibonacci")
    for n in range(-6, 0):
        for r in range(0, 4):
            for d in range(1, r + 2):
                assert theorem1_rhs(n, r, d) == _det(fib, n, r, d)


def test_general_spec_specializes_to_fibonacci():
    fib = preset("fibonacci")
    for n in range(0, 4):
        for r in range(0, 4):
            for d in range(1, r + 2):
                assert theorem2_rhs(fib, n, r, d) == theorem1_rhs(n, r, d)


@pytest.mark.parametrize("name", ["lucas", "pell", "jacobsthal"])
def test_general_spec_matches_oracle(name):
    spec = preset(name)
    for n in range(0, 4):
        for r in range(0, 4):
            for d in range(1, r + 2):
                assert theorem2_rhs(spec, n, r, d) == _det(spec, n, r, d)


def test_general_spec_negative_base_needs_rationals():
    # c2 = 2 has no integer inverse; c2 = +-1 is its own inverse, so lucas
    # works over the integers as well as the rationals
    with pytest.raises(ring.NotInvertibleError):
        theorem2_rhs(preset("jacobsthal"), -3, 2, 2)
    for domain in (ring.INTEGER, ring.RATIONAL):
        spec = preset("lucas", domain)
        for n in range(-4, 0):
            for r in range(0, 4):
                for d in range(1, r + 2):
                    assert theorem2_rhs(spec, n, r, d) == _det(spec, n, r, d)


def test_general_spec_symbolic():
    sym = symbolic_spec()
    for n in range(0, 3):
        for r in range(0, 3):
            for d in range(1, r + 2):
                assert theorem2_rhs(sym, n, r, d) == _det(sym, n, r, d)
    assert str(theorem2_rhs(sym, 0, 2, 1)) == "a*b"


def test_symbolic_theorem2_specializes_to_every_preset():
    # both sides computed once over the poly domain, then evaluated at each
    # preset's seeds, must equal the same sides computed over the integers
    sym = symbolic_spec()
    checked = 0
    for n in range(0, 2):
        for r in range(0, 4):
            minors = det_bareiss(build(sym, MatrixQuery(n, r, r + 1))).minors
            for d in range(1, r + 2):
                lhs, rhs = minors[d - 1].value, theorem2_rhs(sym, n, r, d).value
                for name, seeds in PRESETS.items():
                    spec = preset(name)
                    assert lhs.evaluate(*seeds) == _det(spec, n, r, d).value, (name, n, r, d)
                    assert rhs.evaluate(*seeds) == theorem2_rhs(spec, n, r, d).value, (name, n, r, d)
                    checked += 1
    assert checked == 2 * 10 * len(PRESETS)


def _seeded_unit_specs():
    """8 Lcg64(4044) integer specs (a, b, c1, c2) with c2 = +-1."""
    rng = Lcg64(4044)
    points = []
    for _ in range(8):
        a, b, c1 = (rng.next_int(-9, 9) for _ in range(3))
        points.append((a, b, c1, 2 * rng.next_int(0, 1) - 1))
    assert {p[3] for p in points} == {-1, 1}
    return points


def test_symbolic_theorem2_specializes_to_integer_points():
    # as above, at seeded integer specs instead of the presets
    sym = symbolic_spec()
    points = _seeded_unit_specs()
    checked = 0
    for n in range(0, 2):
        for r in range(0, 4):
            minors = det_bareiss(build(sym, MatrixQuery(n, r, r + 1))).minors
            for d in range(1, r + 2):
                lhs, rhs = minors[d - 1].value, theorem2_rhs(sym, n, r, d).value
                for seeds in points:
                    spec = RecurrenceSpec(*(integer(v) for v in seeds))
                    assert lhs.evaluate(*seeds) == _det(spec, n, r, d).value, (seeds, n, r, d)
                    assert rhs.evaluate(*seeds) == theorem2_rhs(spec, n, r, d).value, (seeds, n, r, d)
                    checked += 1
    assert checked == 2 * 10 * 8


def test_symbolic_eq4_specializes_to_integer_points():
    # both sides of eq4 over the poly domain, evaluated at the preset seeds
    # and at seeded integer specs with c2 = +-1, must equal the same sides
    # computed over the integers for that spec
    points = list(PRESETS.values()) + _seeded_unit_specs()
    sym = symbolic_spec()
    checked = 0
    for n in range(0, 4):
        for i in range(0, 5):
            for j in range(0, 5):
                lhs = generalized_vajda_lhs(sym, n, i, j).value
                rhs = generalized_vajda_rhs(sym, n, i, j).value
                for seeds in points:
                    spec = RecurrenceSpec(*(integer(v) for v in seeds))
                    assert lhs.evaluate(*seeds) == generalized_vajda_lhs(spec, n, i, j).value, (seeds, n, i, j)
                    assert rhs.evaluate(*seeds) == generalized_vajda_rhs(spec, n, i, j).value, (seeds, n, i, j)
                    checked += 1
    assert checked == 4 * 25 * 12


def test_square_case_collapse():
    for n in range(-4, 5):
        for r in range(0, 5):
            assert prodinger_rhs(n, r) == theorem1_rhs(n, r, r + 1)


def test_plain_power_anchor():
    assert carlitz_rhs(0, 2) == integer(-2)
    assert _det(preset("fibonacci"), 0, 2, 3, mode="power") == integer(-2)


def test_plain_power_matches_oracle():
    fib = preset("fibonacci")
    for n in range(-3, 4):
        for r in range(0, 4):
            assert carlitz_rhs(n, r) == _det(fib, n, r, r + 1, mode="power")


def test_bilinear_fibonacci():
    assert vajda_rhs(0, 1, 1) == integer(-1)
    for n in range(-6, 7):
        for i in range(0, 4):
            for j in range(0, 4):
                assert vajda_lhs(n, i, j) == vajda_rhs(n, i, j)


def test_bilinear_general_spec():
    for name in ("fibonacci", "lucas", "pell", "jacobsthal"):
        spec = preset(name)
        for n in range(0, 5):
            for i in range(0, 4):
                for j in range(0, 4):
                    assert generalized_vajda_lhs(spec, n, i, j) == generalized_vajda_rhs(spec, n, i, j)


def test_bilinear_sign_is_a_parity_at_unit_c2():
    # (-1)^(n+1) * c2^n with c2 = 1 multiplies nothing: once the terms and
    # delta are cached, a point costs at most delta * (U_i * U_j)
    for name in ("fibonacci", "lucas"):
        spec = preset(name)
        with shared_sequences():
            generalized_vajda_rhs(spec, 0, 8, 8)
            for n in range(-10, 11):
                for i in range(0, 9):
                    for j in range(0, 9):
                        with ring.count_ops() as counter:
                            generalized_vajda_rhs(spec, n, i, j)
                        assert counter.muls <= 2, (name, n, i, j)


def test_theorem2_makes_its_n_free_factor_once_per_scope(monkeypatch):
    # delta^C(d,2) times the U-staircase is made once per (r, d) inside a
    # shared_sequences() scope, and afresh on every call outside one
    from hankelrise import closedform

    made = []
    make = closedform._theorem2_constant

    def counted(spec, r, d):
        made.append((r, d))
        return make(spec, r, d)

    monkeypatch.setattr(closedform, "_theorem2_constant", counted)
    spec = RecurrenceSpec(*(ring.rational(v) for v in (1, 2, 3, Fraction(-2, 3))))
    ns = range(-3, 4)
    windows = [(r, d) for r in range(0, 5) for d in range(1, r + 2)]
    alone = {}
    for r, d in windows:
        for n in ns:
            with ring.count_ops() as first:
                value = theorem2_rhs(spec, n, r, d)
            with ring.count_ops() as second:
                assert theorem2_rhs(spec, n, r, d) == value
            assert (first.muls, first.divs) == (second.muls, second.divs), (n, r, d)
            alone[n, r, d] = value
    assert len(made) == 2 * len(windows) * len(ns)
    made.clear()
    with shared_sequences():
        for r, d in windows:
            for n in ns:
                assert theorem2_rhs(spec, n, r, d) == alone[n, r, d], (n, r, d)
    assert made == windows

    def ticks():
        for n in ns:
            with ring.count_ops() as counter:
                theorem2_rhs(spec, n, 4, 3)
            yield counter.muls, counter.divs

    # in a fresh scope the first n pays for the staircase, the backward
    # terms and its chains; the later n only extend chains and multiply
    with shared_sequences():
        assert list(ticks()) == [(20, 2), (9, 1), (6, 0), (9, 0), (10, 0), (11, 0), (11, 0)]
    # outside a scope each call makes the factor and its chains afresh
    assert list(ticks()) == [(20, 2), (22, 1), (22, 0), (27, 0), (30, 0), (33, 0), (35, 0)]


def test_eq4_rhs_makes_one_scope_lookup_per_call(monkeypatch):
    # each side reads its spec's cache through one cache_for call, and the
    # rhs reads the companion cache and delta off that cache
    from hankelrise import closedform, sequence

    looked_up = []
    lookup = sequence.cache_for

    def counted(spec):
        looked_up.append(spec)
        return lookup(spec)

    monkeypatch.setattr(closedform, "cache_for", counted)
    monkeypatch.setattr(sequence, "cache_for", counted)
    spec = preset("pell", ring.RATIONAL)
    with shared_sequences():
        value = generalized_vajda_rhs(spec, -3, 2, 5)
        looked_up.clear()
        assert generalized_vajda_rhs(spec, -3, 2, 5) == value
        assert looked_up == [spec]
        assert generalized_vajda_lhs(spec, -3, 2, 5) == value
        assert looked_up == [spec, spec]
    assert generalized_vajda_rhs(spec, -3, 2, 5) == value


def test_theorem2_and_eq4_share_one_delta_within_a_scope():
    # theorem2 at (r, d) = (2, 2) reads delta, U_1, U_2 and W; eq4's rhs at
    # i = j = 1 reads delta and the seed U_1 only, so within one scope the
    # two together cost their costs apart less one delta
    spec = RecurrenceSpec(*(ring.rational(v) for v in (2, 3, 5, 7)))
    sides = {
        "theorem2": lambda: theorem2_rhs(spec, 1, 2, 2),
        "eq4": lambda: generalized_vajda_rhs(spec, 2, 1, 1),
    }

    def cost(*names):
        with ring.count_ops() as counter, shared_sequences():
            for name in names:
                sides[name]()
        return counter.muls, counter.divs

    with ring.count_ops() as counter, shared_sequences():
        delta(spec)
    assert (counter.muls, counter.divs) == (5, 0)
    apart = [sum(pair) for pair in zip(cost("theorem2"), cost("eq4"))]
    for order in (("theorem2", "eq4"), ("eq4", "theorem2")):
        assert cost(*order) == (apart[0] - 5, apart[1]), order


def test_eq4_rhs_makes_no_lead_for_a_zero_unit_product():
    # outside a scope, at n = 3 and (i, j) = (0, 3) or (3, 0): U_0 = 0
    # makes U_i * U_j zero, and the rhs costs only c2^3 (2 muls) and U_3
    # (1 mul), not delta (5) or delta * c2^3 (1)
    spec = RecurrenceSpec(*(ring.rational(v) for v in (2, 3, 5, 7)))
    for i, j in ((0, 3), (3, 0)):
        with ring.count_ops() as counter:
            value = generalized_vajda_rhs(spec, 3, i, j)
        assert value == ring.zero(ring.RATIONAL) == generalized_vajda_lhs(spec, 3, i, j)
        assert (counter.muls, counter.divs) == (3, 0)
    with shared_sequences():
        generalized_vajda_rhs(spec, 3, 0, 3)
        assert cache_for(spec).eq4_leads == {}
    # a c2 with no inverse still raises at negative n where U_i * U_j is zero
    with pytest.raises(ring.NotInvertibleError):
        generalized_vajda_rhs(preset("jacobsthal"), -1, 0, 2)


def test_bilinear_negative_base_rational():
    spec = preset("jacobsthal", ring.RATIONAL)
    for n in range(-5, 0):
        for i in range(0, 3):
            for j in range(0, 3):
                assert generalized_vajda_lhs(spec, n, i, j) == generalized_vajda_rhs(spec, n, i, j)


def test_bilinear_symbolic():
    # holds as a polynomial identity in a, b, c1, c2
    sym = symbolic_spec()
    for n in range(0, 4):
        for i in range(0, 3):
            for j in range(0, 3):
                assert generalized_vajda_lhs(sym, n, i, j) == generalized_vajda_rhs(sym, n, i, j)


def test_rank_bound_value():
    fib = preset("fibonacci")
    assert hankel_rank_bound_value(fib, 0, 1, 3) == ring.zero(ring.INTEGER)
    assert hankel_rank_bound_value(symbolic_spec(), 2, 0, 2) == ring.zero(ring.POLYNOMIAL)
    for n in range(-3, 4):
        for r in range(0, 3):
            for d in range(r + 2, r + 4):
                assert _det(fib, n, r, d) == hankel_rank_bound_value(fib, n, r, d)


def test_window_validation():
    with pytest.raises(ValueError):
        theorem1_rhs(0, 1, 3)
    with pytest.raises(ValueError):
        theorem1_rhs(0, -1, 1)
    with pytest.raises(ValueError):
        theorem1_rhs(0, 1, 0)
    with pytest.raises(ValueError):
        theorem2_rhs(preset("lucas"), 0, 1, 3)
    with pytest.raises(ValueError):
        prodinger_rhs(0, -2)
    with pytest.raises(ValueError):
        carlitz_rhs(0, -1)
    with pytest.raises(ValueError):
        hankel_rank_bound_value(preset("fibonacci"), 0, 1, 2)
    with pytest.raises(ValueError):
        hankel_rank_bound_value(preset("fibonacci"), 0, -1, 2)


def test_closed_forms_use_no_division_on_int_grids():
    with ring.count_ops() as counter:
        theorem1_rhs(3, 5, 4)
        carlitz_rhs(2, 4)
        prodinger_rhs(1, 5)
        theorem2_rhs(preset("lucas"), 2, 4, 3)
    assert counter.divs == 0
    assert counter.muls > 0


def _table_points(spec, ns):
    """theorem2's (n, r, d) on r 0..3 and eq4's (n, i, j) on i, j 0..4."""
    return [(theorem2_rhs, n, r, d) for n in ns for r in range(0, 4) for d in range(1, r + 2)] + [
        (generalized_vajda_rhs, n, i, j) for n in ns for i in range(0, 5) for j in range(0, 5)
    ]


@pytest.mark.parametrize(
    "spec, ns",
    [
        (preset("pell"), range(-3, 4)),
        (preset("jacobsthal"), range(0, 4)),
        (preset("jacobsthal", ring.RATIONAL), range(-3, 4)),
        (RecurrenceSpec(*(ring.rational(v) for v in (1, 2, 3, Fraction(-2, 3)))), range(-3, 4)),
        (symbolic_spec(), range(0, 3)),
    ],
    ids=["int-pell", "int-jacobsthal", "rat-jacobsthal", "rat-c2=-2/3", "poly"],
)
def test_factor_tables_give_fresh_evaluation_values(spec, ns):
    # theorem2 and eq4 read c2's powers, eq4's delta * c2^n and U_i * U_j
    # off the scope's tables; each value is the one a fresh cache gives
    points = _table_points(spec, ns)
    alone = [rhs(spec, *point) for rhs, *point in points]
    with shared_sequences():
        assert [rhs(spec, *point) for rhs, *point in points] == alone


def test_factor_tables_make_each_entry_once_per_scope(monkeypatch):
    # within a scope each c2 power is made once, by ring.pow_signed, and
    # shared by theorem2 and eq4; a second sweep makes no entry again.
    # Outside a scope every call makes its c2 power afresh
    powers = []
    pow_signed = ring.pow_signed
    monkeypatch.setattr(ring, "pow_signed", lambda x, k: powers.append((x, k)) or pow_signed(x, k))
    spec = preset("jacobsthal", ring.RATIONAL)
    ns = range(-3, 4)
    points = _table_points(spec, ns)
    with shared_sequences():
        cache = cache_for(spec)
        for rhs, *point in points:
            rhs(spec, *point)
        c2_powers = [k for x, k in powers if x is spec.c2]
        wanted = set(ns) | {(n + d - 2) * comb(d, 2) for n in ns for d in range(1, 5)}
        assert sorted(c2_powers) == sorted(wanted)
        assert set(cache.c2_powers) == wanted
        assert set(cache.eq4_leads) == set(ns)
        assert set(cache.unit_products) == {(i, j) for i in range(0, 5) for j in range(0, 5)}
        tables = [dict(table) for table in (cache.c2_powers, cache.eq4_leads, cache.unit_products)]
        made = len(powers)
        for rhs, *point in points:
            rhs(spec, *point)
        assert len(powers) == made
        for kept, table in zip(tables, (cache.c2_powers, cache.eq4_leads, cache.unit_products)):
            assert kept.keys() == table.keys() and all(table[key] is value for key, value in kept.items())
    powers.clear()
    for _ in range(2):
        theorem2_rhs(spec, -3, 2, 2)
        generalized_vajda_rhs(spec, -3, 1, 1)
    assert [k for x, k in powers if x is spec.c2] == [-3, -3, -3, -3]


def test_a_c2_power_that_raises_is_not_kept(monkeypatch):
    # jacobsthal's int c2 = 2 has no inverse: theorem2 at n = -3, d = 2
    # needs c2^-3, which raises on every call and leaves no entry
    powers = []
    pow_signed = ring.pow_signed
    monkeypatch.setattr(ring, "pow_signed", lambda x, k: powers.append(k) or pow_signed(x, k))
    spec = preset("jacobsthal")
    with shared_sequences():
        for _ in range(2):
            with pytest.raises(ring.NotInvertibleError):
                theorem2_rhs(spec, -3, 2, 2)
        assert powers == [-3, -3]
        cache = cache_for(spec)
        assert cache.c2_powers == {} and cache.eq4_leads == {} and cache.theorem2 == {}
