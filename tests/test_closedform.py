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
from hankelrise.sequence import PRESETS, RecurrenceSpec, preset, shared_sequences, symbolic_spec
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
