import random
from fractions import Fraction

import pytest

from hankelrise import ring
from hankelrise.ring import (
    DomainMismatchError,
    ExactScalar,
    InexactDivisionError,
    NotInvertibleError,
    Poly,
    add,
    count_ops,
    exact_div,
    integer,
    mul,
    neg,
    one,
    pow_signed,
    rational,
    sub,
    variable,
    widen,
    zero,
)
from hankelrise.verify import Lcg64


def test_integer_examples():
    assert add(integer(2), integer(3)) == integer(5)
    assert sub(integer(2), integer(3)) == integer(-1)
    assert mul(integer(-4), integer(6)) == integer(-24)
    assert exact_div(integer(6), integer(3)) == integer(2)


def test_rational_examples():
    assert mul(rational(1, 2), rational(2, 3)) == rational(1, 3)
    assert add(rational(1, 2), rational(1, 3)) == rational(5, 6)
    assert exact_div(rational(7, 2), rational(7, 2)) == one(ring.RATIONAL)
    # rationals are kept reduced with positive denominator
    assert rational(10, -4).value == Fraction(-5, 2)


def test_polynomial_examples():
    a, b, c1, c2 = (variable(name) for name in ("a", "b", "c1", "c2"))
    square = mul(b, b)
    assert str(square) == "b^2"
    product = sub(square, mul(c1, mul(a, b)))
    assert str(product) == "b^2 - c1*a*b"
    quotient = exact_div(sub(square, mul(c2, mul(a, b))), b)
    assert quotient == sub(b, mul(c2, a))


def test_inexact_division_errors():
    with pytest.raises(InexactDivisionError):
        exact_div(integer(7), integer(2))
    with pytest.raises(ZeroDivisionError):
        exact_div(integer(1), zero(ring.INTEGER))
    a, b = variable("a"), variable("b")
    with pytest.raises(InexactDivisionError):
        exact_div(add(a, b), a)


def test_pow_signed():
    assert pow_signed(integer(2), 10) == integer(1024)
    assert pow_signed(rational(2), -2) == rational(1, 4)
    assert pow_signed(integer(5), 0) == integer(1)
    assert pow_signed(zero(ring.INTEGER), 3) == zero(ring.INTEGER)
    # a unit is its own inverse in every domain
    for unit in (integer(1), integer(-1), ring.poly_const(1), ring.poly_const(-1)):
        assert pow_signed(unit, -3) == unit
        assert pow_signed(unit, -4) == one(unit.domain)
    # the rational path inverts once, then squares and multiplies
    with ring.count_ops() as counter:
        assert pow_signed(rational(2), -3) == rational(1, 8)
    assert (counter.muls, counter.divs) == (2, 1)
    with pytest.raises(NotInvertibleError):
        pow_signed(variable("c2"), -1)
    with pytest.raises(NotInvertibleError):
        pow_signed(integer(2), -1)
    with pytest.raises(NotInvertibleError):
        pow_signed(integer(-2), -1)
    with pytest.raises(ZeroDivisionError):
        pow_signed(zero(ring.RATIONAL), 0)
    with pytest.raises(ZeroDivisionError):
        pow_signed(zero(ring.RATIONAL), -1)


def test_invertible_is_the_negative_power_rule():
    values = [
        integer(0), integer(1), integer(-1), integer(2),
        rational(0), rational(1), rational(-1), rational(3, 2),
        ring.poly_const(1), ring.poly_const(-1), variable("c2"),
    ]
    for x in values:
        try:
            pow_signed(x, -1)
            raised = False
        except (NotInvertibleError, ZeroDivisionError):
            raised = True
        assert ring.invertible(x) is not raised, x
    assert [ring.invertible(x) for x in values] == [False, True, True, False, False, True, True, True, True, True, False]


def test_domain_mixing():
    widened = add(integer(1), rational(1, 2))
    assert widened == rational(3, 2)
    lifted = mul(integer(3), variable("a"))
    assert str(lifted) == "3*a"
    with pytest.raises(DomainMismatchError):
        add(rational(1, 2), variable("a"))
    with pytest.raises(DomainMismatchError):
        widen(rational(1, 2), ring.POLYNOMIAL)


def _random_scalar(rng, domain):
    if domain == ring.INTEGER:
        return integer(rng.randint(-9, 9))
    if domain == ring.RATIONAL:
        return rational(rng.randint(-9, 9), rng.randint(1, 9))
    terms = {}
    for _ in range(rng.randint(0, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(4))
        terms[mono] = rng.randint(-5, 5)
    return ExactScalar(ring.POLYNOMIAL, Poly(terms))


@pytest.mark.parametrize("domain", ring.DOMAINS)
def test_ring_axioms(domain):
    rng = random.Random(12345)
    for _ in range(60):
        x, y, z = (_random_scalar(rng, domain) for _ in range(3))
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, neg(x)) == zero(domain)
        assert mul(x, one(domain)) == x


@pytest.mark.parametrize("domain", ring.DOMAINS)
def test_exact_div_inverts_mul(domain):
    rng = random.Random(99)
    for _ in range(60):
        x = _random_scalar(rng, domain)
        y = _random_scalar(rng, domain)
        if y.is_zero():
            continue
        assert exact_div(mul(x, y), y) == x


def test_poly_evaluation_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(40):
        p = _random_scalar(rng, ring.POLYNOMIAL)
        q = _random_scalar(rng, ring.POLYNOMIAL)
        point = tuple(rng.randint(-4, 4) for _ in range(4))
        assert mul(p, q).value.evaluate(*point) == p.value.evaluate(*point) * q.value.evaluate(*point)
        assert add(p, q).value.evaluate(*point) == p.value.evaluate(*point) + q.value.evaluate(*point)


def test_canonical_strings():
    assert str(integer(-35)) == "-35"
    assert str(rational(22, 7)) == "22/7"
    assert str(rational(10, 2)) == "5"
    a, b, c1, c2 = (variable(name) for name in ("a", "b", "c1", "c2"))
    delta = sub(sub(mul(b, b), mul(c1, mul(a, b))), mul(c2, mul(a, a)))
    assert str(delta) == "b^2 - c1*a*b - c2*a^2"
    assert str(zero(ring.POLYNOMIAL)) == "0"
    assert str(ring.poly_const(17)) == "17"
    # ascending graded-lex: constant first, then degree-1 terms by exponent vector
    assert str(add(add(integer(3), mul(integer(2), a)), b)) == "3 + b + 2*a"


def test_op_counting():
    with count_ops() as counter:
        mul(integer(3), integer(4))
        exact_div(integer(8), integer(2))
    assert (counter.muls, counter.divs) == (1, 1)
    # shortcuts on exact zeros/ones perform no payload work and are free
    with count_ops() as counter:
        mul(integer(0), integer(9))
        mul(integer(1), integer(9))
        exact_div(zero(ring.INTEGER), integer(4))
        exact_div(integer(4), one(ring.INTEGER))
    assert (counter.muls, counter.divs) == (0, 0)
    # nested contexts both observe inner operations
    with count_ops() as outer:
        with count_ops() as inner:
            mul(integer(2), integer(2))
    assert outer.muls == inner.muls == 1


def test_pow_counts_are_deterministic():
    with count_ops() as first:
        pow_signed(integer(3), 13)
    with count_ops() as second:
        pow_signed(integer(3), 13)
    assert first.muls == second.muls > 0
    assert first.divs == second.divs == 0


# -- packed-exponent kernel against a tuple-keyed reference ------------------


def _grlex(mono):
    return (sum(mono), mono)


def _ref_mul(left, right):
    out = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            key = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_exact_div(dividend, divisor):
    lead = max(divisor, key=_grlex)
    remainder = dict(dividend)
    quotient = {}
    while remainder:
        top = max(remainder, key=_grlex)
        shift = tuple(t - l for t, l in zip(top, lead))
        coeff, residue = divmod(remainder[top], divisor[lead])
        if min(shift) < 0 or residue:
            raise InexactDivisionError("remainder")
        quotient[shift] = coeff
        for mono, dc in divisor.items():
            key = tuple(e + s for e, s in zip(mono, shift))
            total = remainder.get(key, 0) - dc * coeff
            if total:
                remainder[key] = total
            else:
                del remainder[key]
    return quotient


def _ref_str(terms):
    if not terms:
        return "0"
    pieces = []
    for mono in sorted(terms, key=_grlex):
        coeff = terms[mono]
        factors = [
            name if mono[i] == 1 else f"{name}^{mono[i]}"
            for i, name in ((2, "c1"), (3, "c2"), (0, "a"), (1, "b"))
            if mono[i]
        ]
        magnitude = abs(coeff)
        if factors and magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def _lcg_poly(rng):
    terms = {}
    for _ in range(rng.next_int(0, 6)):
        mono = tuple(rng.next_int(0, 3) for _ in range(4))
        terms[mono] = rng.next_int(-9, 9)
    return Poly(terms)


def _kernel_cases():
    rng = Lcg64(31337)
    symbols = [variable(name).value for name in ring.VARIABLES]
    a, b, c1, c2 = symbols
    delta = b * b - c1 * a * b - c2 * a * a
    fixed = [Poly({}), Poly.const(1), Poly.const(-1), Poly.const(6), delta] + symbols
    randoms = [_lcg_poly(rng) for _ in range(300)]
    return [(p, q) for p in fixed for q in fixed] + list(zip(randoms, randoms[1:] + fixed))


def test_packed_kernel_matches_tuple_reference():
    inexact = 0
    for p, q in _kernel_cases():
        product = p * q
        assert product.terms == _ref_mul(p.terms, q.terms)
        assert str(product) == _ref_str(product.terms)
        assert str(p) == _ref_str(p.terms)
        rebuilt = Poly(dict(reversed(list(p.terms.items()))))
        assert rebuilt == p and hash(rebuilt) == hash(p)
        assert (p == q) == (p.terms == q.terms)
        if q.is_zero():
            continue
        assert product.exact_div(q) == p
        assert _ref_exact_div(product.terms, q.terms) == p.terms
        try:
            expected = _ref_exact_div(p.terms, q.terms)
        except InexactDivisionError:
            inexact += 1
            with pytest.raises(InexactDivisionError):
                p.exact_div(q)
        else:
            assert p.exact_div(q).terms == expected
    assert inexact > 200


def test_poly_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="exact division by zero"):
        Poly.const(3).exact_div(Poly({}))


def test_poly_rejects_malformed_monomials():
    for mono in ((-1, 0, 0, 0), (0, 0, 0), (0, 0, 0, 0, 0), (1.0, 0, 0, 0), ("1", 0, 0, 0), 0, "abcd"):
        with pytest.raises(ValueError):
            Poly({mono: 1})
    limit = 32767  # the documented degree cap
    assert Poly({(limit, 0, 0, 0): 1}).terms == {(limit, 0, 0, 0): 1}
    with pytest.raises(OverflowError):
        Poly({(0, 0, limit + 1, 0): 1})
    with pytest.raises(OverflowError):
        Poly({(limit, 1, 0, 0): 1})


def test_poly_product_degree_overflow():
    half = 32767 // 2
    high = Poly({(half, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    assert str(high * high).startswith("1 + 2*a^")
    product = high * high * Poly.variable("b")
    assert dict(product.terms) == {(2 * half, 1, 0, 0): 1, (half, 1, 0, 0): 2, (0, 1, 0, 0): 1}
    with pytest.raises(OverflowError):
        high * high * Poly({(0, 2, 0, 0): 1})


def test_poly_terms_view():
    terms = {(1, 0, 2, 0): 3, (0, 0, 0, 0): -1}
    view = Poly(terms).terms
    assert len(view) == 2 and view == terms and dict(view) == terms
    assert view[(1, 0, 2, 0)] == 3 and (0, 0, 0, 1) not in view
    assert view.get((-1, 0, 0, 0)) is None and view.get((40000, 0, 0, 0)) is None
    assert Poly(view) == Poly(terms)
