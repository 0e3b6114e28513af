import copy
import dataclasses
import itertools
import math
import pickle
import random
import sys
from collections import Counter
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
    zero,
)
from hankelrise.determinant import det_bareiss, det_hankel_strip
from hankelrise.matgen import RISING, MatrixQuery, build
from hankelrise.sequence import SequenceCache, delta, preset, symbolic_spec
from hankelrise.verify import GridSpec, Lcg64, run_grid


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


def test_failed_divisions_and_products_tick_by_the_one_rule():
    # a zero divisor raises before any tick, over a zero dividend too; an
    # inexact division and a product past the degree cap are ticked before
    # their payload work runs, so they count although they raise
    with count_ops() as counter:
        for domain in ring.DOMAINS:
            with pytest.raises(ZeroDivisionError):
                exact_div(zero(domain), zero(domain))
    assert (counter.muls, counter.divs) == (0, 0)
    a, b = variable("a"), variable("b")
    for top, divisor in ((integer(7), integer(2)), (add(a, b), a)):
        with count_ops() as counter:
            with pytest.raises(InexactDivisionError):
                exact_div(top, divisor)
        assert (counter.muls, counter.divs) == (0, 1)
    half = 32767 // 2
    high = ExactScalar(ring.POLYNOMIAL, Poly({(half, 0, 0, 0): 1, (0, 0, 0, 0): 1}))
    square, tail = mul(high, high), add(mul(b, b), one(ring.POLYNOMIAL))
    with count_ops() as counter:
        with pytest.raises(OverflowError):
            mul(square, tail)
    assert (counter.muls, counter.divs) == (1, 0)


def test_inexact_int_division_raises_past_the_int_digit_limit(monkeypatch):
    # CPython 3.11+ refuses to print an int of over 4,300 digits; the error
    # then names the operands' bit lengths instead of their digits.  huge
    # has 16,610 bits, so huge * huge (+ 1) over huge passes the crossover
    # and divides recursively
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    saved = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(4300)
    huge = 10**5000 + 1
    int_quotient = ring._int_quotient
    recurse, recursed = ring._divmod_pos, []
    monkeypatch.setattr(ring, "_divmod_pos", lambda a, b: recursed.append(b) or recurse(a, b))
    try:
        for divide in (lambda t, e: exact_div(integer(t), integer(e)).value, int_quotient):
            with pytest.raises(InexactDivisionError, match="^-7 is not divisible by 2$"):
                divide(-7, 2)
            for top, divisor in ((huge, 10), (3, -huge), (huge * huge + 1, huge)):
                with pytest.raises(InexactDivisionError) as caught:
                    divide(top, divisor)
                if set_limit:
                    bits = top.bit_length(), divisor.bit_length()
                    assert str(caught.value) == "a {}-bit int is not divisible by a {}-bit int".format(*bits)
            assert divide(huge * 10, 10) == huge
            assert divide(huge * huge, huge) == huge
    finally:
        if set_limit:
            set_limit(saved)
    assert recursed == [huge] * 4


def test_each_domain_payload_kind_divides_as_exact_div():
    """ring._counted_steps, the Desnanot-Jacobi step on int and poly
    payloads, yields each domain's zero and one, and divides by
    ring._int_quotient and Poly.exact_div, which give what exact_div gives
    on exact multiples and raise on a remainder.  A rational quotient is
    reduced with a positive denominator."""
    for domain in (ring.INTEGER, ring.POLYNOMIAL):
        with ring._counted_steps(domain) as (_, zero_value, one_value):
            assert (zero_value, one_value) == (zero(domain).value, one(domain).value)
    ints = [-1, 7, -12, 2**200 + 1, -(2**200) + 3, 3**126]
    int_quotient = ring._int_quotient
    for q in ints:
        for e in ints:
            assert int_quotient(q * e, e) == exact_div(integer(q * e), integer(e)).value == q
    for top, divisor in ((7, 2), (-7, 2), (7, -2), (2**200 + 1, 2**100), (-(2**200), 3)):
        with pytest.raises(InexactDivisionError):
            int_quotient(top, divisor)
    rng = random.Random(29)
    for i in range(500):
        q = Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
        e = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12)) * (-1 if i % 2 else 1)
        result = exact_div(rational(q * e), rational(e)).value
        assert result == q
        assert math.gcd(result._numerator, result._denominator) == 1 and result._denominator > 0
    cache = SequenceCache(symbolic_spec())
    polys = [cache.term(k).value for k in (2, 5, 9)] + [cache.rising_power(1, 4).value, delta(symbolic_spec()).value]
    poly_quotient = Poly.exact_div
    for p in polys:
        for e in polys:
            top = ExactScalar(ring.POLYNOMIAL, p * e)
            assert poly_quotient(p * e, e) == exact_div(top, ExactScalar(ring.POLYNOMIAL, e)).value == p
            with pytest.raises(InexactDivisionError):
                poly_quotient(p * e + Poly.const(1), e)


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
    # x**0 is the empty product, one, for every x, zero included
    for domain in ring.DOMAINS:
        with count_ops() as counter:
            assert pow_signed(zero(domain), 0) == one(domain)
        assert (counter.muls, counter.divs) == (0, 0)
    with pytest.raises(ZeroDivisionError):
        pow_signed(zero(ring.RATIONAL), -1)
    with pytest.raises(ZeroDivisionError):
        pow_signed(zero(ring.POLYNOMIAL), -1)


def _reference_pow(x, k):
    """The square-and-multiply loop over ring.mul, with its division count."""
    if k == 0:
        return one(x.domain), 0
    divs = 0
    if k < 0:
        if x.is_zero():
            raise ZeroDivisionError
        if not ring.invertible(x):
            raise NotInvertibleError
        # a unit +-1 is its own inverse and free; another rational ticks one
        if x.domain == ring.RATIONAL and abs(x.value) != 1:
            divs, x = 1, rational(1 / x.value)
        k = -k
    result = x
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result, divs


def test_native_numeric_powers_match_the_square_and_multiply_loop():
    # value, muls and divs, or the error, for every base and exponent
    bases = [integer(v) for v in (0, 1, -1, 2, -2, 3)]
    bases += [rational(v) for v in (0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))]
    for x in bases:
        for k in range(-6, 80):
            try:
                with count_ops() as expected:
                    value, divs = _reference_pow(x, k)
                expected = (value, expected.muls, divs)
            except (ZeroDivisionError, NotInvertibleError) as exc:
                expected = type(exc)
            try:
                with count_ops() as counter:
                    got = pow_signed(x, k)
                got = (got, counter.muls, counter.divs)
            except (ZeroDivisionError, NotInvertibleError) as exc:
                got = type(exc)
            assert got == expected, (x, k)


def test_mul_shortcuts_on_zero_and_one_are_free_in_every_domain():
    samples = {
        ring.INTEGER: integer(-7),
        ring.RATIONAL: rational(-7, 3),
        ring.POLYNOMIAL: add(variable("a"), ring.poly_const(2)),
    }
    with count_ops() as counter:
        for domain, x in samples.items():
            nought, unit = zero(domain), one(domain)
            assert mul(x, nought) == mul(nought, x) == mul(nought, unit) == nought
            assert mul(x, unit) == mul(unit, x) == x
            assert mul(unit, unit) == unit
            assert exact_div(nought, x) == nought
            assert exact_div(x, unit) == x
    assert (counter.muls, counter.divs) == (0, 0)
    with count_ops() as counter:
        for x in samples.values():
            assert exact_div(mul(x, x), x) == x
    assert (counter.muls, counter.divs) == (3, 3)


def test_one_and_zero_are_shared_constants():
    for domain in ring.DOMAINS:
        assert one(domain) is one(domain) and zero(domain) is zero(domain)
        assert one(domain).is_one() and zero(domain).is_zero()
        assert one(domain) == ring._make(domain, 1) and zero(domain) == ring._make(domain, 0)
    for make in (one, zero):
        with pytest.raises(ValueError, match="unknown domain"):
            make("float")
    # a kernel shape kept on the shared poly one is one's own
    unit = one(ring.POLYNOMIAL).value
    assert unit._kernel_shape() == (0, 0, 0, 0, 0, 0) and unit._packed == {0: 1}
    assert str(unit) == "1" and unit * Poly.variable("a") == Poly.variable("a")


def test_rational_mul_reads_zero_and_one_without_fraction_calls(monkeypatch):
    x, unit, nought = rational(-7, 3), rational(4, 4), rational(0, 5)
    called = []
    for name in ("__eq__", "__bool__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, method=method, name=name: called.append(name) or method(*args))
    with count_ops() as counter:
        assert mul(unit, x) is x and mul(x, unit) is x and mul(unit, unit) is unit
        assert mul(nought, x) is mul(x, nought) is mul(nought, unit) is zero(ring.RATIONAL)
    assert (called, counter.muls) == ([], 0)


def test_rational_pow_and_is_zero_read_zero_and_one_without_fraction_calls(monkeypatch):
    # pow_signed's unit tests and is_zero read a Fraction's numerator and
    # denominator; their values and ticks match the loop in the test above
    unit, minus, nought, x = rational(4, 4), rational(-3, 3), rational(0, 5), rational(-2, 3)
    called = []
    for name in ("__eq__", "__bool__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, method=method, name=name: called.append(name) or method(*args))
    with count_ops() as counter:
        powers = [pow_signed(*case) for case in ((unit, 5), (unit, -5), (minus, 5), (minus, -4), (nought, 3), (x, 3))]
        zeros = [y.is_zero() for y in (nought, unit, x, zero(ring.RATIONAL), zero(ring.INTEGER), integer(2))]
    assert called == []
    assert powers[0] is unit
    assert [str(y) for y in powers] == ["1", "1", "-1", "1", "0", "-8/27"]
    assert zeros == [True, False, False, True, True, False]
    # the inversions of 1 and -1 are free; (-1)^5 and (-1)^4 tick their
    # first squaring only, as the rest multiply by one, 0^3 ticks nothing
    # and (-2/3)^3 the loop's 2
    assert (counter.muls, counter.divs) == (1 + 1 + 2, 0)


def test_rational_grid_makes_no_fraction_eq_or_bool_calls_in_ring_or_run_grid(monkeypatch):
    # theorem2 over Q on jacobsthal, whose c2 = 2 makes the terms at
    # negative n fractional; every Fraction.__eq__ and __bool__ call is
    # booked to the module and function of the frame that made it
    callers = Counter()
    for name in ("__eq__", "__bool__"):
        method = getattr(Fraction, name)

        def counted(*args, method=method, name=name):
            frame = sys._getframe(1)
            callers[name, frame.f_globals.get("__name__"), frame.f_code.co_name] += 1
            return method(*args)

        monkeypatch.setattr(Fraction, name, counted)
    spec = preset("jacobsthal", ring.RATIONAL)
    report = run_grid(GridSpec(identity="theorem2", spec=spec, domain=ring.RATIONAL, n=(-3, 3), r=(0, 3)))
    assert (report.checked, report.mismatches) == (70, ())
    ours = {key: count for key, count in callers.items() if key[1] == ring.__name__ or key[2] == "run_grid"}
    assert ours == {}
    # the wrappers are live: a plain comparison here is booked to this test
    assert Fraction(1, 2) == Fraction(2, 4)
    assert callers["__eq__", __name__, "test_rational_grid_makes_no_fraction_eq_or_bool_calls_in_ring_or_run_grid"] == 1


def _wide(rng, bits=200):
    """A signed Lcg64 int of exactly ``bits`` bits."""
    value = 0
    for _ in range((bits + 63) // 64):
        value = value << 64 | rng.next_u64()
    value = value >> (64 * ((bits + 63) // 64) - bits) | 1 << (bits - 1)
    return -value if rng.next_u64() & 1 else value


def _assert_rational(got, expected, case):
    """got is the rat scalar of the plain Fraction expected: equal value,
    hash, str and repr, a reduced payload with a positive denominator, and
    a pickle round trip that gives it back."""
    value = got.value
    assert got.domain == ring.RATIONAL and type(value) is Fraction, case
    assert value == expected and hash(value) == hash(expected) and hash(got) == hash(rational(expected)), case
    assert (str(value), repr(value), repr(got)) == (str(expected), repr(expected), f"ExactScalar(rat, {expected})"), case
    assert math.gcd(value.numerator, value.denominator) == 1 and value.denominator > 0, case
    copy_ = pickle.loads(pickle.dumps(got))
    assert copy_ == got and copy_.value == expected and str(copy_) == str(got), case


def test_rational_kernel_matches_plain_fraction_arithmetic():
    # seeded Lcg64 operands: zero, +-1, denominators 1 and not 1, negative
    # inputs to ring.rational, denominators sharing factors, and 200-bit
    # values.  Each op's value is Fraction's and its ticks are the rules':
    # mul ticks one unless an operand is 0 or 1, exact_div one unless the
    # dividend is 0 or the divisor 1, add, sub and neg none, pow_signed and
    # product what the ring.mul loop and fold tick.  Scalars compare equal
    # exactly when their Fractions do
    rng = Lcg64(2027)
    pool = [
        rational(0), rational(0, -7), rational(1), rational(-3, -3), rational(-1), rational(4, -4),
        rational(6), rational(-12), rational(1, 6), rational(1, 3), rational(-5, 6), rational(3, -4),
        rational(_wide(rng)), rational(_wide(rng), _wide(rng)), rational(_wide(rng), 6), rational(5, _wide(rng)),
    ]
    pool += [rational(rng.next_int(-9, 9), rng.next_int(-9, 9) or 1) for _ in range(12)]
    wide = _wide(rng)
    pool += [rational(wide * rng.next_int(1, 9), wide * rng.next_int(-9, -1)) for _ in range(2)]
    assert {x.value.denominator == 1 for x in pool} == {True, False}
    for x in pool:
        u = x.value
        with count_ops() as counter:
            _assert_rational(neg(x), -u, ("neg", u))
        assert (counter.muls, counter.divs) == (0, 0)
        for y in pool:
            v = y.value
            case = (u, v)
            assert (x == y, x != y) == (u == v, u != v), case
            with count_ops() as counter:
                _assert_rational(add(x, y), u + v, ("add", *case))
                _assert_rational(sub(x, y), u - v, ("sub", *case))
            assert (counter.muls, counter.divs) == (0, 0), case
            with count_ops() as counter:
                _assert_rational(mul(x, y), u * v, ("mul", *case))
            assert (counter.muls, counter.divs) == (int(u not in (0, 1) and v not in (0, 1)), 0), case
            with count_ops() as counter:
                if v == 0:
                    with pytest.raises(ZeroDivisionError):
                        exact_div(x, y)
                else:
                    _assert_rational(exact_div(x, y), u / v, ("exact_div", *case))
            assert (counter.muls, counter.divs) == (0, int(u != 0 and v not in (0, 1))), case
        for k in (-5, -2, -1, 0, 1, 2, 3, 8):
            if u == 0 and k < 0:
                with pytest.raises(ZeroDivisionError):
                    pow_signed(x, k)
                continue
            with count_ops() as expected:
                _, divs = _reference_pow(x, k)
            with count_ops() as counter:
                _assert_rational(pow_signed(x, k), u**k, ("pow_signed", u, k))
            assert (counter.muls, counter.divs) == (expected.muls, divs), (u, k)
    for _ in range(300):
        first, *factors = (pool[rng.next_int(0, len(pool) - 1)] for _ in range(rng.next_int(1, 6)))
        expected = first.value
        for y in factors:
            expected *= y.value
        with count_ops() as folded:
            _fold(first, factors)
        with count_ops() as counter:
            _assert_rational(ring.product(first, factors), expected, ("product", first, factors))
        assert (counter.muls, counter.divs) == (folded.muls, 0), (first, factors)


def _fold(first, factors):
    for factor in factors:
        first = mul(first, factor)
    return first


def test_product_is_the_mul_fold():
    # value and mul/div ticks in every domain, on seeded lists over pools
    # with 0 and +-1; 2 and 1/2 make a running rational product one
    # mid-fold, after which the next factor is not ticked
    two, half, three = rational(2), rational(1, 2), rational(3)
    pools = {
        ring.INTEGER: [integer(v) for v in (0, 1, -1, 2, 3, -4)],
        ring.RATIONAL: [rational(*v) for v in ((0,), (1,), (-1,), (2,), (1, 2), (-2, 3), (3, 2))],
        ring.POLYNOMIAL: [ring.poly_const(v) for v in (0, 1, -1, 2)]
        + [variable("a"), add(variable("a"), variable("b"))],
    }
    cases = [
        (two, [half, three]),
        (three, [two, half, half, two]),
        (half, [two]),
        (three, [rational(0), two]),
        (two, []),
    ]
    rng = random.Random(21)
    for pool in pools.values():
        cases += [(rng.choice(pool), [rng.choice(pool) for _ in range(rng.randint(0, 6))]) for _ in range(400)]
    for first, factors in cases:
        with count_ops() as folded:
            expected = _fold(first, factors)
        with count_ops() as counter:
            value = ring.product(first, factors)
        assert value == expected and str(value) == str(expected), (first, factors)
        assert (counter.muls, counter.divs) == (folded.muls, folded.divs), (first, factors)
    with count_ops() as counter:
        assert ring.product(two, [half, three]) == three
    assert (counter.muls, counter.divs) == (1, 0)


def test_product_rejects_a_mixed_list_before_any_tick():
    mixed = [
        (rational(2), [rational(3), integer(2)]),
        (rational(0), [integer(1)]),
        (integer(2), [integer(3), rational(1, 2)]),
        (variable("a"), [variable("b"), integer(0)]),
    ]
    with count_ops() as counter:
        for first, factors in mixed:
            with pytest.raises(DomainMismatchError, match=f"cannot mix {first.domain} and"):
                ring.product(first, factors)
    assert (counter.muls, counter.divs) == (0, 0)


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
    # every operand of one operation shares its domain: an integer does not
    # widen, and a zero or one operand is rejected before its shortcut
    samples = {
        ring.INTEGER: (integer(0), integer(1), integer(2)),
        ring.RATIONAL: (rational(0), rational(1), rational(1, 2)),
        ring.POLYNOMIAL: (ring.poly_const(0), ring.poly_const(1), variable("a")),
    }
    pairs = [(left, right) for left in ring.DOMAINS for right in ring.DOMAINS if left != right]
    assert len(pairs) == 6
    with count_ops() as counter:
        for left, right in pairs:
            for x in samples[left]:
                for y in samples[right]:
                    for operation in (add, sub, mul, exact_div):
                        with pytest.raises(DomainMismatchError, match=f"cannot mix {left} and {right}"):
                            operation(x, y)
    assert (counter.muls, counter.divs) == (0, 0)
    with pytest.raises(ValueError, match="unknown domain"):
        zero("real")
    with pytest.raises(DomainMismatchError):
        add(rational(1, 2), variable("a"))
    with pytest.raises(DomainMismatchError):
        det_hankel_strip((rational(1), integer(2), rational(3)), 2)


def test_exact_scalars_reject_floats():
    # a float or a string would otherwise be truncated or stored inexactly
    for make in (integer, rational, ring.poly_const, Poly.const, lambda c: Poly({(1, 0, 0, 0): c})):
        for value in (2.5, 1.0, 0.0, "3"):
            with pytest.raises(TypeError):
                make(value)


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
    assert str(add(add(ring.poly_const(3), mul(ring.poly_const(2), a)), b)) == "3 + b + 2*a"


def test_exact_scalar_is_a_slotted_frozen_dataclass():
    samples = [integer(-7), rational(-7, 3), add(variable("a"), ring.poly_const(2))]
    for x in samples:
        for name in ("domain", "value"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, x.value)
        assert not hasattr(x, "__dict__")
        twin = ExactScalar(x.domain, x.value)
        assert twin == x and hash(twin) == hash(x)
        assert twin == ExactScalar(domain=x.domain, value=x.value)
        for copy_ in (dataclasses.replace(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(copy_) is ExactScalar and copy_ == x and str(copy_) == str(x)
    assert [f.name for f in dataclasses.fields(ExactScalar)] == ["domain", "value"]
    assert dataclasses.replace(integer(3), value=4) == integer(4)
    assert integer(1) != rational(1) and integer(1) != ring.poly_const(1)
    assert [str(x) for x in samples] == ["-7", "-7/3", "2 + a"]
    assert [repr(x) for x in samples] == ["ExactScalar(int, -7)", "ExactScalar(rat, -7/3)", "ExactScalar(poly, 2 + a)"]


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
    with pytest.raises(ValueError, match="unknown variable"):
        Poly.variable("x")
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


# -- bi-graded Kronecker kernel against the same references -------------------


def _images(*operands, method=Poly.__mul__):
    """The Kronecker images method(*operands) builds, as _image's
    arguments (packed terms, shape, stride, width)."""
    built = []
    image = ring._image
    ring._image = lambda *args: built.append(args) or image(*args)
    try:
        method(*operands)
    except InexactDivisionError:
        pass
    finally:
        ring._image = image
    return built


def _takes_kernel(p, q):
    """Whether p * q builds Kronecker images."""
    return bool(_images(p, q))


def _pass_divide(p, q, e):
    """The pass's quotient of p * q by e, as the step (p * 2q - p * q) / e:
    both products have len(p) * len(q) term pairs and one box."""
    return ring._kronecker(p, q + q, p, q, e)


@pytest.fixture(scope="module")
def symbolic_operands():
    """Bi-graded polys the symbolic pipeline multiplies: rising powers,
    delta powers and the pivots of the r = 5, d = 6 Bareiss pass."""
    spec = symbolic_spec()
    cache = SequenceCache(spec)
    powers = [delta(spec).value]
    while len(powers) < 10:
        powers.append(powers[-1] * powers[0])
    return {
        "rising": [cache.rising_power(m, r).value for m, r in ((2, 5), (1, 6))],
        "delta": [powers[5], powers[9]],
        "pivots": [m.value for m in det_bareiss(build(spec, MatrixQuery(0, 5, 6, RISING))).minors],
    }


def test_kronecker_kernel_matches_tuple_reference_on_symbolic_operands(symbolic_operands):
    operands = [p for group in symbolic_operands.values() for p in group if len(p.terms) < 600]
    pairs = [(p, q) for p in operands for q in operands if len(p.terms) * len(q.terms) <= 30000 and _takes_kernel(p, q)]
    assert len(pairs) >= 20
    for p, q in pairs:
        product = p * q
        assert product.terms == _ref_mul(p.terms, q.terms)
        assert product.exact_div(q) == p
        # the pass divides the same numerator p * q by q: (p * 2q - p * q) / q
        quotient = _pass_divide(p, q, q)
        assert quotient == p
        # kernel results carry the shape a scan of their terms would find
        assert product._shape == ring._bigraded(product._packed)
        assert quotient._shape == ring._bigraded(p._packed)
        # one coefficient off, or one monomial of the grading added: inexact
        key = max(product._packed)
        for changed in ({**product._packed, key: product._packed[key] + 1}, {**product._packed, 0: 1}):
            with pytest.raises(InexactDivisionError):
                Poly._wrap(changed).exact_div(q)
        # a divisor with one coefficient off keeps q's shape, and the pass declines
        moved = Poly._wrap({**q._packed, max(q._packed): q._packed[max(q._packed)] + 1})
        assert _pass_divide(p, q, moved) is None
    # the two largest pivots, 800 x 878 terms
    p, q = symbolic_operands["pivots"][-2:]
    assert _takes_kernel(p, q) and _pass_divide(q, p, p) == q and (p * q).exact_div(p) == q
    small, rising = symbolic_operands["delta"][0], symbolic_operands["rising"][0]
    assert _pass_divide(rising, small, small) == rising
    assert _ref_exact_div((small * rising).terms, small.terms) == (small * rising).exact_div(small).terms


def test_kronecker_division_by_a_non_divisor_raises(symbolic_operands, monkeypatch):
    # exact_div's dict loop raises, and the pass declines the same quotient
    # with its numerator and divisor times rising: the image division
    # leaves a remainder, or the candidate fails its check
    pivot, rising = symbolic_operands["pivots"][3], symbolic_operands["rising"][0]
    square = rising * rising
    assert _images(pivot, rising, square, method=_pass_divide) and _pass_divide(pivot, rising, square) is None
    with pytest.raises(InexactDivisionError):
        pivot.exact_div(rising)
    with pytest.raises(InexactDivisionError):
        _ref_exact_div(pivot.terms, rising.terms)
    # a divisor of larger grades leaves no quotient box: the pass declines
    # before it encodes any image
    square = pivot * pivot
    assert _images(rising, pivot, square, method=_pass_divide) == [] and _pass_divide(rising, pivot, square) is None
    with pytest.raises(InexactDivisionError):
        rising.exact_div(pivot)
    # 2 ** (8 * width) is 1 mod 3, so an image is its coefficients' sum mod
    # 3: the coefficients of rising * rising sum to a multiple of 3, though
    # not each is one, so its image divides by the image of 3 with no
    # remainder.  That image quotient carries a third into every lower
    # slot, so it does not decode in the box, and the pass declines
    three, square = Poly.const(3), rising * rising
    assert square.evaluate(1, 1, 1, 1) % 3 == 0 and any(c % 3 for c in square.terms.values())
    decoded, decode = [], ring._decode
    monkeypatch.setattr(ring, "_decode", lambda *args: decoded.append(decode(*args)) or decoded[-1])
    assert _pass_divide(rising, rising, three) is None and decoded == [None]
    with pytest.raises(InexactDivisionError):
        square.exact_div(three)


def test_kronecker_slots_hold_the_largest_possible_coefficient():
    # every term of p meets every term of q in the middle monomial, so one
    # product coefficient reaches the slot bound max|c| * max|c'| * min(len)
    n, big = 40, 3**40
    p = Poly({(i, n - i, i, 0): big for i in range(n + 1)})
    alternating = Poly({(i, n - i, i, 0): (-1) ** i * big for i in range(n + 1)})
    for left, right in ((p, p), (p, -p), (alternating, alternating), (alternating, p)):
        assert _takes_kernel(left, right) and _pass_divide(left, right, right) == left
        product = left * right
        assert product.terms == _ref_mul(left.terms, right.terms)
        assert product.exact_div(right) == left
    assert (p * p).terms[(n, n, n, 0)] == (n + 1) * big * big
    assert (p * -p).terms[(n, n, n, 0)] == -(n + 1) * big * big


def test_kronecker_kernel_leaves_ungraded_operands_to_the_dict_loop():
    n = 40
    # one (a, b)-degree but two weights; one weight but two (a, b)-degrees;
    # and a single term off the grading in the middle of a graded poly
    two_weights = Poly({(i, n - i, i % 2, 0): i - 20 for i in range(n + 1)})
    two_degrees = Poly({(i, n - i - i % 2, i + i % 2, 0): i + 1 for i in range(n + 1)})
    graded = Poly({(i, n - i, i, 0): 7 - i for i in range(n + 1)})
    off_middle = Poly({**graded.terms, (20, 20, 21, 0): 5})
    rng = Lcg64(2718)
    randoms = [
        Poly({tuple(rng.next_int(0, 6) for _ in range(4)): rng.next_int(-9, 9) for _ in range(45)})
        for _ in range(4)
    ]
    cases = [(two_weights, graded), (graded, two_degrees), (off_middle, graded), (two_weights, two_weights)]
    cases += list(zip(randoms, randoms[1:]))
    for p, q in cases:
        assert len(p.terms) * len(q.terms) > ring._KRONECKER_MIN_PAIRS and not _takes_kernel(p, q)
        assert not _images(p, q, q, method=_pass_divide) and _pass_divide(p, q, q) is None
        product = p * q
        assert product.terms == _ref_mul(p.terms, q.terms)
        assert product.exact_div(q) == p


def _homogenised(coeffs):
    """sum coeffs[i] * x**i with x = a*c1 / b, times b**(len - 1): bi-graded."""
    top = len(coeffs) - 1
    return Poly({(i, top - i, i, 0): c for i, c in enumerate(coeffs)})


def _convolve(left, right):
    out = [0] * (len(left) + len(right) - 1)
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            out[i + j] += x * y
    return out


def test_kronecker_division_by_a_divisor_with_larger_coefficients():
    # the product of the cyclotomic polys x**p - 1 / (x - 1) for the primes
    # below 20 has coefficients past 10**4, yet it divides the product of
    # the x**p - 1, whose coefficients stay below 20
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    divisor_coeffs, dividend_coeffs = [1], [1]
    for p in primes:
        divisor_coeffs = _convolve(divisor_coeffs, [1] * p)
        dividend_coeffs = _convolve(dividend_coeffs, [-1] + [0] * (p - 1) + [1])
    dividend, divisor = _homogenised(dividend_coeffs), _homogenised(divisor_coeffs)
    assert max(map(abs, divisor.terms.values())) > 256 * max(map(abs, dividend.terms.values()))
    quotient = _homogenised([(-1) ** (len(primes) - i) * math.comb(len(primes), i) for i in range(len(primes) + 1)])
    assert dividend.exact_div(divisor) == quotient
    assert _ref_exact_div(dividend.terms, divisor.terms) == quotient.terms
    # the pass divides dividend * s (32 x 33 term pairs a product) by the
    # divisor: the slots hold the divisor's largest coefficient, 3 bytes
    # where the numerator needs 1, so every image fits; the candidate's
    # bound needs 4, where the images are compared again, and agree
    s = _homogenised([1] * 33)
    largest = max(map(abs, divisor.terms.values()))
    assert [args[3] for args in _images(dividend, s, divisor, method=_pass_divide)] == [3] * 5 + [4] * 6
    assert ring._slot_bytes(largest) == 3
    kernel = _pass_divide(dividend, s, divisor)
    assert kernel == quotient * s and kernel._shape == ring._bigraded(kernel._packed)
    # a divisor whose coefficients outgrow the dividend's without dividing it
    dividend, divisor = _homogenised([1] * 41), _homogenised([10**6] * 26)
    s = _homogenised([1] * 26)
    assert _images(dividend, s, divisor, method=_pass_divide) and _pass_divide(dividend, s, divisor) is None
    with pytest.raises(InexactDivisionError):
        dividend.exact_div(divisor)
    with pytest.raises(InexactDivisionError):
        _ref_exact_div(dividend.terms, divisor.terms)


def test_kronecker_quotient_wider_than_its_division_is_checked_again():
    # (x - 1)**10 divides the product of the x**p - 1 for the primes below
    # 30, and the quotient, the product of their cofactors 1 + ... + x**(p-1),
    # has coefficients past 10**8.  Both sides times 1 + ... + x**10 have
    # coefficients of at most 126, and in 2-byte slots the image quotient
    # has a zero remainder, yet decodes to a wrong candidate.  exact_div
    # builds no image.  The pass, on that numerator times s = 1 + ... +
    # x**10 (98 x 11 pairs a product), divides in 2-byte slots; the bound
    # on candidate * divisor - numerator does not fit them, so the images
    # are compared again at a width that holds it, and differ.  (The same
    # re-compare on a step of the determinant's shape is pinned in
    # tests/test_determinant.py::test_fused_poly_step_matches_ring_scalar_step.)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    quotient_coeffs, dividend_coeffs = [1], [1] * 11
    for p in primes:
        quotient_coeffs = _convolve(quotient_coeffs, [1] * p)
        dividend_coeffs = _convolve(dividend_coeffs, [-1] + [0] * (p - 1) + [1])
    divisor_coeffs = _convolve([(-1) ** (10 - i) * math.comb(10, i) for i in range(11)], [1] * 11)
    dividend, divisor = _homogenised(dividend_coeffs), _homogenised(divisor_coeffs)
    quotient = _homogenised(quotient_coeffs)
    assert max(map(abs, quotient.terms.values())) > 10**8
    assert _images(dividend, divisor, method=Poly.exact_div) == []
    s = _homogenised([1] * 11)
    widths = [args[3] for args in _images(dividend, s, divisor * s, method=_pass_divide)]
    assert widths[:5] == [2] * 5 and len(widths) == 11 and set(widths[5:]) == {4}
    # the candidate the 2-byte division decodes: one slot per ea, as ec2 = 0
    shapes = dividend._kernel_shape(), divisor._kernel_shape()
    image, remainder = divmod(*(ring._image(p._packed, shape, 1, 2) for p, shape in zip((dividend, divisor), shapes)))
    candidate, _ = ring._decode(image, tuple(x - y for x, y in zip(*shapes)), 1, 2)
    assert remainder == 0 and candidate and candidate != quotient._packed
    assert _pass_divide(dividend, s, divisor * s) is None
    assert dividend.exact_div(divisor) == quotient
    assert quotient * divisor == dividend


def test_kronecker_kernel_leaves_sparse_boxes_to_the_dict_loop(monkeypatch):
    # 33 x 33 bi-graded terms whose (ea, ec2) spread over a 3201 x 1601 box:
    # a product image of 20 million slots for 1,089 term pairs
    def no_image(*args):
        raise AssertionError("a sparse box reached the kernel")

    monkeypatch.setattr(ring, "_image", no_image)
    p = Poly({(100 * i, 3200 - 100 * i, 3200, 50 * i): i + 1 for i in range(33)})
    q = Poly({(100 * i, 3200 - 100 * i, 3200, 50 * i): 7 - i for i in range(33)})
    assert ring._bigraded(p._packed) and ring._bigraded(q._packed)
    assert len(p.terms) * len(q.terms) > ring._KRONECKER_MIN_PAIRS
    assert ring._kronecker(p, q) is None
    product = p * q
    assert product.terms == _ref_mul(p.terms, q.terms)
    assert _pass_divide(p, q, q) is None
    assert product.exact_div(q) == p


def _graded_block(w, corner=True):
    """A bi-graded poly of (a, b)-degree 5 and weight w: one term for each
    ea and ec2 in 0..5, of degree w + ea - ec2, so the (5, 0) corner has
    the top degree w + 5; corner=False leaves that term out."""
    return Poly({
        (ea, 5 - ea, w - 5 + ea - 2 * ec2, ec2): (-1) ** ea * (1 + ea + 6 * ec2)
        for ea in range(6)
        for ec2 in range(6)
        if corner or (ea, ec2) != (5, 0)
    })


def test_kronecker_products_near_the_degree_cap(monkeypatch):
    # 36 x 36 (or 35 x 35) term pairs over an 11 x 11 product box, dense
    # enough for the pass.  Every slot of the box has degree 2w + ea - ec2,
    # so its top is 2w + 10.  With the corners, the product reaches it:
    # at 2w + 10 = 32,766 the pass takes the product, and at 32,768
    # Poly.__mul__ raises before the pass is called.  Without them the
    # product stops at 2w + 8 but the box still reaches 2w + 10: at
    # 2w = 32,758 the pass declines by its degree rule, and the dict loop
    # makes the product, of degree 32,766
    taken = _graded_block(16378)
    assert len(taken.terms) ** 2 > ring._KRONECKER_MIN_PAIRS and ring._bigraded(taken._packed)
    assert _takes_kernel(taken, taken)
    product = taken * taken
    assert product.terms == _ref_mul(taken.terms, taken.terms)
    assert max(map(sum, product.terms)) == ring._MAX_DEGREE - 1
    cornerless = _graded_block(16379, corner=False)
    assert ring._bigraded(cornerless._packed)
    assert ring._kronecker(cornerless, cornerless) is None and not _takes_kernel(cornerless, cornerless)
    product = cornerless * cornerless
    assert product.terms == _ref_mul(cornerless.terms, cornerless.terms)
    assert max(map(sum, product.terms)) == ring._MAX_DEGREE - 1
    past = _graded_block(16379)
    # with no pass to call, only Poly.__mul__'s own degree check can raise
    monkeypatch.setattr(ring, "_kronecker", None)
    with pytest.raises(OverflowError):
        past * past


def test_kronecker_decode_rejects_an_image_that_does_not_fit():
    # W_9 of the symbolic spec: ea 0..1 and ec2 0..4 at (a, b)-degree 1 and
    # weight 9, laid out 5 slots per ea in 10 slots of 2 bytes
    packed = SequenceCache(symbolic_spec()).term(9).value._packed
    shape = ring._bigraded(packed)
    assert shape == (1, 9, 0, 1, 0, 4) and ring._slot_count(shape, 5) == 10
    # the terms come back with their shape, here the whole box
    assert ring._decode(ring._image(packed, shape, 5, 2), shape, 5, 2) == (packed, shape)
    # past either end of the 160 bits the slots hold
    assert ring._decode(1 << 160, shape, 5, 2) is None
    assert ring._decode(-(1 << 160), shape, 5, 2) is None
    # an image whose slots are all zero holds no term
    assert ring._decode(0, shape, 5, 2) is None
    # at weight 8 the row ea = 0 (eb = 1) holds monomials up to ec2 = 3,
    # so a nonzero slot at ec2 = 4 there would read ec1 = -1; the same slot
    # of the row ea = 1 (eb = 0) is the monomial c2^4*a
    low = (1, 8, 0, 1, 0, 4)
    assert ring._decode(1 << 16 * 4, low, 5, 2) is None
    assert ring._decode(1 << 16 * 9, low, 5, 2) == ({ring._pack((1, 0, 0, 4)): 1}, (1, 8, 1, 1, 4, 4))


def test_kronecker_square_encodes_one_image(symbolic_operands, monkeypatch):
    operands = [p for group in symbolic_operands.values() for p in group if len(p.terms) < 300 and _takes_kernel(p, p)]
    assert len(operands) >= 4
    for p in operands:
        assert len(_images(p, p)) == 1
        square = p * p
        assert square.terms == _ref_mul(p.terms, p.terms)
        # an equal poly that is another object is two operands
        twin = Poly._wrap(dict(p._packed))
        assert len(_images(p, twin)) == 2 and p * twin == square
    # a poly's shape is scanned on its first kernel call only, and a kernel
    # product comes with its shape, the sum of its operands'
    scanned = []
    bigraded = ring._bigraded
    monkeypatch.setattr(ring, "_bigraded", lambda packed: scanned.append(len(packed)) or bigraded(packed))
    p = Poly._wrap(dict(operands[0]._packed))
    square = p * p
    assert p * p == square and square.exact_div(p) == p
    assert scanned == [len(p.terms)]
    assert square._shape == bigraded(square._packed) == tuple(2 * x for x in p._shape)


def test_kronecker_work_on_acceptance_05(monkeypatch):
    # 60 strip steps have both products real and call the pass; 37 take
    # it.  27 encode a, b, c (c is d in a strip) and e and decode only
    # their quotient, and one of those compares its images again at a
    # wider width (5 more images); 10 divide by one, encode no divisor
    # and decode their numerator.  The 23 others have a product of too
    # few term pairs and leave both products to Poly.__mul__.  So 12
    # products (1 square) still call the pass on their own, and only they
    # and the fused steps decode; every quotient off the pass runs
    # exact_div's dict loop.  The poly step's fused pass is the one that
    # Poly.__mul__ calls, and both callers' calls are counted
    calls = Counter()
    for name in ("_image", "_bigraded", "_decode", "_kronecker"):
        function = getattr(ring, name)

        def counted(*args, function=function, name=name):
            calls[name] += 1
            if name == "_kronecker" and len(args) == 2 and args[0] is args[1]:
                calls["squares"] += 1
            result = function(*args)
            if result is None and name == "_kronecker":
                calls[name + " declined"] += 1
            return result

        monkeypatch.setattr(ring, name, counted)
    report = run_grid(GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 3), r=(0, 4)))
    assert report.passed and report.checked == 60
    assert (report.mul_count, report.div_count) == (394, 32)
    assert calls == {
        "_kronecker": 72,
        "_kronecker declined": 23,
        "squares": 1,
        "_image": 166,
        "_bigraded": 40,
        "_decode": 49,
    }
    # the shared constants came through the sweep as they were
    assert one(ring.POLYNOMIAL).value._packed == {0: 1} and zero(ring.POLYNOMIAL).value._packed == {}


def _past_crossover(a, b):
    """Whether ring._divmod(a, b) takes recursive division."""
    return b.bit_length() > ring._DIVMOD_DIVISOR_BITS and a.bit_length() - b.bit_length() > ring._DIVMOD_QUOTIENT_BITS


def test_divmod_matches_builtin_divmod_on_both_sides_of_the_crossover():
    # seeded divisors and quotients just below, at and past the crossover
    # (a divisor above 9,000 bits and a quotient above 4,500), each with an
    # exact and an inexact dividend, a zero dividend and one below the
    # divisor, in all four sign combinations, plus all-ones and power-of-two
    # operands; a dividend whose top digit is b - 1 reaches _div3n2n's
    # guess for equal top halves
    rng = random.Random(2031)
    divisor_bits = (64, ring._DIVMOD_DIVISOR_BITS, ring._DIVMOD_DIVISOR_BITS + 1, 20_000, 45_000)
    quotient_bits = (1, ring._DIVMOD_QUOTIENT_BITS, ring._DIVMOD_QUOTIENT_BITS + 2, 12_000, 80_000)
    cases = []
    for nb, nq in itertools.product(divisor_bits, quotient_bits):
        b = rng.getrandbits(nb) | 1 << (nb - 1)
        q = rng.getrandbits(nq) | 1 << (nq - 1)
        cases += [(q * b, b), (q * b + rng.randrange(1, b), b), (0, b), (rng.randrange(b), b)]
        cases += [((1 << nb + nq) - 1, (1 << nb) - 1), (q << nb - 1, 1 << nb - 1), (q * b - 1, b)]
        cases.append(((b - 1) << nb | rng.getrandbits(nb), b))
    # quotients of 400,000 bits: 46 and 21 digits in base 2 ** (the divisor's
    # bits), far more than the 2 to 4 of the engine's own divisions
    for nb in (ring._DIVMOD_DIVISOR_BITS + 1, 20_000):
        b = rng.getrandbits(nb) | 1 << (nb - 1)
        q = rng.getrandbits(400_000) | 1 << 399_999
        cases += [(q * b, b), (q * b + rng.randrange(1, b), b)]
    past = 0
    for (a, b), sa, sb in itertools.product(cases, (1, -1), (1, -1)):
        x, y = sa * a, sb * b
        assert ring._divmod(x, y) == divmod(x, y), (a.bit_length(), b.bit_length(), sa, sb)
        past += _past_crossover(x, y)
    assert past >= 150
    with pytest.raises(ZeroDivisionError):
        ring._divmod(1 << 50_000, 0)


def test_kronecker_quotients_on_acceptance_05_pass_through_divmod(monkeypatch):
    # every one of the 27 image quotients, one per fused step that
    # divides, reaches ring._divmod, and the 15 with a divisor above
    # 9,000 bits and a quotient above 4,500 take the recursion, each with
    # builtin divmod's quotient and remainder
    divide, recurse = ring._divmod, ring._divmod_pos
    seen, recursed = [], []

    def spy(a, b):
        result = divide(a, b)
        assert result == divmod(a, b)
        seen.append(_past_crossover(a, b))
        return result

    monkeypatch.setattr(ring, "_divmod", spy)
    monkeypatch.setattr(ring, "_divmod_pos", lambda a, b: recursed.append(b) or recurse(a, b))
    report = run_grid(GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 3), r=(0, 4)))
    assert report.passed and report.checked == 60 and report.mismatches == ()
    assert (report.mul_count, report.div_count) == (394, 32)
    assert (len(seen), sum(seen), len(recursed)) == (27, 15, 15)


@pytest.mark.parametrize(
    "r, checked, muls, divs, recursions", [(33, 34, 6426, 1090, 24), (30, 31, 5300, 901, 0)]
)
def test_theorem1_int_strips_divide_through_divmod(monkeypatch, r, checked, muls, divs, recursions):
    # the int strip's quotients go through ring._divmod; from r = 33 some
    # have a divisor above 9,000 bits and a quotient above 4,500 and take
    # the recursion, each with builtin divmod's quotient and remainder; at
    # r = 30 (fib-r30) the largest divisor has 7,311 bits
    recurse, recursed = ring._divmod_pos, []

    def spy(a, b):
        result = recurse(a, b)
        assert result == divmod(a, b)
        recursed.append(b)
        return result

    monkeypatch.setattr(ring, "_divmod_pos", spy)
    report = run_grid(GridSpec(identity="theorem1", n=(0, 0), r=(r, r)))
    assert report.passed and report.checked == checked and report.mismatches == ()
    assert (report.mul_count, report.div_count) == (muls, divs)
    assert len(recursed) == recursions


def test_symbolic_grid_multiplies_only_through_the_poly_methods(monkeypatch):
    # every counted poly product and quotient goes through exactly one entry
    # point: Poly.__mul__, Poly.exact_div, or the fused step, which makes
    # two products and one quotient, or none when it divides by one (none
    # of acceptance 05's has a zero numerator).  The kernel's quotient
    # check multiplies images, not Polys, and a fused step that declines
    # leaves its products and its quotient to the methods, so a wrapper on
    # the three (as a tracer might install) sees acceptance 05's own calls
    calls = Counter()
    for name in ("__mul__", "exact_div"):
        method = getattr(Poly, name)

        def counted(self, other, method=method, name=name):
            calls[name] += 1
            return method(self, other)

        monkeypatch.setattr(Poly, name, counted)
    kronecker = ring._kronecker

    def fused(*args):
        # a product alone calls the pass with two arguments, the step with five
        result = kronecker(*args)
        if result is not None and len(args) == 5:
            calls["fused"] += 1
            calls["fused zero"] += not result._packed
            calls["fused by one"] += args[4] == Poly.const(1)
        return result

    monkeypatch.setattr(ring, "_kronecker", fused)
    report = run_grid(GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 3), r=(0, 4)))
    assert report.passed and report.checked == 60
    assert calls == {"__mul__": 320, "exact_div": 5, "fused": 37, "fused zero": 0, "fused by one": 10}
    assert calls["__mul__"] + 2 * calls["fused"] == report.mul_count == 394
    divided = calls["fused"] - calls["fused zero"] - calls["fused by one"]
    assert calls["exact_div"] + divided == report.div_count == 32
