import math
import random
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
from hankelrise.sequence import SequenceCache, delta, symbolic_spec
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


def _takes_kernel(p, q, method=Poly.__mul__):
    """Whether method(p, q) builds Kronecker images."""
    built = []
    image = ring._image
    ring._image = lambda *args: built.append(args) or image(*args)
    try:
        method(p, q)
    except InexactDivisionError:
        pass
    finally:
        ring._image = image
    return bool(built)


def _divides_in_kernel(p, q):
    return _takes_kernel(p, q, Poly.exact_div)


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
        assert _divides_in_kernel(product, q)
        assert product.exact_div(q) == p
        # one coefficient off, or one monomial of the grading added: inexact
        key = max(product._packed)
        for changed in ({**product._packed, key: product._packed[key] + 1}, {**product._packed, 0: 1}):
            with pytest.raises(InexactDivisionError):
                Poly._wrap(changed).exact_div(q)
    # the two largest pivots, 800 x 878 terms
    p, q = symbolic_operands["pivots"][-2:]
    assert _takes_kernel(p, q) and _divides_in_kernel(p * q, p) and (p * q).exact_div(p) == q
    small, rising = symbolic_operands["delta"][0], symbolic_operands["rising"][0]
    assert _divides_in_kernel(small * rising, small)
    assert _ref_exact_div((small * rising).terms, small.terms) == (small * rising).exact_div(small).terms


def test_kronecker_division_by_a_non_divisor_raises(symbolic_operands):
    pivot, rising = symbolic_operands["pivots"][3], symbolic_operands["rising"][0]
    assert _divides_in_kernel(pivot, rising)
    with pytest.raises(InexactDivisionError):
        pivot.exact_div(rising)
    with pytest.raises(InexactDivisionError):
        _ref_exact_div(pivot.terms, rising.terms)
    # a divisor of larger grades leaves no quotient box
    with pytest.raises(InexactDivisionError):
        rising.exact_div(pivot)


def test_kronecker_slots_hold_the_largest_possible_coefficient():
    # every term of p meets every term of q in the middle monomial, so one
    # product coefficient reaches the slot bound max|c| * max|c'| * min(len)
    n, big = 40, 3**40
    p = Poly({(i, n - i, i, 0): big for i in range(n + 1)})
    alternating = Poly({(i, n - i, i, 0): (-1) ** i * big for i in range(n + 1)})
    for left, right in ((p, p), (p, -p), (alternating, alternating), (alternating, p)):
        assert _takes_kernel(left, right) and _divides_in_kernel(left * right, right)
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
        assert not _divides_in_kernel(p * q, q)
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
    assert _divides_in_kernel(dividend, divisor)
    quotient = _homogenised([(-1) ** (len(primes) - i) * math.comb(len(primes), i) for i in range(len(primes) + 1)])
    assert ring._kronecker_div(dividend._packed, divisor._packed) == quotient._packed
    assert dividend.exact_div(divisor) == quotient
    assert _ref_exact_div(dividend.terms, divisor.terms) == quotient.terms
    # a divisor whose coefficients outgrow the dividend's without dividing it
    dividend, divisor = _homogenised([1] * 41), _homogenised([10**6] * 26)
    assert _divides_in_kernel(dividend, divisor)
    with pytest.raises(InexactDivisionError):
        dividend.exact_div(divisor)
    with pytest.raises(InexactDivisionError):
        _ref_exact_div(dividend.terms, divisor.terms)


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
    assert ring._kronecker_mul(p._packed, q._packed) is None
    product = p * q
    assert product.terms == _ref_mul(p.terms, q.terms)
    assert ring._kronecker_div(product._packed, q._packed) is None
    assert product.exact_div(q) == p


def test_kronecker_decode_rejects_an_image_that_does_not_fit():
    # W_9 of the symbolic spec: ea 0..1 and ec2 0..4 at (a, b)-degree 1 and
    # weight 9, laid out 5 slots per ea in 10 slots of 2 bytes
    packed = SequenceCache(symbolic_spec()).term(9).value._packed
    shape = ring._bigraded(packed)
    assert shape == (1, 9, 0, 1, 0, 4) and ring._slot_count(shape, 5) == 10
    assert ring._decode(ring._image(packed, shape, 5, 2), shape, 5, 2) == packed
    # past either end of the 160 bits the slots hold
    assert ring._decode(1 << 160, shape, 5, 2) is None
    assert ring._decode(-(1 << 160), shape, 5, 2) is None


def test_symbolic_grid_multiplies_only_through_the_poly_methods(monkeypatch):
    # the kernel's quotient check multiplies images, not Polys, so a wrapper
    # on these methods (as a tracer installs) sees acceptance 05's own calls
    calls = Counter()
    for name in ("__mul__", "exact_div"):
        method = getattr(Poly, name)

        def counted(self, other, method=method, name=name):
            calls[name] += 1
            return method(self, other)

        monkeypatch.setattr(Poly, name, counted)
    report = run_grid(GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 3), r=(0, 4)))
    assert report.passed and report.checked == 60
    assert calls == {"__mul__": 707, "exact_div": 32}
    assert (calls["__mul__"], calls["exact_div"]) == (report.mul_count, report.div_count)
