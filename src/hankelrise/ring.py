"""Exact scalar arithmetic over three coefficient domains.

An ExactScalar is an immutable tagged value in one of:

  * ``int``  -- arbitrary-precision integers (plain Python int)
  * ``rat``  -- reduced rationals with positive denominator (fractions.Fraction)
  * ``poly`` -- sparse polynomials over the integers in the four variables
                a, b, c1, c2: a map from monomials to nonzero integer
                coefficients, each monomial packed into one int key

Arithmetic between different domains is an error.  Division never rounds:
``exact_div`` raises InexactDivisionError when the divisor does not divide
the dividend exactly (integer and polynomial domains).

Multiplications and exact divisions performed while a ``count_ops()``
context is active are tallied on its counter.  Shortcut cases that perform
no payload arithmetic (an operand that is exactly zero or one, a zero
dividend, a divisor of one) are not counted; counts are deterministic for
a given computation.

Polynomial monomials are packed exponent vectors (Monagan & Pearce,
CASC 2007): the total degree in the top bits, then ea, eb, ec1, ec2 in
16-bit fields.  Integer order of the keys is then graded lexicographic
order of (ea, eb, ec1, ec2), and the product of two monomials is the sum
of their keys.  Total degree is capped at 32767, so no field ever carries
into its neighbour; a monomial or product beyond the cap raises
OverflowError rather than wrapping.  The packing stays internal:
``Poly(terms)`` and ``Poly.terms`` speak (ea, eb, ec1, ec2) tuples.

Polynomials print in a canonical form: monomials in ascending graded
lexicographic order of their (ea, eb, ec1, ec2) exponent vectors, factors
inside a monomial in the order c1, c2, a, b.  The discriminant-like
quantity b*b - c1*a*b - c2*a*a therefore prints as
``b^2 - c1*a*b - c2*a^2``.

Large products and quotients take a bi-graded Kronecker kernel (Kronecker
1882; Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", JSC 2009).  A poly is bi-graded when all its terms share
one (a, b)-degree ea + eb and one weight eb + ec1 + 2*ec2; every value of
the symbolic pipeline is, since W_k has weight k, and given both sums the
pair (ea, ec2) fixes the monomial.  Rule: a product or exact division
whose operands' term counts multiply to more than 1024 pairs, with both
operands bi-graded and at least 3 pairs per slot of the image box (the
product's, or the dividend's), runs through the kernel; everything else
runs the dict loop.  That crossover was measured on the operands of the
symbolic theorem2 grid n = 0..3, r = 0..4: the kernel won 7 of 18
products of 700 to 850 pairs, 24 of 29 of 1,000 to 1,500, and every one
above 3,000.  The density bound keeps the kernel's Python work, a loop
over slots, within a constant factor of the dict loop's over pairs: a
box spread over millions of slots stays on the dict loop.  Every kernel
product and quotient of that grid has more than 3.2 pairs per slot; at
4, a box one slot wide per ea still ran about 3 times slower than the
dict loop.  On its default Desnanot-Jacobi strip that grid sends 86
products and 28 quotients to the kernel, and the kernel declines none.

A product packs each operand into one signed big int with a byte-aligned
slot per (ea, ec2), wide enough for max|c| * max|c'| * min(len, len'),
which bounds every product coefficient (a term of the shorter operand
meets at most one term of the other in each monomial), so one CPython
multiply yields the product; biasing every slot by half its range makes
the slots non-negative bytes cut from ``to_bytes``.  A quotient divides
images whose slots are one byte wider than both operands need and
decodes a candidate q inside the box the dividend's box less the
divisor's allows.  q is returned only if the images of
q * divisor and of the dividend agree at a slot width above every
coefficient of q * divisor - dividend: with no slot able to carry, equal
images make that difference the zero polynomial.  A candidate that fails,
or does not decode, leaves the division to the dict loop, which returns
the quotient or raises InexactDivisionError.  Either path gives the same
terms, so counts and canonical strings do not depend on it.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Dict, Iterator, Tuple, Union

INTEGER = "int"
RATIONAL = "rat"
POLYNOMIAL = "poly"
DOMAINS = (INTEGER, RATIONAL, POLYNOMIAL)

VARIABLES = ("a", "b", "c1", "c2")
# print order inside a monomial: c1, c2, a, b (positions into the key tuple)
_PRINT_ORDER = (2, 3, 0, 1)

Monomial = Tuple[int, int, int, int]


class DomainMismatchError(TypeError):
    """Arithmetic attempted between incompatible scalar domains."""


class InexactDivisionError(ArithmeticError):
    """Exact division requested but the divisor does not divide evenly."""


class NotInvertibleError(ArithmeticError):
    """Negative power requested in a domain without inverses."""


# ---------------------------------------------------------------------------
# operation counting


@dataclass
class OpCounter:
    muls: int = 0
    divs: int = 0


_COUNTERS: ContextVar[Tuple[OpCounter, ...]] = ContextVar("op_counters", default=())


@contextmanager
def count_ops() -> Iterator[OpCounter]:
    """Count scalar multiplications/exact divisions run under this context.

    Contexts nest: every active counter observes every operation, so an
    outer aggregate and an inner per-call counter can coexist.
    """
    counter = OpCounter()
    token = _COUNTERS.set(_COUNTERS.get() + (counter,))
    try:
        yield counter
    finally:
        _COUNTERS.reset(token)


def _tick_mul() -> None:
    for counter in _COUNTERS.get():
        counter.muls += 1


def _tick_div() -> None:
    for counter in _COUNTERS.get():
        counter.divs += 1


# ---------------------------------------------------------------------------
# sparse polynomials over Z in (a, b, c1, c2), keyed by packed exponents

# A monomial is one int: its total degree in the top field, then ea, eb,
# ec1, ec2 in fields of _FIELD_BITS bits each.  Degrees are capped at
# _MAX_DEGREE, so every exponent fits its field with the field's top bit
# clear; exact_div relies on that bit to see a borrow.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1
_DEGREE_SHIFT = 4 * _FIELD_BITS
_SHIFTS = (3 * _FIELD_BITS, 2 * _FIELD_BITS, _FIELD_BITS, 0)  # ea, eb, ec1, ec2
_BORROW_BITS = sum(1 << (shift + _FIELD_BITS - 1) for shift in _SHIFTS)


def _pack(mono: Monomial) -> int:
    valid = isinstance(mono, tuple) and len(mono) == 4
    if not (valid and all(type(e) is int and e >= 0 for e in mono)):
        raise ValueError(f"monomial {mono!r} is not four non-negative int exponents")
    degree = sum(mono)
    if degree > _MAX_DEGREE:
        raise OverflowError(f"monomial {mono!r} exceeds the packed degree limit {_MAX_DEGREE}")
    key = degree << _DEGREE_SHIFT
    for shift, exponent in zip(_SHIFTS, mono):
        key |= exponent << shift
    return key


def _unpack(key: int) -> Monomial:
    return tuple((key >> shift) & _FIELD_MASK for shift in _SHIFTS)


class _Terms(Mapping):
    """Read-only view of packed terms keyed by (ea, eb, ec1, ec2) tuples.

    Keys are unpacked as they are read, so ``len`` costs nothing.
    """

    __slots__ = ("_packed",)

    def __init__(self, packed: Dict[int, int]):
        self._packed = packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Monomial]:
        return map(_unpack, self._packed)

    def __getitem__(self, mono: Monomial) -> int:
        try:
            return self._packed[_pack(mono)]
        except (ValueError, OverflowError):
            raise KeyError(mono) from None


class Poly:
    """Sparse integer polynomial in a, b, c1, c2.

    ``Poly(terms)`` takes a map from (ea, eb, ec1, ec2) tuples of
    non-negative ints to int coefficients (ValueError for any other key,
    TypeError for any other coefficient), and ``terms`` is a read-only
    view in the same form.  Inside, each monomial is a packed int key
    (see _pack).  Comparing two keys as ints compares the degrees first
    and then ea, eb, ec1, ec2 in turn, because each field sits above the
    next and none overflows; so integer order is graded lexicographic
    order, and multiplying two monomials is adding their keys.  A
    monomial of total degree above 32767 does not fit and raises
    OverflowError, whether given to the constructor or made by a product.

    Treated as immutable after construction; zero coefficients are never
    stored.
    """

    __slots__ = ("_packed",)

    def __init__(self, terms: Mapping[Monomial, int]):
        coefficients = {_pack(m): index(c) for m, c in terms.items()}
        self._packed = {key: c for key, c in coefficients.items() if c}

    @classmethod
    def _wrap(cls, packed: Dict[int, int]) -> "Poly":
        """A Poly over already packed keys with nonzero coefficients."""
        poly = cls.__new__(cls)
        poly._packed = packed
        return poly

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return _Terms(self._packed)

    @classmethod
    def const(cls, value: int) -> "Poly":
        value = index(value)
        return cls._wrap({0: value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}")
        mono = [0, 0, 0, 0]
        mono[VARIABLES.index(name)] = 1
        return cls({tuple(mono): 1})

    def is_zero(self) -> bool:
        return not self._packed

    def is_one(self) -> bool:
        return self._packed == {0: 1}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._packed == other._packed

    def __hash__(self) -> int:
        return hash(frozenset(self._packed.items()))

    def __add__(self, other: "Poly") -> "Poly":
        merged = dict(self._packed)
        for key, coeff in other._packed.items():
            total = merged.get(key, 0) + coeff
            if total:
                merged[key] = total
            else:
                merged.pop(key, None)
        return Poly._wrap(merged)

    def __neg__(self) -> "Poly":
        return Poly._wrap({key: -c for key, c in self._packed.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        left, right = self._packed, other._packed
        if not left or not right:
            return Poly._wrap({})
        # every exponent is at most its monomial's degree, so capping the
        # degree of the product keeps each sum of fields inside its field
        if (max(left) >> _DEGREE_SHIFT) + (max(right) >> _DEGREE_SHIFT) > _MAX_DEGREE:
            raise OverflowError(f"product degree exceeds the packed degree limit {_MAX_DEGREE}")
        if len(left) * len(right) > _KRONECKER_MIN_PAIRS:
            product = _kronecker_mul(left, right)
            if product is not None:
                return Poly._wrap(product)
        out: Dict[int, int] = {}
        get = out.get
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        return Poly._wrap({key: c for key, c in out.items() if c})

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient: the Kronecker kernel for large bi-graded operands
        (see the module docstring), else repeated leading-term elimination.

        Raises InexactDivisionError unless divisor divides self exactly
        (coefficients included: the quotient must stay over Z), and
        ZeroDivisionError for a zero divisor.
        """
        if not divisor._packed:
            raise ZeroDivisionError("exact division by zero")
        if len(self._packed) * len(divisor._packed) > _KRONECKER_MIN_PAIRS:
            quotient = _kronecker_div(self._packed, divisor._packed)
            if quotient is not None:
                return Poly._wrap(quotient)
        divisor_terms = divisor._packed.items()
        lead = max(divisor._packed)
        lead_coeff = divisor._packed[lead]
        remainder = dict(self._packed)
        quotient: Dict[int, int] = {}
        while remainder:
            top = max(remainder)
            # lead divides top iff no exponent field borrows: a borrow sets
            # that field's top bit, or turns the difference negative when
            # the degree field has to lend
            shift = top - lead
            if shift < 0 or shift & _BORROW_BITS:
                raise InexactDivisionError("polynomial division leaves a remainder")
            coeff, residue = divmod(remainder[top], lead_coeff)
            if residue:
                raise InexactDivisionError("polynomial division leaves a remainder")
            quotient[shift] = coeff
            for key, dc in divisor_terms:
                key += shift
                total = remainder.get(key, 0) - dc * coeff
                if total:
                    remainder[key] = total
                else:
                    remainder.pop(key, None)
        return Poly._wrap(quotient)

    def evaluate(self, a: int, b: int, c1: int, c2: int):
        point = (a, b, c1, c2)
        total = 0
        for key, coeff in self._packed.items():
            term = coeff
            for value, exponent in zip(point, _unpack(key)):
                if exponent:
                    term *= value ** exponent
            total += term
        return total

    def __str__(self) -> str:
        if not self._packed:
            return "0"
        pieces = []
        for key in sorted(self._packed):
            coeff = self._packed[key]
            mono = _unpack(key)
            factors = []
            for position in _PRINT_ORDER:
                exponent = mono[position]
                if exponent == 1:
                    factors.append(VARIABLES[position])
                elif exponent > 1:
                    factors.append(f"{VARIABLES[position]}^{exponent}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# the bi-graded Kronecker kernel for large products and quotients

# Products and quotients of more term pairs than this take the kernel when
# both operands are bi-graded; below it the dict loop is faster (see the
# module docstring).
_KRONECKER_MIN_PAIRS = 1024
# The kernel decodes every slot of its image in a Python loop, where the
# dict loop visits every term pair, so it also needs at most one slot per
# this many pairs; a sparse box stays on the dict loop.
_KRONECKER_PAIRS_PER_SLOT = 3

_EA_SHIFT, _EB_SHIFT, _EC1_SHIFT, _EC2_SHIFT = _SHIFTS
# the packed key is linear in the fields, so one step along ec2 at fixed
# grades (ec1 - 2, degree - 1) adds a constant
_STEP_EC2 = -(1 << _DEGREE_SHIFT) - (2 << _EC1_SHIFT) + (1 << _EC2_SHIFT)

# (h, w, ea_lo, ea_hi, ec2_lo, ec2_hi): every term has (a, b)-degree
# ea + eb = h and weight eb + ec1 + 2*ec2 = w, and (ea, ec2) lies in the box
_Shape = Tuple[int, int, int, int, int, int]


def _bigraded(packed: Dict[int, int]) -> Union[_Shape, None]:
    """The shape of a nonempty poly whose terms share one (a, b)-degree and
    one weight, or None.  Both sums stay below 2**16 (degree cap), so each
    is read off the key modulo one field."""
    grades = {
        ((key >> _EA_SHIFT) + (key >> _EB_SHIFT)) & _FIELD_MASK
        | (((key >> _EB_SHIFT) + (key >> _EC1_SHIFT) + 2 * key) & _FIELD_MASK) << _FIELD_BITS
        for key in packed
    }
    if len(grades) != 1:
        return None
    (grade,) = grades
    eas = [(key >> _EA_SHIFT) & _FIELD_MASK for key in packed]
    ec2s = [key & _FIELD_MASK for key in packed]
    return grade & _FIELD_MASK, grade >> _FIELD_BITS, min(eas), max(eas), min(ec2s), max(ec2s)


def _slot_bytes(bound: int) -> int:
    """Bytes per slot so that every |coefficient| <= bound is below the bias 2**(8*width - 1)."""
    return (bound.bit_length() + 8) // 8


def _slot_count(shape: _Shape, stride: int) -> int:
    """Slots in the image of ``shape`` laid out with ``stride`` slots per ea."""
    _, _, ea_lo, ea_hi, ec2_lo, ec2_hi = shape
    return (ea_hi - ea_lo) * stride + ec2_hi - ec2_lo + 1


def _image(packed: Dict[int, int], shape: _Shape, stride: int, width: int) -> int:
    """Kronecker image: the coefficient of (ea, ec2) in slot
    (ea - ea_lo)*stride + (ec2 - ec2_lo), each slot ``width`` bytes wide."""
    ea_lo, ec2_lo = shape[2], shape[4]
    size = _slot_count(shape, stride) * width
    positive, negative = bytearray(size), bytearray(size)
    for key, coeff in packed.items():
        at = ((((key >> _EA_SHIFT) & _FIELD_MASK) - ea_lo) * stride + (key & _FIELD_MASK) - ec2_lo) * width
        if coeff > 0:
            positive[at:at + width] = coeff.to_bytes(width, "little")
        else:
            negative[at:at + width] = (-coeff).to_bytes(width, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _decode(image: int, shape: _Shape, stride: int, width: int) -> Union[Dict[int, int], None]:
    """The packed terms of an image laid out as _image lays out ``shape``.

    Adding the bias 2**(8*width - 1) to every slot makes each slot a
    non-negative byte string, so the slots are cut from ``to_bytes``.
    None when the image does not fit, or a slot off the shape's monomials
    (eb or ec1 negative, or past ec2_hi) is nonzero.
    """
    h, w, ea_lo, ea_hi, ec2_lo, ec2_hi = shape
    slots = _slot_count(shape, stride)
    bias = 1 << (8 * width - 1)
    pattern = bias.to_bytes(width, "little")
    try:
        data = (image + int.from_bytes(pattern * slots, "little")).to_bytes(slots * width, "little")
    except OverflowError:
        return None
    out: Dict[int, int] = {}
    for ea in range(ea_lo, ea_hi + 1):
        eb = h - ea
        start = (ea - ea_lo) * stride * width
        row_end = min(start + stride * width, len(data))
        ec2_top = min(ec2_hi, (w - eb) // 2) if eb >= 0 else ec2_lo - 1
        end = start + max(0, ec2_top - ec2_lo + 1) * width
        if data[end:row_end] != pattern * ((row_end - end) // width):
            return None
        # the monomial (ea, eb, ec1, ec2_lo) of degree ea + w - ec2_lo
        key = ((ea + w - ec2_lo) << _DEGREE_SHIFT) + (ea << _EA_SHIFT) + (eb << _EB_SHIFT)
        key += ((w - eb - 2 * ec2_lo) << _EC1_SHIFT) + ec2_lo
        for at in range(start, end, width):
            chunk = data[at:at + width]
            if chunk != pattern:
                out[key] = int.from_bytes(chunk, "little") - bias
            key += _STEP_EC2
    return out


def _kronecker_mul(left: Dict[int, int], right: Dict[int, int]) -> Union[Dict[int, int], None]:
    """left * right as one big-int product of two Kronecker images, or
    None when either is not bi-graded or the product's box is sparse.

    Slots are wide enough for any product coefficient: each term of the
    shorter operand meets at most one term of the other in a monomial.
    """
    left_shape, right_shape = _bigraded(left), _bigraded(right)
    if left_shape is None or right_shape is None:
        return None
    (hl, wl, al, ahl, el, ehl), (hr, wr, ar, ahr, er, ehr) = left_shape, right_shape
    stride = ehl - el + ehr - er + 1
    shape = (hl + hr, wl + wr, al + ar, ahl + ahr, el + er, ehl + ehr)
    if _slot_count(shape, stride) * _KRONECKER_PAIRS_PER_SLOT > len(left) * len(right):
        return None
    bound = max(map(abs, left.values())) * max(map(abs, right.values())) * min(len(left), len(right))
    width = _slot_bytes(bound)
    image = _image(left, left_shape, stride, width) * _image(right, right_shape, stride, width)
    return _decode(image, shape, stride, width)


def _kronecker_div(dividend: Dict[int, int], divisor: Dict[int, int]) -> Union[Dict[int, int], None]:
    """dividend / divisor through Kronecker images, or None when either is
    not bi-graded, the dividend's box is sparse, or the image quotient is
    not exact.

    An exact quotient shares both gradings and its box is the dividend's
    box less the divisor's, so the image of the dividend is the image of
    the divisor times the image of the quotient, and integer division
    recovers the latter.  The decoded candidate q is accepted only if the
    images of q * divisor and of the dividend agree at a slot width above
    every coefficient of q * divisor - dividend, which makes that
    difference the zero polynomial.
    """
    dividend_shape, divisor_shape = _bigraded(dividend), _bigraded(divisor)
    if dividend_shape is None or divisor_shape is None:
        return None
    shape = tuple(x - y for x, y in zip(dividend_shape, divisor_shape))
    h, w, ea_lo, ea_hi, ec2_lo, ec2_hi = shape
    if min(h, w, ea_lo, ec2_lo) < 0 or ea_lo > ea_hi or ec2_lo > ec2_hi or h + w > _MAX_DEGREE:
        return None
    stride = dividend_shape[5] - dividend_shape[4] + 1
    if _slot_count(dividend_shape, stride) * _KRONECKER_PAIRS_PER_SLOT > len(dividend) * len(divisor):
        return None
    # a guess: one byte above every coefficient of both operands, so both
    # images fit; a quotient that does not fit fails the check below
    largest = max(max(map(abs, dividend.values())), max(map(abs, divisor.values())))
    width = _slot_bytes(largest << 8)
    image = _image(dividend, dividend_shape, stride, width) // _image(divisor, divisor_shape, stride, width)
    quotient = _decode(image, shape, stride, width)
    if not quotient:
        return None
    # comparing images skips decoding q * divisor, which checking through
    # _kronecker_mul would do: that made sym-d5's 80 divisions about 10 %
    # slower
    bound = max(map(abs, quotient.values())) * max(map(abs, divisor.values())) * min(len(quotient), len(divisor))
    width = _slot_bytes(bound + largest)
    product = _image(quotient, shape, stride, width) * _image(divisor, divisor_shape, stride, width)
    if product != _image(dividend, dividend_shape, stride, width):
        return None
    return quotient


# ---------------------------------------------------------------------------
# the tagged scalar


Payload = Union[int, Fraction, Poly]


@dataclass(frozen=True)
class ExactScalar:
    domain: str
    value: Payload

    def is_zero(self) -> bool:
        if self.domain == POLYNOMIAL:
            return self.value.is_zero()
        return self.value == 0

    def is_one(self) -> bool:
        if self.domain == POLYNOMIAL:
            return self.value.is_one()
        return self.value == 1

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExactScalar({self.domain}, {self.value})"


def integer(value: int) -> ExactScalar:
    return ExactScalar(INTEGER, index(value))


def rational(numerator, denominator=1) -> ExactScalar:
    return ExactScalar(RATIONAL, Fraction(numerator, denominator))


def poly_const(value: int) -> ExactScalar:
    return ExactScalar(POLYNOMIAL, Poly.const(value))


def variable(name: str) -> ExactScalar:
    return ExactScalar(POLYNOMIAL, Poly.variable(name))


def zero(domain: str) -> ExactScalar:
    return _make(domain, 0)


def one(domain: str) -> ExactScalar:
    return _make(domain, 1)


def _make(domain: str, value: int) -> ExactScalar:
    if domain == INTEGER:
        return ExactScalar(INTEGER, value)
    if domain == RATIONAL:
        return ExactScalar(RATIONAL, Fraction(value))
    if domain == POLYNOMIAL:
        return ExactScalar(POLYNOMIAL, Poly.const(value))
    raise ValueError(f"unknown domain {domain!r}")


def _same_domain(x: ExactScalar, y: ExactScalar) -> None:
    if x.domain != y.domain:
        raise DomainMismatchError(f"cannot mix {x.domain} and {y.domain} scalars")


def add(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    _same_domain(x, y)
    return ExactScalar(x.domain, x.value + y.value)


def sub(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    _same_domain(x, y)
    return ExactScalar(x.domain, x.value - y.value)


def neg(x: ExactScalar) -> ExactScalar:
    return ExactScalar(x.domain, -x.value)


def mul(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    _same_domain(x, y)
    if x.is_zero() or y.is_zero():
        return zero(x.domain)
    if x.is_one():
        return y
    if y.is_one():
        return x
    _tick_mul()
    return ExactScalar(x.domain, x.value * y.value)


def exact_div(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    _same_domain(x, y)
    if y.is_zero():
        raise ZeroDivisionError("exact division by zero")
    if x.is_zero():
        return zero(x.domain)
    if y.is_one():
        return x
    _tick_div()
    if x.domain == INTEGER:
        quotient, residue = divmod(x.value, y.value)
        if residue:
            raise InexactDivisionError(f"{x.value} is not divisible by {y.value}")
        return ExactScalar(INTEGER, quotient)
    if x.domain == RATIONAL:
        return ExactScalar(RATIONAL, x.value / y.value)
    return ExactScalar(POLYNOMIAL, x.value.exact_div(y.value))


def invertible(x: ExactScalar) -> bool:
    """The one invertibility rule: x is a nonzero rational, or a unit +-1
    in any domain, which is its own inverse."""
    if x.domain == RATIONAL:
        return not x.is_zero()
    return x.is_one() or neg(x).is_one()


def pow_signed(x: ExactScalar, k: int) -> ExactScalar:
    """x**k with signed k: negative k needs invertible(x), and 0**k needs k > 0."""
    if x.is_zero():
        if k <= 0:
            raise ZeroDivisionError("zero cannot be raised to a non-positive power")
        return x
    if k == 0:
        return one(x.domain)
    if k < 0:
        if not invertible(x):
            raise NotInvertibleError(f"negative power in non-invertible domain {x.domain}")
        if x.domain == RATIONAL:
            _tick_div()
            x = ExactScalar(RATIONAL, 1 / x.value)
        k = -k
    result = x
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result
