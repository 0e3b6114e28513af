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

A ``rat`` payload is always a reduced Fraction with a positive
denominator, and the ring relies on that: its operations read the two
ints behind ``numerator`` and ``denominator`` and build each result with
``_fraction``, which writes a coprime pair with a positive denominator
into a new Fraction and checks nothing.  Fraction's own operators and
constructor normalise again in Python code, several times slower than the
int arithmetic itself.  ``add``, ``sub`` and ``mul`` take one int
operation at denominators 1, else cross-cancel by gcds as Fraction does;
``neg`` and ``pow_signed``'s powers need no gcd; ``exact_div`` and
``pow_signed``'s inverses cross-cancel in ``_rat_quotient``; ``product``
reduces once, and only when its denominator is above 1.  determinant's
Desnanot-Jacobi step over Fractions (``_rat_step``) multiplies, subtracts
and divides with the helpers of ``mul``, ``sub`` and ``exact_div``.

Multiplications and exact divisions performed while a ``count_ops()``
context is active are tallied on its counter.  Shortcut cases that perform
no payload arithmetic (an operand that is exactly zero or one, a zero
dividend, a divisor of one, the inverse of +-1) are not counted; counts
are deterministic for a given computation, and an integer value counts
alike written as an int or as a rat.  ``mul``, ``exact_div`` and
``pow_signed`` state each shortcut and the tick once for every domain.
A domain supplies only its native step and how its payload reads zero
and one: a pair (n, d), zero when n is and one when n == d, which is an
int over 1, a Fraction's two slots, or a poly's packed terms over the
packed one.

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

Large products and Desnanot-Jacobi steps take one bi-graded Kronecker
pass, ``_kronecker(a, b, c, d, e)`` (Kronecker 1882; Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", JSC
2009).  It computes a*b - c*d and divides by e unless e is absent or one.
``Poly.__mul__`` calls it as (a, b), and it is the poly kind's fused step
in ``_PAYLOADS``, which determinant runs; ``Poly.exact_div`` is the dict
loop alone.  A poly is bi-graded when all its terms share one
(a, b)-degree ea + eb and one weight eb + ec1 + 2*ec2; every value of the
symbolic pipeline is, since W_k has weight k, and given both sums the
pair (ea, ec2) fixes the monomial.  The pass's rules, each checked once:

  * gate: each product has more than 1024 term pairs, every operand is
    bi-graded, the two products share one grading, and e is bi-graded
    and not 0.  Else it declines, and Poly's operators do the work.
    Poly.__mul__ tests the pair count before it calls, so a small
    product makes no call.
  * density: the box, the union of the products' (ea, ec2) boxes, holds
    at least 3 pairs per slot of each product.  The pass's Python work
    is a loop over slots and the dict loop's over pairs, so a box spread
    over millions of slots stays on the dict loop.
  * degree: a box with a monomial past the degree cap declines, so no
    decoded key can pass it; Poly's operators then raise where the value
    itself passes the cap.
  * width: every operand is encoded at one stride and one slot width,
    which holds the sum of the products' _product_bound and e's
    coefficients.  _product_bound, max|c| * max|c'| * min(len, len'),
    bounds every product coefficient (a term of the shorter operand
    meets at most one term of the other in each monomial), so the sum
    bounds every numerator coefficient.
  * numerator: each product is one CPython multiply of two images (a
    square, as every strip step's c*c is, packs one image and squares
    it); with c and d, the numerator's image is the difference of the two
    image products, each shifted to its corner of the box.  Neither
    product is decoded, and the numerator's terms and shape are never
    made.  A zero image is the zero numerator, returned undivided.
  * quotient: without a divisor the image decodes over the box.  Else
    it is divided by e's image; a nonzero remainder declines, and the
    image quotient decodes to a candidate q inside the box less e's
    shape.  An image is the value at x = 2^(8*width) of a polynomial in
    x, so a zero remainder says the images of q * e and of the numerator
    agree; when the width is above every coefficient of their
    difference, which _product_bound(q, e) plus the numerator's bound
    bounds, no slot can carry and the two are equal.  If the bound does
    not fit, the images are compared again at a width where it does;
    comparing images skips decoding q * e.

Biasing every slot by half its range makes the slots non-negative bytes,
cut from ``to_bytes``.  A decline, or a candidate that fails, leaves the
work to Poly's operators, which return the same terms or raise
InexactDivisionError; counts and canonical strings do not depend on the
path.  The crossover was measured on the operands of the symbolic
theorem2 grid n = 0..3, r = 0..4: the pass won 7 of 18 products of 700
to 850 pairs, 24 of 29 of 1,000 to 1,500, and every one above 3,000.
Every product and quotient the pass takes on that grid has more than 3.2
pairs per slot; at 4, a box one slot wide per ea still ran about 3 times
slower than the dict loop.  On its default Desnanot-Jacobi strip the grid calls
the pass 72 times: 60 steps, of which 37 take it (10 of them by one, and
one compared again at a wider width, and accepted) and 23 decline with a
product of too few pairs, and 12 products on their own, 1 a square.
That is 49 decodes, 166 images and 40 shape scans.

The image division is ``_divmod``, which every exact int quotient goes
through: builtin divmod up to CPython 3.12's own crossover, a divisor of
9,000 bits or a quotient of 4,500, and recursive division past it, which
replaces CPython 3.11's quadratic long division by Karatsuba
multiplications.  On the grid above, 15 of the 27 image quotients pass
the crossover, and theorem1's int strip at n = 0, r = 40 sends 592 of its
1,521 quotients past it; measured on 14 such image quotients of that
grid, recursion took 25 ms instead of 56 ms, and on r = 40's, 106 ms
instead of 155 ms (best of 7, CPython 3.11.7 on a shared 2-vCPU VM).  A
Poly is immutable, so its shape (see _bigraded) is scanned on its first
call to the pass and kept on it; a result of the pass comes with the shape its
decode read, and is never scanned.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Dict, Iterator, Sequence, Tuple, Union

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


def _tick_mul(count: int = 1) -> None:
    for counter in _COUNTERS.get():
        counter.muls += count


def _tick_div(count: int = 1) -> None:
    for counter in _COUNTERS.get():
        counter.divs += count


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


# Poly._shape before the first kernel call; after it, a _Shape or None
_UNSCANNED = False
# the packed terms of the polynomial one
_POLY_ONE = {0: 1}


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
    stored.  So the Kronecker pass's shape of a poly (see _bigraded) is
    scanned once, on the poly's first call to the pass, and kept in a
    slot; a result of the pass comes with its shape already in the slot.
    """

    __slots__ = ("_packed", "_shape")

    def __init__(self, terms: Mapping[Monomial, int]):
        coefficients = {_pack(m): index(c) for m, c in terms.items()}
        self._packed = {key: c for key, c in coefficients.items() if c}
        self._shape = _UNSCANNED

    @classmethod
    def _wrap(cls, packed: Dict[int, int], shape: Union[_Shape, None, bool] = _UNSCANNED) -> "Poly":
        """A Poly over already packed keys with nonzero coefficients, and
        their kernel shape when the caller knows it."""
        poly = cls.__new__(cls)
        poly._packed = packed
        poly._shape = shape
        return poly

    def _kernel_shape(self) -> Union[_Shape, None]:
        """_bigraded of the terms, scanned on the first call."""
        shape = self._shape
        if shape is _UNSCANNED:
            shape = self._shape = _bigraded(self._packed)
        return shape

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
        return self._packed == _POLY_ONE

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
            product = _kronecker(self, other)
            if product is not None:
                return product
        out: Dict[int, int] = {}
        get = out.get
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        return Poly._wrap({key: c for key, c in out.items() if c})

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient by repeated leading-term elimination.

        Raises InexactDivisionError unless divisor divides self exactly
        (coefficients included: the quotient must stay over Z), and
        ZeroDivisionError for a zero divisor.
        """
        if not divisor._packed:
            raise ZeroDivisionError("exact division by zero")
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
# the bi-graded Kronecker pass for large products and Desnanot-Jacobi steps

# The pass's gate: each product has more than this many term pairs; below
# it the dict loop is faster (see the module docstring).
_KRONECKER_MIN_PAIRS = 1024
# The pass decodes every slot of its image in a Python loop, where the
# dict loop visits every term pair, so it also needs at most one slot per
# this many pairs of each product; a sparse box stays on the dict loop.
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


def _decode(image: int, shape: _Shape, stride: int, width: int) -> Union[Tuple[Dict[int, int], _Shape], None]:
    """The packed terms of an image laid out as _image lays out ``shape``,
    and their own shape: the rows and columns of the box that hold a
    nonzero slot.

    Adding the bias 2**(8*width - 1) to every slot makes each slot a
    non-negative byte string, so the slots are cut from ``to_bytes``.
    None when the image does not fit, a slot off the shape's monomials
    (eb or ec1 negative, or past ec2_hi) is nonzero, or no slot is.
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
    rows = []  # the ea of each row with a nonzero slot
    first, last = stride, -1  # the outermost nonzero slots of any row
    for ea in range(ea_lo, ea_hi + 1):
        eb = h - ea
        row = (ea - ea_lo) * stride  # the row's first slot
        start = row * width
        row_end = min(start + stride * width, len(data))
        ec2_top = min(ec2_hi, (w - eb) // 2) if eb >= 0 else ec2_lo - 1
        end = start + max(0, ec2_top - ec2_lo + 1) * width
        if data[end:row_end] != pattern * ((row_end - end) // width):
            return None
        # trim the row's zero slots at both ends
        while start < end and data[start:start + width] == pattern:
            start += width
        while end > start and data[end - width:end] == pattern:
            end -= width
        if start == end:
            continue
        rows.append(ea)
        first, last = min(first, start // width - row), max(last, end // width - row - 1)
        # the monomial (ea, eb, ec1, ec2) of degree ea + w - ec2
        ec2 = ec2_lo + start // width - row
        key = ((ea + w - ec2) << _DEGREE_SHIFT) + (ea << _EA_SHIFT) + (eb << _EB_SHIFT)
        key += ((w - eb - 2 * ec2) << _EC1_SHIFT) + ec2
        for at in range(start, end, width):
            chunk = data[at:at + width]
            if chunk != pattern:
                out[key] = int.from_bytes(chunk, "little") - bias
            key += _STEP_EC2
    if not rows:
        return None
    return out, (h, w, rows[0], rows[-1], ec2_lo + first, ec2_lo + last)


def _product_bound(left: Dict[int, int], right: Dict[int, int]) -> int:
    """max|c| * max|c'| * min(len, len'): above every coefficient of the
    product, as a term of the shorter operand meets at most one term of
    the other in each monomial."""
    return max(map(abs, left.values())) * max(map(abs, right.values())) * min(len(left), len(right))


def _product_image(left: Poly, right: Poly, stride: int, width: int) -> int:
    """The image of left * right over the sum of their (scanned) shapes:
    the product of their images, or one image squared when right is left."""
    image = _image(left._packed, left._shape, stride, width)
    return image * image if right is left else image * _image(right._packed, right._shape, stride, width)


def _quotient_box(box: _Shape, divisor_shape: _Shape) -> Union[_Shape, None]:
    """The box an exact quotient of a dividend inside ``box`` lies in: box
    less the divisor's shape, or None when that is empty or off the
    monomials."""
    quotient = tuple(x - y for x, y in zip(box, divisor_shape))
    h, w, ea_lo, ea_hi, ec2_lo, ec2_hi = quotient
    if min(h, w, ea_lo, ec2_lo) < 0 or ea_lo > ea_hi or ec2_lo > ec2_hi or h + w > _MAX_DEGREE:
        return None
    return quotient


def _kronecker(a: Poly, b: Poly, c: Poly = None, d: Poly = None, e: Poly = None) -> Union[Poly, None]:
    """a*b - c*d, divided by e unless e is absent or one, in one Kronecker
    pass by the rules the module docstring states; without c and d, the
    product a*b.  None declines, which leaves the work to Poly's
    operators.  A result keeps the shape its decode read."""
    ap, bp = a._packed, b._packed
    pairs = len(ap) * len(bp)
    if c is not None:
        pairs = min(pairs, len(c._packed) * len(d._packed))
    divide = e is not None and e._packed != _POLY_ONE
    if pairs <= _KRONECKER_MIN_PAIRS or (divide and not e._packed):
        return None
    shapes = [a._kernel_shape(), b._kernel_shape()]
    if c is not None:
        shapes += c._kernel_shape(), d._kernel_shape()
    if divide:
        shapes.append(e._kernel_shape())
    if None in shapes:
        return None
    box = ab = tuple(x + y for x, y in zip(shapes[0], shapes[1]))
    if c is not None:
        cd = tuple(x + y for x, y in zip(shapes[2], shapes[3]))
        if cd[:2] != ab[:2]:
            return None
        box = ab[:2] + (min(ab[2], cd[2]), max(ab[3], cd[3]), min(ab[4], cd[4]), max(ab[5], cd[5]))
    h, w, ea_lo, ea_hi, ec2_lo, ec2_hi = box
    stride = ec2_hi - ec2_lo + 1
    # every monomial of the box has degree w + ea - ec2
    if _slot_count(box, stride) * _KRONECKER_PAIRS_PER_SLOT > pairs or w + ea_hi - ec2_lo > _MAX_DEGREE:
        return None
    out_box = box
    if divide:
        ep, se = e._packed, shapes[-1]
        out_box = _quotient_box(box, se)
        if out_box is None:
            return None
    bound = _product_bound(ap, bp)
    if c is not None:
        bound += _product_bound(c._packed, d._packed)
    width = _slot_bytes(max(bound, max(map(abs, ep.values()))) if divide else bound)

    def numerator(width):
        image = _product_image(a, b, stride, width)
        if c is None:
            return image
        # each product's corner, in slots from the union box's
        shift = 8 * width
        ab_at = (ab[2] - ea_lo) * stride + ab[4] - ec2_lo
        cd_at = (cd[2] - ea_lo) * stride + cd[4] - ec2_lo
        return (image << shift * ab_at) - (_product_image(c, d, stride, width) << shift * cd_at)

    top = numerator(width)
    if not top:
        return Poly._wrap({})
    if divide:
        top, remainder = _divmod(top, _image(ep, se, stride, width))
        if remainder:
            return None
    decoded = _decode(top, out_box, stride, width)
    if decoded is None:
        return None
    terms, shape = decoded
    if divide:
        check = _slot_bytes(_product_bound(terms, ep) + bound)
        if check > width and _image(terms, out_box, stride, check) * _image(ep, se, stride, check) != numerator(check):
            return None
    return Poly._wrap(terms, shape)


# Recursive division (Burnikel & Ziegler, "Fast Recursive Division", MPI
# report MPI-I-98-1-022, 1998), after CPython 3.12+'s Lib/_pylong.py (from
# Mark Dickinson's fast_div.py, refined by Bjorn Martinsson), whose
# int_divmod, _divmod_pos, _div2n1n and _div3n2n these follow.  CPython
# 3.11's divmod is schoolbook division, quadratic in the quotient's length
# times the divisor's; recursion turns the work into multiplications, which
# are Karatsuba.  CPython 3.12+ switches to it for a divisor above 300
# digits of 30 bits and a quotient above 150; _divmod keeps builtin divmod
# up to that crossover, and _div2n1n below 4000 bits.  Past it a has few
# base-2**n digits, n the divisor's bits (3 or 4 on the symbolic grids, 2
# or 3 on theorem1's int strips at r = 33..40), so a shift per digit reads
# them where _pylong splits and joins digits by halves.
_DIVMOD_DIVISOR_BITS = 9000
_DIVMOD_QUOTIENT_BITS = 4500
_DIV_LIMIT = 4000


def _divmod(a: int, b: int) -> Tuple[int, int]:
    """divmod(a, b), signs and ZeroDivisionError included, by recursive
    division once b has more than 9,000 bits and the quotient more than
    about 4,500 (a's bits less b's)."""
    if b.bit_length() <= _DIVMOD_DIVISOR_BITS or a.bit_length() - b.bit_length() <= _DIVMOD_QUOTIENT_BITS:
        return divmod(a, b)
    # int_divmod's signs: a = q*b + r with r of b's sign, through
    # divmod(-a, -b) for a negative b and ~a = -a - 1 for a negative a
    sign = 1
    if b < 0:
        a, b, sign = -a, -b, -1
    if a < 0:
        q, r = _divmod_pos(~a, b)
        q, r = ~q, b + ~r
    else:
        q, r = _divmod_pos(a, b)
    return q, sign * r


def _divmod_pos(a: int, b: int) -> Tuple[int, int]:
    """divmod of a >= 0 by b > 0: schoolbook division in base 2**n, n the
    bits of b, each digit of a read by a shift from the top down and each
    step a recursive 2n-by-n division."""
    n = b.bit_length()
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        q_digit, r = _div2n1n((r << n) + ((a >> shift) & mask), b, n)
        q = (q << n) + q_digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> Tuple[int, int]:
    """divmod of 0 <= a < 2**n * b by b of exactly n bits, halving n."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a <<= 1
        b <<= 1
        n += 1
    half_n = n >> 1
    mask = (1 << half_n) - 1
    b1, b2 = b >> half_n, b & mask
    q1, r = _div3n2n(a >> n, (a >> half_n) & mask, b, b1, b2, half_n)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half_n)
    if pad:
        r >>= 1
    return q1 << half_n | q2, r


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> Tuple[int, int]:
    """divmod of a12 * 2**n + a3 by b = b1 * 2**n + b2: a quotient guessed
    from the top halves, then corrected at most twice."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


# ---------------------------------------------------------------------------
# the tagged scalar


Payload = Union[int, Fraction, Poly]


@dataclass(frozen=True, slots=True, init=False)
class ExactScalar:
    """A frozen dataclass with two slots and no per-instance __dict__.

    Every ring operation builds one, so __init__ writes the slots through
    their member descriptors: the frozen class's __setattr__ raises, and
    the generated __init__'s object.__setattr__ calls made building one
    about 60 % slower on CPython 3.11.
    """

    domain: str
    value: Payload

    def __init__(self, domain: str, value: Payload):
        _set_domain(self, domain)
        _set_value(self, value)

    def __eq__(self, other: object) -> bool:
        # the domains, then the payloads as mul reads them: a rat pair
        # compares its slots, with no Python-level Fraction.__eq__ call.
        # The dataclass keeps generating __hash__ from both fields.
        if other.__class__ is not ExactScalar:
            return NotImplemented
        domain = self.domain
        if domain != other.domain:
            return False
        u, v = self.value, other.value
        if domain == RATIONAL:
            return u._numerator == v._numerator and u._denominator == v._denominator
        if domain == POLYNOMIAL:
            return u._packed == v._packed
        return u == v

    def is_zero(self) -> bool:
        # a poly's packed terms and a Fraction's numerator slot, as mul
        # reads them: no Python-level Fraction.__eq__ call
        domain = self.domain
        if domain == POLYNOMIAL:
            return not self.value._packed
        if domain == RATIONAL:
            return not self.value._numerator
        return not self.value

    def is_one(self) -> bool:
        domain = self.domain
        if domain == POLYNOMIAL:
            return self.value.is_one()
        if domain == RATIONAL:
            return self.value._numerator == self.value._denominator
        return self.value == 1

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExactScalar({self.domain}, {self.value})"


_set_domain = ExactScalar.domain.__set__
_set_value = ExactScalar.value.__set__

_new = object.__new__


def _fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator, for a coprime pair with
    denominator > 0: the slots are written as given, with no gcd and no
    Fraction.__new__."""
    value = _new(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


def _reduced(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator for denominator > 0: one gcd,
    which a denominator of 1 skips."""
    if denominator == 1:
        return _fraction(numerator, 1)
    g = gcd(numerator, denominator)
    return _fraction(numerator // g, denominator // g)


def _rat_sum(n1: int, d1: int, n2: int, d2: int) -> Fraction:
    """n1/d1 + n2/d2 for reduced operands, reduced as Fraction reduces it:
    a gcd of the denominators, and a second one only when it is above 1."""
    if d1 == 1 and d2 == 1:
        return _fraction(n1 + n2, 1)
    g = gcd(d1, d2)
    if g == 1:
        return _fraction(n1 * d2 + n2 * d1, d1 * d2)
    s = d1 // g
    top = n1 * (d2 // g) + n2 * s
    g = gcd(top, g)
    return _fraction(top // g, s * (d2 // g))


def _rat_product(n1: int, d1: int, n2: int, d2: int) -> Fraction:
    """n1/d1 * n2/d2 for reduced operands: one int product at denominators
    1, else cross-cancelled by two gcds, as Fraction does."""
    if d1 == 1 and d2 == 1:
        return _fraction(n1 * n2, 1)
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    return _fraction((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))


def integer(value: int) -> ExactScalar:
    return ExactScalar(INTEGER, index(value))


def rational(numerator, denominator=1) -> ExactScalar:
    return ExactScalar(RATIONAL, Fraction(numerator, denominator))


def poly_const(value: int) -> ExactScalar:
    return ExactScalar(POLYNOMIAL, Poly.const(value))


def variable(name: str) -> ExactScalar:
    return ExactScalar(POLYNOMIAL, Poly.variable(name))


def zero(domain: str) -> ExactScalar:
    """The domain's zero: one shared scalar, as scalars are immutable."""
    try:
        return _ZEROS[domain]
    except KeyError:
        raise ValueError(f"unknown domain {domain!r}") from None


def one(domain: str) -> ExactScalar:
    """The domain's one: one shared scalar, as scalars are immutable."""
    try:
        return _ONES[domain]
    except KeyError:
        raise ValueError(f"unknown domain {domain!r}") from None


def _make(domain: str, value: int) -> ExactScalar:
    if domain == INTEGER:
        return ExactScalar(INTEGER, value)
    if domain == RATIONAL:
        return ExactScalar(RATIONAL, Fraction(value))
    if domain == POLYNOMIAL:
        return ExactScalar(POLYNOMIAL, Poly.const(value))
    raise ValueError(f"unknown domain {domain!r}")


_ZEROS = {domain: _make(domain, 0) for domain in DOMAINS}
_ONES = {domain: _make(domain, 1) for domain in DOMAINS}


def _mismatch(x: ExactScalar, y: ExactScalar) -> DomainMismatchError:
    return DomainMismatchError(f"cannot mix {x.domain} and {y.domain} scalars")


def add(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    domain = x.domain
    if domain != y.domain:
        raise _mismatch(x, y)
    if domain == RATIONAL:
        u, v = x.value, y.value
        return ExactScalar(RATIONAL, _rat_sum(u._numerator, u._denominator, v._numerator, v._denominator))
    return ExactScalar(domain, x.value + y.value)


def sub(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    domain = x.domain
    if domain != y.domain:
        raise _mismatch(x, y)
    if domain == RATIONAL:
        u, v = x.value, y.value
        return ExactScalar(RATIONAL, _rat_sum(u._numerator, u._denominator, -v._numerator, v._denominator))
    return ExactScalar(domain, x.value - y.value)


def neg(x: ExactScalar) -> ExactScalar:
    if x.domain == RATIONAL:
        u = x.value
        return ExactScalar(RATIONAL, _fraction(-u._numerator, u._denominator))
    return ExactScalar(x.domain, -x.value)


def mul(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    # zero and one are read off the payloads, and only once the domains
    # agree: this is every closed form's hot path.  Each operand reads as a
    # pair (n, d), zero when n is and one when n == d: a Fraction's two
    # slots, an int over 1, a poly's packed terms over the packed one.
    domain = x.domain
    if domain != y.domain:
        raise _mismatch(x, y)
    u, v = x.value, y.value
    if domain == POLYNOMIAL:
        n1, n2 = u._packed, v._packed
        d1 = d2 = _POLY_ONE
    elif domain == RATIONAL:
        n1, d1, n2, d2 = u._numerator, u._denominator, v._numerator, v._denominator
    else:
        n1, n2 = u, v
        d1 = d2 = 1
    if not n1 or not n2:
        return _ZEROS[domain]
    if n1 == d1:
        return y
    if n2 == d2:
        return x
    for counter in _COUNTERS.get():
        counter.muls += 1
    if domain != RATIONAL:
        return ExactScalar(domain, u * v)
    return ExactScalar(RATIONAL, _rat_product(n1, d1, n2, d2))


def product(first: ExactScalar, factors: Sequence[ExactScalar]) -> ExactScalar:
    """first * factors[0] * factors[1] * ...: the left fold of mul, in value
    and in the multiplications it ticks.

    Every factor's domain is checked against first's before any
    arithmetic, so a mixed list raises DomainMismatchError and ticks
    nothing.  A rational product multiplies numerators and denominators
    apart and reduces once, by one gcd, which a denominator of 1 skips.
    The running product is one exactly when its unreduced numerator
    equals its denominator, and a zero factor makes it zero and ends the
    count, so each step ticks where mul would.  Int and poly products are
    the fold.
    """
    domain = first.domain
    for y in factors:
        if y.domain != domain:
            raise _mismatch(first, y)
    if domain != RATIONAL:
        for y in factors:
            first = mul(first, y)
        return first
    num, den = first.value._numerator, first.value._denominator
    ticks = 0
    for y in factors:
        if not num:
            break
        top, bottom = y.value._numerator, y.value._denominator
        if top == bottom:  # a factor of one: reduced, so 1/1
            continue
        if top and num != den:
            ticks += 1
        num *= top
        den *= bottom
    if ticks:
        _tick_mul(ticks)
    return ExactScalar(RATIONAL, _reduced(num, den))


def exact_div(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    # the payloads read as in mul: the dividend's top, and the divisor's top
    # and unit.  A zero divisor raises, a zero dividend and a unit divisor
    # are free, and any other division ticks before the domain's quotient
    domain = x.domain
    if domain != y.domain:
        raise _mismatch(x, y)
    u, v = x.value, y.value
    if domain == POLYNOMIAL:
        top, divisor, unit, quotient = u._packed, v._packed, _POLY_ONE, _poly_quotient
    elif domain == RATIONAL:
        top, divisor, unit, quotient = u._numerator, v._numerator, v._denominator, _rat_quotient
    else:
        top, divisor, unit, quotient = u, v, 1, _int_quotient
    if not divisor:
        raise ZeroDivisionError("exact division by zero")
    if not top:
        return _ZEROS[domain]
    if divisor == unit:
        return x
    _tick_div()
    return ExactScalar(domain, quotient(u, v))


def _int_quotient(top: int, divisor: int) -> int:
    """top / divisor by _divmod, looked up at each call, or
    InexactDivisionError when a remainder is left."""
    quotient, residue = _divmod(top, divisor)
    if residue:
        try:
            message = f"{top} is not divisible by {divisor}"
        except ValueError:  # an operand past the int-to-str digit limit
            message = f"a {top.bit_length()}-bit int is not divisible by a {divisor.bit_length()}-bit int"
        raise InexactDivisionError(message)
    return quotient


def _rat_quotient(top: Fraction, divisor: Fraction) -> Fraction:
    """top / divisor on the Fraction slots: (n1 * d2) / (d1 * n2),
    cross-cancelled; only n2 carries a sign."""
    n1, d1, n2, d2 = top._numerator, top._denominator, divisor._numerator, divisor._denominator
    g1, g2 = gcd(n1, n2), gcd(d1, d2)
    num, den = (n1 // g1) * (d2 // g2), (d1 // g2) * (n2 // g1)
    return _fraction(num, den) if den > 0 else _fraction(-num, -den)


def _poly_quotient(top: Poly, divisor: Poly) -> Poly:
    # looked up on each call, as a wrapper on Poly.exact_div expects
    return top.exact_div(divisor)


def _rat_step(a: Fraction, b: Fraction, c: Fraction, d: Fraction, e: Fraction) -> Fraction:
    """The Desnanot-Jacobi step (a*b - c*d) / e on the Fraction slots, as
    mul, sub and exact_div compute it: a zero numerator, or a divisor of
    one, returns the numerator undivided."""
    ab = _rat_product(a._numerator, a._denominator, b._numerator, b._denominator)
    cd = _rat_product(c._numerator, c._denominator, d._numerator, d._denominator)
    top = _rat_sum(ab._numerator, ab._denominator, -cd._numerator, cd._denominator)
    if not top._numerator or e._numerator == e._denominator:
        return top
    return _rat_quotient(top, e)


# Each domain's payloads as determinant's Desnanot-Jacobi step reads them:
# (zero, one, units, quotient, step).  units is the pair that == and `in`
# test zero and one against: the ints 0 and 1, which a Fraction compares
# with on its int fast path, or the poly zero and one.  exact_div divides
# by the same quotient, which needs a nonzero divisor and ticks nothing.
# step(a, b, c, d, e), for a domain that has one, is (a*b - c*d) / e in one
# call when neither product has an operand 0 or 1, or None to leave the
# step to the payloads' operators: the Kronecker pass that Poly.__mul__
# also calls, or the rational slots' arithmetic.  Int payloads' own
# operators are the step.
_PAYLOADS = {
    domain: (_ZEROS[domain].value, _ONES[domain].value, units, quotient, step)
    for domain, units, quotient, step in (
        (INTEGER, (0, 1), _int_quotient, None),
        (RATIONAL, (0, 1), _rat_quotient, _rat_step),
        (POLYNOMIAL, (_ZEROS[POLYNOMIAL].value, _ONES[POLYNOMIAL].value), _poly_quotient, _kronecker),
    )
}


def invertible(x: ExactScalar) -> bool:
    """The one invertibility rule: x is a nonzero rational, or a unit +-1
    in any domain, which is its own inverse."""
    if x.domain == RATIONAL:
        return not x.is_zero()
    return x.is_one() or neg(x).is_one()


def pow_signed(x: ExactScalar, k: int) -> ExactScalar:
    """x**k with signed k: negative k needs invertible(x), and 0**k needs k >= 0.

    A negative power inverts first: a rational other than +-1 ticks one
    division, and a unit +-1 is its own inverse, free in every domain.
    An int or rat base equal to one is returned as it is: every step of
    the square-and-multiply loop would multiply by one, which ticks
    nothing.  An int or rat base other than 0 and +-1 takes one native
    power, and ticks the multiplications that loop would: one squaring
    per bit of k after the leading one, and one product per further set
    bit.  Every other base, -1 and every poly included, runs the loop.
    """
    domain = x.domain
    if k == 0:
        return one(domain)
    if k < 0:
        if x.is_zero():
            raise ZeroDivisionError("zero cannot be raised to a negative power")
        if not invertible(x):
            raise NotInvertibleError(f"negative power in non-invertible domain {domain}")
        # a unit +-1 is its own inverse, free in every domain, so equal
        # values count alike over int and rat
        if domain == RATIONAL and abs(x.value._numerator) != x.value._denominator:
            _tick_div()
            x = ExactScalar(RATIONAL, _rat_quotient(_ONES[RATIONAL].value, x.value))
        k = -k
    if domain != POLYNOMIAL:
        # (top, bottom) is an int over 1 or a reduced Fraction's slots: +-1
        # when top is +-bottom, and the powers of a coprime pair are coprime
        value = x.value
        top, bottom = (value, 1) if domain == INTEGER else (value._numerator, value._denominator)
        if top == bottom:
            return x
        if top and top != -bottom:
            _tick_mul(k.bit_length() + k.bit_count() - 2)
            top **= k
            return ExactScalar(domain, top if domain == INTEGER else _fraction(top, bottom**k))
    result = x
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result
