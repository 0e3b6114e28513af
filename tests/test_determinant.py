import math
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hankelrise import determinant, ring
from hankelrise.determinant import (
    det_bareiss,
    det_cofactor,
    det_condensation,
    det_hankel_minors,
    det_hankel_strip,
)
from hankelrise.matgen import MODES, RISING, MatrixQuery, SquareMatrix, anti_diagonal, build
from hankelrise.ring import Poly, integer, rational
from hankelrise.sequence import RecurrenceSpec, preset, symbolic_spec
from hankelrise.verify import GridSpec, Lcg64, run_grid

ALGORITHMS = [det_cofactor, det_bareiss, det_condensation]


def _int_matrix(rows):
    return SquareMatrix([[integer(v) for v in row] for row in rows])


@pytest.mark.parametrize("det", ALGORITHMS)
def test_known_small_determinants(det):
    cases = [
        ([[5]], 5),
        ([[1, 2], [3, 4]], -2),
        ([[0, 1, 1], [1, 1, 2], [1, 2, 3]], 0),
        ([[0, 1, 1], [1, 1, 4], [1, 4, 9]], -2),
        ([[2, 1, 3], [4, 7, 11], [18, 29, 48]], 10),
    ]
    for rows, expected in cases:
        assert det(_int_matrix(rows)).value == integer(expected)


def test_rising_square_case_all_algorithms():
    mat = build(preset("fibonacci"), MatrixQuery(n=0, r=1, d=2))
    for det in ALGORITHMS:
        assert det(mat).value == integer(-1)


def test_report_fields():
    report = det_bareiss(_int_matrix([[2, 3], [4, 5]]))
    assert report.value == integer(-2)
    assert report.algorithm == "bareiss"
    assert (report.mul_count, report.div_count) == (2, 0)
    assert report.fallback_used is False
    assert det_cofactor(_int_matrix([[7]])).mul_count == 0


def test_counts_exclude_nothing_under_outer_context():
    # the report and an enclosing counter both observe the same work
    with ring.count_ops() as outer:
        report = det_bareiss(_int_matrix([[2, 7, 1], [9, 4, 3], [6, 1, 8]]))
    assert report.value == integer(-335)
    assert (report.mul_count, report.div_count) == (7, 1)
    assert (outer.muls, outer.divs) == (7, 1)


def test_cofactor_dimension_guard():
    big = _int_matrix([[1] * 11 for _ in range(11)])
    with pytest.raises(ValueError):
        det_cofactor(big)


def test_random_agreement_int():
    rng = random.Random(4242)
    for _ in range(40):
        dim = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
        mat = _int_matrix(rows)
        values = {det(mat).value for det in ALGORITHMS}
        assert len(values) == 1


def test_random_agreement_rational():
    rng = random.Random(777)
    for _ in range(25):
        dim = rng.randint(1, 4)
        rows = [
            [rational(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)]
            for _ in range(dim)
        ]
        mat = SquareMatrix(rows)
        values = {det(mat).value for det in ALGORITHMS}
        assert len(values) == 1


def test_bareiss_stays_exact_over_int():
    # fraction-free elimination must never leave the integer domain
    rng = random.Random(31)
    for _ in range(30):
        dim = rng.randint(2, 6)
        rows = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(dim)]
        report = det_bareiss(_int_matrix(rows))
        assert report.value.domain == ring.INTEGER


def test_singular_matrices():
    mat = _int_matrix([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
    for det in ALGORITHMS:
        assert det(mat).value == ring.zero(ring.INTEGER)
    # zero leading column exercises pivot search and the early exit
    mat = _int_matrix([[0, 0, 1], [0, 0, 2], [1, 2, 3]])
    for det in ALGORITHMS:
        assert det(mat).value == ring.zero(ring.INTEGER)


def test_condensation_fallback():
    # interior entry is zero at the first condensation step
    mat = _int_matrix([[1, 1, 1], [1, 0, 1], [1, 1, 2]])
    report = det_condensation(mat)
    assert report.value == integer(-1)
    assert report.fallback_used is True
    assert report.algorithm == "condensation-fallback"
    clean = det_condensation(_int_matrix([[2, 1, 3], [4, 7, 11], [18, 29, 48]]))
    assert clean.value == integer(10)
    assert clean.fallback_used is False
    assert clean.algorithm == "condensation"


def test_symbolic_determinant():
    mat = build(symbolic_spec(), MatrixQuery(n=0, r=1, d=2))
    for det in ALGORITHMS:
        assert str(det(mat).value) == "-b^2 + c1*a*b + c2*a^2"


def test_desnanot_jacobi_on_random_matrices():
    def det(m):
        return det_bareiss(m).value

    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(3, 5)
        last = dim - 1
        mat = _int_matrix([[rng.randint(-6, 6) for _ in range(dim)] for _ in range(dim)])
        lhs = ring.mul(det(mat), det(mat.interior()))
        rhs = ring.sub(
            ring.mul(det(mat.drop_row_col(0, 0)), det(mat.drop_row_col(last, last))),
            ring.mul(det(mat.drop_row_col(0, last)), det(mat.drop_row_col(last, 0))),
        )
        assert lhs == rhs


def _leading(matrix, k):
    return SquareMatrix(tuple(row[:k] for row in matrix.rows[:k]))


def _assert_minors_match_blocks(matrix):
    report = det_bareiss(matrix)
    assert len(report.minors) == matrix.dim
    for k in range(1, matrix.dim + 1):
        assert report.minors[k - 1] == det_bareiss(_leading(matrix, k)).value, k
    return report


def test_bareiss_minors_match_every_leading_block():
    # entries in {-1, 0, 1} force row swaps and singular leading blocks
    rng = Lcg64(2024)
    swapped = singular = 0
    for _ in range(2000):
        dim = rng.next_int(1, 6)
        matrix = _int_matrix([[rng.next_int(-1, 1) for _ in range(dim)] for _ in range(dim)])
        values = _assert_minors_match_blocks(matrix).minors
        if dim <= 4:
            assert values == tuple(det_cofactor(_leading(matrix, k)).value for k in range(1, dim + 1))
        swapped += matrix.entry(0, 0).is_zero() and dim > 1
        singular += any(value.is_zero() for value in values)
    assert swapped > 100 and singular > 500


def test_bareiss_minors_report_fields():
    report = det_bareiss(_int_matrix([[2, 3], [4, 5]]))
    assert report.minors == (integer(2), integer(-2))
    assert report.algorithm == "bareiss"
    assert (report.mul_count, report.div_count) == (2, 0)
    assert report.fallback_used is False


def test_bareiss_minors_swap_zeroes_skipped_blocks():
    # the first pivot comes from row 2, so the 2x2 block is singular
    report = _assert_minors_match_blocks(_int_matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    assert report.minors == (integer(0), integer(0), integer(-1))


def test_bareiss_minors_on_hankel_builds():
    # F_0 = 0 zeroes the first pivot at n = 0; d up to r+3 runs through
    # the rank-zero window, where every block beyond r+1 vanishes
    fibonacci = preset("fibonacci")
    for n in (-2, 0, 1):
        for r in range(0, 6):
            values = _assert_minors_match_blocks(build(fibonacci, MatrixQuery(n, r, r + 3))).minors
            assert all(value.is_zero() for value in values[r + 1:])
            assert not values[r].is_zero()
    lucas = preset("lucas", ring.RATIONAL)
    _assert_minors_match_blocks(build(lucas, MatrixQuery(-3, 2, 5)))
    symbolic = _assert_minors_match_blocks(build(symbolic_spec(), MatrixQuery(0, 1, 3))).minors
    assert str(symbolic[1]) == "-b^2 + c1*a*b + c2*a^2"
    assert symbolic[2].is_zero()


def _hankel(diagonal, size):
    return SquareMatrix([diagonal[i:i + size] for i in range(size)])


def _triangle_meets_a_zero_divisor(matrix):
    """Whether some divisor D(k+2, t-2), 3 <= t <= d, of the Desnanot-Jacobi
    triangle vanishes: the t' x t' Hankel blocks starting at anti-diagonal
    k' for 1 <= t' <= d-2 and 2 <= k' <= 2(d-t')-2, each by Bareiss."""
    d = matrix.dim
    diagonal = matrix.rows[0] + tuple(row[-1] for row in matrix.rows[1:])
    return any(
        det_bareiss(_hankel(diagonal[k:], size)).value.is_zero()
        for size in range(1, d - 1)
        for k in range(2, 2 * (d - size) - 1)
    )


def test_algorithms_agree_on_hankel_builds_with_zero_leading_entries():
    # F_0 = 0 sits on the anti-diagonals of these builds (n <= 0, and n < 0
    # reaches it through backward steps); the c2 = 0 spec has W_k = 1 for
    # k >= 1 and W_0 = 0.  Condensation divides by interior entries, so it
    # meets those zeros and must fall back to the same value; so must the
    # Desnanot-Jacobi triangle, which divides by shifted Hankel minors.
    rat = ring.RATIONAL
    degenerate = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))
    builds = [
        (preset("fibonacci"), range(-4, 3)),
        (degenerate, range(0, 3)),
        (preset("lucas", rat), range(-4, 2)),
        (preset("jacobsthal", rat), range(-3, 2)),
    ]
    blocks = fallbacks = structured_fallbacks = 0
    for spec, ns in builds:
        for n in ns:
            for r in range(0, 5):
                for mode in MODES:
                    matrix = build(spec, MatrixQuery(n, r, r + 3, mode))
                    bareiss = det_bareiss(matrix)
                    minors = bareiss.minors
                    structured = det_hankel_minors(matrix)
                    assert structured.minors == minors, (spec, n, r, mode)
                    # the two minor-filling reports end on their value
                    assert bareiss.value == minors[-1] and structured.value == minors[-1]
                    assert structured.fallback_used == _triangle_meets_a_zero_divisor(matrix)
                    assert structured.algorithm == (
                        "structured-fallback" if structured.fallback_used else "structured"
                    )
                    structured_fallbacks += structured.fallback_used
                    for k in range(1, matrix.dim + 1):
                        block = _leading(matrix, k)
                        cofactor = det_cofactor(block)
                        condensed = det_condensation(block)
                        assert cofactor.minors == condensed.minors == ()
                        values = {
                            cofactor.value,
                            det_bareiss(block).value,
                            condensed.value,
                            minors[k - 1],
                        }
                        assert len(values) == 1, (spec, n, r, mode, k)
                        blocks += 1
                        fallbacks += condensed.fallback_used
    assert blocks == 1050 and fallbacks > 0
    assert structured_fallbacks == 64  # of 210 builds
    report = det_condensation(build(preset("fibonacci"), MatrixQuery(-2, 1, 3)))
    assert report.fallback_used and report.algorithm == "condensation-fallback"


def test_hankel_minors_report_fields():
    # h = 2, 3, 5, 7, 11: the 2 x 2 level takes 6 muls and divides by the
    # empty determinant, which costs nothing; the 3 x 3 level squares
    # D(1, 2) = -4 (1 * 6 costs nothing) and divides by h_2 = 5
    report = det_hankel_minors(_int_matrix([[2, 3, 5], [3, 5, 7], [5, 7, 11]]))
    assert report.minors == (integer(2), integer(1), integer(-2))
    assert report.algorithm == "structured"
    assert (report.mul_count, report.div_count) == (7, 1)
    assert report.fallback_used is False


def test_hankel_minors_fall_back_to_bareiss_on_a_zero_divisor():
    # h_2 = 0 is the divisor of the 3 x 3 level
    matrix = _int_matrix([[1, 1, 0], [1, 0, 2], [0, 2, 1]])
    report = det_hankel_minors(matrix)
    assert report.fallback_used and report.algorithm == "structured-fallback"
    assert report.minors == det_bareiss(matrix).minors == (integer(1), integer(-1), integer(-5))


def test_hankel_minors_reject_matrices_that_are_not_hankel():
    # the second is symmetric, but its anti-diagonal 2 holds 3 and 5
    for rows in ([[1, 2], [3, 4]], [[1, 2, 3], [2, 5, 4], [3, 4, 6]]):
        with pytest.raises(ValueError, match="Hankel"):
            det_hankel_minors(_int_matrix(rows))
    assert det_hankel_minors(_int_matrix([[7]])).minors == (integer(7),)


def test_hankel_minors_on_symbolic_builds():
    for n, r in ((0, 1), (0, 2), (1, 2)):
        matrix = build(symbolic_spec(), MatrixQuery(n, r, r + 2))
        report = det_hankel_minors(matrix)
        assert report.minors == det_bareiss(matrix).minors
        assert report.minors[-1].is_zero()


def test_hankel_strip_rows_are_the_rows_own_triangles():
    # F_0 = 0 and the jacobsthal J_0 = 0 sit on the anti-diagonals, the
    # (1, -1, 1, 1) spec has W_2 = 0, and (1, 2, 1, 2) has delta = 0, so its
    # terms are 2^k and every minor past the first vanishes; n runs
    # backwards, through c2^-1, from -4
    rat = ring.RATIONAL
    specs = [
        preset("fibonacci"),
        preset("jacobsthal", rat),
        RecurrenceSpec(*(rational(v) for v in (1, -1, 1, 1))),
        RecurrenceSpec(*(rational(v) for v in (1, 2, 1, 2))),
    ]
    n_lo, n_hi = -4, 3
    rows = blocked = 0
    for spec in specs:
        for r in range(0, 6):
            for d in (r + 1, r + 3):
                top = MatrixQuery(n_lo, r, d, RISING)
                strip = det_hankel_strip(anti_diagonal(spec, top, n_hi - n_lo + 1), d)
                assert len(strip.rows) == n_hi - n_lo + 1
                assert strip.algorithm == ("structured-fallback" if strip.fallback_used else "structured")
                falls_back = 0
                for m, row in enumerate(strip.rows):
                    matrix = build(spec, MatrixQuery(n_lo + m, r, d, RISING))
                    # an unblocked row is its own triangle, the cone of
                    # D(m, d), and a blocked one Bareiss's minors
                    assert row == det_bareiss(matrix).minors, (spec, r, d, m)
                    # a row is blocked exactly when its own triangle meets
                    # a zero divisor
                    falls_back += det_hankel_minors(matrix).fallback_used
                assert strip.fallback_used == falls_back, (spec, r, d)
                rows += len(strip.rows)
                blocked += strip.fallback_used
    assert rows == 4 * 6 * 2 * 8
    assert 0 < blocked < rows


def _check_numeric_strip(diagonal, d, case):
    # one int or rat strip against Bareiss and against its primitive part:
    # the table runs over the ints top * (s/bottom) / g, g the gcd of the
    # tops and s the lcm of the bottoms, and reads each entry with t >= 2
    # back as D'' * g^t / s^t.  Returns the strip's kind, its blocked rows
    # and its (muls, divs)
    domain = diagonal[0].domain
    strip = det_hankel_strip(diagonal, d)
    falls_back = 0
    for m, row in enumerate(strip.rows):
        matrix = SquareMatrix([diagonal[m + i:m + i + d] for i in range(d)])
        assert row == det_bareiss(matrix).minors, (case, domain, m)
        # the strip and Bareiss share one step; cofactor expansion shares
        # none of it
        assert row == tuple(det_cofactor(_leading(matrix, t)).value for t in range(1, d + 1)), (case, domain, m)
        falls_back += det_hankel_minors(matrix).fallback_used
    assert strip.fallback_used == falls_back, (case, domain)
    values = [x.value for x in diagonal]
    content = math.gcd(*(v.numerator for v in values)) or 1
    scale = math.lcm(*(v.denominator for v in values))
    sizes = f"g {'>' if content > 1 else '='} 1, s {'>' if scale > 1 else '='} 1"
    kind = sizes if any(values) else "zero"
    counts = (strip.mul_count, strip.div_count)
    if (content, scale) == (1, 1):
        # no scaling: the counts are exactly the bare table's
        with ring.count_ops() as table:
            bare = determinant._hankel_strip(values, d, ring._PAYLOADS[domain])
        assert (tuple(tuple(x.value for x in row) for row in strip.rows), strip.fallback_used) == bare, (case, domain)
        assert counts == (table.muls, table.divs), (case, domain)
        return kind, falls_back, counts
    # the counts are the scaled table's, plus one div per nonzero value
    # and one mul per entry with t >= 2 read back: none for a scaled 0 or 1
    scaled = [Fraction(v) * scale / content for v in values]
    assert all(v.denominator == 1 for v in scaled)
    with ring.count_ops() as table:
        scaled_rows, scaled_blocked = determinant._hankel_strip(
            [v.numerator for v in scaled], d, ring._PAYLOADS[ring.INTEGER]
        )
    assert scaled_blocked == strip.fallback_used, (case, domain)
    for row, scaled_row in zip(strip.rows, scaled_rows):
        assert {x.domain for x in row} == {domain}
        expected = [Fraction(y * content**t, scale**t) for t, y in enumerate(scaled_row[1:], 2)]
        assert [x.value for x in row[1:]] == expected, (case, domain)
        # each read-back payload is reduced with a positive denominator,
        # and prints and hashes as the plain Fraction does
        for x, want in zip(row[1:], expected):
            assert math.gcd(x.value.numerator, x.value.denominator) == 1 and x.value.denominator > 0
            assert (str(x), hash(x.value)) == (str(want), hash(want)), (case, domain)
    divs = sum(not x.is_zero() for x in diagonal)
    muls = sum(y not in (0, 1) for row in scaled_rows for y in row[1:])
    assert counts == (table.muls + muls, table.divs + divs), (case, domain)
    return kind, falls_back, counts


def test_rational_strips_run_over_the_integers():
    # seeded Lcg64 diagonals with zero values, so some rows block: every
    # third one integral, the rest fractional, and from case 60 on with a
    # planted common factor.  The table runs over s / g times the diagonal,
    # s the lcm of its denominators and g the gcd of its numerators
    rng = Lcg64(21)
    strips, blocked = Counter(), Counter()  # strips and blocked rows by kind
    for case in range(90):
        d = 1 + case % 4
        length = 2 * d - 1 + rng.next_int(0, 4)
        integral = case % 3 == 0
        planted = 1 if case < 60 else 2 + case % 7
        diagonal = [
            rational(planted * rng.next_int(-3, 3), 1 if integral else rng.next_int(1, 4)) for _ in range(length)
        ]
        kind, falls_back, _ = _check_numeric_strip(diagonal, d, case)
        strips[kind] += 1
        blocked[kind] += falls_back
    assert strips == {"zero": 1, "g = 1, s = 1": 21, "g > 1, s = 1": 16, "g = 1, s > 1": 43, "g > 1, s > 1": 9}
    assert blocked == {"zero": 0, "g = 1, s = 1": 7, "g > 1, s = 1": 4, "g = 1, s > 1": 21, "g > 1, s > 1": 5}
    mixed = ((rational(1, 2), integer(2), rational(3)), (rational(1), rational(1, 3), integer(0)))
    with ring.count_ops() as counter:
        for diagonal in mixed:
            with pytest.raises(ring.DomainMismatchError, match="^cannot mix rat and int scalars$"):
                det_hankel_strip(diagonal, 2)
    assert (counter.muls, counter.divs) == (0, 0)


def test_rational_strips_read_back_wide_values():
    # 200-bit Lcg64 numerators and denominators, zeros, and negative
    # inputs to ring.rational: the table's entries and g^t, s^t are wide,
    # and each entry with t >= 2 is read back as one reduced Fraction
    rng = Lcg64(55)

    def wide():
        value = rng.next_u64() << 136 | rng.next_u64() << 72 | rng.next_u64() << 8 | 1
        return value | 1 << 199

    strips = Counter()
    for case in range(24):
        d = 2 + case % 3
        length = 2 * d - 1 + case % 2
        factor, bottom = wide(), wide()
        if case % 4 == 0:  # g = 1, s > 1
            values = [(rng.next_int(-3, 3), wide() if rng.next_int(0, 1) else -wide()) for _ in range(length)]
        elif case % 4 == 1:  # wide g, s = 1
            values = [(factor * rng.next_int(-3, 3), 1) for _ in range(length)]
        elif case % 4 == 2:  # wide g, one shared wide s, negative denominators
            values = [(factor * rng.next_int(-3, 3), -bottom * rng.next_int(1, 3)) for _ in range(length)]
        else:  # wide values over small denominators
            values = [(wide() * rng.next_int(-1, 1), rng.next_int(1, 4)) for _ in range(length)]
        kind, _, _ = _check_numeric_strip([rational(top, under) for top, under in values], d, case)
        strips[kind] += 1
    assert strips == {"g = 1, s > 1": 10, "g > 1, s = 1": 6, "g > 1, s > 1": 8}


def test_integer_strips_run_over_their_content():
    # seeded Lcg64 diagonals with zero and negative values, so some rows
    # block: a planted common factor, coprime values and the all-zero
    # diagonal.  The table runs over the diagonal divided by g, the gcd of
    # its values, and reads each entry with t >= 2 back as g^t times it.
    # Each diagonal also runs over rat, which must give the same values
    # and count alike
    rng = Lcg64(34)
    strips, blocked = Counter(), Counter()  # strips and blocked rows by kind
    for case in range(60):
        d = 1 + case % 4
        length = 2 * d - 1 + rng.next_int(0, 4)
        planted = 0 if case % 10 == 1 else 1 if case % 3 == 0 else rng.next_int(2, 9)
        tops = [planted * rng.next_int(-3, 3) for _ in range(length)]
        kind, falls_back, counts = _check_numeric_strip([integer(v) for v in tops], d, case)
        assert _check_numeric_strip([rational(v) for v in tops], d, case) == (kind, falls_back, counts)
        strips[kind] += 1
        blocked[kind] += falls_back
    assert strips == {"zero": 7, "g = 1, s = 1": 17, "g > 1, s = 1": 36}
    assert blocked == {"zero": 13, "g = 1, s = 1": 9, "g > 1, s = 1": 25}
    mixed = (
        (integer(2), rational(4), integer(6)),
        (integer(2), integer(4), ring.poly_const(6)),
        (ring.poly_const(2), ring.variable("a"), ring.variable("b"), ring.variable("c1"), integer(1)),
    )
    messages = ("^cannot mix int and rat scalars$", "^cannot mix int and poly scalars$", "^cannot mix poly and int scalars$")
    with ring.count_ops() as counter:
        for diagonal, message in zip(mixed, messages):
            with pytest.raises(ring.DomainMismatchError, match=message):
                det_hankel_strip(diagonal, 2)
    assert (counter.muls, counter.divs) == (0, 0)


def test_fibonacci_r30_strip_runs_on_smaller_entries(monkeypatch):
    # theorem1's r = 30, d = 31 anti-diagonal: products of 30 consecutive
    # Fibonacci numbers, each a multiple of F_1 * ... * F_30 (Lucas 1878).
    # Every D(0, t) is then a multiple of g^t, g the content, and the table
    # over the diagonal divided by g holds entries of at most 7,636 bits,
    # where the table over the diagonal itself reaches 12,013
    diagonal = anti_diagonal(preset("fibonacci"), MatrixQuery(0, 30, 31, RISING))
    content = math.gcd(*(x.value for x in diagonal))
    fibonacci = [0, 1]
    while len(fibonacci) <= 30:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert content == math.prod(fibonacci[1:]) and content.bit_length() == 289
    sizes = []
    counted_steps = determinant._counted_steps

    @contextmanager
    def sized(kind):
        with counted_steps(kind) as step:

            def sized_step(*args):
                entry = step(*args)
                sizes.append(abs(entry).bit_length())
                return entry

            yield sized_step

    monkeypatch.setattr(determinant, "_counted_steps", sized)
    (row,) = det_hankel_strip(diagonal, 31).rows
    scaled_sizes, sizes[:] = sizes[:], []
    (bare_row,), _ = determinant._hankel_strip([x.value for x in diagonal], 31, ring._PAYLOADS[ring.INTEGER])
    assert tuple(x.value for x in row) == bare_row
    assert (len(scaled_sizes), max(scaled_sizes), max(sizes)) == (900, 7636, 12013)
    # the 31 x 31 determinant divided by g^31 is a unit
    assert abs(row[-1].value) == content**31


def test_int_step_division_is_exact_and_a_failed_strip_keeps_its_counts(monkeypatch):
    zero, one, units, quotient, fused = ring._PAYLOADS[ring.INTEGER]
    assert [quotient(t, e) for t, e in ((12, 4), (-12, 4), (12, -4), (-(2**200), 2**100))] == [3, -3, -3, -(2**100)]
    for top, divisor in ((7, 2), (-7, 2), (7, -2), (2**200 + 1, 2**100)):
        with pytest.raises(ring.InexactDivisionError):
            quotient(top, divisor)
    # a content-1 Lcg64(1) diagonal: 4 of its 6 rows are blocked, so the
    # divisions include their Bareiss eliminations.  Each step's operands
    # are recorded, and replayed through ring ops as one scalar step
    # (a*b - c*d) / e, where exact_div ticks before it divides
    rng = Lcg64(1)
    diagonal = [integer(rng.next_int(-3, 3)) for _ in range(12)]
    steps = []
    counted_steps = determinant._counted_steps

    @contextmanager
    def recorded(kind):
        with counted_steps(kind) as step:

            def recording(*args):
                steps.append(args)
                return step(*args)

            yield recording

    monkeypatch.setattr(determinant, "_counted_steps", recorded)
    full = det_hankel_strip(diagonal, 4)
    assert (full.fallback_used, full.mul_count, full.div_count) == (4, 84, 26)
    full_steps = list(steps)

    def replayed(k):
        # ring's counts up to and including the k-th division that ticks
        with ring.count_ops() as counter:
            for a, b, c, d, e in full_steps:
                a, b, c, d, e = (integer(x) for x in (a, b, c, d, e))
                ring.exact_div(ring.sub(ring.mul(a, b), ring.mul(c, d)), e)
                if counter.divs == k:
                    break
        return counter.muls, counter.divs

    assert replayed(full.div_count + 1) == (full.mul_count, full.div_count)
    for k in range(1, full.div_count + 1):
        calls = []

        def failing(top, divisor):
            calls.append(top)
            if len(calls) == k:
                raise ring.InexactDivisionError("planted")
            return quotient(top, divisor)

        monkeypatch.setitem(ring._PAYLOADS, ring.INTEGER, (zero, one, units, failing, fused))
        with ring.count_ops() as counter:
            with pytest.raises(ring.InexactDivisionError, match="planted"):
                det_hankel_strip(diagonal, 4)
        assert (counter.muls, counter.divs) == replayed(k), k
    # the same replay in the other two kinds, one step at a time: a rat
    # matrix given to det_bareiss runs the Fraction kind (Lcg64(3): a zero
    # leading minor, so a row swap), and a symbolic strip whose two rows
    # are blocked (rising powers at r = 2 have D(., 4) = 0) runs the Poly
    # kind.  Each recorded step, run alone, returns and counts what ring's
    # scalar step does on the wrapped payloads, and the steps' counts add
    # up to the report's
    rng = Lcg64(3)
    matrix = SquareMatrix([[rational(rng.next_int(-2, 2), rng.next_int(1, 3)) for _ in range(5)] for _ in range(5)])
    symbolic = anti_diagonal(symbolic_spec(), MatrixQuery(0, 2, 6), count=2)
    cases = ((ring.RATIONAL, lambda: det_bareiss(matrix)), (ring.POLYNOMIAL, lambda: det_hankel_strip(symbolic, 6)))
    for domain, run in cases:
        steps.clear()
        report = run()
        kind = ring._PAYLOADS[domain]
        totals = [0, 0]
        for args in steps:
            with ring.count_ops() as own, counted_steps(kind) as step:
                value = step(*args)
            with ring.count_ops() as scalar:
                a, b, c, d, e = (ring.ExactScalar(domain, x) for x in args)
                expected = ring.exact_div(ring.sub(ring.mul(a, b), ring.mul(c, d)), e)
            assert (ring.ExactScalar(domain, value), own.muls, own.divs) == (expected, scalar.muls, scalar.divs)
            totals = [totals[0] + own.muls, totals[1] + own.divs]
        assert totals == [report.mul_count, report.div_count] == ([35, 5] if domain == ring.RATIONAL else [248, 40])
    assert report.fallback_used == 2


def _captured_steps(monkeypatch, run):
    """The operands (a, b, c, d, e) of every step run() makes, in order."""
    steps = []
    counted_steps = determinant._counted_steps

    @contextmanager
    def recorded(kind):
        with counted_steps(kind) as step:

            def recording(*args):
                steps.append(args)
                return step(*args)

            yield recording

    with monkeypatch.context() as patch:
        patch.setattr(determinant, "_counted_steps", recorded)
        run()
    return steps


def _poly_step_outcomes(args):
    """The shared step on poly payloads, and ring's scalar step
    exact_div(sub(mul(a, b), mul(c, d)), e), each as (terms, muls, divs),
    with an exception's type and message in place of the terms.  A
    quotient that carries its kernel shape carries the shape a scan of its
    terms finds."""
    outcomes = []
    a, b, c, d, e = (ring.ExactScalar(ring.POLYNOMIAL, x) for x in args)

    def scalar():
        return ring.exact_div(ring.sub(ring.mul(a, b), ring.mul(c, d)), e).value

    def payload():
        with determinant._counted_steps(ring._PAYLOADS[ring.POLYNOMIAL]) as step:
            return step(*args)

    for run in (payload, scalar):
        with ring.count_ops() as counter:
            try:
                value = run()
            except ArithmeticError as error:
                value = (type(error), str(error))
            else:
                if value._shape is not ring._UNSCANNED:
                    assert value._shape == ring._bigraded(value._packed)
                value = value._packed
        outcomes.append((value, counter.muls, counter.divs))
    return outcomes


def _fused_widths(monkeypatch, args):
    """The fused step's result on args, and the width of each image it encodes."""
    widths = []
    image = ring._image
    with monkeypatch.context() as patch:
        patch.setattr(ring, "_image", lambda *image_args: widths.append(image_args[3]) or image(*image_args))
        return ring._kronecker(*args), widths


def test_fused_poly_step_matches_ring_scalar_step(monkeypatch):
    # every step of acceptance 05's strips (c is d), and of Bareiss and
    # condensation on its largest matrix, theorem2 at n = 3, r = 4, d = 5
    # (c is not d), returns and counts what ring's scalar step does
    spec = symbolic_spec()
    matrix = build(spec, MatrixQuery(3, 4, 5))
    grid = GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 3), r=(0, 4))
    captured = {
        "strip": _captured_steps(monkeypatch, lambda: run_grid(grid)),
        "bareiss": _captured_steps(monkeypatch, lambda: det_bareiss(matrix)),
        "condensation": _captured_steps(monkeypatch, lambda: det_condensation(matrix)),
    }
    taken = Counter()
    for name, steps in captured.items():
        for args in steps:
            payload, scalar = _poly_step_outcomes(args)
            assert payload == scalar
            fused, widths = _fused_widths(monkeypatch, args)
            if fused is not None:
                taken[name, args[2] is args[3]] += 1
                # compared again at a wider width, and accepted
                taken[name, "wider"] += len(set(widths)) > 1
    assert taken == {
        ("strip", True): 37,
        ("strip", "wider"): 1,
        ("bareiss", False): 26,
        ("bareiss", True): 4,
        ("bareiss", "wider"): 0,
        ("condensation", False): 14,
        ("condensation", True): 16,
        ("condensation", "wider"): 0,
    }

    # the largest fused steps with c is d and with c apart
    def largest(steps):
        fused = [args for args in steps if ring._kronecker(*args) is not None]
        return max(fused, key=lambda args: len(args[0]._packed) * len(args[1]._packed))

    square, apart = largest(captured["strip"]), largest(captured["bareiss"])
    assert square[2] is square[3] and apart[2] is not apart[3]
    cases = []
    for a, b, c, d, e in (square, apart):
        # a zero numerator: zero, from the images, with no division
        for zero_top in ((a, b, a, b, e), (c, c, c, c, e)):
            assert ring._kronecker(*zero_top) == Poly({})
            cases.append((zero_top, ({}, 2, 0)))
        # an inexact numerator: e with one coefficient moved keeps its
        # shape, so the image division leaves a remainder and declines
        key = max(e._packed)
        moved = Poly._wrap({**e._packed, key: e._packed[key] + 1})
        assert ring._kronecker(a, b, c, d, moved) is None
        message = (ring.InexactDivisionError, "polynomial division leaves a remainder")
        cases.append(((a, b, c, d, moved), (message, 2, 1)))
        # an ungraded operand: a plus c1 * e leaves a's grading, and the
        # step stays exact
        ungraded = a + Poly.variable("c1") * e
        assert ring._bigraded(ungraded._packed) is None
        assert ring._kronecker(ungraded, b, c, d, e) is None
        expected = (a * b - c * d).exact_div(e) + Poly.variable("c1") * b
        cases.append(((ungraded, b, c, d, e), (expected._packed, 2, 1)))
    # a divisor of one: the largest of the strip's t = 2 steps, which
    # divide by D(k, 0) = 1, encodes a, b and c (c is d) and no divisor,
    # and decodes its numerator's image over the union box; a zero
    # numerator is zero, from the images.  Neither counts a division
    unit = Poly.const(1)
    by_one = max(
        (args for args in captured["strip"] if args[4] == unit),
        key=lambda args: len(args[0]._packed) * len(args[1]._packed),
    )
    fused, widths = _fused_widths(monkeypatch, by_one)
    assert fused is not None and len(widths) == 3 and by_one[2] is by_one[3]
    a, b, c, d, _ = by_one
    cases.append((by_one, ((a * b - c * d)._packed, 2, 0)))
    assert ring._kronecker(a, b, a, b, unit) == Poly({})
    cases.append(((a, b, a, b, unit), ({}, 2, 0)))
    for args, expected in cases:
        assert _poly_step_outcomes(args) == [expected, expected]
    # a zero divisor: the step counts its division before it divides, as
    # it always has, where exact_div raises before it ticks
    a, b, c, d, e = apart
    by_zero = (ZeroDivisionError, "exact division by zero")
    assert ring._kronecker(a, b, c, d, Poly({})) is None
    assert _poly_step_outcomes((a, b, c, d, Poly({}))) == [(by_zero, 2, 1), (by_zero, 2, 0)]

    # sparse operands: 33 bi-graded terms each over a 3201 x 1601 box, so
    # more than 1,024 pairs but a sparse box; the step declines before it
    # encodes any image, c is d or not
    p = Poly({(100 * i, 3200 - 100 * i, 3200, 50 * i): i + 1 for i in range(33)})
    q = Poly({(100 * i, 3200 - 100 * i, 3200, 50 * i): 7 - i for i in range(33)})
    three, four = Poly.const(3), Poly.const(4)
    for args, quotient in (((four * p, q, p, q, three), p * q), ((four * p, p, p, p, three), p * p)):
        assert _fused_widths(monkeypatch, args) == (None, [])
        assert _poly_step_outcomes(args) == [(quotient._packed, 2, 1)] * 2

    # the wider-width check rejecting a candidate: top = T * s and
    # e = D * s, where D = (x - 1)**10 (1 + ... + x**10) divides
    # T = (1 + ... + x**10) times the product of the x**p - 1 for the
    # primes below 30 with a quotient whose coefficients pass 10**8 (see
    # tests/test_ring.py).  a = T + c and b = d = s, with c large enough
    # that no term of a cancels, so both products have 1,540 term pairs;
    # their coefficients fit 2-byte slots, where the image quotient has a
    # zero remainder and decodes to a wrong candidate, which the images
    # at a wider width reject
    def homogenised(coeffs):
        top = len(coeffs) - 1
        return Poly({(i, top - i, i, 0): v for i, v in enumerate(coeffs)})

    def convolve(left, right):
        out = [0] * (len(left) + len(right) - 1)
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                out[i + j] += x * y
        return out

    quotient, dividend = [1], [1] * 11
    for prime in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        quotient = convolve(quotient, [1] * prime)
        dividend = convolve(dividend, [-1] + [0] * (prime - 1) + [1])
    divisor = convolve([(-1) ** (10 - i) * math.comb(10, i) for i in range(11)], [1] * 11)
    s, c = homogenised([1] * 11), homogenised([1000] * len(dividend))
    args = (homogenised(dividend) + c, s, c, s, homogenised(divisor) * s)
    assert min(len(args[0].terms), len(c.terms)) * len(s.terms) == 1540
    assert _fused_widths(monkeypatch, args) == (None, [2] * 5 + [4] * 6)
    quotient = homogenised(quotient)
    assert max(map(abs, quotient.terms.values())) > 10**8
    assert _poly_step_outcomes(args) == [(quotient._packed, 2, 1)] * 2


def test_fused_rational_step_matches_ring_scalar_step():
    # the Fraction kind's step runs on ring's slot arithmetic: reduced
    # operands with denominators 1 and above, a zero numerator (a*b equal
    # to c*d), a divisor of one and of -1, and operands 0 and 1, each with
    # the value, slots and counts of ring's scalar step
    rng = random.Random(33)
    kind = ring._PAYLOADS[ring.RATIONAL]

    def value():
        return Fraction(rng.randint(-(10**6), 10**6), rng.choice((1, 1, rng.randint(1, 10**6))))

    cases = []
    for _ in range(400):
        a, b, c, d = (value() for _ in range(4))
        e = rng.choice((value() or Fraction(7, 3), Fraction(1), Fraction(-1)))
        cases += [(a, b, c, d, e), (a, b, b, a, e), (a, b, a * b, Fraction(1), e), (a, Fraction(0), c, d, e)]
    fused = 0
    for args in cases:
        with ring.count_ops() as own, determinant._counted_steps(kind) as step:
            result = step(*args)
        with ring.count_ops() as scalar:
            a, b, c, d, e = (rational(x) for x in args)
            expected = ring.exact_div(ring.sub(ring.mul(a, b), ring.mul(c, d)), e).value
        assert (result._numerator, result._denominator) == (expected.numerator, expected.denominator)
        assert math.gcd(result._numerator, result._denominator) == 1 and result._denominator > 0
        assert (own.muls, own.divs) == (scalar.muls, scalar.divs)
        fused += own.muls == 2
    assert fused == 800


def test_one_row_strip_is_the_hankel_minors_triangle():
    rat = ring.RATIONAL
    specs = [preset("fibonacci"), preset("lucas", rat), RecurrenceSpec(*(rational(v) for v in (1, 2, 1, 2)))]
    fallbacks = 0
    for spec in specs:
        for n in (-2, 0, 1):
            for r in range(0, 4):
                for mode in MODES:
                    query = MatrixQuery(n, r, r + 2, mode)
                    matrix = build(spec, query)
                    structured = det_hankel_minors(matrix)
                    strip = det_hankel_strip(anti_diagonal(spec, query), query.d)
                    assert strip.algorithm == structured.algorithm
                    assert strip.fallback_used == structured.fallback_used
                    (row,) = strip.rows
                    assert row == structured.minors
                    counts = (strip.mul_count, strip.div_count)
                    assert counts == (structured.mul_count, structured.div_count), (spec, n, r, mode)
                    if structured.fallback_used:
                        # a blocked row is Bareiss's minors of the matrix
                        assert row == det_bareiss(matrix).minors
                        fallbacks += 1
    assert fallbacks > 0
    with pytest.raises(ValueError, match="needs at least 5 anti-diagonal values"):
        det_hankel_strip([integer(1)] * 4, 3)


def _recurrence_builds():
    """3,636 builds: four presets in int and rat, n = -4..3 (int jacobsthal,
    c2 = 2, from n = 0), both modes, r = 0..4, d = 1..6; and the symbolic
    spec at n = 0..1, r = 0..2, d = 1..3."""
    for name in ("fibonacci", "lucas", "pell", "jacobsthal"):
        for domain in (ring.INTEGER, ring.RATIONAL):
            spec = preset(name, domain)
            ns = range(0, 4) if (name, domain) == ("jacobsthal", ring.INTEGER) else range(-4, 4)
            for n in ns:
                for r in range(5):
                    for d in range(1, 7):
                        for mode in MODES:
                            yield build(spec, MatrixQuery(n, r, d, mode))
    for n in range(2):
        for r in range(3):
            for d in range(1, 4):
                for mode in MODES:
                    yield build(symbolic_spec(), MatrixQuery(n, r, d, mode))


def test_operation_totals_on_the_recurrence_builds():
    # Bareiss, condensation and the strip share one Desnanot-Jacobi step;
    # these totals pin its arithmetic.  Condensation's divisors are the
    # Hankel minors D(k+2, t-2) that the one-row strip divides by, so the
    # two fall back on exactly the same builds.  The strip runs a numeric
    # diagonal on its primitive integer part, and its totals include the
    # scaling and the read-back.
    algorithms = (det_bareiss, det_condensation, det_hankel_minors)
    totals = {det: [0, 0, 0] for det in algorithms}
    builds = 0
    for matrix in _recurrence_builds():
        reports = [det(matrix) for det in algorithms]
        assert len({report.value for report in reports}) == 1, matrix
        _, condensed, structured = reports
        assert condensed.fallback_used == structured.fallback_used, matrix
        for det, report in zip(algorithms, reports):
            totals[det][0] += report.mul_count
            totals[det][1] += report.div_count
            totals[det][2] += report.fallback_used
        builds += 1
    assert builds == 3636
    assert totals[det_bareiss] == [69421, 11694, 0]
    assert totals[det_condensation] == [98643, 14985, 1055]
    assert totals[det_hankel_minors] == [62867, 14389, 1055]
