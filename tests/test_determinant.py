import random

import pytest

from hankelrise import ring
from hankelrise.determinant import (
    det_bareiss,
    det_cofactor,
    det_condensation,
    det_hankel_minors,
    det_hankel_strip,
)
from hankelrise.matgen import MODES, RISING, MatrixQuery, SquareMatrix, anti_diagonal, build
from hankelrise.ring import integer, rational
from hankelrise.sequence import RecurrenceSpec, preset, symbolic_spec
from hankelrise.verify import Lcg64

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
    # two fall back on exactly the same builds.
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
    assert totals[det_hankel_minors] == [63553, 10317, 1055]
