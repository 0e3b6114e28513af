import dataclasses
import itertools
import json
import sys
import threading

import pytest

import hankelrise.verify as verify_module
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
from hankelrise.determinant import StripReport, det_bareiss
from hankelrise.matgen import POWER, MatrixQuery, build
from hankelrise.ring import neg, rational
from hankelrise.sequence import RecurrenceSpec, preset, symbolic_spec
from hankelrise.verify import (
    IDENTITY_TABLE,
    GridSpec,
    Lcg64,
    Mismatch,
    VerifyReport,
    report_json,
    run_grid,
    run_random_dj,
)

# frozen first draws of the documented generator
LCG_SEED1_U64 = [7806831264735756412, 9396908728118811419, 11960119808228829710]
LCG_SEED1_INTS = [-6, -8, 2, 9, 8, 1, -3, 0]


def test_lcg_pinned_stream():
    gen = Lcg64(1)
    assert [gen.next_u64() for _ in range(3)] == LCG_SEED1_U64
    gen = Lcg64(1)
    assert [gen.next_int(-9, 9) for _ in range(8)] == LCG_SEED1_INTS
    gen = Lcg64(7)
    assert [gen.next_int(-9, 9) for _ in range(5)] == [9, -4, 8, 2, -4]


def test_lcg_bounds():
    gen = Lcg64(123)
    draws = [gen.next_int(-3, 3) for _ in range(500)]
    assert set(draws) == set(range(-3, 4))


def test_rising_grid_passes_with_pinned_counts():
    report = run_grid(GridSpec(identity="theorem1", n=(1, 2), r=(1, 2)))
    assert report.passed
    assert report.checked == 10  # d sweeps 1..r+1 inside each (n, r)
    # one Desnanot-Jacobi table per r over n = 1..2, no build; its only
    # charged divisions are the two d = 3 entries, D(0, 3) by h_2 and
    # D(1, 3) by h_3, counting from h_0 = W_1^(2)
    assert (report.mul_count, report.div_count) == (17, 2)
    bareiss = run_grid(GridSpec(identity="theorem1", n=(1, 2), r=(1, 2), oracle="bareiss"))
    assert (bareiss.mul_count, bareiss.div_count) == (22, 1)


def test_reports_are_deterministic_up_to_wall_time():
    grid = GridSpec(identity="theorem1", n=(-2, 2), r=(0, 3))
    first = run_grid(grid)
    second = run_grid(grid)
    assert (first.checked, first.mismatches) == (second.checked, second.mismatches)
    assert (first.mul_count, first.div_count) == (second.mul_count, second.div_count)


def test_report_json_shape():
    report = run_grid(GridSpec(identity="theorem1", n=(0, 1), r=(0, 1)))
    payload = json.loads(report_json(report), object_pairs_hook=list)
    assert [key for key, _ in payload] == ["identity", "checked", "pass", "mismatches", "elapsed_ms"]
    data = dict(payload)
    assert data["identity"] == "theorem1"
    assert data["checked"] == 6
    assert data["pass"] is True
    assert data["mismatches"] == []
    assert isinstance(data["elapsed_ms"], int)


def test_corrupted_closed_form_is_detected(monkeypatch):
    import hankelrise.verify as verify_module
    from hankelrise.closedform import theorem1_rhs as genuine

    monkeypatch.setattr(verify_module, "theorem1_rhs", lambda n, r, d: neg(genuine(n, r, d)))
    report = run_grid(GridSpec(identity="theorem1", n=(1, 2), r=(1, 2)))
    assert not report.passed
    assert len(report.mismatches) == 10
    first = report.mismatches[0]
    assert first.point == {"n": 1, "r": 1, "d": 1}
    assert first.lhs == "1" and first.rhs == "-1"
    failing = json.loads(report_json(report))
    assert failing["pass"] is False
    assert failing["mismatches"][0] == {"point": {"n": 1, "r": 1, "d": 1}, "lhs": "1", "rhs": "-1"}


def test_prodinger_and_carlitz_grids():
    assert run_grid(GridSpec(identity="prodinger", n=(0, 3), r=(0, 3))).passed
    report = run_grid(GridSpec(identity="carlitz", n=(0, 2), r=(0, 3)))
    assert report.passed and report.checked == 12


def test_vajda_grid_negative_base():
    report = run_grid(GridSpec(identity="vajda", n=(-5, 5), i=(0, 3), j=(0, 3)))
    assert report.passed and report.checked == 11 * 16


def test_eq4_grids():
    report = run_grid(GridSpec(identity="eq4", spec=preset("pell"), n=(0, 3), i=(0, 2), j=(0, 2)))
    assert report.passed and report.checked == 36
    spec = preset("jacobsthal", ring.RATIONAL)
    report = run_grid(
        GridSpec(identity="eq4", spec=spec, domain=ring.RATIONAL, n=(-3, 0), i=(0, 2), j=(0, 2))
    )
    assert report.passed and report.checked == 36


def test_negative_bilinear_indices_need_an_invertible_c2(monkeypatch):
    # U_i at a negative i steps backwards, dividing by c2
    lucas = preset("lucas", ring.RATIONAL)
    for identity, spec, domain in (("vajda", None, ring.INTEGER), ("eq4", lucas, ring.RATIONAL)):
        grid = GridSpec(identity=identity, spec=spec, domain=domain, n=(-2, 1), i=(-3, 1), j=(-2, 2))
        report = run_grid(grid)
        assert report.passed and report.checked == 4 * 5 * 5
    monkeypatch.setattr(verify_module, "_points", _swept)
    degenerate = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))
    cases = [
        (dict(spec=preset("jacobsthal"), i=(-1, 0), j=(0, 0)), "i", "int spec has c2 = 2"),
        (dict(spec=degenerate, domain=ring.RATIONAL, i=(0, 0), j=(-1, 0)), "j", "rat spec has c2 = 0"),
        (dict(domain=ring.POLYNOMIAL, i=(-2, -1), j=(-1, 0)), "i", "poly spec has c2 = c2"),
    ]
    for fields_, axis, tail in cases:
        with pytest.raises(ValueError) as rejected:
            run_grid(GridSpec(identity="eq4", n=(0, 0), **fields_))
        assert str(rejected.value) == (
            f"negative {axis} needs c2 = +-1, or a nonzero c2 in the rational domain; this {tail}"
        )


def test_theorem2_grids():
    spec = preset("lucas", ring.RATIONAL)
    report = run_grid(GridSpec(identity="theorem2", spec=spec, domain=ring.RATIONAL, n=(-3, 2), r=(0, 2)))
    assert report.passed and report.checked == 36  # 6 d-window points per n
    report = run_grid(GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 1), r=(0, 2)))
    assert report.passed and report.checked == 12


def test_theorem2_int_negative_base_reports_honest_errors():
    # the closed form needs an inverse of c2 there: c2 = +-1 is its own
    # inverse over the integers, any other c2 is rejected before the sweep
    report = run_grid(GridSpec(identity="theorem2", spec=preset("lucas"), n=(-2, 0), r=(0, 2)))
    assert report.passed and report.checked == 18
    with pytest.raises(ValueError, match="rational"):
        run_grid(GridSpec(identity="theorem2", spec=preset("jacobsthal"), n=(-2, 0), r=(0, 2)))


def test_degenerate_spec_errors_are_reported_structurally(monkeypatch):
    spec = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))
    grid = GridSpec(identity="theorem2", spec=spec, domain=ring.RATIONAL, n=(0, 1), r=(1, 1))
    # c2 = 0 has no inverse, so from n = 0 on the grid passes ...
    report = run_grid(grid)
    assert report.passed and report.checked == 4
    # ... and negative n is rejected before the sweep
    with pytest.raises(ValueError, match="^negative n needs c2 = \\+-1, or a nonzero c2 in the rational"):
        run_grid(dataclasses.replace(grid, n=(-1, -1)))

    # both sides failing with the same message is still no PASS
    def raising(*args):
        raise ZeroDivisionError("exact division by zero")

    # both row passes: the grid's default and the bareiss cross-check
    for name in ("det_hankel_strip", "det_bareiss", "theorem2_rhs"):
        monkeypatch.setattr(verify_module, name, raising)
    report = run_grid(grid)
    assert report.checked == 4 and len(report.mismatches) == 4
    error = "error(ZeroDivisionError: exact division by zero)"
    assert [m.point for m in report.mismatches] == [{"n": n, "r": 1, "d": d} for n in (0, 1) for d in (1, 2)]
    assert all(m.lhs == m.rhs == error for m in report.mismatches)
    assert run_grid(dataclasses.replace(grid, oracle="bareiss")).mismatches == report.mismatches


def test_errors_and_mismatches_keep_their_points_and_strings(monkeypatch):
    # one grid with a domain error on either side, on both, and a wrong
    # value: each report lists its points in sweep order with the axes in
    # order, and each error as error(Type: message)
    genuine_lhs, genuine_rhs = verify_module.generalized_vajda_lhs, verify_module.generalized_vajda_rhs

    def lhs(spec, n, i, j):
        if (n, i, j) in ((0, 1, 1), (1, 0, 1)):
            raise ZeroDivisionError("exact division by zero")
        return genuine_lhs(spec, n, i, j)

    def rhs(spec, n, i, j):
        if (n, i, j) == (1, 0, 1):
            raise ring.NotInvertibleError("negative power in non-invertible domain int")
        if (n, i, j) == (-1, 1, 0):
            raise ring.InexactDivisionError("7 is not divisible by 2")
        if (n, i, j) == (0, 2, 1):
            return ring.add(genuine_rhs(spec, n, i, j), ring.one(spec.domain))
        return genuine_rhs(spec, n, i, j)

    monkeypatch.setattr(verify_module, "generalized_vajda_lhs", lhs)
    monkeypatch.setattr(verify_module, "generalized_vajda_rhs", rhs)
    rat = ring.RATIONAL
    report = run_grid(GridSpec(identity="eq4", spec=preset("lucas", rat), domain=rat, n=(-1, 1), i=(0, 2), j=(0, 1)))
    zero_division = "error(ZeroDivisionError: exact division by zero)"
    not_invertible = "negative power in non-invertible domain int"
    assert report.checked == 18
    assert report.mismatches == (
        Mismatch({"n": -1, "i": 1, "j": 0}, "0", "error(InexactDivisionError: 7 is not divisible by 2)"),
        Mismatch({"n": 0, "i": 1, "j": 1}, zero_division, "5"),
        Mismatch({"n": 0, "i": 2, "j": 1}, "5", "6"),
        Mismatch({"n": 1, "i": 0, "j": 1}, zero_division, f"error(NotInvertibleError: {not_invertible})"),
    )
    assert [list(m.point) for m in report.mismatches] == [["n", "i", "j"]] * 4

    # an oracle row: a failed strip marks every point of its r, next to a
    # wrong closed form at another r
    genuine_strip, genuine_theorem1 = verify_module.det_hankel_strip, verify_module.theorem1_rhs

    def strip(diagonal, d):
        if d == 2:
            raise ring.InexactDivisionError("3 is not divisible by 2")
        return genuine_strip(diagonal, d)

    def theorem1(n, r, d):
        value = genuine_theorem1(n, r, d)
        return ring.neg(value) if (n, r, d) == (0, 2, 2) else value

    monkeypatch.setattr(verify_module, "det_hankel_strip", strip)
    monkeypatch.setattr(verify_module, "theorem1_rhs", theorem1)
    report = run_grid(GridSpec(identity="theorem1", n=(0, 1), r=(0, 2)))
    inexact = "error(InexactDivisionError: 3 is not divisible by 2)"
    assert report.checked == 12
    assert report.mismatches == (
        Mismatch({"n": 0, "r": 1, "d": 1}, inexact, "0"),
        Mismatch({"n": 0, "r": 1, "d": 2}, inexact, "-1"),
        Mismatch({"n": 0, "r": 2, "d": 2}, "-1", "1"),
        Mismatch({"n": 1, "r": 1, "d": 1}, inexact, "1"),
        Mismatch({"n": 1, "r": 1, "d": 2}, inexact, "1"),
    )
    assert [list(m.point) for m in report.mismatches] == [["n", "r", "d"]] * 5


# (spec, identity, checked, mul/div totals per oracle) on n 0..3 and r 0..3,
# or i and j 0..3 for eq4, which has no oracle.
_DEGENERATE_TOTALS = [
    # c2 = 0, delta = 2: the closed forms read c2^0 at d = 1, n + d = 2 and n = 0
    ((1, 2, 1, 0), "theorem2", 40, {None: (137, 18), "bareiss": (152, 0)}),
    ((1, 2, 1, 0), "rank-zero", 32, {None: (494, 26), "bareiss": (476, 0)}),
    ((1, 2, 1, 0), "eq4", 64, {None: (106, 0)}),
    # delta = 0: every determinant of d >= 2 is zero
    ((1, 2, 1, 2), "theorem2", 40, {None: (157, 18), "bareiss": (172, 0)}),
    ((1, 2, 1, 2), "rank-zero", 32, {None: (447, 26), "bareiss": (431, 0)}),
    ((1, 2, 1, 2), "eq4", 64, {None: (117, 0)}),
]


def test_degenerate_spec_totals_are_pinned():
    # the same in both numeric domains
    for domain, (values, identity, checked, totals) in itertools.product(
        (ring.INTEGER, ring.RATIONAL), _DEGENERATE_TOTALS
    ):
        spec = RecurrenceSpec(*(ring._make(domain, v) for v in values))
        axes = dict(i=(0, 3), j=(0, 3)) if identity == "eq4" else dict(r=(0, 3))
        for oracle, expected in totals.items():
            report = run_grid(GridSpec(identity, spec=spec, domain=domain, oracle=oracle, n=(0, 3), **axes))
            where = (domain, values, identity, oracle)
            assert report.passed and report.checked == checked, where
            assert (report.mul_count, report.div_count) == expected, where
    # r = 0 reads F_0^0 = 1 on the plain-power anti-diagonal through n = 0
    report = run_grid(GridSpec(identity="carlitz", n=(-3, 3), r=(0, 4)))
    assert report.passed and report.checked == 35
    assert (report.mul_count, report.div_count) == (275, 60)


def test_integer_valued_specs_count_the_same_in_both_numeric_domains():
    # the strip runs an int and a rat anti-diagonal alike, on its primitive
    # integer part, so an integer-valued spec's grid over rat repeats the
    # int grid's counts as well as its values
    for name, identity in itertools.product(("fibonacci", "lucas", "pell", "jacobsthal"), ("theorem2", "rank-zero")):
        reports = [
            run_grid(GridSpec(identity, spec=preset(name, domain), domain=domain, n=(0, 6), r=(0, 5)))
            for domain in (ring.INTEGER, ring.RATIONAL)
        ]
        assert all(report.passed for report in reports), (name, identity)
        totals = {(report.checked, report.mul_count, report.div_count) for report in reports}
        assert len(totals) == 1, (name, identity, totals)


def test_integer_valued_specs_with_unit_c2_count_alike_over_int_and_rat(monkeypatch):
    # negative n inverts c2 = +-1, which is free in both numeric domains, so
    # each grid gives the same value at every point and the same (muls,
    # divs) over int and over rat: theorem2 and rank-zero under every
    # oracle and eq4, on fibonacci, lucas, pell, a c2 = -1 spec and six
    # seeded specs whose c2 is drawn from +-1
    specs = [(0, 1, 1, 1), (2, 1, 1, 1), (0, 1, 2, 1), (2, 1, 1, -1)]
    rng = Lcg64(11)
    for _ in range(6):
        a, b, c1 = (rng.next_int(-9, 9) for _ in range(3))
        specs.append((a, b, c1, 2 * rng.next_int(0, 1) - 1))
    assert {spec[3] for spec in specs} == {1, -1}
    values = []
    real_points = verify_module._points

    def points(*args):
        for point in real_points(*args):
            values.append(tuple(map(str, point)))
            yield point

    monkeypatch.setattr(verify_module, "_points", points)
    grids = [("eq4", None, dict(i=(0, 4), j=(0, 4)))]
    grids += [(name, oracle, dict(r=(0, 3))) for name in ("theorem2", "rank-zero") for oracle in verify_module.ORACLES]
    for spec, (identity, oracle, axes) in itertools.product(specs, grids):
        seen = []
        for domain in (ring.INTEGER, ring.RATIONAL):
            values.clear()
            scalars = RecurrenceSpec(*(ring._make(domain, v) for v in spec))
            report = run_grid(GridSpec(identity, spec=scalars, domain=domain, oracle=oracle, n=(-4, 4), **axes))
            assert report.passed, (spec, identity, oracle, domain)
            seen.append((report.checked, report.mul_count, report.div_count, list(values)))
        assert seen[0] == seen[1], (spec, identity, oracle)


def test_rank_zero_windows():
    report = run_grid(GridSpec(identity="rank-zero", n=(0, 2), r=(0, 2)))
    assert report.passed and report.checked == 18  # default window r+2..r+3
    clipped = run_grid(GridSpec(identity="rank-zero", n=(0, 0), r=(1, 1), d=(1, 4)))
    assert clipped.passed and clipped.checked == 2  # clipped up to r+2..4


def test_square_window_clipping():
    report = run_grid(GridSpec(identity="theorem1", n=(0, 0), r=(2, 2), d=(2, 99)))
    assert report.passed and report.checked == 2  # d clipped to 2..r+1
    # a window left empty for some r but not all still clips
    report = run_grid(GridSpec(identity="theorem1", n=(0, 0), r=(1, 3), d=(3, 9)))
    assert report.passed and report.checked == 3  # r = 1 has no d in 3..2


def test_default_oracle_is_the_strip_on_every_hankel_grid(monkeypatch):
    rat, poly = ring.RATIONAL, ring.POLYNOMIAL
    calls = []

    def recording(name):
        genuine = getattr(verify_module, name)
        return lambda *args: calls.append(name) or genuine(*args)

    for name in ("det_hankel_strip", "det_bareiss", "det_cofactor", "build"):
        monkeypatch.setattr(verify_module, name, recording(name))

    def called(grid):
        calls.clear()
        assert run_grid(grid).passed, grid
        return set(calls)

    # an unset oracle reads the strip in every domain, and builds nothing
    for grid in (
        GridSpec(identity="theorem1", n=(0, 1), r=(0, 1)),
        GridSpec(identity="theorem2", spec=preset("lucas", rat), domain=rat, n=(0, 1), r=(0, 1)),
        GridSpec(identity="theorem2", domain=poly, n=(0, 1), r=(0, 1)),
        GridSpec(identity="rank-zero", domain=poly, n=(0, 1), r=(0, 1)),
        GridSpec(identity="carlitz", n=(0, 1), r=(0, 2)),
    ):
        assert called(grid) == {"det_hankel_strip"}
        # an explicit oracle still wins
        assert called(dataclasses.replace(grid, oracle="bareiss")) == {"build", "det_bareiss"}
        assert called(dataclasses.replace(grid, oracle="cofactor")) == {"build", "det_cofactor"}
    # the random grid's matrices are not Hankel: it eliminates
    assert called(GridSpec(identity="desnanot-jacobi-random", count=3)) == {"det_bareiss"}


def test_symbolic_strips_with_blocked_rows_match_bareiss(monkeypatch):
    # D(., r+2) = 0 is the divisor at level r+4, so every strip row is
    # blocked and holds Bareiss's minors of its own matrix
    grid = GridSpec(identity="rank-zero", domain=ring.POLYNOMIAL, n=(0, 1), r=(0, 2), d=(1, 6))
    strips = []
    genuine = verify_module.det_hankel_strip
    monkeypatch.setattr(
        verify_module, "det_hankel_strip", lambda *args: strips.append(genuine(*args)) or strips[-1]
    )
    report = run_grid(grid)
    assert report.passed and report.checked == 24
    assert strips and all(strip.fallback_used > 0 for strip in strips)
    bareiss = run_grid(dataclasses.replace(grid, oracle="bareiss"))
    assert (report.checked, report.mismatches) == (bareiss.checked, bareiss.mismatches)


def _acceptance_grids():
    """The grids of acceptance criteria 01 to 06."""
    rat = ring.RATIONAL
    specs = [preset(name, rat) for name in ("lucas", "pell", "jacobsthal")]
    rng = Lcg64(4)
    for _ in range(20):
        a, b, c1 = (rng.next_int(-9, 9) for _ in range(3))
        specs.append(RecurrenceSpec(*(rational(v) for v in (a, b, c1, rng.next_int(-9, 9) or 1))))
    bilinear = dict(n=(-10, 10), i=(0, 8), j=(0, 8))
    return [
        GridSpec(identity="theorem1", n=(-8, 8), r=(0, 7)),
        GridSpec(identity="prodinger", n=(-8, 8), r=(0, 7)),
        GridSpec(identity="carlitz", n=(-6, 8), r=(0, 6)),
        *(GridSpec(identity="theorem2", spec=spec, domain=rat, n=(-5, 8), r=(0, 5)) for spec in specs),
        GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 3), r=(0, 4)),
        GridSpec(identity="vajda", **bilinear),
        *(GridSpec(identity="eq4", spec=preset(name, rat), domain=rat, **bilinear)
          for name in ("fibonacci", "lucas", "pell", "jacobsthal")),
        GridSpec(identity="eq4", domain=ring.POLYNOMIAL, n=(0, 4), i=(0, 8), j=(0, 8)),
    ]


def test_default_oracle_agrees_with_bareiss_on_the_acceptance_grids():
    # every grid compares the triangle with the elimination; a grid
    # without a determinant side takes no oracle and runs once
    checked = 0
    for grid in _acceptance_grids():
        if "oracle" in IDENTITY_TABLE[grid.identity].takes:
            default = run_grid(grid)
            bareiss = run_grid(dataclasses.replace(grid, oracle="bareiss"))
        else:
            default = bareiss = run_grid(grid)
        assert (default.checked, default.mismatches) == (bareiss.checked, bareiss.mismatches), grid
        assert default.passed, grid
        checked += default.checked
    assert checked == 612 + 136 + 105 + 23 * 294 + 60 + 5 * 1701 + 405


def test_sign_flipped_triangle_fails_theorem1(monkeypatch):
    # the mutant adds D(k+1, t-1)^2 instead of subtracting it: the shared
    # step, (a*b - c*d) / e, is handed -c in place of c
    from contextlib import contextmanager

    # n >= 1 keeps F_0 off the anti-diagonals, so no divisor is zero and
    # no row falls back to Bareiss
    grid = GridSpec(identity="theorem1", n=(1, 3), r=(0, 3))
    assert run_grid(grid).passed
    counted_steps = ring._counted_steps

    @contextmanager
    def sign_flipped(domain):
        with counted_steps(domain) as (step, zero, one):
            yield (lambda a, b, c, d, e: step(a, b, -c, d, e)), zero, one

    monkeypatch.setattr(ring, "_counted_steps", sign_flipped)
    report = run_grid(grid)
    assert not report.passed and report.checked == 30
    # d = 1 is h_0 itself; every larger d meets the mutated square
    assert {m.point["d"] for m in report.mismatches} == {2, 3, 4}
    assert len(report.mismatches) == 3 * (1 + 2 + 3)


def test_corrupted_strip_entry_fails_exactly_its_point(monkeypatch):
    # D(m, t) of the strip for r is the point (n_lo + m, r, t): corrupting
    # one entry catches an off-by-one in the row offset or the level
    n_lo = -3
    grid = GridSpec(identity="theorem1", n=(n_lo, 4), r=(0, 4))
    assert run_grid(grid).passed
    genuine = verify_module.det_hankel_strip
    # unblocked rows only: for r >= 2 the rows n = -3, -2 divide by a
    # minor that F_0 zeroes, so they are blocked and read Bareiss's minors
    for r, m, t in ((3, 5, 2), (1, 0, 2), (2, 7, 1), (4, 7, 5)):

        def corrupting(diagonal, d):
            report = genuine(diagonal, d)
            if d != r + 1:
                return report
            rows = list(report.rows)
            assert rows[m] is not None
            row = list(rows[m])
            row[t - 1] = ring.add(row[t - 1], ring.integer(1))
            rows[m] = tuple(row)
            return StripReport(
                tuple(rows), report.algorithm, report.mul_count, report.div_count, report.fallback_used
            )

        monkeypatch.setattr(verify_module, "det_hankel_strip", corrupting)
        report = run_grid(grid)
        assert report.checked == 8 * (1 + 2 + 3 + 4 + 5)
        assert [mismatch.point for mismatch in report.mismatches] == [{"n": n_lo + m, "r": r, "d": t}]


def test_carlitz_reads_one_power_strip_per_r(monkeypatch):
    grid = GridSpec(identity="carlitz", n=(-6, 8), r=(0, 6))  # acceptance 03
    calls = []

    def recording(name):
        genuine = getattr(verify_module, name)

        def record(*args):
            result = genuine(*args)
            calls.append((name, args[1] if name == "det_hankel_strip" else None, result))
            return result

        return record

    for name in ("det_hankel_strip", "det_bareiss", "det_cofactor", "build"):
        monkeypatch.setattr(verify_module, name, recording(name))
    report = run_grid(grid)
    assert report.passed and report.checked == 15 * 7
    # one plain-power table per r, to d = r+1, and no build; F_0 = 0 on
    # the anti-diagonals blocks some rows
    assert [(name, d) for name, d, _ in calls] == [("det_hankel_strip", r + 1) for r in range(7)]
    assert sum(strip.fallback_used for _, _, strip in calls) > 0
    assert (report.mul_count, report.div_count) == (2308, 667)
    for oracle, counts in (("bareiss", (6119, 1257)), ("cofactor", (114168, 0))):
        report = run_grid(dataclasses.replace(grid, oracle=oracle))
        assert report.passed and (report.mul_count, report.div_count) == counts, oracle


def test_cofactor_oracle():
    report = run_grid(GridSpec(identity="theorem1", n=(0, 1), r=(0, 2), oracle="cofactor"))
    assert report.passed and report.checked == 12


def test_shared_row_pass_agrees_with_per_point_cofactor():
    # bareiss reads every d of an (n, r) row off one elimination; cofactor
    # still evaluates each point on its own
    degenerate = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))
    grids = [
        GridSpec(identity="theorem1", n=(-3, 3), r=(0, 4)),
        GridSpec(identity="rank-zero", n=(-3, 3), r=(0, 4)),
        GridSpec(identity="theorem1", n=(0, 1), r=(1, 4), d=(2, 3)),
        GridSpec(identity="theorem2", spec=degenerate, domain=ring.RATIONAL, n=(0, 3), r=(0, 2)),
    ]
    for grid, checked in zip(grids, (105, 70, 14, 24)):
        shared = run_grid(grid)
        alone = run_grid(dataclasses.replace(grid, oracle="cofactor"))
        assert shared.checked == alone.checked == checked
        assert shared.mismatches == alone.mismatches == ()


def test_the_three_oracles_agree_point_by_point(monkeypatch):
    # a sentinel right side fails every point, so each report lists every
    # point with its oracle's left side
    for name in ("theorem1_rhs", "theorem2_rhs", "carlitz_rhs", "hankel_rank_bound_value"):
        monkeypatch.setattr(verify_module, name, lambda *args: "sentinel")
    strips = []
    genuine = verify_module.det_hankel_strip
    monkeypatch.setattr(
        verify_module, "det_hankel_strip", lambda *args: strips.append(genuine(*args)) or strips[-1]
    )
    degenerate = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))
    grids = [
        GridSpec(identity="theorem1", n=(0, 1), r=(1, 3), d=(3, 9)),  # r = 1 has an empty window
        GridSpec(identity="rank-zero", n=(0, 1), r=(0, 2), d=(1, 5)),  # clipped below at r+2
        GridSpec(identity="carlitz", n=(-3, 4), r=(0, 5)),
        GridSpec(identity="theorem2", spec=degenerate, domain=ring.RATIONAL, n=(0, 3), r=(0, 3)),
    ]
    for grid, checked in zip(grids, (6, 18, 48, 40)):
        strips.clear()
        reports = {oracle: run_grid(dataclasses.replace(grid, oracle=oracle)) for oracle in verify_module.ORACLES}
        lists = {oracle: [(m.point, m.lhs) for m in report.mismatches] for oracle, report in reports.items()}
        assert all(report.checked == len(lists[oracle]) == checked for oracle, report in reports.items()), grid
        assert lists["structured"] == lists["bareiss"] == lists["cofactor"], grid
        assert all(m.rhs == "sentinel" for m in reports["structured"].mismatches)
    # W_n = 1 from n = 1 on zeroes D(k, 2), which blocks every row of the
    # degenerate spec's r = 3 strip; those rows read Bareiss's minors
    assert [strip.fallback_used for strip in strips] == [0, 0, 0, 4]


def test_a_failed_elimination_marks_every_point_of_its_r(monkeypatch):
    # under bareiss each r reads one memo, every n's minors to the top of
    # r's window, so an error in one elimination reaches all of r's points
    grid = GridSpec(identity="theorem1", n=(0, 3), r=(0, 3), oracle="bareiss")
    clean = run_grid(grid)
    assert clean.passed
    failing = build(preset("fibonacci"), MatrixQuery(2, 2, 3, "rising"))
    genuine = verify_module.det_bareiss

    def injected(matrix):
        if matrix == failing:
            raise ring.InexactDivisionError("injected")
        return genuine(matrix)

    monkeypatch.setattr(verify_module, "det_bareiss", injected)
    report = run_grid(grid)
    assert report.checked == clean.checked == 4 * (1 + 2 + 3 + 4)
    assert [m.point for m in report.mismatches] == [{"n": n, "r": 2, "d": d} for n in range(4) for d in (1, 2, 3)]
    assert {m.lhs for m in report.mismatches} == {"error(InexactDivisionError: injected)"}


def test_random_minor_identity():
    report = run_random_dj(seed=2, count=25, dim=4, entry_bound=9)
    assert report.passed and report.checked == 25
    again = run_random_dj(seed=2, count=25, dim=4, entry_bound=9)
    assert (again.mul_count, again.div_count) == (report.mul_count, report.div_count)
    via_grid = run_grid(
        GridSpec(identity="desnanot-jacobi-random", seed=3, count=5, dim=3, bound=5)
    )
    assert via_grid.passed and via_grid.checked == 5
    assert json.loads(report_json(via_grid))["identity"] == "desnanot-jacobi-random"


def test_validation_errors(monkeypatch):
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem3", n=(0, 1), r=(0, 1)))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem1", n=(0, 1), r=(0, 1), oracle="laplace"))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem1", n=(0, 1)))  # missing r
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="vajda", n=(0, 1), i=(0, 1)))  # missing j
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="vajda", n=(0, 1), i=(0, 1), j=(0, 1), domain=ring.POLYNOMIAL))
    # Fibonacci-only identities run over the integers only
    rat = ring.RATIONAL
    for identity, axes in (("theorem1", {"r": (0, 1)}), ("carlitz", {"r": (0, 1)}), ("vajda", {"i": (0, 1), "j": (0, 1)})):
        for spec in (None, preset("fibonacci", rat)):
            with pytest.raises(ValueError, match="does not take"):
                run_grid(GridSpec(identity=identity, n=(0, 1), spec=spec, domain=rat, **axes))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem1", n=(0, 1), r=(0, 1), spec=preset("lucas")))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem2", n=(-1, 1), r=(0, 1), spec=preset("jacobsthal")))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem2", n=(-1, 1), r=(0, 1), domain=ring.POLYNOMIAL))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem2", n=(0, 1), r=(0, 1), spec=preset("lucas"), domain=ring.RATIONAL))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="theorem1", n=(2, 1), r=(0, 1)))  # empty range
    with pytest.raises(ValueError):
        run_random_dj(seed=1, count=5, dim=2, entry_bound=9)
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="desnanot-jacobi-random", dim=8))
    with pytest.raises(ValueError):
        run_grid(GridSpec(identity="desnanot-jacobi-random", count=0))
    # grids the sweep cannot honour are rejected before it starts: any call
    # into the sweep now fails the test
    for name in ("_points", "MatrixQuery", "build", "det_bareiss", "det_hankel_strip",
                 "theorem1_rhs", "theorem2_rhs", "prodinger_rhs", "carlitz_rhs", "hankel_rank_bound_value"):
        monkeypatch.setattr(verify_module, name, _swept)
    for identity in ("theorem1", "theorem2", "prodinger", "carlitz", "rank-zero"):
        with pytest.raises(ValueError, match="^power length r must be non-negative$"):
            run_grid(GridSpec(identity=identity, n=(0, 0), r=(-2, 1)))
    for identity, r, d in (
        ("theorem1", (2, 2), (5, 9)),
        ("theorem2", (0, 3), (-3, 0)),
        ("rank-zero", (2, 2), (1, 3)),
        ("rank-zero", (1, 3), (1, 2)),
    ):
        with pytest.raises(ValueError, match=f"^d range {d[0]}\\.\\.{d[1]} "):
            run_grid(GridSpec(identity=identity, n=(0, 0), r=r, d=d))
    for grid in (
        GridSpec(identity="theorem1", n=(2, 1), r=(0, 1)),
        GridSpec(identity="theorem1", n=(0, 1), r=(3, 2)),
        GridSpec(identity="vajda", n=(0, 1), i=(1, 0), j=(0, 1)),
        GridSpec(identity="theorem2", n=(0, 1), r=(0, 3), d=(4, 2)),
    ):
        with pytest.raises(ValueError, match="^empty range"):
            run_grid(grid)


def _swept(*args, **kwargs):
    raise AssertionError("the sweep started")


_SWEEP_ENTRIES = (
    "_points", "_random_points", "det_bareiss", "det_cofactor", "det_hankel_strip",
)


def test_grids_reject_fields_they_do_not_take(monkeypatch):
    for name in _SWEEP_ENTRIES:
        monkeypatch.setattr(verify_module, name, _swept)
    random = "desnanot-jacobi-random"
    cases = [
        (GridSpec(identity=random, n=(0, 5), domain=ring.POLYNOMIAL, count=3), "n, domain"),
        (GridSpec(identity=random, spec=preset("lucas"), count=3), "spec"),
        (GridSpec(identity=random, spec=preset("fibonacci"), r=(0, 1)), "r, spec"),
        (GridSpec(identity="theorem1", n=(0, 0), r=(0, 1), dim=9, count=0), "count, dim"),
        (GridSpec(identity="carlitz", n=(0, 0), r=(1, 1), d=(7, 7)), "d"),
        (GridSpec(identity="eq4", n=(0, 0), i=(0, 1), j=(0, 1), r=(0, 1), seed=5), "r, seed"),
        (GridSpec(identity="rank-zero", n=(0, 0), r=(0, 1), i=(0, 0), bound=3), "i, bound"),
    ]
    for grid, ignored in cases:
        with pytest.raises(ValueError) as rejected:
            run_grid(grid)
        assert str(rejected.value) == f"identity {grid.identity} does not take {ignored}"
    # a field spelled out at its default is no change: these reach the sweep
    for grid in (
        GridSpec(identity=random, domain=ring.INTEGER, seed=1, count=100, dim=4, bound=9, oracle="bareiss"),
        GridSpec(identity="theorem1", n=(0, 0), r=(0, 1), seed=1, count=100, dim=4, bound=9),
    ):
        with pytest.raises(AssertionError, match="the sweep started"):
            run_grid(grid)


def test_cofactor_grids_over_the_limit_are_rejected_up_front(monkeypatch):
    for name in _SWEEP_ENTRIES:
        monkeypatch.setattr(verify_module, name, _swept)
    too_large = [
        GridSpec(identity="theorem1", n=(0, 0), r=(10, 10)),  # d 1..11
        GridSpec(identity="theorem2", n=(0, 0), r=(0, 12), d=(1, 11)),
        GridSpec(identity="rank-zero", n=(0, 0), r=(8, 8)),  # d 10..11
        GridSpec(identity="rank-zero", n=(0, 0), r=(0, 1), d=(1, 11)),
        GridSpec(identity="carlitz", n=(0, 0), r=(10, 10)),  # d = 11
    ]
    for grid in too_large:
        with pytest.raises(ValueError, match="^cofactor expansion is limited to dimension 10$"):
            run_grid(dataclasses.replace(grid, oracle="cofactor"))
    # the largest matrix at the limit is no error, and the bareiss oracle
    # has no limit: these reach the sweep
    at_limit = [
        GridSpec(identity="theorem1", n=(0, 0), r=(9, 9), oracle="cofactor"),
        GridSpec(identity="theorem2", n=(0, 0), r=(0, 12), d=(1, 10), oracle="cofactor"),
        GridSpec(identity="rank-zero", n=(0, 0), r=(7, 7), oracle="cofactor"),
        GridSpec(identity="carlitz", n=(0, 0), r=(9, 9), oracle="cofactor"),
        *too_large,
    ]
    for grid in at_limit:
        with pytest.raises(AssertionError, match="the sweep started"):
            run_grid(grid)
    # prodinger has no determinant side, so no oracle to limit
    with pytest.raises(ValueError, match="^identity prodinger does not take oracle$"):
        run_grid(GridSpec(identity="prodinger", n=(0, 0), r=(30, 30), oracle="cofactor"))


def test_verify_report_passed_property():
    report = VerifyReport(
        grid=GridSpec(identity="theorem1", n=(0, 0), r=(0, 0)),
        checked=1,
        mismatches=(Mismatch({"n": 0, "r": 0, "d": 1}, "1", "2"),),
        elapsed_ms=0,
        mul_count=0,
        div_count=0,
    )
    assert not report.passed
    assert json.loads(report_json(report))["pass"] is False


@pytest.mark.parametrize("oracle", ["bareiss", "cofactor"])
def test_random_minor_grid_is_run_grids_sweep(oracle):
    direct = run_random_dj(seed=2, count=40, dim=5, entry_bound=9, oracle=oracle)
    grid = GridSpec(identity="desnanot-jacobi-random", seed=2, count=40, dim=5, bound=9, oracle=oracle)
    swept = run_grid(grid)
    assert direct.passed and direct.checked == swept.checked == 40
    assert direct.mismatches == swept.mismatches
    assert (direct.mul_count, direct.div_count) == (swept.mul_count, swept.div_count)
    # pinned exact counts of this stream
    assert (direct.mul_count, direct.div_count) == {"bareiss": (6518, 1326), "cofactor": (11792, 0)}[oracle]
    assert direct.grid == swept.grid == grid


@pytest.mark.parametrize("oracle", ["bareiss", "cofactor"])
def test_wrong_oracle_fails_the_random_minor_grid(oracle, monkeypatch):
    # off by one, not a sign flip: the corner-minor identity still holds
    # when every determinant is negated
    name = f"det_{oracle}"
    genuine = getattr(verify_module, name)

    def off_by_one(matrix):
        report = genuine(matrix)
        return dataclasses.replace(report, value=ring.add(report.value, ring.integer(1)))

    monkeypatch.setattr(verify_module, name, off_by_one)
    report = run_grid(GridSpec(identity="desnanot-jacobi-random", seed=2, count=25, dim=4, oracle=oracle))
    assert not report.passed and report.checked == 25
    assert report.mismatches[0].point == {"case": 0}
    assert not run_random_dj(seed=2, count=25, dim=4, entry_bound=9, oracle=oracle).passed


def test_random_minor_grid_checks_its_own_inputs():
    bad = [
        (dict(oracle="condensation"), "unknown oracle 'condensation'"),
        (dict(dim=2), "random minor grids need 3 <= dim <= 7"),
        (dict(dim=8), "random minor grids need 3 <= dim <= 7"),
        (dict(count=0), "count and bound must be positive"),
        (dict(entry_bound=-2), "count and bound must be positive"),
        (
            dict(oracle="structured"),
            "oracle structured needs Hankel matrices; desnanot-jacobi-random draws general ones",
        ),
    ]
    for change, message in bad:
        args = {**dict(seed=1, count=3, dim=4, entry_bound=9, oracle="bareiss"), **change}
        with pytest.raises(ValueError) as direct:
            run_random_dj(**args)
        assert str(direct.value) == message
        grid = GridSpec(
            identity="desnanot-jacobi-random", seed=1, count=args["count"], dim=args["dim"],
            bound=args["entry_bound"], oracle=args["oracle"],
        )
        with pytest.raises(ValueError) as via_grid:
            run_grid(grid)
        assert str(via_grid.value) == message
    assert run_random_dj(seed=1, count=3, dim=4, entry_bound=9, oracle="cofactor").passed


_DEGENERATE = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))


def _alone(thunk):
    """One side evaluated by itself, outside any grid."""
    try:
        return thunk()
    except (ring.NotInvertibleError, ring.InexactDivisionError, ZeroDivisionError) as exc:
        return f"error({type(exc).__name__}: {exc})"


def _det(spec, n, r, d, mode="rising"):
    return det_bareiss(build(spec, MatrixQuery(n, r, d, mode))).value


def _inclusive(bounds):
    return range(bounds[0], bounds[1] + 1)


def _points_alone(grid, spec):
    """(point, lhs, rhs) of every grid point, each from the public functions."""
    identity = grid.identity
    for n in _inclusive(grid.n):
        if identity in ("vajda", "eq4"):
            for i in _inclusive(grid.i):
                for j in _inclusive(grid.j):
                    if identity == "vajda":
                        sides = (lambda: vajda_lhs(n, i, j), lambda: vajda_rhs(n, i, j))
                    else:
                        sides = (
                            lambda: generalized_vajda_lhs(spec, n, i, j),
                            lambda: generalized_vajda_rhs(spec, n, i, j),
                        )
                    yield {"n": n, "i": i, "j": j}, sides
            continue
        for r in _inclusive(grid.r):
            if identity == "prodinger":
                yield {"n": n, "r": r}, (lambda: theorem1_rhs(n, r, r + 1), lambda: prodinger_rhs(n, r))
                continue
            if identity == "carlitz":
                yield {"n": n, "r": r}, (lambda: _det(spec, n, r, r + 1, POWER), lambda: carlitz_rhs(n, r))
                continue
            window = range(r + 2, r + 4) if identity == "rank-zero" else range(1, r + 2)
            for d in window:
                rhs = {
                    "theorem1": lambda: theorem1_rhs(n, r, d),
                    "theorem2": lambda: theorem2_rhs(spec, n, r, d),
                    "rank-zero": lambda: hankel_rank_bound_value(spec, n, r, d),
                }[identity]
                yield {"n": n, "r": r, "d": d}, (lambda: _det(spec, n, r, d), rhs)


def test_shared_caches_match_points_evaluated_alone():
    rat = ring.RATIONAL
    grids = [
        GridSpec(identity="theorem1", n=(-3, 3), r=(0, 4)),
        GridSpec(identity="theorem2", spec=preset("lucas", rat), domain=rat, n=(-3, 3), r=(0, 3)),
        GridSpec(identity="theorem2", spec=_DEGENERATE, domain=rat, n=(0, 3), r=(0, 2)),
        GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 1), r=(0, 2)),
        GridSpec(identity="rank-zero", spec=preset("pell"), n=(0, 2), r=(0, 3)),
        GridSpec(identity="prodinger", n=(-2, 3), r=(0, 4)),
        GridSpec(identity="carlitz", n=(-2, 2), r=(0, 3)),
        GridSpec(identity="vajda", n=(-4, 4), i=(0, 3), j=(0, 3)),
        GridSpec(identity="eq4", spec=preset("jacobsthal", rat), domain=rat, n=(-3, 3), i=(0, 3), j=(0, 3)),
        GridSpec(identity="eq4", spec=_DEGENERATE, domain=rat, n=(0, 3), i=(0, 2), j=(0, 2)),
        GridSpec(identity="eq4", domain=ring.POLYNOMIAL, n=(0, 2), i=(0, 2), j=(0, 2)),
    ]
    for grid in grids:
        spec = grid.spec or (symbolic_spec() if grid.domain == ring.POLYNOMIAL else preset("fibonacci"))
        checked = 0
        expected = []
        for point, (lhs_fn, rhs_fn) in _points_alone(grid, spec):
            checked += 1
            lhs, rhs = _alone(lhs_fn), _alone(rhs_fn)
            if lhs != rhs or isinstance(lhs, str) or isinstance(rhs, str):
                expected.append(Mismatch(point, str(lhs), str(rhs)))
        report = run_grid(grid)
        assert report.checked == checked, grid
        assert list(report.mismatches) == expected == [], grid
    # c2 = 0 has no inverse: negative n on the degenerate spec never reaches
    # a cache
    for grid in (grids[2], grids[-2]):
        with pytest.raises(ValueError, match="^negative n needs c2"):
            run_grid(dataclasses.replace(grid, n=(-2, 1)))


def test_nothing_is_carried_across_grids():
    rat = ring.RATIONAL
    first = GridSpec(identity="eq4", spec=preset("pell", rat), domain=rat, n=(-3, 3), i=(0, 4), j=(0, 4))
    between = GridSpec(identity="theorem2", spec=preset("pell", rat), domain=rat, n=(-3, 3), r=(0, 3))
    before = run_grid(first)
    run_grid(between)
    after = run_grid(first)
    # each term, companion term, delta, c2 power, delta * c2^n and U_i * U_j
    # once per grid; pell is seeded (0, 1), so its companion terms are its
    # terms (849 muls when every point made its own caches); pell's c2 = 1
    # inverts for free
    assert (before.mul_count, before.div_count) == (185, 0)
    assert (before.mul_count, before.div_count) == (after.mul_count, after.div_count)
    assert before.mismatches == after.mismatches and before.checked == after.checked


def test_grids_in_threads_keep_their_own_caches():
    # each thread has its own scope: a cache shared across threads would let
    # one grid read terms another computed and report fewer multiplications
    rat = ring.RATIONAL
    grid = GridSpec(identity="eq4", spec=preset("lucas", rat), domain=rat, n=(-4, 4), i=(0, 4), j=(0, 4))
    alone = run_grid(grid)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: results.append(run_grid(grid))) for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(results) == 6
    for report in results:
        assert (report.checked, report.mismatches) == (alone.checked, alone.mismatches)
        assert (report.mul_count, report.div_count) == (alone.mul_count, alone.div_count)
