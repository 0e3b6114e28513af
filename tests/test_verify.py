import dataclasses
import json

import pytest

from hankelrise import ring
from hankelrise.ring import neg, rational
from hankelrise.sequence import RecurrenceSpec, preset
from hankelrise.verify import (
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
    # one build and one elimination per (n, r) row
    assert (report.mul_count, report.div_count) == (25, 1)


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


def test_theorem2_grids():
    spec = preset("lucas", ring.RATIONAL)
    report = run_grid(GridSpec(identity="theorem2", spec=spec, domain=ring.RATIONAL, n=(-3, 2), r=(0, 2)))
    assert report.passed and report.checked == 36  # 6 d-window points per n
    report = run_grid(GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 1), r=(0, 2)))
    assert report.passed and report.checked == 12


def test_theorem2_int_negative_base_reports_honest_errors():
    # the closed form needs an inverse of c2 there; the engine must not hide that
    report = run_grid(GridSpec(identity="theorem2", spec=preset("lucas"), n=(-2, -2), r=(1, 1)))
    assert not report.passed
    assert any("NotInvertibleError" in m.rhs for m in report.mismatches)


def test_degenerate_spec_errors_are_reported_structurally():
    spec = RecurrenceSpec(rational(0), rational(1), rational(1), rational(0))
    report = run_grid(GridSpec(identity="theorem2", spec=spec, domain=ring.RATIONAL, n=(-1, -1), r=(1, 1)))
    assert report.checked == 2
    # both sides fail at d = 1 with the same message; that is still no PASS
    assert len(report.mismatches) == 2
    same, different = report.mismatches
    assert same.point == {"n": -1, "r": 1, "d": 1}
    assert same.lhs == same.rhs == "error(ZeroDivisionError: exact division by zero)"
    assert different.lhs.startswith("error(ZeroDivisionError")
    assert different.rhs.startswith("error(ZeroDivisionError")
    assert different.lhs != different.rhs


def test_rank_zero_windows():
    report = run_grid(GridSpec(identity="rank-zero", n=(0, 2), r=(0, 2)))
    assert report.passed and report.checked == 18  # default window r+2..r+3
    clipped = run_grid(GridSpec(identity="rank-zero", n=(0, 0), r=(1, 1), d=(1, 4)))
    assert clipped.passed and clipped.checked == 2  # clipped up to r+2..4


def test_square_window_clipping():
    report = run_grid(GridSpec(identity="theorem1", n=(0, 0), r=(2, 2), d=(2, 99)))
    assert report.passed and report.checked == 2  # d clipped to 2..r+1


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
        GridSpec(identity="theorem2", spec=degenerate, domain=ring.RATIONAL, n=(-2, 1), r=(0, 2)),
    ]
    for grid in grids:
        shared = run_grid(grid)
        alone = run_grid(dataclasses.replace(grid, oracle="cofactor"))
        assert shared.checked == alone.checked
        assert shared.mismatches == alone.mismatches
        assert shared.passed == (grid.spec is None)


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


def test_validation_errors():
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
