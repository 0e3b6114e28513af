import dataclasses
import json
import sys
import threading

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
from hankelrise.matgen import POWER, MatrixQuery, build
from hankelrise.ring import neg, rational
from hankelrise.sequence import RecurrenceSpec, preset, symbolic_spec
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


def test_random_minor_grid_checks_its_own_inputs():
    bad = [
        (dict(oracle="condensation"), "unknown oracle 'condensation'"),
        (dict(dim=2), "random minor grids need 3 <= dim <= 7"),
        (dict(dim=8), "random minor grids need 3 <= dim <= 7"),
        (dict(count=0), "count and bound must be positive"),
        (dict(entry_bound=-2), "count and bound must be positive"),
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
        GridSpec(identity="theorem2", spec=_DEGENERATE, domain=rat, n=(-2, 1), r=(0, 2)),
        GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 1), r=(0, 2)),
        GridSpec(identity="rank-zero", spec=preset("pell"), n=(0, 2), r=(0, 3)),
        GridSpec(identity="prodinger", n=(-2, 3), r=(0, 4)),
        GridSpec(identity="carlitz", n=(-2, 2), r=(0, 3)),
        GridSpec(identity="vajda", n=(-4, 4), i=(0, 3), j=(0, 3)),
        GridSpec(identity="eq4", spec=preset("jacobsthal", rat), domain=rat, n=(-3, 3), i=(0, 3), j=(0, 3)),
        GridSpec(identity="eq4", spec=_DEGENERATE, domain=rat, n=(-2, 1), i=(0, 2), j=(0, 2)),
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
        assert list(report.mismatches) == expected, grid
        assert report.passed == (grid.spec is not _DEGENERATE), grid
    # the degenerate spec's failures are there, with their own messages
    failed = run_grid(grids[-2]).mismatches
    assert {m.point["n"] for m in failed} == {-2, -1}
    assert all(m.lhs.startswith("error(ZeroDivisionError") for m in failed)


def test_nothing_is_carried_across_grids():
    rat = ring.RATIONAL
    first = GridSpec(identity="eq4", spec=preset("pell", rat), domain=rat, n=(-3, 3), i=(0, 4), j=(0, 4))
    between = GridSpec(identity="theorem2", spec=preset("pell", rat), domain=rat, n=(-3, 3), r=(0, 3))
    before = run_grid(first)
    run_grid(between)
    after = run_grid(first)
    # each term, companion term and delta once per grid (1,009 muls when
    # every point made its own caches)
    assert (before.mul_count, before.div_count) == (401, 75)
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
