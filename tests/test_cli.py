import dataclasses
import json
import os
import subprocess
import sys

import pytest

import hankelrise
import hankelrise.cli as cli_module
import hankelrise.ring as ring_module
import hankelrise.verify as verify_module
from hankelrise.cli import (
    _any_int_digits,
    _build_parser,
    _merge_range_values,
    _parse_range,
    bench_rows,
    main,
    write_bench_csv,
)
from hankelrise.closedform import prodinger_rhs
from hankelrise.matgen import MODES
from hankelrise.sequence import preset
from hankelrise.verify import IDENTITY_TABLE, GridSpec, Mismatch, VerifyReport, run_grid

BENCH_HEADER = "algorithm,domain,n,r,d,mul_count,div_count,fallback,wall_ns"


# a child interpreter imports the same hankelrise as this one, whether or
# not PYTHONPATH names the source tree
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hankelrise.__file__)))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_terms(capsys):
    code, out, _ = run_cli(capsys, "seq", "--from", "0", "--to", "5")
    assert code == 0
    assert out == "0\t0\n1\t1\n2\t1\n3\t2\n4\t3\n5\t5\n"


def test_seq_preset_and_rising(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "lucas", "--from", "0", "--to", "4")
    assert code == 0
    assert [line.split("\t")[1] for line in out.splitlines()] == ["2", "1", "3", "4", "7"]
    code, out, _ = run_cli(capsys, "seq", "--rising", "2", "--from", "1", "--to", "3")
    assert code == 0
    assert out == "1\t1\n2\t2\n3\t6\n"


def test_seq_negative_rational(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--preset", "jacobsthal", "--domain", "rat", "--from=-3", "--to", "0"
    )
    assert code == 0
    assert [line.split("\t")[1] for line in out.splitlines()] == ["3/8", "-1/4", "1/2", "0"]


def test_seq_symbolic(capsys):
    code, out, _ = run_cli(capsys, "seq", "--domain", "poly", "--from", "0", "--to", "2")
    assert code == 0
    assert out.splitlines() == ["0\ta", "1\tb", "2\tc1*b + c2*a"]


def test_seq_backwards_range_is_an_error(capsys):
    code, _, err = run_cli(capsys, "seq", "--from", "2", "--to", "1")
    assert code == 2
    assert err.startswith("error:")


def _negative_index_error(axis, domain="int", c2="2"):
    return (
        f"error: negative {axis} needs c2 = +-1, or a nonzero c2 in the rational domain;"
        f" this {domain} spec has c2 = {c2}\n"
    )


@pytest.fixture
def no_arithmetic(monkeypatch):
    """Fail the test if any scalar multiply or exact division runs."""
    monkeypatch.setattr(ring_module, "mul", _swept)
    monkeypatch.setattr(ring_module, "exact_div", _swept)


def test_seq_negative_index_needs_an_invertible_c2(no_arithmetic, capsys):
    code, out, err = run_cli(capsys, "seq", "--preset", "jacobsthal", "--from", "-2", "--to", "1")
    assert (code, out, err) == (2, "", _negative_index_error("k"))


def test_det_negative_n_needs_an_invertible_c2(no_arithmetic, capsys):
    code, out, err = run_cli(capsys, "det", "--preset", "jacobsthal", "--n=-1", "--r", "1", "--d", "2")
    assert (code, out, err) == (2, "", _negative_index_error("n"))


def test_det_value_and_stats(capsys):
    code, out, _ = run_cli(capsys, "det", "--n", "0", "--r", "1", "--d", "2", "--stats")
    assert code == 0
    value, stats = out.splitlines()
    assert value == "-1"
    payload = json.loads(stats)
    assert payload["value"] == "-1"
    assert payload["algorithm"] == "bareiss"
    assert payload["fallback"] is False
    assert set(payload) == {"value", "algorithm", "mul_count", "div_count", "fallback"}


def test_det_power_mode(capsys):
    code, out, _ = run_cli(capsys, "det", "--n", "0", "--r", "2", "--d", "3", "--mode", "power")
    assert code == 0
    assert out.strip() == "-2"


def test_det_symbolic(capsys):
    code, out, _ = run_cli(capsys, "det", "--domain", "poly", "--n", "0", "--r", "1", "--d", "2")
    assert code == 0
    assert out.strip() == "-b^2 + c1*a*b + c2*a^2"
    # c2^40000 is past the polynomial degree cap
    code, _, err = run_cli(
        capsys, "closed", "--identity", "theorem2", "--domain", "poly",
        "--n", "40000", "--r", "1", "--d", "2",
    )
    assert code == 2
    assert err.startswith("error: product degree exceeds")


def test_det_condensation_fallback(capsys):
    code, out, _ = run_cli(
        capsys, "det", "--n=-2", "--r", "1", "--d", "3", "--algorithm", "condensation", "--stats"
    )
    assert code == 0
    value, stats = out.splitlines()
    assert value == "0"
    payload = json.loads(stats)
    assert payload["fallback"] is True
    assert payload["algorithm"] == "condensation-fallback"


def test_det_structured(capsys):
    # the same value and --stats keys as bareiss, with the triangle's counts:
    # the rising powers F_k..F_{k+2} share the content 2, so the table runs
    # on the anti-diagonal over 2, and the counts include one div per
    # nonzero value scaled and one mul per entry with t >= 2 read back
    structured = ("--algorithm", "structured", "--stats")
    code, out, _ = run_cli(capsys, "det", "--n", "0", "--r", "3", "--d", "4", *structured)
    assert code == 0
    value, stats = out.splitlines()
    assert value == "16"
    assert json.loads(stats) == {
        "value": "16", "algorithm": "structured", "mul_count": 17, "div_count": 10, "fallback": False,
    }
    # F_0 = 0 is the divisor of the 3 x 3 level
    code, out, _ = run_cli(capsys, "det", "--n=-2", "--r", "1", "--d", "3", *structured)
    assert code == 0
    value, stats = out.splitlines()
    assert value == "0"
    assert json.loads(stats)["algorithm"] == "structured-fallback" and json.loads(stats)["fallback"] is True


def test_det_custom_spec(capsys):
    code, out, _ = run_cli(
        capsys, "det", "--a", "1", "--b", "1", "--c1", "1", "--c2", "1", "--n", "0", "--r", "1", "--d", "2"
    )
    assert code == 0
    assert out.strip() == "1"


def test_closed_values(capsys):
    cases = [
        (("closed", "--identity", "theorem1", "--n", "0", "--r", "1", "--d", "2"), "-1"),
        (("closed", "--identity", "prodinger", "--n", "0", "--r", "2"), "1"),
        (("closed", "--identity", "carlitz", "--n", "0", "--r", "2"), "-2"),
        (("closed", "--identity", "vajda", "--n", "0", "--i", "1", "--j", "1"), "-1"),
        (("closed", "--identity", "eq4", "--preset", "lucas", "--n", "1", "--i", "1", "--j", "1"), "-5"),
        (("closed", "--identity", "theorem2", "--preset", "pell", "--n", "1", "--r", "1", "--d", "2"), "1"),
        (("closed", "--identity", "rank-zero", "--n", "0", "--r", "1", "--d", "3"), "0"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip() == expected


def test_closed_prints_exact_values_past_the_int_digit_limit(capsys):
    # d = r+1 = 61 is prodinger's square case, a value of over 4,300 digits,
    # where CPython's default int-to-str limit refuses it
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run_cli(capsys, "closed", "--identity", "theorem1", "--n", "0", "--r", "60", "--d", "61")
    assert (code, err) == (0, "")
    # the limit is lifted only while the command runs
    assert get_limit() == limit
    with _any_int_digits():
        expected = str(prodinger_rhs(0, 60))
    assert len(expected) > 4300 and out == f"{expected}\n"


# one point per closed-form identity, and the preset it runs on (None: the
# default Fibonacci spec)
_CLOSED_POINTS = {
    "theorem1": (None, {"n": 1, "r": 3, "d": 2}),
    "theorem2": ("pell", {"n": 1, "r": 2, "d": 3}),
    "prodinger": (None, {"n": 1, "r": 2}),
    "carlitz": (None, {"n": 1, "r": 2}),
    "vajda": (None, {"n": -1, "i": 1, "j": 2}),
    "eq4": ("lucas", {"n": 2, "i": 1, "j": 2}),
    "rank-zero": ("pell", {"n": 1, "r": 1, "d": 3}),
}


@pytest.mark.parametrize("identity", list(IDENTITY_TABLE))
def test_closed_prints_the_rhs_run_grid_compares(identity, monkeypatch, capsys):
    name, point = _CLOSED_POINTS[identity]
    row = IDENTITY_TABLE[identity]
    seen = []

    def rhs(*args):
        seen.append(row.rhs(*args))
        return seen[-1]

    monkeypatch.setitem(IDENTITY_TABLE, identity, row._replace(rhs=rhs))
    grid = GridSpec(
        identity=identity,
        spec=preset(name) if name else None,
        **{axis: (value, value) for axis, value in point.items()},
    )
    report = run_grid(grid)
    assert report.passed and report.checked == 1 and len(seen) == 1
    flags = ("--preset", name) if name else ()
    code, out, _ = run_cli(
        capsys, "closed", "--identity", identity, *flags, *(f"--{axis}={value}" for axis, value in point.items())
    )
    assert code == 0 and len(seen) == 2
    assert out == f"{seen[0]}\n"


def test_closed_missing_flags(capsys):
    code, _, err = run_cli(capsys, "closed", "--identity", "theorem1", "--n", "0")
    assert code == 2
    assert "--r" in err and "--d" in err


def test_closed_negative_index_needs_an_invertible_c2(no_arithmetic, capsys):
    for argv, axis, domain, c2 in (
        ("--preset jacobsthal --n 0 --i=-1 --j 0", "i", "int", "2"),
        ("--domain poly --n 0 --i=-1 --j 0", "i", "poly", "c2"),
        ("--preset jacobsthal --n 0 --i 0 --j=-2", "j", "int", "2"),
        ("--preset jacobsthal --n=-1 --i 0 --j 0", "n", "int", "2"),
    ):
        code, out, err = run_cli(capsys, "closed", "--identity", "eq4", *argv.split())
        assert (code, out, err) == (2, "", _negative_index_error(axis, domain, c2)), argv


def test_verify_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "theorem1", "--n", "0..1", "--r", "0..1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checked"] == 6
    assert payload["mismatches"] == []


def test_verify_negative_range_merging(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "vajda", "--n", "-2..2", "--i", "0..2", "--j", "0..2"
    )
    assert code == 0
    assert json.loads(out)["checked"] == 45


def test_verify_symbolic(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "theorem2", "--domain", "poly", "--n", "0..1", "--r", "0..1"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_random_minors(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "desnanot-jacobi-random", "--seed", "2", "--count", "5", "--dim", "3",
    )
    assert code == 0
    assert json.loads(out)["checked"] == 5


def test_verify_random_minors_rejects_bad_inputs(capsys):
    cases = [
        (("--dim", "8"), "error: random minor grids need 3 <= dim <= 7\n"),
        (("--count", "0"), "error: count and bound must be positive\n"),
        (("--bound", "-2"), "error: count and bound must be positive\n"),
    ]
    for flags, message in cases:
        code, out, err = run_cli(capsys, "verify", "--identity", "desnanot-jacobi-random", *flags)
        assert (code, out, err) == (2, "", message)


def test_verify_rejects_grids_it_cannot_sweep(capsys):
    cases = [
        (("--r", "2", "--d", "5..9"), "error: d range 5..9 is outside the window 1..r+1 of every r in 2..2\n"),
        (("--r=-2..1",), "error: power length r must be non-negative\n"),
    ]
    for flags, message in cases:
        code, out, err = run_cli(capsys, "verify", "--identity", "theorem1", "--n", "0", *flags)
        assert (code, out, err) == (2, "", message)


def test_verify_rejects_input_it_would_ignore_or_cannot_honour(monkeypatch, capsys):
    for name in (
        "_points", "_random_points", "det_bareiss", "det_cofactor", "det_hankel_strip",
    ):
        monkeypatch.setattr(verify_module, name, _swept)
    cases = [
        ("--identity desnanot-jacobi-random --oracle structured",
         "oracle structured needs Hankel matrices; desnanot-jacobi-random draws general ones"),
        ("--identity desnanot-jacobi-random --domain poly --n 0..5 --count 3",
         "identity desnanot-jacobi-random does not take n, domain"),
        ("--identity theorem1 --n 0 --r 0..1 --dim 9 --count 0", "identity theorem1 does not take count, dim"),
        ("--identity desnanot-jacobi-random --preset lucas --count 3",
         "identity desnanot-jacobi-random does not take spec"),
        ("--identity carlitz --n 0 --r 1 --d 7", "identity carlitz does not take d"),
        ("--identity theorem2 --domain rat --a 0 --b 1 --c1 1 --c2 0 --n=-1..0 --r 0..1",
         "negative n needs c2 = +-1, or a nonzero c2 in the rational domain; this rat spec has c2 = 0"),
        ("--identity eq4 --preset jacobsthal --n 0 --i=-1 --j 0",
         "negative i needs c2 = +-1, or a nonzero c2 in the rational domain; this int spec has c2 = 2"),
        ("--identity theorem1 --n 0 --r 10 --oracle cofactor", "cofactor expansion is limited to dimension 10"),
        ("--identity rank-zero --n 0 --r 8 --oracle cofactor", "cofactor expansion is limited to dimension 10"),
        ("--identity carlitz --n 0 --r 10 --oracle cofactor", "cofactor expansion is limited to dimension 10"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, "verify", *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def _swept(*args, **kwargs):
    raise AssertionError("the sweep started")


def test_verify_grid_flags_leave_the_defaults_to_gridspec():
    args = vars(_build_parser().parse_args(["verify", "--identity", "theorem1"]))
    shared = {"command", "handler", "identity", "preset", "a", "b", "c1", "c2", "domain"}
    grid_flags = {name: value for name, value in args.items() if name not in shared}
    assert set(grid_flags) == {field.name for field in dataclasses.fields(GridSpec)} - {"identity", "spec", "domain"}
    assert set(grid_flags.values()) == {None}


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerifyReport(
        grid=GridSpec(identity="theorem1", n=(0, 0), r=(0, 0)),
        checked=1,
        mismatches=(Mismatch({"n": 0, "r": 0, "d": 1}, "1", "2"),),
        elapsed_ms=0,
        mul_count=0,
        div_count=0,
    )
    monkeypatch.setattr("hankelrise.cli.run_grid", lambda grid: failing)
    code, out, _ = run_cli(capsys, "verify", "--identity", "theorem1", "--n", "0", "--r", "0")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_rejects_spec_flags_on_fibonacci_identities(capsys):
    for flags in (("--preset", "lucas"), ("--a", "2", "--b", "1", "--c1", "1", "--c2", "1")):
        code, out, err = run_cli(
            capsys, "verify", "--identity", "theorem1", *flags, "--n", "0..1", "--r", "0..1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "does not take" in err
    # and they run over the integers only, with or without spec flags
    for argv in (
        ("--identity", "theorem1", "--n", "0..1", "--r", "0..1"),
        ("--identity", "carlitz", "--preset", "fibonacci", "--n", "0", "--r", "1"),
        ("--identity", "vajda", "--n", "0", "--i", "1", "--j", "1"),
    ):
        for domain in ("rat", "poly"):
            code, out, err = run_cli(capsys, "verify", *argv, "--domain", domain)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "does not take" in err
    # even the Fibonacci preset itself is a spec they do not take
    code, out, err = run_cli(capsys, "verify", "--identity", "carlitz", "--preset", "fibonacci", "--n", "0", "--r", "1")
    assert (code, out, err) == (2, "", "error: identity carlitz does not take spec\n")


def test_closed_rejects_spec_flags_on_fibonacci_identities(capsys):
    cases = [
        ("--identity", "vajda", "--preset", "pell", "--n", "0", "--i", "1", "--j", "1"),
        ("--identity", "theorem1", "--preset", "lucas", "--n", "0", "--r", "1", "--d", "2"),
        ("--identity", "prodinger", "--a", "0", "--b", "1", "--c1", "2", "--c2", "1", "--n", "0", "--r", "2"),
        ("--identity", "carlitz", "--domain", "rat", "--preset", "jacobsthal", "--n", "0", "--r", "2"),
        ("--identity", "theorem1", "--domain", "rat", "--n", "0", "--r", "1", "--d", "2"),
        ("--identity", "carlitz", "--domain", "rat", "--n", "0", "--r", "2"),
        ("--identity", "vajda", "--domain", "rat", "--n", "0", "--i", "1", "--j", "1"),
        ("--identity", "prodinger", "--domain", "poly", "--n", "0", "--r", "2"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, "closed", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "does not take" in err
    code, out, err = run_cli(
        capsys, "closed", "--identity", "vajda", "--preset", "fibonacci", "--n", "0", "--i", "1", "--j", "1"
    )
    assert (code, out, err) == (2, "", "error: identity vajda does not take --preset\n")


def test_spec_flags_under_the_symbolic_domain_are_rejected(capsys):
    commands = [
        ("seq", "--from", "0", "--to", "2"),
        ("det", "--n", "0", "--r", "1", "--d", "2"),
        ("closed", "--identity", "theorem2", "--n", "0", "--r", "1", "--d", "2"),
        ("verify", "--identity", "theorem2", "--n", "0", "--r", "0..1"),
        ("bench", "--r", "1", "--d", "1..2"),
    ]
    for argv in commands:
        for flags, named in (
            (("--preset", "lucas"), "--preset"),
            (("--a", "1", "--b", "2", "--c1", "3", "--c2", "4"), "--a, --b, --c1, --c2"),
        ):
            code, out, err = run_cli(capsys, *argv, "--domain", "poly", *flags)
            assert (code, out) == (2, ""), argv
            assert err == f"error: --domain poly is the symbolic spec; it does not take {named}\n"


# a point range inside every row's d window, rank-zero's too
_POINT_RANGES = {"r": (0, 1), "d": (1, 3), "i": (0, 1), "j": (0, 1)}
# a value off the GridSpec default for each field, and the closed flags
# that set it; closed has no --oracle, so that field goes through verify
_OFF_DEFAULT = {
    **{name: (bounds, (f"--{name}", "1")) for name, bounds in _POINT_RANGES.items()},
    "spec": (preset("lucas"), ("--preset", "lucas")),
    "domain": (ring_module.RATIONAL, ("--domain", "rat")),
    "oracle": ("bareiss", None),
}


@pytest.mark.parametrize("field", list(_OFF_DEFAULT))
@pytest.mark.parametrize("identity", list(IDENTITY_TABLE))
def test_one_declaration_drives_both_gates(identity, field, monkeypatch, capsys):
    row = IDENTITY_TABLE[identity]
    assert ("oracle" in row.takes) == (row.lhs in MODES)
    for name in ("_points", "_random_points", "det_bareiss", "det_cofactor", "det_hankel_strip"):
        monkeypatch.setattr(verify_module, name, _swept)
    axes = {name: _POINT_RANGES[name] for name in row.axes}
    value, flags = _OFF_DEFAULT[field]
    grid = GridSpec(identity=identity, n=(0, 0), **{**axes, field: value})
    if field in row.takes:
        if field == "domain":
            grid = dataclasses.replace(grid, spec=preset("lucas", value))
        with pytest.raises(AssertionError, match="the sweep started"):
            run_grid(grid)
        return
    with pytest.raises(ValueError) as rejected:
        run_grid(grid)
    assert str(rejected.value) == f"identity {identity} does not take {field}"
    point = [token for name in row.axes for token in (f"--{name}", "1")]
    if flags is None:
        code, out, err = run_cli(capsys, "verify", "--identity", identity, "--n", "0", *point, "--oracle", "bareiss")
        assert (code, out, err) == (2, "", f"error: identity {identity} does not take oracle\n")
    else:
        code, out, err = run_cli(capsys, "closed", "--identity", identity, "--n", "0", *point, *flags)
        assert (code, out, err) == (2, "", f"error: identity {identity} does not take {flags[0]}\n")


def test_closed_takes_exactly_the_axes_of_its_row(capsys):
    cases = [
        (("carlitz", "--n", "0", "--r", "2", "--d", "7"), "identity carlitz does not take --d"),
        (("prodinger", "--n", "0", "--r", "2", "--i", "1", "--j", "1"), "identity prodinger does not take --i, --j"),
        (("eq4", "--n", "0", "--r", "1", "--i", "1", "--j", "1"), "identity eq4 does not take --r"),
        (("theorem2", "--n", "0", "--r", "1"), "identity theorem2 needs --d"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, "closed", "--identity", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, "closed", "--identity", "carlitz", "--n", "0", "--r", "2")
    assert (code, out) == (0, "-2\n")


def test_bench_into_a_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hankelrise", "bench", "--r", "1..3", "--d", "1..3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert result.stderr == ""
    assert result.returncode == 141


def test_verify_domain_gate(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--identity", "theorem2", "--preset", "jacobsthal", "--n", "-2..0", "--r", "0..1"
    )
    assert code == 2
    assert "rational" in err


def test_bench_stdout(capsys):
    code, out, _ = run_cli(capsys, "bench", "--r", "5", "--d", "2..4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 1 + 3 * 3
    first = lines[1].split(",")
    assert first[:8] == ["bareiss", "int", "1", "5", "2", "2", "0", "false"]
    assert [row.split(",")[0] for row in lines[1:]] == ["bareiss"] * 3 + ["closed"] * 3 + ["condensation"] * 3


def test_bench_symbolic(capsys):
    code, out, err = run_cli(capsys, "bench", "--domain", "poly", "--r", "0..1", "--d", "1..2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == BENCH_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 2 * 2
    assert {row[1] for row in rows} == {"poly"}
    closed = [row[:7] for row in rows if row[0] == "closed"]
    assert closed == [
        ["closed", "poly", "1", "0", "1", "0", "0"],
        ["closed", "poly", "1", "0", "2", "0", "0"],
        ["closed", "poly", "1", "1", "1", "0", "0"],
        ["closed", "poly", "1", "1", "2", "6", "0"],
    ]


def test_bench_file_output(tmp_path, capsys, monkeypatch):
    target = tmp_path / "counts.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--r", "2", "--d", "2", "--algorithms", "cofactor", "--out", str(target)
    )
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("cofactor,int,1,2,2,")
    # a file that cannot be opened is an error, not a traceback, and it
    # is found before any row is timed
    monkeypatch.setattr(cli_module, "bench_rows", _swept)
    missing = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "bench", "--r", "2", "--d", "2", "--out", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not missing.parent.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--algorithms", "nope"), "unknown bench algorithm 'nope'"),
        (("--algorithms", " , "),
         "no bench algorithm given; choose from bareiss, closed, cofactor, condensation, structured"),
        (("--algorithms", "bareiss,cofactor", "--d", "9..11"), "cofactor expansion is limited to dimension 10"),
        (("--preset", "jacobsthal", "--n=-1"),
         "negative n needs c2 = +-1, or a nonzero c2 in the rational domain; this int spec has c2 = 2"),
        (("--r=-1..1",), "power length r must be non-negative"),
        (("--d", "0..2"), "matrix dimension d must be at least 1"),
    ],
)
def test_bench_rejects_before_it_touches_out(argv, message, tmp_path, capsys, monkeypatch):
    # the gate runs before the file is opened and before any row; a flag
    # in argv overrides the --r or --d before it
    monkeypatch.setattr(cli_module, "bench_rows", _swept)
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("keep\n")
    for target in (kept, absent):
        code, out, err = run_cli(capsys, "bench", "--r", "1", "--d", "2", *argv, "--out", str(target))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    assert kept.read_text() == "keep\n"
    assert not absent.exists()


def test_bench_structured_rows(capsys):
    code, out, _ = run_cli(capsys, "bench", "--r", "3", "--d", "2..4", "--algorithms", "structured,bareiss")
    assert code == 0
    rows = [line.split(",")[:8] for line in out.splitlines()[1:]]
    assert rows == [
        ["bareiss", "int", "1", "3", "2", "2", "0", "false"],
        ["bareiss", "int", "1", "3", "3", "10", "1", "false"],
        ["bareiss", "int", "1", "3", "4", "28", "5", "false"],
        # the table's counts plus the content scaling and the read-back
        ["structured", "int", "1", "3", "2", "2", "3", "false"],
        ["structured", "int", "1", "3", "3", "9", "6", "false"],
        ["structured", "int", "1", "3", "4", "19", "11", "false"],
    ]


def test_bench_rejects_cofactor_over_the_limit_before_any_row(monkeypatch, capsys):
    # the expansion bench would call: any call fails the test
    monkeypatch.setitem(cli_module._ALGORITHMS, "cofactor", _swept)
    code, out, err = run_cli(capsys, "bench", "--r", "9", "--d", "9..11", "--algorithms", "bareiss,cofactor")
    assert (code, out, err) == (2, "", "error: cofactor expansion is limited to dimension 10\n")


def test_bench_negative_n_needs_an_invertible_c2(no_arithmetic, capsys):
    code, out, err = run_cli(capsys, "bench", "--preset", "jacobsthal", "--n=-1", "--r", "1", "--d", "2")
    assert (code, out, err) == (2, "", _negative_index_error("n"))


def test_bench_rejects_an_empty_algorithm_list(capsys):
    # a run that measures nothing is no success
    code, out, err = run_cli(capsys, "bench", "--r", "2", "--d", "2", "--algorithms", " , ")
    assert (code, out) == (2, "")
    assert err == "error: no bench algorithm given; choose from bareiss, closed, cofactor, condensation, structured\n"
    with pytest.raises(ValueError, match="^no bench algorithm given"):
        bench_rows(preset("fibonacci"), (1, 1), (2, 2), (2, 2), [])


def test_bench_rejects_unknown_algorithm(capsys):
    code, _, err = run_cli(capsys, "bench", "--r", "2", "--d", "2", "--algorithms", "strassen")
    assert code == 2
    assert "strassen" in err


def test_bench_rows_are_sorted():
    rows = bench_rows(preset("fibonacci"), (1, 2), (2, 3), (2, 3), ["condensation", "bareiss"])
    keys = [(row["algorithm"], row["n"], row["r"], row["d"]) for row in rows]
    assert keys == sorted(keys)
    assert len(rows) == 2 * 2 * 2 * 2


def test_write_bench_csv_round_trip(tmp_path):
    rows = bench_rows(preset("fibonacci"), (1, 1), (2, 2), (2, 2), ["bareiss"])
    target = tmp_path / "one.csv"
    with open(target, "w", newline="") as stream:
        write_bench_csv(rows, stream)
    header, row = target.read_text().splitlines()
    assert header == BENCH_HEADER
    assert row.split(",")[:5] == ["bareiss", "int", "1", "2", "2"]


def test_spec_flag_conflicts(capsys):
    code, _, err = run_cli(capsys, "det", "--preset", "lucas", "--a", "1", "--n", "0", "--r", "1", "--d", "2")
    assert code == 2 and "conflicts" in err
    code, _, err = run_cli(capsys, "det", "--a", "1", "--b", "1", "--n", "0", "--r", "1", "--d", "2")
    assert code == 2 and "all four" in err
    code, _, err = run_cli(capsys, "det", "--a", "1/2", "--b", "1", "--c1", "1", "--c2", "1", "--n", "0", "--r", "1", "--d", "2")
    assert code == 2 and "rat" in err
    code, out, err = run_cli(capsys, "seq", "--domain", "rat", "--a", "1/0", "--b", "1", "--c1", "1", "--c2", "1", "--from", "0", "--to", "1")
    assert (code, out, err) == (2, "", "error: '1/0' has a zero denominator\n")


def test_parse_range():
    assert _parse_range("3") == (3, 3)
    assert _parse_range("-5..5") == (-5, 5)
    assert _parse_range("-7..-3") == (-7, -3)
    with pytest.raises(Exception):
        _parse_range("5..3")
    with pytest.raises(Exception):
        _parse_range("..4")


def test_merge_range_values():
    assert _merge_range_values(["--n", "-5..5", "--r", "0..2"]) == ["--n=-5..5", "--r", "0..2"]
    assert _merge_range_values(["--n", "3..5"]) == ["--n", "3..5"]
    assert _merge_range_values(["--seed", "-1"]) == ["--seed", "-1"]


def test_negative_rational_spec_values_may_be_their_own_token(capsys):
    # argparse reads "-1/2" as an option unless it is joined to its flag
    assert _merge_range_values(["--c1", "-2/3", "--c2", "-1"]) == ["--c1=-2/3", "--c2=-1"]
    closed = ("closed", "--identity", "theorem2", "--domain", "rat", "--n", "0", "--r", "1", "--d", "2")
    for a in (("--a", "-1/2"), ("--a=-1/2",)):
        assert run_cli(capsys, *closed, *a, "--b", "1", "--c1", "1", "--c2", "1") == (0, "-5/4\n", "")
    sweep = ("verify", "--identity", "theorem2", "--domain", "rat", "--n", "0..2", "--r", "0..2")
    reports = []
    for b in (("--b", "-3/2"), ("--b=-3/2",)):
        code, out, err = run_cli(capsys, *sweep, "--a", "1", *b, "--c1", "1", "--c2", "1")
        assert (code, err) == (0, "")
        reports.append({**json.loads(out), "elapsed_ms": 0})
    assert reports[0] == reports[1] and reports[0]["checked"] == 18


def test_bad_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--identity", "theorem1", "--n", "5..3", "--r", "0..1"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hankelrise", "seq", "--from", "0", "--to", "3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert result.stdout == "0\t0\n1\t1\n2\t1\n3\t2\n"
