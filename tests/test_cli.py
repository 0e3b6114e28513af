import json
import os
import subprocess
import sys

import pytest

import hankelrise
from hankelrise.cli import _merge_range_values, _parse_range, bench_rows, main, write_bench_csv
from hankelrise.sequence import preset
from hankelrise.verify import GridSpec, Mismatch, VerifyReport

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


def test_closed_missing_flags(capsys):
    code, _, err = run_cli(capsys, "closed", "--identity", "theorem1", "--n", "0")
    assert code == 2
    assert "--r" in err and "--d" in err


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
        assert err.startswith("error:") and "fibonacci" in err
    code, _, _ = run_cli(capsys, "verify", "--identity", "carlitz", "--preset", "fibonacci", "--n", "0", "--r", "1")
    assert code == 0


def test_closed_rejects_spec_flags_on_fibonacci_identities(capsys):
    cases = [
        ("--identity", "vajda", "--preset", "pell", "--n", "0", "--i", "1", "--j", "1"),
        ("--identity", "theorem1", "--preset", "lucas", "--n", "0", "--r", "1", "--d", "2"),
        ("--identity", "prodinger", "--a", "0", "--b", "1", "--c1", "2", "--c2", "1", "--n", "0", "--r", "2"),
        ("--identity", "carlitz", "--domain", "rat", "--preset", "jacobsthal", "--n", "0", "--r", "2"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, "closed", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "fibonacci" in err
    code, out, _ = run_cli(capsys, "closed", "--identity", "vajda", "--preset", "fibonacci", "--n", "0", "--i", "1", "--j", "1")
    assert code == 0 and out.strip() == "-1"


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


def test_bench_file_output(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--r", "2", "--d", "2", "--algorithms", "cofactor", "--out", str(target)
    )
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("cofactor,int,1,2,2,")


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
