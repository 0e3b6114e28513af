"""Self-test of the benchmark; run from the root of a checkout:

    python3 benchmark/selftest.py

It checks that
  * the command prints exactly the metric names and units BENCHMARK.json
    lists, for --trace 0 and --trace 1, and passes at this source;
  * a wrong closed form (verify.theorem1_rhs monkeypatched here, with
    sweeps run in this process so that they see the patch) drives
    failed_ratio above 0 and the exit code to nonzero;
  * a point where both sides raise the same error, which run_grid counts
    as agreement, makes the traced run wrong through determinant.errors
    and closedform.errors;
  * with no src/hankelrise beside it the command exits nonzero and
    prints no result.

Exits 0 when every check holds.  Takes about half a minute.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
from hankelrise import ring, sequence, verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHEAPEST = "bilinear"


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def _command(*args, cwd=ROOT):
    manifest = _manifest()
    done = subprocess.run(
        manifest["command"] + list(args), cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return done.returncode, done.stdout.splitlines()


def _in_process(root, workload, seed, traced, spans_path, timeout):
    return child.measure(root, workload, seed, traced, spans_path)


def _main_in_process(*args):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(list(args), launch=_in_process)
    return code, stdout.getvalue().splitlines()


def _failed_ratio(lines):
    return next(float(line.split()[1]) for line in lines if line.startswith("failed_ratio "))


def test_metric_names_match_manifest():
    manifest = _manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = _command("--workload", CHEAPEST, "--seed", "4", "--seconds", "1", "--trace", trace)
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0, lines[-12:]
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in manifest[section]}, (trace, printed)
        for name, unit in printed.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
        assert _failed_ratio(lines) == 0.0


def test_wrong_closed_form_fails_the_run():
    original = verify.theorem1_rhs
    verify.theorem1_rhs = lambda n, r, d: ring.add(original(n, r, d), ring.integer(1))
    try:
        code, lines = _main_in_process("--workload", "fib-r30", "--seconds", "1", "--trace", "0")
    finally:
        verify.theorem1_rhs = original
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"], lines
    assert result["failed"] == result["attempted"] > 0
    assert _failed_ratio(lines) == 1.0


def test_errors_on_both_sides_fail_the_traced_run():
    def term(self, k):
        raise ZeroDivisionError("exact division by zero")

    original = sequence.SequenceCache.term
    sequence.SequenceCache.term = term
    try:
        code, lines = _main_in_process("--workload", "fib-r30", "--seconds", "1", "--trace", "1")
    finally:
        sequence.SequenceCache.term = original
    result = json.loads(lines[-1])
    # run_grid compares the two identical error strings as equal ...
    assert result["failed"] == 0 and result["metrics"]["verify.mismatches"]["value"] == 0
    # ... but the trace saw every oracle and closed-form call raise
    assert result["metrics"]["determinant.errors"]["value"] == 31
    assert result["metrics"]["closedform.errors"]["value"] == 31
    assert code != 0 and not result["correct"], lines


def test_no_source_no_result():
    bare = os.path.join(ROOT, run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = _command("--workload", CHEAPEST, "--seed", "4", "--seconds", "1", "--trace", "0",
                               cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not lines, (code, lines)


def main():
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
