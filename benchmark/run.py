"""The hankelrise benchmark: one command, run from the root of a checkout.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop with one caller: sweeps run one after another,
each in a fresh single-threaded process (child.py) that imports
hankelrise from ./src and times its first and only sweep, because a CLI
``verify`` pays that cold cost every time.  Sweeps start until the next
one would end after --seconds (but at least MIN_SWEEPS run), and each
timing is the median over the run's sweeps.

--trace 0 prints the end-to-end metrics: verify_s, wall seconds of the
whole sweep; setup_s, importing hankelrise and building the GridSpecs;
peak_rss_mb, the process's maximum RSS.  --trace 1 alternates untraced
and traced sweeps and prints the per-layer metrics of spans.py plus
trace.overhead_s, the traced minus the untraced median sweep time.

Every run is checked.  A failed point is a mismatch or a point missing
from (or added to) the workload's expected total; failed_ratio is failed
over expected points.  The run is also wrong when the exact mul/div
totals differ between its sweeps, differ from the totals an earlier run
of the same source and seed left in .bench_out/ledger.json, or (traced)
when the layers' exclusive counts do not sum to them or an exception
escaped an oracle or closed-form call.  A wrong run still prints its
result and exits 1.  Without ./src/hankelrise the command prints no
result and exits 2.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; lines before it repeat each metric with
its unit, failed_ratio, the exact counts and, traced, the slowest points.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, EXPECTED_CHECKED, WORKLOADS  # noqa: E402

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ring.muls": "count",
    "ring.divs": "count",
    "ring.poly_mul_calls": "count",
    "ring.poly_mul_pct": "%",
    "ring.poly_mul_term_pairs": "count",
    "ring.poly_div_calls": "count",
    "ring.poly_div_pct": "%",
    "ring.poly_div_quotient_terms": "count",
    "sequence.caches": "count",
    "sequence.term_calls": "count",
    "sequence.rising_power_calls": "count",
    "sequence.self_pct": "%",
    "sequence.muls": "count",
    "sequence.divs": "count",
    "matgen.build_calls": "count",
    "matgen.entries": "count",
    "matgen.pct": "%",
    "matgen.self_pct": "%",
    "matgen.muls": "count",
    "determinant.calls": "count",
    "determinant.self_pct": "%",
    "determinant.muls": "count",
    "determinant.divs": "count",
    "determinant.fallbacks": "count",
    "determinant.errors": "count",
    "closedform.calls": "count",
    "closedform.pct": "%",
    "closedform.self_pct": "%",
    "closedform.muls": "count",
    "closedform.divs": "count",
    "closedform.errors": "count",
    "verify.points": "count",
    "verify.mismatches": "count",
    "verify.self_pct": "%",
    "trace.overhead_s": "s",
}

MIN_SWEEPS = 3  # untraced sweeps in a --trace 0 run; a traced run needs one of each kind
HARD_LIMIT_S = 170  # a sweep still running this long after the start is killed
OUT_DIR = ".bench_out"


class SweepFailed(RuntimeError):
    """A sweep process crashed or ran out of time; the run has no result."""


def spawn(root, workload, seed, traced, spans_path, timeout):
    """Run one sweep in a fresh interpreter and return its JSON object."""
    command = [sys.executable, "-I", os.path.join(HERE, "child.py"), root, workload, str(seed)]
    command += ["1", spans_path] if traced else ["0"]
    try:
        done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SweepFailed(f"sweep did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise SweepFailed(f"sweep exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def source_digest(root):
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "hankelrise")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as stream:
                digest.update(stream.read())
    return digest.hexdigest()


def ledger_agrees(root, workload, seed, totals):
    """Record this source's exact totals; False if an earlier run saw others."""
    path = os.path.join(root, OUT_DIR, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as stream:
            ledger = json.load(stream)
    key = f"{source_digest(root)}:{workload}:{seed}"
    seen = ledger.setdefault(key, list(totals))
    staging = path + ".tmp"
    with open(staging, "w") as stream:
        json.dump(ledger, stream, indent=1, sort_keys=True)
    os.replace(staging, path)
    return seen == list(totals)


def sweep_all(root, workload, seed, seconds, trace, launch):
    """Run sweeps until the time is used; returns [(traced, result)]."""
    spans_path = os.path.join(root, OUT_DIR, f"spans-{workload}.csv.gz")
    sweeps = []
    last_took = {}
    began = time.perf_counter()
    while True:
        traced = bool(trace) and len(sweeps) % 2 == 1
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - began))
        start = time.perf_counter()
        sweeps.append((traced, launch(root, workload, seed, traced, spans_path, timeout)))
        last_took[traced] = time.perf_counter() - start
        kinds = [kind for kind, _ in sweeps]
        if trace:
            enough = kinds.count(True) >= 1 and kinds.count(False) >= 1
        else:
            enough = len(kinds) >= MIN_SWEEPS
        upcoming = bool(trace) and len(sweeps) % 2 == 1
        finish = time.perf_counter() - began + last_took.get(upcoming, last_took[traced])
        if enough and finish > seconds:
            return sweeps


def summarize(workload, seed, sweeps, trace):
    """(lines to print before the result, result object)."""
    expected = EXPECTED_CHECKED[workload]
    results = [result for _, result in sweeps]
    plain = [result for traced, result in sweeps if not traced]
    traced = [result for is_traced, result in sweeps if is_traced]
    attempted = expected * len(results)
    failed = sum(r["mismatches"] + abs(expected - r["checked"]) for r in results)
    problems = []
    totals = {(r["muls"], r["divs"]) for r in results}
    if len(totals) != 1:
        problems.append(f"mul/div totals differ between sweeps: {sorted(totals)}")
    muls, divs = results[0]["muls"], results[0]["divs"]

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    lines = [f"workload {workload} seed {seed} sweeps {len(plain)} untraced {len(traced)} traced"]
    if trace:
        layers = traced[0]["layers"]
        counted = [name for name, unit in PER_LAYER.items() if unit == "count" and name in layers]
        if any(r["layers"][name] != layers[name] for r in traced[1:] for name in counted):
            problems.append("per-layer counts differ between traced sweeps")
        if (layers["layers.muls"], layers["layers.divs"]) != (muls, divs):
            problems.append(
                f"exclusive layer counts sum to {layers['layers.muls']}/{layers['layers.divs']},"
                f" not {muls}/{divs}"
            )
        errors = layers["determinant.errors"] + layers["closedform.errors"]
        if errors:
            problems.append(f"{errors} exceptions escaped oracle or closed-form calls")
        values = {
            "ring.muls": muls,
            "ring.divs": divs,
            "verify.points": traced[0]["checked"],
            "verify.mismatches": traced[0]["mismatches"],
            "trace.overhead_s": median(traced, "verify_s") - median(plain, "verify_s"),
        }
        rows = [r["layers"] for r in traced]
        for name, unit in PER_LAYER.items():
            if name not in values:
                values[name] = rows[0][name] if unit == "count" else median(rows, name)
        units = PER_LAYER
        for rank, (point, took) in enumerate(traced[-1]["slowest"], 1):
            lines.append(f"slowest {rank} {took:.6f} s {point}")
    else:
        values = {name: median(plain, name) for name in END_TO_END}
        units = END_TO_END
        lines.append(f"ring.muls {muls} count")
        lines.append(f"ring.divs {divs} count")
    for name in units:
        lines.append(f"{name} {values[name]} {units[name]}")
    lines.append(f"failed_ratio {failed / attempted} ratio")
    lines.extend(f"problem: {problem}" for problem in problems)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return lines, result


def main(argv=None, launch=spawn):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hankelrise", "__init__.py")):
        print(f"error: no src/hankelrise under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    try:
        sweeps = sweep_all(root, args.workload, args.seed, args.seconds, args.trace, launch)
    except SweepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines, result = summarize(args.workload, args.seed, sweeps, args.trace)
    totals = (sweeps[0][1]["muls"], sweeps[0][1]["divs"])
    # only a run that passed every other check may record totals
    if result["correct"] and not ledger_agrees(root, args.workload, args.seed, totals):
        lines.append("problem: mul/div totals differ from an earlier run of this source and seed")
        result["correct"] = False
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
