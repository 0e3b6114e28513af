"""The committed BENCH_*.json files: every run record's top-level exact
totals, ring.muls and ring.divs, are the totals of that run.

A traced record carries them in result.metrics too, and must agree with
it.  An untraced record does not, so it must agree with the traced record
of the same file, workload and seed: the totals are exact and do not
depend on tracing.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
TOTALS = ("ring.muls", "ring.divs")


def test_bench_files_were_found():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_record_totals_agree_with_their_runs(path):
    with open(path, encoding="utf-8") as stream:
        workloads = json.load(stream)["workloads"]
    for workload, runs in workloads.items():
        traced = {}
        for record in runs["trace1"]:
            metrics = record["result"]["metrics"]
            totals = tuple(record[name] for name in TOTALS)
            assert totals == tuple(metrics[name]["value"] for name in TOTALS), (workload, record["seed"])
            traced[record["seed"]] = totals
        for record in runs["trace0"]:
            if record["seed"] in traced:
                totals = tuple(record[name] for name in TOTALS)
                assert totals == traced[record["seed"]], (workload, record["seed"])
