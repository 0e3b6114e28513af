"""One cold sweep of one workload, in the process that runs this file.

    python3 -I benchmark/child.py ROOT WORKLOAD SEED TRACED [SPANS_CSV_GZ]

ROOT is the checkout whose src/ holds hankelrise.  The process imports
hankelrise from there, builds the workload's GridSpecs, runs every grid
through verify.run_grid once with no warm-up, and prints one JSON object:
set-up and sweep seconds, peak RSS, points checked, mismatches and the
sweep's exact mul/div totals.

With TRACED = 1 the sweep runs under the tracer of spans.py, the object
adds per-layer metrics and the slowest points, and the spans go to
SPANS_CSV_GZ.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, install, layer_metrics, slowest_points, write_spans  # noqa: E402
from workloads import make_grids  # noqa: E402


def measure(root, workload, seed, traced, spans_path=None):
    started = time.perf_counter()
    src = os.path.join(os.path.abspath(root), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import hankelrise
    from hankelrise import ring, verify

    grids = make_grids(workload, seed)
    setup_s = time.perf_counter() - started
    if os.path.commonpath([src, os.path.abspath(hankelrise.__file__)]) != src:
        raise RuntimeError(f"hankelrise was imported from {hankelrise.__file__}, not {src}")

    tracer = None
    if traced:
        with ring.count_ops() as counter:
            tracer = Tracer(counter)
            restore = install(tracer)
            try:
                began = time.perf_counter()
                reports = [verify.run_grid(grid) for grid in grids]
                verify_s = time.perf_counter() - began
            finally:
                restore()
    else:
        began = time.perf_counter()
        reports = [verify.run_grid(grid) for grid in grids]
        verify_s = time.perf_counter() - began

    result = {
        "setup_s": setup_s,
        "verify_s": verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checked": sum(report.checked for report in reports),
        "mismatches": sum(len(report.mismatches) for report in reports),
        "muls": sum(report.mul_count for report in reports),
        "divs": sum(report.div_count for report in reports),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["slowest"] = slowest_points(tracer)
        if spans_path:
            write_spans(tracer, spans_path)
    return result


def main(argv):
    root, workload, seed, traced = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    print(json.dumps(measure(root, workload, int(seed), traced == "1", spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
