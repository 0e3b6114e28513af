"""Outside-in tracing: spans around hankelrise's public entry points.

install() replaces, for the life of one sweep, each of these with a
wrapper that records a span:

  verify     run_grid
  matgen     build                  } as bound in verify's namespace, which
  determinant det_bareiss, ...      } is where run_grid looks them up
  closedform theorem1_rhs, ...      }
  sequence   SequenceCache.__init__, term, rising_power
  ring       Poly.__mul__, Poly.exact_div

A span is (name, start_ns, end_ns, parent index, grid point, muls, divs).
muls and divs are the growth of one outer count_ops() counter while the
span was open, so they include the span's children; layer_metrics()
subtracts children to get each layer's exclusive share.  Spans stay in
memory until write_spans() puts them in a gzipped CSV file after the
sweep.

Nothing under src/ is edited: the wrappers are attribute assignments made
by the benchmark process and undone by the callable install() returns.
"""

import csv
import gzip
import inspect
from time import perf_counter_ns

LAYERS = ("ring", "sequence", "matgen", "determinant", "closedform", "verify")

# module of a function bound in verify's namespace -> the layer it belongs to
_VERIFY_IMPORTS = {
    "hankelrise.matgen": "matgen",
    "hankelrise.determinant": "determinant",
    "hankelrise.closedform": "closedform",
}
_POINT_AXES = ("n", "r", "d", "i", "j")


class Tracer:
    def __init__(self, counter):
        self.counter = counter  # the OpCounter of a count_ops() around the sweep
        self.spans = []
        self.errors = {}  # span name -> exceptions that escaped it
        self.grid = -1
        self.identity = None
        self.point = None
        self.entries = 0  # sum of d^2 over built matrices
        self.fallbacks = 0
        self.poly_mul_term_pairs = 0
        self.poly_div_quotient_terms = 0
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """fn with a span named ``name`` around every call.

        ``before(args)`` runs ahead of the span, ``after(args, result)``
        once it has closed; neither is timed.
        """
        spans, stack, counter = self.spans, self._stack, self.counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            muls, divs = counter.muls, counter.divs
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (
                    name, start, end, parent, self.point, counter.muls - muls, counter.divs - divs,
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def _start_grid(self, args):
        self.grid += 1
        self.identity = args[0].identity
        self.point = None

    def _point_setter(self, fn):
        """A before-hook that labels the grid point from fn's arguments.

        build(spec, query) carries it in the query; the closed forms take
        the axes (n, r, d) or (n, i, j) after an optional spec.  Anything
        else (the oracle) inherits the point its build set.
        """
        params = list(inspect.signature(fn).parameters)
        if params == ["spec", "query"]:
            def label(args):
                query = args[1]
                return f"n={query.n} r={query.r} d={query.d}"
        elif params and all(p in _POINT_AXES for p in params if p != "spec"):
            axes = [p for p in params if p != "spec"]
            skip = len(params) - len(axes)

            def label(args):
                return " ".join(f"{a}={v}" for a, v in zip(axes, args[skip:]))
        else:
            return None

        def before(args):
            self.point = f"{self.grid}:{self.identity} {label(args)}"

        return before

    def _count_entries(self, args, matrix):
        self.entries += matrix.dim * matrix.dim

    def _count_fallback(self, args, report):
        self.fallbacks += report.fallback_used

    def _count_term_pairs(self, args):
        self.poly_mul_term_pairs += len(args[0].terms) * len(args[1].terms)

    def _count_quotient_terms(self, args, quotient):
        self.poly_div_quotient_terms += len(quotient.terms)


def install(tracer):
    """Put tracer's wrappers in place; returns a callable that removes them."""
    from hankelrise import ring, sequence, verify

    undo = []

    def patch(owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, before, after))

    patch(verify, "run_grid", "verify.run_grid", before=tracer._start_grid)
    for attr, value in sorted(vars(verify).items()):
        layer = _VERIFY_IMPORTS.get(getattr(value, "__module__", None))
        if layer is None or not inspect.isfunction(value):
            continue
        after = {"matgen": tracer._count_entries, "determinant": tracer._count_fallback}.get(layer)
        patch(verify, attr, f"{layer}.{attr}", before=tracer._point_setter(value), after=after)
    for attr in ("__init__", "term", "rising_power"):
        patch(sequence.SequenceCache, attr, f"sequence.SequenceCache.{attr}")
    patch(ring.Poly, "__mul__", "ring.Poly.__mul__", before=tracer._count_term_pairs)
    patch(ring.Poly, "exact_div", "ring.Poly.exact_div", after=tracer._count_quotient_terms)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer):
    """Per-layer counts and time shares from one traced sweep.

    Times are percentages of the time spent inside run_grid, so a layer
    the workload never enters reads 0 rather than a constant 0 seconds,
    and shares move less with the machine's speed than seconds do.
    ``*.muls``/``*.divs`` are exclusive: a span's counts minus its
    children's, so the layers sum to the sweep's total.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    child_muls = [0] * len(spans)
    child_divs = [0] * len(spans)
    for name, start, end, parent, _, muls, divs in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            child_muls[parent] += muls
            child_divs[parent] += divs
    self_ns = dict.fromkeys(LAYERS, 0)
    excl_muls = dict.fromkeys(LAYERS, 0)
    excl_divs = dict.fromkeys(LAYERS, 0)
    calls = {}
    total_ns = {}
    for index, (name, start, end, parent, _, muls, divs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_ns[layer] += end - start - child_ns[index]
        excl_muls[layer] += muls - child_muls[index]
        excl_divs[layer] += divs - child_divs[index]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + end - start

    def named(prefix):
        return [name for name in calls if name.startswith(prefix)]

    def count(*names):
        return sum(calls.get(name, 0) for name in names)

    sweep_ns = total_ns.get("verify.run_grid", 0) or 1

    def pct(ns):
        return 100 * ns / sweep_ns

    def share(*names):
        return pct(sum(total_ns.get(name, 0) for name in names))

    errors = tracer.errors
    return {
        "ring.poly_mul_calls": count("ring.Poly.__mul__"),
        "ring.poly_mul_pct": share("ring.Poly.__mul__"),
        "ring.poly_mul_term_pairs": tracer.poly_mul_term_pairs,
        "ring.poly_div_calls": count("ring.Poly.exact_div"),
        "ring.poly_div_pct": share("ring.Poly.exact_div"),
        "ring.poly_div_quotient_terms": tracer.poly_div_quotient_terms,
        "sequence.caches": count("sequence.SequenceCache.__init__"),
        "sequence.term_calls": count("sequence.SequenceCache.term"),
        "sequence.rising_power_calls": count("sequence.SequenceCache.rising_power"),
        "sequence.self_pct": pct(self_ns["sequence"]),
        "sequence.muls": excl_muls["sequence"],
        "sequence.divs": excl_divs["sequence"],
        "matgen.build_calls": count(*named("matgen.")),
        "matgen.entries": tracer.entries,
        "matgen.pct": share(*named("matgen.")),
        "matgen.self_pct": pct(self_ns["matgen"]),
        "matgen.muls": excl_muls["matgen"],
        "determinant.calls": count(*named("determinant.")),
        "determinant.self_pct": pct(self_ns["determinant"]),
        "determinant.muls": excl_muls["determinant"],
        "determinant.divs": excl_divs["determinant"],
        "determinant.fallbacks": tracer.fallbacks,
        # the oracle side of a point is build followed by the determinant
        "determinant.errors": sum(
            n for name, n in errors.items() if name.startswith(("matgen.", "determinant."))
        ),
        "closedform.calls": count(*named("closedform.")),
        "closedform.pct": share(*named("closedform.")),
        "closedform.self_pct": pct(self_ns["closedform"]),
        "closedform.muls": excl_muls["closedform"],
        "closedform.divs": excl_divs["closedform"],
        "closedform.errors": sum(n for name, n in errors.items() if name.startswith("closedform.")),
        "verify.self_pct": pct(self_ns["verify"]),
        # run.py checks these against the sweep's count_ops totals
        "layers.muls": sum(excl_muls.values()),
        "layers.divs": sum(excl_divs.values()),
    }


def slowest_points(tracer, limit=5):
    """The ``limit`` grid points whose top-level calls took longest, in seconds."""
    spans = tracer.spans
    per_point = {}
    for name, start, end, parent, point, _, _ in spans:
        if point is not None and parent >= 0 and spans[parent][0] == "verify.run_grid":
            per_point[point] = per_point.get(point, 0) + end - start
    ranked = sorted(per_point.items(), key=lambda item: item[1], reverse=True)[:limit]
    return [[point, ns / 1e9] for point, ns in ranked]


def write_spans(tracer, path):
    """All spans as gzipped CSV, times in ns from the first span's start."""
    spans = tracer.spans
    origin = spans[0][1] if spans else 0
    with gzip.open(path, "wt", compresslevel=1, newline="") as stream:
        out = csv.writer(stream)
        out.writerow(["id", "name", "parent", "point", "start_ns", "end_ns", "muls", "divs"])
        for index, (name, start, end, parent, point, muls, divs) in enumerate(spans):
            out.writerow([index, name, parent, point or "", start - origin, end - origin, muls, divs])
