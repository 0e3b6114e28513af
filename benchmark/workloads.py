"""The benchmark's workloads: each is a copy of an acceptance-contract grid.

  fib-r30    theorem1, n=0, r=30, d=1..31: a few huge integer matrices, no
             polynomials, so it isolates matgen and determinant
  sym-d5     theorem2 in the poly domain, n=0..3, r=0..4 (acceptance 05):
             the ring layer's polynomial multiply and exact division
  rat-specs  theorem2 in the rat domain on lucas, pell, jacobsthal and 20
             Lcg64(seed) specs, n=-5..8, r=0..5 (acceptance 04 at seed 4):
             thousands of small Fraction matrices, so per-call cost shows
  bilinear   vajda, eq4 on four rational presets and symbolic eq4
             (acceptance 06): never builds a matrix; sequence-heavy

None is shrunk.  Only rat-specs depends on the seed; the other three are
fixed grids, so every seed gives them the same inputs.

hankelrise is imported inside make_grids, not at module level, so a
process can time that import as part of its set-up.
"""

WORKLOADS = ("fib-r30", "sym-d5", "rat-specs", "bilinear")

# points each workload's sweep must check; anything else is a failure
EXPECTED_CHECKED = {"fib-r30": 31, "sym-d5": 60, "rat-specs": 6762, "bilinear": 8910}

DEFAULT_SEED = 4  # the acceptance 04 contract seed

def make_grids(workload, seed=DEFAULT_SEED):
    """The GridSpecs one sweep of ``workload`` runs, in order."""
    from hankelrise import ring
    from hankelrise.sequence import RecurrenceSpec, preset
    from hankelrise.verify import GridSpec, Lcg64

    if workload == "fib-r30":
        return [GridSpec(identity="theorem1", n=(0, 0), r=(30, 30))]
    if workload == "sym-d5":
        return [GridSpec(identity="theorem2", domain=ring.POLYNOMIAL, n=(0, 3), r=(0, 4))]
    if workload == "rat-specs":
        specs = [preset(name, ring.RATIONAL) for name in ("lucas", "pell", "jacobsthal")]
        # acceptance draw order a, b, c1, c2; c2 = 0 becomes 1 so
        # backward indexing stays defined
        rng = Lcg64(seed)
        for _ in range(20):
            a, b, c1 = (rng.next_int(-9, 9) for _ in range(3))
            c2 = rng.next_int(-9, 9) or 1
            specs.append(RecurrenceSpec(*(ring.rational(v) for v in (a, b, c1, c2))))
        return [
            GridSpec(identity="theorem2", spec=spec, domain=ring.RATIONAL, n=(-5, 8), r=(0, 5))
            for spec in specs
        ]
    if workload == "bilinear":
        window = dict(n=(-10, 10), i=(0, 8), j=(0, 8))
        grids = [GridSpec(identity="vajda", **window)]
        for name in ("fibonacci", "lucas", "pell", "jacobsthal"):
            grids.append(
                GridSpec(identity="eq4", spec=preset(name, ring.RATIONAL), domain=ring.RATIONAL, **window)
            )
        grids.append(GridSpec(identity="eq4", domain=ring.POLYNOMIAL, n=(0, 4), i=(0, 8), j=(0, 8)))
        return grids
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
