"""Search for minimum-dilation spanning structures on small point sets.

The solver enumerates spanning trees (or Hamiltonian paths, or tours)
with certified pruning: a candidate is discarded only when interval
arithmetic proves it worse than the incumbent, escalating precision
until the comparison is decided.
"""

import random

from dilatree import (
    Mode, PointSet, SolverOptions, exhaustive_mdst, mdst_exact,
)


def show(tag, ps, res):
    lo, hi = res.report.value.lo, res.report.value.hi
    edges = res.best.edges if hasattr(res.best, "edges") else res.best
    print(f"{tag}")
    print(f"  best dilation in [{float(lo):.9f}, {float(hi):.9f}]")
    print(f"  edges {sorted(edges)}")
    print(f"  examined {res.trees_examined}, pruned {res.pruned}")


def main():
    rng = random.Random(7)
    coords = [(rng.randrange(50), rng.randrange(50)) for _ in range(7)]
    while len(set(coords)) < 7:
        coords = [(rng.randrange(50), rng.randrange(50)) for _ in range(7)]
    ps = PointSet.from_coords(coords)
    print(f"seven random points: {coords}\n")

    res = mdst_exact(ps)
    show("minimum-dilation spanning tree", ps, res)

    # The plain enumerator agrees; it just looks at every tree.  Two
    # optima can differ in their edges, but their enclosures must overlap.
    ref = exhaustive_mdst(ps, bits=64)
    lo, hi = ref.report.value.lo, ref.report.value.hi
    assert lo <= res.report.value.hi and res.report.value.lo <= hi
    print(f"  exhaustive check examined {ref.trees_examined} trees; its "
          f"optimum in [{float(lo):.9f}, {float(hi):.9f}] overlaps the "
          f"one above\n")

    # Restricting the shape costs dilation.
    for mode in (Mode.PATH, Mode.TOUR):
        res = mdst_exact(ps, SolverOptions(mode=mode))
        show(f"best {mode.value}", ps, res)
        print()

    # Forcing an edge the optimum avoids is also allowed.
    forced = frozenset({(0, 1)})
    res = mdst_exact(ps, SolverOptions(required_edges=forced))
    show("best tree forced to contain edge (0, 1)", ps, res)


if __name__ == "__main__":
    main()
