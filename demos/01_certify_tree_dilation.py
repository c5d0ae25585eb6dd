"""Certify the dilation of a hand-built spanning tree.

The dilation of a tree on plane points is the largest ratio of
tree-path length to straight-line distance over all point pairs.
Floating point can only estimate it; here every number reported is a
rigorous enclosure, and every comparison against a rational threshold
is a certified verdict.
"""

from fractions import Fraction

from dilatree import (
    PointSet, Tree, Verdict, compare_to_threshold, critical_edges,
    pair_dilation, tree_dilation,
)


def main():
    # A unit square with its two diagonals missing: the path 0-1-2-3.
    ps = PointSet.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)],
                              labels=["sw", "se", "ne", "nw"])
    path = Tree(4, [(0, 1), (1, 2), (2, 3)])

    report = tree_dilation(ps, path, bits=96)
    lo, hi = report.value.lo, report.value.hi
    u, v = report.witness
    print("path around the square")
    print(f"  dilation in [{float(lo):.12f}, {float(hi):.12f}]")
    print(f"  attained by the pair ({ps.labels[u]}, {ps.labels[v]})")
    print(f"  enclosure width {float(report.value.width):.3e} "
          f"at {report.precision_used} bits")

    # The witness pair is the two ends: path length 3, distance 1.
    ival = pair_dilation(ps, path, 0, 3, bits=96)
    print(f"  cross-check, pair (sw, nw) alone: "
          f"[{float(ival.lo):.12f}, {float(ival.hi):.12f}]")

    # Certified comparisons.  The true value here is exactly 3.
    for num, den in [(3, 1), (31, 10), (29, 10)]:
        verdict = compare_to_threshold(ps, path, num, den)
        word = "at most" if verdict is Verdict.AT_MOST else "greater than"
        print(f"  certified {word} {num}/{den}")

    # A star from one corner: adjacent boundary pairs must route
    # through the hub, costing 1 + sqrt(2) over distance 1.
    star = Tree(4, [(0, 1), (0, 2), (0, 3)])
    report = tree_dilation(ps, star, bits=96)
    print("\nstar from the sw corner")
    print(f"  dilation in [{float(report.value.lo):.12f}, "
          f"{float(report.value.hi):.12f}]")
    print(f"  verdict against 3: "
          f"{compare_to_threshold(ps, star, 3, 1).value}")

    # Edges that every tree with dilation <= 8/5 must contain.  For the
    # square that pins down the whole boundary structure.
    forced = critical_edges(ps, 8, 5)
    named = sorted((ps.labels[a], ps.labels[b]) for a, b in forced)
    print(f"\nedges forced by the bound 8/5: {named}")


if __name__ == "__main__":
    main()
