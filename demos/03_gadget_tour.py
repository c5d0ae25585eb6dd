"""Walk through a hardness gadget built from a list of weights.

Given positive integer weights, the construction places 8n+8 points so
that a spanning tree of dilation at most 3/2 exists precisely when the
weights split into two halves of equal sum.  This script builds the
point set for (2, 3, 5), audits the geometric facts the equivalence
rests on, and exhibits the tree encoding the split {2, 3} | {5}.
"""

from fractions import Fraction

from dilatree import (
    PartitionInstance, build_gadget, standard_tree, symbolic_pair_ratio,
    symbolic_path_length, tree_dilation, verify_gadget,
)


def main():
    inst = PartitionInstance((2, 3, 5))
    g = build_gadget(inst)
    n = g.n

    print(f"weights {inst.alphas_dot}, n = {n}, points = {len(g.points.points)}")
    print(f"normalized weights {[str(a) for a in g.alphas]}")
    print(f"choice points carried at {g.d_bits} fractional bits\n")

    labels = g.points.labels
    print("spine of the right half:")
    for i in range(1, n + 2):
        p = g.points.points[g.a(i)]
        print(f"  {labels[g.a(i)]:>3} = ({float(p.x):10.3f}, {float(p.y):10.3f})")

    # Every defined distance is a rational number; the audit checks the
    # realized coordinates against all of them, plus the angle, mirror,
    # and spacing conditions that make the reduction work.
    report = verify_gadget(g)
    print(f"\naudit: {len(report.checks)} checks, "
          f"{'all passed' if report.passed else 'FAILURES ' + str(report.failures())}")

    # The tree for a candidate split routes weight-i's detour on the
    # right if i is in the chosen half, on the left otherwise.
    # Weights (2,3,5): the half {1,2} has sum 5 = half the total.
    A = frozenset({1, 2})
    t = standard_tree(g, A)
    far = [("q2", "p2", g.q2, g.p2),
           ("q2", "p2'", g.q2, g.mirror(g.p2))]
    print(f"\ntree for the split A = {{weights 2, 3}}, A' = {{weight 5}}:")
    for nu, nv, u, v in far:
        path = symbolic_path_length(g, t, u, v)
        ratio = symbolic_pair_ratio(g, t, u, v)
        print(f"  path {nu} .. {nv}: length {path}, ratio {ratio}")
    assert all(symbolic_pair_ratio(g, t, u, v) == Fraction(3, 2)
               for _, _, u, v in far)

    # The same tree through the certified evaluator: the two far pairs
    # reach 3/2 up to the rounding of the choice points, nothing above.
    rep = tree_dilation(g.points, t, bits=128)
    print(f"  certified dilation in [{float(rep.value.lo):.15f}, "
          f"{float(rep.value.hi):.15f}]")

    # An unbalanced half undershoots on one side and overshoots on the
    # mirror, so that tree's dilation exceeds 3/2.  (The complement
    # split {5} | {2, 3} is just the same split again; {2} | {3, 5}
    # is genuinely lopsided.)
    bad = standard_tree(g, frozenset({1}))
    worst = max(symbolic_pair_ratio(g, bad, u, v) for _, _, u, v in far)
    print(f"\ntree for the unbalanced split {{2}} | {{3, 5}}: "
          f"worst far-pair ratio {worst} = {float(worst):.6f}")


if __name__ == "__main__":
    main()
