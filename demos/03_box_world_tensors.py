"""Minimal vs. maximal composites in box world.

For a pair of classical systems the minimal tensor product (convex hull of
product states) and the maximal one (all nonnegative normalized bilinear
functionals) coincide: classical probability has no entanglement.  For a
pair of gbits -- square-state-space systems -- the maximal composite is
strictly larger: its 24 extreme points include 8 PR-box-type states that no
mixture of products can reproduce.  The package certifies this with an
explicit separating hyperplane.
"""

import numpy as np

from entgeo.comgeo import (
    classical_model,
    enumerate_max_vertices,
    gbit_model,
    gpt_marginals,
    hull_membership,
    max_tensor_constraints,
    min_tensor,
    polytope_equal,
    pr_box,
    separating_hyperplane,
)


def main():
    print("=== Classical pairs: the two composites coincide ===")
    for n_a, n_b in ((2, 2), (2, 3)):
        a, b = classical_model(n_a), classical_model(n_b)
        omin = min_tensor(a, b)
        omax = enumerate_max_vertices(max_tensor_constraints(a, b))
        print(
            f"  {n_a}x{n_b}: min has {len(omin.vertices)} vertices, "
            f"max has {len(omax.vertices)}, equal = "
            f"{polytope_equal(omin, omax, 1e-9)}"
        )

    print("\n=== Gbit pair: maximal composite is strictly larger ===")
    gb = gbit_model()
    omin = min_tensor(gb, gb)
    omax = enumerate_max_vertices(max_tensor_constraints(gb, gb))
    outside = omax.vertices[~hull_membership(omax.vertices, omin, 1e-8)]
    print(f"  minimal composite: {len(omin.vertices)} product vertices")
    print(f"  maximal composite: {len(omax.vertices)} vertices")
    print(f"  vertices outside the product hull: {len(outside)}")

    print("\n=== The PR box, certified entangled ===")
    box = pr_box()
    oa, ob = gpt_marginals(box, gb, gb)
    print(f"  marginals: {oa} and {ob} (centers of each square)")
    h, c, gap = separating_hyperplane(box.vector(), omin)
    print(f"  separating hyperplane gap: {gap:.4f}")
    worst_product = max(float(h @ v) for v in omin.vertices)
    print(f"  h . (product state) <= {worst_product:.4f} = c = {c:.4f}")
    print(f"  h . (PR box)        =  {float(h @ box.vector()):.4f}")
    print(
        "  correlation table (rows: A effects + unit, cols: B effects + unit):"
    )
    print(np.array_str(box.table(gb, gb), precision=2))


if __name__ == "__main__":
    main()
