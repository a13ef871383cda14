"""Separability as a convex fixed-point property.

A convex set of bipartite states is a fixed point of "marginalize, then
rebuild all products" (``lambda_tau``) exactly when it is generated by
product states.  A state is separable iff some fixed-point set contains it,
so every explicit product decomposition yields a checkable witness.  This
script builds witnesses from decompositions, shows the idempotence of the
rebuild map on random polytopes, and shows why no witness can contain a
Bell state.
"""

import numpy as np

from entgeo import invsep, matcore, qstate
from entgeo.comgeo import hull_distance
from entgeo.invsep import Decomposition, StatePolytope
from entgeo.matcore import DimSplit

SPLIT = DimSplit(2, 2)


def random_qubit(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def main():
    rng = np.random.default_rng(11)

    print("=== A witness from a three-term product decomposition ===")
    w = rng.dirichlet(np.ones(3))
    terms = tuple((w[i], random_qubit(rng), random_qubit(rng)) for i in range(3))
    decomp = Decomposition(terms, SPLIT)
    witness = invsep.css_from_decomposition(decomp)
    print(f"  witness has {len(witness.vertices)} product vertices")
    print(f"  fixed point of marginalize-and-rebuild: {invsep.is_css(witness)}")
    dist, _ = hull_distance(
        invsep.flatten_matrix(decomp.state().mat), witness.flat()
    )
    print(f"  decomposed state inside the witness (residual {dist:.2e})")

    print("\n=== Marginalize-and-rebuild is idempotent ===")
    verts = tuple(
        qstate.random_mixed(SPLIT, 3, seed=100 + j).mat for j in range(3)
    )
    c = StatePolytope(verts, SPLIT)
    once = invsep.lambda_tau(c)
    print(f"  random 3-vertex polytope -> {len(once.vertices)} product vertices")
    print(f"  applying the map again changes nothing: {invsep.is_css(once)}")

    print("\n=== No fixed-point set can hold a Bell state ===")
    bell = qstate.bell_state("phi+")
    singleton = StatePolytope((bell,), SPLIT)
    print(f"  {{bell}} is a fixed point: {invsep.is_css(singleton)}")
    rebuilt = invsep.lambda_tau(singleton)
    moved = matcore.norm(rebuilt.vertices[0] - bell.mat, "frobenius")
    print(f"  the rebuild replaces it with its marginal product "
          f"(moved by {moved:.4f})")

    print("\n=== Membership in a candidate set is decidable by LP ===")
    mixed = qstate.werner_state(0.2)
    d_rand, _ = hull_distance(invsep.flatten_matrix(mixed.mat), witness.flat())
    print(f"  werner(0.2) vs the random witness above: distance {d_rand:.4f}")
    own = invsep.css_from_decomposition(invsep.werner_product_decomposition(0.2))
    d_own, cert = hull_distance(invsep.flatten_matrix(mixed.mat), own.flat())
    print(f"  werner(0.2) vs its own decomposition witness: distance {d_own:.2e}")
    print(f"  reconstruction weights sum to {cert.sum():.12f}")


if __name__ == "__main__":
    main()
