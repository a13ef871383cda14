"""entgeo: geometric entanglement toolkit for finite-dimensional statistical theories.

Quantum-side states (density matrices, marginals, the product-of-marginals
map), convex operational models as finite polytopes (classical simplices,
box-world, minimal/maximal tensor products), the fixed-point separability
machinery on convex sets, and a configurable family of correlation measures.
"""

from .matcore import (
    DimSplit,
    hermitian_eig,
    kron,
    norm,
    partial_trace,
    partial_transpose,
)
from .qstate import (
    DensityMatrix,
    PureState,
    bell_state,
    density_from_pure,
    marginals,
    pi_map,
    purity,
    random_mixed,
    random_pure,
    random_unitary,
    werner_state,
)
from .comgeo import (
    BilinearState,
    ComModel,
    HPolytope,
    VPolytope,
    classical_model,
    enumerate_max_vertices,
    gbit_model,
    gpt_marginals,
    hull_membership,
    max_tensor_constraints,
    max_tensor_membership,
    min_tensor,
    polytope_equal,
    pr_box,
    separating_hyperplane,
)
from .invsep import (
    Decomposition,
    MeasureConfig,
    StatePolytope,
    classical_invariance_check,
    css_from_decomposition,
    g_measure,
    gpt_separable,
    is_css,
    is_product,
    lambda_map,
    lambda_tau,
    measure_of_delta,
    pi_delta,
    ppt_min_eigenvalue,
    ppt_verdict,
    ppt_verdict_from_eigenvalue,
    psi_preimage_member,
    tau,
    werner_product_decomposition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
