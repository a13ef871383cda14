"""Fixed-point separability machinery and entanglement measures.

The central objects are maps on convex sets of states: marginalization
lifted to polytopes, the product-and-mix hull of two marginal sets, and
their composition, whose fixed points ("convex separable subsets") are
exactly the sets recoverable from their own marginals.  A state is
separable iff it sits inside some such fixed set.

Both flavors run through one core in ``comgeo`` (``reduce_rows`` and the
broadcast multiply of ``product_composites``); ``gpt_marginals`` contracts
and checks a whole GPT vertex array with the units.  ``tau`` is the partial
trace lifted to sets: the marginals of every vertex, one
``matcore.partial_trace`` call per side, reduced.  The quantum products are
``product_composites`` of the two reduced stacks of matrices.  States are
compared in the real coordinates of ``matcore.real_coords``.

``tau`` is computed at most once per polytope and kept on it (outside the
dataclass fields, so equality and repr ignore it).  A product polytope,
built by ``lambda_map``, ``lambda_tau`` or ``css_from_decomposition``, is
born with the reduced lists it was built from as its ``tau``: the
marginals of a (x) b are a and b for normalized states, so
tau(lambda(A, B)) = (A, B) for reduced lists A and B.  So lambda_tau
rebuilds a product polytope's vertex array bit for bit, and ``is_css``
settles it as a fixed point by that identity, with no hull question.

A ``StatePolytope`` holds its vertices as one (k, n, n) complex array, and
the maps work on whole stacks.  Its vertices, when given as matrices, are
validated in one ``qstate._validated`` call, and a ``Decomposition``'s
factors in two, one per side; derived polytopes are not validated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import comgeo, matcore, qstate
from .comgeo import BilinearState, ComModel, VPolytope
from .matcore import CSS_TOL, DECISION_TOL, ROUND_TOL, VALID_TOL, DimSplit, _derived
from .qstate import DensityMatrix, _validated


def flatten_matrix(m: np.ndarray) -> np.ndarray:
    """Complex matrix -> real coordinate vector (re/im interleaved): its row
    of ``matcore.real_coords``."""
    return matcore.real_coords(np.array(m, dtype=complex)[None])[0]


@dataclass(frozen=True)
class StatePolytope:
    """Convex set of density matrices on a fixed split, given by vertices.

    ``vertices`` is one (k, n, n) complex array.  It may be given as a
    sequence of matrices, validated in one stacked pass, or of
    ``DensityMatrix`` objects, which are valid already and are not
    validated again; a sequence that mixes the two is validated whole."""

    vertices: np.ndarray
    split: DimSplit

    def __post_init__(self):
        given = self.vertices
        if len(given) == 0:
            raise ValueError("state polytope needs at least one vertex")
        valid = all(isinstance(v, DensityMatrix) for v in given)
        mats = _stack([v.mat if isinstance(v, DensityMatrix) else v for v in given], "vertices")
        object.__setattr__(self, "vertices", mats)
        if not valid:
            _validated(mats, self.split, "vertex")
        elif mats.shape[1:] != (self.split.dim,) * 2:
            raise ValueError("vertex dimension mismatch")

    def flat(self) -> np.ndarray:
        """The vertices as rows of real coordinates (``flatten_matrix``)."""
        return matcore.real_coords(self.vertices)


def _stack(mats, what: str) -> np.ndarray:
    """Matrices of one shape as one complex (k, rows, cols) array."""
    try:
        out = np.array(mats, dtype=complex)
    except ValueError:  # a ragged list
        out = None
    if out is None or out.ndim != 3:
        raise ValueError(f"{what} must be matrices of one shape")
    return out


@dataclass(frozen=True)
class Decomposition:
    """Convex combination of product states: terms (p_i, a_i, b_i)."""

    terms: tuple
    split: DimSplit

    def __post_init__(self):
        weights = np.array([t[0] for t in self.terms], dtype=float)
        # phrased so that a NaN weight fails it
        if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= VALID_TOL):
            raise ValueError(
                f"weights must be finite, nonnegative and sum to 1, got {weights.tolist()!r}"
            )
        qa, qb = DimSplit(self.split.dim_a, 1), DimSplit(1, self.split.dim_b)
        _validated(_stack([a for _, a, _ in self.terms], "A factors"), qa, "A factor")
        _validated(_stack([b for _, _, b in self.terms], "B factors"), qb, "B factor")

    def state(self) -> DensityMatrix:
        """The decomposed state, sum_i p_i a_i (x) b_i."""
        acc = sum(p * matcore.kron(a, b) for p, a, b in self.terms)
        return _derived(DensityMatrix, acc, self.split)


# the functions F and the norms of the measure family, as MeasureConfig
# and the command line accept them
F_KINDS = ("identity", "abs", "square")
NORM_KINDS = ("frobenius", "trace", "max_abs")


@dataclass(frozen=True)
class MeasureConfig:
    """Knobs of the generalized correlation measure family."""

    f_kind: str = "identity"   # one of F_KINDS
    norm_kind: str = "frobenius"  # one of NORM_KINDS

    def __post_init__(self):
        if self.f_kind not in F_KINDS:
            raise ValueError(f"unknown f_kind {self.f_kind!r}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm_kind {self.norm_kind!r}")


# ---------------------------------------------------------------------------
# Convex-set maps (quantum flavor)


def tau(c: StatePolytope) -> tuple[StatePolytope, StatePolytope]:
    """The partial trace lifted to convex sets: vertexwise marginals, reduced.

    Computed once per polytope and kept on it; a product polytope
    (``lambda_map``, ``lambda_tau``, ``css_from_decomposition``) is born with
    the reduced lists it was built from."""
    if "tau" not in c.__dict__:
        sides = (comgeo.reduce_rows(matcore.partial_trace(c.vertices, c.split, over)) for over in "ba")
        c.__dict__["tau"] = _marginal_sets(*sides)
    return c.__dict__["tau"]


def _marginal_sets(ma: np.ndarray, mb: np.ndarray) -> tuple[StatePolytope, StatePolytope]:
    """Reduced stacks of A and of B states as the pair ``tau`` returns."""
    return (
        _derived(StatePolytope, ma, DimSplit(ma.shape[-1], 1)),
        _derived(StatePolytope, mb, DimSplit(1, mb.shape[-1])),
    )


def _products(ma: np.ndarray, mb: np.ndarray) -> StatePolytope:
    """The polytope of every product ma[i] (x) mb[j] of two reduced stacks of
    states, with ``tau`` set to (ma, mb): the marginals of a (x) b are a and
    b for states of trace 1, so tau(lambda(A, B)) = (A, B)."""
    c = _derived(StatePolytope, comgeo.product_composites(ma, mb), DimSplit(ma.shape[-1], mb.shape[-1]))
    c.__dict__["tau"] = _marginal_sets(ma, mb)
    return c


def lambda_map(c1: StatePolytope, c2: StatePolytope) -> StatePolytope:
    """Hull of all pairwise products of the two vertex sets, each reduced
    first; it carries the two reduced lists as its ``tau``."""
    return _products(comgeo.reduce_rows(c1.vertices), comgeo.reduce_rows(c2.vertices))


def lambda_tau(c: StatePolytope) -> StatePolytope:
    """Marginalize, then product-and-mix; idempotent on all inputs.  The
    result carries tau(c) as its own ``tau``, so lambda_tau of it rebuilds
    the same vertices, bit for bit."""
    c1, c2 = tau(c)  # reduced already, so their products are the vertices
    return _products(c1.vertices, c2.vertices)


def is_css(c: StatePolytope) -> bool:
    """Fixed-point test: is the set invariant under marginalize-and-rebuild,
    within ``CSS_TOL``?

    An image whose vertex array equals c's, entry for entry, is a fixed
    point with no hull question asked: each vertex matches itself at gap 0,
    the answer of ``comgeo.polytope_equal``.  A product polytope carries its
    ``tau``, so lambda_tau rebuilds its vertices bit for bit and it is always
    settled so."""
    image = lambda_tau(c)
    if np.array_equal(image.vertices, c.vertices):
        return True
    return comgeo.polytope_equal(VPolytope(image.flat()), VPolytope(c.flat()), CSS_TOL)


def css_from_decomposition(d: Decomposition) -> StatePolytope:
    """Constructive separability witness from a product decomposition.

    The hull of all cross products a_i (x) b_j is invariant and contains
    the decomposed state.  The factors of each side are reduced, and the
    witness carries the two reduced lists as its ``tau``.
    """
    mats_a = _stack([a for _, a, _ in d.terms], "A factors")
    mats_b = _stack([b for _, _, b in d.terms], "B factors")
    return _products(comgeo.reduce_rows(mats_a), comgeo.reduce_rows(mats_b))


def is_product(rho: DensityMatrix, tol: float = VALID_TOL) -> bool:
    """True iff rho equals the product of its own marginals."""
    return measure_of_delta(pi_delta(rho)) <= tol


def ppt_min_eigenvalue(rho: DensityMatrix):
    """Smallest eigenvalue of the partial transpose; an array over the axes of a stack."""
    pt = matcore.partial_transpose(rho.mat, rho.split)
    w, _ = matcore.hermitian_eig(pt)
    return matcore._per_matrix(w[..., 0], pt)


def ppt_verdict(rho: DensityMatrix):
    """Partial-transpose criterion; conclusive only on 2x2 and 2x3 splits
    and on splits with a one-dimensional factor.  A str for one state, an
    array over the axes of a stack."""
    return ppt_verdict_from_eigenvalue(ppt_min_eigenvalue(rho), rho.split)


def ppt_verdict_from_eigenvalue(min_eig, split: DimSplit):
    """The PPT verdict given ``ppt_min_eigenvalue`` of a state on ``split``: a
    str for one eigenvalue, an array over the axes of an array of them."""
    dims = tuple(sorted((split.dim_a, split.dim_b)))
    # every state with a one-dimensional factor is a product
    positive = "separable" if dims[0] == 1 or dims in ((2, 2), (2, 3)) else "inconclusive"
    entangled = (np.asarray(min_eig) < -VALID_TOL) & (dims[0] > 1)
    return np.array([positive, "entangled"], dtype=object)[entangled.astype(np.intp)]


def psi_preimage_member(sigma: DensityMatrix, c1: StatePolytope, c2: StatePolytope):
    """Membership in the preimage-intersection up-map: both marginals of
    sigma must lie in the respective sets, within ``CSS_TOL``.  Entangled
    states can pass.  A bool for one state, an array over the axes of a
    stack."""
    inside = True
    for m, c in zip(qstate.marginals(sigma), (c1, c2)):
        rows = matcore.real_coords(matcore._slices(m.mat))
        inside &= comgeo.hull_membership(rows, VPolytope(c.flat()), CSS_TOL).reshape(m.mat.shape[:-2])
    return matcore._per_matrix(inside, sigma.mat)


def g_measure(rho: DensityMatrix, cfg: MeasureConfig = MeasureConfig()) -> float:
    """Correlation measure ||F(product-of-marginals - rho)||.

    Vanishes exactly on product states (for the identity F and any norm).
    """
    return measure_of_delta(pi_delta(rho), cfg)


def pi_delta(rho: DensityMatrix) -> np.ndarray:
    """pi(rho) - rho, the matrix every correlation measure is a norm of."""
    return qstate.pi_map(rho).mat - rho.mat


def measure_of_delta(delta: np.ndarray, cfg: MeasureConfig = MeasureConfig()):
    """||F(delta)|| for delta = ``pi_delta(rho)``; one delta serves every cfg.
    A float for one matrix, an array over the axes of a stack."""
    if cfg.f_kind == "abs":
        delta = np.abs(delta)
    elif cfg.f_kind == "square":
        delta = matcore._adjoint(delta) @ delta
    return matcore.norm(delta, cfg.norm_kind)


# ---------------------------------------------------------------------------
# GPT flavor


def gpt_separable(phi: BilinearState, a: ComModel, b: ComModel) -> bool:
    """Separability of a composite GPT state: membership in the hull of
    product states within ``DECISION_TOL``, decided by the projection onto
    that hull and only in a narrow band around its boundary by an LP."""
    if not comgeo.max_tensor_membership(phi, comgeo.max_tensor_constraints(a, b), DECISION_TOL):
        raise ValueError("state is outside the maximal tensor product")
    return comgeo.hull_membership(phi.vector(), comgeo.min_tensor(a, b), DECISION_TOL)


def gpt_lambda_tau(c: VPolytope, a: ComModel, b: ComModel) -> VPolytope:
    """GPT flavor of marginalize-and-rebuild on a composite-state polytope:
    the hull of the products of the vertices' marginals (``gpt_marginals``,
    which checks them).  The marginals may be redundant, so each side is
    reduced first; the products of two irredundant lists are exactly the
    vertices of their hull."""
    ma, mb = comgeo.gpt_marginals(c.vertices, a, b)
    return VPolytope(comgeo.product_composites(comgeo.reduce_rows(ma), comgeo.reduce_rows(mb)))


def classical_invariance_check(n_a: int, n_b: int) -> bool:
    """Whole-state-space invariance for a classical composite.

    Builds the composite simplex of two classical systems, applies the GPT
    marginalize-and-rebuild map, and compares hulls within ``CSS_TOL``.
    True is the expected outcome for every classical pair; non-classical
    models (box-world) fail the analogous check on their maximal tensor
    product.
    """
    if n_a < 2 or n_b < 2:
        raise ValueError("classical factors need n >= 2")
    if n_a * n_b > 32:
        raise ValueError(f"composite size {n_a * n_b} exceeds the cap of 32")
    a, b = comgeo.classical_model(n_a), comgeo.classical_model(n_b)
    omega = comgeo.min_tensor(a, b)
    return comgeo.polytope_equal(gpt_lambda_tau(omega, a, b), omega, CSS_TOL)


# ---------------------------------------------------------------------------
# Named separable decompositions


def werner_product_decomposition(p: float) -> Decomposition:
    """Explicit product decomposition of the Werner state, valid for p <= 1/3.

    Mixes the three correlated (one anti-correlated) Bloch-axis product
    pairs with the four computational-basis products:
    weights p/2 on each axis pair, (1-3p)/4 on each basis pair.
    """
    if not 0.0 <= p <= 1.0 / 3.0 + ROUND_TOL:
        raise ValueError(f"decomposition exists only for p <= 1/3, got {p}")
    s = 1.0 / np.sqrt(2.0)
    x_plus = np.array([s, s])
    x_minus = np.array([s, -s])
    y_plus = np.array([s, 1j * s])
    y_minus = np.array([s, -1j * s])
    z_plus = np.array([1.0, 0.0])
    z_minus = np.array([0.0, 1.0])

    def proj(v):
        return np.outer(v, v.conj())

    terms = [
        (p / 2, proj(x_plus), proj(x_plus)),
        (p / 2, proj(x_minus), proj(x_minus)),
        (p / 2, proj(y_plus), proj(y_minus)),  # anti-correlated axis
        (p / 2, proj(y_minus), proj(y_plus)),
        (p / 2, proj(z_plus), proj(z_plus)),
        (p / 2, proj(z_minus), proj(z_minus)),
    ]
    w = (1.0 - 3.0 * p) / 4.0
    for va in (z_plus, z_minus):
        for vb in (z_plus, z_minus):
            terms.append((w, proj(va), proj(vb)))
    return Decomposition(tuple(terms), DimSplit(2, 2))
