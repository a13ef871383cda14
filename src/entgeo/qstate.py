"""Bipartite quantum states: density matrices, canonical families, marginals.

A state is validated once, where its matrix enters: the ``DensityMatrix``
constructor, the JSON reader, and the ``werner_state``/``random_mixed``
families (``invsep`` adds ``StatePolytope`` vertices and ``Decomposition``
factors).  ``DensityMatrix.validate`` is the one rule set; it acts on the
last two axes, so ``_validated`` checks a stack in one call (the Werner
states of an array of p, ``invsep``'s vertices and factors).  A state that
a validity-preserving map derives from valid states (a partial trace, a
product, the projector of a normalized vector, a convex combination) is not
validated again: those maps build it with ``matcore._derived(cls, *fields)``,
which is ``cls(*fields)`` minus the validation.

All randomness flows through ``numpy.random.Generator`` seeded with PCG64,
so every ensemble is bit-reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import ROUND_TOL, VALID_TOL, DimSplit, _derived

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a bipartite system."""

    amps: np.ndarray
    split: DimSplit

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).ravel()
        object.__setattr__(self, "amps", amps)
        if amps.size != self.split.dim:
            raise ValueError(
                f"amplitude vector length {amps.size} != dim {self.split.dim}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state vector has non-finite entries")
        nrm = float(np.vdot(amps, amps).real)
        if abs(nrm - 1.0) > ROUND_TOL:
            raise ValueError(f"state vector not normalized: |psi|^2 = {nrm!r}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix tagged with its bipartite split."""

    mat: np.ndarray
    split: DimSplit

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        # one state, though validate takes a stack too
        problems = [f"shape {mat.shape} is a stack"] if mat.ndim > 2 else self.validate()
        if problems:
            raise ValueError("invalid density matrix: " + "; ".join(problems))

    def validate(self) -> list[str]:
        """Re-check all invariants; returns a list of violation messages.

        The rules act on the last two axes, as ``matcore``'s ops do, so
        ``mat`` may also be a stack of matrices along its leading axes
        (``invsep`` checks polytope vertices and decomposition factors that
        way, one call per stack).  The messages then describe the first
        slice that breaks a rule, and the first message opens with its
        index along the flattened stack axes.
        """
        n = self.split.dim
        if self.mat.shape[-2:] != (n, n):
            return [f"shape {self.mat.shape} != ({n}, {n})"]
        m = self.mat.reshape(-1, n, n)
        nonfinite = None
        if not np.isfinite(m).all():
            nonfinite = ~np.isfinite(m).all(axis=(1, 2))
            # a valid stand-in keeps the other rules quiet on these slices
            m = np.where(nonfinite[:, None, None], np.eye(n) / n, m)
        adj = matcore._adjoint(m)
        tr = m.trace(axis1=1, axis2=2)
        # the least eigenvalue of the Hermitian part, as matcore.hermitize
        # computes it; it counts only where m is Hermitian
        wmin = np.linalg.eigvalsh((m + adj) / 2)[:, 0]
        # a row per rule: Hermiticity, the trace's real and imaginary parts,
        # the least eigenvalue; phrased so that a NaN (an eigensolve that
        # overflowed) breaks the rule
        over = ~(np.array(
            [np.abs(m - adj).max(axis=(1, 2)), np.abs(tr.real - 1.0), np.abs(tr.imag), -wmin]
        ) <= _LIMITS)
        if nonfinite is None:
            if not over.any():
                return []
            nonfinite = np.zeros(len(m), dtype=bool)
        i = int((nonfinite | over.any(axis=0)).argmax())
        if nonfinite[i]:
            out = ["non-finite entries"]
        else:
            herm_dev = float(np.abs(m[i] - adj[i]).max())
            out = [f"hermiticity deviation {herm_dev:.3e}"] if over[0, i] else []
            if over[1, i] or over[2, i]:
                out.append(f"trace {complex(tr[i])!r} != 1")
            if over[3, i] and not over[0, i]:
                out.append(f"negative eigenvalue {wmin[i]:.3e}")
        if self.mat.ndim > 2:
            out[0] = f"{i}: {out[0]}"
        return out


# the limits of validate's rules, a row per rule
_LIMITS = np.array([[VALID_TOL], [VALID_TOL], [ROUND_TOL], [VALID_TOL]])


def _validated(mats: np.ndarray, split: DimSplit, what: str) -> DensityMatrix:
    """A stack of matrices as one ``DensityMatrix``, after one ``validate``
    pass over it; ValueError naming the first invalid matrix."""
    rho = _derived(DensityMatrix, mats, split)
    problems = rho.validate()
    if problems:
        raise ValueError(f"invalid {what} " + "; ".join(problems))
    return rho


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    return _derived(DensityMatrix, np.outer(psi.amps, psi.amps.conj()), psi.split)


def marginals(rho: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    """Reduced states (rho_A, rho_B) via partial trace."""
    a = matcore.partial_trace(rho.mat, rho.split, over="b")
    b = matcore.partial_trace(rho.mat, rho.split, over="a")
    return (
        _derived(DensityMatrix, a, DimSplit(rho.split.dim_a, 1)),
        _derived(DensityMatrix, b, DimSplit(1, rho.split.dim_b)),
    )


def pi_map(rho: DensityMatrix) -> DensityMatrix:
    """Product of the marginals, rho |-> rho_A (x) rho_B.

    Idempotent; its fixed points are exactly the product states.
    """
    a, b = marginals(rho)
    return _derived(DensityMatrix, matcore.kron(a.mat, b.mat), rho.split)


def purity(rho: DensityMatrix):
    """tr(rho^2); 1 exactly on pure states, 1/dim on the maximally mixed.  A
    float for one state, an array over the axes of a stack."""
    return matcore._per_matrix(np.trace(rho.mat @ rho.mat, axis1=-2, axis2=-1).real, rho.mat)


def bell_state(kind: str) -> DensityMatrix:
    """One of the four maximally entangled two-qubit states."""
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": [s, 0, 0, s],
        "phi-": [s, 0, 0, -s],
        "psi+": [0, s, s, 0],
        "psi-": [0, s, -s, 0],
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state {kind!r}; choose from {BELL_KINDS}")
    return density_from_pure(PureState(np.array(table[kind]), DimSplit(2, 2)))


_PHI_PLUS = bell_state("phi+").mat


def werner_state(p) -> DensityMatrix:
    """p |phi+><phi+| + (1-p) I/4 for p in [0, 1]; for an array of p, one
    ``DensityMatrix`` whose ``mat`` is the stack of those states."""
    q = np.asarray(p, dtype=float)[..., None, None]
    bad = ~((0.0 <= q) & (q <= 1.0))  # phrased so that a NaN fails it
    if bad.any():
        raise ValueError(f"werner parameter must lie in [0, 1], got {q[bad][0]}")
    mats = q * _PHI_PLUS + (1.0 - q) * np.eye(4) / 4.0
    return _validated(mats, DimSplit(2, 2), "werner state")


def random_pure(split: DimSplit, seed: int) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(split.dim) + 1j * rng.standard_normal(split.dim)
    return PureState(z / np.linalg.norm(z), split)


def random_mixed(split: DimSplit, rank: int, seed: int) -> DensityMatrix:
    """Random mixed state of rank <= rank via a Ginibre factor G G^dagger."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((split.dim, rank)) + 1j * rng.standard_normal(
        (split.dim, rank)
    )
    m = g @ matcore._adjoint(g)
    return DensityMatrix(m / np.trace(m).real, split)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary: QR of a Ginibre matrix with phase fixing."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def state_to_json(state) -> dict:
    """State JSON: density or pure, with the shared matrix payload."""
    if isinstance(state, DensityMatrix):
        return {
            "type": "density",
            "dim_a": state.split.dim_a,
            "dim_b": state.split.dim_b,
            "matrix": matcore.matrix_to_json(state.mat),
        }
    if isinstance(state, PureState):
        return {
            "type": "pure",
            "dim_a": state.split.dim_a,
            "dim_b": state.split.dim_b,
            "amplitudes": matcore.matrix_to_json(state.amps.reshape(-1, 1)),
        }
    raise TypeError(f"cannot serialize {type(state).__name__}")


def state_from_json(obj: dict):
    split = matcore.split_from_json(obj)
    if obj.get("type") == "density":
        return DensityMatrix(matcore.matrix_from_json(obj["matrix"]), split)
    if obj.get("type") == "pure":
        return PureState(matcore.matrix_from_json(obj["amplitudes"]).ravel(), split)
    raise TypeError(f"unknown state type {obj.get('type')!r}")
