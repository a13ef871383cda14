"""Independent numpy reference for the benchmark's output checks.

Nothing here imports entgeo: every expected value is recomputed from the
definitions, so a defect in the code under test cannot also hide in its
own check.
"""

from __future__ import annotations

import numpy as np

# Seeded state expressions: the same draws as documented for
# "random:AxB:seed=S" (pure) and "random:AxB:rank=R:seed=S" (mixed).


def pure_from_seed(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z = z / np.linalg.norm(z)
    return np.outer(z, z.conj())


def mixed_from_seed(dim: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Ginibre density matrix drawn from an existing generator."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def bell(kind: str) -> np.ndarray:
    s = 1.0 / np.sqrt(2.0)
    amps = {
        "phi+": [s, 0, 0, s],
        "phi-": [s, 0, 0, -s],
        "psi+": [0, s, s, 0],
        "psi-": [0, s, -s, 0],
    }[kind]
    v = np.array(amps, dtype=complex)
    return np.outer(v, v.conj())


def werner(p: float) -> np.ndarray:
    return p * bell("phi+") + (1.0 - p) * np.eye(4) / 4.0


# ---------------------------------------------------------------------------
# Bipartite algebra


def ptrace(rho: np.ndarray, da: int, db: int, keep: str) -> np.ndarray:
    t = rho.reshape(da, db, da, db)
    if keep == "a":
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def ptranspose_b(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    return rho.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def product_of_marginals(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.kron(ptrace(rho, da, db, "a"), ptrace(rho, da, db, "b"))


def analyze_expected(rho: np.ndarray, da: int, db: int, tol: float) -> dict:
    """The quantum fields of ``entgeo analyze``, from their definitions."""
    ra, rb = ptrace(rho, da, db, "a"), ptrace(rho, da, db, "b")
    delta = np.kron(ra, rb) - rho
    ppt = float(np.linalg.eigvalsh(ptranspose_b(rho, da, db))[0])
    if ppt < -1e-10:
        ppt_verdict = "entangled"
    elif tuple(sorted((da, db))) in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
        ppt_verdict = "separable"
    else:
        ppt_verdict = "inconclusive"
    pi_distance = float(np.linalg.norm(delta))
    return {
        "dim_a": da,
        "dim_b": db,
        "marginal_purity_a": float(np.trace(ra @ ra).real),
        "marginal_purity_b": float(np.trace(rb @ rb).real),
        "pi_distance": pi_distance,
        "sm_frobenius": pi_distance,
        "sm_trace": float(np.sum(np.abs(np.linalg.eigvalsh(delta)))),
        "ppt_min_eig": ppt,
        "product": pi_distance <= tol,
        # the singleton {rho} is a fixed point of marginalize-and-rebuild
        # exactly when rho is the product of its marginals
        "css_singleton": float(np.max(np.abs(delta))) <= 1e-8,
        "ppt": ppt_verdict,
    }


def match_rows(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """True iff the rows of got are a permutation of the rows of want."""
    got = np.asarray(got).reshape(len(got), -1)
    want = np.asarray(want).reshape(len(want), -1)
    if got.shape != want.shape:
        return False
    free = list(range(len(want)))
    for row in got:
        hit = next((j for j in free if np.max(np.abs(row - want[j])) <= tol), None)
        if hit is None:
            return False
        free.remove(hit)
    return True


# ---------------------------------------------------------------------------
# Box world (gbit): square state space in coordinates (x, y, 1)

GBIT_VERTICES = np.array(
    [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
)
GBIT_EFFECTS = np.array(
    [[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]]
)
GBIT_UNIT = np.array([0.0, 0.0, 1.0])
# Popescu-Rohrlich box: uniform marginals, correlated on three measurement
# pairs and anti-correlated on the fourth.
PR_BOX = np.array([[0.5, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 1.0]])
UNIFORM_PRODUCT = np.outer([0.5, 0.5, 1.0], [0.5, 0.5, 1.0])


def gbit_products() -> np.ndarray:
    return np.array([np.outer(a, b).ravel() for a in GBIT_VERTICES for b in GBIT_VERTICES])


def gbit_pair_in_max_tensor(coord: np.ndarray, tol: float) -> bool:
    """Nonnegative on every effect pair and normalized on the unit pair."""
    table = GBIT_EFFECTS @ coord @ GBIT_EFFECTS.T
    return table.min() >= -tol and abs(GBIT_UNIT @ coord @ GBIT_UNIT - 1.0) <= tol
