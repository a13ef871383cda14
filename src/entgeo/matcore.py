"""Dense complex linear algebra for small bipartite systems.

Everything here operates on plain ``numpy`` arrays of complex doubles.
Matrices are kept small (side <= 64), so there is no sparsity or blocking.
Per-call overhead is what costs here, and it is trimmed where it is
measured: ``kron`` is one broadcast multiply, bit-identical to ``np.kron``
without its ``expand_dims`` plumbing, and ``comgeo.product_composites``
takes the same multiply.

``kron``, ``partial_trace``, ``partial_transpose``, ``is_hermitian``,
``hermitize``, ``hermitian_eig`` and ``norm`` act on the last two axes, so
one call serves one matrix or a stack of them (``kron`` broadcasts the
stack axes of its factors).  On a stack, each slice of the result is
bit-identical to the call on that slice alone; ``is_hermitian`` and
``norm`` return an array over the stack axes instead of a Python scalar.

Each matrix convention of the package has its one home here: the
composite index (i, k) of a ``DimSplit`` and its partial trace, which
``qstate``'s marginals and ``invsep.tau`` both take; the partial transpose
on the B factor; the adjoint (``_adjoint``); and the real coordinates of a
complex matrix (``real_coords``), re/im interleaved, in which ``comgeo``
asks its hull questions and ``invsep`` and the command line compare states.

Every tolerance of the package is an entry of the table below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# how far a quantity that vanishes on every valid input may be off (states, effects, PPT)
VALID_TOL = 1e-10
# rounding slack on a value that is known exactly (|psi|^2 = 1, Im tr rho = 0, p <= 1/3,
# hull-distance bounds that an exact proof may close)
ROUND_TOL = 1e-12
# the default geometric decision tolerance (--tol, membership, redundancy, tightness)
DECISION_TOL = 1e-9
# rows this close in the infinity norm coincide
DEDUP_TOL = 1e-8
# the default of the fixed-point tests, and the floor of css_singleton
CSS_TOL = 1e-8
# HiGHS primal and dual feasibility; at most a tenth of DECISION_TOL and CSS_TOL.  An LP
# answer is only this fine: for one hull question of the tests, HiGHS answers 7.92e-10,
# and its dual value and renormalized weights certify [7.92e-10, 1.30e-9], across the
# default --tol of 1e-9
LP_TOL = 1e-10


@dataclass(frozen=True)
class DimSplit:
    """Bipartite dimension split (dim_a, dim_b) labelling a composite matrix."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {self}")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def _derived(cls, *fields):
    """``cls(*fields)`` for a frozen dataclass minus its ``__post_init__``,
    for a value whose checks would only repeat a known answer: one that a
    validity-preserving map derives from valid values (``qstate``'s partial
    traces and products, ``invsep``'s polytopes), or one valid and
    irredundant by construction (``comgeo``'s built-in models).  Each field
    is stored as given, so it must already have its final type and shape."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, fields))
    return obj


def _as_matrix(m) -> np.ndarray:
    """m as a complex matrix, or a stack of matrices along its leading axes."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    return m


def _check_split(m: np.ndarray, split: DimSplit) -> None:
    n = split.dim
    if m.shape[-2:] != (n, n):
        raise ValueError(
            f"matrix shape {m.shape[-2:]} incompatible with split "
            f"{split.dim_a}x{split.dim_b} (expected {n}x{n})"
        )


def _per_matrix(values, m: np.ndarray):
    """values over the stack axes of m; a Python scalar when m is one matrix."""
    return values.item() if m.ndim == 2 else values


def _slices(m: np.ndarray) -> np.ndarray:
    """The matrices of a stack, along one leading axis."""
    return m.reshape(-1, *m.shape[-2:])


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def real_coords(rows: np.ndarray) -> np.ndarray:
    """Float or complex rows (each of any shape) as real vectors, one per
    leading index: a complex entry is a re/im pair, interleaved."""
    return np.ascontiguousarray(rows.reshape(len(rows), -1)).view(float)


def kron(a, b) -> np.ndarray:
    """Kronecker product with row-major composite indexing ((i,k),(j,l)).

    One broadcast multiply a[i, j] * b[k, l] at [i, k, j, l]: the same
    elementwise products as ``np.kron``, so the result is bit-identical.
    """
    return _kron(_as_matrix(a), _as_matrix(b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``kron`` of arrays of any dtype, on their last two axes.

    Both factors get the same number of axes first.  Else a one-entry
    product has factors of different shapes, which numpy sends through its
    broadcast iterator with zero strides, to its scalar complex multiply; on
    a CPU with fused multiply-add, that differs in the last bit from the
    vector loop that ``np.kron`` takes.
    """
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    a = a[(None,) * (b.ndim - a.ndim)]
    b = b[(None,) * (a.ndim - b.ndim)]
    t = a[..., :, None, :, None] * b[..., None, :, None, :]
    return t.reshape(*t.shape[:-4], ra * rb, ca * cb)


def partial_trace(m, split: DimSplit, over: str) -> np.ndarray:
    """Trace out one subsystem of a composite matrix.

    Parameters
    ----------
    m : array_like
        Square matrix of side ``split.dim``, or a stack of them.
    split : DimSplit
        Bipartite dimensions of the composite index.
    over : {"a", "b"}
        Which subsystem to trace out; the other one is retained.
    """
    m = _as_matrix(m)
    _check_split(m, split)
    t = m.reshape(*m.shape[:-2], split.dim_a, split.dim_b, split.dim_a, split.dim_b)
    if over == "b":
        return np.einsum("...ikjk->...ij", t)
    if over == "a":
        return np.einsum("...ikil->...kl", t)
    raise ValueError(f"over must be 'a' or 'b', got {over!r}")


def partial_transpose(m, split: DimSplit) -> np.ndarray:
    """Transpose the composite matrix (or each of a stack) on its B factor only."""
    m = _as_matrix(m)
    _check_split(m, split)
    t = m.reshape(*m.shape[:-2], split.dim_a, split.dim_b, split.dim_a, split.dim_b)
    return t.swapaxes(-3, -1).reshape(m.shape).copy()


def is_hermitian(m):
    """Whether m is within ``VALID_TOL`` of its adjoint (entrywise)."""
    m = _as_matrix(m)
    if m.shape[-2] != m.shape[-1]:
        return _per_matrix(np.zeros(m.shape[:-2], dtype=bool), m)
    return _per_matrix(np.max(np.abs(m - _adjoint(m)), axis=(-2, -1)) <= VALID_TOL, m)


def hermitize(m) -> np.ndarray:
    """Return the Hermitian part (M + M^dagger)/2."""
    m = _as_matrix(m)
    return (m + _adjoint(m)) / 2


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix, or of each of a stack.

    The input is symmetrized before solving to absorb rounding noise from
    upstream products; inputs farther than ``VALID_TOL`` from Hermitian are
    rejected.

    Returns
    -------
    (w, v) : eigenvalues ascending (real, along the last axis), eigenvectors
        as columns of ``v`` (orthonormal).
    """
    m = _as_matrix(m)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"eigendecomposition needs a square matrix, got {m.shape}")
    if not np.all(is_hermitian(m)):
        dev = float(np.max(np.abs(m - _adjoint(m))))
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {VALID_TOL})")
    w, v = np.linalg.eigh(hermitize(m))
    return w, v


def norm(m, kind: str = "frobenius"):
    """Matrix norm: a float for one matrix, an array over the axes of a stack.

    kind:
        "frobenius" -- sqrt of the sum of squared entry moduli
        "trace"     -- sum of singular values
        "max_abs"   -- largest entry modulus
    """
    m = _as_matrix(m)
    if kind == "frobenius":
        # np.linalg.norm of each slice: its axis=(-2, -1) form rounds differently
        norms = np.array([np.linalg.norm(s) for s in _slices(m)])
        return _per_matrix(norms.reshape(m.shape[:-2]), m)
    if kind == "max_abs":
        return _per_matrix(np.max(np.abs(m), axis=(-2, -1)), m)
    if kind == "trace":
        if m.shape[-2] != m.shape[-1]:
            raise ValueError(f"trace norm needs a square matrix, got {m.shape}")
        if np.all(is_hermitian(m)):
            w = np.linalg.eigh(hermitize(m))[0]
            return _per_matrix(np.sum(np.abs(w), axis=-1), m)
        if m.ndim > 2:
            return np.array([norm(s, kind) for s in _slices(m)]).reshape(m.shape[:-2])
        # |m| via eigenvalues of m^dagger m, square-rooted
        w = np.linalg.eigvalsh(_adjoint(m) @ m)
        return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    raise ValueError(f"unknown norm kind {kind!r}")


def matrix_to_json(m) -> dict:
    """Serialize to the shared JSON matrix format (row-major re/im lists)."""
    m = _as_matrix(m)
    if m.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def _json_ints(obj, *keys) -> list[int]:
    """The values of ``keys`` in ``obj``; TypeError unless ``obj`` is a JSON
    object and each value is a JSON integer (true is not 1, 2.0 is not 2)
    of at least 1."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if type(obj.get(key)) is not int or obj[key] < 1:
            raise TypeError(f'"{key}" must be a JSON integer >= 1, got {obj.get(key)!r}')
    return [obj[key] for key in keys]


def _json_numbers(value, depth: int, key: str) -> np.ndarray:
    """``value`` as a float array; TypeError unless it is lists nested
    ``depth`` deep of JSON numbers (true is not 1, "1" is not 1)."""
    if not _is_json_numbers(value, depth):
        what = ("a JSON number", "a flat list of JSON numbers", "a list of lists of JSON numbers")
        raise TypeError(f'"{key}" must be {what[depth]}')
    return np.array(value, dtype=float)


def _is_json_numbers(value, depth: int) -> bool:
    if depth == 0:
        return type(value) in (int, float)
    return isinstance(value, list) and all(_is_json_numbers(v, depth - 1) for v in value)


def split_from_json(obj) -> DimSplit:
    """The split of a JSON state object, from its integer "dim_a" and "dim_b"."""
    return DimSplit(*_json_ints(obj, "dim_a", "dim_b"))


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of ``matrix_to_json``; TypeError unless "re" and "im" are flat
    lists of rows * cols JSON numbers."""
    rows, cols = _json_ints(obj, "rows", "cols")
    re, im = (_json_numbers(obj.get(key), 1, key) for key in ("re", "im"))
    if len(re) != rows * cols or len(im) != rows * cols:
        raise TypeError(f"matrix payload length {len(re)}/{len(im)} does not match {rows}x{cols}")
    # set apart, so a -0.0 or an infinite part comes back as it was written
    z = re.astype(complex)
    z.imag = im
    return z.reshape(rows, cols)
