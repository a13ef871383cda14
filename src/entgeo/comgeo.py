"""Convex operational models as finite polytopes.

States of a single model live in a real coordinate space; composite states
of a model pair live in the flattened outer-product space, where a bilinear
functional phi(a, b) on effect pairs evaluates as a^T M b with M the
coordinate matrix.  Every separability question in this package is a hull
question, and every hull question takes one path.  Its certificate
(``_certificate``), from the nearest vertex and the Euclidean projection
onto the hull (one NNLS solve), bounds the point's distance s from the hull
by lo <= s <= hi, and a question those bounds leave open goes to one settle
step (``_settle``): the exact proof of ``_prove``, else the checked LP.
Membership within tol is "in" at hi <= tol and "out" at lo > tol, for one
point or a stack of rows; a reported distance is 0 at hi <= ``LP_TOL`` and
hi at lo = hi.  A distance and its optimal separating hyperplane are the
primal and the dual of one problem, so every answer carries both: the
direction of the certificate's lower bound, the proof's residual or the
LP's dual optimum, each LP answer checked on its own before it is used.

The scipy names (``null_space``, ``linprog``, ``nnls`` and
``HalfspaceIntersection``) import their module on their first call, not
with this module: importing scipy takes most of a process's start-up, and
a quantum ``analyze`` or ``sweep`` never calls them.  They are module
attributes, looked up at call time, so a test or a tracer can replace
``linprog`` or ``nnls`` on the module.  They are callable objects, not
functions, so a tracer that wraps every public function of this module
leaves them alone.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matcore import DECISION_TOL, DEDUP_TOL, LP_TOL, ROUND_TOL, VALID_TOL
from .matcore import _derived, _kron, real_coords


class _Lazy:
    """A scipy function whose module is imported on its first call; later
    calls find the module in ``sys.modules``."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def __call__(self, *args, **kwargs):
        return getattr(importlib.import_module(self.module), self.name)(*args, **kwargs)


null_space = _Lazy("scipy.linalg", "null_space")
linprog = _Lazy("scipy.optimize", "linprog")
nnls = _Lazy("scipy.optimize", "nnls")
HalfspaceIntersection = _Lazy("scipy.spatial", "HalfspaceIntersection")

_LP_OPTIONS = {"primal_feasibility_tolerance": LP_TOL, "dual_feasibility_tolerance": LP_TOL}


@dataclass(frozen=True)
class VPolytope:
    """Convex polytope given by its vertex list (rows of ``vertices``)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.size == 0:
            raise ValueError("polytope needs at least one vertex")
        if not np.isfinite(v).all():
            raise ValueError("polytope has a NaN or inf vertex entry")
        object.__setattr__(self, "vertices", v)

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class HPolytope:
    """Half-space form: each inequality row means normal . x >= offset, and
    each equality row normal . x = value.

    The normals are (rows, ``ambient_dim``) arrays, an empty list meaning no
    rows; the offsets and values have one entry per row, and ``interior``,
    ``ambient_dim`` entries.  ``interior`` must lie strictly inside every
    inequality row that stays live on the equality hull: vertex enumeration
    starts from it.  A shape that disagrees, or a NaN or inf entry, raises
    ValueError naming it."""

    ambient_dim: int
    ineq_normals: np.ndarray
    ineq_offsets: np.ndarray
    eq_normals: np.ndarray
    eq_values: np.ndarray
    interior: np.ndarray

    def __post_init__(self):
        d = self.ambient_dim

        def store(name, value, shape):
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"H-polytope {name} has shape {value.shape}, expected {shape}")
            object.__setattr__(self, name, value)

        for normals, values in (("ineq_normals", "ineq_offsets"), ("eq_normals", "eq_values")):
            rows = np.asarray(getattr(self, normals), dtype=float)
            store(normals, rows.reshape(0, d) if rows.shape == (0,) else rows, rows.shape[:1] + (d,))
            store(values, getattr(self, values), rows.shape[:1])
        store("interior", self.interior, (d,))
        if len(self.ineq_normals) == 0 and len(self.eq_normals) == 0:
            raise ValueError("H-polytope needs at least one constraint")
        names = ("ineq_normals", "ineq_offsets", "eq_normals", "eq_values", "interior")
        # phrased so that a NaN fails it, in one pass over every entry
        if not np.isfinite(np.concatenate([getattr(self, name).ravel() for name in names])).all():
            raise ValueError("H-polytope has a NaN or inf entry")


@dataclass(frozen=True)
class ComModel:
    """Finite convex operational model: extreme states, extreme effects, unit.

    The checks run on the states as given, so a NaN, inf or out-of-range
    entry raises; then ``vertices`` keeps only the extreme ones
    (``reduce_rows``, in the order given), so every later use of the model
    starts from an irredundant list."""

    ambient_dim: int
    vertices: np.ndarray
    effects: np.ndarray
    unit: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        e = np.atleast_2d(np.asarray(self.effects, dtype=float))
        u = np.asarray(self.unit, dtype=float).ravel()
        object.__setattr__(self, "effects", e)
        object.__setattr__(self, "unit", u)
        widths = (v.shape[1], e.shape[1], u.size)
        if widths != (self.ambient_dim,) * 3:
            raise ValueError(
                f"ambient_dim {self.ambient_dim} != widths {widths} of vertices, effects, unit"
            )
        # phrased so that a NaN or inf entry fails them
        norm_err = float(np.max(np.abs(v @ u - 1.0)))
        if not norm_err <= VALID_TOL:
            raise ValueError(f"unit functional off by {norm_err:.3e} on some vertex")
        vals = v @ e.T
        if not (vals.min() >= -VALID_TOL and vals.max() <= 1.0 + VALID_TOL):
            raise ValueError("an extreme effect leaves [0, 1] on some vertex")
        object.__setattr__(self, "vertices", reduce_rows(v))


@dataclass(frozen=True)
class BilinearState:
    """Composite GPT state as a coordinate matrix M with phi(a,b) = a^T M b."""

    coord: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coord", np.asarray(self.coord, dtype=float))

    def vector(self) -> np.ndarray:
        return self.coord.ravel()

    def table(self, a: ComModel, b: ComModel) -> np.ndarray:
        """phi evaluated on (effects_A + unit_A) x (effects_B + unit_B)."""
        ea = np.vstack([a.effects, a.unit])
        eb = np.vstack([b.effects, b.unit])
        return ea @ self.coord @ eb.T


def classical_model(n: int) -> ComModel:
    """Classical n-outcome system: the standard simplex with sharp effects.
    Valid and irredundant by construction, so built without the checks."""
    if n < 2:
        raise ValueError(f"classical model needs n >= 2, got {n}")
    eye = np.eye(n)
    ones = np.ones(n)
    return _derived(ComModel, n, eye, np.vstack([eye, ones - eye]), ones)


def gbit_model() -> ComModel:
    """Box-world single system: square state space (x, y, 1) with x, y in
    [0, 1].  Valid and irredundant by construction, so built without the
    checks."""
    vertices = np.array(
        [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    )
    effects = np.array(
        [
            [1.0, 0.0, 0.0],   # first measurement, outcome 1
            [-1.0, 0.0, 1.0],  # complement
            [0.0, 1.0, 0.0],   # second measurement, outcome 1
            [0.0, -1.0, 1.0],  # complement
        ]
    )
    unit = np.array([0.0, 0.0, 1.0])
    return _derived(ComModel, 3, vertices, effects, unit)


def pr_box() -> BilinearState:
    """Extremal non-signaling state of a gbit pair: uniform marginals,
    perfect correlation on three measurement pairs, anti-correlation on
    the (second, second) pair."""
    return BilinearState(
        np.array([[0.5, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 1.0]])
    )


# ---------------------------------------------------------------------------
# Hull questions: certificates first, LPs last


def hull_distance(x, vertices) -> tuple[float, np.ndarray]:
    """Chebyshev (infinity-norm) distance s from x to the convex hull of the
    rows ``vertices``, with weights lam (lam >= 0, sum lam = 1) whose
    combination lam @ vertices is within s of x.

    Read off the bounds lo <= s <= hi of ``_certificate`` at ``LP_TOL``:
    s = 0 where hi <= ``LP_TOL`` (the LP runs at feasibility tolerance
    ``LP_TOL``, so it cannot tell such a point from the hull), s = hi where
    lo = hi (as for a hull of one vertex), and otherwise that of ``_settle``.
    """
    answer = _answer(x, VPolytope(vertices))
    return answer.distance, answer.weights


@dataclass(frozen=True)
class _Answer:
    """A hull distance (``distance``), weights that attain it, and an
    optimal separating hyperplane (h, c, gap): |h|_inf = 1, h.v <= c on
    every vertex and gap = h.x - c = |h|_1 distance, or h = 0, c = gap = 0
    for a point in the hull."""

    distance: float
    weights: np.ndarray
    hyperplane: tuple[np.ndarray, float, float]


def _answer(x, p: VPolytope) -> _Answer:
    """The answer on the distance of x (raveled) from the hull of p."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.ambient_dim:
        raise ValueError(f"point dim {x.size} != polytope ambient dim {p.ambient_dim}")
    return _distance(x, p.vertices, *_certificate(x, p.vertices, LP_TOL))


def _distance(x, v, lo, hi, lam, h) -> _Answer:
    """``hull_distance`` of x from the rows v, given the certificate
    (lo, hi, lam, h) of x, as the answer of the step that settles it."""
    if hi <= LP_TOL:
        return _Answer(0.0, lam, (np.zeros(len(x)), 0.0, 0.0))
    if lo == hi:
        return _Answer(hi, lam, _hyperplane(x, v, h))
    return _settle(x, v, lo, hi, lam)


def _settle(x: np.ndarray, v: np.ndarray, lo: float, hi: float, lam: np.ndarray) -> _Answer:
    """The answer of ``_prove`` on a question left open, else the checked LP's."""
    return _prove(x, v, lo, hi, lam) or _lp_distance(x, v)


def _hyperplane(x: np.ndarray, v: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(h, c, gap) of a direction h != 0 scaled to |h|_inf = 1: c = max_i h.v_i."""
    h = h / np.abs(h).max()
    top = float(np.max(v @ h))
    return h, top, float(h @ x) - top


def max_hull_distance(questions) -> float:
    """The largest ``hull_distance(x, v)[0]`` over each pair (xs, v) of
    ``questions`` and each row x of xs, with an LP only where it may be the
    largest.

    The certificate of each row (``_certificate``) settles or bounds its
    distance.  The rows go in order of their upper bounds, largest first,
    and the distance of a row is found as ``hull_distance`` finds it only
    while its upper bound reaches the best lower bound so far: the largest
    of the rows' lower bounds and of the distances found.  The LP answers
    within its feasibility tolerance, so "reaches" allows 2 ``LP_TOL``.  A
    row below cannot hold the maximum, so the result is the same LP on the
    same input as a maximum over every row, and ties go to the first row as
    there.
    """
    found = []
    for xs, v in questions:
        v = VPolytope(v).vertices
        found += [(x, v, *_certificate(x, v, LP_TOL)) for x in np.atleast_2d(xs)]
    best = max(lo for _, _, lo, *_ in found)
    dist = {}
    for i in sorted(range(len(found)), key=lambda i: -found[i][3]):
        if dist and found[i][3] < best - 2 * LP_TOL:
            break
        dist[i] = _distance(*found[i]).distance
        best = max(best, dist[i])
    return max(dist[i] for i in sorted(dist))


def _lp_distance(x: np.ndarray, v: np.ndarray) -> _Answer:
    """Solves  min s  s.t.  |V^T lam - x| <= s,  sum lam = 1,  lam >= 0
    and returns s, lam and the hyperplane of its dual optimum, after
    checking each on its own, within ``_lp_slack``, else RuntimeError.

    lam must be a probability vector with |lam @ v - x|_inf = s: no weight
    below -slack, and a weight sum within n slack of 1 for the n weights,
    since the equality row adds the n misses of its entries.  The dual
    (Boyd & Vandenberghe 2004, sec. 8.1) is  max h.x - max_i h.v_i  s.t.
    |h|_1 <= 1, and h is the difference of the multipliers of the rows
    V^T lam - x <= s and x - V^T lam <= s; it must have |h|_1 <= 1 and
    h.x - max_i h.v_i = s.  Scaled to |h|_inf = 1 it separates x from the
    hull by gap = |h|_1 s; where s is within ``_lp_slack`` of 0 the LP
    cannot separate x, and the hyperplane is h = 0, c = gap = 0.
    """
    n, d = v.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.block(
        [[v.T, -np.ones((d, 1))], [-v.T, -np.ones((d, 1))]]
    )
    b_ub = np.concatenate([x, -x])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None),
        method="highs", options=_LP_OPTIONS
    )
    if res.status != 0:
        raise RuntimeError(f"hull-distance LP failed: {res.message}")
    s, lam = float(res.fun), res.x[:n]
    # HiGHS's marginals are d fun / d b_ub, so <= 0 in a minimization
    h = res.ineqlin.marginals[:d] - res.ineqlin.marginals[d:]
    resid = float(np.abs(lam @ v - x).max())
    slack = _lp_slack(x, v)
    # phrased so that a NaN fails them
    if not (lam.min() >= -slack and abs(lam.sum() - 1.0) <= n * slack):
        raise RuntimeError("hull-distance LP answer is not a probability vector")
    if not abs(resid - s) <= slack:
        raise RuntimeError(f"hull-distance LP answer {s!r} is off its residual {resid!r}")
    if not (np.abs(h).sum() <= 1.0 + slack and abs(h @ x - np.max(v @ h) - s) <= slack):
        raise RuntimeError(f"hull-distance LP dual is not a hyperplane at distance {s!r}")
    if not s > slack:  # then h may be 0, and x is in the hull at the LP's resolution
        return _Answer(s, lam, (np.zeros(d), 0.0, 0.0))
    return _Answer(s, lam, _hyperplane(x, v, h))


def _lp_slack(x: np.ndarray, v: np.ndarray) -> float:
    """How far an LP answer at feasibility tolerance ``LP_TOL`` may miss a
    constraint, recomputed: ``LP_TOL`` per unit of the largest entry of x
    and of the rows v, since HiGHS scales the problem by its entries (at
    entries near 1000 a weight sum misses 1 by up to ``LP_TOL``)."""
    return LP_TOL * (1.0 + max(float(np.abs(v).max()), float(np.abs(x).max())))


def hull_membership(x, p: VPolytope, tol: float):
    """Whether x is within tol, in the infinity norm, of the convex hull of
    the vertices: a bool array for the rows of a 2-D x, else a bool for x
    as one point (raveled).

    Each point is decided by the first of these that settles it: a vertex
    within tol (every row in one pairwise comparison, ``_nearest_gaps``),
    the bounds lo <= s <= hi of ``_certificate`` on its hull distance s
    ("in" at hi <= tol, "out" at lo > tol), and the settle step
    (``_settle``).  A point with a NaN or inf entry raises ValueError.
    """
    xs = np.asarray(x, dtype=float)
    stacked = xs.ndim == 2
    xs = xs if stacked else xs.reshape(1, -1)
    if xs.shape[1] != p.ambient_dim:
        raise ValueError(f"point dim {xs.shape[1]} != polytope ambient dim {p.ambient_dim}")
    inside = np.ones(len(xs), dtype=bool)
    inside[list(_outside(xs, p.vertices, tol))] = False
    return inside if stacked else bool(inside[0])


def _outside(xs: np.ndarray, v: np.ndarray, tol: float):
    """Indices of the rows of xs farther than tol from the hull of the rows v,
    in order and one at a time, so that a caller can stop at the first.

    The nearest vertices of all rows come from one pairwise comparison
    (``_nearest_gaps``); only the rows that match none go on to
    ``_certificate`` and, where its bounds leave the question open, to
    ``_settle``, whose answer is compared with tol as it is.
    """
    for k in np.flatnonzero(~(_nearest_gaps(xs, v) <= tol)):
        lo, hi, lam, _ = _certificate(xs[k], v, tol)
        if hi > tol and (lo > tol or _settle(xs[k], v, lo, hi, lam).distance > tol):
            yield int(k)


def _nearest_gaps(xs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min_j |xs_i - v_j|_inf for each row xs_i, from pairwise comparisons
    whose temporaries hold at most ``_DEDUP_ENTRIES`` floats each (bar one
    pair of wider rows): chunks of v, each against chunks of xs.  ``np.fmin``
    skips a NaN gap, so gap <= tol iff some row of v is near."""
    if len(xs) * v.size <= _DEDUP_ENTRIES or len(xs) == len(v) == 1:
        return np.fmin.reduce(np.abs(xs[:, None] - v).max(axis=2), axis=1)
    if v.size > _DEDUP_ENTRIES and len(v) > 1:
        step = max(1, _DEDUP_ENTRIES // v.shape[1])
        return np.fmin.reduce([_nearest_gaps(xs, v[j:j + step]) for j in range(0, len(v), step)])
    step = max(1, _DEDUP_ENTRIES // v.size)
    return np.concatenate([_nearest_gaps(xs[i:i + step], v) for i in range(0, len(xs), step)])


def _certificate(x: np.ndarray, v: np.ndarray, tol: float) -> tuple:
    """Bounds lo <= s <= hi on the Chebyshev distance s from x to the hull of
    the rows v, weights lam of a point lam @ v of the hull within hi of x,
    and a direction h whose dual value (h.x - max_i h.v_i) / |h|_1 is lo
    where lo > 0, for a question asked at tol.

    The nearest vertex is a point of the hull, and its gap is s itself when
    the hull has no other point (lo = hi, with h = sign(x_j - v_j) e_j at
    the largest |x_j - v_j|).  Otherwise, unless that gap is
    within tol and so answers the question already, the Euclidean
    projection y = lam @ v of x onto the hull (``_project``) gives h = x - y,
    a second point within |h|_inf, and lo = (h.x - max_i h.v_i) / |h|_1,
    since |h.(x - z)| <= |h|_1 |x - z|_inf for every z in the hull; hi and
    lam are those of the nearer of the two points.  Both bounds are
    recomputed from lam, so an inexact NNLS answer can weaken them but not
    make them wrong.  Without the projection (skipped, or NNLS stopped at
    its iteration limit) lo = 0.  A NaN or inf in x raises ValueError.
    """
    if not np.isfinite(x).all():
        raise ValueError("point has a NaN or inf entry")
    gaps = np.abs(v - x).max(axis=1)
    i = int(gaps.argmin())
    gap = float(gaps[i])
    vertex = np.zeros(len(v))
    vertex[i] = 1.0
    if len(v) == 1:
        h = np.zeros(len(x))
        j = int(np.abs(x - v[0]).argmax())
        h[j] = np.sign(x[j] - v[0, j])
        return gap, gap, vertex, h
    lam = _project(x, v) if gap > tol else None
    if lam is None:
        return 0.0, gap, vertex, np.zeros(len(x))
    h = x - lam @ v
    norm1 = float(np.abs(h).sum())
    lo = max(0.0, float(h @ x - np.max(v @ h)) / norm1) if norm1 else 0.0
    hi = float(np.abs(h).max())
    return (lo, hi, lam, h) if hi < gap else (lo, gap, vertex, h)


def _project(x: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Weights lam of the Euclidean projection y = lam @ v of x onto the hull
    of the rows v; None if NNLS stops at its iteration limit.

    mu = nnls([(v - x)^T; 1^T], e_last) gives lam = mu / sum(mu) (Lawson &
    Hanson 1974, as in Wolfe's minimum-norm point, Math. Programming 11, 128
    (1976)): with s = sum(mu) the objective is s^2 |y - x|^2 + (s - 1)^2,
    whose minimum over s, |y - x|^2 / (1 + |y - x|^2), grows with |y - x|,
    so the minimizing lam gives the nearest y.  lam is a certificate only
    after its residual x - lam @ v is recomputed.
    """
    a = np.vstack([(v - x).T, np.ones(len(v))])
    b = np.zeros(len(x) + 1)
    b[-1] = 1.0
    try:
        mu = nnls(a, b)[0]
    except RuntimeError:  # the iteration limit
        return None
    return mu / mu.sum()


def separating_hyperplane(x, p: VPolytope) -> tuple[np.ndarray, float, float]:
    """An optimal hyperplane separating x from the hull of p: (h, c, gap)
    with |h|_inf = 1, h.v <= c on every vertex and gap = h.x - c, where
    gap / |h|_1 is the ``hull_distance`` s of x, so gap > 0 certifies that x
    is not in the hull.  A point in the hull (s = 0 within ``LP_TOL``, or
    within ``_lp_slack`` for the LP) gets h = 0, c = gap = 0.

    h / |h|_1 maximizes h.x - max_i h.v_i over |h|_1 <= 1, the dual of s.
    Where the certificate's bounds meet, h is the direction of its lower
    bound; where ``_prove`` proves s exactly from weights lam~, h is
    (x - lam~ @ v) / |x - lam~ @ v|_inf and c = max_i h.v_i, with no LP;
    otherwise h is the dual optimum of the distance LP (``_lp_distance``).
    """
    return _answer(x, p).hyperplane


# largest denominator of a weight snapped by _prove; the weights of a
# projection onto a face whose vertices are small integer points are
# rationals of small denominator
_SNAP_DENOMINATOR = 4096


def _prove(x: np.ndarray, v: np.ndarray, lo: float, hi: float, lam: np.ndarray) -> _Answer | None:
    """An exact proof of the Chebyshev distance s from x to the hull of the
    rows v, where the certificate's float bounds lo <= s <= hi meet up to
    rounding (hi - lo <= ``ROUND_TOL``); None where they do not, or where
    the proof fails.

    Each weight of lam is snapped to the nearest rational of denominator at
    most ``_SNAP_DENOMINATOR``.  Every float is a dyadic rational, so x and
    v are integers times one power of two, and in integer arithmetic the
    proof checks that the snapped weights lam~ are >= 0 and sum to 1, forms
    h = x - lam~ @ v (a point of the hull is within |h|_inf of x), and
    accepts iff (h.x - max_i h.v_i) / |h|_1 = |h|_inf, the lower bound of
    ``_certificate`` for this h.  Then s = |h|_inf exactly, and
    h / |h|_inf is an optimal separating hyperplane; h = 0 proves x a
    member (s = 0, with h = 0, c = gap = 0).
    """
    if not hi <= lo + ROUND_TOL:
        return None
    snapped = [Fraction(w).limit_denominator(_SNAP_DENOMINATOR) for w in lam.tolist()]
    if min(snapped) < 0 or sum(snapped) != 1:
        return None
    den = math.lcm(*(f.denominator for f in snapped))
    weights = np.array([f.numerator * (den // f.denominator) for f in snapped], dtype=object)
    ints, exp = _dyadic(np.vstack([x, v]))
    # x = xi 2^exp, v = vi 2^exp and h = x - lam~ @ v = hn 2^exp / den
    xi, vi = ints[0], ints[1:]
    support = np.flatnonzero(weights)
    hn = den * xi - weights[support] @ vi[support]
    scores = vi @ hn
    norm1, norminf = sum(abs(k) for k in hn), max(abs(k) for k in hn)
    top = max(scores)
    if den * (hn @ xi - top) != norm1 * norminf:
        return None
    scale = norminf or 1  # h = 0, c = gap = 0 where lam~ @ v = x
    h = np.array([k / scale for k in hn], dtype=float)
    return _Answer(
        distance=_nearest_float(norminf, den, exp),
        weights=np.array([float(f) for f in snapped]),
        hyperplane=(h, _nearest_float(top, scale, exp), _nearest_float(norm1, den, exp)),
    )


def _nearest_float(num: int, den: int, exp: int) -> float:
    """The float nearest to num 2^exp / den (Python's int division rounds
    correctly at any size)."""
    return (num << exp) / den if exp >= 0 else num / (den << -exp)


def _dyadic(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Integers n (an object array shaped as a) and one exponent e with
    a = n 2^e exactly, for a finite float array a."""
    mant, exps = np.frexp(a)
    n = (mant * 2.0**53).astype(np.int64)  # exact: |mant| < 1
    exps = exps.astype(np.int64) - 53
    live = n != 0
    e = int(exps[live].min()) if live.any() else 0
    return n.astype(object) << np.where(live, exps - e, 0).astype(object), e


# entries in one float temporary of a pairwise comparison (8 MB)
_DEDUP_ENTRIES = 2**20


def dedup_rows(points: np.ndarray) -> np.ndarray:
    """Drop each row (real or complex, any shape) within ``DEDUP_TOL``, in
    the infinity norm of its ``matcore.real_coords``, of an earlier kept row.
    The kept rows come back as a new float or complex array, never a view
    of ``points``.

    A NaN or inf entry raises ValueError before any comparison: NaN
    compares false both ways, so such a row would be neither near nor far
    from any other, and the hull of a list holding one means nothing.
    Checked here, it gives the same answer for every list, where the later
    steps of ``reduce_rows`` (or none, for a short list) would each fail or
    pass it in their own way.

    Rows go in blocks whose pairwise comparison fits ``_DEDUP_ENTRIES``.  A
    row near a row kept from an earlier block is dropped
    (``_nearest_gaps``).  Among the block's other rows, keep_i = "no earlier
    kept row of the block is near" is iterated to its fixed point, which is
    unique because keep_i depends only on the rows before i; it is reached
    in as many steps as the longest chain of near rows.
    """
    points = np.atleast_2d(np.asarray(points))
    points = points.astype(complex if np.iscomplexobj(points) else float, copy=False)
    coords = real_coords(points)
    if not np.isfinite(coords).all():
        raise ValueError("a row has a NaN or inf entry")
    size = max(1, math.isqrt(_DEDUP_ENTRIES // max(1, coords.shape[1])))
    keep = np.zeros(len(coords), dtype=bool)
    for start in range(0, len(coords), size):
        rows = np.arange(start, min(start + size, len(coords)))
        if start:  # the first block has no kept row before it
            rows = rows[~(_nearest_gaps(coords[rows], coords[:start][keep[:start]]) <= DEDUP_TOL)]
        block = coords[rows]
        # every pair of the block at once, as booleans: on the small blocks of
        # reduce_rows this is faster than the float gaps of _nearest_gaps
        near = (np.abs(block[:, None] - block) <= DEDUP_TOL).all(axis=2)
        ok = np.ones(len(rows), dtype=bool)
        # near is symmetric, so two distinct rows are near exactly when it has
        # more true entries than its diagonal; else every row is kept
        if np.count_nonzero(near) > np.count_nonzero(near.diagonal()):
            earlier = np.tril(near, -1)
            while True:
                new = ~(earlier & ok).any(axis=1)
                if (new == ok).all():
                    break
                ok = new
        keep[rows[ok]] = True
    return points[keep]


def _strict_maximizers(pts: np.ndarray, tol: float) -> np.ndarray:
    """Mask of rows certified to lie more than tol (infinity norm) from the
    hull of all other rows.

    A row that beats every other row on a direction h by more than
    tol * |h|_1 is certified, since |h.(x - y)| <= |h|_1 |x - y|_inf.  The
    directions tried are +-e_i, whose scores are the columns of +-pts and
    whose |h|_1 is 1, and each row minus the centroid (frame finding as in
    Dula & Helgason 1996).
    """
    certified = np.zeros(len(pts), dtype=bool)
    if len(pts) < 2:
        return certified
    centred = pts - pts.mean(axis=0)
    scores = np.hstack([pts, -pts, pts @ centred.T])
    norms = np.concatenate([np.ones(2 * pts.shape[1]), np.abs(centred).sum(axis=1)])
    ranked = np.sort(scores, axis=0)
    gap = ranked[-1] - ranked[-2]
    certified[scores.argmax(axis=0)[gap > tol * norms]] = True
    return certified


def reduce_rows(rows) -> np.ndarray:
    """Drop every row in the hull of the rest, in the coordinates of
    ``matcore.real_coords`` (a complex entry counts as a re/im pair).  Kept
    rows come back as given, in a new array, and a NaN or inf entry raises
    ValueError (both as in ``dedup_rows``).

    At most two rows left by ``dedup_rows`` are all kept: two kept rows are
    more than ``DEDUP_TOL`` apart, so each is farther than ``DECISION_TOL``
    from the hull of the other.  A row certified extreme by a strict
    maximizer is kept without an LP; the LP would keep it against any subset
    of the other rows.  Every other row is tested against the rows still
    kept by ``hull_membership``, so the result is that of the plain
    sequential LP pass at ``DECISION_TOL``."""
    rows = dedup_rows(rows)
    pts = real_coords(rows)
    if len(pts) <= 2:
        return rows
    extreme = _strict_maximizers(pts, DECISION_TOL)
    if extreme.all():
        return rows
    keep = list(range(len(pts)))
    for k in np.flatnonzero(~extreme):
        others = [j for j in keep if j != k]
        if others and hull_membership(pts[k], VPolytope(pts[others]), DECISION_TOL):
            keep.remove(k)
    return rows[keep]


def polytope_equal(p: VPolytope, q: VPolytope, tol: float) -> bool:
    """Hull equality by mutual vertex membership: the vertices of p in the
    hull of q, then those of q in the hull of p, each direction one pass of
    ``_outside`` that stops at the first vertex outside, so the verdict and
    the LPs are those of ``hull_membership`` called vertex by vertex up to
    that vertex.

    Two equal vertex arrays, entry for entry, are equal hulls at any
    tol >= 0 with no hull question asked: each vertex matches itself at gap
    0, which is the passes' answer."""
    if p.ambient_dim != q.ambient_dim:
        raise ValueError(
            f"ambient dims differ: {p.ambient_dim} vs {q.ambient_dim}"
        )
    if tol >= 0 and np.array_equal(p.vertices, q.vertices):
        return True
    return all(
        next(_outside(a.vertices, b.vertices, tol), None) is None for a, b in ((p, q), (q, p))
    )


# ---------------------------------------------------------------------------
# Tensor products


def product_composites(xa, xb) -> np.ndarray:
    """Every product xa[i] (x) xb[j], i slowest, of two stacks of rows (as rows)
    or of matrices (as ``matcore.kron`` matrices), in one ``_kron`` call.
    Nothing is reduced: products of irredundant lists are exactly the
    vertices of their hull (Namioka & Phelps, Pacific J. Math. 1969)."""
    xa, xb = np.asarray(xa), np.asarray(xb)
    rows = xa.ndim == 2
    if rows:  # a row as a 1 x d matrix
        xa, xb = xa[:, None], xb[:, None]
    prods = _kron(xa[:, None], xb[None])  # stacks that broadcast to (ka, kb)
    return prods.reshape(len(xa) * len(xb), *prods.shape[-1 if rows else -2:])


def min_tensor(a: ComModel, b: ComModel) -> VPolytope:
    """Minimal tensor product: hull of all product states, as a V-polytope.
    Each model holds only its extreme states, so their products are exactly
    the vertices (``product_composites``), and nothing is reduced here."""
    return VPolytope(product_composites(a.vertices, b.vertices))


def max_tensor_constraints(a: ComModel, b: ComModel) -> HPolytope:
    """Maximal tensor product in H-form over the flattened bilinear space:
    phi(e_i, f_j) >= 0 on all extreme effect pairs, phi(u_A, u_B) = 1."""
    normals = product_composites(a.effects, b.effects)
    return HPolytope(
        ambient_dim=a.ambient_dim * b.ambient_dim,
        ineq_normals=normals,
        ineq_offsets=np.zeros(len(normals)),
        eq_normals=np.outer(a.unit, b.unit).ravel()[None, :],
        eq_values=np.array([1.0]),
        # phi(e, f) = e(c_A) f(c_B) at the product of the two vertex centroids
        interior=np.outer(a.vertices.mean(axis=0), b.vertices.mean(axis=0)).ravel(),
    )


def max_tensor_membership(phi, h: HPolytope, tol: float) -> bool:
    """True iff the bilinear state (or every row of a 2-D array of flattened
    states) satisfies every constraint within tol; a NaN or inf entry fails."""
    x = phi.vector() if isinstance(phi, BilinearState) else np.asarray(phi, float)
    if x.shape[-1] != h.ambient_dim:
        raise ValueError(f"state dim {x.shape[-1]} != constraint dim {h.ambient_dim}")
    x = np.atleast_2d(x)
    if len(h.ineq_normals) and not np.min(x @ h.ineq_normals.T - h.ineq_offsets) >= -tol:
        return False
    if len(h.eq_normals) and not np.max(np.abs(x @ h.eq_normals.T - h.eq_values)) <= tol:
        return False
    return True


def gpt_marginals(
    phi, a: ComModel, b: ComModel, tol: float = DECISION_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal state vectors (omega_A, omega_B) via unit contraction; for a
    2-D phi of flattened states, one row of each per state.

    omega_A is defined by omega_A(e) = phi(e, u_B) for every effect e, which
    in coordinates is M u_B; symmetrically for B.  ValueError unless phi is
    in the maximal tensor product and each marginal in its model, within tol.
    """
    x = phi.vector() if isinstance(phi, BilinearState) else np.asarray(phi, float)
    if not max_tensor_membership(x, max_tensor_constraints(a, b), tol):
        raise ValueError("state is outside the maximal tensor product")
    m = x.reshape(*x.shape[:-1], a.ambient_dim, b.ambient_dim)
    omega_a, omega_b = m @ b.unit, a.unit @ m
    if not np.all(hull_membership(omega_a, VPolytope(a.vertices), tol)):
        raise ValueError("A-marginal left the model state space")
    if not np.all(hull_membership(omega_b, VPolytope(b.vertices), tol)):
        raise ValueError("B-marginal left the model state space")
    return omega_a, omega_b


# largest ambient dimension whose maximal tensor product is enumerated
ENUM_DIM_CAP = 12


def max_tensor_vertices(a: ComModel, b: ComModel) -> VPolytope:
    """The vertices of the maximal tensor product of a and b, of ambient
    dimension at most ``ENUM_DIM_CAP``.

    A classical factor (``_is_classical``, a simplex) admits no
    entanglement: the maximal product is then the minimal one (Namioka &
    Phelps, Pacific J. Math. 31, 469 (1969); Aubrun, Lami, Palazuelos &
    Plavala, GAFA 31, 181 (2021)).  For A classical with vertices v_i and
    dual basis e_i, every state is sum_i v_i (x) psi_i with psi_i = (e_i (x)
    1) phi, and every effect of A is a nonnegative combination of the e_i,
    so max(A, B) = {sum_i v_i (x) psi_i : F_B psi_i >= 0, sum_i u_B psi_i = 1}.
    Its vertices are the products v_i (x) w, A slowest
    (``product_composites``), with w the vertices of B where B is classical
    too, and otherwise those of B's own effect polytope {x : F_B x >= 0,
    u_B x = 1}, enumerated in B's dimension (``enumerate_max_vertices``,
    around the centroid of B's vertices).  Only B classical is the mirror
    image, with A's effect polytope slowest.  A pair with no classical
    factor goes to ``enumerate_max_vertices(max_tensor_constraints(a, b))``.
    The products are checked against the constraints as the enumeration's
    vertices are, within ``DECISION_TOL``, else RuntimeError.

    Raises as ``enumerate_max_vertices`` does, the cap included, on either
    path.
    """
    h = max_tensor_constraints(a, b)
    if h.ambient_dim > ENUM_DIM_CAP:
        raise ValueError(f"ambient dim {h.ambient_dim} exceeds enumeration cap {ENUM_DIM_CAP}")
    classical_a, classical_b = _is_classical(a), _is_classical(b)
    if not (classical_a or classical_b):
        return enumerate_max_vertices(h)
    if classical_a:
        verts = product_composites(a.vertices, b.vertices if classical_b else _effect_vertices(b))
    else:
        verts = product_composites(_effect_vertices(a), b.vertices)
    if not max_tensor_membership(verts, h, DECISION_TOL):
        raise RuntimeError("a product vertex violates a constraint")
    return VPolytope(verts)


def _is_classical(m: ComModel) -> bool:
    """Whether m is a simplex with its dual basis among its effects, by exact
    float tests with no tolerance: ``ambient_dim`` vertices, every effect
    >= 0 and the unit 1 on each vertex, and for each vertex an effect that
    is 1 there and 0 on the others."""
    n = m.ambient_dim
    if len(m.vertices) != n:
        return False
    vals = m.vertices @ m.effects.T  # vals[i, j]: effect j on vertex i
    dual = (vals.T[None] == np.eye(n)[:, None]).all(axis=2).any(axis=1)
    return bool((vals >= 0).all() and (m.vertices @ m.unit == 1).all() and dual.all())


def _effect_vertices(m: ComModel) -> np.ndarray:
    """The vertices of m's effect polytope {x : F x >= 0, u x = 1}."""
    return enumerate_max_vertices(
        HPolytope(
            ambient_dim=m.ambient_dim,
            ineq_normals=m.effects,
            ineq_offsets=np.zeros(len(m.effects)),
            eq_normals=m.unit[None],
            eq_values=np.array([1.0]),
            interior=m.vertices.mean(axis=0),
        )
    ).vertices


def enumerate_max_vertices(h: HPolytope) -> VPolytope:
    """All extreme points of a bounded H-polytope, of ambient dimension at
    most ``ENUM_DIM_CAP``, from its interior point.  It is the general path
    of ``max_tensor_vertices``, which settles a pair with a classical factor
    by theorem (Namioka & Phelps 1969; Aubrun, Lami, Palazuelos & Plavala,
    GAFA 31, 181 (2021)) and enumerates at most the other factor's own
    effect polytope.

    On the equality rows' affine hull x = x0 + N y (N their null space),
    Qhull's halfspace intersection (Barber, Dobkin & Huhdanpaa 1996) gives
    the extreme points around ``h.interior`` projected onto that hull
    (``max_tensor_constraints`` sets the product of the model centroids).
    Each point is snapped to a certified vertex: among the inequality rows
    tight at it (within ``DECISION_TOL``), scanned in index order, keep
    every row independent of the equality rows and of the rows kept so far.
    That is the lexicographically first basis; full rank proves a vertex.
    One scan of the constraint rows certifies every point at once
    (``_first_bases``), and one stacked solve of the square systems of the
    distinct bases yields the vertices, in order of their bases.  Qhull's
    points are not deduplicated: a repeated point has the same first basis,
    and the bases are deduplicated.  Basic-solution enumeration over the
    row subsets in lexicographic order, keeping the first hit of each
    vertex, meets that same basis first, so it yields the same values in
    the same order.

    Raises ``ValueError`` when the equality rows are dependent, when a row
    that is constant on their hull is false there (empty), when the
    interior point is not more than ``DECISION_TOL`` inside every other
    row, when the H-polytope is unbounded, or when its ambient dimension
    exceeds ``ENUM_DIM_CAP``.
    """
    d = h.ambient_dim
    if d > ENUM_DIM_CAP:
        raise ValueError(f"ambient dim {d} exceeds enumeration cap {ENUM_DIM_CAP}")
    tol = DECISION_TOL
    eq, ineq, offsets = h.eq_normals, h.ineq_normals, h.ineq_offsets
    null = null_space(eq)
    k = null.shape[1]
    if k != d - len(eq):
        raise ValueError("equality rows are linearly dependent")
    x0 = np.linalg.lstsq(eq, h.eq_values, rcond=None)[0]
    # on the hull: ineq @ (x0 + null @ y) >= offsets reads a @ y >= rhs
    a, rhs = ineq @ null, offsets - ineq @ x0
    scale = np.linalg.norm(ineq, axis=1)
    norms = np.linalg.norm(a, axis=1)
    live = norms > tol * scale
    if (rhs[~live] > tol).any():
        raise ValueError("H-polytope is empty")
    unit, unit_rhs = a[live] / norms[live, None], rhs[live] / norms[live]
    centre = null.T @ (h.interior - x0)
    if not (unit @ centre - unit_rhs > tol).all():
        raise ValueError("H-polytope's interior point is not strictly inside every live inequality row")
    ys = _extreme_points(unit, unit_rhs, centre) if k else np.zeros((1, 0))
    points = x0 + ys @ null.T
    bases = _first_bases(a, scale, np.abs(points @ ineq.T - offsets) <= tol, tol)
    # each basis's square system [eq; ineq[basis]], all in one stacked solve
    n = len(bases)
    systems = np.concatenate([np.broadcast_to(eq, (n, *eq.shape)), ineq[bases]], axis=1)
    values = np.concatenate([np.broadcast_to(h.eq_values, (n, len(eq))), offsets[bases]], axis=1)
    verts = np.linalg.solve(systems, values[..., None])[..., 0]
    if not max_tensor_membership(verts, h, tol):
        raise RuntimeError("an enumerated vertex violates a constraint")
    return VPolytope(verts)


def _extreme_points(a: np.ndarray, rhs: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Extreme points of {y : a y >= rhs} around an interior point; raises
    ValueError if the set is unbounded."""
    if a.shape[1] == 1:
        up, down = a[:, 0] > 0, a[:, 0] < 0
        if not (up.any() and down.any()):
            raise ValueError("H-polytope is unbounded")
        return np.array([[np.max(rhs[up] / a[up, 0])], [np.min(rhs[down] / a[down, 0])]])
    # bounded iff the origin lies inside the hull of the dual points, which
    # needs them to span the space affinely
    dual = a / (rhs - a @ centre)[:, None]
    if np.linalg.matrix_rank(np.hstack([dual, np.ones((len(a), 1))])) <= a.shape[1]:
        raise ValueError("H-polytope is unbounded")
    hs = HalfspaceIntersection(np.hstack([-a, rhs[:, None]]), centre)
    if (hs.dual_equations[:, -1] >= 0).any():
        raise ValueError("H-polytope is unbounded")
    return hs.intersections


def _first_bases(a: np.ndarray, scale: np.ndarray, tight: np.ndarray, tol: float) -> np.ndarray:
    """The distinct first bases of the points whose tight rows are the rows
    of the boolean (points, rows) array ``tight``, sorted, as rows of indices.

    A point's first basis is its tight rows, scanned in index order, whose
    null-space coordinates ``a`` are independent of those kept before them
    (rank relative to the row norms ``scale``).  One scan of the rows serves
    every point: each keeps its orthonormal directions, zero-padded, in one
    stack, and at row i the points where it is tight and the basis is short
    project it off theirs at once.  RuntimeError unless every point reaches
    full rank."""
    points, k = len(tight), a.shape[1]
    q = np.zeros((points, k, k))
    size = np.zeros(points, dtype=int)
    basis = np.zeros((points, k), dtype=int)
    for i in range(len(a)):
        if size.min() == k:
            break
        (short,) = np.nonzero(tight[:, i] & (size < k))
        qs = q[short]
        r = a[i] - np.einsum("pj,pjk->pk", qs @ a[i], qs)
        nr = np.linalg.norm(r, axis=1)
        keep = nr > tol * scale[i]
        new, slot = short[keep], size[short[keep]]
        q[new, slot] = r[keep] / nr[keep, None]
        basis[new, slot] = i
        size[new] = slot + 1
    if size.min() < k:
        raise RuntimeError("a halfspace intersection point is not a vertex")
    return np.array(sorted(set(map(tuple, basis.tolist()))), dtype=int)
