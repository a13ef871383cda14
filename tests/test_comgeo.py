import contextlib
import dataclasses
import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from entgeo import comgeo, matcore
from entgeo.comgeo import (
    BilinearState,
    ComModel,
    HPolytope,
    VPolytope,
    classical_model,
    enumerate_max_vertices,
    gbit_model,
    gpt_marginals,
    hull_distance,
    hull_membership,
    max_hull_distance,
    max_tensor_constraints,
    max_tensor_membership,
    min_tensor,
    polytope_equal,
    pr_box,
    product_composites,
    reduce_rows,
)
from entgeo.invsep import flatten_matrix
from entgeo.matcore import DECISION_TOL, DEDUP_TOL, LP_TOL, ROUND_TOL


def lp_distance(x, verts):
    """Pure LP oracle, independent of comgeo's certificates: the Chebyshev
    distance min s s.t. |V^T lam - x| <= s, sum lam = 1, lam >= 0, at the
    package's LP tolerances; returns (s, lam)."""
    v = np.atleast_2d(np.asarray(verts, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    n, d = v.shape
    c = np.r_[np.zeros(n), 1.0]
    a_ub = np.block([[v.T, -np.ones((d, 1))], [-v.T, -np.ones((d, 1))]])
    res = linprog(
        c, A_ub=a_ub, b_ub=np.r_[x, -x], A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": LP_TOL, "dual_feasibility_tolerance": LP_TOL},
    )
    assert res.status == 0
    return float(res.fun), res.x[:n]


def lp_hyperplane(x, verts):
    """Pure LP oracle for the best separating hyperplane in the box
    |h|_inf <= 1: max h.x - c s.t. h.v <= c on every vertex, at the
    package's LP tolerances; returns (h, c, gap).  Its optimum is the l1
    distance from x to the hull, and so the gap of any optimal
    hyperplane scaled to |h|_inf = 1."""
    v = np.atleast_2d(np.asarray(verts, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    n, d = v.shape
    res = linprog(
        np.r_[-x, 1.0], A_ub=np.hstack([v, -np.ones((n, 1))]), b_ub=np.zeros(n),
        bounds=[(-1.0, 1.0)] * d + [(None, None)], method="highs",
        options={"primal_feasibility_tolerance": LP_TOL, "dual_feasibility_tolerance": LP_TOL},
    )
    assert res.status == 0
    return res.x[:d], float(res.x[d]), float(-res.fun)


def is_irredundant(vertices, tol=1e-9):
    """LP oracle: no vertex lies in the hull of the others."""
    v = np.atleast_2d(vertices)
    for i in range(len(v)):
        others = np.delete(v, i, axis=0)
        if lp_distance(v[i], others)[0] <= tol:
            return False
    return True


def lp_reduce(rows, tol=1e-9):
    """LP-only reduction: one hull-distance LP per deduplicated row, in
    order, against the rows still kept."""
    rows = comgeo.dedup_rows(rows)
    pts = np.array([flatten_matrix(r) for r in rows])
    keep = list(range(len(rows)))
    for k in range(len(rows)):
        others = [j for j in keep if j != k]
        if others and lp_distance(pts[k], pts[others])[0] <= tol:
            keep.remove(k)
    return rows[keep]


def lp_member(x, verts, tol=1e-9):
    """LP-only membership reference."""
    return lp_distance(x, verts)[0] <= tol


def exit_point(verts, start, direction):
    """Where the ray start + t * direction leaves the hull of verts (start
    inside), from one LP: max t s.t. V^T lam = start + t direction,
    sum lam = 1, lam >= 0."""
    n, d = verts.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.vstack([np.hstack([verts.T, -direction[:, None]]), np.r_[np.ones(n), 0.0]])
    res = linprog(c, A_eq=a_eq, b_eq=np.r_[start, 1.0], bounds=(0, None), method="highs")
    assert res.status == 0
    return start + res.x[-1] * direction


def near_facet(rng, verts, offsets):
    """A random point on a random facet of the hull of verts for each
    offset, moved by that offset along the facet's outward unit normal."""
    hull = ConvexHull(verts)
    out = []
    for off in offsets:
        f = rng.integers(len(hull.simplices))
        w = rng.dirichlet(np.ones(verts.shape[1]))
        out.append(w @ verts[hull.simplices[f]] + off * hull.equations[f, :-1])
    return np.reshape(out, (-1, verts.shape[1]))


def hull_facets(verts):
    """Reference facets of the hull of verts within its affine hull, from
    Qhull: rows (normals, offsets) with normals @ x <= offsets inside."""
    origin = verts.mean(axis=0)
    _, sv, vt = np.linalg.svd(verts - origin, full_matrices=False)
    basis = vt[sv > 1e-10 * sv[0]].T
    eqs = ConvexHull((verts - origin) @ basis).equations
    normals = eqs[:, :-1] @ basis.T
    return normals, normals @ origin - eqs[:, -1]


def certificate_verdict(x, verts, tol):
    """Membership within tol as the certificate alone decides it: True where
    its upper bound is at most tol, False where its lower bound exceeds tol,
    None where it leaves the question to the LP."""
    lo, hi, *_ = comgeo._certificate(np.asarray(x, float), np.asarray(verts, float), tol)
    return True if hi <= tol else False if lo > tol else None


def assert_projection_agrees(x, verts, tol):
    """The certificate's verdict, when it gives one, and hull_membership both
    equal the LP-only reference; returns the certificate's verdict.

    The LP answers within its feasibility tolerance ``LP_TOL``, so below
    ``LP_TOL`` the reference decides only the points whose LP distance is
    more than ``LP_TOL`` from tol; at the others hull_membership follows
    the certificate where it decides and the LP where it does not."""
    dist = lp_distance(x, verts)[0]
    verdict = certificate_verdict(x, verts, tol)
    expected = dist <= tol
    if tol < LP_TOL and abs(dist - tol) <= LP_TOL and verdict is not None:
        expected = verdict
    assert verdict in (None, expected)
    assert hull_membership(x, VPolytope(verts), tol) == expected
    return verdict


def basic_solution_vertices(h):
    """Reference enumerator (the one enumerate_max_vertices replaced): every
    subset of constraints of size ambient_dim (equalities always active) is
    solved; feasible solutions are kept, deduplicated, and reduced."""
    d = h.ambient_dim
    n_eq = len(h.eq_normals)
    pick = d - n_eq
    base = np.vstack([h.eq_normals]) if n_eq else np.empty((0, d))
    base_rhs = np.asarray(h.eq_values) if n_eq else np.empty(0)
    points = []
    for idx in itertools.combinations(range(len(h.ineq_normals)), pick):
        a_sys = np.vstack([base, h.ineq_normals[list(idx)]])
        b_sys = np.concatenate([base_rhs, h.ineq_offsets[list(idx)]])
        try:
            x = np.linalg.solve(a_sys, b_sys)
        except np.linalg.LinAlgError:
            continue
        if max_tensor_membership(x, h, 1e-9):
            points.append(x)
    if not points:
        raise ValueError("H-polytope appears empty")
    return VPolytope(reduce_rows(np.array(points)))


def first_basis(a, scale, tight, tol):
    """Reference for ``comgeo._first_bases``, one point at a time (the rule
    it replaced): the tight rows, scanned in index order, whose null-space
    coordinates ``a`` are independent of those kept before them, by
    Gram-Schmidt relative to the row norms ``scale``; RuntimeError unless
    they reach full rank."""
    q = np.empty((0, a.shape[1]))
    basis = []
    for i in np.flatnonzero(tight):
        if len(basis) == a.shape[1]:
            break
        r = a[i] - (q @ a[i]) @ q
        nr = np.linalg.norm(r)
        if nr > tol * scale[i]:
            basis.append(int(i))
            q = np.vstack([q, r / nr])
    if len(basis) < a.shape[1]:
        raise RuntimeError("a halfspace intersection point is not a vertex")
    return tuple(basis)


def basis_vertices(h, bases):
    """The point of h on each basis (its equality rows and those inequality
    rows held tight), each from its own square solve."""
    eq = np.reshape(h.eq_normals, (-1, h.ambient_dim))
    return np.array([
        np.linalg.solve(
            np.vstack([eq, h.ineq_normals[list(basis)]]),
            np.concatenate([np.reshape(h.eq_values, -1), h.ineq_offsets[list(basis)]]),
        )
        for basis in bases
    ])


def polygon_model(n):
    """Regular n-gon system: states (cos 2 pi i/n, sin 2 pi i/n, 1); effects
    the edge functionals, each scaled to a maximum of 1 on the states, and
    their complements, deduplicated (for even n an edge's complement is the
    opposite edge's effect)."""
    angles = 2 * np.pi * np.arange(n) / n
    states = np.column_stack([np.cos(angles), np.sin(angles), np.ones(n)])
    # edge i joins states i and i + 1; its outward normal is at its midpoint
    mid = angles + np.pi / n
    edges = np.column_stack([-np.cos(mid), -np.sin(mid), np.full(n, np.cos(np.pi / n))])
    edges /= (states @ edges.T).max(axis=0)[:, None]
    unit = np.array([0.0, 0.0, 1.0])
    return ComModel(3, states, comgeo.dedup_rows(np.vstack([edges, unit - edges])), unit)


def random_hpolytope(rng, k, cross, extra, dups, flat_rows):
    """Bounded H-polytope in dimension k + 1 with one equality row.

    Facets w.p + c <= 0 of the hull of random points in R^k (or of the
    cross-polytope, whose vertices are degenerate for k >= 3) become the
    homogeneous rows (-w, -c).x >= 0 on x = (p, 1); a random affine map
    x = M z + t moves them off the axes.  Then ``dups`` rows are repeated and
    ``flat_rows`` rows that are a power of two times the equality row are
    added, tight or slack, and the inequality rows are shuffled.  The
    interior point is the centroid of the generating points, mapped to z.
    """
    if cross:
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=k)))
        facets = np.hstack([signs, -np.ones((len(signs), 1))])
        centroid = np.zeros(k)
    elif k == 1:
        pts = rng.standard_normal(2 + extra)
        facets = np.array([[-1.0, pts.min()], [1.0, -pts.max()]])
        centroid = pts.mean(keepdims=True)
    else:
        pts = rng.standard_normal((k + 1 + extra, k))
        facets = ConvexHull(pts).equations
        centroid = pts.mean(axis=0)
    d = k + 1
    m = rng.standard_normal((d, d)) + 3 * np.eye(d)
    t = rng.standard_normal(d)
    normals = -facets @ m
    offsets = facets @ t
    eq_normal = m[-1]
    eq_value = 1.0 - t[-1]
    repeat = rng.integers(len(normals), size=dups)
    normals = np.vstack([normals, normals[repeat]])
    offsets = np.concatenate([offsets, offsets[repeat]])
    scales = rng.choice([0.5, 2.0], size=flat_rows)
    slack = rng.choice([0.0, 1.0], size=flat_rows)
    normals = np.vstack([normals, scales[:, None] * eq_normal])
    offsets = np.concatenate([offsets, scales * eq_value - slack])
    order = rng.permutation(len(normals))
    interior = np.linalg.solve(m, np.append(centroid, 1.0) - t)
    return HPolytope(d, normals[order], offsets[order], eq_normal[None, :], [eq_value], interior)


@contextlib.contextmanager
def lp_count():
    """A list that gets one entry per LP solved through ``comgeo.linprog``
    while the context is open."""
    calls = []
    original = comgeo.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with mock.patch.object(comgeo, "linprog", counted):
        yield calls


def polytope_pair(rng, dim, k, kind):
    """Vertex rows of a random polytope and of a second one built from it:
    a permutation with convex combinations added, a copy with every vertex
    moved by up to 2 tol, or a copy with one vertex moved outside by 2 tol
    or with one vertex dropped."""
    p = rng.standard_normal((k, dim))
    if kind == "interior":
        q = np.vstack([p, rng.dirichlet(np.ones(k), size=3) @ p])
    elif kind == "near":
        q = p + rng.choice([-2.0, -0.5, 0.5, 2.0], size=p.shape) * 1e-9
    elif kind == "outside":
        q = p.copy()
        q[rng.integers(k)] += 2e-9 * np.sign(rng.standard_normal(dim))
    else:
        q = p[1:] if k > 1 else p + 1.0
    return p, q[rng.permutation(len(q))]


def same_vertex_set(p, q, tol):
    dist = np.abs(p[:, None, :] - q[None, :, :]).max(axis=2)
    return dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol


SEEDS = st.integers(0, 2**32 - 1)
ORACLE_CASES = {
    "classical2-classical2": max_tensor_constraints(classical_model(2), classical_model(2)),
    "classical2-gbit": max_tensor_constraints(classical_model(2), gbit_model()),
    "gbit-gbit": max_tensor_constraints(gbit_model(), gbit_model()),
    "classical2-classical3": max_tensor_constraints(classical_model(2), classical_model(3)),
    # the equality rows fix a single point
    "point": HPolytope(2, [[1, 0]], [0], [[0, 1], [1, 0]], [1, 0.5], [0.5, 1]),
    # a segment of the line x_2 = 1
    "segment": HPolytope(2, [[1, 0], [-1, 0]], [0, -1], [[0, 1]], [1], [0.5, 1]),
    "no-equality": HPolytope(
        2, [[1, 0], [0, 1], [-1, -1]], [0, 0, -1], np.empty((0, 2)), [], [1 / 3, 1 / 3]
    ),
}


class TestClassicalModel:
    def test_bit(self):
        m = classical_model(2)
        np.testing.assert_array_equal(m.vertices, np.eye(2))
        np.testing.assert_array_equal(m.unit, [1.0, 1.0])

    def test_unique_convex_decomposition(self, rng):
        # simplex point decompositions are unique: the LP certificate must
        # reproduce the barycentric coordinates
        m = classical_model(3)
        w = rng.dirichlet(np.ones(3))
        x = w @ m.vertices
        dist, lam = hull_distance(x, m.vertices)
        assert dist <= 1e-9
        np.testing.assert_allclose(lam, w, atol=1e-8)

    def test_unit_on_vertices(self):
        m = classical_model(4)
        np.testing.assert_array_equal(m.vertices @ m.unit, np.ones(4))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 2"):
            classical_model(1)


class TestGbitModel:
    def test_vertices_extreme(self):
        assert is_irredundant(gbit_model().vertices)

    def test_effects_attain_zero_and_one(self):
        m = gbit_model()
        vals = m.vertices @ m.effects.T
        for j in range(m.effects.shape[0]):
            assert vals[:, j].min() == pytest.approx(0.0, abs=1e-12)
            assert vals[:, j].max() == pytest.approx(1.0, abs=1e-12)

    def test_unit_on_vertices(self):
        m = gbit_model()
        np.testing.assert_array_equal(m.vertices @ m.unit, np.ones(4))


class TestHullMembership:
    def test_center_of_square(self):
        p = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert hull_membership([0.5, 0.5], p, 1e-9)

    def test_outside_bounding_box(self):
        p = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert not hull_membership([1.5, 0.0], p, 1e-9)

    def test_constructive_oracle(self, rng):
        tol = 1e-9
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, d + 5))
            verts = rng.standard_normal((n, d))
            w = rng.dirichlet(np.ones(n))
            x = w @ verts
            assert hull_membership(x, VPolytope(verts), tol)
            # push a supporting-hyperplane contact point outward by 10x tol;
            # the resulting point cannot be within tol of the hull
            h = rng.standard_normal(d)
            h /= np.linalg.norm(h)
            contact = verts[np.argmax(verts @ h)]
            y = contact + 10 * tol * np.sqrt(d) * h
            assert not hull_membership(y, VPolytope(verts), tol)

    def test_certificate_reconstructs_point(self, rng):
        verts = rng.standard_normal((6, 3))
        w = rng.dirichlet(np.ones(6))
        x = w @ verts
        dist, lam = hull_distance(x, verts)
        assert dist <= 1e-9
        assert np.max(np.abs(lam @ verts - x)) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            hull_membership([0.0, 0.0, 0.0], VPolytope([[0.0, 0.0]]), 1e-9)

    @pytest.mark.parametrize(
        "x",
        [[np.nan, 0.5, 1.0], [np.inf, 0.5, 1.0], [[0.5, 0.5, 1.0], [0.5, np.nan, 1.0]]],
        ids=["nan", "inf", "nan row"],
    )
    def test_a_non_finite_point_raises(self, x):
        with pytest.raises(ValueError, match="NaN or inf"):
            hull_membership(np.array(x), VPolytope(gbit_model().vertices), 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        dim=st.integers(1, 5),
        k=st.integers(1, 8),
        kind=st.sampled_from(["interior", "near", "outside", "dropped"]),
        tol=st.sampled_from([1e-9, 0.0]),
    )
    # HiGHS's weights for a row of this pair sum to 1 + 5.6e-10, past one
    # _lp_slack but within the n of them that the weight-sum check allows
    @example(seed=363792, dim=5, k=5, kind="near", tol=1e-9)
    def test_rows_agree_with_one_point_at_a_time(self, seed, dim, k, kind, tol):
        # each polytope's vertices against the other's hull: a stack of rows
        # gets the verdicts and the LPs of one call per row
        p, q = polytope_pair(np.random.default_rng(seed), dim, k, kind)
        for xs, hull in ((q, VPolytope(p)), (p, VPolytope(q))):
            with lp_count() as per_row:
                want = [hull_membership(x, hull, tol) for x in xs]
            with lp_count() as stacked:
                got = hull_membership(xs, hull, tol)
            assert got.dtype == bool
            assert got.tolist() == want
            assert len(stacked) == len(per_row)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, dim=st.integers(2, 4), extra=st.integers(0, 4))
    def test_agrees_with_hull_distance(self, seed, dim, extra):
        # vertices, interior points, points 1e-10 either side of a facet and
        # points clearly outside; a one-vertex hull gets offsets either side
        # of tol
        tol = 1e-9
        rng = np.random.default_rng(seed)
        verts = rng.standard_normal((dim + 1 + extra, dim))
        outside = 10 * tol * np.sqrt(dim)
        probes = np.vstack([
            verts,
            rng.dirichlet(np.ones(len(verts)), size=3) @ verts,
            near_facet(rng, verts, [-1e-10, 1e-10, outside, 1e-3]),
        ])
        for x in probes:
            expected = lp_member(x, verts, tol)
            assert hull_membership(x, VPolytope(verts), tol) == expected
        one = VPolytope(verts[:1])
        for off in (0.0, 0.5 * tol, 2 * tol):
            x = verts[0] + off * rng.choice([-1.0, 1.0], size=dim)
            expected = lp_member(x, one.vertices, tol)
            assert hull_membership(x, one, tol) == expected == (off <= tol)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, dim=st.integers(1, 8), k=st.integers(1, 10), tol=st.sampled_from([1e-9, LP_TOL]))
    def test_convex_combinations_are_members(self, seed, dim, k, tol):
        # random weights, some of them zero, on random vertices
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((k, dim))
        w = rng.dirichlet(np.ones(k), size=4) * (rng.random((4, k)) < 0.7)
        w = w[w.sum(axis=1) > 0]
        xs = (w / w.sum(axis=1, keepdims=True)) @ v
        assert hull_membership(xs, VPolytope(v), tol).all()
        for x in xs:
            assert lp_distance(x, v)[0] <= LP_TOL


class TestHullDistance:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, dim=st.integers(2, 6), extra=st.integers(0, 4))
    def test_agrees_with_the_lp(self, seed, dim, extra):
        # vertices, convex combinations and points 1e-3 outside a facet, and
        # a one-vertex hull at and off its vertex: the distance is the LP's
        # within LP_TOL, and lam is a probability vector rebuilding x within
        # the distance
        rng = np.random.default_rng(seed)
        verts = rng.standard_normal((dim + 1 + extra, dim))
        cases = [(x, verts) for x in np.vstack([
            verts,
            rng.dirichlet(np.ones(len(verts)), size=3) @ verts,
            near_facet(rng, verts, [1e-3, 1e-3]),
        ])]
        cases += [(verts[0] + off * rng.standard_normal(dim), verts[:1]) for off in (0.0, 1e-3)]
        for x, v in cases:
            dist, lam = hull_distance(x, v)
            assert dist == pytest.approx(lp_distance(x, v)[0], abs=LP_TOL)
            assert lam.min() >= 0.0
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(lam @ v - x).max() <= dist + LP_TOL

    def test_in_hull_points_solve_no_lp(self, rng, monkeypatch):
        # a projection that rebuilds the point and a vertex within LP_TOL
        # answer 0, and a one-vertex hull its exact distance
        monkeypatch.setattr(comgeo, "linprog", None)
        verts = rng.standard_normal((7, 4))
        x = rng.dirichlet(np.ones(7)) @ verts
        assert hull_distance(x, verts)[0] == 0.0
        assert hull_distance(verts[2] + 0.5 * LP_TOL, verts)[0] == 0.0
        assert hull_distance(verts[2] + 0.5, verts[2:3])[0] == pytest.approx(0.5, abs=1e-15)


GBIT_PRODUCTS = min_tensor(gbit_model(), gbit_model()).vertices
# the vertices of the gbit pair's maximal tensor product outside the
# product hull: the PR box and its relabelings
PR_TYPE = np.array([
    x for x in enumerate_max_vertices(max_tensor_constraints(gbit_model(), gbit_model())).vertices
    if not hull_membership(x, VPolytope(GBIT_PRODUCTS), 1e-9)
])


class TestExactProof:
    def test_pr_box_solves_no_lp(self, monkeypatch):
        # the distance is the float nearest to 1/12, the hyperplane the sign
        # pattern of x - lam~ @ v with c = 0, and its gap |x - lam~ @ v|_1
        monkeypatch.setattr(comgeo, "linprog", None)
        x = pr_box().vector()
        dist, lam = hull_distance(x, GBIT_PRODUCTS)
        assert dist == 0.08333333333333333 == float(Fraction(1, 12))
        assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-15)
        h, c, gap = comgeo.separating_hyperplane(x, VPolytope(GBIT_PRODUCTS))
        assert h.tolist() == [1.0, 1.0, -1.0, 1.0, -1.0, 0.0, -1.0, 0.0, 0.0]
        assert (c, gap) == (0.0, 0.5) and np.max(GBIT_PRODUCTS @ h) == c
        answer = comgeo._answer(x, VPolytope(GBIT_PRODUCTS))
        got_h, got_c, got_gap = answer.hyperplane
        assert (answer.distance, got_h.tolist(), got_c, got_gap) == (dist, h.tolist(), c, gap)

    @pytest.mark.parametrize("k", range(8))
    def test_every_pr_type_vertex_solves_no_lp(self, monkeypatch, k):
        monkeypatch.setattr(comgeo, "linprog", None)
        assert hull_distance(PR_TYPE[k], GBIT_PRODUCTS)[0] == float(Fraction(1, 12))
        h, c, gap = comgeo.separating_hyperplane(PR_TYPE[k], VPolytope(GBIT_PRODUCTS))
        assert gap == 0.5 and np.max(GBIT_PRODUCTS @ h) <= c

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 7), w=st.floats(0.5, 1.0, exclude_min=True))
    @example(k=0, w=1.0)
    @example(k=0, w=0.7)
    def test_noisy_pr_boxes_agree_with_the_lp(self, k, w):
        # w P + (1 - w) uniform for a PR-type vertex P, whether the proof
        # or the LP answers: the distance is the LP's, the gap is the
        # optimum of the box LP and |h|_1 times the distance, and the
        # hyperplane holds every product vertex; near w = 0.5 the point
        # is in the hull at the LP's resolution, and h = 0
        x = w * PR_TYPE[k] + (1 - w) * GBIT_PRODUCTS.mean(axis=0)
        dist = comgeo._lp_distance(x, GBIT_PRODUCTS).distance
        assert hull_distance(x, GBIT_PRODUCTS)[0] == pytest.approx(dist, abs=LP_TOL)
        h, c, gap = comgeo.separating_hyperplane(x, VPolytope(GBIT_PRODUCTS))
        assert gap == pytest.approx(lp_hyperplane(x, GBIT_PRODUCTS)[2], abs=LP_TOL)
        assert np.max(GBIT_PRODUCTS @ h) <= c + LP_TOL
        if h.any():
            assert np.abs(h).max() == 1.0
            assert gap / np.abs(h).sum() == pytest.approx(dist, abs=LP_TOL)
        else:
            assert (c, gap) == (0.0, 0.0) and dist <= 2 * LP_TOL

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, dim=st.integers(1, 6), k=st.integers(1, 8), den=st.integers(1, 12))
    def test_a_proof_is_the_exact_distance(self, seed, dim, k, den):
        # small-integer vertices and a point at rational offsets from them,
        # so that the bounds may meet: whatever answers, the distance is
        # the LP's, and a proof's distance is the float of an exact
        # rational, recomputed here with Fraction
        rng = np.random.default_rng(seed)
        v = rng.integers(-2, 3, size=(k, dim)).astype(float)
        x = v[0] + rng.integers(-den, den + 1, size=dim) / den
        cert = comgeo._certificate(x, v, LP_TOL)
        proof = comgeo._prove(x, v, *cert[:3])
        assert hull_distance(x, v)[0] == pytest.approx(lp_distance(x, v)[0], abs=LP_TOL)
        if proof is not None:
            lam = [Fraction(w).limit_denominator(comgeo._SNAP_DENOMINATOR) for w in proof.weights]
            assert min(lam) >= 0 and sum(lam) == 1
            h = [Fraction(xi) - sum(w * Fraction(vj[i]) for w, vj in zip(lam, v)) for i, xi in enumerate(x)]
            assert proof.distance == float(max(abs(e) for e in h))
            assert proof.hyperplane[2] == float(sum(abs(e) for e in h))

    def test_an_exact_member_is_proved(self):
        # at tol 0 the projection of the gbit square's centre may miss it by
        # rounding; the snapped weights rebuild it exactly
        square, x = gbit_model().vertices, np.array([0.5, 0.5, 1.0])
        lo, hi, lam, _ = comgeo._certificate(x, square, 0.0)
        assert hi - lo <= ROUND_TOL
        proof = comgeo._prove(x, square, lo, hi, lam)
        h, c, gap = proof.hyperplane
        assert proof.distance == 0.0 and not h.any() and (c, gap) == (0.0, 0.0)

    @pytest.mark.parametrize("lam", [[0.3, 1.0], [-0.25, 1.0]], ids=["sum", "negative"])
    def test_weights_off_the_simplex_are_refused(self, lam):
        # 3 is 1 from the hull of {0, 2}, and lam @ v = 2 makes the bounds
        # meet at 1, but lam is no probability vector, so nothing is proved
        v, x = np.array([[0.0], [2.0]]), np.array([3.0])
        assert comgeo._prove(x, v, 1.0, 1.0, np.array(lam)) is None
        assert comgeo._prove(x, v, 1.0, 1.0, np.array([0.0, 1.0])).distance == 1.0

    def test_bounds_that_do_not_meet_are_not_proved(self):
        # a point beyond one corner of a square: lo < hi by far more than
        # rounding, so no proof is tried
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = np.array([1.5, 1.25])
        lo, hi, lam, _ = comgeo._certificate(x, square, LP_TOL)
        assert hi - lo > matcore.ROUND_TOL
        assert comgeo._prove(x, square, lo, hi, lam) is None


class TestCheckedLps:
    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    OUTSIDE = np.array([1.5, 0.25])

    @staticmethod
    def corrupt(monkeypatch, change):
        """Let comgeo.linprog return its answer after change(res)."""
        original = comgeo.linprog

        def corrupted(*args, **kwargs):
            res = original(*args, **kwargs)
            res.x = res.x.copy()
            res.ineqlin.marginals = res.ineqlin.marginals.copy()
            change(res)
            return res

        monkeypatch.setattr(comgeo, "linprog", corrupted)

    def test_the_checks_pass_on_the_answers(self):
        # the dual hyperplane is x_1 <= 1, at gap 0.5 from (1.5, 0.25)
        answer = comgeo._lp_distance(self.OUTSIDE, self.SQUARE)
        assert answer.distance == pytest.approx(0.5)
        h, c, gap = answer.hyperplane
        assert h.tolist() == pytest.approx([1.0, 0.0])
        assert (c, gap) == pytest.approx((1.0, 0.5))

    def test_a_weight_sum_within_n_slacks_passes(self):
        # HiGHS answers s = 7.92e-10 with 5 weights summing to 1 + 5.6e-10,
        # more than one _lp_slack (2.7e-10) off 1 but less than 5 of them;
        # the dual value and the renormalized weights bound s by
        # [7.92e-10, 1.30e-9]
        p, q = polytope_pair(np.random.default_rng(363792), 5, 5, "near")
        slack = comgeo._lp_slack(q[1], p)
        answer = comgeo._lp_distance(q[1], p)
        assert slack < abs(answer.weights.sum() - 1.0) <= len(p) * slack
        assert answer.distance == pytest.approx(7.92e-10, rel=1e-3)
        h, c, gap = answer.hyperplane
        assert gap / np.abs(h).sum() == pytest.approx(answer.distance, abs=slack)
        renormalized = answer.weights / answer.weights.sum()
        assert np.abs(renormalized @ p - q[1]).max() == pytest.approx(1.30e-9, rel=1e-2)
        assert hull_membership(q[1], VPolytope(p), 1e-9)

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda res: setattr(res, "fun", res.fun + 0.25), "off its residual"),
            (lambda res: res.x.__setitem__(slice(0, 2), res.x[:2] + [-0.75, 0.75]), "probability"),
            (lambda res: res.x.__setitem__(slice(0, 4), 1.5 * res.x[:4]), "probability"),
            (lambda res: res.x.__setitem__(0, np.nan), "probability"),
        ],
        ids=["objective", "negative", "sum", "nan"],
    )
    def test_a_corrupted_distance_raises(self, monkeypatch, change, match):
        self.corrupt(monkeypatch, change)
        with pytest.raises(RuntimeError, match=match):
            comgeo._lp_distance(self.OUTSIDE, self.SQUARE)

    @pytest.mark.parametrize(
        "change",
        [
            lambda res: res.ineqlin.marginals.__imul__(2.0),
            lambda res: setattr(res.ineqlin, "marginals", np.roll(res.ineqlin.marginals, 2)),
            lambda res: res.ineqlin.marginals.__setitem__(0, np.nan),
        ],
        ids=["norm", "swapped", "nan"],
    )
    def test_a_corrupted_hyperplane_raises(self, monkeypatch, change):
        # the multipliers of the rows lam @ v - x <= s come first and those
        # of x - lam @ v <= s second; swapping the two blocks negates h
        self.corrupt(monkeypatch, change)
        with pytest.raises(RuntimeError, match="dual"):
            comgeo.separating_hyperplane(self.OUTSIDE, VPolytope(self.SQUARE))


    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS, dim=st.integers(1, 32), k=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 1e3]), shape=st.sampled_from(["inside", "outside", "near"]),
    )
    # two problems on which the box LP max h.x - c, h.v <= c, |h|_inf <= 1
    # stops with HiGHS status 15: Gaussian vertices times 1000, the point
    # a convex combination of them plus Gaussian noise times 1e-5
    @example(seed=2492049616, dim=17, k=2, scale=1e3, shape="near")
    @example(seed=3850806629, dim=11, k=3, scale=1e3, shape="near")
    def test_the_hyperplane_is_the_dual_of_the_distance(self, seed, dim, k, scale, shape):
        # random hulls and points in them, near them or away from them: the
        # hyperplane holds every vertex, and gap / |h|_1 is the distance,
        # or h = 0 and the distance is 0 at the LP's resolution
        rng = np.random.default_rng(seed)
        v = scale * rng.standard_normal((k, dim))
        x = rng.dirichlet(np.ones(k)) @ v
        x += {"inside": 0.0, "outside": scale, "near": 1e-5}[shape] * rng.standard_normal(dim)
        h, c, gap = comgeo.separating_hyperplane(x, VPolytope(v))
        dist, slack = hull_distance(x, v)[0], comgeo._lp_slack(x, v)
        assert np.max(v @ h) <= c + slack
        if h.any():
            assert np.abs(h).max() == 1.0
            assert gap / np.abs(h).sum() == pytest.approx(dist, abs=slack)
        else:
            assert (c, gap) == (0.0, 0.0) and dist <= slack

PRODUCT_PAIRS = {
    "gbit-gbit": (gbit_model(), gbit_model()),
    "classical2-gbit": (classical_model(2), gbit_model()),
    "classical3-classical3": (classical_model(3), classical_model(3)),
    "classical4-gbit": (classical_model(4), gbit_model()),
}


# membership tolerances around LP_TOL: the CLI default, the LP's own
# resolution, and below it
TOLS = st.sampled_from([1e-9, 0.0, 1e-11])


class TestProjectionCertificate:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, dim=st.integers(1, 32), drop=st.integers(0, 3), tol=TOLS)
    def test_simplices_agree_with_lp(self, seed, dim, drop, tol):
        # a random simplex of dim + 1 - drop vertices in dim coordinates:
        # interior points, points 1e-10 either side of a face or half of tol
        # or 1e-3 outside it, and points off the affine hull by 1e-10, 0.8 tol
        # or 1e-3 in the infinity norm; at tol 0 the centroid may go to the LP
        rng = np.random.default_rng(seed)
        n = max(2, dim + 1 - drop)
        verts = rng.standard_normal((n, dim))
        assert assert_projection_agrees(verts.mean(axis=0), verts, tol) is True or tol == 0
        probes = list(rng.dirichlet(np.ones(n), size=2) @ verts)
        for _ in range(2):
            i = rng.integers(n)
            on_face = rng.dirichlet(np.ones(n - 1)) @ np.delete(verts, i, axis=0)
            away = on_face - verts[i]
            away /= np.abs(away).max()
            probes += [on_face + off * away for off in (-1e-10, 1e-10, 0.5 * tol, 1e-3)]
            if n == dim + 1:
                # 0.8 tol out along the sign pattern of the face normal: the
                # steepest way out in the infinity norm
                normal = null_space(np.delete(verts, i, axis=0)[1:] - on_face)[:, 0]
                probes.append(on_face - 0.8 * tol * np.sign(normal * (normal @ (verts[i] - on_face))))
        edges = (verts[1:] - verts[0]).T
        normal = rng.standard_normal(dim)
        normal -= edges @ np.linalg.lstsq(edges, normal, rcond=None)[0]
        if np.abs(normal).max() > 1e-6:
            normal /= np.abs(normal).max()
            centre = verts.mean(axis=0)
            probes += [centre + off * normal for off in (1e-10, 0.8 * tol, 1e-3)]
        for x in probes:
            assert_projection_agrees(x, verts, tol)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        dim=st.integers(3, 8),
        kind=st.sampled_from(["line", "repeat", "plane"]),
        tol=TOLS,
    )
    def test_flat_hulls_are_decided(self, seed, dim, kind, tol):
        # affinely dependent vertex sets of at most dim + 1 rows: three
        # points on a line, a repeated vertex, or a parallelogram; their
        # convex combinations and points far off them need no LP, except
        # that at tol 0 a combination the projection rebuilds only within
        # rounding goes to the LP
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((3, dim))
        verts = {
            "line": np.vstack([base[:2], 0.3 * base[0] + 0.7 * base[1]]),
            "repeat": np.vstack([base, base[1]]),
            "plane": np.vstack([base, base[0] + base[1] - base[2]]),
        }[kind]
        probes = np.vstack([
            rng.dirichlet(np.ones(len(verts)), size=2) @ verts,
            rng.standard_normal((2, dim)),
        ])
        for x in probes:
            assert assert_projection_agrees(x, verts, tol) is not None or tol == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, pair=st.sampled_from(sorted(PRODUCT_PAIRS)), tol=TOLS)
    def test_product_hulls_agree_with_lp(self, seed, pair, tol):
        # rays from the product of the centroids leave the product hull
        # through a positivity facet or, toward a PR-type maximal vertex, a
        # CHSH facet; probes sit 1e-10 and 1e-3 either side of the exit, and
        # half of tol outside it
        rng = np.random.default_rng(seed)
        a, b = PRODUCT_PAIRS[pair]
        omin = min_tensor(a, b)
        centre = omin.vertices.mean(axis=0)
        normals, offsets = hull_facets(omin.vertices)
        omax = enumerate_max_vertices(max_tensor_constraints(a, b)).vertices
        targets = [omax[rng.integers(len(omax))], rng.standard_normal(len(centre))]
        if pair == "gbit-gbit":
            targets.append(pr_box().vector())
        for target in targets:
            direction = target - centre
            # stay on the affine hull phi(u_A, u_B) = 1
            unit = np.outer(a.unit, b.unit).ravel()
            direction -= (direction @ unit) / (unit @ unit) * unit
            direction /= np.abs(direction).max()
            exit_at = exit_point(omin.vertices, centre, direction)
            # 0.8 tol out along the sign pattern of the facet it crosses
            crossed = normals[np.argmax(normals @ exit_at - offsets)]
            for x in [exit_at + off * direction for off in (-1e-3, -1e-10, 1e-10, 0.5 * tol, 1e-3)] + [
                exit_at + 0.8 * tol * np.sign(crossed)
            ]:
                assert_projection_agrees(x, omin.vertices, tol)

    def test_sharp_vertex_is_decided(self):
        # 1e-8 beyond the tip of a thin kite each facet is broken by only
        # about 1e-11 |h|_1, but the projection is the tip itself, 1e-8 away
        kite = np.array([[0.0, 0.0], [-1.0, 1e-3], [-1.0, -1e-3], [-2.0, 0.0]])
        x = np.array([1e-8, 0.0])
        assert certificate_verdict(x, kite, 1e-9) is False
        assert not hull_membership(x, VPolytope(kite), 1e-9)
        assert hull_membership(x, VPolytope(kite), 1e-7)

    def test_noisy_pr_boxes_are_decided(self):
        # v PR + (1 - v) uniform crosses the CHSH facet at v = 1/2
        gb = gbit_model()
        v = min_tensor(gb, gb).vertices
        uniform = v.mean(axis=0)
        for w, inside in ((0.3, True), (0.49, True), (0.51, False), (1.0, False)):
            x = w * pr_box().vector() + (1 - w) * uniform
            assert certificate_verdict(x, v, 1e-9) is inside

    def test_nnls_failure_leaves_the_question_to_the_lp(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        lp_calls = []
        linprog = comgeo.linprog
        monkeypatch.setattr(comgeo, "nnls", fail)
        monkeypatch.setattr(comgeo, "linprog", lambda *a, **k: lp_calls.append(1) or linprog(*a, **k))
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert certificate_verdict([0.5, 0.5], square.vertices, 1e-9) is None
        assert hull_membership([0.5, 0.5], square, 1e-9)
        assert not hull_membership([1.5, 0.5], square, 1e-9)
        assert len(lp_calls) == 2


class TestReduceAndEqual:
    def test_midpoint_removal(self):
        kept = reduce_rows(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]))
        assert len(kept) == 2

    def test_simplex_unchanged(self):
        assert len(reduce_rows(np.eye(3))) == 3

    def test_membership_agrees_after_reduction(self, rng):
        verts = rng.standard_normal((12, 3))
        p = VPolytope(verts)
        q = VPolytope(reduce_rows(verts))
        for _ in range(200):
            probe = rng.standard_normal(3) * 0.8
            assert hull_membership(probe, p, 1e-8) == hull_membership(
                probe, q, 1e-8
            )

    def test_equal_under_permutation(self, rng):
        verts = rng.standard_normal((5, 2))
        p = VPolytope(verts)
        q = VPolytope(verts[::-1])
        assert polytope_equal(p, q, 1e-9)

    def test_square_vs_triangle(self):
        sq = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
        tri = VPolytope([[0, 0], [1, 0], [0, 1]])
        assert not polytope_equal(sq, tri, 1e-9)

    def test_complex_rows_match_flattened_rows(self, rng):
        # a complex entry counts as a re/im pair: the same rows survive as
        # when the flatten_matrix rows go through reduce_rows
        base = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        w = rng.dirichlet(np.ones(5), size=4)
        mats = np.concatenate([base, np.tensordot(w, base, axes=1), base[:2]])
        mats = mats[rng.permutation(len(mats))]
        kept = reduce_rows(mats)
        flat = reduce_rows(np.array([flatten_matrix(m) for m in mats]))
        assert kept.dtype == complex and kept.shape == (5, 2, 2)
        np.testing.assert_array_equal(
            [flatten_matrix(m) for m in kept], flat
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        shape=st.sampled_from([(2, 0), (3, 0), (4, 0), (2, 1), (4, 1)]),
        extra=st.integers(0, 3),
        interior=st.integers(0, 3),
        dups=st.integers(0, 2),
        facet=st.integers(0, 3),
        box=st.booleans(),
    )
    def test_matches_lp_only_reduction(
        self, seed, shape, extra, interior, dups, facet, box
    ):
        # random or axis-aligned box vertex sets with interior convex
        # combinations, exact duplicates and points within 1e-10 of a facet
        # (on a box facet such a point can top a coordinate by 1e-10);
        # complex rows pair up the real coordinates
        dim, as_complex = shape
        rng = np.random.default_rng(seed)
        if box:
            corners = np.array(list(itertools.product([0.0, 1.0], repeat=dim)))
            verts = corners * rng.uniform(0.5, 2.0, size=dim) + rng.standard_normal(dim)
        else:
            verts = rng.standard_normal((dim + 1 + extra, dim))
        rows = np.vstack([
            verts,
            rng.dirichlet(np.ones(len(verts)), size=interior) @ verts,
            verts[rng.integers(len(verts), size=dups)],
            near_facet(rng, verts, rng.uniform(-1e-10, 1e-10, size=facet)),
        ])
        rows = rows[rng.permutation(len(rows))]
        if as_complex:
            rows = rows.view(complex)
        got = reduce_rows(rows)
        np.testing.assert_array_equal(got, lp_reduce(rows))
        assert not np.shares_memory(got, rows)

    @pytest.mark.parametrize("as_complex", [False, True])
    @pytest.mark.parametrize("apart", [0.5 * DEDUP_TOL, DEDUP_TOL, 2 * DECISION_TOL, 1.5 * DEDUP_TOL])
    def test_short_lists_match_lp_only_reduction(self, rng, apart, as_complex):
        # one row, and two rows exactly `apart` apart in the infinity norm
        # (their first entries are 0 and apart); a short list comes back as
        # dedup_rows leaves it, in a new array
        one = rng.standard_normal((1, 4))
        one[0, 0] = 0.0
        two = np.vstack([one, one])
        two[1, 0] = apart
        for rows in (one, two):
            rows = rows.view(complex) if as_complex else rows
            got = reduce_rows(rows)
            np.testing.assert_array_equal(got, lp_reduce(rows))
            assert got.dtype == rows.dtype
            assert not np.shares_memory(got, rows)
        assert len(reduce_rows(two)) == (2 if apart > DEDUP_TOL else 1)

    @pytest.mark.parametrize(
        "rows",
        [
            [[np.nan, 0.0], [1.0, 1.0]],
            [[1.0, 1.0], [np.nan, 0.0]],
            [[np.inf, 0.0], [1.0, 1.0]],
            [[1.0, 1.0], [-np.inf, 0.0]],
            [[np.nan, 0.0], [np.nan, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]],
            [[1.0 + 1j * np.nan, 0.0], [1.0, 1.0]],
        ],
    )
    def test_non_finite_entry_raises(self, rows):
        for reduce in (reduce_rows, comgeo.dedup_rows):
            with pytest.raises(ValueError, match="NaN or inf"):
                reduce(np.array(rows))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        n=st.integers(1, 20),
        dim=st.integers(1, 6),
        kind=st.sampled_from(["normal", "grid", "tiny"]),
        tol=st.sampled_from([1e-9, 0.0]),
    )
    def test_strict_maximizers_match_the_stacked_directions(self, seed, n, dim, kind, tol):
        # the +-e_i scores read off +-pts certify exactly the rows that the
        # product with a stacked [I; -I; centred rows] certifies; grid rows
        # (small integers, with signed zeros) tie on many directions, and
        # tiny rows put the score gaps near tol
        rng = np.random.default_rng(seed)
        if kind == "grid":
            pts = rng.integers(-2, 3, size=(n, dim)) * rng.choice([-1.0, 1.0], size=(n, dim))
        else:
            pts = rng.standard_normal((n, dim)) * (1e-9 if kind == "tiny" else 1.0)
        eye = np.eye(dim)
        dirs = np.vstack([eye, -eye, pts - pts.mean(axis=0)])
        scores = pts @ dirs.T
        ranked = np.sort(scores, axis=0)
        want = np.zeros(n, dtype=bool)
        if n >= 2:
            gap = ranked[-1] - ranked[-2]
            want[scores.argmax(axis=0)[gap > tol * np.abs(dirs).sum(axis=1)]] = True
        np.testing.assert_array_equal(comgeo._strict_maximizers(pts, tol), want)

    def test_dedup_keeps_a_row_whose_only_near_row_was_dropped(self):
        # the rule is "no earlier kept row within tol": row 1 is dropped for
        # row 0, and row 2, 0.6 tol from row 1 but 1.2 tol from row 0, stays
        rows = np.array([[0.0], [0.6], [1.2]]) * DEDUP_TOL
        np.testing.assert_array_equal(comgeo.dedup_rows(rows), rows[[0, 2]])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        n=st.integers(1, 40),
        dim=st.integers(1, 4),
        entries=st.sampled_from([1, 8, 60, 2**20]),
    )
    # 14 kept rows of width 2: up to 28 floats of earlier kept rows against a budget of 8
    @example(seed=0, n=40, dim=2, entries=8)
    def test_dedup_matches_the_sequential_rule(self, seed, n, dim, entries):
        # clusters of rows jittered by up to 1.5 tol, so chains of near rows
        # form; small comparison budgets split the rows into many blocks
        rng = np.random.default_rng(seed)
        centres = rng.standard_normal((int(rng.integers(1, 6)), dim))
        jitter = rng.uniform(-1.5, 1.5, size=(n, dim)) * rng.integers(0, 2, size=(n, 1))
        rows = centres[rng.integers(len(centres), size=n)] + DEDUP_TOL * jitter
        kept = []
        for row in rows:
            if all(np.abs(row - k).max() > DEDUP_TOL for k in kept):
                kept.append(row)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(comgeo, "_DEDUP_ENTRIES", entries)
            np.testing.assert_array_equal(comgeo.dedup_rows(rows), np.reshape(kept, (-1, dim)))

    def test_equal_with_interior_points(self, rng):
        verts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        interior = np.vstack([verts, rng.dirichlet(np.ones(4), size=3) @ verts])
        assert polytope_equal(VPolytope(verts), VPolytope(interior), 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        dim=st.integers(1, 5),
        k=st.integers(1, 8),
        kind=st.sampled_from(["interior", "near", "outside", "dropped"]),
    )
    def test_equal_agrees_with_per_vertex_membership(self, seed, dim, k, kind):
        # near-duplicate vertices sit 0.5 or 2 tol from their twins, so the
        # pairwise match settles some vertices and leaves the rest to the
        # projection and the LP
        p, q = map(VPolytope, polytope_pair(np.random.default_rng(seed), dim, k, kind))
        tol = 1e-9
        with lp_count() as want_lps:
            want = all(hull_membership(v, q, tol) for v in p.vertices) and all(
                hull_membership(v, p, tol) for v in q.vertices
            )
        with lp_count() as got_lps:
            got = polytope_equal(p, q, tol)
        assert got == want
        assert len(got_lps) == len(want_lps)

    def test_equal_compares_in_bounded_chunks(self, rng, monkeypatch):
        # with a budget of 40 floats, the 16 rows of q go against the 5
        # vertices of p in chunks of two rows; the verdicts stay the same
        p = rng.standard_normal((5, 4))
        q = np.vstack([p, rng.dirichlet(np.ones(5), size=11) @ p])
        pairs = [(p, q), (p, q + 0.1), (q, p)]
        want = [polytope_equal(VPolytope(a), VPolytope(b), 1e-9) for a, b in pairs]
        monkeypatch.setattr(comgeo, "_DEDUP_ENTRIES", 40)
        rows = []
        original = comgeo._nearest_gaps

        def recorded(xs, v):
            rows.append(len(xs))
            return original(xs, v)

        monkeypatch.setattr(comgeo, "_nearest_gaps", recorded)
        got = [polytope_equal(VPolytope(a), VPolytope(b), 1e-9) for a, b in pairs]
        assert got == want == [True, False, True]
        assert 2 in rows

    def test_nearest_gaps_splits_a_v_over_the_budget(self, rng, monkeypatch):
        # v holds 120 floats against a budget of 40, so it goes in chunks of
        # 10 rows, each against one row of xs at a time; a NaN gap in one
        # chunk hides no near row of another
        xs, v = rng.standard_normal((5, 4)), rng.standard_normal((30, 4))
        v[3, 1] = np.nan
        v[25] = xs[2] + 0.5 * DEDUP_TOL
        want = np.fmin.reduce(np.abs(xs[:, None] - v).max(axis=2), axis=1)
        monkeypatch.setattr(comgeo, "_DEDUP_ENTRIES", 40)
        calls, leaves = [], []
        original = comgeo._nearest_gaps

        def recorded(xs, v):
            calls.append(len(xs))
            before = len(calls)
            out = original(xs, v)
            if len(calls) == before:  # no smaller comparison ran inside: a leaf
                leaves.append(len(xs) * v.size)
            return out

        monkeypatch.setattr(comgeo, "_nearest_gaps", recorded)
        np.testing.assert_array_equal(comgeo._nearest_gaps(xs, v), want)
        assert want[2] <= DEDUP_TOL
        assert leaves and max(leaves) <= 40


class TestMaxHullDistance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        dim=st.integers(1, 5),
        k=st.integers(1, 8),
        kind=st.sampled_from(["interior", "near", "outside", "dropped"]),
    )
    def test_equals_the_largest_hull_distance(self, seed, dim, k, kind):
        # the same float as a maximum over every row, and no more LPs
        p, q = polytope_pair(np.random.default_rng(seed), dim, k, kind)
        with lp_count() as per_row:
            want = max(
                [hull_distance(x, p)[0] for x in q] + [hull_distance(x, q)[0] for x in p]
            )
        with lp_count() as bounded:
            got = max_hull_distance([(q, p), (p, q)])
        assert repr(got) == repr(want)
        assert len(bounded) <= len(per_row)

    def test_solves_only_where_the_upper_bound_reaches_the_best_lower_bound(self):
        # the projection bounds the distances 1, 2 and 3 of q's rows from the
        # segment p exactly, so only the farthest row reaches the best lower
        # bound, 3
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.5, 1.0], [0.5, 3.0], [0.5, 2.0]])
        with lp_count() as lps:
            got = max_hull_distance([(q, p)])
        assert len(lps) == 1
        assert got == max(hull_distance(x, p)[0] for x in q) == pytest.approx(3.0)


def complex_pair(shape_a, shape_b):
    """Two complex arrays of the given shapes, entries up to 1e6 in modulus."""
    entries = st.complex_numbers(max_magnitude=1e6)
    return st.tuples(
        arrays(complex, shape_a, elements=entries), arrays(complex, shape_b, elements=entries)
    )


class TestProductComposites:
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 4)] * 4).flatmap(lambda s: complex_pair(s[:2], s[2:])),
        # stacks of 1 to 3 matrices of any shapes up to 3x3
        st.tuples(*[st.integers(1, 3)] * 6).flatmap(lambda s: complex_pair(s[:3], s[3:])),
    )
    # one entry each: a broadcast one-entry product once took numpy's scalar
    # complex multiply, one bit off np.kron's fused multiply-add
    @example(
        (np.array([[3 + 1j]]), np.array([[349525.8712729345 + 2j]])),
        (np.array([[[3 + 1j]]]), np.array([[[349525.8712729345 + 2j]]])),
    )
    def test_bit_identical_to_numpy_kron(self, pair, stacks):
        xa, xb = pair
        for a, b in ((xa, xb), (xa.real, xb.real)):
            got, want = product_composites(a, b), np.kron(a, b)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # of two stacks of matrices, one kron per pair (a_i, b_j), i slowest
        ma, mb = stacks
        got, pairs = product_composites(ma, mb), list(itertools.product(ma, mb))
        assert got.shape == (len(pairs), *np.kron(ma[0], mb[0]).shape)
        for one, (a, b) in zip(got, pairs):
            assert one.tobytes() == matcore.kron(a, b).tobytes() == np.kron(a, b).tobytes()


class TestMinTensor:
    def test_classical_pair_is_simplex(self):
        p = min_tensor(classical_model(2), classical_model(2))
        assert p.ambient_dim == 4
        assert polytope_equal(p, VPolytope(np.eye(4)), 1e-9)

    def test_gbit_pair_all_products_extreme(self):
        p = min_tensor(gbit_model(), gbit_model())
        assert len(p.vertices) == 16
        assert is_irredundant(p.vertices)

    def test_min_inside_max(self):
        for a, b in [
            (classical_model(2), classical_model(2)),
            (gbit_model(), gbit_model()),
            (classical_model(2), gbit_model()),
        ]:
            h = max_tensor_constraints(a, b)
            for v in min_tensor(a, b).vertices:
                assert max_tensor_membership(v, h, 1e-10)


def doubled(extreme_points):
    """``extreme_points`` with every point given twice."""
    return lambda a, rhs, centre: np.repeat(extreme_points(a, rhs, centre), 2, axis=0)


class TestModelsReducedOnce:
    def test_min_tensor_and_enumeration_reduce_and_dedup_nothing(self, monkeypatch):
        gb = gbit_model()
        h = max_tensor_constraints(gb, gb)
        want = enumerate_max_vertices(h).vertices
        reduced = mock.Mock(wraps=comgeo.reduce_rows)
        deduped = mock.Mock(wraps=comgeo.dedup_rows)
        monkeypatch.setattr(comgeo, "reduce_rows", reduced)
        monkeypatch.setattr(comgeo, "dedup_rows", deduped)
        assert len(min_tensor(gb, gb).vertices) == 16
        assert reduced.call_count == 0
        # a Qhull point given twice has the same first basis, so its vertex
        # still comes out once
        monkeypatch.setattr(comgeo, "_extreme_points", doubled(comgeo._extreme_points))
        assert enumerate_max_vertices(h).vertices.tobytes() == want.tobytes()
        assert deduped.call_count == 0

    @pytest.mark.parametrize(
        "make, args",
        [*((classical_model, (n,)) for n in range(2, 9)), (gbit_model, ())],
        ids=[*(f"classical:{n}" for n in range(2, 9)), "gbit"],
    )
    def test_a_built_in_model_is_its_checked_build(self, make, args, monkeypatch):
        # built without the checks, and equal in every field to the checked
        # build of the same rows, which reduces none of them
        reduced = mock.Mock(wraps=comgeo.reduce_rows)
        monkeypatch.setattr(comgeo, "reduce_rows", reduced)
        m = make(*args)
        assert reduced.call_count == 0
        checked = ComModel(m.ambient_dim, m.vertices, m.effects, m.unit)
        assert (type(m.ambient_dim), m.ambient_dim) == (int, checked.ambient_dim)
        for name in ("vertices", "effects", "unit"):
            got, want = getattr(m, name), getattr(checked, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize(
        "given, irredundant",
        [
            ([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0]], classical_model(2)),
            # the square's centre, then its corners with the second repeated
            ([[0.5, 0.5, 1.0], *gbit_model().vertices[:2], gbit_model().vertices[1],
              *gbit_model().vertices[2:]], gbit_model()),
        ],
        ids=["simplex", "square"],
    )
    def test_a_redundant_model_holds_its_extreme_states(self, given, irredundant):
        m = ComModel(irredundant.ambient_dim, given, irredundant.effects, irredundant.unit)
        assert m.vertices.tobytes() == irredundant.vertices.tobytes()
        gb, ref = gbit_model(), irredundant
        assert min_tensor(m, gb).vertices.tobytes() == min_tensor(ref, gb).vertices.tobytes()
        assert min_tensor(gb, m).vertices.tobytes() == min_tensor(gb, ref).vertices.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(n_a=st.integers(3, 7), n_b=st.integers(3, 7), extra=st.integers(0, 6), seed=SEEDS)
    def test_polygons_with_inner_states(self, n_a, n_b, extra, seed):
        # the polygon's states with convex combinations of them shuffled in:
        # the model keeps reduce_rows of them, and min_tensor equals the
        # products of the reduced given lists, bit for bit
        rng = np.random.default_rng(seed)
        models, given = [], []
        for n in (n_a, n_b):
            p = polygon_model(n)
            rows = np.vstack([p.vertices, rng.dirichlet(np.ones(n), size=extra) @ p.vertices])
            given.append(rows[rng.permutation(len(rows))])
            models.append(ComModel(3, given[-1], p.effects, p.unit))
        for m, rows in zip(models, given):
            assert m.vertices.tobytes() == reduce_rows(rows).tobytes()
        got = min_tensor(*models).vertices
        assert got.tobytes() == product_composites(*map(reduce_rows, given)).tobytes()
        assert len(got) == n_a * n_b


# x_1, x_2 >= 0 and x_1 + x_2 <= 1 on the plane x_3 = 1, with an interior point
TRIANGLE = HPolytope(
    3, [[1, 0, 0], [0, 1, 0], [-1, -1, 1]], [0, 0, 0], [[0, 0, 1]], [1], [0.25, 0.25, 1]
)


def with_centroid(extreme_points):
    """``extreme_points`` with one more point, the centroid of its points."""
    def more(a, rhs, centre):
        ys = extreme_points(a, rhs, centre)
        return np.vstack([ys, ys.mean(axis=0)])

    return more


class TestMaxTensor:
    def test_classical_pair_equals_simplex(self):
        a = classical_model(2)
        h = max_tensor_constraints(a, a)
        omax = enumerate_max_vertices(h)
        assert polytope_equal(omax, min_tensor(a, a), 1e-9)

    def test_product_states_have_slack(self):
        a, b = gbit_model(), gbit_model()
        h = max_tensor_constraints(a, b)
        for va in a.vertices:
            for vb in b.vertices:
                x = np.outer(va, vb).ravel()
                assert np.min(h.ineq_normals @ x) >= -1e-12

    def test_pr_box_member(self):
        h = max_tensor_constraints(gbit_model(), gbit_model())
        assert max_tensor_membership(pr_box(), h, 1e-10)

    def test_scaled_pr_box_rejected(self):
        h = max_tensor_constraints(gbit_model(), gbit_model())
        assert not max_tensor_membership(
            BilinearState(1.1 * pr_box().coord), h, 1e-10
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 4, 8])
    # an infinite entry times a zero coefficient is NaN, with numpy's warning
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_a_non_finite_entry_fails(self, k, bad):
        h = max_tensor_constraints(gbit_model(), gbit_model())
        x = pr_box().vector().copy()
        x[k] = bad
        assert not max_tensor_membership(x, h, 1e-9)

    def test_gbit_pair_strictly_contains_products(self):
        gb = gbit_model()
        omin = min_tensor(gb, gb)
        omax = enumerate_max_vertices(max_tensor_constraints(gb, gb))
        assert len(omax.vertices) == 24
        h = max_tensor_constraints(gb, gb)
        for v in omax.vertices:
            assert max_tensor_membership(v, h, 1e-9)
        for v in omin.vertices:
            assert hull_membership(v, omax, 1e-8)
        outside = [
            v for v in omax.vertices if not hull_membership(v, omin, 1e-8)
        ]
        assert len(outside) == 8  # the PR-box-like extremal states

    def test_dim_cap(self):
        h = max_tensor_constraints(classical_model(4), classical_model(4))
        with pytest.raises(ValueError, match="cap"):
            enumerate_max_vertices(h)

    @pytest.mark.parametrize(
        "a, b, n_vertices",
        [
            pytest.param(classical_model(4), gbit_model(), 16, id="classical4-gbit"),
            pytest.param(classical_model(3), classical_model(3), 9, id="classical3-classical3"),
        ],
    )
    def test_default_cap_reaches_dim_12(self, a, b, n_vertices):
        # a simplex factor makes the maximal and minimal products equal
        omax = enumerate_max_vertices(max_tensor_constraints(a, b))
        assert len(omax.vertices) == n_vertices
        assert polytope_equal(omax, min_tensor(a, b), 1e-9)

    @pytest.mark.parametrize("h", ORACLE_CASES.values(), ids=list(ORACLE_CASES))
    def test_matches_basic_solution_oracle(self, h):
        # same values in the same order as the basic-solution enumerator
        got = enumerate_max_vertices(h).vertices
        assert np.array_equal(got, basic_solution_vertices(h).vertices)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        k=st.integers(1, 3),
        cross=st.booleans(),
        extra=st.integers(0, 3),
        dups=st.integers(0, 2),
        flat_rows=st.integers(0, 2),
    )
    def test_random_polytopes_match_oracle(self, seed, k, cross, extra, dups, flat_rows):
        h = random_hpolytope(np.random.default_rng(seed), k, cross, extra, dups, flat_rows)
        got = enumerate_max_vertices(h).vertices
        want = basic_solution_vertices(h).vertices
        assert len(got) == len(want)
        assert same_vertex_set(got, want, 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        k=st.integers(1, 4),
        cross=st.booleans(),
        extra=st.integers(0, 3),
        dups=st.integers(0, 3),
        flat_rows=st.integers(0, 2),
    )
    # degenerate vertices: each of the 8 vertices of the 4-cross-polytope is
    # on 8 of its 16 facets, here with repeated and flat rows as well
    @example(seed=0, k=4, cross=True, extra=0, dups=3, flat_rows=2)
    @example(seed=1, k=3, cross=True, extra=0, dups=2, flat_rows=2)
    def test_stacked_bases_match_the_per_point_reference(
        self, seed, k, cross, extra, dups, flat_rows
    ):
        # the same bases in the same order as the per-point scan, and the same
        # vertex bytes as one solve per basis
        h = random_hpolytope(np.random.default_rng(seed), k, cross, extra, dups, flat_rows)
        calls = []
        stacked = comgeo._first_bases

        def recorded(*args):
            calls.append((args, stacked(*args)))
            return calls[-1][1]

        with mock.patch.object(comgeo, "_first_bases", recorded):
            got = enumerate_max_vertices(h).vertices
        [((a, scale, tight, tol), bases)] = calls
        want = sorted({first_basis(a, scale, t, tol) for t in tight})
        assert [tuple(basis) for basis in bases.tolist()] == want
        assert got.tobytes() == basis_vertices(h, want).tobytes()

    @pytest.mark.parametrize(
        "n, like, count",
        [(3, classical_model(3), 9), (4, gbit_model(), 24)],
        ids=["triangle", "square"],
    )
    def test_polygon_pairs_match_their_models(self, n, like, count):
        # the triangle is a classical trit and the square a gbit, in other
        # coordinates, so their pairs have as many maximal vertices
        assert len(enumerate_max_vertices(max_tensor_constraints(like, like)).vertices) == count
        p = polygon_model(n)
        assert len(enumerate_max_vertices(max_tensor_constraints(p, p)).vertices) == count

    def test_pentagon_pair(self):
        # irrational coordinates on 100 rows
        p = polygon_model(5)
        h = max_tensor_constraints(p, p)
        assert len(h.ineq_normals) == 100
        verts = enumerate_max_vertices(h).vertices
        assert len(verts) == 135
        assert max_tensor_membership(verts, h, 1e-9)

    @pytest.mark.parametrize(
        "a, b",
        [(classical_model(2), classical_model(2)), (classical_model(2), gbit_model()),
         (gbit_model(), gbit_model()), (classical_model(3), classical_model(3)),
         (classical_model(4), gbit_model())],
    )
    def test_a_start_on_the_boundary_raises(self, a, b, monkeypatch):
        # a min_tensor vertex is tight at some effect pair: no LP looks for
        # another start
        monkeypatch.setattr(comgeo, "linprog", None)
        h = max_tensor_constraints(a, b)
        boundary = dataclasses.replace(h, interior=min_tensor(a, b).vertices[0])
        with pytest.raises(ValueError, match="interior"):
            enumerate_max_vertices(boundary)

    @pytest.mark.parametrize(
        "h, kind",
        [
            (HPolytope(2, [[1, 0]], [0], [[0, 1], [0, 2]], [1, 2], [1, 1]), "dependent"),
            # one constraint leaves a half-plane of the plane x_3 = 1
            (HPolytope(3, [[1, 0, 0]], [0], [[0, 0, 1]], [1], [1, 0, 1]), "unbounded"),
            # x_1 >= 0 and -x_1 >= 0 on the line x_2 = 1: a single point, so
            # no point is strictly inside
            (HPolytope(2, [[1, 0], [-1, 0]], [0, 0], [[0, 1]], [1], [0, 1]), "interior"),
            # x_1 >= 1 and -x_1 >= 0 on that line: empty, through live rows
            (HPolytope(2, [[1, 0], [-1, 0]], [1, 0], [[0, 1]], [1], [0.5, 1]), "interior"),
            # x_1 >= 0 alone on the line x_2 = 1, a ray
            (HPolytope(2, [[1, 0]], [0], [[0, 1]], [1], [1, 1]), "unbounded"),
            # x_1, x_2 >= 0 and x_1 + x_2 >= 1 on the plane x_3 = 1: the dual
            # points span the plane, but Qhull finds the origin outside them
            (
                HPolytope(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], [0, 0, 1], [[0, 0, 1]], [1], [1, 1, 1]),
                "unbounded",
            ),
            # 2 x_2 >= 3 is constant on the line x_2 = 1, and false there
            (HPolytope(2, [[1, 0], [-1, 0], [0, 2]], [-1, -1, 3], [[0, 1]], [1], [0.5, 1]), "empty"),
        ],
    )
    def test_rejects_with_named_reason(self, h, kind):
        with pytest.raises(ValueError, match=kind):
            enumerate_max_vertices(h)

    @pytest.mark.parametrize(
        "name, fake, match",
        [
            ("_extreme_points", with_centroid, "not a vertex"),
            ("max_tensor_membership", lambda original: lambda *args: False, "violates a constraint"),
        ],
        ids=["extreme_points", "membership"],
    )
    def test_an_internal_failure_raises(self, monkeypatch, name, fake, match):
        # checks that no valid input reaches: a point that is not a vertex,
        # and a vertex that breaks a constraint
        monkeypatch.setattr(comgeo, name, fake(getattr(comgeo, name)))
        with pytest.raises(RuntimeError, match=match):
            enumerate_max_vertices(TRIANGLE)


def near_classical(kind):
    """classical:3 with one exact test of ``comgeo._is_classical`` broken,
    still a valid model: the dual-basis effect of vertex 0 one ulp below 1
    there, or a complement effect at -1e-12 (within ``VALID_TOL``) on it."""
    eye, ones = np.eye(3), np.ones(3)
    effects = np.vstack([eye, ones - eye])
    if kind == "ulp":
        effects[0, 0] = np.nextafter(1.0, 0.0)
    else:
        effects[3, 0] = -1e-12
    return ComModel(3, eye, effects, ones)


BUILT_IN = {
    "classical:2": classical_model(2),
    "classical:3": classical_model(3),
    "classical:4": classical_model(4),
    "gbit": gbit_model(),
}


@contextlib.contextmanager
def enumerated_dims():
    """A list that gets the ambient dimension of each H-polytope enumerated
    through ``comgeo.enumerate_max_vertices`` while the context is open."""
    dims = []
    original = comgeo.enumerate_max_vertices

    def recorded(h):
        dims.append(h.ambient_dim)
        return original(h)

    with mock.patch.object(comgeo, "enumerate_max_vertices", recorded):
        yield dims


class TestMaxTensorVertices:
    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.sampled_from(list(BUILT_IN)), st.sampled_from(list(BUILT_IN))).filter(
            lambda pair: BUILT_IN[pair[0]].ambient_dim * BUILT_IN[pair[1]].ambient_dim
            <= comgeo.ENUM_DIM_CAP
        )
    )
    def test_equals_the_general_enumeration(self, pair):
        a, b = BUILT_IN[pair[0]], BUILT_IN[pair[1]]
        got = comgeo.max_tensor_vertices(a, b).vertices
        want = enumerate_max_vertices(max_tensor_constraints(a, b)).vertices
        assert len(got) == len(want)
        assert same_vertex_set(got, want, ROUND_TOL)

    @pytest.mark.parametrize(
        "a, b, dims",
        [("classical:2", "classical:3", []), ("classical:2", "gbit", [3]),
         ("gbit", "classical:4", [3]), ("gbit", "gbit", [9])],
    )
    def test_products_in_the_order_of_the_theorem(self, a, b, dims):
        # A slowest; a non-classical factor contributes its effect polytope,
        # and only a pair with no classical factor is enumerated whole
        a, b = BUILT_IN[a], BUILT_IN[b]
        with enumerated_dims() as seen:
            got = comgeo.max_tensor_vertices(a, b).vertices
        assert seen == dims
        if dims != [9]:
            assert np.array_equal(got, min_tensor(a, b).vertices)

    @pytest.mark.parametrize("kind", ["ulp", "negative"])
    def test_a_near_classical_model_takes_the_general_path(self, kind):
        a, b = near_classical(kind), gbit_model()
        assert not comgeo._is_classical(a)
        for x, y in ((a, b), (b, a)):
            with enumerated_dims() as seen:
                got = comgeo.max_tensor_vertices(x, y).vertices
            assert seen == [9]
            want = enumerate_max_vertices(max_tensor_constraints(x, y)).vertices
            assert np.array_equal(got, want)

    def test_products_are_checked(self, monkeypatch):
        monkeypatch.setattr(comgeo, "max_tensor_membership", lambda *args: False)
        with pytest.raises(RuntimeError, match="violates a constraint"):
            comgeo.max_tensor_vertices(classical_model(2), classical_model(3))

    def test_dim_cap_on_the_theorem_path(self):
        with pytest.raises(ValueError, match="cap"):
            comgeo.max_tensor_vertices(classical_model(4), classical_model(4))


class TestGptMarginals:
    def test_product_recovery(self):
        a, b = gbit_model(), gbit_model()
        for va in a.vertices:
            for vb in b.vertices:
                phi = BilinearState(np.outer(va, vb))
                oa, ob = gpt_marginals(phi, a, b)
                np.testing.assert_allclose(oa, va, atol=1e-12)
                np.testing.assert_allclose(ob, vb, atol=1e-12)

    def test_pr_box_center_marginals(self):
        gb = gbit_model()
        oa, ob = gpt_marginals(pr_box(), gb, gb)
        np.testing.assert_allclose(oa, [0.5, 0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(ob, [0.5, 0.5, 1.0], atol=1e-12)

    def test_mixture_linearity(self):
        a, b = gbit_model(), gbit_model()
        p1 = np.outer(a.vertices[0], b.vertices[1])
        p2 = np.outer(a.vertices[3], b.vertices[2])
        phi = BilinearState((p1 + p2) / 2)
        oa, ob = gpt_marginals(phi, a, b)
        np.testing.assert_allclose(
            oa, (a.vertices[0] + a.vertices[3]) / 2, atol=1e-12
        )
        np.testing.assert_allclose(
            ob, (b.vertices[1] + b.vertices[2]) / 2, atol=1e-12
        )

    def test_a_stack_of_rows_equals_row_by_row(self, rng):
        # the 24 vertices of the gbit pair's maximal product, and mixtures of them
        gb = gbit_model()
        verts = enumerate_max_vertices(max_tensor_constraints(gb, gb)).vertices
        rows = np.vstack([verts, rng.dirichlet(np.ones(len(verts)), size=40) @ verts])
        oa, ob = gpt_marginals(rows, gb, gb)
        assert oa.shape == ob.shape == (len(rows), 3)
        for x, row_a, row_b in zip(rows, oa, ob):
            one_a, one_b = gpt_marginals(BilinearState(x.reshape(3, 3)), gb, gb)
            assert row_a.tobytes() == one_a.tobytes() and row_b.tobytes() == one_b.tobytes()

    def test_rejects_non_member(self):
        gb = gbit_model()
        bad = BilinearState(2.0 * pr_box().coord)
        # alone, and as a row after a good one
        for phi in (bad, np.vstack([pr_box().vector(), bad.vector()])):
            with pytest.raises(ValueError, match="maximal tensor"):
                gpt_marginals(phi, gb, gb)

    def test_rejects_a_non_finite_state(self):
        gb = gbit_model()
        x = pr_box().vector().copy()
        x[4] = np.nan
        with pytest.raises(ValueError, match="maximal tensor"):
            gpt_marginals(x, gb, gb)

    def test_rejects_marginal_outside_state_space(self):
        # the one effect of this model does not cut out its state space, so
        # phi lies in the maximal tensor product with A-marginal (2, -1)
        m = ComModel(2, np.eye(2), [[0.5, 0.5]], np.ones(2))
        phi = BilinearState([[2.0, 0.0], [0.0, -1.0]])
        # alone, and as a row after a product state
        for x in (phi, np.vstack([np.outer(m.vertices[0], m.vertices[1]).ravel(), phi.vector()])):
            with pytest.raises(ValueError, match="A-marginal left the model state space"):
                gpt_marginals(x, m, m)


    def test_rejects_b_marginal_outside_state_space(self):
        # the same model on B: phi(e, f) = 0.25 on the one effect pair, and
        # the B-marginal is (2, -1)
        m = ComModel(2, np.eye(2), [[0.5, 0.5]], np.ones(2))
        phi = BilinearState([[1.0, -0.5], [1.0, -0.5]])
        with pytest.raises(ValueError, match="B-marginal left the model state space"):
            gpt_marginals(phi, classical_model(2), m)


class TestInputWidths:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: hull_distance(np.zeros(3), np.zeros((2, 2))), "point dim 3"),
            (lambda: polytope_equal(VPolytope(np.eye(2)), VPolytope(np.eye(3)), 1e-9), "ambient dims differ"),
            (
                lambda: max_tensor_membership(np.zeros(4), max_tensor_constraints(gbit_model(), gbit_model()), 1e-9),
                "state dim 4",
            ),
        ],
        ids=["hull_distance", "polytope_equal", "max_tensor_membership"],
    )
    def test_a_width_mismatch_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestConstruction:
    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: VPolytope(np.zeros((0, 2))), "at least one vertex"),
            (lambda: HPolytope(2, [], [], [], [], [0, 0]), "at least one constraint"),
        ],
        ids=["VPolytope", "HPolytope"],
    )
    def test_an_empty_polytope_raises(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize(
        "field, value",
        [
            # one offset for three rows, which a membership test broadcast
            ("ineq_offsets", [0]),
            # a 9-entry row in dimension 3, which enumeration read as three rows
            ("ineq_normals", [[1, 0, 0, 0, 1, 0, -1, -1, 1]]),
            ("eq_normals", [0, 0, 1]),
            ("eq_values", [1, 1]),
            ("interior", [0.25, 0.25]),
        ],
        ids=["one offset", "9-entry row", "flat equality row", "two values", "2-entry interior"],
    )
    def test_a_shape_mismatch_raises(self, field, value):
        with pytest.raises(ValueError, match=f"H-polytope {field} has shape"):
            dataclasses.replace(TRIANGLE, **{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["ineq_normals", "ineq_offsets", "eq_normals", "eq_values", "interior"])
    def test_a_non_finite_hpolytope_entry_raises(self, field, bad):
        # a NaN normal used to enumerate as "unbounded", and a NaN offset to
        # fail inside scipy's linprog
        value = np.array([0.25, 0.25, 1.0] if field == "interior" else getattr(TRIANGLE, field))
        value.flat[0] = bad
        with pytest.raises(ValueError, match="H-polytope has a NaN or inf entry"):
            dataclasses.replace(TRIANGLE, **{field: value})


class TestBilinearTable:
    def test_pr_box_normalization(self):
        gb = gbit_model()
        table = pr_box().table(gb, gb)
        assert table[-1, -1] == pytest.approx(1.0)
        assert table.min() >= -1e-12


# values a JSON file can carry that the constructors reject: the NaN and
# Infinity literals, and rows of the wrong width
class TestJsonBoundary:
    @pytest.mark.parametrize(
        "field, what",
        [("vertices", "unit functional"), ("effects", "extreme effect"), ("unit", "unit functional")],
    )
    def test_model_entries_must_not_be_nan(self, field, what):
        # json reads the NaN literal
        m = classical_model(2)
        fields = {name: getattr(m, name).tolist() for name in ("vertices", "effects", "unit")}
        (fields["unit"] if field == "unit" else fields[field][0])[0] = float("nan")
        with pytest.raises(ValueError, match=what):
            ComModel(m.ambient_dim, **json.loads(json.dumps(fields)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_polytope_vertices_must_be_finite(self, bad):
        # json reads the NaN and Infinity literals; a NaN vertex used to
        # answer every membership question "in"
        vertices = json.loads(json.dumps([[0, 0], [bad, 0], [1, 1]]))
        with pytest.raises(ValueError, match="NaN or inf"):
            VPolytope(vertices)
        with pytest.raises(ValueError, match="NaN or inf"):
            VPolytope(np.array([[0.0, 0.0], [1.0, bad]]))
        # and the distance questions, which take their vertices as rows
        with pytest.raises(ValueError, match="polytope has a NaN or inf vertex entry"):
            hull_distance([5.0, -3.0], vertices)
        with pytest.raises(ValueError, match="polytope has a NaN or inf vertex entry"):
            max_hull_distance([([5.0, -3.0], vertices)])

    @pytest.mark.parametrize("field", ["ambient_dim", "vertices", "effects", "unit"])
    def test_model_widths_must_match_ambient_dim(self, field):
        # gbit with its ambient_dim, or the rows of one field, one wider
        m = gbit_model()
        fields = {name: getattr(m, name).tolist() for name in ("vertices", "effects", "unit")}
        dim = 4 if field == "ambient_dim" else m.ambient_dim
        if field == "unit":
            fields[field].append(0.0)
        elif field != "ambient_dim":
            for row in fields[field]:
                row.append(0.0)
        with pytest.raises(ValueError, match="ambient_dim"):
            ComModel(dim, **fields)
