import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import cli, comgeo, invsep, jsonio, matcore, qstate
from entgeo.comgeo import BilinearState, VPolytope, gbit_model, pr_box
from entgeo.invsep import (
    Decomposition,
    MeasureConfig,
    StatePolytope,
    classical_invariance_check,
    css_from_decomposition,
    g_measure,
    gpt_lambda_tau,
    gpt_separable,
    is_css,
    is_product,
    lambda_map,
    lambda_tau,
    ppt_min_eigenvalue,
    ppt_verdict,
    psi_preimage_member,
    tau,
    werner_product_decomposition,
)
from entgeo.matcore import CSS_TOL, DECISION_TOL, DimSplit
from entgeo.qstate import DensityMatrix

from conftest import TWO_QUBITS

QUBIT = DimSplit(2, 1)


def qubit_state(mat):
    return DensityMatrix(mat, QUBIT)


def random_product(seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        mats.append(m / np.trace(m).real)
    return mats[0], mats[1]


def random_stack(dims, shape, seed) -> DensityMatrix:
    """A stack of random states of every rank, with some products among them,
    as one validated ``DensityMatrix`` of the given stack shape."""
    split = DimSplit(*dims)
    rng = np.random.default_rng(seed)
    mats = []
    for s in rng.integers(0, 2**32, size=int(np.prod(shape))).tolist():
        if s % 4 == 0:
            qa, qb = DimSplit(split.dim_a, 1), DimSplit(1, split.dim_b)
            a, b = qstate.random_mixed(qa, 2, s).mat, qstate.random_mixed(qb, 2, s + 1).mat
            mats.append(matcore.kron(a, b))
        else:
            mats.append(qstate.random_mixed(split, 1 + s % split.dim, s).mat)
    return qstate._validated(np.reshape(mats, (*shape, split.dim, split.dim)), split, "state")


STACKS = dict(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    shape=st.sampled_from([(1,), (4,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)


@st.composite
def state_polytopes(draw) -> StatePolytope:
    """1 to 6 random states of ranks 1 to dim on a split of factors 1 to 3."""
    split = DimSplit(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    ranks = draw(st.lists(st.integers(1, split.dim), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    return StatePolytope(
        tuple(qstate.random_mixed(split, r, seed + j) for j, r in enumerate(ranks)), split
    )


def fresh(c: StatePolytope) -> StatePolytope:
    """The polytope c as a new, validated object, which computes its own
    ``tau`` instead of the pair a product polytope carries."""
    return StatePolytope(c.vertices, c.split)


@st.composite
def decompositions(draw) -> Decomposition:
    """1 to 4 product terms of random factors of ranks 1 to 2 on a split of
    factors 1 to 3, with Dirichlet weights."""
    split = DimSplit(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = DimSplit(split.dim_a, 1), DimSplit(1, split.dim_b)
    seeds = rng.integers(0, 2**32, size=(k, 2)).tolist()
    terms = tuple(
        (w, *(qstate.random_mixed(q, min(1 + s % 2, q.dim), s).mat for q, s in zip(sides, pair)))
        for w, pair in zip(rng.dirichlet(np.ones(k)), seeds)
    )
    return Decomposition(terms, split)


class TestStatePolytope:
    def test_vertices_are_one_complex_array(self):
        mats = [qstate.random_mixed(TWO_QUBITS, 4, seed=j).mat for j in range(3)]
        for given in (tuple(mats), mats, np.array(mats), [DensityMatrix(m, TWO_QUBITS) for m in mats]):
            c = StatePolytope(given, TWO_QUBITS)
            assert c.vertices.dtype == complex and c.vertices.shape == (3, 4, 4)
            np.testing.assert_array_equal(c.vertices, mats)
            np.testing.assert_array_equal(c.flat(), [invsep.flatten_matrix(m) for m in mats])

    def test_message_names_the_first_invalid_vertex(self):
        good = qstate.werner_state(0.3).mat
        with pytest.raises(ValueError, match="invalid vertex 1: negative eigenvalue"):
            StatePolytope((good, np.diag([1.5, -0.5, 0, 0]), np.eye(4)), TWO_QUBITS)
        with pytest.raises(ValueError, match="invalid vertex 2: trace"):
            StatePolytope((good, good, np.eye(4)), TWO_QUBITS)

    @pytest.mark.parametrize(
        "verts, what",
        [
            ((np.eye(4) / 4, np.eye(2) / 2), "vertices must be matrices of one shape"),
            ((np.eye(2) / 2, np.eye(2) / 2), "invalid vertex shape"),
            ((np.ones(4) / 4,), "vertices must be matrices of one shape"),
            (np.eye(4) / 4, "vertices must be matrices of one shape"),
            ((DensityMatrix(np.eye(2) / 2, QUBIT),), "vertex dimension mismatch"),
            ((DensityMatrix(np.eye(2) / 2, QUBIT), np.eye(4) / 4), "one shape"),
            ((), "needs at least one vertex"),
        ],
    )
    def test_rejects_vertices_of_the_wrong_shape(self, verts, what):
        with pytest.raises(ValueError, match=what):
            StatePolytope(verts, TWO_QUBITS)

    def test_message_names_the_first_invalid_factor(self):
        r1, r2 = random_product(37)
        terms = [(0.25, r1, r2)] * 3 + [(0.25, r1, np.diag([1.5, -0.5]))]
        with pytest.raises(ValueError, match="invalid B factor 3: negative eigenvalue"):
            Decomposition(tuple(terms), TWO_QUBITS)
        terms[1] = (0.25, np.eye(2), r2)
        with pytest.raises(ValueError, match="invalid A factor 1: trace"):
            Decomposition(tuple(terms), TWO_QUBITS)
        terms[1] = (0.25, np.eye(3) / 3, r2)
        with pytest.raises(ValueError, match="A factors must be matrices of one shape"):
            Decomposition(tuple(terms), TWO_QUBITS)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: MeasureConfig("cube", "frobenius"), "unknown f_kind 'cube'"),
            (lambda: MeasureConfig("identity", "spectral"), "unknown norm_kind 'spectral'"),
            (lambda: classical_invariance_check(1, 2), "classical factors need n >= 2"),
            (lambda: werner_product_decomposition(0.4), "only for p <= 1/3, got 0.4"),
        ],
        ids=["f_kind", "norm_kind", "classical n", "werner p"],
    )
    def test_rejects_with_named_reason(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestTau:
    def test_bell_singleton(self):
        c = StatePolytope((qstate.bell_state("phi+"),), TWO_QUBITS)
        a, b = tau(c)
        assert len(a.vertices) == 1
        np.testing.assert_allclose(a.vertices[0], np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(b.vertices[0], np.eye(2) / 2, atol=1e-12)

    def test_product_vertices(self):
        r1, r2 = random_product(1)
        s1, s2 = random_product(2)
        c = StatePolytope(
            (matcore.kron(r1, r2), matcore.kron(s1, s2)), TWO_QUBITS
        )
        a, b = tau(c)
        flat_a = a.flat()
        for m in (r1, s1):
            assert comgeo.hull_membership(
                invsep.flatten_matrix(m), VPolytope(flat_a), 1e-9
            )

    def test_marginal_validity(self):
        verts = tuple(
            qstate.random_mixed(TWO_QUBITS, 4, seed=s).mat for s in range(4)
        )
        a, b = tau(StatePolytope(verts, TWO_QUBITS))
        for m in [*a.vertices, *b.vertices]:
            DensityMatrix(m, QUBIT)  # raises if marginal is not a valid state


class TestLambdaMap:
    def test_singleton_product(self):
        r1, r2 = random_product(3)
        out = lambda_map(
            StatePolytope((r1,), QUBIT), StatePolytope((r2,), DimSplit(1, 2))
        )
        assert len(out.vertices) == 1
        np.testing.assert_allclose(out.vertices[0], matcore.kron(r1, r2), atol=1e-14)

    def test_classical_embedding(self):
        basis = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        out = lambda_map(
            StatePolytope(basis, QUBIT), StatePolytope(basis, DimSplit(1, 2))
        )
        assert len(out.vertices) == 4

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    )
    def test_matches_reduced_kron_products(self, seeds_a, seeds_b):
        # reducing the factors and keeping every product gives the same hull
        # as reducing all k1 * k2 kron products; for generic factors every
        # product is a vertex
        fa = [random_product(s)[0] for s in seeds_a]
        fb = [random_product(s)[1] for s in seeds_b]
        out = lambda_map(StatePolytope(fa, QUBIT), StatePolytope(fb, QUBIT))
        kron_rows = [invsep.flatten_matrix(matcore.kron(a, b)) for a in fa for b in fb]
        old = VPolytope(comgeo.reduce_rows(np.array(kron_rows)))
        assert comgeo.polytope_equal(VPolytope(out.flat()), old, 1e-8)
        if len(set(seeds_a)) == len(seeds_a) and len(set(seeds_b)) == len(seeds_b):
            assert len(out.vertices) == len(old.vertices) == len(fa) * len(fb)

    def test_inverts_tau_on_witnesses(self):
        d = werner_product_decomposition(0.25)
        s = css_from_decomposition(d)
        # tau of a fresh copy, recomputed from the vertices, not the pair
        # that s carries
        rebuilt = lambda_map(*tau(fresh(s)))
        assert comgeo.polytope_equal(VPolytope(rebuilt.flat()), VPolytope(s.flat()), 1e-8)


class TestLambdaTau:
    def test_singleton_equals_pi(self):
        rho = qstate.random_mixed(TWO_QUBITS, 3, seed=5)
        out = lambda_tau(StatePolytope((rho,), TWO_QUBITS))
        assert len(out.vertices) == 1
        np.testing.assert_allclose(
            out.vertices[0], qstate.pi_map(rho).mat, atol=1e-12
        )

    def test_product_singleton_fixed(self):
        r1, r2 = random_product(7)
        c = StatePolytope((matcore.kron(r1, r2),), TWO_QUBITS)
        assert is_css(c)
        np.testing.assert_allclose(lambda_tau(c).vertices, c.vertices, rtol=0, atol=1e-10)

    def test_idempotent_on_random_polytopes(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 5))
            verts = tuple(
                qstate.random_mixed(TWO_QUBITS, 4, seed=100 * seed + j).mat
                for j in range(k)
            )
            lt = lambda_tau(StatePolytope(verts, TWO_QUBITS))
            assert is_css(lt)

    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3)]),
        ranks=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_idempotent_on_generated_polytopes(self, dims, ranks, seed):
        split = DimSplit(*dims)
        verts = tuple(
            qstate.random_mixed(split, min(r, split.dim), seed=seed + j)
            for j, r in enumerate(ranks)
        )
        once = lambda_tau(StatePolytope(verts, split))
        twice = lambda_tau(fresh(once))  # recomputes tau of the image
        assert comgeo.polytope_equal(VPolytope(twice.flat()), VPolytope(once.flat()), 1e-8)


class TestIsCss:
    def test_product_singleton(self):
        r1, r2 = random_product(11)
        assert is_css(StatePolytope((matcore.kron(r1, r2),), TWO_QUBITS))

    def test_bell_singleton(self):
        assert not is_css(StatePolytope((qstate.bell_state("phi+"),), TWO_QUBITS))

    def test_decomposition_witnesses(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(k))
            terms = tuple(
                (w[i], *random_product(1000 * seed + i)) for i in range(k)
            )
            s = css_from_decomposition(Decomposition(terms, TWO_QUBITS))
            assert is_css(s)


class TestCssFromDecomposition:
    def test_single_term(self):
        r1, r2 = random_product(13)
        d = Decomposition(((1.0, r1, r2),), TWO_QUBITS)
        s = css_from_decomposition(d)
        assert len(s.vertices) == 1

    def test_werner_quarter_witness(self):
        d = werner_product_decomposition(0.25)
        # fixture verification: the decomposition reconstructs werner(1/4)
        assert (
            matcore.norm(d.state().mat - qstate.werner_state(0.25).mat, "frobenius")
            <= 1e-12
        )
        s = css_from_decomposition(d)
        dist, _ = comgeo.hull_distance(
            invsep.flatten_matrix(qstate.werner_state(0.25).mat), s.flat()
        )
        assert dist <= 1e-8
        assert is_css(s)

    def test_two_term_witness(self):
        r1, r2 = random_product(17)
        s1, s2 = random_product(19)
        d = Decomposition(((0.5, r1, r2), (0.5, s1, s2)), TWO_QUBITS)
        s = css_from_decomposition(d)
        assert len(s.vertices) == 4
        assert is_css(s)

    def test_invalid_weights(self):
        r1, r2 = random_product(23)
        with pytest.raises(ValueError, match="sum to 1"):
            Decomposition(((0.7, r1, r2),), TWO_QUBITS)

    @pytest.mark.parametrize("weights", [[np.nan], [0.5, np.nan], [np.inf, -np.inf]])
    def test_non_finite_weights(self, weights):
        # NaN compares false both ways, so a sum check phrased as "reject if
        # off by more than 1e-10" lets it through
        r1, r2 = random_product(29)
        with pytest.raises(ValueError, match="finite"):
            Decomposition(tuple((w, r1, r2) for w in weights), TWO_QUBITS)

    @pytest.mark.parametrize(
        "side, factor, problem",
        [
            ("a", np.diag([1.5, -0.5]), "negative eigenvalue"),
            ("b", np.diag([1.5, -0.5]), "negative eigenvalue"),
            ("a", np.eye(2), "trace"),
            ("b", np.eye(3) / 3, "shape"),
            ("a", np.array([[0.5, 0.5], [0.0, 0.5]]), "hermiticity"),
        ],
    )
    def test_invalid_factor_rejected_at_construction(self, side, factor, problem):
        r1, r2 = random_product(31)
        term = (1.0, factor, r2) if side == "a" else (1.0, r1, factor)
        with pytest.raises(ValueError, match=problem):
            Decomposition((term,), TWO_QUBITS)


class TestIsProduct:
    def test_product(self):
        r1, r2 = random_product(29)
        assert is_product(DensityMatrix(matcore.kron(r1, r2), TWO_QUBITS), 1e-10)

    def test_bell(self):
        assert not is_product(qstate.bell_state("phi+"), 1e-10)

    def test_weak_werner_not_product(self):
        assert not is_product(qstate.werner_state(0.01), 1e-6)


class TestPpt:
    def test_bell(self):
        rho = qstate.bell_state("phi+")
        assert ppt_min_eigenvalue(rho) == pytest.approx(-0.5, abs=1e-12)
        assert ppt_verdict(rho) == "entangled"

    def test_werner_analytic_grid(self):
        for p in np.linspace(0, 1, 21):
            got = ppt_min_eigenvalue(qstate.werner_state(float(p)))
            assert got == pytest.approx((1 - 3 * p) / 4, abs=1e-9)

    def test_product_separable(self):
        r1, r2 = random_product(31)
        rho = DensityMatrix(matcore.kron(r1, r2), TWO_QUBITS)
        assert ppt_min_eigenvalue(rho) >= -1e-12
        assert ppt_verdict(rho) == "separable"

    @pytest.mark.parametrize("dims", [(1, 1), (1, 4), (4, 1), (1, 7), (6, 1)])
    def test_one_dimensional_factor_is_separable(self, dims):
        # such a state is a product with a scalar, whatever its spectrum
        split = DimSplit(*dims)
        rho = qstate.random_mixed(split, split.dim, seed=5)
        assert ppt_verdict(rho) == "separable"
        assert invsep.ppt_verdict_from_eigenvalue(-1.0, split) == "separable"

    def test_inconclusive_beyond_2x3(self):
        rho = qstate.random_mixed(DimSplit(3, 3), 1, seed=37)
        if ppt_min_eigenvalue(rho) >= -matcore.VALID_TOL:
            assert ppt_verdict(rho) == "inconclusive"

    @settings(max_examples=30, deadline=None)
    @given(**STACKS)
    def test_a_stack_gives_the_value_of_each_state(self, dims, shape, seed):
        rho = random_stack(dims, shape, seed)
        got = ppt_min_eigenvalue(rho)
        assert got.shape == shape
        slices = rho.mat.reshape(-1, *rho.mat.shape[-2:])
        per_state = [ppt_min_eigenvalue(DensityMatrix(m, rho.split)) for m in slices]
        assert all(type(x) is float for x in per_state)
        assert got.tobytes() == np.array(per_state).tobytes()

    def test_maximally_mixed_3x3_is_inconclusive(self):
        # PPT, but on a 3x3 split that does not prove separability
        assert ppt_verdict(DensityMatrix(np.eye(9) / 9, DimSplit(3, 3))) == "inconclusive"


class TestGptSeparable:
    def test_product_vertices(self):
        gb = gbit_model()
        for va in gb.vertices[:2]:
            for vb in gb.vertices[:2]:
                phi = BilinearState(np.outer(va, vb))
                assert gpt_separable(phi, gb, gb)

    def test_pr_box_entangled_with_certificate(self):
        gb = gbit_model()
        assert not gpt_separable(pr_box(), gb, gb)
        h, c, gap = comgeo.separating_hyperplane(
            pr_box().vector(), comgeo.min_tensor(gb, gb)
        )
        assert gap > 1e-3

    def test_uniform_product_mixture(self):
        gb = gbit_model()
        mix = np.mean(
            [np.outer(va, vb) for va in gb.vertices for vb in gb.vertices], axis=0
        )
        assert gpt_separable(BilinearState(mix), gb, gb)

    def test_rejects_outside_max(self):
        gb = gbit_model()
        with pytest.raises(ValueError, match="maximal tensor"):
            gpt_separable(BilinearState(1.5 * pr_box().coord), gb, gb)

    def test_rejects_a_non_finite_state(self):
        gb = gbit_model()
        coord = pr_box().coord.copy()
        coord[1, 1] = np.nan
        with pytest.raises(ValueError, match="maximal tensor"):
            gpt_separable(BilinearState(coord), gb, gb)


class TestGMeasure:
    def test_product_zero(self):
        r1, r2 = random_product(41)
        rho = DensityMatrix(matcore.kron(r1, r2), TWO_QUBITS)
        assert g_measure(rho) <= 1e-12

    def test_bell_frobenius(self):
        got = g_measure(qstate.bell_state("phi+"))
        assert got == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_werner_linear_in_p(self):
        for p in np.linspace(0, 1, 11):
            got = g_measure(qstate.werner_state(float(p)))
            assert got == pytest.approx(np.sqrt(3) / 2 * p, abs=1e-9)

    def test_variants_positive_on_entangled(self):
        rho = qstate.bell_state("psi-")
        for f_kind in ("identity", "abs", "square"):
            for norm_kind in ("frobenius", "trace", "max_abs"):
                assert g_measure(rho, MeasureConfig(f_kind, norm_kind)) > 1e-6

    def test_local_unitary_invariance(self):
        rho = qstate.random_mixed(TWO_QUBITS, 3, seed=43)
        u = qstate.random_unitary(2, seed=44)
        v = qstate.random_unitary(2, seed=45)
        uv = matcore.kron(u, v)
        rot = DensityMatrix(uv @ rho.mat @ uv.conj().T, TWO_QUBITS)
        for norm_kind in ("frobenius", "trace"):
            cfg = MeasureConfig("identity", norm_kind)
            assert abs(g_measure(rho, cfg) - g_measure(rot, cfg)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(**STACKS)
    def test_a_stack_of_deltas_gives_the_measure_of_each(self, dims, shape, seed):
        deltas = invsep.pi_delta(random_stack(dims, shape, seed))
        slices = deltas.reshape(-1, *deltas.shape[-2:])
        for f_kind in ("identity", "abs", "square"):
            for norm_kind in ("frobenius", "trace", "max_abs"):
                cfg = MeasureConfig(f_kind, norm_kind)
                got = invsep.measure_of_delta(deltas, cfg)
                assert got.shape == shape
                per_slice = [invsep.measure_of_delta(d, cfg) for d in slices]
                assert all(type(x) is float for x in per_slice)
                assert got.tobytes() == np.array(per_slice).tobytes()

    def test_calibration_zero_iff_product(self):
        for seed in range(20):
            rho = qstate.random_mixed(TWO_QUBITS, 2, seed=seed)
            assert (g_measure(rho) <= 1e-10) == is_product(rho, 1e-10)


class TestPsiPreimage:
    def test_product_in_own_singletons(self):
        r1, r2 = random_product(47)
        sigma = DensityMatrix(matcore.kron(r1, r2), TWO_QUBITS)
        c1 = StatePolytope((r1,), QUBIT)
        c2 = StatePolytope((r2,), DimSplit(1, 2))
        assert psi_preimage_member(sigma, c1, c2)

    def test_bell_in_maximally_mixed_singletons(self):
        # entangled states can sit in a preimage intersection: this is what
        # distinguishes the preimage up-map from the product-and-mix one
        c1 = StatePolytope((np.eye(2) / 2,), QUBIT)
        c2 = StatePolytope((np.eye(2) / 2,), DimSplit(1, 2))
        assert psi_preimage_member(qstate.bell_state("phi+"), c1, c2)

    def test_bell_marginal_mismatch(self):
        c1 = StatePolytope((np.diag([1.0, 0.0]),), QUBIT)
        c2 = StatePolytope((np.eye(2) / 2,), DimSplit(1, 2))
        assert not psi_preimage_member(qstate.bell_state("phi+"), c1, c2)


class TestStacks:
    @settings(max_examples=30, deadline=None)
    @given(**STACKS)
    def test_purity_ppt_verdict_and_preimage_give_the_result_of_each_state(
        self, dims, shape, seed
    ):
        rho = random_stack(dims, shape, seed)
        states = [DensityMatrix(m, rho.split) for m in rho.mat.reshape(-1, *rho.mat.shape[-2:])]
        # hulls of the first two states' marginals: they hold those two
        # states' marginals and, in general, not the others'
        c1, c2 = (
            StatePolytope(tuple(qstate.marginals(s)[side] for s in states[:2]), split)
            for side, split in enumerate((DimSplit(dims[0], 1), DimSplit(1, dims[1])))
        )
        for f, kind in (
            (qstate.purity, float),
            (ppt_verdict, str),
            (lambda r: psi_preimage_member(r, c1, c2), bool),
        ):
            per_state = [f(s) for s in states]
            assert all(type(x) is kind for x in per_state)
            got = f(rho)
            assert np.shape(got) == shape
            assert np.ravel(got).tolist() == per_state

    def test_werner_pair(self):
        rho = qstate.werner_state([0.1, 0.9])
        c1, c2 = (StatePolytope((np.eye(2) / 2,), split) for split in (QUBIT, DimSplit(1, 2)))
        one_by_one = [qstate.purity(qstate.werner_state(p)) for p in (0.1, 0.9)]
        assert qstate.purity(rho).tolist() == one_by_one
        assert ppt_verdict(rho).tolist() == ["separable", "entangled"]
        assert psi_preimage_member(rho, c1, c2).tolist() == [True, True]


class TestClassicalInvariance:
    def test_2x2(self):
        assert classical_invariance_check(2, 2)

    def test_2x3(self):
        assert classical_invariance_check(2, 3)

    def test_gbit_max_is_not_invariant(self):
        gb = gbit_model()
        omax = comgeo.enumerate_max_vertices(comgeo.max_tensor_constraints(gb, gb))
        image = gpt_lambda_tau(omax, gb, gb)
        assert not comgeo.polytope_equal(image, omax, 1e-8)

    def test_min_tensor_is_invariant(self):
        # the separable set is itself a fixed point, for both backends
        gb = gbit_model()
        omin = comgeo.min_tensor(gb, gb)
        assert comgeo.polytope_equal(gpt_lambda_tau(omin, gb, gb), omin, 1e-8)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            classical_invariance_check(6, 6)

    def test_vertex_outside_max_tensor_rejected(self):
        gb = gbit_model()
        verts = comgeo.min_tensor(gb, gb).vertices
        c = VPolytope(np.vstack([verts, 2.0 * pr_box().vector()]))
        with pytest.raises(ValueError, match="maximal tensor"):
            gpt_lambda_tau(c, gb, gb)

    def test_marginal_outside_state_space_rejected(self):
        # the one effect of this model does not cut out its state space, so
        # phi lies in the maximal tensor product with A-marginal (2, -1)
        m = comgeo.ComModel(2, np.eye(2), [[0.5, 0.5]], np.ones(2))
        c = VPolytope(np.array([[2.0, 0.0, 0.0, -1.0]]))
        with pytest.raises(ValueError, match="A-marginal left the model state space"):
            gpt_lambda_tau(c, m, m)


class TestBackendAgreement:
    def test_diagonal_states_agree_with_classical_model(self):
        # diagonal two-qubit states embed into the classical 2x2 composite,
        # where everything is separable; PPT must agree
        rng = np.random.default_rng(53)
        a, b = comgeo.classical_model(2), comgeo.classical_model(2)
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            rho = DensityMatrix(np.diag(w), TWO_QUBITS)
            assert ppt_verdict(rho) == "separable"
            phi = BilinearState(w.reshape(2, 2))
            assert gpt_separable(phi, a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 3), st.integers(2, 3)),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        fixed=st.booleans(),
    )
    def test_diagonal_polytopes_rebuild_alike(self, dims, k, seed, fixed):
        # on diagonal states the quantum map acts on the diagonals exactly as
        # the GPT map acts on the classical composite of the same split, and
        # the two fixed-point tests agree
        split = DimSplit(*dims)
        a, b = comgeo.classical_model(dims[0]), comgeo.classical_model(dims[1])
        w = np.random.default_rng(seed).dirichlet(np.ones(split.dim), size=k)
        if fixed:  # a fixed point of both maps, so that both tests can say yes
            w = gpt_lambda_tau(VPolytope(w), a, b).vertices
        c = StatePolytope(tuple(map(np.diag, w)), split)
        gpt = gpt_lambda_tau(VPolytope(w), a, b)
        diagonals = np.array([np.diag(v).real for v in lambda_tau(c).vertices])
        gaps = np.abs(diagonals[:, None] - gpt.vertices[None]).max(axis=2)
        assert len(diagonals) == len(gpt.vertices)
        assert gaps.min(axis=0).max() <= 1e-12 and gaps.min(axis=1).max() <= 1e-12
        assert is_css(c) == comgeo.polytope_equal(gpt, VPolytope(w), CSS_TOL)


class TestPaperInvariants:
    """The paper's maps on random state polytopes, as hypothesis properties."""

    @settings(max_examples=40, deadline=None)
    @given(state_polytopes())
    def test_tau_of_lambda_tau_has_the_hulls_of_tau(self, c):
        # tau recomputed from the vertices of lambda_tau(c), which carries tau(c)
        for once, twice in zip(tau(c), tau(fresh(lambda_tau(c)))):
            assert comgeo.polytope_equal(VPolytope(twice.flat()), VPolytope(once.flat()), CSS_TOL)

    @settings(max_examples=40, deadline=None)
    @given(state_polytopes())
    def test_every_vertex_is_in_the_preimage_of_its_marginals(self, c):
        vertices = qstate._validated(c.vertices, c.split, "vertex")
        assert psi_preimage_member(vertices, *tau(c)).all()

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        rank=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_css_singleton_is_the_fixed_point_test_of_the_singleton(self, dims, rank, seed):
        # on a random state and on the product of its marginals, at the
        # default --tol
        split = DimSplit(*dims)
        rho = qstate.random_mixed(split, min(rank, split.dim), seed)
        for state in (rho, qstate.pi_map(rho)):
            report = cli._quantum_report(state, "x", DECISION_TOL, "identity", "frobenius")
            assert report["verdicts"]["css_singleton"] == is_css(StatePolytope((state,), split))


class TestCarriedTau:
    """A product polytope is born with the reduced lists it was built from as
    its tau; tau of a fresh copy recomputes them from the vertices."""

    @settings(max_examples=30, deadline=None)
    @given(state_polytopes(), state_polytopes(), decompositions())
    def test_carried_tau_has_the_hulls_of_the_recomputed_tau(self, c1, c2, d):
        for x in (lambda_tau(c1), lambda_map(c1, c2), css_from_decomposition(d)):
            for carried, computed in zip(tau(x), tau(fresh(x))):
                assert len(carried.vertices) == len(computed.vertices)
                assert comgeo.polytope_equal(
                    VPolytope(carried.flat()), VPolytope(computed.flat()), CSS_TOL
                )

    @settings(max_examples=40, deadline=None)
    @given(state_polytopes())
    def test_lambda_tau_of_its_image_is_bit_identical(self, c):
        once = lambda_tau(c)
        twice = lambda_tau(once)
        assert twice.vertices.shape == once.vertices.shape
        assert twice.vertices.tobytes() == once.vertices.tobytes()

    def test_kept_outside_the_fields(self):
        verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=j) for j in range(3))
        c = StatePolytope(verts, TWO_QUBITS)
        before = repr(c)
        assert tau(c) is tau(c)
        assert repr(c) == before


@pytest.fixture
def reduce_rows_calls(monkeypatch):
    calls = []
    original = comgeo.reduce_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(comgeo, "reduce_rows", counted)
    return calls


class TestReduceRowsCounts:
    """``comgeo.reduce_rows`` calls per fixed-point question, deterministic:
    tau runs once per polytope, one call per side, and a product polytope
    needs none."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_polytope_and_its_image(self, reduce_rows_calls, k):
        verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=10 * k + j).mat for j in range(k))
        c = StatePolytope(verts, TWO_QUBITS)
        # tau(c) reduces each side once; the image carries its tau, and
        # is_css(c) finds tau(c) kept on c
        image = lambda_tau(c)
        assert is_css(image)
        assert not is_css(c)
        assert len(reduce_rows_calls) == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_witness(self, reduce_rows_calls, k):
        w = np.random.default_rng(k).dirichlet(np.ones(k))
        terms = tuple((w[i], *random_product(50 * k + i)) for i in range(k))
        # the witness reduces each side once and carries the result as its tau
        assert is_css(css_from_decomposition(Decomposition(terms, TWO_QUBITS)))
        assert len(reduce_rows_calls) == 2


class Reached(Exception):
    """Raised by a gated comgeo function that a call was not to reach."""


@pytest.fixture
def close_hull_questions(monkeypatch):
    """Replaces, when called, every comgeo function that asks a hull
    question (the certificate, the settle step, NNLS and the LP) with one
    that raises ``Reached``, and counts the per-row passes (``_outside``)
    and the ``hull_membership`` calls made after it, which it returns."""
    counts = {"_outside": 0, "hull_membership": 0}

    def close():
        for name in ("_certificate", "_settle", "nnls", "linprog"):
            def gate(*args, _name=name, **kwargs):
                raise Reached(f"comgeo.{_name}")

            monkeypatch.setattr(comgeo, name, gate)
        for name in counts:
            def counted(*args, _name=name, _original=getattr(comgeo, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(comgeo, name, counted)
        return counts

    return close


def product_polytopes(split, k, seed):
    """Product polytopes of k random states per side on ``split``: the image
    of a random polytope, ``lambda_map`` of two random sets of marginals, and
    the witness of a random decomposition."""
    sides = DimSplit(split.dim_a, 1), DimSplit(1, split.dim_b)
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**32, size=(3, k)).tolist()
    mixed = [qstate.random_mixed(split, split.dim, s) for s in seeds[0]]
    marginals = [
        StatePolytope(tuple(qstate.random_mixed(q, q.dim, s + j) for s in seeds[1]), q)
        for j, q in enumerate(sides)
    ]
    terms = tuple(
        (w, qstate.random_mixed(sides[0], 2, s).mat, qstate.random_mixed(sides[1], 1, s + 1).mat)
        for w, s in zip(rng.dirichlet(np.ones(k)), seeds[2])
    )
    return (
        lambda_tau(StatePolytope(tuple(mixed), split)),
        lambda_map(*marginals),
        css_from_decomposition(Decomposition(terms, split)),
    )


class TestFixedPointsByIdentity:
    """A product polytope carries its tau, so lambda_tau rebuilds its vertex
    array bit for bit, and ``is_css`` settles it with no hull question;
    ``polytope_equal`` does the same for two equal vertex arrays."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_product_polytopes_ask_no_hull_question(self, close_hull_questions, dims, k):
        polytopes = product_polytopes(DimSplit(*dims), k, seed=10 * k + dims[1])
        counts = close_hull_questions()
        assert all(is_css(c) for c in polytopes)
        # not even the nearest-vertex screen of a per-row pass
        assert counts["_outside"] == 0

    @pytest.mark.parametrize("n_a, n_b", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
    def test_classical_invariance_asks_no_hull_question(self, close_hull_questions, n_a, n_b):
        counts = close_hull_questions()
        assert classical_invariance_check(n_a, n_b)
        # the only per-row passes are those of gpt_marginals' membership
        # checks, whose marginals are all vertices; polytope_equal runs none
        assert counts["_outside"] == counts["hull_membership"] > 0

    def test_generic_polytope_still_asks(self, close_hull_questions):
        verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=j) for j in range(3))
        c = StatePolytope(verts, TWO_QUBITS)
        lambda_tau(c)
        close_hull_questions()
        with pytest.raises(Reached):
            is_css(c)

    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.sampled_from([(1, 2), (2, 2), (2, 3)]),
        k=st.integers(1, 4),
        which=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuted_product_polytope_reads_true_through_the_general_path(
        self, dims, k, which, seed
    ):
        c = product_polytopes(DimSplit(*dims), k, seed)[which]
        order = np.random.default_rng(seed).permutation(len(c.vertices))
        permuted = StatePolytope(c.vertices[order], c.split)
        calls = []
        original = comgeo.polytope_equal
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(comgeo, "polytope_equal", lambda *a: calls.append(1) or original(*a))
            assert is_css(permuted)
        assert len(calls) == (not np.array_equal(lambda_tau(permuted).vertices, permuted.vertices))

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3)]),
        k=st.integers(1, 4),
        shift=st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]),
        tol=st.sampled_from([CSS_TOL, DECISION_TOL, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_agrees_with_the_general_path_on_perturbed_copies(
        self, dims, k, shift, tol, seed
    ):
        # one entry of one vertex of a copy moves by shift * tol (or by
        # shift * CSS_TOL at tol 0); shift 0 is an equal copy, which the
        # exact check settles
        rng = np.random.default_rng(seed)
        c = product_polytopes(DimSplit(*dims), k, seed)[int(rng.integers(3))]
        p = VPolytope(c.flat())
        moved = p.vertices.copy()
        moved[rng.integers(len(moved)), rng.integers(moved.shape[1])] += shift * (tol or CSS_TOL)
        q = VPolytope(moved)
        want = bool(
            comgeo.hull_membership(p.vertices, q, tol).all()
            and comgeo.hull_membership(q.vertices, p, tol).all()
        )
        assert comgeo.polytope_equal(p, q, tol) == want
        assert comgeo.polytope_equal(q, p, tol) == want
        if shift == 0.0:
            assert want


class TestEntanglementModelWitnesses:
    def test_quantum_strict(self):
        # the full two-qubit state space is not invariant: witnessed by a
        # maximally entangled state escaping every fixed set containing it
        assert not is_css(StatePolytope((qstate.bell_state("phi+"),), TWO_QUBITS))

    def test_gbit_strict(self):
        gb = gbit_model()
        assert not gpt_separable(pr_box(), gb, gb)

    def test_classical_not_strict(self):
        assert classical_invariance_check(2, 2)


class TestJson:
    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trips_through_json_text(self, dims, k, seed):
        # through json.dumps and json.loads, bit for bit
        split = DimSplit(*dims)
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**32, size=k)]
        c = StatePolytope(
            tuple(qstate.random_mixed(split, 1 + s % split.dim, s).mat for s in seeds), split
        )
        back = jsonio.state_polytope_from_json(json.loads(json.dumps(jsonio.state_polytope_to_json(c))))
        assert back.split == split
        assert back.vertices.tobytes() == c.vertices.tobytes()

    def test_state_polytope_round_trip(self):
        s = css_from_decomposition(werner_product_decomposition(0.25))
        back = jsonio.state_polytope_from_json(jsonio.state_polytope_to_json(s))
        assert comgeo.polytope_equal(VPolytope(back.flat()), VPolytope(s.flat()), 1e-10)
