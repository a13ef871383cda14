import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import jsonio, matcore, qstate
from entgeo.matcore import DimSplit
from entgeo.qstate import DensityMatrix, PureState

from conftest import TWO_QUBITS, random_hermitian


def signed_zeros(x, signs):
    """The real array x as a complex one whose imaginary parts, and the zeros
    of its real parts, are zeros signed by ``signs`` (True is -0.0), tiled."""
    negative = np.resize(np.asarray(signs), (2, *x.shape))
    z = np.where((x == 0) & negative[0], -0.0, x).astype(complex)
    z.imag = np.where(negative[1], -0.0, 0.0)
    return z


class TestDensityFromPure:
    def test_basis_state(self):
        rho = qstate.density_from_pure(
            PureState(np.array([1.0, 0, 0, 0]), TWO_QUBITS)
        )
        np.testing.assert_array_equal(rho.mat, np.diag([1.0, 0, 0, 0]))

    def test_bell_entries(self):
        rho = qstate.bell_state("phi+").mat
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert rho[i, j] == pytest.approx(0.5)
        assert abs(rho[1, 1]) == 0.0

    def test_purity_one(self):
        psi = qstate.random_pure(TWO_QUBITS, seed=5)
        assert qstate.purity(qstate.density_from_pure(psi)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0, 0, 0]), TWO_QUBITS)


class TestMarginals:
    def test_bell(self):
        a, b = qstate.marginals(qstate.bell_state("phi+"))
        np.testing.assert_allclose(a.mat, np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(b.mat, np.eye(2) / 2, atol=1e-15)

    def test_product_recovery(self):
        r1 = qstate.random_mixed(DimSplit(2, 1), 2, seed=1).mat
        r2 = qstate.random_mixed(DimSplit(3, 1), 2, seed=2).mat
        rho = DensityMatrix(matcore.kron(r1, r2), DimSplit(2, 3))
        a, b = qstate.marginals(rho)
        np.testing.assert_allclose(a.mat, r1, atol=1e-12)
        np.testing.assert_allclose(b.mat, r2, atol=1e-12)

    def test_duality_oracle(self, rng):
        # trace(rho (X ox I)) must equal trace(rho_A X) for any Hermitian X
        rho = qstate.random_mixed(TWO_QUBITS, 4, seed=7)
        a, _ = qstate.marginals(rho)
        for _ in range(20):
            x = random_hermitian(rng, 2)
            lhs = np.trace(rho.mat @ matcore.kron(x, np.eye(2)))
            rhs = np.trace(a.mat @ x)
            assert abs(lhs - rhs) < 1e-10


class TestPiMap:
    def test_product_fixed_point(self):
        r1 = qstate.random_mixed(DimSplit(2, 1), 2, seed=3).mat
        r2 = qstate.random_mixed(DimSplit(2, 1), 1, seed=4).mat
        rho = DensityMatrix(matcore.kron(r1, r2), TWO_QUBITS)
        assert (
            matcore.norm(qstate.pi_map(rho).mat - rho.mat, "frobenius") < 1e-12
        )

    def test_bell_to_maximally_mixed(self):
        out = qstate.pi_map(qstate.bell_state("phi+"))
        np.testing.assert_allclose(out.mat, np.eye(4) / 4, atol=1e-15)

    def test_idempotent_on_random_states(self):
        for seed in range(100):
            rho = qstate.random_mixed(TWO_QUBITS, 1 + seed % 4, seed=seed)
            once = qstate.pi_map(rho)
            twice = qstate.pi_map(once)
            assert matcore.norm(twice.mat - once.mat, "frobenius") <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        rank=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_idempotent_on_generated_states(self, dims, rank, seed):
        split = DimSplit(*dims)
        once = qstate.pi_map(qstate.random_mixed(split, min(rank, split.dim), seed=seed))
        twice = qstate.pi_map(once)
        assert matcore.norm(twice.mat - once.mat, "frobenius") <= 1e-12

    def test_degenerate_split_is_identity(self):
        rho = qstate.random_mixed(DimSplit(3, 1), 2, seed=9)
        np.testing.assert_allclose(qstate.pi_map(rho).mat, rho.mat, atol=1e-12)


class TestBellStates:
    def test_phi_plus_amplitudes(self):
        rho = qstate.bell_state("phi+")
        s = 1 / np.sqrt(2)
        expect = np.outer([s, 0, 0, s], [s, 0, 0, s])
        np.testing.assert_allclose(rho.mat, expect, atol=1e-15)

    def test_psi_minus_amplitudes(self):
        rho = qstate.bell_state("psi-")
        s = 1 / np.sqrt(2)
        expect = np.outer([0, s, -s, 0], [0, s, -s, 0])
        np.testing.assert_allclose(rho.mat, expect, atol=1e-15)

    @pytest.mark.parametrize("kind", qstate.BELL_KINDS)
    def test_purity_and_marginal_purity(self, kind):
        rho = qstate.bell_state(kind)
        assert qstate.purity(rho) == pytest.approx(1.0, abs=1e-12)
        a, b = qstate.marginals(rho)
        assert qstate.purity(a) == pytest.approx(0.5, abs=1e-12)
        assert qstate.purity(b) == pytest.approx(0.5, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            qstate.bell_state("phi")


class TestWerner:
    def test_endpoints(self):
        np.testing.assert_allclose(qstate.werner_state(0.0).mat, np.eye(4) / 4)
        np.testing.assert_allclose(
            qstate.werner_state(1.0).mat, qstate.bell_state("phi+").mat
        )

    def test_threshold_eigenvalue(self):
        rho = qstate.werner_state(1 / 3)
        pt = matcore.partial_transpose(rho.mat, rho.split)
        assert abs(np.linalg.eigvalsh(pt)[0]) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(ps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_an_array_of_p_is_the_stack_of_the_states(self, ps):
        rho = qstate.werner_state(np.array(ps))
        assert rho.split == TWO_QUBITS
        assert rho.mat.tobytes() == np.array([qstate.werner_state(p).mat for p in ps]).tobytes()

    def test_out_of_range(self):
        # a NaN fails the range check too, and so does an array holding one bad p
        for p in (1.5, -0.1, np.nan, [0.2, np.nan], [0.0, 1.0 + 1e-12, 0.5]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                qstate.werner_state(p)


class TestRandomStates:
    def test_determinism(self):
        a = qstate.random_pure(TWO_QUBITS, seed=42)
        b = qstate.random_pure(TWO_QUBITS, seed=42)
        assert np.array_equal(a.amps, b.amps)
        c = qstate.random_mixed(TWO_QUBITS, 3, seed=42)
        d = qstate.random_mixed(TWO_QUBITS, 3, seed=42)
        assert np.array_equal(c.mat, d.mat)
        u = qstate.random_unitary(4, seed=42)
        v = qstate.random_unitary(4, seed=42)
        assert np.array_equal(u, v)

    def test_rank_one_is_pure(self):
        rho = qstate.random_mixed(TWO_QUBITS, 1, seed=11)
        assert qstate.purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_unitary_properties(self):
        u = qstate.random_unitary(4, seed=13)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10
        # |det| via product of eigenvalue moduli
        assert abs(np.abs(np.prod(np.linalg.eigvals(u))) - 1.0) < 1e-9

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="rank"):
            qstate.random_mixed(TWO_QUBITS, 0, seed=0)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: qstate.random_unitary(0, 1), ValueError, "dim must be >= 1, got 0"),
            (lambda: jsonio.state_to_json(np.eye(2)), TypeError, "cannot serialize ndarray"),
        ],
        ids=["random_unitary", "state_to_json"],
    )
    def test_rejects_with_named_reason(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestPurity:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, TWO_QUBITS)
        assert qstate.purity(rho) == pytest.approx(0.25)

    def test_schmidt_rank_two_marginal_is_mixed(self):
        # explicit Schmidt construction with both coefficients nonzero
        c = np.sqrt([0.7, 0.3])
        psi = np.zeros(4)
        psi[0] = c[0]  # |00>
        psi[3] = c[1]  # |11>
        rho = qstate.density_from_pure(PureState(psi, TWO_QUBITS))
        a, _ = qstate.marginals(rho)
        assert qstate.purity(a) < 1.0 - 1e-6
        assert qstate.purity(a) == pytest.approx(0.7**2 + 0.3**2, abs=1e-12)


class TestInvariants:
    def test_pure_state_criterion(self):
        # entangled pure: not a fixed point; product pure: fixed point
        ent = qstate.bell_state("phi+")
        assert matcore.norm(qstate.pi_map(ent).mat - ent.mat, "frobenius") > 1e-6
        prod = qstate.density_from_pure(
            PureState(np.kron([1.0, 0.0], [0.6, 0.8]), TWO_QUBITS)
        )
        assert matcore.norm(qstate.pi_map(prod).mat - prod.mat, "frobenius") <= 1e-10

    def test_non_fixed_states_have_mixed_marginals(self):
        for seed in range(30):
            psi = qstate.random_pure(TWO_QUBITS, seed=seed)
            rho = qstate.density_from_pure(psi)
            a, _ = qstate.marginals(rho)
            if qstate.purity(a) < 1.0 - 1e-4:
                dist = matcore.norm(qstate.pi_map(rho).mat - rho.mat, "frobenius")
                assert dist > 1e-6

    def test_local_unitary_covariance(self):
        rho = qstate.random_mixed(TWO_QUBITS, 3, seed=21)
        u = qstate.random_unitary(2, seed=22)
        v = qstate.random_unitary(2, seed=23)
        uv = matcore.kron(u, v)
        rot = DensityMatrix(uv @ rho.mat @ uv.conj().T, TWO_QUBITS)
        a, b = qstate.marginals(rho)
        ra, rb = qstate.marginals(rot)
        np.testing.assert_allclose(ra.mat, u @ a.mat @ u.conj().T, atol=1e-10)
        np.testing.assert_allclose(rb.mat, v @ b.mat @ v.conj().T, atol=1e-10)


class TestValidation:
    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4), TWO_QUBITS)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), TWO_QUBITS)

    def test_validate_reports_magnitudes(self):
        rho = qstate.werner_state(0.5)
        assert rho.validate() == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        mat = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.full((4, 4), bad), TWO_QUBITS)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(mat, TWO_QUBITS)
        with pytest.raises(ValueError, match="non-finite"):
            PureState(np.array([bad, 0, 0, 0]), TWO_QUBITS)

    def test_rejects_a_state_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="length 3 != dim 4"):
            PureState(np.array([1.0, 0, 0]), TWO_QUBITS)


# ways to break one matrix of a stack, each at 10 tol (breaks the rule) or
# at tol / 10 (does not)
FAULTS = ("none", "nan", "inf", "hermiticity", "trace", "imaginary trace", "negative")


def faulty_state(rng, n, fault, size):
    """A random density matrix of side n with ``fault`` of that size."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m /= np.trace(m).real
    if fault == "nan" or fault == "inf":
        m[rng.integers(n), rng.integers(n)] = np.nan if fault == "nan" else np.inf
    elif fault == "hermiticity" and n > 1:
        m[0, 1] += size
    elif fault == "trace":
        m *= 1 + size
    elif fault == "imaginary trace":
        m[0, 0] += 1j * size / 100
    elif fault == "negative":
        w, v = np.linalg.eigh(m)
        w = np.r_[-size, w[1:] + (w[0] + size) / max(1, n - 1)] if n > 1 else w
        m = (v * w) @ v.conj().T
    return m


def problems(mat, split):
    """What ``DensityMatrix.validate`` finds wrong with mat on split."""
    return qstate._derived(DensityMatrix, mat, split).validate()


class TestStackedValidation:
    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 2)),
        faults=st.lists(
            st.tuples(st.sampled_from(FAULTS), st.sampled_from([1e-9, 1e-11])),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_stack_fails_iff_some_slice_fails_on_its_own(self, dims, faults, seed):
        split = DimSplit(*dims)
        rng = np.random.default_rng(seed)
        stack = np.array([faulty_state(rng, split.dim, f, size) for f, size in faults])
        alone = [problems(m, split) for m in stack]
        bad = [i for i, p in enumerate(alone) if p]
        got = problems(stack, split)
        if not bad:
            assert got == []
        else:
            # the messages of the first failing slice, the first naming it
            first = alone[bad[0]]
            assert got == [f"{bad[0]}: {first[0]}"] + first[1:]

    def test_messages_of_one_matrix_are_unchanged(self):
        m = np.array([[1.5, 0.1], [0.0, -0.5]])
        assert problems(m, DimSplit(2, 1)) == ["hermiticity deviation 1.000e-01"]
        assert problems(np.diag([1.5, -0.5]), DimSplit(2, 1)) == ["negative eigenvalue -5.000e-01"]
        assert problems(np.eye(2), DimSplit(2, 1)) == ["trace (2+0j) != 1"]
        assert problems(np.eye(3) / 3, DimSplit(2, 1)) == ["shape (3, 3) != (2, 2)"]

    def test_an_overflowing_eigensolve_is_rejected(self):
        # Hermitian with unit trace, eigenvalues 0.5 +- 1e308; its Hermitian
        # part overflows to inf, and the eigenvalues come back NaN
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="negative eigenvalue nan"
        ):
            DensityMatrix(np.array([[0.5, 1e308], [1e308, 0.5]]), DimSplit(2, 1))

    def test_the_constructor_takes_one_matrix(self):
        with pytest.raises(ValueError, match=r"shape \(2, 4, 4\) is a stack"):
            DensityMatrix(np.array([np.eye(4) / 4] * 2), TWO_QUBITS)

    def test_a_stack_of_the_wrong_shape_is_one_message(self):
        assert problems(np.zeros((3, 2, 2)), TWO_QUBITS) == ["shape (3, 2, 2) != (4, 4)"]


class TestJson:
    @pytest.mark.parametrize(
        "dims, what",
        [
            ({"dim_a": "x"}, "dim_a"),
            ({"dim_a": 1.9}, "dim_a"),
            ({"dim_a": 2.0}, "dim_a"),
            ({"dim_b": True}, "dim_b"),
            ({"dim_b": None}, "dim_b"),
        ],
    )
    def test_split_must_be_json_integers(self, dims, what):
        obj = dict(jsonio.state_to_json(qstate.werner_state(0.3)), **dims)
        with pytest.raises(TypeError, match=what):
            jsonio.state_from_json(obj)

    def test_density_round_trip(self):
        rho = qstate.werner_state(0.3)
        back = jsonio.state_from_json(jsonio.state_to_json(rho))
        assert np.array_equal(back.mat, rho.mat)
        assert back.split == rho.split

    def test_pure_round_trip(self):
        psi = qstate.random_pure(DimSplit(2, 3), seed=17)
        back = jsonio.state_from_json(jsonio.state_to_json(psi))
        assert np.array_equal(back.amps, psi.amps)

    def test_pure_round_trip_keeps_negative_zeros(self):
        psi = PureState(np.array([1.0, 0.0]).astype(complex).conj(), DimSplit(1, 2))
        back = jsonio.state_from_json(json.loads(json.dumps(jsonio.state_to_json(psi))))
        assert np.signbit(back.amps.imag).tolist() == [True, True]
        assert back.amps.tobytes() == psi.amps.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        rank=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        signs=st.none() | st.lists(st.booleans(), min_size=1, max_size=18),
    )
    def test_round_trips_through_json_text(self, dims, rank, seed, signs):
        # density and pure states through json.dumps and json.loads, bit for
        # bit; with signs, real states whose zeros carry the signs drawn
        split = DimSplit(*dims)
        rho = qstate.random_mixed(split, min(rank, split.dim), seed)
        psi = qstate.random_pure(split, seed)
        if signs is not None:
            rho = DensityMatrix(signed_zeros(rho.mat.real, signs), split)
            psi = PureState(signed_zeros(np.eye(split.dim)[seed % split.dim], signs), split)
        back = jsonio.state_from_json(json.loads(json.dumps(jsonio.state_to_json(rho))))
        assert isinstance(back, DensityMatrix) and back.split == split
        assert back.mat.tobytes() == rho.mat.tobytes()
        back = jsonio.state_from_json(json.loads(json.dumps(jsonio.state_to_json(psi))))
        assert isinstance(back, PureState) and back.split == split
        assert back.amps.tobytes() == psi.amps.tobytes()
