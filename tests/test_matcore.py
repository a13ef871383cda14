import ast
import importlib
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entgeo import matcore
from entgeo.matcore import DimSplit

from conftest import random_hermitian


# finite complex matrices of any shape up to 5x5, square or not
COMPLEX_MATRICES = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(complex, shape, elements=st.complex_numbers(max_magnitude=1e100))
)


def kron_oracle(a, b):
    """Independent double-sum Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle_b(m, da, db):
    """Explicit index summation sum_k M[(i,k),(j,k)]."""
    out = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                out[i, j] += m[i * db + k, j * db + k]
    return out


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: DimSplit(0, 2), "subsystem dimensions must be >= 1"),
            (lambda: matcore.kron(np.ones(3), np.ones((1, 1))), "expected a matrix"),
            (lambda: matcore.partial_trace(np.eye(4), DimSplit(2, 2), over="c"), "over must be 'a' or 'b'"),
            (lambda: matcore.partial_transpose(np.eye(5), DimSplit(2, 2)), "incompatible with split"),
            (lambda: matcore.hermitian_eig(np.ones((2, 3))), "needs a square matrix"),
            (lambda: matcore.norm(np.eye(2), "spectral"), "unknown norm kind 'spectral'"),
        ],
        ids=["DimSplit", "kron", "partial_trace", "partial_transpose", "hermitian_eig", "norm"],
    )
    def test_rejects_with_named_reason(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestKron:
    def test_identity(self):
        assert np.array_equal(matcore.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert np.array_equal(matcore.kron(a, b), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_against_double_sum_oracle(self, rng):
        for _ in range(50):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            # vectorized complex multiply may round differently from the
            # scalar loop, so compare at one-ulp scale
            np.testing.assert_allclose(
                matcore.kron(a, b), kron_oracle(a, b), atol=1e-14
            )
            assert np.isclose(
                np.trace(matcore.kron(a, b)), np.trace(a) * np.trace(b)
            )

    @settings(max_examples=60, deadline=None)
    @given(COMPLEX_MATRICES, COMPLEX_MATRICES)
    def test_bit_identical_to_numpy(self, a, b):
        got, want = matcore.kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_associativity(self, rng):
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        left = matcore.kron(matcore.kron(a, b), c)
        right = matcore.kron(a, matcore.kron(b, c))
        assert matcore.norm(left - right, "frobenius") <= 1e-14


class TestPartialTrace:
    def test_bell_marginal(self):
        s = 1 / np.sqrt(2)
        psi = np.array([s, 0, 0, s])
        rho = np.outer(psi, psi)
        out = matcore.partial_trace(rho, DimSplit(2, 2), over="b")
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_product_recovery(self, rng):
        r1 = random_hermitian(rng, 2)
        r2 = random_hermitian(rng, 3)
        r2 = r2 / np.trace(r2)  # unit trace so the factor comes back unscaled
        got = matcore.partial_trace(matcore.kron(r1, r2), DimSplit(2, 3), over="b")
        np.testing.assert_allclose(got, r1, atol=1e-12)

    def test_index_summation_oracle(self, rng):
        m = random_hermitian(rng, 4)
        got = matcore.partial_trace(m, DimSplit(2, 2), over="b")
        np.testing.assert_allclose(got, partial_trace_oracle_b(m, 2, 2), atol=1e-14)

    def test_trace_preserved_and_linearity(self, rng):
        split = DimSplit(2, 3)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        n = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for over in ("a", "b"):
            assert np.isclose(
                np.trace(matcore.partial_trace(m, split, over)), np.trace(m)
            )
            lhs = matcore.partial_trace(2.0 * m + 3.0 * n, split, over)
            rhs = 2.0 * matcore.partial_trace(
                m, split, over
            ) + 3.0 * matcore.partial_trace(n, split, over)
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_marginals_of_psd_are_psd(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        for over in ("a", "b"):
            red = matcore.partial_trace(rho, DimSplit(2, 2), over)
            assert matcore.is_hermitian(red)
            assert np.linalg.eigvalsh(red).min() >= -1e-10

    def test_shape_error(self):
        with pytest.raises(ValueError, match="incompatible"):
            matcore.partial_trace(np.eye(5), DimSplit(2, 2), over="b")


class TestPartialTranspose:
    def test_product_factorization(self, rng):
        r1 = random_hermitian(rng, 2)
        r2 = random_hermitian(rng, 2)
        got = matcore.partial_transpose(matcore.kron(r1, r2), DimSplit(2, 2))
        np.testing.assert_array_equal(got, matcore.kron(r1, r2.T))

    def test_involution_exact(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        split = DimSplit(2, 2)
        twice = matcore.partial_transpose(matcore.partial_transpose(m, split), split)
        np.testing.assert_array_equal(twice, m)

    def test_bell_min_eigenvalue(self):
        s = 1 / np.sqrt(2)
        rho = np.outer([s, 0, 0, s], [s, 0, 0, s])
        pt = matcore.partial_transpose(rho, DimSplit(2, 2))
        w, _ = matcore.hermitian_eig(pt)
        assert abs(w[0] + 0.5) < 1e-12

    def test_preserves_trace_and_frobenius(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        pt = matcore.partial_transpose(m, DimSplit(2, 3))
        assert np.trace(pt) == pytest.approx(np.trace(m), abs=0)
        assert matcore.norm(pt, "frobenius") == pytest.approx(
            matcore.norm(m, "frobenius"), abs=0
        )


class TestHermitianEig:
    def test_diagonal(self):
        w, _ = matcore.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_bell_rank_one(self):
        s = 1 / np.sqrt(2)
        rho = np.outer([s, 0, 0, s], [s, 0, 0, s])
        w, _ = matcore.hermitian_eig(rho)
        np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-14)

    def test_reconstruction_residual(self, rng):
        m = random_hermitian(rng, 8)
        w, v = matcore.hermitian_eig(m)
        rebuilt = (v * w) @ v.conj().T
        scale = max(1.0, matcore.norm(m, "frobenius"))
        assert matcore.norm(rebuilt - m, "frobenius") <= 1e-9 * scale
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            matcore.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNorm:
    def test_diagonal_trace_norm(self):
        assert matcore.norm(np.diag([1.0, -1.0]), "trace") == pytest.approx(2.0)

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        for kind in ("frobenius", "trace", "max_abs"):
            assert matcore.norm(z, kind) == 0.0

    def test_frobenius_trace_identity(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert matcore.norm(m, "frobenius") ** 2 == pytest.approx(
            np.trace(m.conj().T @ m).real, abs=1e-12
        )

    def test_norm_zero_iff_zero(self, rng):
        m = 1e-6 * rng.standard_normal((3, 3))
        for kind in ("frobenius", "trace", "max_abs"):
            assert matcore.norm(m, kind) > 1e-12

    def test_trace_norm_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            matcore.norm(np.ones((2, 3)), "trace")

    def test_trace_norm_checks_hermiticity_once(self, rng, monkeypatch):
        # one check, then eigh of the Hermitian part: the eigenvalues that
        # hermitian_eig returns, bit for bit
        h = np.stack([random_hermitian(rng, 4) for _ in range(3)])
        want = [np.abs(matcore.hermitian_eig(s)[0]).sum() for s in h]
        calls = []
        check = matcore.is_hermitian
        monkeypatch.setattr(matcore, "is_hermitian", lambda m: calls.append(1) or check(m))
        assert matcore.norm(h[0], "trace") == want[0]
        np.testing.assert_array_equal(matcore.norm(h, "trace"), want)
        assert len(calls) == 2

    def test_trace_norm_non_hermitian_branch(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sv = np.linalg.svd(m, compute_uv=False)
        assert matcore.norm(m, "trace") == pytest.approx(sv.sum(), rel=1e-12)


SPLITS = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda dims: DimSplit(*dims))
ENTRIES = st.complex_numbers(max_magnitude=1e6)


@st.composite
def kron_stacks(draw):
    """Two stacks of 1 to 5 matrices each, of the same length and of any
    shapes up to 3x3."""
    k = draw(st.integers(1, 5))
    a, b = draw(SPLITS), draw(SPLITS)
    return (
        draw(arrays(complex, (k, a.dim_a, a.dim_b), elements=ENTRIES)),
        draw(arrays(complex, (k, b.dim_a, b.dim_b), elements=ENTRIES)),
    )


@st.composite
def split_stacks(draw):
    """A split up to 3x3 and a stack of 1 to 5 of its composite matrices."""
    split = draw(SPLITS)
    shape = (draw(st.integers(1, 5)), split.dim, split.dim)
    return split, draw(arrays(complex, shape, elements=ENTRIES))


class TestStacks:
    """Each op on a stack equals, slice by slice and bit for bit, the op on one matrix."""

    @settings(max_examples=60, deadline=None)
    @given(kron_stacks())
    # one entry against a stack of one: numpy's broadcast iterator took its
    # scalar complex multiply here, one bit off np.kron's fused multiply-add
    @example((np.array([[[3 + 1j]]]), np.array([[[349525.8712729345 + 2j]]])))
    def test_kron(self, pair):
        a, b = pair
        k = len(a)
        got = matcore.kron(a, b)
        assert all(np.array_equal(got[i], matcore.kron(a[i], b[i])) for i in range(k))
        # the stack axes broadcast: one factor against a stack
        got = matcore.kron(a[0], b)
        assert all(np.array_equal(got[i], matcore.kron(a[0], b[i])) for i in range(k))

    @settings(max_examples=60, deadline=None)
    @given(split_stacks())
    def test_partial_trace_and_transpose(self, case):
        split, m = case
        for side in ("a", "b"):
            traced = matcore.partial_trace(m, split, side)
            for i, one in enumerate(m):
                assert np.array_equal(traced[i], matcore.partial_trace(one, split, side))
        transposed = matcore.partial_transpose(m, split)
        for i, one in enumerate(m):
            assert np.array_equal(transposed[i], matcore.partial_transpose(one, split))

    @settings(max_examples=60, deadline=None)
    @given(split_stacks())
    def test_hermitian_eig(self, case):
        _, m = case
        h = m + m.conj().swapaxes(-1, -2)
        assert matcore.is_hermitian(h).tolist() == [True] * len(h)
        w, v = matcore.hermitian_eig(h)
        for i, one in enumerate(h):
            w1, v1 = matcore.hermitian_eig(one)
            assert np.array_equal(w[i], w1) and np.array_equal(v[i], v1)

    @settings(max_examples=60, deadline=None)
    @given(split_stacks(), st.booleans())
    def test_norm(self, case, hermitian):
        _, m = case
        if hermitian:
            m = m + m.conj().swapaxes(-1, -2)
        for kind in ("frobenius", "trace", "max_abs"):
            got = matcore.norm(m, kind)
            assert got.tolist() == [matcore.norm(one, kind) for one in m]

    def test_one_matrix_gives_python_scalars(self):
        m = np.diag([1.0, -2.0])
        assert matcore.is_hermitian(m) is True
        assert matcore.is_hermitian(np.ones((2, 3))) is False
        assert all(type(matcore.norm(m, kind)) is float for kind in ("frobenius", "trace", "max_abs"))
        # the Frobenius norm of one matrix is numpy's, bit for bit
        z = np.array([[1 + 2j, 3e-9], [-0.5j, 7.25], [np.pi, 1j / 3]])
        assert matcore.norm(z, "frobenius").hex() == float(np.linalg.norm(z)).hex()

    def test_a_stack_does_not_serialize(self):
        with pytest.raises(ValueError, match="one matrix"):
            matcore.matrix_to_json(np.zeros((2, 2, 2)))


class TestJson:
    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_array_equal(
            matcore.matrix_from_json(matcore.matrix_to_json(m)), m
        )

    def test_bad_payload_length(self):
        with pytest.raises(TypeError, match="does not match"):
            matcore.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2", None, 0, -2])
    def test_shape_must_be_json_integers(self, key, value):
        obj = dict(matcore.matrix_to_json(np.eye(2)), **{key: value})
        with pytest.raises(TypeError, match=key):
            matcore.matrix_from_json(obj)


    @pytest.mark.parametrize(
        "payload",
        [{"re": ["a", 0, 0, 0.5]}, {"im": [0, None, 0, 0]}, {"re": [[1, 0], [0, 0]]},
         {"re": True}, {"im": "0000"}],
    )
    def test_payload_must_be_flat_json_numbers(self, payload):
        obj = dict(matcore.matrix_to_json(np.eye(2)), **payload)
        with pytest.raises(TypeError, match="flat list of JSON numbers"):
            matcore.matrix_from_json(obj)


PACKAGE = Path(matcore.__file__).parent


def _table() -> dict:
    """The line of each module-level NAME_TOL assignment in matcore, by name."""
    tree = ast.parse((PACKAGE / "matcore.py").read_text())
    return {
        node.targets[0].id: node.lineno
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.endswith("_TOL")
    }


class TestToleranceTable:
    def test_every_small_number_is_a_table_value(self):
        entry_lines = set(_table().values())
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            with path.open("rb") as fh:
                for tok in tokenize.tokenize(fh.readline):
                    if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                        found.append((path.name, tok.start[0]))
        assert all(name == "matcore.py" and line in entry_lines for name, line in found), found
        assert len(found) == len(entry_lines) <= 7

    def test_each_entry_states_what_it_decides(self):
        lines = (PACKAGE / "matcore.py").read_text().splitlines()
        for name, lineno in _table().items():
            assert lines[lineno - 2].startswith("# "), name

    def test_no_other_module_names_a_tolerance(self):
        table = _table()
        for path in PACKAGE.glob("*.py"):
            mod = importlib.import_module(
                "entgeo" if path.stem == "__init__" else f"entgeo.{path.stem}"
            )
            names = {n for n in vars(mod) if n.endswith("_TOL")}
            assert names <= set(table), (mod.__name__, names - set(table))
            for n in names:
                assert getattr(mod, n) == getattr(matcore, n)

    def test_lp_resolves_the_decision_tolerances(self):
        assert matcore.LP_TOL <= matcore.DECISION_TOL / 10
        assert matcore.LP_TOL <= matcore.CSS_TOL / 10
