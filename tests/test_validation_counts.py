"""The validation rule of ``qstate``: a state is validated where its matrix
enters, and a state derived from valid states by a validity-preserving map
is built without validating it again.

The property below is the runtime re-check that the derived states no
longer get, made a test; the counts, taken through ``DensityMatrix.validate``,
pin where validation happens.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import cli, invsep, qstate
from entgeo.invsep import Decomposition, StatePolytope
from entgeo.matcore import DimSplit
from entgeo.qstate import DensityMatrix

from conftest import TWO_QUBITS


@pytest.fixture
def validations(monkeypatch):
    calls = []
    original = DensityMatrix.validate

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(DensityMatrix, "validate", counted)
    return calls


def problems(mat, split: DimSplit) -> list:
    """What ``DensityMatrix.validate`` finds wrong with mat on split."""
    return qstate._derived(DensityMatrix, mat, split).validate()


def assert_valid_vertices(c: StatePolytope) -> None:
    assert len(c.vertices)
    for v in c.vertices:
        assert problems(v, c.split) == []


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_derived_states_pass_validation(dims, k, seed):
    split = DimSplit(*dims)
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**32, size=4 * k)
    ranks = rng.integers(1, split.dim + 1, size=k)

    pure = qstate.density_from_pure(qstate.random_pure(split, int(seeds[0])))
    assert problems(pure.mat, pure.split) == []
    states = [qstate.random_mixed(split, int(r), int(s)) for r, s in zip(ranks, seeds[1:])]
    for rho in [pure] + states:
        for m in qstate.marginals(rho):
            assert problems(m.mat, m.split) == []
        pi = qstate.pi_map(rho)
        assert problems(pi.mat, pi.split) == []

    c = StatePolytope(tuple(rho.mat for rho in [pure] + states), split)
    for side in invsep.tau(c):
        assert_valid_vertices(side)
    assert_valid_vertices(invsep.lambda_tau(c))

    qa, qb = DimSplit(split.dim_a, 1), DimSplit(1, split.dim_b)
    terms = tuple(
        (float(w), qstate.random_mixed(qa, 2, int(sa)).mat, qstate.random_mixed(qb, 2, int(sb)).mat)
        for w, sa, sb in zip(rng.dirichlet(np.ones(k)), seeds[k + 1 :], seeds[2 * k + 1 :])
    )
    d = Decomposition(terms, split)
    state = d.state()
    assert problems(state.mat, state.split) == []
    assert_valid_vertices(invsep.css_from_decomposition(d))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_is_css_validates_nothing_after_construction(validations, k):
    verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=50 + j).mat for j in range(k))
    validations.clear()
    c = StatePolytope(verts, TWO_QUBITS)
    # one stacked pass over the k vertices
    assert len(validations) == 1
    validations.clear()
    assert not invsep.is_css(c)
    assert invsep.is_css(invsep.lambda_tau(c))
    assert len(validations) == 0


def test_density_matrix_vertices_are_not_validated_again(validations):
    verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=60 + j) for j in range(3))
    validations.clear()
    c = StatePolytope(verts, TWO_QUBITS)
    assert len(validations) == 0
    assert c.vertices.shape == (3, 4, 4)


def test_decomposition_validates_its_factors_only(validations):
    d = invsep.werner_product_decomposition(0.25)
    # one stacked pass over the A factors and one over the B factors
    assert len(validations) == 2
    validations.clear()
    invsep.css_from_decomposition(d)
    d.state()
    assert len(validations) == 0


@pytest.mark.parametrize("expr, count", [("bell:phi+", 0), ("werner:0.3", 1)])
def test_analyze_validates_only_its_input(capsys, validations, expr, count):
    # a Bell state is the projector of a normalized vector; a Werner state
    # is a matrix the family builds and validates once
    assert cli.main(["analyze", expr]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(validations) == count
