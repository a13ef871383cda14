"""LP solves per operation, counted through ``comgeo.linprog``.

The counts are deterministic: every hull question that a vertex match, a
strict maximizer, the projection onto the hull or the exact proof of
``comgeo._prove`` settles solves no LP, so only the other questions do,
one LP each, whose dual gives the hyperplane.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from entgeo import cli, comgeo, invsep, jsonio, qstate
from entgeo.invsep import Decomposition, StatePolytope
from entgeo.matcore import LP_TOL, DimSplit

from conftest import TWO_QUBITS

QUBIT = DimSplit(2, 1)
UNIFORM_PRODUCT = np.outer([0.5, 0.5, 1.0], [0.5, 0.5, 1.0])


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    original = comgeo.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(comgeo, "linprog", counted)
    return calls


# stdout of every `entgeo [--tol 0] tensor A B` entry of the golden file
TENSOR_PAIRS = json.loads((Path(__file__).parent / "golden" / "tensor_pairs.json").read_text())


@pytest.mark.parametrize(
    "case",
    TENSOR_PAIRS,
    ids=[("tol0-" if "--tol" in c["argv"] else "") + "-".join(c["argv"][-2:]) for c in TENSOR_PAIRS],
)
def test_tensor_solves_none(capsys, lp_calls, case):
    # the interior point is the product of the model centroids, and the
    # PR-type vertices break a CHSH facet of the product hull
    assert cli.main(case["argv"]) == cli.EXIT_OK
    assert capsys.readouterr().out == case["stdout"]
    assert len(lp_calls) == 0


def test_prbox_report_solves_none(capsys, lp_calls):
    # the marginals are decided by the projection onto the gbit square, and
    # min_tensor_distance and the infeasibility certificate by one exact proof
    assert cli.main(["analyze", "prbox"]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(lp_calls) == 0


def test_prbox_report_at_tol_0_solves_none(capsys, lp_calls):
    # the projection of each marginal onto the gbit square misses it by
    # rounding, above tol 0, and the exact proof settles it a member
    assert cli.main(["--tol", "0", "analyze", "prbox"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"gpt_membership": "entangled"}
    assert len(lp_calls) == 0


@pytest.mark.parametrize(
    "x, v, hyperplane",
    [
        ([2.0, 0.5, -1.0], [0.0, 0.0, 0.0], ([1.0, 0.0, 0.0], 0.0, 2.0)),
        ([0.5, -3.0, 1.0], [1.0, 1.0, 1.0], ([0.0, -1.0, 0.0], -1.0, 4.0)),
    ],
)
def test_one_vertex_hyperplane_solves_none(lp_calls, x, v, hyperplane):
    # h = sign(x_j - v_j) e_j at the largest |x_j - v_j|, c = h.v and the
    # gap |x - v|_inf, from the certificate
    h, c, gap = comgeo.separating_hyperplane(x, comgeo.VPolytope([v]))
    assert (h.tolist(), c, gap) == hyperplane
    assert len(lp_calls) == 0


@pytest.mark.parametrize("corrupt", ["sum", "off the face", "denominator"])
def test_prbox_report_with_corrupted_weights_solves_one(capsys, lp_calls, monkeypatch, corrupt):
    # the proof refuses weights that sum past 1, weights that sum to 1 but
    # rebuild a point off the nearest face, and weights that a denominator
    # bound of 11 snaps away from 1/12; the distance LP answers instead,
    # its dual giving the hyperplane, with the proof's numbers
    certificate = comgeo._certificate

    def corrupted(x, v, tol):
        lo, hi, lam, h = certificate(x, v, tol)
        lam = lam * (1 + 1 / 64) if corrupt == "sum" else (lam + 1 / len(lam)) / 2
        return lo, hi, lam, h

    if corrupt == "denominator":
        monkeypatch.setattr(comgeo, "_SNAP_DENOMINATOR", 11)
    else:
        monkeypatch.setattr(comgeo, "_certificate", corrupted)
    assert cli.main(["analyze", "prbox"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(lp_calls) == 1
    assert report["min_tensor_distance"] == pytest.approx(1 / 12, abs=LP_TOL)
    assert report["infeasibility_certificate"]["gap"] == pytest.approx(0.5, abs=LP_TOL)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_is_css_on_random_polytopes_solves_none(lp_calls, k, seed):
    verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=10 * seed + j) for j in range(k))
    c = StatePolytope(verts, TWO_QUBITS)
    assert not invsep.is_css(c)
    assert invsep.is_css(invsep.lambda_tau(c))
    assert len(lp_calls) == 0


@pytest.mark.parametrize("k", [6, 8, 12])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_is_css_on_rank_2_polytopes_solves_none(lp_calls, k, seed):
    # k qubit marginals per side are more than the four vertices of a
    # simplex in a qubit's three real dimensions, and lambda_tau has k * k
    # products in fifteen
    verts = tuple(qstate.random_mixed(TWO_QUBITS, 2, seed=10 * seed + j) for j in range(k))
    c = StatePolytope(verts, TWO_QUBITS)
    assert not invsep.is_css(c)
    assert invsep.is_css(invsep.lambda_tau(c))
    assert len(lp_calls) == 0


def test_css_from_decomposition_solves_none(lp_calls):
    # with four generic factors on each side, no strict maximizer certifies
    # every marginal row
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 4):
        terms = tuple(
            (w, qstate.random_mixed(QUBIT, 2, seed=2 * j).mat,
             qstate.random_mixed(QUBIT, 2, seed=2 * j + 1).mat)
            for j, w in enumerate(rng.dirichlet(np.ones(k)))
        )
        witness = invsep.css_from_decomposition(Decomposition(terms, TWO_QUBITS))
        assert len(witness.vertices) == k * k
        assert invsep.is_css(witness)
    assert len(lp_calls) == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_decomposed_state_against_its_witness_solves_none(lp_calls, k):
    # the decomposed state is in the witness hull by construction, so the
    # projection rebuilds it and its distance is 0
    rng = np.random.default_rng(k)
    terms = tuple(
        (w, qstate.random_mixed(QUBIT, 2, seed=10 * k + 2 * j).mat,
         qstate.random_mixed(QUBIT, 2, seed=10 * k + 2 * j + 1).mat)
        for j, w in enumerate(rng.dirichlet(np.ones(k)))
    )
    d = Decomposition(terms, TWO_QUBITS)
    x, verts = invsep.flatten_matrix(d.state().mat), invsep.css_from_decomposition(d).flat()
    dist, lam = comgeo.hull_distance(x, verts)
    assert dist == 0.0
    assert np.abs(lam @ verts - x).max() <= 1e-10
    assert len(lp_calls) == 0


def test_css_check_on_a_fixed_point_solves_none(capsys, lp_calls, tmp_path):
    verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=40 + j) for j in range(3))
    fixed = invsep.lambda_tau(StatePolytope(verts, TWO_QUBITS))
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(jsonio.state_polytope_to_json(fixed)))
    assert cli.main(["--tol", "0", "css-check", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out) == {"css": True, "distance_summary": 0.0}
    assert '"distance_summary": 0.0' in out
    assert len(lp_calls) == 0


def test_css_check_on_a_generic_polytope_solves_fewer(capsys, lp_calls, tmp_path):
    # the largest distance, one hull_distance per row as the reference:
    # 64 LPs here; the bounds leave 8 of them
    c = StatePolytope(
        tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=400 + j) for j in range(8)), TWO_QUBITS
    )
    cf, imf = c.flat(), invsep.lambda_tau(c).flat()
    worst = max([comgeo.hull_distance(v, cf)[0] for v in imf] + [comgeo.hull_distance(v, imf)[0] for v in cf])
    per_row = len(lp_calls)
    lp_calls.clear()
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(jsonio.state_polytope_to_json(c)))
    assert cli.main(["css-check", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps({"css": False, "distance_summary": worst}, indent=2) + "\n"
    assert per_row == 64
    assert len(lp_calls) == 8


@pytest.mark.parametrize("v", [0.0, 0.2, 0.45, 0.48, 0.52, 0.55, 0.8, 1.0])
def test_noisy_pr_box_separability_solves_none(lp_calls, v):
    gb = comgeo.gbit_model()
    phi = comgeo.BilinearState(v * comgeo.pr_box().coord + (1 - v) * UNIFORM_PRODUCT)
    assert invsep.gpt_separable(phi, gb, gb) is (v <= 0.5)
    assert len(lp_calls) == 0
