import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entgeo import cli, comgeo, invsep, jsonio, matcore, qstate
from entgeo.cli import EXIT_CAP, EXIT_NUMERIC, EXIT_OK, EXIT_PARSE
from entgeo.invsep import StatePolytope, css_from_decomposition
from entgeo.matcore import DimSplit, kron

from conftest import TWO_QUBITS

GOLDEN = Path(__file__).parent / "golden" / "werner_sweep.csv"
GOLDEN_TENSOR = Path(__file__).parent / "golden" / "tensor_gbit_gbit.json"
# stdout of `entgeo ARGV` for Bell, Werner and random states on several
# splits under several --f-kind/--norm/--tol choices, recorded when every
# measure and verdict recomputed pi(rho) and the PPT spectrum on its own;
# the 1x4 and 4x1 entries were recorded again when their PPT verdict went
# from "inconclusive" to "separable"; the two PR-box entries, the only GPT
# report here, were recorded again when the exact proof replaced the LPs of
# their distance and hyperplane, which changed only the hyperplane's unit
# coordinate, its zero signs and its offset
GOLDEN_ANALYZE = json.loads(
    (Path(__file__).parent / "golden" / "analyze_reports.json").read_text()
)
# stdout of `entgeo [--tol 0] tensor A B` for the 9 ordered pairs of
# classical:2, classical:3 and gbit and for classical:4 with gbit both ways,
# recorded when each Qhull point was certified on its own
GOLDEN_TENSOR_PAIRS = json.loads(
    (Path(__file__).parent / "golden" / "tensor_pairs.json").read_text()
)

# the maximally mixed state and |0> on a 1x2 split, as state JSON
HALF_QUBIT = jsonio.state_to_json(qstate.DensityMatrix(np.eye(2) / 2, DimSplit(1, 2)))
PURE_QUBIT = jsonio.state_to_json(qstate.PureState(np.array([1.0, 0.0]), DimSplit(1, 2)))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    """(exit code, stdout) of ``cli.main(argv)``, an argparse rejection included;
    unlike ``run`` it needs no fixture, so hypothesis tests can call it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def generic_polytope_file(tmp_path) -> str:
    """A state polytope file whose css-check solves an LP."""
    verts = tuple(qstate.random_mixed(TWO_QUBITS, 4, seed=400 + j) for j in range(3))
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(jsonio.state_polytope_to_json(StatePolytope(verts, TWO_QUBITS))))
    return str(path)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def forbid(monkeypatch, module, name):
    """Make module.name fail the test if it is reached."""

    def boom(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(module, name, boom)


class TestAnalyze:
    def test_bell(self, capsys):
        code, out, _ = run(capsys, "analyze", "bell:phi+")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["measures"]["sm_frobenius"] == pytest.approx(
            0.8660254037844386, abs=1e-9
        )
        assert report["ppt_min_eig"] == pytest.approx(-0.5, abs=1e-9)
        assert report["verdicts"]["ppt"] == "entangled"
        assert not report["verdicts"]["product"]

    def test_maximally_mixed_werner(self, capsys):
        code, out, _ = run(capsys, "analyze", "werner:0.0")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdicts"]["ppt"] == "separable"
        assert report["measures"]["sm_frobenius"] <= 1e-12

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "file:missing.json")
        assert code == EXIT_PARSE
        assert "missing.json" in err

    def test_bad_expression(self, capsys):
        code, _, err = run(capsys, "analyze", "bell:phi")
        assert code == EXIT_PARSE
        assert "bell" in err

    def test_prbox_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "prbox")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["max_tensor_member"]
        assert report["verdicts"]["gpt_membership"] == "entangled"
        assert report["infeasibility_certificate"]["gap"] > 1e-3

    def test_prbox_builds_the_max_tensor_constraints_once(self, capsys, monkeypatch):
        # gpt_marginals is the one check of a GPT state
        built = counting(monkeypatch, comgeo, "max_tensor_constraints")
        assert run(capsys, "analyze", "prbox")[0] == EXIT_OK
        assert len(built) == 1

    def test_gpt_state_outside_the_max_tensor_product_exits_3(self, capsys, monkeypatch):
        # no state expression names such a state, so the PR box is scaled out
        outside = comgeo.BilinearState(2 * comgeo.pr_box().coord)
        monkeypatch.setattr(comgeo, "pr_box", lambda: outside)
        code, out, err = run(capsys, "analyze", "prbox")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "maximal tensor product" in err

    def test_random_state_expr(self, capsys):
        code, out, _ = run(capsys, "analyze", "random:2x2:rank=2:seed=7")
        assert code == EXIT_OK
        report = json.loads(out)
        assert np.isfinite(report["pi_distance"])

    def test_file_round_trip(self, capsys, tmp_path):
        rho = qstate.werner_state(0.3)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(jsonio.state_to_json(rho)))
        code, out, _ = run(capsys, "analyze", f"file:{path}")
        assert code == EXIT_OK
        direct = json.loads(run(capsys, "analyze", "werner:0.3")[1])
        via_file = json.loads(out)
        assert via_file["measures"] == direct["measures"]
        assert via_file["ppt_min_eig"] == direct["ppt_min_eig"]

    def test_file_with_nan_entry(self, capsys, tmp_path):
        obj = jsonio.state_to_json(qstate.werner_state(0.3))
        obj["matrix"]["re"][5] = float("nan")
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "analyze", f"file:{path}")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "non-finite entries" in err

    @pytest.mark.parametrize(
        "obj, what",
        [
            ([1, 2], "JSON object"),
            ({"type": "density", "dim_a": "x", "dim_b": 2}, "dim_a"),
            # a qubit's matrix: int(1.9) would make it a valid 1x2 state
            (dict(jsonio.state_to_json(qstate.DensityMatrix(np.eye(2) / 2, DimSplit(1, 2))),
                  dim_a=1.9), "dim_a"),
            (dict(jsonio.state_to_json(qstate.werner_state(0.3)), dim_b=True), "dim_b"),
            ({"type": "density", "dim_a": 2, "dim_b": 2}, "matrix"),
            # int(2.9) would read the 2x2 payload as a valid 1x2 state
            (dict(HALF_QUBIT, matrix=dict(HALF_QUBIT["matrix"], rows=2.9)), "rows"),
            (dict(PURE_QUBIT, amplitudes=dict(PURE_QUBIT["amplitudes"], cols=True)), "cols"),
            (dict(HALF_QUBIT, type="densty"), "densty"),
            (dict(HALF_QUBIT, dim_a=0), "dim_a"),
            (dict(HALF_QUBIT, matrix=dict(HALF_QUBIT["matrix"], rows=-2, cols=-2)), "rows"),
            (dict(HALF_QUBIT, matrix=dict(HALF_QUBIT["matrix"], rows=0, cols=0, re=[], im=[])),
             "rows"),
            (dict(HALF_QUBIT, matrix=dict(HALF_QUBIT["matrix"], re=[0.5, 0, 0])), "length 3/4"),
            (dict(HALF_QUBIT, matrix=dict(HALF_QUBIT["matrix"], re=["a", 0, 0, 0.5])), '"re"'),
            (dict(HALF_QUBIT, matrix=dict(HALF_QUBIT["matrix"], re=[[0.5, 0], [0, 0.5]])), '"re"'),
            # a matrix whose shape does not match the split: these were read
            # with exit 0 (the amplitudes raveled) or exit 3
            (dict(PURE_QUBIT, dim_b=4, amplitudes=dict(PURE_QUBIT["amplitudes"], rows=2, cols=2,
                  re=[1, 0, 0, 0], im=[0, 0, 0, 0])), '"amplitudes" is 2x2, expected 4x1'),
            (dict(PURE_QUBIT, amplitudes=dict(PURE_QUBIT["amplitudes"], rows=1, cols=2)),
             '"amplitudes" is 1x2, expected 2x1'),
            (dict(HALF_QUBIT, matrix=dict(HALF_QUBIT["matrix"], rows=1, cols=4)),
             '"matrix" is 1x4, expected 2x2 on a 1x2 split'),
        ],
    )
    def test_malformed_file_is_parse_error(self, capsys, tmp_path, obj, what):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "analyze", f"file:{path}")
        assert code == EXIT_PARSE
        assert out == ""
        assert "malformed state" in err and what in err

    def test_pure_file_reports_as_its_density_file(self, capsys, tmp_path):
        psi = qstate.random_pure(DimSplit(2, 3), seed=11)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(jsonio.state_to_json(psi)))
        pure = run(capsys, "analyze", f"file:{path}")
        path.write_text(json.dumps(jsonio.state_to_json(qstate.density_from_pure(psi))))
        assert pure[0] == EXIT_OK
        assert run(capsys, "analyze", f"file:{path}") == pure

    def test_lp_failure_is_numeric_error(self, capsys, monkeypatch, tmp_path):
        # the PR-box report solves no LP; the largest distance of a generic
        # polytope from its image does
        failed = SimpleNamespace(status=4, message="numerical difficulties")
        monkeypatch.setattr(comgeo, "linprog", lambda *args, **kwargs: failed)
        code, out, err = run(capsys, "css-check", generic_polytope_file(tmp_path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "LP failed" in err

    def test_corrupted_lp_answer_is_numeric_error(self, capsys, monkeypatch, tmp_path):
        # an answer whose weights do not rebuild the reported distance
        original = comgeo.linprog

        def corrupted(*args, **kwargs):
            res = original(*args, **kwargs)
            res.fun += 0.25
            return res

        monkeypatch.setattr(comgeo, "linprog", corrupted)
        code, out, err = run(capsys, "css-check", generic_polytope_file(tmp_path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "off its residual" in err

    @pytest.mark.parametrize("expr", ["bell:phi+", "werner:0.5"])
    def test_singleton_report_needs_no_lp(self, capsys, monkeypatch, expr):
        # css_singleton is read off pi(rho) - rho, so no LP is solved
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(comgeo, "linprog", no_lp)
        code, out, _ = run(capsys, "analyze", expr)
        assert code == EXIT_OK
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["css_singleton"] is verdicts["product"] is False

    @pytest.mark.parametrize(
        "case", GOLDEN_ANALYZE, ids=[" ".join(c["argv"]) for c in GOLDEN_ANALYZE]
    )
    def test_golden_reports(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == EXIT_OK
        assert out == case["stdout"]

    @pytest.mark.parametrize(
        "expr", ["bell:psi-", "werner:0.3", "random:3x3:rank=2:seed=4"]
    )
    def test_one_pi_map_and_one_ppt_spectrum_per_state(self, capsys, monkeypatch, expr):
        # the marginals once (one partial trace per side), pi(rho) built from
        # them, and one eigensolve for the trace norm and the PPT spectrum
        product_calls = counting(monkeypatch, qstate, "_product")
        trace_calls = counting(monkeypatch, matcore, "partial_trace")
        pt_calls = counting(monkeypatch, matcore, "partial_transpose")
        eig_calls = counting(monkeypatch, np.linalg, "eigh")
        code, _, _ = run(capsys, "--f-kind", "square", "--norm", "max_abs", "analyze", expr)
        assert code == EXIT_OK
        assert len(product_calls) == len(pt_calls) == len(eig_calls) == 1
        assert len(trace_calls) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        rank=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        f_kind=st.sampled_from(("identity", "abs", "square")),
        norm_kind=st.sampled_from(("frobenius", "trace", "max_abs")),
        tol=st.sampled_from((0.0, 1e-9, 1e-3, 0.5)),
    )
    def test_report_fields_equal_the_public_functions(
        self, dims, rank, seed, f_kind, norm_kind, tol
    ):
        split = DimSplit(*dims)
        rho = qstate.random_mixed(split, min(rank, split.dim), seed)
        report = cli._quantum_report(rho, "x", tol, f_kind, norm_kind)
        cfg = invsep.MeasureConfig(f_kind, norm_kind)
        measures = report["measures"]
        assert report["pi_distance"] == invsep.g_measure(rho)
        assert measures["sm_frobenius"] == invsep.g_measure(rho)
        assert measures["sm_trace"] == invsep.g_measure(
            rho, invsep.MeasureConfig("identity", "trace")
        )
        key = f"{f_kind}_{norm_kind}"
        key = {"identity_frobenius": "sm_frobenius", "identity_trace": "sm_trace"}.get(key, key)
        assert measures[key] == invsep.g_measure(rho, cfg)
        assert report["ppt_min_eig"] == invsep.ppt_min_eigenvalue(rho)
        verdicts = report["verdicts"]
        assert verdicts["product"] is invsep.is_product(rho, tol)
        assert verdicts["ppt"] == invsep.ppt_verdict(rho)

    @settings(max_examples=30, deadline=None)
    @given(
        dim_a=st.integers(2, 3),
        dim_b=st.integers(4, 6),
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(0.3e-10, 0.49e-10),
    )
    def test_non_hermitian_delta_takes_the_trace_norm_branch(self, dim_a, dim_b, seed, c):
        # rho = a (x) |psi><psi| + K: K is anti-Hermitian, c on each entry
        # ((0, k), (1, k)), so rho is 2c from Hermitian.  Its A marginal
        # gains dim_b * c off the diagonal, and with psi = (1, 1, 0, ...)/sqrt(2)
        # the delta is dim_b * c >= 1.2e-10 from Hermitian at ((0, 0), (1, 1))
        split = DimSplit(dim_a, dim_b)
        psi = np.zeros(dim_b)
        psi[:2] = 1 / np.sqrt(2)
        mat = kron(qstate.random_mixed(DimSplit(dim_a, 1), dim_a, seed).mat, np.outer(psi, psi))
        for k in range(dim_b):
            mat[k, dim_b + k] += c
            mat[dim_b + k, k] -= c
        state = jsonio.state_to_json(qstate.DensityMatrix(mat, split))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            path.write_text(json.dumps(state))
            code, out = run_quiet(["analyze", f"file:{path}"])
            rho = cli.parse_state_expr(f"file:{path}")
        assert code == EXIT_OK
        assert not matcore.is_hermitian(invsep.pi_delta(rho))
        report = json.loads(out)
        trace = invsep.g_measure(rho, invsep.MeasureConfig("identity", "trace"))
        assert report["measures"]["sm_trace"] == trace
        assert report["ppt_min_eig"] == invsep.ppt_min_eigenvalue(rho)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from(((2, 2), (2, 3), (3, 3))),
        rank=st.integers(1, 9),
        seeds=st.tuples(*[st.integers(0, 2**32 - 1)] * 3),
    )
    def test_measures_invariant_under_local_unitaries(self, dims, rank, seeds):
        split = DimSplit(*dims)
        rho = qstate.random_mixed(split, min(rank, split.dim), seeds[0])
        u = kron(
            qstate.random_unitary(split.dim_a, seeds[1]),
            qstate.random_unitary(split.dim_b, seeds[2]),
        )
        rotated = qstate.DensityMatrix(u @ rho.mat @ u.conj().T, split)
        before, after = (
            cli._quantum_report(r, "x", matcore.DECISION_TOL, "identity", "frobenius")
            for r in (rho, rotated)
        )
        for key in ("sm_frobenius", "sm_trace"):
            assert abs(before["measures"][key] - after["measures"][key]) <= 1e-9
        assert abs(before["ppt_min_eig"] - after["ppt_min_eig"]) <= 1e-9

    def test_random_dimension_cap(self, capsys, monkeypatch):
        forbid(monkeypatch, qstate, "random_pure")
        forbid(monkeypatch, qstate, "random_mixed")
        code, out, err = run(capsys, "analyze", "random:100000x100000:seed=1")
        assert code == EXIT_CAP
        assert out == ""
        assert str(cli.RANDOM_DIM_CAP) in err
        code, _, _ = run(capsys, "analyze", "random:2x2:rank=1000000000:seed=1")
        assert code == EXIT_CAP

    @pytest.mark.parametrize(
        "state",
        [
            qstate.PureState(np.eye(65)[0], DimSplit(65, 1)),
            qstate.DensityMatrix(np.eye(65) / 65, DimSplit(65, 1)),
        ],
        ids=["pure", "density"],
    )
    def test_file_dimension_cap(self, capsys, monkeypatch, tmp_path, state):
        # the split is read, and capped, before the matrix
        forbid(monkeypatch, jsonio, "matrix_from_json")
        path = tmp_path / "big.json"
        path.write_text(json.dumps(jsonio.state_to_json(state)))
        code, out, err = run(capsys, "analyze", f"file:{path}")
        assert code == EXIT_CAP
        assert out == ""
        assert "state dimension 65x1 = 65 exceeds the cap of 64" in err

    def test_file_at_dimension_cap(self, capsys, tmp_path):
        path = tmp_path / "pure64.json"
        path.write_text(json.dumps(jsonio.state_to_json(qstate.random_pure(DimSplit(64, 1), 3))))
        code, out, _ = run(capsys, "analyze", f"file:{path}")
        assert code == EXIT_OK
        assert json.loads(out)["dim_a"] == 64

    def test_random_at_dimension_cap(self, capsys):
        code, out, _ = run(capsys, "analyze", "random:8x8:seed=1")
        assert code == EXIT_OK
        assert json.loads(out)["dim_a"] == 8

    @pytest.mark.parametrize(
        "expr, option",
        [
            ("random:2x2:seed=-1", "seed"),
            ("random:2x2:rank=2:seed=-5", "seed"),
            ("random:2x2:rank=0:seed=1", "rank"),
            ("random:3x3:rank=-2", "rank"),
        ],
    )
    def test_bad_random_option_is_parse_error(self, capsys, expr, option):
        code, out, err = run(capsys, "analyze", expr)
        assert code == EXIT_PARSE
        assert out == ""
        assert f"option {option!r}" in err

    @pytest.mark.parametrize("expr", ["random:2x2x7:seed=1", "random:2:seed=1", "random:x3:seed=1"])
    def test_bad_random_dimensions_are_parse_error(self, capsys, expr):
        code, out, err = run(capsys, "analyze", expr)
        assert code == EXIT_PARSE
        assert out == ""
        assert "dimension spec" in err

    @pytest.mark.parametrize("expr", ["random:1x4:seed=3", "random:5x1:rank=3:seed=2"])
    def test_one_dimensional_factor_is_ppt_separable(self, capsys, expr):
        code, out, _ = run(capsys, "analyze", expr)
        assert code == EXIT_OK
        assert json.loads(out)["verdicts"]["ppt"] == "separable"


class TestTolerance:
    # "--tol=X" form: argparse would read a bare "-1e-9" as an option; from
    # "-0" on, each is a spelling that float() takes and that was accepted
    @pytest.mark.parametrize(
        "tol",
        ["nan", "inf", "-inf", "-1e-9", "-0.5", "abc", "1e999", "-0", "+0.1", "0_1",
         "\u0660.1", " 0.1", "0.1 ", "infinity"],
    )
    def test_rejected_at_parse_time(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            cli.main([f"--tol={tol}", "analyze", "werner:0"])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol" in captured.err and repr(tol) in captured.err

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0))
    @example(1e-05)
    @example(5e-324)
    @example(1.0)
    def test_every_float_repr_in_the_unit_interval_is_accepted(self, p):
        # perfbench sends werner:{p!r}; the same text is a valid --tol
        assert cli._literal(repr(p)) == p
        code, out = run_quiet(["--tol", repr(p), "analyze", f"werner:{p!r}"])
        assert code == EXIT_OK
        assert json.loads(out)["input"] == f"werner:{p!r}"

    def test_zero_accepted(self, capsys):
        code, out, _ = run(capsys, "--tol", "0", "analyze", "werner:0")
        assert code == EXIT_OK
        assert json.loads(out)["verdicts"]["css_singleton"]

    def test_gpt_report_checks_the_marginals_at_tol(self, capsys, monkeypatch):
        # the max-tensor check and the state-space checks use the one --tol
        seen = []
        original = comgeo.gpt_marginals

        def recorded(phi, a, b, tol=matcore.DECISION_TOL):
            seen.append(tol)
            return original(phi, a, b, tol)

        monkeypatch.setattr(comgeo, "gpt_marginals", recorded)
        assert run(capsys, "--tol", "0", "analyze", "prbox")[0] == EXIT_OK
        assert seen == [0.0]


class TestSweep:
    def test_golden_file(self, capsys):
        code, out, _ = run(capsys, "sweep", "werner")
        assert code == EXIT_OK
        assert out == GOLDEN.read_text()

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "sweep", "werner")
        _, second, _ = run(capsys, "sweep", "werner")
        assert first == second

    def test_threshold_bracketing(self, capsys):
        _, out, _ = run(capsys, "sweep", "werner")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        eigs = [(float(r[0]), float(r[3])) for r in rows]
        for p, eig in eigs:
            assert eig == pytest.approx((1 - 3 * p) / 4, abs=1e-9)
        signs = [(p, eig < 0) for p, eig in eigs]
        flips = [
            (signs[i][0], signs[i + 1][0])
            for i in range(len(signs) - 1)
            if signs[i][1] != signs[i + 1][1]
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert lo <= 1 / 3 <= hi

    def test_two_steps(self, capsys):
        _, out, _ = run(capsys, "sweep", "werner", "--steps", "2")
        assert len(out.strip().split("\n")) == 3  # header + 2 rows

    def test_measure_nondecreasing(self, capsys):
        _, out, _ = run(capsys, "sweep", "werner")
        vals = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @settings(max_examples=40, deadline=None)
    @given(
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        steps=st.integers(2, 300),
        block=st.sampled_from((1, 7, 64, cli.SWEEP_BLOCK)),
    )
    def test_rows_equal_the_per_state_functions(self, ends, steps, block):
        start, stop = ends
        argv = ["sweep", "werner", f"--start={start!r}", f"--stop={stop!r}", f"--steps={steps}"]
        with mock.patch.object(cli, "SWEEP_BLOCK", block):
            code, out = run_quiet(argv)
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert len(rows) == steps
        trace = invsep.MeasureConfig("identity", "trace")
        for p, row in zip(np.linspace(start, stop, steps).tolist(), rows):
            rho = qstate.werner_state(p)
            delta = invsep.pi_delta(rho)
            ppt = invsep.ppt_min_eigenvalue(rho)
            fields = [p, invsep.measure_of_delta(delta), invsep.measure_of_delta(delta, trace), ppt]
            verdict = invsep.ppt_verdict_from_eigenvalue(ppt, rho.split)
            assert row.split(",") == [repr(x) for x in fields] + [verdict]

    def test_frobenius_norm_of_each_slice_on_the_golden_grid(self):
        # np.linalg.norm(deltas, axis=(-2, -1)) sums in another order, and
        # differs from the per-matrix norm in the last bit on some rows here
        deltas = np.array(
            [invsep.pi_delta(qstate.werner_state(p)) for p in np.linspace(0, 1, 101).tolist()]
        )
        golden = [line.split(",")[1] for line in GOLDEN.read_text().splitlines()[1:]]
        assert [repr(float(np.linalg.norm(d))) for d in deltas] == golden
        assert [repr(x) for x in matcore.norm(deltas, "frobenius").tolist()] == golden

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "werner", "--start", "0.9", "--stop", "0.1")
        assert code == EXIT_PARSE
        assert "grid" in err

    def test_steps_cap(self, capsys, monkeypatch):
        forbid(monkeypatch, np, "linspace")
        code, out, err = run(capsys, "sweep", "werner", "--steps", "1000000000")
        assert code == EXIT_CAP
        assert out == ""
        assert str(cli.SWEEP_STEPS_CAP) in err

    @pytest.mark.parametrize("block, passes", [(cli.SWEEP_BLOCK, 1), (3, 3), (7, 1)])
    def test_one_stacked_pass_per_block(self, capsys, monkeypatch, block, passes):
        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        blocks = []
        werner_state = qstate.werner_state
        monkeypatch.setattr(
            qstate, "werner_state", lambda ps: blocks.append(len(ps)) or werner_state(ps)
        )
        validations = counting(monkeypatch, qstate.DensityMatrix, "validate")
        pi_calls = counting(monkeypatch, qstate, "pi_map")
        pt_calls = counting(monkeypatch, matcore, "partial_transpose")
        eig_calls = counting(monkeypatch, np.linalg, "eigh")
        code, _, _ = run(capsys, "sweep", "werner", "--steps", "7")
        assert code == EXIT_OK
        # each block of the grid is one stack of states, built and validated
        # by one werner_state call; its deltas and PPT spectra are one call each
        assert blocks == [min(block, 7 - lo) for lo in range(0, 7, block)]
        assert len(blocks) == len(validations) == len(pi_calls) == len(pt_calls) == passes
        # one eigh for the trace norms of the deltas and the PPT spectra together
        assert len(eig_calls) == passes


class TestTensor:
    def test_classical_pair_equal(self, capsys):
        code, out, _ = run(capsys, "tensor", "classical:2", "classical:2")
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["equal"]
        assert summary["min_vertices"] == 4
        assert summary["max_vertices"] == 4

    def test_gbit_pair_outside_list_contains_pr_box(self, capsys):
        code, out, _ = run(capsys, "tensor", "gbit", "gbit")
        assert code == EXIT_OK
        summary = json.loads(out)
        assert not summary["equal"]
        outside = np.array(summary["max_vertices_outside_min"])
        assert len(outside) == 8
        from entgeo.comgeo import pr_box

        target = pr_box().vector()
        assert min(np.max(np.abs(outside - target), axis=1)) <= 1e-8

    def test_mixed_pair_inclusion(self, capsys):
        code, out, _ = run(capsys, "tensor", "classical:2", "gbit")
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["max_vertices_outside_min"] == []

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "tensor", "classical:4", "classical:4")
        assert code == EXIT_CAP
        assert "cap" in err

    def test_dim_cap_is_not_an_option(self):
        # the enumeration cap is comgeo.ENUM_DIM_CAP, not a knob
        assert run_quiet(["tensor", "--dim-cap", "16", "gbit", "gbit"]) == (EXIT_PARSE, "")

    @pytest.mark.parametrize(
        "argv, what",
        [(["classical:13", "gbit"], "ambient dim <= 12, got 39"),
         (["--which", "min", "classical:65", "gbit"], "composite dimension 195"),
         (["--which", "both", "gbit", "classical:22"], "composite dimension 66")],
    )
    def test_caps_are_checked_before_any_model_is_built(self, capsys, monkeypatch, argv, what):
        forbid(monkeypatch, comgeo, "classical_model")
        forbid(monkeypatch, comgeo, "gbit_model")
        code, out, err = run(capsys, "tensor", *argv)
        assert code == EXIT_CAP
        assert out == ""
        assert what in err

    def test_gbit_pair_golden_output(self, capsys):
        # pins the vertex values and the order of max_vertices_outside_min
        code, out, _ = run(capsys, "tensor", "gbit", "gbit")
        assert code == EXIT_OK
        assert out == GOLDEN_TENSOR.read_text()

    @pytest.mark.parametrize(
        "case", GOLDEN_TENSOR_PAIRS, ids=[" ".join(c["argv"]) for c in GOLDEN_TENSOR_PAIRS]
    )
    def test_golden_pairs(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == EXIT_OK
        assert out == case["stdout"]

    @pytest.mark.parametrize(
        "model_a, model_b, n_vertices",
        [("classical:4", "gbit", 16), ("classical:3", "classical:3", 9)],
    )
    def test_classical_factor_under_default_cap(self, capsys, model_a, model_b, n_vertices):
        # ambient dims 12 and 9; a classical factor makes max = min
        code, out, _ = run(capsys, "tensor", model_a, model_b)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["min_vertices"] == summary["max_vertices"] == n_vertices
        assert summary["equal"]
        assert summary["max_vertices_outside_min"] == []

    @pytest.mark.parametrize(
        "model_a, model_b, calls",
        [("gbit", "gbit", 1), ("classical:3", "classical:3", 2)],
    )
    def test_one_membership_call_per_direction(self, capsys, monkeypatch, model_a, model_b, calls):
        # max vertices in min, then (only if none is outside) min vertices in
        # max, each direction one stacked call rather than one per vertex
        members = counting(monkeypatch, comgeo, "hull_membership")
        code, _, _ = run(capsys, "tensor", model_a, model_b)
        assert code == EXIT_OK
        assert len(members) == calls

    @pytest.mark.parametrize(
        "model_a, model_b",
        [("classical:2", "classical:2"), ("classical:2", "classical:3"),
         ("classical:3", "classical:2"), ("classical:3", "classical:3"),
         ("classical:4", "classical:3"), ("classical:2", "classical:6")],
    )
    def test_classical_pair_runs_no_vertex_enumeration(self, capsys, monkeypatch, model_a, model_b):
        # two simplices: the maximal product's vertices are the products
        forbid(monkeypatch, comgeo, "HalfspaceIntersection")
        code, out, _ = run(capsys, "tensor", model_a, model_b)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["equal"] and summary["min_vertices"] == summary["max_vertices"]

    @pytest.mark.parametrize("argv", [["classical:2", "gbit"], ["gbit", "classical:2"]])
    def test_classical_factor_enumerates_the_other_effect_polytope(self, capsys, monkeypatch, argv):
        seen = []
        original = comgeo.enumerate_max_vertices

        def recorded(h):
            seen.append(h.ambient_dim)
            return original(h)

        monkeypatch.setattr(comgeo, "enumerate_max_vertices", recorded)
        assert run(capsys, "tensor", *argv)[0] == EXIT_OK
        assert seen == [3]

    def test_unbounded_constraints_are_numeric_error(self, capsys, monkeypatch):
        unbounded = comgeo.HPolytope(3, [[1, 0, 0]], [0], [[0, 0, 1]], [1], [1, 0, 1])
        monkeypatch.setattr(comgeo, "max_tensor_constraints", lambda a, b: unbounded)
        code, _, err = run(capsys, "tensor", "gbit", "gbit", "--which", "max")
        assert code == EXIT_NUMERIC
        assert "unbounded" in err


class TestCssCheck:
    def _write(self, tmp_path, polytope):
        path = tmp_path / "polytope.json"
        path.write_text(json.dumps(jsonio.state_polytope_to_json(polytope)))
        return str(path)

    def test_product_singleton(self, capsys, tmp_path):
        r1 = np.diag([0.25, 0.75])
        r2 = np.diag([0.5, 0.5])
        c = StatePolytope((kron(r1, r2),), TWO_QUBITS)
        code, out, _ = run(capsys, "css-check", self._write(tmp_path, c))
        assert code == EXIT_OK
        assert json.loads(out)["css"]

    def test_bell_singleton(self, capsys, tmp_path):
        c = StatePolytope((qstate.bell_state("phi+"),), TWO_QUBITS)
        code, out, _ = run(capsys, "css-check", self._write(tmp_path, c))
        assert code == EXIT_OK
        report = json.loads(out)
        assert not report["css"]
        assert report["distance_summary"] > 1e-3

    def test_werner_witness_fixture(self, capsys, tmp_path):
        c = css_from_decomposition(invsep.werner_product_decomposition(0.25))
        code, out, _ = run(capsys, "css-check", self._write(tmp_path, c))
        assert code == EXIT_OK
        assert json.loads(out)["css"]

    def test_vertex_cap(self, capsys, tmp_path, monkeypatch):
        forbid(monkeypatch, jsonio, "state_polytope_from_json")
        vertex = qstate.werner_state(0.2)
        obj = jsonio.state_polytope_to_json(StatePolytope((vertex,), TWO_QUBITS))
        obj["vertices"] *= cli.CSS_VERTEX_CAP + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "css-check", str(path))
        assert code == EXIT_CAP
        assert out == ""
        assert str(cli.CSS_VERTEX_CAP) in err

    def test_split_cap(self, capsys, tmp_path, monkeypatch):
        forbid(monkeypatch, jsonio, "matrix_from_json")
        vertex = qstate.DensityMatrix(np.eye(65) / 65, DimSplit(65, 1))
        path = self._write(tmp_path, StatePolytope((vertex,), vertex.split))
        code, out, err = run(capsys, "css-check", path)
        assert code == EXIT_CAP
        assert out == ""
        assert "state polytope dimension 65x1 = 65 exceeds the cap of 64" in err

    @pytest.mark.parametrize(
        "obj, what",
        [
            ([1, 2], "JSON object"),
            ({"dim_a": 2, "dim_b": 2, "vertices": 5}, "vertices"),
            ({"dim_a": 2, "dim_b": 2, "vertices": [5]}, "vertices"),
            ({"dim_a": 2, "vertices": []}, "dim_b"),
            ({"dim_a": "x", "dim_b": 2, "vertices": []}, "dim_a"),
            ({"dim_a": 1.9, "dim_b": 2, "vertices": []}, "dim_a"),
            ({"dim_a": 2, "dim_b": False, "vertices": []}, "dim_b"),
            ({"dim_a": 1, "dim_b": 2, "vertices": [dict(HALF_QUBIT["matrix"], rows=2.9)]},
             "rows"),
            ({"dim_a": 1, "dim_b": 2, "vertices": [dict(HALF_QUBIT["matrix"], rows=-2, cols=-2)]},
             "rows"),
            ({"dim_a": 1, "dim_b": 2,
              "vertices": [dict(HALF_QUBIT["matrix"], rows=0, cols=0, re=[], im=[])]}, "rows"),
            ({"dim_a": 1, "dim_b": 2, "vertices": [dict(HALF_QUBIT["matrix"], re=[0.5, 0, 0])]},
             "length 3/4"),
            ({"dim_a": 1, "dim_b": 2,
              "vertices": [dict(HALF_QUBIT["matrix"], re=["a", 0, 0, 0.5])]}, '"re"'),
            ({"dim_a": 1, "dim_b": 2,
              "vertices": [dict(HALF_QUBIT["matrix"], re=[[0.5, 0], [0, 0.5]])]}, '"re"'),
            # a vertex whose shape does not match the split: these exited 3
            ({"dim_a": 2, "dim_b": 1,
              "vertices": [HALF_QUBIT["matrix"], {"rows": 1, "cols": 1, "re": [1], "im": [0]}]},
             "vertex 1 is 1x1, expected 2x2 on a 2x1 split"),
            ({"dim_a": 1, "dim_b": 2, "vertices": [dict(HALF_QUBIT["matrix"], rows=1, cols=4)]},
             "vertex 0 is 1x4, expected 2x2"),
            ({"dim_a": 2, "dim_b": 2,
              "vertices": [jsonio.matrix_to_json(np.eye(4) / 4), HALF_QUBIT["matrix"]]},
             "vertex 1 is 2x2, expected 4x4"),
        ],
    )
    def test_wrong_shape_is_parse_error(self, capsys, tmp_path, obj, what):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "css-check", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "malformed state polytope" in err and what in err

    @pytest.mark.parametrize(
        "second, message", [(np.diag([1.5, -0.5, 0.0, 0.0]), "invalid vertex 1: negative eigenvalue")]
    )
    def test_invalid_vertex_is_validation_error(self, capsys, tmp_path, second, message):
        obj = jsonio.state_polytope_to_json(StatePolytope((qstate.werner_state(0.2),), TWO_QUBITS))
        obj["vertices"].append(jsonio.matrix_to_json(second))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "css-check", str(path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert message in err

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "css-check", str(path))
        assert code == EXIT_PARSE
        assert "junk.json" in err


# a matrix whose first "re" entry is the literal BIG, in a state file and
# in a state polytope file
BIG_MATRIX = dict(HALF_QUBIT["matrix"], re=["BIG", 0, 0, 0.5])
BIG_STATE = json.dumps(dict(HALF_QUBIT, matrix=BIG_MATRIX))
BIG_POLYTOPE = json.dumps({"type": "state_polytope", "dim_a": 1, "dim_b": 2, "vertices": [BIG_MATRIX]})
# the files of {tmp}, which holds no missing.json: nested.json is nested too
# deep for the decoder (a RecursionError), digits.json holds an integer
# literal over Python's 4,300-digit limit (a ValueError that is no
# JSONDecodeError) and overflow_*.json a 401-digit one, too large for a
# float (an OverflowError); these exited 3, 3 and 1 before they exited 2
PARSE_FILES = {
    "junk.json": b"{not json",
    "not_utf8.json": b"\xff\xfe{",
    "nested.json": b"[" * 200_000,
    "digits.json": BIG_STATE.replace('"BIG"', "1" * 4301).encode(),
    "overflow_state.json": BIG_STATE.replace('"BIG"', "1" * 401).encode(),
    "overflow_polytope.json": BIG_POLYTOPE.replace('"BIG"', "1" * 401).encode(),
}
# one case per parse-error branch of the CLI
PARSE_ERRORS = [
    (["analyze", "werner:1:2"], "bad werner expression"),
    (["analyze", "werner:x"], "bad werner parameter"),
    (["analyze", "werner:2"], "must lie in [0, 1]"),
    # P is an ASCII decimal literal; float() takes each of these, and the
    # first four exited 0 or (0_5) reported p = 5.0
    (["analyze", "werner:+.5"], "bad werner parameter '+.5'"),
    (["analyze", "werner:0_5"], "bad werner parameter '0_5'"),
    (["analyze", "werner:\u0660.\u0665"], "bad werner parameter '\u0660.\u0665'"),
    (["analyze", "werner: 0.5"], "bad werner parameter ' 0.5'"),
    (["analyze", "werner:0.5\n"], "bad werner parameter '0.5\\n'"),
    (["analyze", "werner:-0.0"], "bad werner parameter '-0.0'"),
    (["analyze", "werner:nan"], "bad werner parameter 'nan'"),
    (["analyze", "werner:1e"], "bad werner parameter '1e'"),
    (["analyze", "file:"], "empty path"),
    (["analyze", "file:{tmp}/junk.json"], "invalid JSON"),
    (["analyze", "file:{tmp}/missing.json"], "cannot read"),
    (["analyze", "file:{tmp}/not_utf8.json"], "invalid JSON"),
    (["analyze", "file:{tmp}/nested.json"], "invalid JSON"),
    (["analyze", "file:{tmp}/digits.json"], "invalid JSON"),
    (["analyze", "file:{tmp}/overflow_state.json"], "malformed state"),
    (["analyze", "foo"], "unknown state expression"),
    (["analyze", "random:2x2"], "bad random expression"),
    (["analyze", "random:2x2:seed"], "bad option"),
    (["analyze", "random:2x2:seed=x"], "bad integer"),
    # an integer of an expression is ASCII decimal digits alone; int() takes
    # each of these, and seed=\u0665 (ARABIC-INDIC FIVE) reported seed=5
    (["analyze", "random:2x2:seed=\u0665"], "bad integer"),
    (["analyze", "random:2x2:seed=1_0"], "bad integer"),
    (["analyze", "random:2x2:seed=+1"], "bad integer"),
    (["analyze", "random:2x2:seed= 5"], "bad integer"),
    (["analyze", "random:2x2:seed=5\n"], "bad integer"),
    (["analyze", "random:2x2:rank=+3"], "bad integer"),
    (["analyze", "random:2 x2:seed=1"], "bad dimension spec"),
    (["analyze", "random:2x\u0662:seed=1"], "bad dimension spec"),
    (["tensor", "classical:+2", "gbit"], "bad integer"),
    (["tensor", "classical:\u0662", "gbit"], "bad integer"),
    (["analyze", "random:2x2:foo=1"], "unknown options"),
    (["analyze", "random:2x2:seed=1:seed=2"], "option 'seed' given twice"),
    (["analyze", "random:2x2:rank=2:seed=1:rank=3"], "option 'rank' given twice"),
    (["tensor", "classical:2:3", "gbit"], "bad model expression"),
    (["tensor", "classical:x", "gbit"], "bad integer"),
    (["tensor", "classical:1", "gbit"], "needs n >= 2"),
    (["tensor", "gbit", "foo"], "unknown model expression"),
    (["sweep", "bogus"], "unknown sweep family"),
    (["css-check", "{tmp}/missing.json"], "cannot read"),
    (["css-check", "{tmp}/junk.json"], "invalid JSON"),
    (["css-check", "{tmp}/not_utf8.json"], "invalid JSON"),
    (["css-check", "{tmp}/nested.json"], "invalid JSON"),
    (["css-check", "{tmp}/digits.json"], "invalid JSON"),
    (["css-check", "{tmp}/overflow_polytope.json"], "malformed state polytope"),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "argv, what", PARSE_ERRORS, ids=[" ".join(argv) for argv, _ in PARSE_ERRORS]
    )
    def test_exits_2_with_message(self, capsys, tmp_path, argv, what):
        for name, data in PARSE_FILES.items():
            (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("entgeo: parse error: ") and what in err

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="0123456789+-_ x\n\u0665\u0662\u00b2\uff15", max_size=6)
        | st.text(max_size=6)
    )
    def test_integers_are_ascii_decimal_digits(self, text):
        if re.fullmatch("[0-9]+", text):
            assert cli._decimal(text) == int(text)
        else:
            with pytest.raises(ValueError):
                cli._decimal(text)


# each command once with options, an argparse rejection, then each command
# again with its defaults: an option value left over from an earlier call
# would change a later output
REUSE_SEQUENCE = [
    ["--tol", "0", "analyze", "werner:0.3"],
    ["--f-kind", "square", "--norm", "trace", "analyze", "random:3x3:rank=4:seed=5"],
    ["tensor", "--which", "min", "gbit", "gbit"],
    ["sweep", "werner", "--steps", "5"],
    ["--tol", "-1", "analyze", "werner:0.3"],
    ["analyze", "werner:0.3"],
    ["analyze", "random:3x3:rank=4:seed=5"],
    ["tensor", "gbit", "gbit"],
    ["sweep", "werner"],
]


class TestParserReuse:
    def test_built_once_per_process(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        # the top-level parser is the only one that adds subparsers
        built = counting(monkeypatch, argparse.ArgumentParser, "add_subparsers")
        for argv in (["analyze", "werner:0.3"], ["sweep", "werner", "--steps", "3"], ["analyze", "prbox"]):
            assert run(capsys, *argv)[0] == EXIT_OK
        assert len(built) == 1

    def test_no_option_leaks_between_calls(self):
        in_sequence = [run_quiet(argv) for argv in REUSE_SEQUENCE]
        alone = []
        for argv in REUSE_SEQUENCE:
            cli.build_parser.cache_clear()
            alone.append(run_quiet(argv))
        assert in_sequence == alone
        assert [code for code, _ in in_sequence] == [0, 0, 0, 0, EXIT_PARSE, 0, 0, 0, 0]
        assert in_sequence[-1][1] == GOLDEN.read_text()
        # after every call above, the reused parser still yields the defaults
        reused = cli.build_parser().parse_args(["analyze", "x"])
        assert vars(reused) == vars(cli.build_parser.__wrapped__().parse_args(["analyze", "x"]))

    def test_help_exits_0_on_the_reused_parser(self):
        first = run_quiet(["sweep", "--help"])
        assert first[0] == EXIT_OK and "--steps" in first[1]
        assert run_quiet(["sweep", "--help"]) == first
        assert run_quiet(["--help"])[0] == EXIT_OK


# runs the commands of argv[1] (a JSON list of argv lists) through cli.main in
# this interpreter, then prints their exit codes, their stdout and whether
# any scipy module was imported, as JSON
IMPORT_PROBE = """import contextlib, io, json, sys
from entgeo import cli
out, codes = io.StringIO(), []
with contextlib.redirect_stdout(out):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
scipy = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print(json.dumps({"codes": codes, "stdout": out.getvalue(), "scipy": scipy}))
"""


def fresh_process(*argvs) -> dict:
    """``IMPORT_PROBE`` on the given command lines, in a new interpreter that
    imports entgeo from src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


class TestStartUp:
    def test_quantum_commands_import_no_scipy(self):
        # scipy's import is most of a process's start-up, and a quantum
        # analyze or sweep calls none of it
        commands = (["analyze", "werner:0.3"], ["analyze", "random:3x3:seed=2"], ["sweep", "werner"])
        got = fresh_process(*commands)
        assert got["codes"] == [EXIT_OK] * 3
        assert got["stdout"].endswith(GOLDEN.read_text())
        assert not got["scipy"]

    def test_classical_tensor_imports_no_scipy(self):
        # the maximal product of two simplices is their products, with no
        # vertex enumeration, and every hull question a vertex match
        argv = ["tensor", "classical:2", "classical:3"]
        want = next(c["stdout"] for c in GOLDEN_TENSOR_PAIRS if c["argv"] == argv)
        assert fresh_process(argv) == {"codes": [EXIT_OK], "stdout": want, "scipy": False}

    def test_tensor_imports_scipy_on_first_use(self):
        # the control: a pair with no classical factor needs Qhull, so the
        # probe sees scipy
        got = fresh_process(["tensor", "gbit", "gbit"])
        assert got == {"codes": [EXIT_OK], "stdout": GOLDEN_TENSOR.read_text(), "scipy": True}


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [["analyze", "bell:phi+"], ["sweep", "werner"]])
    def test_closed_stdout_exits_0(self, monkeypatch, argv):
        # the reader chose to stop; a stdout with no file descriptor has
        # nothing to redirect
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(argv) == EXIT_OK

    @pytest.mark.parametrize("argv", [["analyze", "bell:phi+"], ["sweep", "werner"]])
    def test_buffered_stdout_on_a_closed_pipe_exits_0(self, monkeypatch, argv):
        # a block-buffered stdout takes the whole report without a write to
        # the pipe, so the closed pipe shows only when main flushes; its fd
        # then points at os.devnull, and the bytes still buffered flush there
        read, write = os.pipe()
        os.close(read)
        stdout = open(write, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv) == EXIT_OK
        stdout.write("more")
        stdout.close()

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_in_a_new_process(self, unbuffered):
        # fd 1 on a pipe whose read end is closed: no traceback, exit 0, with
        # stdout block-buffered (the default on a pipe) or not
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "entgeo.cli", "analyze", "bell:phi+"],
                env=env, stdout=write, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
