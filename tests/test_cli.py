import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from entgeo import cli, comgeo, invsep, qstate
from entgeo.cli import EXIT_CAP, EXIT_NUMERIC, EXIT_OK, EXIT_PARSE
from entgeo.invsep import StatePolytope, css_from_decomposition
from entgeo.matcore import kron

from conftest import TWO_QUBITS

GOLDEN = Path(__file__).parent / "golden" / "werner_sweep.csv"
GOLDEN_TENSOR = Path(__file__).parent / "golden" / "tensor_gbit_gbit.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_random_state_expr(self, capsys):
        code, out, _ = run(capsys, "analyze", "random:2x2:rank=2:seed=7")
        assert code == EXIT_OK
        report = json.loads(out)
        assert np.isfinite(report["pi_distance"])

    def test_file_round_trip(self, capsys, tmp_path):
        rho = qstate.werner_state(0.3)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(qstate.state_to_json(rho)))
        code, out, _ = run(capsys, "analyze", f"file:{path}")
        assert code == EXIT_OK
        direct = json.loads(run(capsys, "analyze", "werner:0.3")[1])
        via_file = json.loads(out)
        assert via_file["measures"] == direct["measures"]
        assert via_file["ppt_min_eig"] == direct["ppt_min_eig"]

    def test_file_with_nan_entry(self, capsys, tmp_path):
        obj = qstate.state_to_json(qstate.werner_state(0.3))
        obj["matrix"]["re"][5] = float("nan")
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "analyze", f"file:{path}")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "non-finite entries" in err

    def test_lp_failure_is_numeric_error(self, capsys, monkeypatch):
        failed = SimpleNamespace(status=4, message="numerical difficulties")
        monkeypatch.setattr(comgeo, "linprog", lambda *args, **kwargs: failed)
        code, out, err = run(capsys, "analyze", "prbox")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "LP failed" in err

    @pytest.mark.parametrize("expr", ["bell:phi+", "werner:0.5"])
    def test_singleton_report_needs_no_lp(self, capsys, monkeypatch, expr):
        # both hulls of the singleton test have one vertex, where the nearest
        # vertex is the exact distance, so no LP is solved
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(comgeo, "linprog", no_lp)
        code, out, _ = run(capsys, "analyze", expr)
        assert code == EXIT_OK
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["css_singleton"] is verdicts["product"] is False


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

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "werner", "--start", "0.9", "--stop", "0.1")
        assert code == EXIT_PARSE
        assert "grid" in err


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

    def test_gbit_pair_golden_output(self, capsys):
        # pins the vertex values and the order of max_vertices_outside_min
        code, out, _ = run(capsys, "tensor", "gbit", "gbit")
        assert code == EXIT_OK
        assert out == GOLDEN_TENSOR.read_text()

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

    def test_unbounded_constraints_are_numeric_error(self, capsys, monkeypatch):
        unbounded = comgeo.HPolytope(3, [[1, 0, 0]], [0], [[0, 0, 1]], [1])
        monkeypatch.setattr(comgeo, "max_tensor_constraints", lambda a, b: unbounded)
        code, _, err = run(capsys, "tensor", "gbit", "gbit", "--which", "max")
        assert code == EXIT_NUMERIC
        assert "unbounded" in err


class TestCssCheck:
    def _write(self, tmp_path, polytope):
        path = tmp_path / "polytope.json"
        path.write_text(json.dumps(invsep.state_polytope_to_json(polytope)))
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

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "css-check", str(path))
        assert code == EXIT_PARSE
        assert "junk.json" in err
