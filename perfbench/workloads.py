"""The three workloads: seeded inputs, the timed calls into entgeo, and the
checks of their outputs.

A workload is a fixed list of items made of a few groups with the same
composition of item kinds; only the random inputs differ between groups
and seeds, so that runs on different seeds measure the same mix of work.
The list is sized so that a run goes over it several times.  The program is
always called through module attributes (``invsep.lambda_tau``, not a bound
name) so that the tracer's wrappers see every call.

An item is ``run`` (the timed program calls, returning their outputs) and
``check`` (untimed; returns None or a description of what is wrong).
Checks recompute expected values with ``reference`` and never call entgeo.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from entgeo import cli, comgeo, invsep
from entgeo.matcore import DimSplit

TWO_QUBITS = DimSplit(2, 2)
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    items: list  # list[Item], the measured items in order
    warmup: list  # list[Item], run once during set-up


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list) -> CliResult:
    """``cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_json(res: CliResult):
    if res.code != 0:
        raise ValueError(f"exit code {res.code}: {res.err.strip()[:200]}")
    return json.loads(res.out)


def _close(name: str, got, want, tol: float = MATCH_TOL) -> "str | None":
    if abs(float(got) - float(want)) > tol:
        return f"{name} = {got!r}, expected {want!r}"
    return None


def _first(problems) -> "str | None":
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------------------
# fixed_point: invsep on random state polytopes (test_06 shape) and product
# decompositions (test_07 shape), 2x2 split.


def _polytope_run(verts: tuple):
    c = invsep.StatePolytope(verts, TWO_QUBITS)
    lt = invsep.lambda_tau(c)
    return lt, invsep.is_css(lt), invsep.is_css(c)


def _polytope_check(verts: tuple, out) -> "str | None":
    lt, lt_fixed, c_fixed = out
    if not lt_fixed:
        return "is_css(lambda_tau(c)) is False"
    if c_fixed:
        return "is_css(c) is True for a generic polytope"
    # lambda_tau(c) is the hull of the products of the marginal vertices;
    # generic marginals are all extreme, so its vertices are exactly the
    # k * k products (Namioka-Phelps).
    margs_a = [ref.ptrace(v, 2, 2, "a") for v in verts]
    margs_b = [ref.ptrace(v, 2, 2, "b") for v in verts]
    want = np.array([np.kron(a, b) for a in margs_a for b in margs_b])
    if not ref.match_rows(np.array(lt.vertices), want, 1e-8):
        return f"lambda_tau(c) has {len(lt.vertices)} vertices, not the {len(want)} marginal products"
    return None


def _witness_run(terms: tuple):
    d = invsep.Decomposition(terms, TWO_QUBITS)
    witness = invsep.css_from_decomposition(d)
    x = invsep.flatten_matrix(d.state().mat)
    dist, lam = comgeo.hull_distance(x, witness.flat())
    return witness, dist, lam, invsep.is_css(witness)


def _witness_check(terms: tuple, out) -> "str | None":
    witness, dist, lam, fixed = out
    state = sum(p * np.kron(a, b) for p, a, b in terms)
    want = np.array([np.kron(a, b) for _, a, _ in terms for _, _, b in terms])
    verts = np.array(witness.vertices)
    recon = np.tensordot(lam, verts, axes=1)
    return _first(
        [
            None if fixed else "is_css(witness) is False",
            None if dist <= 1e-8 else f"hull distance {dist:.3e} > 1e-8",
            None if lam.min() >= -1e-9 else f"negative weight {lam.min():.3e}",
            _close("sum of weights", lam.sum(), 1.0),
            None
            if np.max(np.abs(recon - state)) <= 1e-8
            else "hull weights do not rebuild the decomposed state",
            None
            if ref.match_rows(verts, want, 1e-8)
            else f"witness has {len(verts)} vertices, not the {len(want)} cross products",
        ]
    )


def _polytope_item(verts: tuple) -> Item:
    return Item(
        f"polytope_k{len(verts)}", partial(_polytope_run, verts), partial(_polytope_check, verts)
    )


def _witness_item(terms: tuple) -> Item:
    return Item(
        f"witness_{len(terms)}", partial(_witness_run, terms), partial(_witness_check, terms)
    )


def _random_terms(rng: np.random.Generator, k: int) -> tuple:
    weights = rng.dirichlet(np.ones(k))
    return tuple(
        (float(w), ref.random_density(rng, 2, 2), ref.random_density(rng, 2, 2))
        for w in weights
    )


def fixed_point(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(6):
        items += [
            _polytope_item(tuple(ref.random_density(rng, 4, 4) for _ in range(k)))
            for k in (2, 3, 4)
        ]
        items += [_witness_item(_random_terms(rng, k)) for k in (1, 2, 3, 4)]
    warm = np.random.default_rng((seed, 1))
    warmup = [
        _polytope_item(tuple(ref.random_density(warm, 4, 4) for _ in range(2))),
        _witness_item(_random_terms(warm, 1)),
    ]
    return Workload(items, warmup)


# ---------------------------------------------------------------------------
# quantum_reports: `entgeo analyze` and `entgeo sweep` through cli.main.

SPLITS = ((2, 2), (2, 3), (3, 3), (4, 4))
ANALYZE_TOL = 1e-9  # the CLI's default --tol
GOLDEN_SWEEP = Path(__file__).resolve().parent.parent / "tests" / "golden" / "werner_sweep.csv"


def _analyze_check(rho: np.ndarray, da: int, db: int, res: CliResult) -> "str | None":
    got = _cli_json(res)
    want = ref.analyze_expected(rho, da, db, ANALYZE_TOL)
    got_flat = dict(got, **got["measures"], **got["verdicts"])
    problems = []
    for key, value in want.items():
        if isinstance(value, (bool, str)) or key.startswith("dim_"):
            if got_flat[key] != value:
                problems.append(f"{key} = {got_flat[key]!r}, expected {value!r}")
        else:
            problems.append(_close(key, got_flat[key], value))
    return _first(problems)


def _analyze_item(kind: str, expr: str, rho: np.ndarray, da: int, db: int) -> Item:
    return Item(
        kind,
        partial(run_cli, ["analyze", expr]),
        partial(_analyze_check, rho, da, db),
    )


def _sweep_check(golden: str, res: CliResult) -> "str | None":
    if res.code != 0:
        return f"exit code {res.code}"
    return None if res.out == golden else "sweep output differs from the golden CSV"


def _werner_parameter(rng: np.random.Generator) -> float:
    # keep clear of the PPT threshold p = 1/3, where the verdict flips
    while True:
        p = float(rng.uniform(0.0, 1.0))
        if abs(p - 1.0 / 3.0) > 0.02:
            return p


def quantum_reports(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    golden = GOLDEN_SWEEP.read_text()
    sweep = Item("sweep", partial(run_cli, ["sweep", "werner"]), partial(_sweep_check, golden))
    items = []
    for _ in range(8):
        for da, db in SPLITS:
            dim = da * db
            s = int(rng.integers(0, 2**31))
            items.append(
                _analyze_item(
                    f"pure_{da}x{db}", f"random:{da}x{db}:seed={s}",
                    ref.pure_from_seed(dim, s), da, db,
                )
            )
            s, rank = int(rng.integers(0, 2**31)), int(rng.integers(2, dim + 1))
            items.append(
                _analyze_item(
                    f"mixed_{da}x{db}", f"random:{da}x{db}:rank={rank}:seed={s}",
                    ref.mixed_from_seed(dim, rank, s), da, db,
                )
            )
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            items.append(_analyze_item("bell", f"bell:{kind}", ref.bell(kind), 2, 2))
        for _ in range(4):
            p = _werner_parameter(rng)
            items.append(_analyze_item("werner", f"werner:{p!r}", ref.werner(p), 2, 2))
        items.append(sweep)
    warmup = [
        _analyze_item("bell", "bell:phi+", ref.bell("phi+"), 2, 2),
        _analyze_item("pure_2x2", "random:2x2:seed=0", ref.pure_from_seed(4, 0), 2, 2),
        sweep,
    ]
    return Workload(items, warmup)


# ---------------------------------------------------------------------------
# gpt_composites: tensor-product comparison, the PR box, classical
# invariance and noisy-PR-box separability.

# (model_a, model_b, min vertices, max vertices, max vertices outside min)
TENSOR_FACTS = (
    ("classical:2", "classical:2", 4, 4, 0),
    ("classical:2", "gbit", 8, 8, 0),
    ("gbit", "gbit", 16, 24, 8),
    ("classical:2", "classical:3", 6, 6, 0),
)
INVARIANCE_PAIRS = ((2, 2), (2, 3), (3, 3), (4, 4))


def _tensor_check(n_min: int, n_max: int, n_out: int, res: CliResult) -> "str | None":
    got = _cli_json(res)
    outside = np.array(got["max_vertices_outside_min"], dtype=float)
    problems = [
        None if got["min_vertices"] == n_min else f"min_vertices = {got['min_vertices']}, expected {n_min}",
        None if got["max_vertices"] == n_max else f"max_vertices = {got['max_vertices']}, expected {n_max}",
        None if got["equal"] == (n_min == n_max) else f"equal = {got['equal']}",
        None if len(outside) == n_out else f"{len(outside)} max vertices outside min, expected {n_out}",
    ]
    # the box-world extras are PR-type boxes: in the maximal tensor product
    # with uniform marginals
    for x in outside:
        m = x.reshape(3, 3)
        if not ref.gbit_pair_in_max_tensor(m, MATCH_TOL):
            problems.append("an outside vertex leaves the maximal tensor product")
        elif np.max(np.abs(m @ ref.GBIT_UNIT - [0.5, 0.5, 1.0])) > MATCH_TOL:
            problems.append("an outside vertex has a non-uniform marginal")
    return _first(problems)


def _prbox_check(res: CliResult) -> "str | None":
    got = _cli_json(res)
    if not got.get("max_tensor_member") or got["verdicts"]["gpt_membership"] != "entangled":
        return "PR box not reported as an entangled member of the maximal tensor product"
    cert = got["infeasibility_certificate"]
    h, c, gap = np.array(cert["hyperplane"]), cert["offset"], cert["gap"]
    x = ref.PR_BOX.ravel()
    return _first(
        [
            None if gap > 1e-6 else f"certificate gap {gap!r} not positive",
            _close("certificate gap", h @ x - c, gap),
            None
            if np.max(ref.gbit_products() @ h) <= c + MATCH_TOL
            else "hyperplane cuts a product state",
            None if np.max(np.abs(h)) <= 1 + MATCH_TOL else "hyperplane not normalized",
            None if got["min_tensor_distance"] > 1e-6 else "PR box at distance 0 from products",
            None
            if np.allclose(got["marginal_a"], [0.5, 0.5, 1.0], atol=MATCH_TOL, rtol=0)
            and np.allclose(got["marginal_b"], [0.5, 0.5, 1.0], atol=MATCH_TOL, rtol=0)
            else "PR box marginals are not uniform",
        ]
    )


def _invariance_run(n_a: int, n_b: int) -> bool:
    return invsep.classical_invariance_check(n_a, n_b)


def _noisy_prbox_run(v: float) -> bool:
    gbit = comgeo.gbit_model()
    phi = comgeo.BilinearState(v * ref.PR_BOX + (1.0 - v) * ref.UNIFORM_PRODUCT)
    return invsep.gpt_separable(phi, gbit, gbit)


def _expect(value, out) -> "str | None":
    return None if out == value else f"got {out!r}, expected {value!r}"


def _tensor_item(a: str, b: str, n_min: int, n_max: int, n_out: int) -> Item:
    return Item(
        f"tensor_{a}_{b}",
        partial(run_cli, ["tensor", a, b]),
        partial(_tensor_check, n_min, n_max, n_out),
    )


def _invariance_item(n_a: int, n_b: int) -> Item:
    return Item(
        f"invariance_{n_a}x{n_b}", partial(_invariance_run, n_a, n_b), partial(_expect, True)
    )


def _noisy_prbox_item(v: float) -> Item:
    # v PR + (1 - v) uniform is separable iff v <= 1/2
    return Item("noisy_prbox", partial(_noisy_prbox_run, v), partial(_expect, v <= 0.5))


def gpt_composites(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    prbox = Item("prbox", partial(run_cli, ["analyze", "prbox"]), _prbox_check)
    fixed = [_tensor_item(*facts) for facts in TENSOR_FACTS]
    fixed += [prbox] + [_invariance_item(*pair) for pair in INVARIANCE_PAIRS]
    items = []
    for _ in range(2):
        # four noise levels on each side of the threshold, clear of v = 1/2
        vs = np.concatenate([rng.uniform(0.0, 0.48, 4), rng.uniform(0.52, 1.0, 4)])
        items += fixed + [_noisy_prbox_item(float(v)) for v in vs]
    warmup = [
        _tensor_item(*TENSOR_FACTS[0]),
        prbox,
        _invariance_item(2, 2),
        _noisy_prbox_item(0.25),
    ]
    return Workload(items, warmup)


WORKLOADS = {
    "fixed_point": fixed_point,
    "quantum_reports": quantum_reports,
    "gpt_composites": gpt_composites,
}
