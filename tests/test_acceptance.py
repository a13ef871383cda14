"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
All ensembles are seeded and bit-reproducible.
"""

from pathlib import Path

import numpy as np

from entgeo import cli, comgeo, invsep, matcore, qstate
from entgeo.comgeo import gbit_model, pr_box
from entgeo.invsep import Decomposition, MeasureConfig, StatePolytope
from entgeo.matcore import DimSplit
from entgeo.qstate import DensityMatrix

TWO_QUBITS = DimSplit(2, 2)
GOLDEN = Path(__file__).parent / "golden" / "werner_sweep.csv"


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_product_state(seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        mats.append(m / np.trace(m).real)
    return DensityMatrix(matcore.kron(mats[0], mats[1]), TWO_QUBITS)


def test_01_pi_idempotence():
    worst = 0.0
    for seed in range(1000):
        rho = qstate.random_mixed(TWO_QUBITS, 1 + seed % 4, seed=seed)
        once = qstate.pi_map(rho)
        twice = qstate.pi_map(once)
        worst = max(worst, matcore.norm(twice.mat - once.mat, "frobenius"))
    report(
        "1 marginal-product map idempotent on 1000 random states",
        worst <= 1e-12,
        f"max residual {worst:.2e}",
    )


def test_02_product_fixed_point():
    worst_prod = max(
        invsep.g_measure(random_product_state(seed)) for seed in range(500)
    )
    entangled = []
    seed = 0
    while len(entangled) < 500:
        rho = qstate.random_mixed(TWO_QUBITS, 1 + seed % 2, seed=seed)
        seed += 1
        if invsep.ppt_min_eigenvalue(rho) < -1e-10:
            entangled.append(invsep.g_measure(rho))
    report(
        "2 measure vanishes on products, positive on entangled states",
        worst_prod <= 1e-12 and min(entangled) > 1e-6,
        f"max product {worst_prod:.2e}, min entangled {min(entangled):.2e}",
    )


def test_03_bell_measure():
    got = invsep.g_measure(
        qstate.bell_state("phi+"), MeasureConfig("identity", "frobenius")
    )
    err = abs(got - np.sqrt(3) / 2)
    report("3 Bell-state measure equals sqrt(3)/2", err <= 1e-9, f"error {err:.2e}")


def test_04_werner_ppt_threshold():
    grid = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    signs = []
    for p in grid:
        got = invsep.ppt_min_eigenvalue(qstate.werner_state(float(p)))
        worst = max(worst, abs(got - (1 - 3 * p) / 4))
        signs.append(got < 0)
    flips = [
        (grid[i], grid[i + 1])
        for i in range(len(signs) - 1)
        if signs[i] != signs[i + 1]
    ]
    brackets = len(flips) == 1 and flips[0][0] <= 1 / 3 <= flips[0][1]
    report(
        "4 Werner partial-transpose eigenvalue matches (1-3p)/4, flips at 1/3",
        worst <= 1e-9 and brackets,
        f"max error {worst:.2e}, flip {flips}",
    )


def test_05_pure_state_criterion():
    disagreements = 0
    for seed in range(500):
        if seed % 2 == 0:
            rho = qstate.density_from_pure(qstate.random_pure(TWO_QUBITS, seed))
        else:
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            rho = qstate.density_from_pure(qstate.PureState(psi, TWO_QUBITS))
        fixed = invsep.is_css(StatePolytope((rho,), TWO_QUBITS))
        marg, _ = qstate.marginals(rho)
        pure_marginal = qstate.purity(marg) >= 1 - 1e-10
        if fixed != pure_marginal:
            disagreements += 1
    report(
        "5 pure states: fixed-point criterion matches marginal purity",
        disagreements == 0,
        f"{disagreements} disagreements over 500 states",
    )


def test_06_lambda_tau_idempotence():
    failures = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        verts = tuple(
            qstate.random_mixed(TWO_QUBITS, 4, seed=10_000 + 100 * seed + j).mat
            for j in range(k)
        )
        lt = invsep.lambda_tau(StatePolytope(verts, TWO_QUBITS))
        if not invsep.is_css(lt):
            failures += 1
    report(
        "6 marginalize-and-rebuild idempotent on 200 random polytopes",
        failures == 0,
        f"{failures} failures",
    )


def test_07_witness_soundness():
    failures = 0
    worst_residual = 0.0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        k = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(k))
        terms = tuple(
            (
                w[i],
                _qubit_factor(30_000 + 10 * seed + i, 0),
                _qubit_factor(30_000 + 10 * seed + i, 1),
            )
            for i in range(k)
        )
        d = Decomposition(terms, TWO_QUBITS)
        witness = invsep.css_from_decomposition(d)
        dist, _ = comgeo.hull_distance(
            invsep.flatten_matrix(d.state().mat), witness.flat()
        )
        worst_residual = max(worst_residual, dist)
        if dist > 1e-8 or not invsep.is_css(witness):
            failures += 1
    report(
        "7 decomposition witnesses are fixed points containing their state",
        failures == 0,
        f"{failures} failures, max hull residual {worst_residual:.2e}",
    )


def _qubit_factor(seed: int, which: int) -> np.ndarray:
    rng = np.random.default_rng((seed, which))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_08_classical_collapse():
    ok = True
    for n_a, n_b in ((2, 2), (2, 3)):
        a = comgeo.classical_model(n_a)
        b = comgeo.classical_model(n_b)
        omin = comgeo.min_tensor(a, b)
        omax = comgeo.enumerate_max_vertices(comgeo.max_tensor_constraints(a, b))
        ok &= comgeo.polytope_equal(omin, omax, 1e-9)
        ok &= invsep.classical_invariance_check(n_a, n_b)
    report("8 classical composites: minimal = maximal, state space invariant", ok)


def test_09_box_world_entanglement():
    gb = gbit_model()
    in_max = comgeo.max_tensor_membership(
        pr_box(), comgeo.max_tensor_constraints(gb, gb), 1e-10
    )
    separable = invsep.gpt_separable(pr_box(), gb, gb)
    h, c, gap = comgeo.separating_hyperplane(
        pr_box().vector(), comgeo.min_tensor(gb, gb)
    )
    report(
        "9 PR box: inside maximal tensor product, certified outside products",
        in_max and not separable and gap > 1e-6,
        f"certificate gap {gap:.4f}",
    )


def test_10_local_unitary_invariance():
    worst = 0.0
    for seed in range(200):
        rho = qstate.random_mixed(TWO_QUBITS, 1 + seed % 4, seed=40_000 + seed)
        u = qstate.random_unitary(2, seed=50_000 + seed)
        v = qstate.random_unitary(2, seed=60_000 + seed)
        uv = matcore.kron(u, v)
        rot = DensityMatrix(uv @ rho.mat @ uv.conj().T, TWO_QUBITS)
        for norm_kind in ("frobenius", "trace"):
            cfg = MeasureConfig("identity", norm_kind)
            worst = max(
                worst, abs(invsep.g_measure(rho, cfg) - invsep.g_measure(rot, cfg))
            )
    report(
        "10 measure invariant under local unitaries (200 triples)",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


def test_11_marginal_mixedness():
    worst = 0.0
    checked = 0
    for seed in range(500):
        rho = qstate.density_from_pure(qstate.random_pure(TWO_QUBITS, seed))
        if invsep.ppt_verdict(rho) == "entangled":
            a, b = qstate.marginals(rho)
            worst = max(worst, qstate.purity(a), qstate.purity(b))
            checked += 1
    report(
        "11 entangled pure states have mixed marginals",
        checked > 0 and worst <= 1 - 1e-8,
        f"{checked} entangled states, max marginal purity {worst:.10f}",
    )


def test_12_cli_determinism(capsys):
    code1 = cli.main(["sweep", "werner"])
    first = capsys.readouterr().out
    code2 = cli.main(["sweep", "werner"])
    second = capsys.readouterr().out
    golden = GOLDEN.read_text()
    report(
        "12 sweep output byte-identical across runs and to the golden file",
        code1 == code2 == 0 and first == second == golden,
    )
