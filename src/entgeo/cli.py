"""Command-line front-end: analyze states, sweep families, compare tensor
products, check fixed-point witnesses.

Exit codes: 0 success, 2 expression/file parse error (and a ``--tol`` that
is negative or not finite), 3 numerical validation failure, 4 size cap
exceeded.  ``analyze file:`` and ``css-check`` read JSON through one
``_read_json``, so an unreadable file, invalid JSON or UTF-8 and a
malformed object exit 2 under both.  A GPT state outside the maximal tensor
product exits 3 (``comgeo.gpt_marginals`` checks it), so the GPT report of
``analyze prbox`` prints ``"max_tensor_member": true`` whenever it runs.
The size caps are checked before anything is allocated:

- ``sweep --steps`` at most ``SWEEP_STEPS_CAP``;
- ``analyze random:AxB`` with A*B at most ``RANDOM_DIM_CAP`` and
  ``rank`` at most ``RANDOM_DIM_CAP``;
- ``analyze file:`` with dim_a * dim_b at most ``RANDOM_DIM_CAP``, read off
  the file's split before its matrix;
- ``css-check`` with at most ``CSS_VERTEX_CAP`` vertices and dim_a * dim_b
  at most ``RANDOM_DIM_CAP``;
- ``tensor`` with dim_a * dim_b at most ``TENSOR_DIM_CAP``, and at most
  ``comgeo.ENUM_DIM_CAP`` when the maximal tensor product is enumerated;
  each dimension is read off its model expression (n for classical:n, 3
  for gbit).

All output is deterministic for a fixed invocation; floats are serialized
with their shortest round-trip representation.  A quantum report computes
pi(rho) - rho and the partial-transpose spectrum once per state and derives
every measure and verdict from them.  ``sweep werner`` calls the same
functions once per block of ``SWEEP_BLOCK`` grid states, on one stack from
``werner_state``; each row is bit-identical to the per-state computation.

``main`` parses with one parser per process, built on its first call
(``build_parser`` is cached); argparse keeps no state between parses, so
no option value carries over from one call to the next.

The tolerance behind each verdict (the table is in ``matcore``):

- ``product``: ||pi(rho) - rho||_F <= ``--tol``;
- ``css_singleton``: the largest real or imaginary part of pi(rho) - rho,
  in modulus (in ``matcore.real_coords``, where ``invsep.is_css`` compares
  hulls), <= max(``--tol``, ``CSS_TOL``), so under ``--tol 0`` a 1x4
  state whose delta is 2e-16 reads ``"product": false, "css_singleton": true``;
- ``ppt``: the least eigenvalue of the partial transpose against
  ``VALID_TOL``, whatever ``--tol`` is;
- ``max_tensor_member`` and its marginals, ``gpt_membership``, the
  ``tensor`` membership checks and ``css-check``: ``--tol``.  A verdict an
  LP decides at a ``--tol`` below 10 * ``LP_TOL`` is at the solver's
  resolution; an exact member (``comgeo._prove``) is "in" at ``--tol 0``
  without an LP, as the PR box's marginals are.

``css-check`` reports the largest hull distance between a polytope and its
image under ``lambda_tau``, both ways; ``comgeo.max_hull_distance`` solves
an LP only at the points that may hold it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import comgeo, invsep, qstate
from .matcore import CSS_TOL, DECISION_TOL, DimSplit, real_coords, split_from_json

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4

SWEEP_STEPS_CAP = 100_000
SWEEP_BLOCK = 1024  # grid points per stacked pass, so a cap-sized sweep stays small
RANDOM_DIM_CAP = 64  # side of every state's density matrix, and the Ginibre rank
TENSOR_DIM_CAP = 64  # dim_a * dim_b of a tensor model pair
CSS_VERTEX_CAP = 64  # lambda_tau of k vertices has up to k * k


class ExprError(ValueError):
    """Bad state/model expression or input file."""


class CapError(ValueError):
    """Instance exceeds a documented size cap."""


# ---------------------------------------------------------------------------
# Expression parsing


def parse_state_expr(text: str):
    """Parse a state expression to a DensityMatrix or a (BilinearState, models) pair.

    Grammar: "bell:phi+|phi-|psi+|psi-", "werner:P", "random:AxB:seed=N"
    (pure), "random:AxB:rank=R:seed=N" (mixed), "file:PATH", "prbox".
    """
    parts = text.split(":")
    head = parts[0]
    if head == "bell":
        if len(parts) != 2 or parts[1] not in qstate.BELL_KINDS:
            raise ExprError(
                f"bad bell expression {text!r}: expected bell:KIND with KIND in "
                f"{'/'.join(qstate.BELL_KINDS)}"
            )
        return qstate.bell_state(parts[1])
    if head == "werner":
        if len(parts) != 2:
            raise ExprError(f"bad werner expression {text!r}: expected werner:P")
        try:
            p = float(parts[1])
        except ValueError:
            raise ExprError(
                f"bad werner parameter {parts[1]!r} at position {len(head) + 1}"
            ) from None
        try:
            return qstate.werner_state(p)
        except ValueError as exc:
            raise ExprError(str(exc)) from None
    if head == "random":
        return _parse_random(text, parts)
    if head == "file":
        path = text[len("file:"):]
        if not path:
            raise ExprError("empty path in file: expression")
        state = _read_json(path, "state", _capped_state)
        if isinstance(state, qstate.PureState):
            state = qstate.density_from_pure(state)
        return state
    if head == "prbox":
        gbit = comgeo.gbit_model()
        return (comgeo.pr_box(), gbit, gbit)
    raise ExprError(f"unknown state expression {text!r}")


def _read_json(path: str, what: str, parse):
    """``parse`` of the JSON value in the file at ``path``; an unreadable file,
    invalid JSON or UTF-8 and a TypeError or KeyError of ``parse`` exit 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ExprError(f"cannot read {what} file {path!r}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ExprError(f"invalid JSON in {path!r}: {exc}") from None
    try:
        return parse(obj)
    except (TypeError, KeyError) as exc:
        raise ExprError(f"malformed {what} in {path!r}: {exc}") from None


def _check_dim_cap(split: DimSplit, what: str) -> None:
    """CapError if the state side dim_a * dim_b exceeds ``RANDOM_DIM_CAP``."""
    if split.dim > RANDOM_DIM_CAP:
        raise CapError(
            f"{what} dimension {split.dim_a}x{split.dim_b} = {split.dim} "
            f"exceeds the cap of {RANDOM_DIM_CAP}"
        )


def _capped_state(obj):
    """The state of a JSON value, its split cap checked before its matrix is read."""
    _check_dim_cap(split_from_json(obj), "state")
    return qstate.state_from_json(obj)


def _parse_random(text: str, parts: list[str]):
    if len(parts) < 3:
        raise ExprError(f"bad random expression {text!r}: expected random:AxB:seed=N")
    try:
        # a count of parts other than two fails the unpacking
        dim_a, dim_b = map(int, parts[1].split("x"))
        split = DimSplit(dim_a, dim_b)
    except ValueError:
        raise ExprError(
            f"bad dimension spec {parts[1]!r} at position {len(parts[0]) + 1}"
        ) from None
    _check_dim_cap(split, "random state")
    opts = {}
    for chunk in parts[2:]:
        if "=" not in chunk:
            raise ExprError(f"bad option {chunk!r} in {text!r}")
        key, val = chunk.split("=", 1)
        if key in opts:
            raise ExprError(f"option {key!r} given twice in {text!r}")
        try:
            opts[key] = int(val)
        except ValueError:
            raise ExprError(f"bad integer {val!r} for option {key!r}") from None
    unknown = set(opts) - {"seed", "rank"}
    if unknown:
        raise ExprError(f"unknown options {sorted(unknown)} in {text!r}")
    seed = opts.get("seed", 0)
    if seed < 0:
        raise ExprError(f"option 'seed' must be a non-negative integer, got {seed}")
    if "rank" in opts:
        rank = opts["rank"]
        if rank < 1:
            raise ExprError(f"option 'rank' must be >= 1, got {rank}")
        if rank > RANDOM_DIM_CAP:
            raise CapError(f"option 'rank' = {rank} exceeds the cap of {RANDOM_DIM_CAP}")
        return qstate.random_mixed(split, rank, seed)
    return qstate.density_from_pure(qstate.random_pure(split, seed))


def _model_dim(text: str) -> int:
    """The ambient dimension a model expression names, read before any model
    is built: n for "classical:n", 3 for "gbit"."""
    parts = text.split(":")
    if parts[0] == "classical":
        if len(parts) != 2:
            raise ExprError(f"bad model expression {text!r}: expected classical:n")
        try:
            n = int(parts[1])
        except ValueError:
            raise ExprError(f"bad integer {parts[1]!r} in {text!r}") from None
        if n < 2:
            raise ExprError(f"classical model needs n >= 2, got {n}")
        return n
    if text == "gbit":
        return 3
    raise ExprError(f"unknown model expression {text!r}")


def parse_model_expr(text: str) -> comgeo.ComModel:
    """Parse a model expression: "classical:n" or "gbit"."""
    n = _model_dim(text)
    return comgeo.gbit_model() if text == "gbit" else comgeo.classical_model(n)


# ---------------------------------------------------------------------------
# Commands


_SM_CONFIGS = {
    "sm_frobenius": invsep.MeasureConfig("identity", "frobenius"),
    "sm_trace": invsep.MeasureConfig("identity", "trace"),
}


def _measure_values(delta, f_kind: str = "identity", norm_kind: str = "frobenius") -> dict:
    """The standard measures of delta = pi(rho) - rho, plus the chosen one."""
    out = {key: invsep.measure_of_delta(delta, cfg) for key, cfg in _SM_CONFIGS.items()}
    key = f"{f_kind}_{norm_kind}"
    if key not in ("identity_frobenius", "identity_trace"):
        out[key] = invsep.measure_of_delta(delta, invsep.MeasureConfig(f_kind, norm_kind))
    return out


def _quantum_report(rho, expr: str, tol: float, f_kind: str, norm_kind: str) -> dict:
    ma, mb = qstate.marginals(rho)
    delta = invsep.pi_delta(rho)
    measures = _measure_values(delta, f_kind, norm_kind)
    # the Frobenius norm of the delta is pi_distance, and is_product compares it
    pi_dist = measures["sm_frobenius"]
    ppt_min = invsep.ppt_min_eigenvalue(rho)
    return {
        "input": expr,
        "dim_a": rho.split.dim_a,
        "dim_b": rho.split.dim_b,
        "marginal_purity_a": qstate.purity(ma),
        "marginal_purity_b": qstate.purity(mb),
        "pi_distance": pi_dist,
        "measures": measures,
        "ppt_min_eig": ppt_min,
        "verdicts": {
            "product": pi_dist <= tol,
            "css_singleton": float(np.abs(real_coords(delta[None])).max()) <= max(tol, CSS_TOL),
            "ppt": invsep.ppt_verdict_from_eigenvalue(ppt_min, rho.split),
        },
    }


def _gpt_report(phi, a, b, expr: str, tol: float) -> dict:
    oa, ob = comgeo.gpt_marginals(phi, a, b, tol)
    dist, cert = comgeo.distance_and_hyperplane(phi.vector(), comgeo.min_tensor(a, b))
    separable = dist <= tol
    report = {
        "input": expr,
        "max_tensor_member": True,
        "marginal_a": list(oa),
        "marginal_b": list(ob),
        "min_tensor_distance": dist,
        "verdicts": {"gpt_membership": "separable" if separable else "entangled"},
    }
    if not separable:
        hvec, c, gap = cert
        report["infeasibility_certificate"] = {
            "hyperplane": list(hvec),
            "offset": c,
            "gap": gap,
        }
    return report


def cmd_analyze(args) -> int:
    parsed = parse_state_expr(args.expr)
    if isinstance(parsed, tuple):
        report = _gpt_report(*parsed, args.expr, args.tol)
    else:
        report = _quantum_report(parsed, args.expr, args.tol, args.f_kind, args.norm)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.family != "werner":
        raise ExprError(f"unknown sweep family {args.family!r}")
    if args.steps > SWEEP_STEPS_CAP:
        raise CapError(f"--steps {args.steps} exceeds the cap of {SWEEP_STEPS_CAP}")
    if not (0.0 <= args.start <= args.stop <= 1.0) or args.steps < 2:
        raise ExprError(
            f"bad grid start={args.start} stop={args.stop} steps={args.steps}: "
            "need 0 <= start <= stop <= 1 and steps >= 2"
        )
    grid = np.linspace(args.start, args.stop, args.steps)
    lines = ["p,sm_frobenius,sm_trace,ppt_min_eig,verdict"]
    for lo in range(0, len(grid), SWEEP_BLOCK):
        lines += _werner_rows(grid[lo:lo + SWEEP_BLOCK].tolist())
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _werner_rows(ps: list[float]) -> list[str]:
    """The sweep's CSV rows for the Werner states at ps, in one stacked pass:
    one call each of ``werner_state``, ``pi_delta``, ``_measure_values``,
    ``ppt_min_eigenvalue`` and ``ppt_verdict_from_eigenvalue`` on the stack."""
    rho = qstate.werner_state(ps)
    sm = _measure_values(invsep.pi_delta(rho))
    ppt = invsep.ppt_min_eigenvalue(rho)
    cols = sm["sm_frobenius"].tolist(), sm["sm_trace"].tolist(), ppt.tolist()
    verdicts = invsep.ppt_verdict_from_eigenvalue(ppt, rho.split).tolist()
    return [f"{p!r},{fro!r},{tr!r},{eig!r},{v}" for p, fro, tr, eig, v in zip(ps, *cols, verdicts)]


def cmd_tensor(args) -> int:
    dim = _model_dim(args.model_a) * _model_dim(args.model_b)
    if dim > TENSOR_DIM_CAP:
        raise CapError(f"composite dimension {dim} exceeds the cap of {TENSOR_DIM_CAP}")
    if args.which in ("max", "both") and dim > comgeo.ENUM_DIM_CAP:
        raise CapError(
            f"maximal tensor enumeration needs ambient dim <= {comgeo.ENUM_DIM_CAP}, got {dim}"
        )
    a = parse_model_expr(args.model_a)
    b = parse_model_expr(args.model_b)
    summary = {"model_a": args.model_a, "model_b": args.model_b, "which": args.which}
    omin = comgeo.min_tensor(a, b) if args.which in ("min", "both") else None
    if omin is not None:
        summary["min_vertices"] = len(omin.vertices)
    if args.which in ("max", "both"):
        h = comgeo.max_tensor_constraints(a, b)
        omax = comgeo.enumerate_max_vertices(h)
        summary["max_vertices"] = len(omax.vertices)
        if omin is not None:
            inside = comgeo.hull_membership(omax.vertices, omin, args.tol)
            outside = [list(v) for v in omax.vertices[~inside]]
            summary["equal"] = not outside and bool(
                comgeo.hull_membership(omin.vertices, omax, args.tol).all()
            )
            summary["max_vertices_outside_min"] = outside
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _capped_polytope(obj) -> invsep.StatePolytope:
    """The state polytope of a JSON value, its vertex and split caps checked first."""
    verts = obj.get("vertices") if isinstance(obj, dict) else None
    if isinstance(verts, list) and len(verts) > CSS_VERTEX_CAP:
        raise CapError(
            f"state polytope has {len(verts)} vertices, over the cap of {CSS_VERTEX_CAP}"
        )
    _check_dim_cap(split_from_json(obj), "state polytope")
    return invsep.state_polytope_from_json(obj)


def cmd_css_check(args) -> int:
    c = _read_json(args.polytope_file, "state polytope", _capped_polytope)
    image = invsep.lambda_tau(c)
    cf, imf = c.flat(), image.flat()
    worst = comgeo.max_hull_distance([(imf, cf), (cf, imf)])
    print(json.dumps({"css": worst <= args.tol, "distance_summary": worst}, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on the first call and then reused."""
    ap = argparse.ArgumentParser(
        prog="entgeo", description="geometric entanglement toolkit"
    )
    ap.add_argument(
        "--tol", type=_tolerance, default=DECISION_TOL, help="decision tolerance (finite, >= 0)"
    )
    ap.add_argument(
        "--f-kind",
        choices=invsep.F_KINDS,
        default="identity",
        help="entrywise/matrix function applied before the norm",
    )
    ap.add_argument(
        "--norm",
        choices=invsep.NORM_KINDS,
        default="frobenius",
        help="norm used by the measure",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one state")
    p.add_argument("expr", help="state expression, e.g. bell:phi+ or werner:0.35")
    p.set_defaults(fn="cmd_analyze")

    p = sub.add_parser("sweep", help="parameter sweep over a state family (CSV)")
    p.add_argument("family", help="family name (werner)")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument(
        "--steps", type=int, default=101, help=f"grid points, 2..{SWEEP_STEPS_CAP}"
    )
    p.set_defaults(fn="cmd_sweep")

    p = sub.add_parser("tensor", help="compare minimal/maximal tensor products")
    p.add_argument("model_a", help="model expression, e.g. classical:2 or gbit")
    p.add_argument("model_b")
    p.add_argument("--which", choices=("min", "max", "both"), default="both")
    p.set_defaults(fn="cmd_tensor")

    p = sub.add_parser("css-check", help="fixed-point check of a state polytope file")
    p.add_argument("polytope_file")
    p.set_defaults(fn="cmd_css_check")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name when it runs, not bound when the parser was built, so
    # a wrapper set on the module attribute afterwards is the one called
    command = globals()[args.fn]
    try:
        return command(args)
    except ExprError as exc:
        print(f"entgeo: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapError as exc:
        print(f"entgeo: size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, KeyError) as exc:
        print(f"entgeo: validation error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RuntimeError as exc:
        print(f"entgeo: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
