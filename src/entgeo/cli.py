"""Command-line front-end: analyze states, sweep families, compare tensor
products, check fixed-point witnesses.

Exit codes: 0 success, 2 expression/file parse error (and a ``--tol`` that
is not a decimal literal, a negative one among them, or is not finite), 3
numerical validation failure, 4 size cap exceeded.  A command whose
stdout is closed by its reader (``entgeo ... | head``) stops writing and
exits 0, since the reader chose to stop.  Its output is flushed before
``main`` returns, so the closed pipe shows there even when stdout is
block-buffered; stdout's file descriptor then points at ``os.devnull``,
so the bytes still buffered go nowhere and the interpreter's last flush
does not fail again.  ``analyze file:`` and
``css-check`` read JSON through one ``_read_json`` and ``jsonio``'s
readers, so an unreadable file, invalid
JSON or UTF-8, nesting too deep for the decoder, an integer over Python's
4,300-digit limit or too large for a float, a matrix whose shape does not
match the split, and a malformed object exit 2 under both.  A GPT state
outside the maximal tensor product exits 3 (``comgeo.gpt_marginals``
checks it), so the GPT report of ``analyze prbox`` prints
``"max_tensor_member": true`` whenever it runs.
The size caps are checked before anything is allocated:

- ``sweep --steps`` at most ``SWEEP_STEPS_CAP``;
- ``analyze random:AxB`` with A*B at most ``RANDOM_DIM_CAP`` and
  ``rank`` at most ``RANDOM_DIM_CAP``;
- ``analyze file:`` with dim_a * dim_b at most ``RANDOM_DIM_CAP``, read off
  the file's split before its matrix;
- ``css-check`` with at most ``CSS_VERTEX_CAP`` vertices and dim_a * dim_b
  at most ``RANDOM_DIM_CAP``;
- ``tensor`` with dim_a * dim_b at most ``TENSOR_DIM_CAP``, and at most
  ``comgeo.ENUM_DIM_CAP`` when the maximal tensor product is asked for,
  whether ``comgeo.max_tensor_vertices`` settles it by theorem (a
  classical factor, whose products need no enumeration and, for two
  classical models, no scipy) or enumerates it; each dimension is read
  off its model expression (n for classical:n, 3 for gbit).

All output is deterministic for a fixed invocation; floats are serialized
with their shortest round-trip representation.  A quantum report is one
pass over its state: the marginals are computed once, and give both the
marginal purities and pi(rho) (through ``qstate.pi_map``'s product step),
and one ``matcore.hermitian_eig`` of the stack [pi(rho) - rho, rho^T_B]
gives the trace norm of the delta and the partial-transpose spectrum.
Every measure and verdict derives from that delta and that spectrum.
``sweep werner`` takes the same pass once per block of ``SWEEP_BLOCK``
grid states, on one stack from ``werner_state``, so a block of b states
is one eigensolve of 2b matrices; each row is bit-identical to the
per-state computation, and each report value to ``invsep``'s public
function for it.

The integers of an expression (A, B, ``seed`` and ``rank`` of
``random:AxB``, n of ``classical:n``) are ASCII decimal digits alone
(``_decimal``), and P of ``werner:P`` and the value of ``--tol`` are ASCII
decimal literals (``_literal``: digits with at most one point, and an
optional exponent); a sign, a space, an underscore or a digit of another
script, each of which ``int`` or ``float`` takes, is a parse error.

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
import os
import re
import sys

import numpy as np

from . import comgeo, invsep, jsonio, matcore, qstate
from .matcore import CSS_TOL, DECISION_TOL, LP_TOL, DimSplit, real_coords

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
    (pure), "random:AxB:rank=R:seed=N" (mixed), "file:PATH", "prbox"; A, B,
    N and R are ASCII decimal digits.
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
            p = _literal(parts[1])
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
    invalid JSON or UTF-8 and an integer literal over Python's digit limit
    (each a ValueError), nesting too deep for the decoder (a RecursionError),
    and a TypeError, KeyError or OverflowError (a number too large for a
    float) of ``parse`` exit 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ExprError(f"cannot read {what} file {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ExprError(f"invalid JSON in {path!r}: {exc}") from None
    try:
        return parse(obj)
    except (TypeError, KeyError, OverflowError) as exc:
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
    _check_dim_cap(jsonio.split_from_json(obj), "state")
    return jsonio.state_from_json(obj)


def _parse_random(text: str, parts: list[str]):
    if len(parts) < 3:
        raise ExprError(f"bad random expression {text!r}: expected random:AxB:seed=N")
    try:
        # a count of parts other than two fails the unpacking
        dim_a, dim_b = map(_decimal, parts[1].split("x"))
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
            opts[key] = _decimal(val)
        except ValueError:
            raise ExprError(f"bad integer {val!r} for option {key!r}") from None
    unknown = set(opts) - {"seed", "rank"}
    if unknown:
        raise ExprError(f"unknown options {sorted(unknown)} in {text!r}")
    seed = opts.get("seed", 0)
    if "rank" in opts:
        rank = opts["rank"]
        if rank < 1:
            raise ExprError(f"option 'rank' must be >= 1, got {rank}")
        if rank > RANDOM_DIM_CAP:
            raise CapError(f"option 'rank' = {rank} exceeds the cap of {RANDOM_DIM_CAP}")
        return qstate.random_mixed(split, rank, seed)
    return qstate.density_from_pure(qstate.random_pure(split, seed))


def _decimal(text: str) -> int:
    """The integer that text spells in ASCII decimal digits alone.  ValueError
    for every other spelling that ``int`` takes: a sign, a space, an
    underscore, a non-ASCII digit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


# an ASCII decimal literal: digits with at most one point, then an optional
# exponent of e or E, a sign and digits; repr of every finite float >= 0
_LITERAL = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _literal(text: str) -> float:
    """The float that text spells as an ASCII decimal literal (``_LITERAL``).
    ValueError for every other spelling that ``float`` takes: a sign, a
    space, an underscore, a non-ASCII digit, ``inf`` or ``nan``."""
    if not _LITERAL.fullmatch(text):
        raise ValueError(f"not a decimal literal: {text!r}")
    return float(text)


def _model_dim(text: str) -> int:
    """The ambient dimension a model expression names, read before any model
    is built: n for "classical:n", 3 for "gbit"."""
    parts = text.split(":")
    if parts[0] == "classical":
        if len(parts) != 2:
            raise ExprError(f"bad model expression {text!r}: expected classical:n")
        try:
            n = _decimal(parts[1])
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


def _measures(rho, delta, f_kind: str = "identity", norm_kind: str = "frobenius"):
    """The standard measures of delta = pi(rho) - rho, plus the chosen one, and
    the least eigenvalue of rho's partial transpose, for one state or a stack.

    The trace norm of delta and the PPT spectrum come from one
    ``hermitian_eig`` of the stack [delta, rho^T_B], each as ``matcore.norm``
    and ``invsep.ppt_min_eigenvalue`` compute it.  rho^T_B is as near to
    Hermitian as the valid rho is, so that call fails only on a delta
    farther than ``VALID_TOL`` from Hermitian, which only a file state near
    that limit gives; such a delta takes ``matcore.norm``'s own trace-norm
    branch instead.  (An eigensolve that does not converge raises numpy's
    LinAlgError, a ValueError too, and takes the same two separate solves.)
    """
    pt = matcore.partial_transpose(rho.mat, rho.split)
    try:
        w_delta, w_pt = matcore.hermitian_eig(np.stack([delta, pt]))[0]
        sm_trace = matcore._per_matrix(np.sum(np.abs(w_delta), axis=-1), delta)
    except ValueError:
        sm_trace = matcore.norm(delta, "trace")
        w_pt = matcore.hermitian_eig(pt)[0]
    out = {"sm_frobenius": invsep.measure_of_delta(delta), "sm_trace": sm_trace}
    key = f"{f_kind}_{norm_kind}"
    if key not in ("identity_frobenius", "identity_trace"):
        out[key] = invsep.measure_of_delta(delta, invsep.MeasureConfig(f_kind, norm_kind))
    return out, matcore._per_matrix(w_pt[..., 0], pt)


def _quantum_report(rho, expr: str, tol: float, f_kind: str, norm_kind: str) -> dict:
    ma, mb = qstate.marginals(rho)
    delta = qstate._product(ma, mb, rho.split).mat - rho.mat
    measures, ppt_min = _measures(rho, delta, f_kind, norm_kind)
    # the Frobenius norm of the delta is pi_distance, and is_product compares it
    pi_dist = measures["sm_frobenius"]
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
    answer = comgeo._answer(phi.vector(), comgeo.min_tensor(a, b))
    separable = answer.distance <= tol
    report = {
        "input": expr,
        "max_tensor_member": True,
        "marginal_a": list(oa),
        "marginal_b": list(ob),
        "min_tensor_distance": answer.distance,
        "verdicts": {"gpt_membership": "separable" if separable else "entangled"},
    }
    if not separable:
        hvec, c, gap = answer.hyperplane
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
    one call each of ``werner_state``, ``pi_delta``, ``_measures`` and
    ``ppt_verdict_from_eigenvalue`` on the stack."""
    rho = qstate.werner_state(ps)
    sm, ppt = _measures(rho, invsep.pi_delta(rho))
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
        omax = comgeo.max_tensor_vertices(a, b)
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
    _check_dim_cap(jsonio.split_from_json(obj), "state polytope")
    return jsonio.state_polytope_from_json(obj)


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
    """``--tol``: an ASCII decimal literal (``_literal``) of a finite float."""
    try:
        tol = _literal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a decimal literal >= 0, got {text!r}") from None
    if not math.isfinite(tol):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on the first call and then reused."""
    ap = argparse.ArgumentParser(
        prog="entgeo", description="geometric entanglement toolkit"
    )
    ap.add_argument(
        "--tol",
        type=_tolerance,
        default=DECISION_TOL,
        help="decision tolerance, a finite decimal literal >= 0; a verdict an LP decides at "
        f"a --tol below 10 * LP_TOL = {10 * LP_TOL!r} is at the solver's resolution",
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
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: it chose to stop, so this is success, and
        # the interpreter's last flush of the bytes still buffered must not
        # raise again (a stdout with no file descriptor has nothing to redirect)
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_OK
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_OK
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
