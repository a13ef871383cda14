"""Outside-in tracing of entgeo.

The tracer replaces the public functions of each layer module with wrappers
set as module attributes, so calls made inside a module (which resolve
names through the module's globals) are recorded too.  It also wraps the
``linprog`` name that ``comgeo`` binds and ``DensityMatrix.validate``.
Spans are kept in memory; ``summarize`` reduces one pass of spans to the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("matcore", "qstate", "comgeo", "invsep", "cli")
LP = "comgeo.linprog"
LP_SITES = ("reduce_vertices", "polytope_equal", "gpt_marginals", "separating_hyperplane")
_RAISED = object()


def _lp_info(args, res):
    return (int(res.nit), int(res.status))


def _reduce_info(args, result):
    return (len(args[0].vertices), len(result.vertices))


def _enumerate_info(args, result):
    h = args[0]
    subsystems = math.comb(len(h.ineq_normals), h.ambient_dim - len(h.eq_normals))
    return (subsystems, len(result.vertices))


# what a span records beyond its timing, for the functions that need it
_INFO = {
    LP: _lp_info,
    "comgeo.reduce_vertices": _reduce_info,
    "comgeo.enumerate_max_vertices": _enumerate_info,
}


class Tracer:
    """Span recorder over the entgeo layer modules.

    ``spans`` holds one tuple per finished call:
    (name, parent index or -1, start, end, info or None).
    """

    def __init__(self, package):
        self.spans: list = []
        self._stack: list = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self._patch(mod, attr, f"{layer}.{attr}")
        self._patch(package.comgeo, "linprog", LP)
        self._patch(package.qstate.DensityMatrix, "validate", "qstate.DensityMatrix.validate")

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = _RAISED
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                info = None
                if info_of is not None and result is not _RAISED:
                    info = info_of(args, result)
                spans[idx] = (name, parent, t0, t1, info)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the recorded spans and start an empty record."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _lp_site(spans: list, i: int) -> str:
    """The outermost comgeo public function above span i, as an LP site."""
    site = "other"
    parent = spans[i][1]
    while parent >= 0:
        name = spans[parent][0]
        if name.startswith("comgeo."):
            site = name.split(".", 1)[1]
        parent = spans[parent][1]
    return site if site in LP_SITES else "other"


def summarize(spans: list, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    layer_self: dict = defaultdict(float)
    for i, (name, _, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child[i]
        layer_self[name.split(".", 1)[0]] += t1 - t0 - child[i]

    lp = [i for i, s in enumerate(spans) if s[0] == LP]
    lp_info = [spans[i][4] for i in lp]
    sites = Counter(_lp_site(spans, i) for i in lp)
    reduce_in = sum(s[4][0] for s in spans if s[0] == "comgeo.reduce_vertices")
    reduce_kept = sum(s[4][1] for s in spans if s[0] == "comgeo.reduce_vertices")
    enum = [s[4] for s in spans if s[0] == "comgeo.enumerate_max_vertices"]
    subsystems = sum(e[0] for e in enum)

    out = {
        "comgeo.lp.solves": len(lp),
        "comgeo.lp.solve_s": total[LP],
        "comgeo.lp.iterations": sum(info[0] for info in lp_info if info),
        "comgeo.lp.failed": sum(1 for info in lp_info if info is None or info[1] != 0),
    }
    for site in LP_SITES + ("other",):
        out[f"comgeo.lp.site.{site}"] = sites[site]
    out.update(
        {
            "comgeo.hull_distance.self_s": self_s["comgeo.hull_distance"],
            "comgeo.reduce_vertices.points_in": reduce_in,
            "comgeo.reduce_vertices.kept_ratio": reduce_kept / reduce_in if reduce_in else 0.0,
            "comgeo.polytope_equal.calls": calls["comgeo.polytope_equal"],
            "comgeo.polytope_equal.self_s": self_s["comgeo.polytope_equal"],
            "comgeo.enumerate_max_vertices.subsystems": subsystems,
            "comgeo.enumerate_max_vertices.self_s": self_s["comgeo.enumerate_max_vertices"],
            "comgeo.enumerate_max_vertices.vertex_ratio": (
                sum(e[1] for e in enum) / subsystems if subsystems else 0.0
            ),
            "comgeo.dedup_rows.self_s": self_s["comgeo.dedup_rows"],
            "comgeo.min_tensor.calls": calls["comgeo.min_tensor"],
            "invsep.lambda_tau.calls": calls["invsep.lambda_tau"],
            "invsep.lambda_tau.self_s": self_s["invsep.lambda_tau"],
            "invsep.tau.self_s": self_s["invsep.tau"],
            "invsep.lambda_map.self_s": self_s["invsep.lambda_map"],
            "invsep.is_css.calls": calls["invsep.is_css"],
            "invsep.g_measure.self_s": self_s["invsep.g_measure"],
            "invsep.ppt_min_eigenvalue.self_s": self_s["invsep.ppt_min_eigenvalue"],
            "qstate.density_validations": calls["qstate.DensityMatrix.validate"],
            "qstate.density_validate_s": total["qstate.DensityMatrix.validate"],
            "qstate.pi_map.self_s": self_s["qstate.pi_map"],
            "qstate.marginals.self_s": self_s["qstate.marginals"],
            "matcore.kron.calls": calls["matcore.kron"],
            "matcore.partial_trace.calls": calls["matcore.partial_trace"],
            "matcore.hermitian_eig.calls": calls["matcore.hermitian_eig"],
            "matcore.norm.calls": calls["matcore.norm"],
            "matcore.self_s": layer_self["matcore"],
            "cli.self_s": layer_self["cli"],
            "cli.stdout_bytes": stdout_bytes,
        }
    )
    return out
