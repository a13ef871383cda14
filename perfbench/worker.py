"""One benchmark process: set up a workload, then optionally measure it.

Started by ``run.py`` in a fresh interpreter, from the checkout root.
Modes:
  setup    import entgeo, generate inputs, warm up; report the set-up time
  measure  set up, then go over the items untraced, in rounds, with a
           reference loop in between, until --seconds have passed; report
           item latencies scaled to the host's speed, and peak memory
  trace    set up, then alternate untraced and traced passes over the
           items until --seconds have passed; report per-layer metrics
           and write the first traced pass's spans to the output directory
The result is one JSON object on the last line of stdout.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import entgeo  # noqa: E402
import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

if not Path(entgeo.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"entgeo imported from {entgeo.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURE_NOTES = 5
# The reference loop's median on a 2-vCPU x86-64 virtual machine at 2.1 GHz;
# it only sets the scale of the reported times.
REFERENCE_S = 2.5e-3
REFERENCE_EVERY_S = 0.02  # one reference loop per 20 ms of item time
LOCAL_WINDOW_S = 2.0  # an execution is scaled by the reference runs this near it


class ReferenceLoop:
    """A fixed piece of work that uses no entgeo code: a hull-distance-shaped
    LP through scipy's HiGHS, a Hermitian eigensolve and a Kronecker product,
    much like the work entgeo does.  Its time tracks the speed of the host.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        n, d = 8, 16
        v = rng.standard_normal((n, d))
        x = rng.standard_normal(d)
        self.c = np.zeros(n + 1)
        self.c[-1] = 1.0
        self.a_ub = np.block([[v.T, -np.ones((d, 1))], [-v.T, -np.ones((d, 1))]])
        self.b_ub = np.concatenate([x, -x])
        self.a_eq = np.concatenate([np.ones((1, n)), np.zeros((1, 1))], axis=1)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.h = g @ g.conj().T
        self.starts: list = []
        self.times: list = []

    def run(self) -> None:
        t0 = perf_counter()
        self.starts.append(t0)
        linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub, A_eq=self.a_eq, b_eq=[1.0],
                bounds=(0, None), method="highs")
        np.linalg.eigh(self.h)
        np.kron(self.h[:4, :4], self.h[4:8, 4:8])
        self.times.append(perf_counter() - t0)


class Tally:
    """Attempted and failed item counts, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def run(self, item) -> tuple:
        """Run one item; return (program seconds, output or None, passed)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a raising item is a failed item, not a failed run
            elapsed = perf_counter() - t0
            self._fail(item, f"{type(exc).__name__}: {exc}")
            return elapsed, None, False
        elapsed = perf_counter() - t0
        try:
            problem = item.check(out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self._fail(item, problem)
        return elapsed, out, not problem

    def _fail(self, item, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{item.kind}: {note}"[:300])
            print(f"perfbench: item failed: {self.notes[-1]}", file=sys.stderr)


def tail(latencies: list) -> tuple:
    """The highest percentile with at least 10 samples above it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def latency_metrics(latencies: list, passed: int) -> dict:
    _, tail_s = tail(latencies)
    return {
        "items_per_s": passed / sum(latencies),
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        "item_tail_ms": 1000.0 * tail_s,
    }


def scaled_latencies(items, samples: dict, mids: dict, ref: ReferenceLoop) -> list:
    """Each item's median execution time, every execution scaled by
    REFERENCE_S over the reference loop's median within LOCAL_WINDOW_S of it.
    """
    latency: dict = {}
    for item in items:
        key = id(item)
        if key in latency:
            continue
        scaled = []
        for elapsed, mid in zip(samples[key], mids[key]):
            lo = bisect.bisect_left(ref.starts, mid - LOCAL_WINDOW_S)
            hi = bisect.bisect_right(ref.starts, mid + LOCAL_WINDOW_S)
            local = statistics.median(ref.times[lo:hi] or ref.times)
            scaled.append(elapsed * REFERENCE_S / local)
        latency[key] = statistics.median(scaled)
    return [latency[id(item)] for item in items]


def measure(work, seconds: float, tally: Tally) -> dict:
    """Go over the items in rounds, with the reference loop in between.

    On a shared host the speed of the CPU changes all the time: between
    levels about 1.5x apart every few tens of milliseconds, and for a
    minute or more at a time.  So every execution is scaled by the speed of
    the host around it, as the reference loop measured it, and an item's
    latency is the median of its scaled executions; a run on a slowed host
    then reads about the same as one on a quiet host.  The unscaled figures
    go into the details.
    An item object listed several times is one input: it runs once a round,
    and its latency counts once for each place it has in the list.
    """
    distinct = list({id(item): item for item in work.items}.values())
    samples: dict = {}
    mids: dict = {}
    passed: dict = {}
    by_kind: dict = {}
    ref = ReferenceLoop()
    for _ in range(20):
        ref.run()
    ref.starts.clear()
    ref.times.clear()
    owed = REFERENCE_EVERY_S  # so the reference loop also runs after the first item
    gc.collect()
    start = perf_counter()
    executions = 0
    # the first round is always whole; later ones stop when time is up
    while executions < len(distinct) or perf_counter() - start < seconds:
        item = distinct[executions % len(distinct)]
        t0 = perf_counter()
        elapsed, _, ok = tally.run(item)
        key = id(item)
        samples.setdefault(key, []).append(elapsed)
        mids.setdefault(key, []).append(t0 + elapsed / 2)
        passed[key] = passed.get(key, True) and ok
        by_kind.setdefault(item.kind, []).append(round(1000.0 * elapsed, 3))
        executions += 1
        owed += elapsed
        while owed >= REFERENCE_EVERY_S:
            ref.run()
            owed -= REFERENCE_EVERY_S
    wall = perf_counter() - start

    unscaled = [statistics.median(samples[id(item)]) for item in work.items]
    n_passed = sum(passed[id(item)] for item in work.items)
    percentile, _ = tail(unscaled)
    return {
        **latency_metrics(scaled_latencies(work.items, samples, mids, ref), n_passed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "details": {
            "items": len(unscaled),
            "distinct_items": len(distinct),
            "rounds": executions / len(distinct),
            "tail_percentile": percentile,
            "wall_s": wall,
            "reference_runs": len(ref.times),
            "reference_median_ms": 1000.0 * statistics.median(ref.times),
            "unscaled": latency_metrics(unscaled, n_passed),
            "latency_ms_by_kind": by_kind,
        },
    }


def _stdout_bytes(out) -> int:
    return len(out.out.encode()) if isinstance(out, workloads.CliResult) else 0


def trace(work, seconds: float, tally: Tally, spans_file: Path) -> dict:
    tracer = tracing.Tracer(entgeo)
    items = work.items
    untraced, traced, passes = [], [], []
    first_spans = None
    start = perf_counter()
    pair_s = 0.0
    # a pair of passes is started only if at least half of it fits, so the
    # run ends within half a pair of --seconds
    while not passes or perf_counter() - start + pair_s / 2 <= seconds:
        pair_start = perf_counter()
        gc.collect()
        untraced.append(sum(tally.run(item)[0] for item in items))
        gc.collect()
        tracer.install()
        try:
            runs = [tally.run(item) for item in items]
        finally:
            tracer.uninstall()
        traced.append(sum(elapsed for elapsed, _, _ in runs))
        spans = tracer.take()
        passes.append(tracing.summarize(spans, sum(_stdout_bytes(o) for _, o, _ in runs)))
        if first_spans is None:
            first_spans = spans
        pair_s = perf_counter() - pair_start

    # counts come from the first pass; times are medians over passes
    metrics = {}
    for key, value in passes[0].items():
        if key.endswith("_s"):
            value = statistics.median(p[key] for p in passes)
        metrics[key] = value
    metrics["trace.overhead_fraction"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    counts_repeat = all(
        p[k] == passes[0][k] for p in passes for k in p if not k.endswith(("_s", "_ratio"))
    )
    if not counts_repeat:
        print("perfbench: per-layer counts differ between traced passes", file=sys.stderr)

    names = sorted({s[0] for s in first_spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = first_spans[0][2] if first_spans else 0.0
    spans_file.write_text(
        json.dumps(
            {
                "names": names,
                "fields": ["name", "parent", "start_us", "duration_us"],
                "spans": [
                    [index[n], p, round((a - t0) * 1e6, 1), round((b - a) * 1e6, 1)]
                    for n, p, a, b, _ in first_spans
                ],
            },
            separators=(",", ":"),
        )
    )
    return {
        "metrics": metrics,
        "details": {
            "passes": len(passes),
            "items_per_pass": len(items),
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
            "counts_repeat": counts_repeat,
            "spans_per_pass": len(first_spans),
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()

    work = workloads.WORKLOADS[args.workload](args.seed)
    for item in work.warmup:
        try:
            item.run()
        except Exception as exc:  # the same kind of item fails again, counted, when measured
            print(f"perfbench: warm-up {item.kind} raised {exc!r}", file=sys.stderr)
    result = {"setup_s": perf_counter() - T_START}
    if args.mode != "setup":
        tally = Tally()
        if args.mode == "measure":
            result.update(measure(work, args.seconds, tally))
        else:
            spans_file = args.out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            result.update(trace(work, args.seconds, tally, spans_file))
        result.update(attempted=tally.attempted, failed=tally.failed, failure_notes=tally.notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
