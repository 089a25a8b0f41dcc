"""tropmap benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed builds one round of operations (see ``workloads.py``);
the loop replays whole rounds until ``--seconds`` have passed and at least
``MIN_OPS`` operations ran, checking every answer.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Their times are scaled to a reference machine speed: between ops, every
``PROBE_EVERY_S`` seconds, the loop times a fixed stdlib computation
(:func:`probe`), and each op's time is multiplied by ``PROBE_REF_S`` over
the median of the probes within ``PROBE_WINDOW_S`` of it.  The speed of the
shared host this was tuned on drifts by a quarter over seconds, and the
probe follows it.  The unscaled figures are printed on a ``#`` line.
``--trace 1`` alternates untraced and traced rounds, checks that traced
outputs equal untraced ones, reports the per-layer metrics per op and
writes the spans to ``.perfbench-spans/<workload>.jsonl``.  The last stdout
line is the JSON result; the lines before it repeat every metric for people.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_DIR = os.path.join(ROOT, ".perfbench-spans")
MIN_OPS = 100
SETUP_REPEATS = 9
# a run stops after this many multiples of --seconds even below MIN_OPS
MAX_STRETCH = 3
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
# a typical probe time on the 2-core x86-64 VM the benchmark was tuned on
# (Python 3.11.7); scaled times read as if the machine ran the probe in this
PROBE_REF_S = 0.0018
SETUP_PROBES = 3  # before and after each set-up


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(workloads, name: str, seed: int, workdir: str):
    """Import tropmap afresh, build the round from the seed, and run the
    cheapest op of each kind once.  Returns the ops, the seconds taken, and
    those seconds scaled by the median of SETUP_PROBES probes run just
    before and just after."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    workloads.purge_tropmap()
    tm = workloads.import_tropmap()
    ops = workloads.build(name, tm, seed, workdir)
    cheapest = {}
    for op in ops:
        if op.kind not in cheapest or op.size < cheapest[op.kind].size:
            cheapest[op.kind] = op
    for op in cheapest.values():
        if not op.check(op.run()):
            raise RuntimeError(f"warm-up op {op.label} gave a wrong answer")
    took = time.perf_counter() - start
    probes += [probe() for _ in range(SETUP_PROBES)]
    return ops, took, took * PROBE_REF_S / statistics.median(probes)


def probe() -> float:
    """Seconds taken by a fixed mix of stdlib work of the kinds tropmap
    does: exact elimination of a Hilbert matrix (Fractions with growing
    numbers), a running sum of small Fractions, a search over a dict graph
    building tuples, and an int loop.  It shares no code with tropmap, so its
    time follows only the machine's speed."""
    start = time.perf_counter()
    n = 6
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(2, i % 3 + 1)
        total = Fraction(total.numerator % 97, total.denominator % 89 + 1)
    adj = {v: [(7 * v + k) % 200 for k in (1, 3, 11)] for v in range(200)}
    seen, todo = {0: None}, [0]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in seen:
                seen[w] = (v, tuple(sorted(adj[w])))
                todo.append(w)
    acc = 0
    for k in range(3000):
        acc += k * k % 7
    return time.perf_counter() - start


class Loop:
    """Closed loop over whole rounds; records per op its start, latency and
    time with the answer check, failures, and an output digest per op
    index.  With ``probing`` it also runs :func:`probe` between ops every
    ``PROBE_EVERY_S`` seconds and records (end time, seconds) of each."""

    def __init__(self, ops, tracer=None, probing=False):
        self.ops = ops
        self.tracer = tracer
        self.probing = probing
        self.probes: list[tuple[float, float]] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.iterations: list[float] = []  # latency plus answer check
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.failures: list[str] = []

    def run(self, seconds: float, min_ops: int) -> None:
        gc.collect()
        start = time.perf_counter()
        while True:
            self.run_round()
            elapsed = time.perf_counter() - start
            if elapsed >= seconds * MAX_STRETCH or (elapsed >= seconds and len(self.latencies) >= min_ops):
                return

    def run_round(self) -> None:
        for i, op in enumerate(self.ops):
            if self.probing and (not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S):
                took = probe()
                self.probes.append((time.perf_counter(), took))
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op = self.attempted
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a raising op is a failed op; keep going
                out, error = None, f"{type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - t0)
            if out is not None:
                digest = hashlib.sha256(out.encode()).hexdigest()
                if self.digests.setdefault(i, digest) != digest or not op.check(out):
                    error = "wrong answer"
            if error is not None:
                self.failed += 1
                self.failures.append(f"{op.label}: {error}")
            self.starts.append(t0)
            self.iterations.append(time.perf_counter() - t0)

    def ops_per_s(self, scales=None) -> float:
        """Completed (not failed) ops per second of the loop's time in ops
        and answer checks, each op's time multiplied by its scale if given."""
        scales = scales or [1.0] * len(self.iterations)
        return (self.attempted - self.failed) / sum(t * s for t, s in zip(self.iterations, scales))

    def scales(self) -> list[float]:
        """Per op, PROBE_REF_S over the median of the probes that ended
        within PROBE_WINDOW_S of the op.  The probe before each op ended at
        most PROBE_EVERY_S before it started, so no window is empty."""
        ends = [end for end, _ in self.probes]
        out = []
        for start, took in zip(self.starts, self.iterations):
            lo = bisect.bisect_left(ends, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(ends, start + took + PROBE_WINDOW_S)
            out.append(PROBE_REF_S / statistics.median(t for _, t in self.probes[lo:hi]))
        return out


def percentile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method) in ms."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(names: list[str], traced: list[str]) -> list[str]:
    """The per-layer metrics that name no traced function or module.  Such a
    metric would read 0 after a rename and pass for a full gain."""
    modules = {name.split(".")[0] for name in traced}
    missing = []
    for metric in names:
        func = metric.rsplit(".", 1)[0]
        if metric != "trace.overhead_ratio" and func not in traced and func not in modules:
            missing.append(metric)
    return missing


def per_layer(names: list[str], totals: dict, n_ops: int, overhead: float) -> dict[str, float]:
    """``module.function.stat`` per op, ``module.self_ms`` summed over the
    module's functions, and ``trace.overhead_ratio``."""
    values = {}
    for metric in names:
        if metric == "trace.overhead_ratio":
            values[metric] = overhead
            continue
        *func, stat = metric.split(".")
        func = ".".join(func)
        if "." in func:
            t = totals.get(func, {"calls": 0, "self_s": 0.0, "work": 0})
        else:
            members = [t for name, t in totals.items() if name.split(".")[0] == func]
            t = {"self_s": sum(m["self_s"] for m in members)}
        if stat == "self_ms":
            values[metric] = t["self_s"] * 1000 / n_ops
        elif stat == "calls":
            values[metric] = t["calls"] / n_ops
        else:  # cells, flats, bytes, yields
            values[metric] = t["work"] / n_ops
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tropmap", "__init__.py")):
        print(f"error: no tropmap sources under {src}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ops, *first_setup = setup(workloads, args.workload, args.seed, workdir)
        if args.trace:
            loop, metrics = traced_run(ops, args, spec)
        else:
            loop = Loop(ops, probing=True)
            loop.run(args.seconds, MIN_OPS)
            peak = peak_rss_mb()  # before the repeated set-ups below add to it
            loop.ops = ops = None  # let the set-ups below free this one's inputs
            setups = [first_setup]  # (seconds, scaled seconds)
            for _ in range(SETUP_REPEATS - 1):
                gc.collect()  # free the previous set-up's modules and inputs first
                setups.append(setup(workloads, args.workload, args.seed, workdir)[1:])
            probe_s = statistics.median(t for _, t in loop.probes)
            print(f"# probe median {probe_s * 1000:.4f} ms over {len(loop.probes)} probes; unscaled:"
                  f" ops_per_s {loop.ops_per_s():.4f}, op_p50_ms {percentile_ms(loop.latencies, 50):.4f},"
                  f" op_p90_ms {percentile_ms(loop.latencies, 90):.4f},"
                  f" setup_s {statistics.median(t for t, _ in setups):.4f}")
            scales = loop.scales()
            scaled = [t * s for t, s in zip(loop.latencies, scales)]
            metrics = {
                "ops_per_s": loop.ops_per_s(scales),
                "op_p50_ms": percentile_ms(scaled, 50),
                "op_p90_ms": percentile_ms(scaled, 90),
                "setup_s": statistics.median(scaled for _, scaled in setups),
                "peak_rss_mb": peak,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    return report(args, loop, metrics, {m["name"]: m["unit"] for m in spec[kind]})


def traced_run(ops, args, spec):
    """Alternate untraced and traced rounds for ``--seconds``, so a drift in
    machine speed affects both sides of the overhead ratio alike."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = Loop(ops), Loop(ops, tracer)
    traced.digests = plain.digests  # traced outputs must equal untraced ones
    gc.collect()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        plain.run_round()
        tracer.install()
        try:
            traced.run_round()
        finally:
            tracer.uninstall()
        leftover = Tracer.leftover_wrappers()
        if leftover:
            traced.failed += 1
            traced.failures.append(f"wrappers left after uninstall: {leftover}")
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{args.workload}.jsonl")
    tracer.write_spans(spans_path)
    print(f"# {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    totals = tracer.totals()
    n = len(traced.latencies)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
    traced_s = sum(traced.latencies)
    for name, t in ranked[:8]:
        print(f"# self time {name:34s} {100 * t['self_s'] / traced_s:5.1f}%  calls/op {t['calls'] / n:.2f}")
    names = [m["name"] for m in spec["per_layer"]]
    metrics = per_layer(names, totals, n, traced.ops_per_s() / plain.ops_per_s())
    for metric in untraced(names, tracer.names):
        traced.failed += 1
        traced.failures.append(f"per-layer metric {metric} names no traced function")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.failures = plain.failures + traced.failures
    return traced, metrics


def report(args, loop: Loop, metrics: dict, units: dict) -> int:
    n = len(loop.latencies)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {loop.attempted} ops")
    for failure in loop.failures[:10]:
        print(f"# FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6f} {units[name]:10s} n={n}")
    print(f"{'error_rate':44s} {loop.failed / loop.attempted:14.6f} {'1':10s} n={loop.attempted}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
