"""Run one epivote benchmark workload and print its metrics.

    python3 perfbench/run.py --workload strategic-cube --seed 1 --trace 0

The workload runs in this single-threaded process as a closed loop with one
client: each operation starts when the previous one has returned. Operations
are taken in whole passes over the workload's operation list, as many as
come nearest to --seconds of operation time, so every run measures the same
mix.

--trace 0 prints the end-to-end metrics. --trace 1 sets up once under the
tracer, runs half the time untraced and half traced, and prints the
per-layer metrics: calls and self time per set-up plus one pass, and the
tracing overhead in operations per second.

The machine this runs on may be shared, and its speed can drift by a fifth
within seconds. So a fixed pure-Python probe loop runs between operations
(at most every 50 ms, outside the timed calls), and each timing is scaled by
PROBE_REF_S over the probe's duration around it: the metrics read as
measured on a machine whose probe takes PROBE_REF_S. The unscaled figures
are kept in the run's result file under perfbench/out/.

Every result is encoded and checked: against the digests recorded in
perfbench/expected/ when the seed has them, and always for repeatability
across passes, with per-operation validations and a cross-check of a sample
against independent library paths. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import seeds
import workloads
from tracer import PER_LAYER, SETUP, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
PROBE_REF_S = 0.000125  # the probe's duration on the reference machine
PROBE_EVERY_S = 0.05
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


_KEYS = tuple(range(64))
_TABLE = {k: 3 * k for k in _KEYS}


def probe() -> float:
    """Seconds taken by a fixed loop that allocates no tracked objects."""
    t0 = perf_counter()
    acc = 0
    for i in range(1500):
        acc += _TABLE[_KEYS[i & 63]] ^ i
    return perf_counter() - t0


class Speed:
    """Probe timings along a run, to scale timings to the reference speed."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if force or not self.at or now - self.at[-1] >= PROBE_EVERY_S:
            self.took.append(probe())
            self.at.append(now)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per second, from the probes nearest to [t0, t1]."""
        lo = max(0, bisect.bisect_left(self.at, t0) - 2)
        hi = bisect.bisect_right(self.at, t1) + 2
        return PROBE_REF_S / statistics.median(self.took[lo:hi])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_digests(workload: str, seed: int) -> dict | None:
    path = HERE / "expected" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


class Checker:
    """Judges every operation's result; counts attempts and failures.

    The first encoding of each operation's result is kept as JSON text for
    the cross-checks: strings are not tracked by the garbage collector, so
    keeping them does not lengthen the collector's pauses inside operations.
    """

    def __init__(self, expected: dict | None, tracer=None):
        self.expected = expected
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.seen: dict[int, str] = {}
        self.first: dict[int, str] = {}
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def check(self, op, result, error) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(f"op {op.id} ({op.kind}) raised {type(error).__name__}: {error}")
            return
        if self.tracer:
            self.tracer.active = False
        try:
            enc = op.encode(result)
            text = json.dumps(enc, sort_keys=True)
            problem = op.validate(enc) if op.validate else None
        except Exception as exc:  # a result that cannot be encoded is a wrong result
            self.fail(f"op {op.id} ({op.kind}): result not checkable: {exc!r}")
            return
        finally:
            if self.tracer:
                self.tracer.active = True
        d = digest(text)
        if self.expected is not None and self.expected.get(str(op.id)) != d:
            self.fail(f"op {op.id} ({op.kind}): digest {d}, recorded {self.expected.get(str(op.id))}")
        elif self.seen.get(op.id, d) != d:
            self.fail(f"op {op.id} ({op.kind}): result changed between passes")
        elif problem:
            self.fail(f"op {op.id} ({op.kind}): {problem}")
        self.seen.setdefault(op.id, d)
        self.first.setdefault(op.id, text)

    def first_results(self) -> dict:
        return {k: json.loads(text) for k, text in self.first.items()}


def cache_calls(ep) -> tuple[int, int, int]:
    """(hits, misses, size) of the plurality winner cache.

    The rules.* per-layer metrics come from here alone, so a traced run
    stops rather than report zeros when the cache is gone or renamed.
    """
    cached = getattr(ep.rules, "_plurality_from_tops", None)
    if not hasattr(cached, "cache_info"):
        raise SystemExit("error: epivote.rules._plurality_from_tops.cache_info() not found; "
                         "the rules.* per-layer metrics have no source")
    info = cached.cache_info()
    return info.hits, info.misses, info.currsize


class Phase:
    """Timings and counts of one timed phase."""

    def __init__(self):
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self.passes = 0
        self.winner_hits = 0
        self.winner_misses = 0

    def ops_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled)


def run_phase(wl, ep, seconds: float, checker: Checker, tracer=None) -> Phase:
    """Whole passes over wl.ops until about `seconds` of scaled operation time.

    Counting scaled time, not wall time, keeps the number of passes the same
    whatever the machine's speed. Durations follow wl.ops, pass after pass.
    Only the call itself is timed; probing, clearing caches, reading cache
    counters (traced phases only) and checking results are not.
    """
    phase, speed = Phase(), Speed()
    spans: list[tuple[float, float]] = []
    while True:
        for op in wl.ops:
            speed.tick()
            if op.cold:
                wl.clear_cache()
            if tracer:
                tracer.op = op.id
                h0, m0, _ = cache_calls(ep)
            result = error = None
            t0 = perf_counter()
            try:
                result = tracer.run("op", op.fn) if tracer else op.fn()
            except Exception as exc:  # counted as a failed operation
                error = exc
            t1 = perf_counter()
            if tracer:
                h1, m1, _ = cache_calls(ep)
                phase.winner_hits += h1 - h0
                phase.winner_misses += m1 - m0
            spans.append((t0, t1))
            checker.check(op, result, error)
        phase.passes += 1
        speed.tick(force=True)
        phase.scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
        elapsed = sum(phase.scaled)
        if elapsed >= seconds - elapsed / phase.passes / 2:
            phase.raw = [t1 - t0 for t0, t1 in spans]
            return phase


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def use_sources() -> str | None:
    """Put the checkout's src/ first on sys.path; say what is missing, if anything."""
    for needed in (ROOT / "src" / "epivote" / "__init__.py", ROOT / "fixtures"):
        if not needed.exists():
            return f"{needed} not found; run from a checkout of the repository"
    sys.path.insert(0, str(ROOT / "src"))
    return None


def set_up(build, seed: int, tiny: bool, trace: bool):
    """Import epivote, build the inputs and warm up; repeated, timed each time.

    Returns the last (workload, layer modules, tracer or None), the scaled
    and raw set-up times, and, when traced, the winner-cache (hits, misses)
    of the set-up. A traced run sets up once, with the tracer installed.
    """
    scaled, raw = [], []
    wl = tracer = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if wl is not None:
            wl.close()
        # Drop the previous set-up first: its closures hold its modules and
        # inputs, which would otherwise add to this set-up's peak RSS.
        wl = ep = None
        gc.collect()
        speed = Speed()
        for _ in range(3):
            speed.tick(force=True)
        t0 = perf_counter()
        ep = workloads.load_epivote()
        if trace:
            tracer = Tracer()
            tracer.install(ep)
        wl = build(ep, seed, ROOT, tiny=tiny)
        for warm in wl.warmup:
            warm()
        t1 = perf_counter()
        for _ in range(3):
            speed.tick(force=True)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.scale(t0, t1))
    gc.collect()
    return wl, ep, tracer, scaled, raw, cache_calls(ep)[:2] if trace else None


def end_to_end(phase: Phase, setup_scaled: list[float]) -> dict:
    return {
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": statistics.median(phase.scaled) * 1000,
        "op_tail_ms": tail(phase.scaled)[0] * 1000,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase, setup_winner, ep) -> dict:
    """Per-layer values for one set-up plus one pass over the operations."""
    table = tracer.self_times()
    n = traced.passes

    def amount(name: str, column: int) -> float:
        return (table.get((SETUP, name), [0, 0.0])[column]
                + table.get(("timed", name), [0, 0.0])[column] / n)

    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, what = metric.rpartition(".")
        if what in ("calls", "self_s") and not metric.startswith("rules."):
            out[metric] = amount(layer, 0 if what == "calls" else 1)
    hits = setup_winner[0] + traced.winner_hits / n
    calls = hits + setup_winner[1] + traced.winner_misses / n
    out["rules.winner.calls"] = calls
    out["rules.winner_cache.hit_ratio"] = hits / calls if calls else 0.0
    out["rules.winner_cache.size"] = cache_calls(ep)[2]
    out["logic.denotation.node_states"] = (tracer.node_states[SETUP]
                                           + tracer.node_states["timed"] / n)
    out["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    out["trace.traced_ops_per_s"] = traced.ops_per_s()
    out["trace.overhead_ops_per_s"] = untraced.ops_per_s() - traced.ops_per_s()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the committed default seed)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="operation time to measure (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    problem = use_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = seeds.DEFAULT if args.seed is None else args.seed
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    wl, ep, tracer, setup_scaled, setup_raw, setup_winner = set_up(
        workloads.WORKLOADS[args.workload], seed, args.tiny, bool(args.trace))
    try:
        summary = {"workload": args.workload, "seed": seed, "tiny": args.tiny,
                   "operations_per_pass": len(wl.ops), **wl.summary}
        print("input " + json.dumps(summary, sort_keys=True), flush=True)
        expected = None if args.tiny else expected_digests(args.workload, seed)
        checker = Checker(expected, tracer)
        if args.trace:
            tracer.uninstall()
            untraced = run_phase(wl, ep, args.seconds / 2, checker)
            tracer.install(ep)
            phase = run_phase(wl, ep, args.seconds / 2, checker, tracer)
            tracer.uninstall()
        else:
            phase = run_phase(wl, ep, args.seconds, checker)
        for msg in wl.cross_check(random.Random(seed), checker.first_results()):
            checker.fail("cross-check: " + msg)
        checker.failed = min(checker.failed, checker.attempted)
    finally:
        wl.close()

    if args.trace:
        metrics = per_layer(tracer, phase, untraced, setup_winner, ep)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(phase, setup_scaled)
        units = UNITS
    tail_value, tail_pct, beyond = tail(phase.scaled)
    by_kind: dict = {}
    for k, d in enumerate(phase.scaled):
        by_kind.setdefault(wl.ops[k % len(wl.ops)].kind, []).append(d)
    details = {
        "passes": phase.passes, "operations": len(phase.scaled),
        "failed_ratio": checker.failed / checker.attempted,
        "checked_against": ("recorded digests" if expected is not None
                            else "repeatability, validations and cross-checks"),
        "problems": checker.problems,
        "op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
        "setup_runs_s": setup_scaled,
        "unscaled": {"ops_per_s": len(phase.raw) / sum(phase.raw),
                     "op_p50_ms": statistics.median(phase.raw) * 1000,
                     "op_tail_ms": tail(phase.raw)[0] * 1000,
                     "setup_s": statistics.median(setup_raw)},
        "per_kind": {kind: {"count": len(ds), "median_ms": statistics.median(ds) * 1000,
                            "total_s": sum(ds)} for kind, ds in sorted(by_kind.items())},
    }
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{seed}.tsv.gz"
        tracer.write(spans)
        details["spans"] = str(spans.relative_to(ROOT))

    for msg in checker.problems:
        print("FAILED " + msg, file=sys.stderr)
    for name, value in sorted(metrics.items()):
        note = (f"  (p{tail_pct:.2f}, {beyond} samples beyond, of {len(phase.scaled)})"
                if name == "op_tail_ms" else "")
        print(f"{args.workload:15s} {name:48s} {value:14.6f} {units[name]}{note}")
    print(f"{args.workload:15s} {'failed_ratio':48s} {details['failed_ratio']:14.6f} "
          f"({checker.failed} of {checker.attempted}; {details['checked_against']})")
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    out = HERE / "out" / f"result-{args.workload}-seed{seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"input": summary, "details": details, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
