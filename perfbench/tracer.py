"""Spans around calls into epivote's public functions, recorded from outside.

The tracer rebinds each traced function wherever an epivote module holds a
reference to it (``from .logic import denotation`` makes a second reference
in ``dynamics``), so calls between layers are seen too. Spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
from pathlib import Path
from time import perf_counter

from workloads import DENOTATION_CLASSES, formula_shape, shape_class

# (module, attribute) of every traced public function.
TARGETS = (
    ("model", "make_model"), ("model", "restrict"), ("model", "hypercube"),
    ("model", "ProfileModel.profiles_of"),
    ("modelfile", "parse_model"), ("modelfile", "write_model"),
    ("strategic", "classify"), ("strategic", "knows_manipulation"),
    ("games", "enumerate_conditional_equilibria"), ("games", "payoff_matrix"),
    ("games", "is_conditional_equilibrium"),
    ("logic", "denotation"), ("logic", "characteristic_formula"), ("logic", "valid_on"),
    ("logic", "parse"),
    ("dynamics", "search_counterexample"), ("dynamics", "update"),
    ("dynamics", "check_preservation"),
    ("cli", "main"),
)

# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = (
    [("model.make_model.calls", "count", "lower"), ("model.make_model.self_s", "s", "lower"),
     ("model.restrict.calls", "count", "lower"), ("model.restrict.self_s", "s", "lower"),
     ("model.hypercube.self_s", "s", "lower"),
     ("model.ProfileModel.profiles_of.self_s", "s", "lower"),
     ("rules.winner.calls", "count", "lower"),
     ("rules.winner_cache.hit_ratio", "ratio", "higher"),
     ("rules.winner_cache.size", "count", "lower"),
     ("strategic.classify.calls", "count", "lower"), ("strategic.classify.self_s", "s", "lower"),
     ("strategic.knows_manipulation.self_s", "s", "lower"),
     ("games.enumerate_conditional_equilibria.self_s", "s", "lower"),
     ("games.payoff_matrix.self_s", "s", "lower"),
     ("games.is_conditional_equilibrium.calls", "count", "lower"),
     ("games.is_conditional_equilibrium.self_s", "s", "lower")]
    + [(f"logic.denotation.{c}.self_s", "s", "lower") for c in DENOTATION_CLASSES]
    + [("logic.denotation.node_states", "count", "lower"),
       ("logic.characteristic_formula.self_s", "s", "lower"),
       ("logic.valid_on.self_s", "s", "lower"), ("logic.parse.self_s", "s", "lower"),
       ("dynamics.search_counterexample.calls", "count", "lower"),
       ("dynamics.search_counterexample.self_s", "s", "lower"),
       ("dynamics.update.self_s", "s", "lower"),
       ("dynamics.check_preservation.self_s", "s", "lower"),
       ("modelfile.parse_model.calls", "count", "lower"),
       ("modelfile.parse_model.self_s", "s", "lower"),
       ("modelfile.write_model.self_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.untraced_ops_per_s", "1/s", "higher"),
       ("trace.traced_ops_per_s", "1/s", "higher"),
       ("trace.overhead_ops_per_s", "1/s", "lower")]
)

SETUP = -1  # operation id of spans recorded while the workload is set up
SHAPE = "trace.shape"  # the harness's own formula walk, in no metric


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, operation id)
        self.stack: list[int] = []
        self.op = SETUP
        self.active = True
        self.node_states = {SETUP: 0, "timed": 0}
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name (the harness's root span of an operation)."""
        idx = self._open(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, name, start, perf_counter())

    def _wrap(self, name: str, fn):
        tracer = self
        is_denotation = name == "logic.denotation"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name
            if is_denotation:
                m, phi = args[0], args[2] if len(args) > 2 else kwargs["phi"]
                # The walk gets a span of its own, left out of the metrics, so
                # that the caller's span counts it as child time, not self time.
                k, a, nodes = tracer.run(SHAPE, formula_shape, phi)
                span = f"{name}.{shape_class(k, a)}"
                tracer.node_states[SETUP if tracer.op == SETUP else "timed"] += nodes * len(m.states)
            idx = tracer._open(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, span, start, perf_counter())

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------- installing

    def install(self, ep) -> None:
        mods = [m for n, m in sys.modules.items() if n == "epivote" or n.startswith("epivote.")]
        for modname, attr in TARGETS:
            owner = getattr(ep, modname)
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{modname}.{attr}", orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{modname}.{attr}", orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # ------------------------------------------------------- reporting

    def self_times(self) -> dict:
        """{(phase, name): [calls, self seconds]} with phase SETUP or "timed"."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            entry = out.setdefault((SETUP if op == SETUP else "timed", name), [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[idx]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
