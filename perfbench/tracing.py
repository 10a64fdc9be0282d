"""Spans around the calls into each bundlejc layer, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, at every module-level name it is looked up through (``cli`` and
``observables`` bind ``steady_state``, ``build_liouvillian`` and friends at
import), and wraps ``LiouvillePropagator.__init__`` and ``.propagate``.
``uninstall`` restores the originals.  Spans are kept in memory as
(name, start, end, parent, work) and written out at the end of the run.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "model", "hilbert", "dynamics", "observables")

# Work counted per call, from the call's result.
WORK = {
    "cli.run_preset": lambda paths: sum(Path(p).stat().st_size for p in paths),
    "dynamics.build_liouvillian": lambda L: L.mat.nbytes,
    "dynamics.propagate": len,
    "dynamics.schrodinger_evolve": len,
    "dynamics.mcwf_trajectory": lambda rec: len(rec.jumps),
}

HILBERT_OPERATORS = ("hilbert.fock_annihilation", "hilbert.tls_operator", "hilbert.basis_state")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, local, work = self.spans, self._local, WORK.get(name)

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, 0)
            if work is not None:
                spans[index] = (name, start, end, parent, work(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"bundlejc.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in (importlib.import_module("bundlejc"), *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(module, attr, wrapped[id(value)][1])
        cls = modules["dynamics"].LiouvillePropagator
        self._patch(cls, "__init__", self._wrap("dynamics.propagator_init", cls.__init__))
        self._patch(cls, "propagate", self._wrap("dynamics.propagate", cls.propagate))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, passes: list[tuple[int, int]]):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["pass", "index", "name", "start_s", "end_s", "parent", "work"])
            for k, (lo, hi) in enumerate(passes):
                for i in range(lo, hi):
                    name, start, end, parent, work = self.spans[i]
                    out.writerow([k, i, name, f"{start:.9f}", f"{end:.9f}", parent, work])


def layer_metrics(spans: list[tuple], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans[lo:hi] of one pass.

    ``X.s`` is layer self time: the span minus the time its descendants spend
    in other layers (same-layer helpers stay in).  ``X.self_s`` subtracts
    every direct child span, whatever its layer.
    """
    n = hi - lo
    dur = [spans[lo + k][2] - spans[lo + k][1] for k in range(n)]
    layer = [spans[lo + k][0].split(".", 1)[0] for k in range(n)]
    other = [0.0] * n
    children = [0.0] * n
    for k in range(n - 1, -1, -1):  # children come after their parent
        p = spans[lo + k][3] - lo
        if p >= 0:
            children[p] += dur[k]
            other[p] += dur[k] if layer[k] != layer[p] else other[k]

    calls, layer_s, self_s, work = (defaultdict(float) for _ in range(4))
    max_work = defaultdict(float)
    for k in range(n):
        name, _, _, _, w = spans[lo + k]
        calls[name] += 1
        layer_s[name] += dur[k] - other[k]
        self_s[name] += dur[k] - children[k]
        work[name] += w
        max_work[name] = max(max_work[name], w)

    jumps = work["dynamics.mcwf_trajectory"]
    mcwf_s = layer_s["dynamics.mcwf_trajectory"]
    return {
        "cli.parse_config.s": layer_s["cli.parse_config"],
        "cli.run_preset.self_s": self_s["cli.run_preset"],
        "cli.output_bytes": work["cli.run_preset"],
        "model.build_H_I.calls": calls["model.build_H_I"],
        "model.build_H_I.s": layer_s["model.build_H_I"],
        "model.dressed_state.calls": calls["model.dressed_state"],
        "model.dressed_state.s": layer_s["model.dressed_state"],
        "hilbert.operators.calls": sum(calls[k] for k in HILBERT_OPERATORS),
        "hilbert.operators.s": sum(layer_s[k] for k in HILBERT_OPERATORS),
        "dynamics.build_liouvillian.calls": calls["dynamics.build_liouvillian"],
        "dynamics.build_liouvillian.s": layer_s["dynamics.build_liouvillian"],
        "dynamics.liouvillian_bytes": max_work["dynamics.build_liouvillian"],
        "dynamics.steady_state.calls": calls["dynamics.steady_state"],
        "dynamics.steady_state.s": layer_s["dynamics.steady_state"],
        "dynamics.propagator_init.calls": calls["dynamics.propagator_init"],
        "dynamics.propagator_init.s": layer_s["dynamics.propagator_init"],
        "dynamics.propagate.taus": work["dynamics.propagate"],
        "dynamics.propagate.s": layer_s["dynamics.propagate"],
        "dynamics.schrodinger_evolve.samples": work["dynamics.schrodinger_evolve"],
        "dynamics.schrodinger_evolve.s": layer_s["dynamics.schrodinger_evolve"],
        "dynamics.run_trajectories.self_s": self_s["dynamics.run_trajectories"],
        "dynamics.mcwf.jumps": jumps,
        "dynamics.mcwf.s": mcwf_s,
        "dynamics.mcwf.us_per_jump": 1e6 * mcwf_s / jumps if jumps else 0.0,
        "observables.g_equal_time.calls": calls["observables.g_equal_time"],
        "observables.g_equal_time.s": layer_s["observables.g_equal_time"],
        "observables.photon_distribution.s": layer_s["observables.photon_distribution"],
        "observables.g2_bundle_delayed.self_s": self_s["observables.g2_bundle_delayed"],
        "observables.dressed_populations.calls": calls["observables.dressed_populations"],
        "observables.dressed_populations.s": layer_s["observables.dressed_populations"],
        "trace.spans": n,
    }
