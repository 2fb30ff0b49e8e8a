"""Outside-in span trace of polyshoot, built only from the benchmark's files.

``Tracer.install()`` replaces the public functions at the names their
callers look up (``polyshoot.shooting.integrate``,
``polyshoot.integrator.taylor_launch``, ``polyshoot.volume.volume``,
``EpsCache.get`` / ``put``, ...) with wrappers that record a span (name,
start, end, parent, request id) and count work from the returned objects.
``remove()`` puts the originals back.  Spans stay in memory until
``write()``.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans.  ``sweep`` runs its points in pool
worker processes; spans and counts made there are not collected, so that
work shows as ``cli`` self time (the parent waiting on the pool).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from importlib import import_module

# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = (
    "core.launch_calls", "integrator.calls", "integrator.steps_accepted",
    "integrator.steps_rejected", "integrator.rhs_evals", "integrator.samples",
    "integrator.events", "integrator.verdict.collapsed",
    "integrator.verdict.entire", "integrator.verdict.inconclusive",
    "volume.calls", "shooting.solves", "shooting.rounds",
    "shooting.integrations", "shooting.extended_retries",
    "shooting.cache.gets", "shooting.cache.hits", "shooting.cache.puts",
    "cli.calls",
)

_LAYERS = ("core", "integrator", "volume", "shooting", "shooting.cache", "cli", "request")


def _layer(name):
    return "shooting.cache" if name.startswith("shooting.cache.") else name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, request id]
        self.counts = Counter()
        self._stack = []
        self._open_layers = Counter()
        self._request = None
        self._saved = []
        self._core = None

    # -------------------------------------------------------------- spans

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(idx)
        self._open_layers[_layer(name)] += 1
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open_layers[_layer(self.spans[idx][0])] -= 1

    def request(self, rid, label, fn):
        """Run one user-level request under a root span."""
        self._request = rid
        idx = self._open(f"request.{label}")
        try:
            return fn()
        finally:
            self._close(idx)
            self._request = None

    def wrap(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self._count_call(name)
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    # ----------------------------------------------------------- counting

    def _count_call(self, name):
        c = self.counts
        layer = _layer(name)
        if layer == "shooting" and self._open_layers["shooting"] == 0:
            c["shooting.solves"] += 1
        if layer == "integrator" and self._open_layers["shooting"]:
            c["shooting.integrations"] += 1
        key = {"core.taylor_launch": "core.launch_calls",
               "shooting.cache.get": "shooting.cache.gets",
               "shooting.cache.put": "shooting.cache.puts"}.get(name, f"{layer}.calls")
        c[key] += 1

    def _on_integrate(self, traj, args, kwargs):
        c, core = self.counts, self._core
        s = traj.stats
        c["integrator.steps_accepted"] += s["naccept"]
        c["integrator.steps_rejected"] += s["nreject"]
        c["integrator.rhs_evals"] += s["nfev"]
        c["integrator.samples"] += len(traj)
        c["integrator.events"] += sum(ev.kind != "horizon" for ev in traj.events)
        kind = ("collapsed" if isinstance(traj.verdict, core.Collapsed) else
                "entire" if isinstance(traj.verdict, core.EntirePositive) else
                "inconclusive")
        c[f"integrator.verdict.{kind}"] += 1

    def _on_critical(self, ce, args, kwargs):
        self.counts["shooting.rounds"] += ce.iterations
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        started_double = cfg is None or cfg.precision == "double"
        if not ce.cache_hit and started_double and ce.precision == "extended":
            self.counts["shooting.extended_retries"] += 1

    def _on_prescribe(self, vs, args, kwargs):
        self.counts["shooting.rounds"] += vs.iterations

    def _on_get(self, hit, args, kwargs):
        self.counts["shooting.cache.hits"] += hit is not None

    def _on_cli(self, code, args, kwargs):
        argv = list(args[0])
        if "--out" in argv:
            out = argv[argv.index("--out") + 1]
            if os.path.exists(out):
                self.counts["cli.bytes_out"] += os.path.getsize(out)

    # ------------------------------------------------------------ patches

    def install(self):
        self._core = import_module("polyshoot.core")
        integrator = import_module("polyshoot.integrator")
        volume = import_module("polyshoot.volume")
        shooting = import_module("polyshoot.shooting")
        cli = import_module("polyshoot.cli")
        self.wrap(integrator, "taylor_launch", "core.taylor_launch")
        for mod in (integrator, shooting, cli):
            self.wrap(mod, "integrate", "integrator.integrate", self._on_integrate)
        for mod in (volume, shooting, cli):
            self.wrap(mod, "volume", "volume.volume")
        for mod in (shooting, cli):
            self.wrap(mod, "critical_eps", "shooting.critical_eps", self._on_critical)
            self.wrap(mod, "prescribe_volume", "shooting.prescribe_volume",
                      self._on_prescribe)
        self.wrap(shooting.EpsCache, "get", "shooting.cache.get", self._on_get)
        self.wrap(shooting.EpsCache, "put", "shooting.cache.put")
        self.wrap(cli, "main", "cli.main", self._on_cli)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def self_times(self):
        """Seconds of self time per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(_LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[_layer(name)] += (end - start) - child[i]
        return out

    def deterministic_counts(self):
        return {k: self.counts[k] for k in DETERMINISTIC}

    def layer_metrics(self):
        """Per-layer figures of the traced pass, keyed as in BENCHMARK.json."""
        c, t = self.counts, self.self_times()
        steps = c["integrator.steps_accepted"] + c["integrator.steps_rejected"]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "core.launch_calls": c["core.launch_calls"],
            "core.launch_halvings": c["core.launch_calls"] - c["integrator.calls"],
            "core.launch_self_ms": t["core"] * 1e3,
            "integrator.calls": c["integrator.calls"],
            "integrator.self_s": t["integrator"],
            "integrator.samples": c["integrator.samples"],
            "integrator.us_per_sample": ratio(t["integrator"] * 1e6, c["integrator.samples"]),
            "integrator.steps_accepted": c["integrator.steps_accepted"],
            "integrator.steps_rejected": c["integrator.steps_rejected"],
            "integrator.rhs_evals": c["integrator.rhs_evals"],
            "integrator.accept_ratio": ratio(c["integrator.steps_accepted"], steps),
            "integrator.us_per_step": ratio(t["integrator"] * 1e6, steps),
            "integrator.events": c["integrator.events"],
            "integrator.verdict.collapsed": c["integrator.verdict.collapsed"],
            "integrator.verdict.entire": c["integrator.verdict.entire"],
            "integrator.verdict.inconclusive": c["integrator.verdict.inconclusive"],
            "volume.calls": c["volume.calls"],
            "volume.self_ms": t["volume"] * 1e3,
            "shooting.solves": c["shooting.solves"],
            "shooting.rounds": c["shooting.rounds"],
            "shooting.integrations_per_solve": ratio(c["shooting.integrations"],
                                                     c["shooting.solves"]),
            "shooting.self_s": t["shooting"],
            "shooting.extended_retries": c["shooting.extended_retries"],
            "shooting.cache.gets": c["shooting.cache.gets"],
            "shooting.cache.hits": c["shooting.cache.hits"],
            "shooting.cache.hit_ratio": ratio(c["shooting.cache.hits"],
                                              c["shooting.cache.gets"]),
            "shooting.cache.puts": c["shooting.cache.puts"],
            "shooting.cache.self_ms": t["shooting.cache"] * 1e3,
            "cli.calls": c["cli.calls"],
            "cli.self_s": t["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
        }

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")
