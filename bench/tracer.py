"""In-memory spans around the public functions of the cps_sentinel modules.

A traced function is replaced by a wrapper at every name that binds it in
a loaded ``cps_sentinel`` module (``harness.simulate``,
``detection.honest_mean``, ``policies.honest_mean`` and so on), so every
call made through a module global is recorded. Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts the original objects back.

Spans carry a name id, start, end and the index of the enclosing span
(-1 at the top). They are kept in typed arrays and written out once, by
:meth:`Tracer.save`, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (defining module, function) pairs; each becomes layer "module.function".
LAYERS = (
    ("simulator", "simulate"),
    ("numerics", "sample_gaussian"),
    ("policies", "compose_control"),
    ("policies", "honest_mean"),
    ("policies", "corrupt_mean_components"),
    ("detection", "rn_series"),
    ("numerics", "quad_forms_inv"),
    ("numerics", "kahan_cumsum"),
    ("detection", "classify"),
    ("detection", "write_series_csv"),
    ("harness", "run_montecarlo"),
    ("harness", "run_mdp_batch"),
    ("mdp", "simulate_path"),
    ("mdp", "path_log_ratio"),
    ("mdp", "analytic_drift"),
    ("model", "validate_model"),
    ("model", "validate_attack"),
    ("model", "honest_influence_check"),
)

PACKAGE = "cps_sentinel"


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in LAYERS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer function at each module name bound to it.

        A layer the package no longer defines is skipped and reads as zero.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for nid, (mod, fn_name) in enumerate(LAYERS):
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(nid, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        for a in (self.name_id, self.parent, self.start, self.end):
            del a[:]

    @property
    def span_count(self) -> int:
        return len(self.start)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self seconds and call count per layer over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly, so children never overlap.
        """
        n = len(self.start)
        k = len(self.names)
        if n == 0:
            return {name: {"self_s": 0.0, "calls": 0} for name in self.names}
        ids, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {name: {"self_s": float(self_s[i]), "calls": int(calls[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans as arrays (name_id, parent, start, end) plus names."""
        name_id, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)

    def _arrays(self):
        # Copies, so the typed arrays stay resizable by clear().
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))
