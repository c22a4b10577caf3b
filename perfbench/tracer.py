"""Spans around calls into fogslice's public functions.

The tracer wraps each layer function listed in LAYERS and puts the wrapper
in every loaded ``fogslice.*`` namespace that holds the original, so calls
from other modules (``engine`` imports ``solve_social_welfare`` by name)
and from the function's own module (``game`` calls ``solve_offload``) are
both seen.  Spans (id, parent id, name, start, end) stay in memory and are
written out once, at the end.  A function that no longer exists is
skipped; its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    ("game", "solve_offload"),
    ("game", "solve_social_welfare"),
    ("game", "check_core"),
    ("game", "solve_energy_split"),
    ("belief", "select_action"),
    ("belief", "type_profile_rewards"),
    ("belief", "update_type_belief"),
    ("model", "validate_agreement"),
    ("queueing", "response_time_forwarding"),
    ("env", "sample_step"),
    ("engine", "run_episode"),
    ("engine", "emit_report"),
    ("engine", "build_config"),
    ("topology", "synth_topology"),
    ("topology", "build_neighbors"),
    ("oracles", "exhaustive_welfare"),
)


def _solve_welfare(tracer, span, result):
    path = "exhaustive" if getattr(result, "status", "") == "exhaustive" else "heuristic"
    span[2] = f"{span[2]}.{path}"
    tracer.counts["game.welfare_total"] += float(result.welfare)


def _solve_offload(tracer, span, result):
    tracer.counts["game.solve_offload.passes"] += int(getattr(result, "passes", 0))
    tracer.counts["game.solve_offload.converged"] += bool(getattr(result, "converged", False))


def _check_core(tracer, span, result):
    tracer.counts["game.check_core.subsets"] += int(getattr(result, "checked_subsets", 0))


def _validate(tracer, span, result):
    tracer.counts["model.validate_agreement.violations"] += len(result)


# counts read off a layer's return value, where the work happens
OBSERVERS = {
    "game.solve_social_welfare": _solve_welfare,
    "game.solve_offload": _solve_offload,
    "game.check_core": _check_core,
    "model.validate_agreement": _validate,
}


class Tracer:
    def __init__(self):
        # span: [id, parent id (-1 at top), name, start, end, phase, outermost]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self.phase = "setup"
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        for mod_name, fn_name in LAYERS:
            module = sys.modules.get(f"fogslice.{mod_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for name, namespace in list(sys.modules.items()):
                if name != "fogslice" and not name.startswith("fogslice."):
                    continue
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patched.append((namespace, attr, original))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [
                len(self.spans),
                self._stack[-1] if self._stack else -1,
                name,
                time.perf_counter(),
                0.0,
                self.phase,
                self._depth[name] == 0,
            ]
            self.spans.append(span)
            self._stack.append(span[0])
            self._depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                self._depth[name] -= 1
            if observe is not None:
                observe(self, span, result)
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            dur = span[4] - span[3]
            row = out[span[2]]
            row["calls"] += 1
            if span[6]:
                row["s"] += dur
            row["self_s"] += dur - child_time[span[0]]
        return out

    def write(self, path: str, t0: float):
        """One JSON object per span; times in seconds from process start."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, phase, _ in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": round(start - t0, 9),
                            "end": round(end - t0, 9),
                            "phase": phase,
                        }
                    )
                    + "\n"
                )
