"""Timing and counting wrappers on the skyrme layers, installed from outside
the package.

Modules inside the package import each other's functions by name, so a
function is replaced under every module-level name bound to it (for example
`skyrme.lattice.group_log`, `skyrme.invariants.group_log` and
`skyrme.algebra.group_log`, the last read by a call-time import).  Spans stay
in memory; `Patches.restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# layer module -> public functions the traced run wraps
LAYERS = {
    "algebra": ("group_log", "group_exp"),
    "lattice": ("log_derivative", "skyrme_energy_map", "gauge_transform"),
    "minimize": ("lattice_gradient", "minimize_map"),
    "invariants": ("sector_of", "topological_charge", "one_dim_invariant",
                   "invariant_of_connection"),
    "holonomy": ("develop_cube", "build_atlas", "holonomy_rep", "gauge_from_holonomy"),
    "fileio": ("read_one_form", "write_one_form"),
}


# work done by one call: (parameter, measure of its value), read after the call
_WORK = {
    "algebra.group_log": ("g", lambda g: math.prod(np.shape(g)[:-2])),
    "algebra.group_exp": ("X", lambda X: math.prod(np.shape(X)[:-1])),
    "minimize.lattice_gradient": ("u", lambda u: math.prod(u.lattice.dims)),
    "holonomy.develop_cube": ("shape", math.prod),
    "fileio.read_one_form": ("path", os.path.getsize),
    "fileio.write_one_form": ("path", os.path.getsize),
}


class Patches:
    """Replaces package functions under all their bindings; `restore` undoes it."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in [m for key, m in list(sys.modules.items())
                    if m is not None and (key == "skyrme" or key.startswith("skyrme."))]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    phase: str
    end: float = 0.0
    error: str = ""
    work: int = 0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    """Records one span per wrapped call; `phase` tags spans by benchmark phase."""

    spans: list = field(default_factory=list)
    phase: str = "ops"
    _stack: list = field(default_factory=list)

    def install(self, patches: Patches, skyrme_modules: dict) -> None:
        for layer, names in LAYERS.items():
            for name in names:
                patches.wrap(skyrme_modules[layer], name,
                             functools.partial(self._wrapper, f"{layer}.{name}"))

    def _wrapper(self, qualname: str, fn):
        work = None
        if qualname in _WORK:
            param, measure = _WORK[qualname]
            signature = inspect.signature(fn)
            if param not in signature.parameters:
                raise RuntimeError(f"{qualname} has no parameter {param!r} to measure")

            def work(args, kwargs):
                return measure(signature.bind(*args, **kwargs).arguments[param])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(qualname, 0.0, self._stack[-1] if self._stack else -1, self.phase)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].children_s += span.duration
                if work is not None and not span.error:
                    span.work = work(args, kwargs)
        return traced

    def write(self, path) -> None:
        """All spans as JSON lines: name, phase, start, end, parent index, error, work."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.phase, span.start, span.end,
                                     span.parent, span.error, span.work]) + "\n")

    def check_nesting(self) -> None:
        """Every span's children must fit inside it."""
        for span in self.spans:
            if span.self_s < -1e-9:
                raise RuntimeError(f"span {span.name} has children longer than itself "
                                   f"({span.children_s} > {span.duration})")

    def under(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, terminations: dict) -> dict:
    """Per-layer metrics from the spans of the `ops` phase (file writes from `setup`)."""
    calls, total, self_s, work, range_errors = {}, {}, {}, {}, {}
    for span in tracer.spans:
        key = (span.phase, span.name)
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + span.duration
        self_s[key] = self_s.get(key, 0.0) + span.self_s
        work[key] = work.get(key, 0) + span.work
        if span.error == "LogRangeError":
            range_errors[key] = range_errors.get(key, 0) + 1

    def get(table, name, phase="ops"):
        return table.get((phase, name), 0)

    out = {}
    for alg_fn, extra in (("group_log", True), ("group_exp", False)):
        name = f"algebra.{alg_fn}"
        out[f"{name}.calls"] = get(calls, name)
        out[f"{name}.s"] = get(total, name)
        out[f"{name}.matrices"] = get(work, name)
        out[f"{name}.ns_per_matrix"] = 1e9 * _rate(get(total, name), get(work, name))
        if extra:
            out[f"{name}.range_errors"] = get(range_errors, name)
    for name in ("lattice.log_derivative", "lattice.skyrme_energy_map",
                 "lattice.gauge_transform", "minimize.lattice_gradient",
                 "invariants.sector_of", "holonomy.develop_cube", "holonomy.build_atlas"):
        out[f"{name}.calls"] = get(calls, name)
        out[f"{name}.self_s"] = get(self_s, name)
    out["lattice.skyrme_energy_map.range_rejects"] = get(range_errors, "lattice.skyrme_energy_map")
    for name in ("minimize.lattice_gradient", "holonomy.develop_cube"):
        out[f"{name}.sites_per_s"] = _rate(get(work, name), get(total, name))
    for name in ("minimize.minimize_map", "invariants.topological_charge",
                 "invariants.one_dim_invariant", "holonomy.holonomy_rep",
                 "holonomy.gauge_from_holonomy"):
        out[f"{name}.self_s"] = get(self_s, name)
    out["invariants.invariant_of_connection.calls"] = get(calls, "invariants.invariant_of_connection")
    out["fileio.read_one_form.calls"] = get(calls, "fileio.read_one_form")
    out["fileio.read_one_form.s"] = get(total, "fileio.read_one_form")
    out["fileio.read_one_form.bytes"] = get(work, "fileio.read_one_form")
    out["fileio.write_one_form.s"] = get(total, "fileio.write_one_form", "setup")
    out["fileio.write_one_form.bytes"] = get(work, "fileio.write_one_form", "setup")

    # descent counts: only calls made by minimize_map
    iterations = evals = rejects = 0
    for span in tracer.spans:
        if span.phase != "ops" or not tracer.under(span, "minimize.minimize_map"):
            continue
        if span.name == "minimize.lattice_gradient":
            iterations += 1
        elif span.name == "lattice.skyrme_energy_map":
            evals += 1
            rejects += span.error == "LogRangeError"
    out["minimize.iterations"] = iterations
    out["minimize.energy_evals"] = evals
    out["minimize.accept_ratio"] = _rate(iterations, evals)
    out["minimize.range_reject_share"] = _rate(rejects, evals)
    for reason in ("converged", "max_iters", "stalled", "sector_drift"):
        out[f"minimize.termination.{reason}"] = terminations.get(reason, 0)
    return out
