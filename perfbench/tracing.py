"""Per-layer metrics for the --trace 1 run.

Spans come from wrappers installed around the functions named in the
`__all__` of each ppcell layer module. Each wrapper is rebound under every
name any ppcell module holds for the function, so calls between and within
modules pass through it. Spans are kept in memory and written out at the end.

Wrapping costs about a microsecond a call, which would swamp layers that
make tens of thousands of calls per op. So traced spans give counts, while
busy time comes from replaying, untraced, the recorded arguments of every
call that enters a layer from another one (a segment): a layer's self time
is its segments' replayed time minus that of the segments they call. The
simulator's private attachment step is invisible to the wrappers and is
timed by a probe through the public simulator functions instead.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("specfun", "mgf", "analytics", "simulator", "cli")
QUADRATURE = "Quadrature"

PER_LAYER = (
    ("specfun.calls_per_op", "count"),
    ("specfun.self_ms_per_op", "ms"),
    ("mgf.calls_per_op", "count"),
    ("mgf.self_ms_per_op", "ms"),
    ("analytics.rate_calls_per_op", "count"),
    ("analytics.rate_self_ms_per_op", "ms"),
    ("analytics.evals_per_rate", "count"),
    ("analytics.coverage_self_ms_per_op", "ms"),
    ("analytics.fallback_ratio", "ratio"),
    ("simulator.rng_us", "us"),
    ("simulator.geometry_us", "us"),
    ("simulator.sir_us", "us"),
    ("simulator.attach_us", "us"),
    ("simulator.users_per_realization", "count"),
    ("simulator.block_self_ms_per_op", "ms"),
    ("cli.self_ms_per_op", "ms"),
    ("cli.rows_per_op", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _noop(*args, **kwargs) -> None:
    return None


class Tracer:
    """Records spans, layer-entry segments with their arguments, and counts."""

    def __init__(self) -> None:
        self.funcs: list[tuple[str, str, object]] = []  # (layer, name, original)
        self.spans: list[tuple[int, int, int, float, float, int]] = []  # (id, parent id, func, start, end, segment)
        self.segments: list[tuple[int, tuple, dict, int]] = []  # (func, args, kwargs, parent segment)
        self.absent: list[str] = []
        self.evals = 0  # outermost specfun or bracket calls beneath a rate span
        self.rate_calls = 0  # outermost analytics rate_* calls
        self.closed = 0  # outermost closed-form rate requests
        self.closed_by_quadrature = 0
        self._stack: list[tuple[int, str, int, bool]] = []  # (id, layer, segment, is_eval)
        self._ids = itertools.count()
        self._rate_depth = 0
        self._closed_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"ppcell.{layer}")
            except ModuleNotFoundError:
                self.absent.append(layer)
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[id(fn)] = self._wrap(len(self.funcs), layer, name, fn)
                    self.funcs.append((layer, name, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name == "ppcell" or module_name.startswith("ppcell."):
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fid: int, layer: str, name: str, fn):
        is_eval = layer == "specfun" or (layer == "mgf" and "bracket" in name)
        is_rate = layer == "analytics" and name.startswith("rate_")
        is_closed = is_rate and name != "rate_quadrature"
        stack, spans, segments, ids = self._stack, self.spans, self.segments, self._ids
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[1] != layer:
                segment = len(segments)
                segments.append((fid, args, kwargs, parent[2] if parent else -1))
            else:
                segment = parent[2]
            if is_eval and self._rate_depth and not (parent and parent[3]):
                self.evals += 1
            if is_rate:
                self.rate_calls += self._rate_depth == 0
                self._rate_depth += 1
            outer_closed = is_closed and self._closed_depth == 0
            self._closed_depth += is_closed
            sid = next(ids)
            stack.append((sid, layer, segment, is_eval))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent[0] if parent else -1, fid, t0, t1, segment))
                self._rate_depth -= is_rate
                self._closed_depth -= is_closed
            if outer_closed:
                self.closed += 1
                method = getattr(getattr(result, "method", None), "value", None)
                self.closed_by_quadrature += method == QUADRATURE
            return result

        return wrapper

    def replay_self_ms(self) -> dict[str, float]:
        """Self time per layer key (ms), from replaying every segment untraced."""
        # the cost of timing one call, measured on a no-op with the same arguments
        sample = self.segments[:2000]
        cost = []
        for _, args, kwargs, _ in sample:
            t0 = time.perf_counter()
            _noop(*args, **kwargs)
            cost.append(time.perf_counter() - t0)
        call_cost = statistics.median(cost) if cost else 0.0
        self_ms: dict[str, float] = defaultdict(float)
        for fid, args, kwargs, parent in self.segments:
            fn = self.funcs[fid][2]
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except Exception:  # it raised when traced too; its time still counts
                pass
            ms = 1e3 * (time.perf_counter() - t0 - call_cost)
            self_ms[self.key(fid)] += ms
            if parent >= 0:
                self_ms[self.key(self.segments[parent][0])] -= ms
        return self_ms

    def key(self, fid: int) -> str:
        layer, name, _ = self.funcs[fid]
        if layer == "analytics":
            return "analytics.rate" if name.startswith("rate_") else "analytics.coverage"
        return layer

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if self.funcs[span[2]][0] == layer)

    def self_durations(self, layer: str, name: str) -> list[tuple[float, tuple]]:
        """Traced self time (s) of each span of one function, with its segment's arguments."""
        children = defaultdict(float)
        for span in self.spans:
            children[span[1]] += span[4] - span[3]
        return [
            (t1 - t0 - children[sid], self.segments[segment][1])
            for sid, _, fid, t0, t1, segment in self.spans
            if self.funcs[fid][:2] == (layer, name)
        ]

    def write(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span_id", "parent_id", "layer", "function", "start_s", "end_s"])
            for sid, parent, fid, t0, t1, _ in self.spans:
                layer, name, _ = self.funcs[fid]
                out.writerow([sid, parent, layer, name, f"{t0:.9f}", f"{t1:.9f}"])


def probe_simulator(wl, seeds: list[int], mask_us: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-realization cost of the simulator sub-layers, through public calls.

    Runs each Monte Carlo case of the workload on the (seed, rid) inputs its
    traced ops used. Attachment is apply_idle_mode(d) without precomputed
    assignments, minus the traced mask-only apply_idle_mode time.
    """
    try:
        sim = importlib.import_module("ppcell.simulator")
        params = importlib.import_module("ppcell.mgf").NetworkParams
        fns = [getattr(sim, n) for n in ("SimConfig", "sample_deployment", "apply_idle_mode", "sample_sir")]
    except (ModuleNotFoundError, AttributeError) as exc:
        return {}, [f"simulator probe absent: {exc}"]
    sim_config, sample_deployment, apply_idle_mode, sample_sir = fns
    perf_counter = time.perf_counter
    totals = defaultdict(float)
    notes = []
    n_total = 0
    for case in wl.sim_configs:
        p = params(lambda_bs=case.lambda_bs, lambda_ue=case.lambda_ue, beta=case.beta)
        t = defaultdict(float)
        for seed in seeds:
            cfg = sim_config(n_bs_target=case.n_bs, n_realizations=case.n_real, seed=seed)
            for rid in range(case.n_real):
                t0 = perf_counter()
                d = sample_deployment(p, cfg, rid)
                t1 = perf_counter()
                if case.idle:
                    d = apply_idle_mode(d)
                t2 = perf_counter()
                rng = np.random.default_rng([seed, rid, 1])
                t3 = perf_counter()
                sample_sir(d, p, cfg, rng)
                t4 = perf_counter()
                t["geometry"] += t1 - t0
                t["idle"] += t2 - t1
                t["rng"] += t3 - t2
                t["sir"] += t4 - t3
                t["users"] += d.ue_positions.shape[0]
        n = len(seeds) * case.n_real
        us = {k: 1e6 * v / n for k, v in t.items() if k != "users"}
        us["attach"] = us["idle"] - mask_us.get(case.label, 0.0) if case.idle else 0.0
        users = t["users"] / n
        realization = us["geometry"] + us["idle"] + us["rng"] + us["sir"]
        idle = (f"+ attach {us['attach']:.1f} + mask {us['idle'] - us['attach']:.1f} " if case.idle else "")
        notes.append(
            f"probe {case.label}: realization {realization:.1f} us = geometry {us['geometry']:.1f} {idle}"
            f"+ rng {us['rng']:.1f} + sir {us['sir']:.1f}; attach share {us['attach'] / realization:.1%}; "
            f"users {users:.1f}"
        )
        for k in ("geometry", "rng", "sir", "attach"):
            totals[k] += us[k] * n
        totals["users"] += t["users"]
        n_total += n
    return {k: v / n_total for k, v in totals.items()}, notes
