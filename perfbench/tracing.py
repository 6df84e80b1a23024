"""Spans around calls into swsh's public functions, recorded from outside.

install() wraps each function in TARGETS and puts the wrapper at every
name any loaded swsh module binds it to (`profile` is imported by name
into transform, operators, bundle and grid, for example).  A target a
later version no longer has is skipped, so its layer reports zero calls.

Spans live in flat arrays (name id, parent index, start, end, amount) and
are written out once, when the run ends.  Span times are wall time
(time.perf_counter), like every time the benchmark reports.  A span's
self time is its duration minus the durations of its child spans.
"""

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

# module, attribute, span name, what the span's amount counts
TARGETS = (
    ("swsh.kernels", "eval_profile", "kernels.eval_profile", "points"),
    ("swsh.kernels", "goldberg_terms", "kernels.term_table", None),
    ("swsh.kernels", "differentiate_terms", "kernels.term_table", None),
    ("swsh.modes", "profile", "modes.profile", None),
    ("swsh.transform", "analyze", "transform.analyze", None),
    ("swsh.transform", "synthesize", "transform.synthesize", None),
    ("swsh.transform", "read_coefficients_json", "transform.json_read", None),
    ("swsh.transform", "write_coefficients_json", "transform.json_write", None),
    ("swsh.grid", "make_grid", "grid.make_grid", None),
    ("swsh.grid", "sample_swsh", "grid.sample", None),
    ("swsh.grid", "read_grid_csv", "grid.csv_read", "bytes_in"),
    ("swsh.grid", "write_grid_csv", "grid.csv_write", "bytes_out"),
    ("swsh.serial", "json_dumps", "serial.json_dumps", None),
    ("swsh.operators", "apply_grid", "operators.apply_grid", None),
    ("swsh.bundle", "apply_J_rotation", "bundle.rotation", None),
    ("swsh.bundle", "apply_projected_orbital", "bundle.orbital", None),
    ("swsh.bundle", "apply_projected_spin", "bundle.spin", None),
    ("swsh.multiplets", "factor_search", "multiplets.factor_search", None),
)


def _points(args, kwargs):
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return float(getattr(theta, "size", 1))


def _file_size(path):
    try:
        return float(os.path.getsize(path))
    except OSError:
        return 0.0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.amount.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name, fn, amount):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)
                if amount == "points":
                    self.amount[idx] = _points(args, kwargs)
                elif amount == "bytes_in":
                    self.amount[idx] = _file_size(args[0] if args else kwargs["path"])
                elif amount == "bytes_out":
                    self.amount[idx] = _file_size(args[1] if len(args) > 1 else kwargs["path"])

        return traced

    def save(self, path):
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            amount=np.frombuffer(self.amount),
        )

    def totals(self, lo=float("-inf"), hi=float("inf")):
        """Per span name: calls, seconds, self seconds, amount; spans starting in [lo, hi).

        Two derived counts: modes.profile.built, the profile calls that
        built a term table, and bundle.rotation.points, the profile points
        evaluated anywhere under apply_J_rotation.
        """
        n = len(self.start)
        ids = self._ids
        rot, table, prof, ev = (
            ids.get(k, -2)
            for k in ("bundle.rotation", "kernels.term_table", "modes.profile",
                      "kernels.eval_profile")
        )
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        under_rot = [False] * n
        built = set()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_rot[i] = under_rot[p]
            if self.name[i] == rot:
                under_rot[i] = True
            elif self.name[i] == table:
                while p >= 0 and self.name[p] != prof:
                    p = self.parent[p]
                if p >= 0:
                    built.add(p)
        out = {}
        for i in range(n):
            if not lo <= self.start[i] < hi:
                continue
            key = self.names[self.name[i]]
            out[key + ".calls"] = out.get(key + ".calls", 0.0) + 1.0
            out[key + ".s"] = out.get(key + ".s", 0.0) + dur[i]
            out[key + ".self_s"] = out.get(key + ".self_s", 0.0) + dur[i] - child[i]
            out[key + ".amount"] = out.get(key + ".amount", 0.0) + self.amount[i]
            if i in built:
                out["modes.profile.built"] = out.get("modes.profile.built", 0.0) + 1.0
            if under_rot[i] and self.name[i] == ev:
                out["bundle.rotation.points"] = (
                    out.get("bundle.rotation.points", 0.0) + self.amount[i]
                )
        return out


def install(tracer):
    """Wrap every target at every name a loaded swsh module binds it to."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "swsh" or name.startswith("swsh."))
    ]
    for modname, attr, span, amount in TARGETS:
        original = getattr(sys.modules.get(modname), attr, None)
        if original is None:
            continue
        traced = tracer.wrap(span, original, amount)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def add_totals(acc, tot):
    for key, value in tot.items():
        acc[key] = acc.get(key, 0.0) + value
    return acc


# (metric, unit, key in totals); per-op metrics divide the key's total by
# the number of timed ops.
_PER_OP = (
    ("kernels.eval_calls", "calls/op", "kernels.eval_profile.calls"),
    ("kernels.eval_points", "points/op", "kernels.eval_profile.amount"),
    ("kernels.eval_s", "s/op", "kernels.eval_profile.s"),
    ("kernels.term_tables_built", "tables/op", "kernels.term_table.calls"),
    ("kernels.term_build_s", "s/op", "kernels.term_table.s"),
    ("modes.profile_calls", "calls/op", "modes.profile.calls"),
    ("modes.profile_self_s", "s/op", "modes.profile.self_s"),
    ("transform.analyze_calls", "calls/op", "transform.analyze.calls"),
    ("transform.analyze_self_s", "s/op", "transform.analyze.self_s"),
    ("transform.synthesize_calls", "calls/op", "transform.synthesize.calls"),
    ("transform.synthesize_self_s", "s/op", "transform.synthesize.self_s"),
    ("transform.json_read_s", "s/op", "transform.json_read.s"),
    ("transform.json_write_s", "s/op", "transform.json_write.s"),
    ("grid.csv_read_s", "s/op", "grid.csv_read.s"),
    ("grid.csv_write_s", "s/op", "grid.csv_write.s"),
    ("serial.json_dumps_s", "s/op", "serial.json_dumps.s"),
    ("grid.make_grid_s", "s/op", "grid.make_grid.s"),
    ("grid.sample_s", "s/op", "grid.sample.s"),
    ("operators.apply_grid_calls", "calls/op", "operators.apply_grid.calls"),
    ("operators.apply_grid_self_s", "s/op", "operators.apply_grid.self_s"),
    ("bundle.rotation_self_s", "s/op", "bundle.rotation.self_s"),
    ("bundle.resample_points", "points/op", "bundle.rotation.points"),
    ("bundle.orbital_self_s", "s/op", "bundle.orbital.self_s"),
    ("bundle.spin_self_s", "s/op", "bundle.spin.self_s"),
    ("multiplets.factor_search_calls", "calls/op", "multiplets.factor_search.calls"),
    ("multiplets.factor_search_s", "s/op", "multiplets.factor_search.s"),
    ("cli.import_s", "s/op", "cli.import.s"),
    ("cli.main_s", "s/op", "cli.main.s"),
    ("cli.process_s", "s/op", "cli.process.s"),
)

# totals of the traced run's one set-up pass
_SETUP = (
    ("setup.kernels.term_tables_built", "count", "kernels.term_table.calls"),
    ("setup.kernels.term_build_s", "s", "kernels.term_table.s"),
    ("setup.grid.make_grid_s", "s", "grid.make_grid.s"),
    ("setup.bundle.resample_points", "points", "bundle.rotation.points"),
)


def layer_metrics(timed, setup, n_ops, op_p50_ms, speed):
    """Per-layer metrics from the timed-phase and set-up totals.

    Every time is multiplied by speed, the run's factor to reference
    machine speed (common.at_reference_speed).
    """
    def scaled(unit, value):
        return value * speed if unit in ("s", "s/op") else value

    out = {}
    for name, unit, key in _PER_OP:
        out[name] = {"value": scaled(unit, timed.get(key, 0.0) / n_ops), "unit": unit}
    eval_s = timed.get("kernels.eval_profile.s", 0.0) * speed
    points = timed.get("kernels.eval_profile.amount", 0.0)
    out["kernels.points_per_s"] = {
        "value": points / eval_s if eval_s else 0.0, "unit": "points/s"
    }
    csv_bytes = timed.get("grid.csv_read.amount", 0.0) + timed.get("grid.csv_write.amount", 0.0)
    out["grid.csv_bytes"] = {"value": csv_bytes / n_ops, "unit": "bytes/op"}
    calls = timed.get("modes.profile.calls", 0.0)
    reused = calls - timed.get("modes.profile.built", 0.0)
    out["modes.table_reuse_ratio"] = {
        "value": reused / calls if calls else 0.0, "unit": "ratio"
    }
    for name, unit, key in _SETUP:
        out[name] = {"value": scaled(unit, setup.get(key, 0.0)), "unit": unit}
    out["trace.op_p50_ms"] = {"value": op_p50_ms, "unit": "ms"}
    return out
