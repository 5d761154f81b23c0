"""Span tracing of modalbayes' public functions from outside the package.

Every traced function is wrapped at each name under which the package looks
it up (``modalbayes.cli.load_dataset`` as well as
``modalbayes.data.load_dataset``; ``modalbayes.inference.build_H`` as well as
``modalbayes.uncertainty.build_H``), because the modules bind imported names.
The wrappers are installed only for the duration of one traced op, so
untraced ops run the unmodified package.

Spans are kept in memory as ``(op, span_id, parent_id, name, start, end,
info)`` tuples and written out by the worker at exit.  A span's self time is
its duration minus the durations of its direct children.  The sizes of the
files a writer wrote are read once the op's clock has stopped, so no span
pays for them.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

# (layer, function, the end-to-end metric and workload a change here should move)
LAYER_FUNCTIONS = [
    ("cli", "main", "op_p50_s on cli_shear10; absent elsewhere"),
    ("cli", "build_parser", "op_p50_s on cli_shear10; absent elsewhere"),
    ("cli", "cmd_simulate", "op_p50_s on cli_shear10; absent elsewhere"),
    ("cli", "cmd_calibrate", "op_p50_s on cli_shear10; absent elsewhere"),
    ("cli", "cmd_monitor", "op_p50_s on cli_shear10; absent elsewhere"),
    ("cli", "cmd_report", "op_p50_s on cli_shear10; absent elsewhere"),
    ("io", "save_result", "op_p50_s on cli_shear10"),
    ("io", "load_result", "op_p50_s on cli_shear10"),
    ("io", "save_model", "op_p50_s on cli_shear10"),
    ("io", "load_model", "op_p50_s on cli_shear10"),
    ("io", "write_trace_csv", "op_p50_s on cli_shear10"),
    ("io", "write_cov_table_csv", "op_p50_s on cli_shear10"),
    ("io", "write_matrix_csv", "op_p50_s on cli_shear10"),
    ("io", "write_pruning_csv", "op_p50_s on cli_shear10"),
    ("io", "write_manifest", "op_p50_s on cli_shear10"),
    ("data", "save_dataset", "op_p50_s on cli_shear10"),
    ("data", "load_dataset", "op_p50_s on cli_shear10"),
    ("bench", "simulate_modal_data",
     "op_p50_s on cli_shear10; setup_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("model", "eigen_solve",
     "op_p50_s on cli_shear10; setup_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("model", "assemble_stiffness", "op_p50_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("model", "build_H", "op_p50_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("model", "build_F", "op_p50_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("model", "build_G", "op_p50_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("model", "build_b", "op_p50_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("model", "build_c", "op_p50_s on monitor_stream_shear30 and calib_monitor_shear100"),
    ("inference", "run_calibration", "op_p50_s on calib_monitor_shear100 and cli_shear10"),
    ("inference", "run_monitoring", "op_p50_s on monitor_stream_shear30"),
    ("inference", "update_mode_shapes", "op_p50_s on calib_monitor_shear100 and monitor_stream_shear30"),
    ("inference", "update_eta", "op_p50_s on monitor_stream_shear30"),
    ("inference", "update_frequencies", "op_p50_s on monitor_stream_shear30"),
    ("inference", "update_rho", "op_p50_s on monitor_stream_shear30"),
    ("inference", "update_theta", "op_p50_s on calib_monitor_shear100 and monitor_stream_shear30"),
    ("inference", "update_beta", "op_p50_s on monitor_stream_shear30"),
    ("inference", "update_alpha", "op_p50_s on monitor_stream_shear30"),
    ("inference", "update_lambda_zeta", "op_p50_s on monitor_stream_shear30"),
    ("inference", "objective", "op_p50_s on monitor_stream_shear30"),
    ("uncertainty", "joint_hessian", "op_p50_s and peak_rss_mb on calib_monitor_shear100"),
    ("uncertainty", "invert_hessian", "op_p50_s and peak_rss_mb on calib_monitor_shear100"),
    ("uncertainty", "theta_covariance_from", "op_p50_s on monitor_stream_shear30"),
    ("uncertainty", "theta_covariance", "op_p50_s on monitor_stream_shear30"),
    ("uncertainty", "cov_report", "op_p50_s on cli_shear10"),
    ("damage", "build_report", "op_p50_s on cli_shear10; under 1% of the op on monitor_stream_shear30"),
    ("damage", "write_ratios_csv", "op_p50_s on cli_shear10"),
    ("damage", "write_probability_csv", "op_p50_s on cli_shear10"),
    ("damage", "save_report", "op_p50_s on cli_shear10"),
]

# File writers, with the position of their path argument; their output sizes
# add up to io.bytes_written.
WRITERS = {
    "io.save_result": -1, "io.save_model": -1, "io.write_trace_csv": -1,
    "io.write_cov_table_csv": -1, "io.write_matrix_csv": -1, "io.write_pruning_csv": -1,
    "io.write_manifest": 0, "data.save_dataset": -1, "damage.write_ratios_csv": -1,
    "damage.write_probability_csv": -1, "damage.save_report": -1,
}
STAGES = {"inference.run_calibration": "calib", "inference.run_monitoring": "monitor"}
# Covariance work a stage does once after its sweeps; excluded from sweep cost.
COVARIANCE_SPANS = {"uncertainty.theta_covariance", "uncertainty.joint_hessian",
                    "uncertainty.invert_hessian"}

# Per-layer metrics besides <layer>.<function>.self_s and .calls:
# name -> (unit, the end-to-end metric and workload it should move)
EXTRA_METRICS = {
    "io.bytes_written": ("bytes", "op_p50_s on cli_shear10"),
    "inference.calib_sweeps": ("count", "op_p50_s on calib_monitor_shear100 and cli_shear10"),
    "inference.monitor_sweeps": ("count", "op_p50_s and alarm_balanced_accuracy on monitor_stream_shear30"),
    "inference.calib_sweep_s": ("s", "op_p50_s on calib_monitor_shear100 and cli_shear10"),
    "inference.monitor_sweep_s": ("s", "op_p50_s on monitor_stream_shear30"),
    "trace.op_wall_s": ("s", "op_p50_s on every workload"),
    "trace.unattributed_s": ("s", "nothing: op time outside every traced function"),
    "trace.overhead_pct": ("%", "nothing: traced over untraced wall time of the same op"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> (unit, what it should move)."""
    out = {}
    for layer, func, moves in LAYER_FUNCTIONS:
        out[f"{layer}.{func}.self_s"] = ("s", moves)
        out[f"{layer}.{func}.calls"] = ("count", moves)
    out.update(EXTRA_METRICS)
    return out


class Tracer:
    """Records spans of the wrapped functions while an op is traced."""

    def __init__(self, package: str = "modalbayes"):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = None
        self._patches = self._find_bindings(package)

    def _find_bindings(self, package: str) -> list:
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))]
        patches = []
        for layer, func, _ in LAYER_FUNCTIONS:
            home = sys.modules.get(f"{package}.{layer}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                continue  # the function no longer exists; its metrics read 0
            wrapper = self._wrap(f"{layer}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original, wrapper))
        return patches

    def _wrap(self, name: str, fn):
        writer_arg = WRITERS.get(name)
        is_stage = name in STAGES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
            end = time.perf_counter()
            info = None
            if writer_arg is not None:
                info = kwargs["path"] if "path" in kwargs else args[writer_arg]  # sized in trace_op
            elif is_stage:
                info = result.iterations
            self.spans.append((self._op, span_id, parent, name, start, end, info))
            return result

        return wrapper

    def trace_op(self, op_id, fn):
        """Run ``fn()`` as op ``op_id`` with every wrapper installed."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self._op = op_id
        first = len(self.spans)
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((op_id, span_id, None, "op", start, end, None))
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)
            for i in range(first, len(self.spans)):
                op, sid, parent, name, start, end, info = self.spans[i]
                if name in WRITERS:
                    self.spans[i] = (op, sid, parent, name, start, end, os.stat(info).st_size)


def summarize(spans: list, op_ids: list, overhead_pct: float) -> dict:
    """Per-op means of every per-layer metric over the traced ops ``op_ids``."""
    wanted = set(op_ids)
    spans = [s for s in spans if s[0] in wanted]
    children: dict[int, float] = {}
    cov_children: dict[int, float] = {}
    for _, _, parent, name, start, end, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
            if name in COVARIANCE_SPANS:
                cov_children[parent] = cov_children.get(parent, 0.0) + (end - start)

    metrics = {name: 0.0 for name in per_layer_metrics()}  # totals, then per op
    stage_sweeps = {"calib": [], "monitor": []}
    stage_sweep_s = {"calib": [], "monitor": []}
    walls = []
    for _, span_id, _, name, start, end, info in spans:
        dur = end - start
        self_s = dur - children.get(span_id, 0.0)
        if name == "op":
            walls.append(dur)
            metrics["trace.unattributed_s"] += self_s
            continue
        metrics[f"{name}.self_s"] += self_s
        metrics[f"{name}.calls"] += 1
        if name in WRITERS:
            metrics["io.bytes_written"] += info
        elif name in STAGES and info:
            stage = STAGES[name]
            stage_sweeps[stage].append(info)
            stage_sweep_s[stage].append((dur - cov_children.get(span_id, 0.0)) / info)
    nops = max(len(wanted), 1)
    for name in metrics:
        metrics[name] /= nops
    for stage in ("calib", "monitor"):
        if stage_sweeps[stage]:
            metrics[f"inference.{stage}_sweeps"] = statistics.fmean(stage_sweeps[stage])
            metrics[f"inference.{stage}_sweep_s"] = statistics.fmean(stage_sweep_s[stage])
    metrics["trace.op_wall_s"] = statistics.fmean(walls) if walls else 0.0
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics
