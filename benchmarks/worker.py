"""One workload process: set up, run ops in a closed loop, write the results.

The BLAS thread count is pinned before numpy is imported.  ``setup_s`` runs
from the first statement of this fresh interpreter (before ``import
modalbayes``) to the end of the warm-up op.  With ``--trace 1`` every op runs
twice on the same input, untraced and traced, so the tracing overhead is
measured pair by pair; which of the two goes first alternates from op to op.

The host's CPU speed swings by up to 1.6x over seconds (other tenants of the
shared machine), far more than a change to the package should be able to
hide in.  So, on a workload whose ops follow those swings
(``Workload.scaled``), after each step of the set-up and after every op the
worker times a fixed reference loop of its own (pure Python, small and
mid-size numpy), and every set-up and op time is scaled by ``REF_S`` over
the median reference time within ``REF_WINDOW_S`` of it: the figures are
seconds at the speed at which one reference call takes ``REF_S``.  The wall
times, less the reference calls, are kept beside them.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import modalbayes  # noqa: E402

if not Path(modalbayes.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"modalbayes was imported from {modalbayes.__file__}, not from {SRC}")

from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Detection  # noqa: E402

REF_S = 0.003  # scaled times are seconds at the speed where one reference call takes this long
REF_SHARE = 0.05  # reference calls after a set-up or an op take this share of its time (at least one)
REF_WINDOW_S = 0.5  # reference calls ending this close to an op set its speed

_rng = np.random.default_rng(0)
_REF_SMALL = _rng.standard_normal((30, 30)) * 0.05
_REF_SHIFT = 0.5 * np.eye(30)
_REF_MID = _rng.standard_normal((200, 200)) * 0.01 + np.eye(200)
_REF_RHS = _rng.standard_normal((200, 200))


def reference_call() -> None:
    """Fixed work like the package's: an interpreter loop, many small and one mid-size product."""
    s = 0
    for i in range(7000):
        s += i * i % 7
    a = _REF_SMALL
    for _ in range(100):
        a = a @ _REF_SMALL + _REF_SHIFT
    np.linalg.solve(_REF_MID, _REF_RHS)


class Speedometer:
    """Times the reference loop between timed work, to scale that work to a fixed speed.

    When not ``enabled`` it times nothing and leaves wall times as they are.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.calls: list[tuple[float, float]] = []  # (end, seconds) of each reference call
        self.busy = 0.0  # seconds spent in reference calls

    def sample(self, busy_s: float) -> None:
        """Time reference calls for ``REF_SHARE`` of ``busy_s``, at least one."""
        if not self.enabled:
            return
        until = time.perf_counter() + REF_SHARE * busy_s
        while True:
            start = time.perf_counter()
            reference_call()
            end = time.perf_counter()
            self.calls.append((end, end - start))
            self.busy += end - start
            if end >= until:
                return

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the median reference call ending within the window of [start, end]."""
        if not self.enabled:
            return 1.0
        near = [s for t, s in self.calls if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        return REF_S / statistics.median(near)


def environment() -> dict:
    """What a figure needs to be reproduced: versions, BLAS, cores and source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "modalbayes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    # the ceiling keeps git from reporting a repository that merely encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_op(workload, k: int, failures: list, traced=None):
    """Time one op, then check it; returns (start, seconds, Detection or None)."""
    start = time.perf_counter()
    try:
        out = traced(k, lambda: workload.op(k)) if traced else workload.op(k)
    except Exception:  # an op that raises is a failed op; the loop goes on
        failures.append(traceback.format_exc())
        return start, time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    try:
        return start, elapsed, workload.check(k, out)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        failures.append(f"op {k}: {exc!r}")
        return start, elapsed, None


def balanced_accuracy(det: Detection) -> float:
    """Mean of the alarm recall on damaged and on healthy substructures, over the classes seen."""
    recalls = []
    if det.hits + det.misses:
        recalls.append(det.hits / (det.hits + det.misses))
    if det.quiet + det.false_alarms:
        recalls.append(det.quiet / (det.quiet + det.false_alarms))
    return statistics.fmean(recalls) if recalls else 0.0  # 0 only when every op failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit after set-up and warm-up")
    parser.add_argument("--out", required=True, help="JSON file for the results")
    parser.add_argument("--spans", help="JSONL file for the spans of a traced run")
    args = parser.parse_args(argv)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root, prefix=args.workload + "-") as workdir:
        return measure(args, WORKLOADS[args.workload](Path(workdir)))


def measure(args, workload) -> int:
    # the speed is sampled after each step of the set-up, so that it spans it
    speed = Speedometer(workload.scaled)
    speed.sample(time.perf_counter() - T0)  # after the imports
    step = time.perf_counter()
    workload.setup(args.seed)
    speed.sample(time.perf_counter() - step)
    step = time.perf_counter()
    warm_failures: list = []
    _, _, warm = run_op(workload, 0, warm_failures)
    if warm is None:
        sys.stderr.write("warm-up op failed:\n" + "".join(warm_failures))
        return 1
    setup_end = time.perf_counter()
    setup_wall_s = setup_end - T0 - speed.busy  # reference calls are not set-up
    speed.sample(setup_end - step)
    setup_s = setup_wall_s * speed.scale(T0, setup_end)
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    tracer = Tracer() if args.trace else None
    ops, failures, ratios, traced_ops = [], [], [], []  # ops: (input, start, wall seconds)
    det = Detection()  # each input counted once: its output is the same on every repeat
    seen = set()
    attempted = 0
    start = time.perf_counter()
    k = 1
    while True:
        # a traced run times each input twice; the traced op goes first on even ops
        if tracer is not None and k % 2 == 0:
            _, traced_s, _ = run_op(workload, k, failures, traced=tracer.trace_op)
        op_start, elapsed, outcome = run_op(workload, k, failures)
        attempted += 1
        ops.append((k % workload.pool, op_start, elapsed))
        if tracer is not None:
            if k % 2 == 1:
                _, traced_s, _ = run_op(workload, k, failures, traced=tracer.trace_op)
            attempted += 1
            traced_ops.append(k)
            ratios.append(traced_s / elapsed)
            op_s = elapsed + traced_s
        else:
            op_s = elapsed
        if outcome is not None and k % workload.pool not in seen:
            det.add(outcome)
        seen.add(k % workload.pool)
        speed.sample(op_s)
        k += 1
        # start another op only if it is expected to finish within the run
        if time.perf_counter() - start + op_s > args.seconds:
            break

    failed = len(failures)
    wall = [t for _, _, t in ops]
    scaled = [t * speed.scale(s, s + t) for _, s, t in ops]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, "attempted": attempted,
        "failed": failed, "failures": failures, "op_times_s": scaled, "op_wall_times_s": wall,
        "env": environment(),
    }
    if tracer is not None:
        overhead = 100.0 * (statistics.median(ratios) - 1.0)
        result["per_layer"] = summarize(tracer.spans, traced_ops, overhead)
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    else:
        n = len(ops)
        result["metrics"] = {
            "op_p50_s": per_input_median(ops, scaled),
            "ops_per_s": n / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "alarm_balanced_accuracy": balanced_accuracy(det),
        }
        damaged = det.hits + det.misses
        healthy = det.quiet + det.false_alarms
        result["detail"] = {
            "ops": n, "inputs": len(seen),
            # the highest percentile with at least ten ops beyond it
            "op_p90_s": statistics.quantiles(scaled, n=10)[-1] if n >= 100 else None,
            "wall_op_p50_s": per_input_median(ops, wall),
            "wall_ops_per_s": n / sum(wall),
            "op_fail_rate": failed / attempted,
            "missed_alarm_rate": det.misses / damaged if damaged else None,
            "false_alarm_rate": det.false_alarms / healthy if healthy else None,
            "loss_err_max": max(det.loss_err) if det.loss_err else None,
            "calib_err_max": det.calib_err,
            "damaged": damaged, "healthy": healthy,
        }
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


def per_input_median(ops: list, times: list) -> float:
    """Median over the distinct inputs of each input's mean op time."""
    by_input: dict[int, list] = {}
    for (i, _, _), t in zip(ops, times):
        by_input.setdefault(i, []).append(t)
    return statistics.median(statistics.fmean(v) for v in by_input.values())


if __name__ == "__main__":
    sys.exit(main())
