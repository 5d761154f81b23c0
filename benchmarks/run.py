"""Benchmark of the modalbayes calibration/monitoring pipeline.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and builds nothing: the package is
imported from ``src/``.  Set-up runs ``SETUPS`` times, each in a fresh
worker interpreter (``benchmarks/worker.py``); the last of them goes on to
measure ops for ``--seconds`` seconds.  The last line of standard output is
one JSON object: with ``--trace 0`` it holds every end-to-end metric of
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.  The line
before it lists the environment; full results go to ``.bench_out/``.

End-to-end metrics (untraced run).  Times are scaled to a fixed CPU speed,
measured by a reference loop timed beside them (see ``worker.py``), because
the shared host's speed swings far more than the bounds; the ``detail:`` line
gives the wall-clock figures too.

* ``setup_s`` -- median over the set-ups of the time from a fresh interpreter,
  before ``import modalbayes``, to the end of the warm-up op;
* ``op_p50_s`` -- median over the run's distinct inputs of each input's mean
  op time; ``ops_per_s`` -- ops per second of op time, one client in a
  closed loop;
* ``peak_rss_mb`` -- ``ru_maxrss`` of the measuring worker;
* ``alarm_balanced_accuracy`` -- mean of the alarm recall on damaged and on
  healthy substructures over the run's distinct inputs.

Every op's output is checked (see ``workloads.py``); an op that raises or
fails a check counts in ``failed``.  The ``detail:`` line adds op_p90_s (runs
of at least 100 ops), wall_op_p50_s, wall_ops_per_s, op_fail_rate,
missed_alarm_rate, false_alarm_rate, loss_err_max and calib_err_max.  The
traced run reports, per op, each traced function's self time (wall clock,
unscaled) and calls, the stages' sweep counts and per-sweep cost
(``tracing.py`` says which end-to-end metric each should move) and the
tracing overhead measured on the same inputs.

Exits non-zero without a result line when the package source is missing or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0  # every worker is killed once the run has taken this long
SETUPS = 3  # fresh-interpreter set-ups whose median is setup_s


def run_worker(args, extra: list, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), *extra]
    try:
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit of a run")
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"worker failed with exit code {exc.returncode}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modalbayes" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'modalbayes'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_runs = [run_worker(args, ["--setup-only"], OUT / f"{stem}-setup{i}.json", deadline)
                  for i in range(SETUPS - 1)]
    spans = ["--spans", str(OUT / f"{stem}-spans.jsonl")] if args.trace else []
    result = run_worker(args, spans, OUT / f"{stem}.json", deadline)
    setup_runs.append(result)
    setups = [r["setup_s"] for r in setup_runs]
    result["setup_samples_s"] = setups
    result["setup_wall_samples_s"] = [r["setup_wall_s"] for r in setup_runs]

    if args.trace:
        wanted = spec["per_layer"]
        values = result["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        print("detail: " + json.dumps(result["detail"], sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
