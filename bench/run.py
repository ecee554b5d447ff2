"""gridfog benchmark: end-to-end host time, per-layer trace, output identity.

Run from the root of a gridfog checkout::

    python3 bench/run.py                                  # all workloads, tracing off
    python3 bench/run.py --trace 1                        # all workloads, per-layer
    python3 bench/run.py --workload city-broadcast --seed 7 --seconds 30 --trace 0

Each workload runs in a child process (``measure.py``) that repeats it as
often as fits in ``--seconds``, which defaults to ``run_seconds`` in
``BENCHMARK.json`` and applies to each workload, so ``--workload all``
takes three times as long.
This process watches the child's memory and, with ``--trace 0``, adds it
as ``peak_rss_mb``.  The last line of standard output is one JSON object
with the metrics named in ``BENCHMARK.json``; ``--workload all`` prints a
table instead.  The exit code is 1 if any run failed or gave other output
than the recorded one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024
POLL_S = 0.02


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _tree_rss_kib(root: int) -> int:
    """Resident memory of ``root`` and every process descended from it, summed."""
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        try:  # the process may end while we look
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * PAGE_KIB
            for task in os.scandir(f"/proc/{pid}/task"):
                todo.extend(int(c) for c in Path(task.path, "children").read_text().split())
        except OSError:
            pass
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, int]:
    """Measure one workload in a child process; returns (result object, exit code).

    The child's peak memory is the larger of its own high-water mark, as
    the kernel reports it when the child is reaped, and the largest sum of
    resident memory over the child and its descendants seen while polling,
    so that worker processes running at once count together.
    """
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{workload}-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    child = subprocess.Popen([sys.executable, str(BENCH / "measure.py"), workload,
                              str(seed), str(seconds), str(trace), str(result_path)])
    peak_kib = 0
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        peak_kib = max(peak_kib, _tree_rss_kib(child.pid))
        time.sleep(POLL_S)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    if not result_path.exists():
        print(f"bench: {workload} gave no result (exit {code})", file=sys.stderr)
        return None, code or 1
    partial = json.loads(result_path.read_text())
    result_path.unlink()
    values = partial.pop("values")
    if values and not trace:
        values["peak_rss_mb"] = max(peak_kib, usage.ru_maxrss) / 1024.0
    units = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    if values and set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    partial["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}
    return partial, code


def run_all(args) -> int:
    """Every workload in turn, then a table of their results."""
    code = 0
    rows = []
    for workload in (w["name"] for w in _spec()["workloads"]):
        result, workload_code = run_workload(workload, args.seed, args.seconds, args.trace)
        code = code or workload_code
        if result is not None:
            rows.append((workload, result))
    if not args.trace:
        print(f"\n{'workload':<18}{'wall_s':>12}{'setup_s':>12}{'peak_rss_mb':>16}"
              f"{'error_rate':>12}")
        for workload, result in rows:
            m = result["metrics"]
            cells = [f"{m[k]['value']:.4f} {m[k]['unit']}" if k in m else "-"
                     for k in ("wall_s", "setup_s", "peak_rss_mb")]
            error_rate = result["failed"] / result["attempted"]
            print(f"{workload:<18}{cells[0]:>12}{cells[1]:>12}{cells[2]:>16}"
                  f"{error_rate:>12.4f}")
    return code


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *(w["name"] for w in spec["workloads"])])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="repeat each workload as often as fits in this many host "
                             "seconds (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, code = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
