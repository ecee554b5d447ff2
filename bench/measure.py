"""One workload, measured in this process; ``run.py`` starts it.

    python3 bench/measure.py WORKLOAD SEED SECONDS TRACE RESULT_JSON

Repeats the workload's whole run, with the same inputs, as often as fits
in SECONDS, and at least once.  Every run must give the same output digest, and for a seed listed
in ``digests.json`` the digest recorded there; any other result, an error
row or an exception counts as a failed run.  With TRACE 0 ``wall_s`` and
``setup_s`` are medians over the runs of scaled seconds (see
:class:`Stopwatch`).  With TRACE 1 untraced and traced runs alternate: the
per-layer metrics come from the traced ones, and ``trace.overhead_s`` is
the traced median host time minus the untraced one.
The result object goes to RESULT_JSON; ``run.py`` adds the memory figure
and prints it.  The exit code is 1 if any run failed.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import statistics
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
EVENTS_PER_STAMP = 1000
PROBE_SIZE = 1000
PROBE_S = 0.001  # a scaled second is a host second on a host where the probe takes this
PROBE_WINDOW = 5  # an interval's host speed is the median of the probes this close


def probe() -> float:
    """A fixed piece of pure-Python work of the simulator's kind.

    It pushes and pops a heap of tuples, updates a dict and does float
    arithmetic.  It belongs to the benchmark, not to gridfog, so no change
    to the program changes its cost, save by a few per cent through the
    program's heap beside it; the host's speed does.  The
    garbage collector is held off meanwhile: a collection of the program's
    heap would land in the probe, and the probe frees all it allocates.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap, totals, acc = [], {}, 0.0
        for i in range(PROBE_SIZE):
            heapq.heappush(heap, ((i * 7919) % 1000 * 0.5, i, (i, i + 1)))
            totals[i & 255] = totals.get(i & 255, 0.0) + i * 0.5
        while heap:
            fire_at, _, pair = heapq.heappop(heap)
            acc += abs(fire_at - pair[0]) ** 0.5
        return acc
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Host time of a run in short intervals, each with the host's speed beside it.

    The host is shared, and other load on it can make a run twice as slow
    for seconds to minutes at a time.  So a stamp falls when a run starts and ends, on
    entry to and exit from every ``Simulation(...)`` construction, and
    after every ``EVENTS_PER_STAMP`` events the engine hands its handler;
    the intervals between stamps are some tens of milliseconds of work.
    After each stamp the stopwatch times :func:`probe`, outside any
    interval.  :meth:`scaled_seconds` rescales every interval by how long
    the probes around it took against ``PROBE_S``.
    """

    def __init__(self):
        self.ends = array("d")  # interval i runs from starts[i - 1] to ends[i]
        self.starts = array("d")
        self.probes = array("d")
        self.in_setup = array("b")  # whether interval i was set-up

    def stamp(self, in_setup: bool = False) -> None:
        end = time.perf_counter()
        probe()
        start = time.perf_counter()
        self.ends.append(end)
        self.starts.append(start)
        self.probes.append(start - end)
        self.in_setup.append(in_setup)

    def install(self, tracer) -> None:
        """Add the stamps through ``tracer``'s patches, which it restores."""
        from gridfog import engine, scenario

        def make_init(fn):
            @functools.wraps(fn)
            def __init__(sim, *args, **kwargs):
                self.stamp()
                fn(sim, *args, **kwargs)
                self.stamp(in_setup=True)
            return __init__

        def make_run_until(fn):
            @functools.wraps(fn)
            def run_until(queue, deadline, handler):
                left = EVENTS_PER_STAMP

                def counting(event):
                    nonlocal left
                    handler(event)
                    left -= 1
                    if not left:
                        left = EVENTS_PER_STAMP
                        self.stamp()

                return fn(queue, deadline, counting)
            return run_until

        tracer.patch([scenario.Simulation], "__init__", make_init)
        tracer.patch([engine.EventQueue], "run_until", make_run_until)

    def host_seconds(self) -> float:
        """The run's host time, the probes left out."""
        return sum(self.ends[i] - self.starts[i - 1] for i in range(1, len(self.ends)))

    def scaled_seconds(self) -> tuple[float, float]:
        """(whole run, set-up) in scaled seconds."""
        whole = setup = 0.0
        probes = self.probes
        for i in range(1, len(self.ends)):
            probe_s = statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            scaled = (self.ends[i] - self.starts[i - 1]) * PROBE_S / probe_s
            whole += scaled
            if self.in_setup[i]:
                setup += scaled
        return whole, setup


def _load_program():
    """Import gridfog from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridfog
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import gridfog from {src}: {exc}") from None
    if Path(gridfog.__file__).resolve().parent != src / "gridfog":
        raise SystemExit(f"bench: gridfog imported from {gridfog.__file__}, not {src}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat one workload for ``seconds``; returns the result object."""
    # These import gridfog, so they load only after _load_program.
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, digest_of

    def timed_run(workdir: Path, traced: bool):
        """Every part once: the digest, the stopwatch and the tracer.

        A traced run's stopwatch stamps only at its start and end, so that
        no probe lands inside a span.
        """
        tracer, stopwatch = Tracer(), Stopwatch()
        digests = []
        gc.collect()
        with tracer:
            if traced:
                layers.install(tracer)
            else:
                stopwatch.install(tracer)
            stopwatch.stamp()
            for part in WORKLOADS[workload]:
                digests.append(part(seed, workdir))
            stopwatch.stamp()
        return digest_of(digests), stopwatch, tracer

    recorded = json.loads((BENCH / "digests.json").read_text()).get(workload, {}).get(str(seed))
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled: list[tuple[float, float]] = []
    per_layer: list[dict] = []
    digests: set[str] = set()
    attempted = failed = spans = 0
    spans_path = OUT / "spans" / f"{workload}-seed{seed}"
    OUT.mkdir(exist_ok=True)
    began = time.perf_counter()
    last = 0.0  # host seconds the last round of runs took
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # Stop before a round that would not end within ``seconds``.
        while not attempted or time.perf_counter() - began + last <= seconds:
            round_began = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                attempted += 1
                try:
                    digest, stopwatch, tracer = timed_run(Path(tmp), traced)
                except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
                    traceback.print_exc()
                    failed += 1
                    continue
                digests.add(digest)
                if len(digests) > 1 or recorded not in (None, digest):
                    failed += 1
                    continue
                walls[traced].append(stopwatch.host_seconds())
                if traced:
                    per_layer.append(layers.layer_metrics(tracer))
                    tracer.write(spans_path)
                    spans = tracer.span_count
                else:
                    scaled.append(stopwatch.scaled_seconds())
            last = time.perf_counter() - round_began

    digest = ",".join(sorted(digests)) or "none"
    status = "no recorded digest" if recorded is None else (
        "matches recorded" if digests == {recorded} else "DIFFERS from recorded")
    print(f"{workload} seed={seed}: {attempted} runs, {failed} failed, "
          f"error_rate {failed / attempted}; digest {digest} ({status})")
    print("  untraced host s per run:   " + " ".join(f"{w:.4f}" for w in walls[False]))
    print("  untraced scaled s per run: " + " ".join(f"{w:.4f}" for w, _ in scaled))
    if spans:
        print(f"  wrote {spans} spans of the last traced run to {spans_path}.*")

    values: dict[str, float] = {}
    if failed == 0 and trace:
        untraced_wall = statistics.median(walls[False])
        for name in per_layer[0]:  # median_low keeps counts whole
            values[name] = statistics.median_low(m[name] for m in per_layer)
        values["engine.events_per_s"] = values["engine.events"] / untraced_wall
        values["trace.overhead_s"] = statistics.median(walls[True]) - untraced_wall
        values["trace.spans"] = spans
    elif failed == 0:
        values["wall_s"] = statistics.median(whole for whole, _ in scaled)
        values["setup_s"] = statistics.median(setup for _, setup in scaled)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "values": values}


def main(argv) -> int:
    workload, seed, seconds, trace, result_path = argv
    _load_program()
    result = measure(workload, int(seed), float(seconds), trace == "1")
    Path(result_path).write_text(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
