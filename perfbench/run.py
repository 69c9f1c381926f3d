"""schemacut benchmark: one workload, closed loop, one caller, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload snowflake --seed 0 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout; the run fails
(exit code 1, no result) when the sources are not there.  Set-up (import,
input generation from the seed and one untimed warm-up call) is repeated
``SETUPS`` times and its median reported.  The loop then calls the
workload's entry point on its inputs in order, one call at a time, and
keeps going in whole passes over the inputs until the calls have taken
``--seconds``; whole passes make every count repeat exactly.  Each output
is checked by ``oracle`` between calls, outside the timed region.

Times are rescaled to a reference machine speed.  On a shared machine
the speed of the same code drifts by tens of percent over seconds to
minutes, so a fixed calibration loop is timed between calls (untimed
itself) and each measured duration is multiplied by
``REFERENCE_MS / <the loop's latest time>``.  ``REFERENCE_MS`` is about
the loop's time on the 2 GHz x86-64 virtual machine the benchmark was
tuned on, so rescaled times are of the order of wall time there.  The
unscaled wall-clock median is printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced passes for a quarter of ``--seconds``, then traced passes for
``--seconds``; it reports the per-layer metrics, the output counts and the
tracing overhead (traced over untraced mean call time), and writes every
span to ``.perfbench/trace_<workload>.tsv``.

Human-readable lines come first and name each end-to-end metric as the
workload knows it (``decompose_ms`` or ``check_ms`` for ``call_ms``); the
last line of standard output is the JSON result.  A deadline
(``ConsistencyTimeout`` on the grids) is not a failed operation: it
lowers ``ok_share`` and counts at its measured time, which is at least
the limit.  A wrong output or any other exception is a failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
UNTRACED_SHARE = 0.25
REFERENCE_MS = 3.0
CALIBRATE_EVERY_S = 0.05
CALIBRATION_RUNS = 3


def calibration_work() -> int:
    """Fixed pure-Python graph walk, the kind of work the program does."""
    names = [f"x{i}" for i in range(64)]
    adj = {
        (a,): tuple(sorted((names[(i * 7 + j * 13) % 64],) for j in range(5)))
        for i, a in enumerate(names)
    }
    reached = set()
    for start in adj:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reached.add(frozenset(seen))
    return len(reached)


class Speed:
    """Factor that rescales measured durations to the reference speed."""

    def __init__(self) -> None:
        self.factor = 1.0
        self._last = float("-inf")

    def refresh(self, force: bool = False) -> None:
        """Time the calibration loop if it is due (or ``force``)."""
        if not force and perf_counter() - self._last < CALIBRATE_EVERY_S:
            return
        times = []
        for _ in range(CALIBRATION_RUNS):
            started = perf_counter()
            calibration_work()
            times.append(perf_counter() - started)
        self.factor = REFERENCE_MS / (statistics.median(times) * 1000.0)
        self._last = perf_counter()


def load_program():
    """Import ``schemacut`` afresh from the checkout's ``src``."""
    src = ROOT / "src"
    package_dir = src / "schemacut"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"run.py: no schemacut sources at {package_dir}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "schemacut" or n.startswith("schemacut.")]:
        del sys.modules[name]
    pkg = importlib.import_module("schemacut")
    if Path(pkg.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"run.py: imported schemacut from {pkg.__file__}, not {package_dir}")
    return pkg


def set_up(name: str, seed: int, tiny: bool, speed: Speed):
    speed.refresh(force=True)
    started = perf_counter()
    pkg = load_program()
    workload = workloads.build(name, pkg, seed, tiny)
    workload.call(workload.inputs[0])
    return (perf_counter() - started) * speed.factor, pkg, workload


@dataclass
class Tally:
    """Outcomes of the calls made in one loop."""

    call_ms: list[float] = field(default_factory=list)  # rescaled
    wall_ms: list[float] = field(default_factory=list)  # as measured
    ok: int = 0
    completed: int = 0
    deadlines: int = 0
    failures: list[str] = field(default_factory=list)
    # Over consistent decomposition reports only.
    reports: int = 0
    relations: int = 0
    fragments: int = 0
    lost_fds: int = 0
    required: int = 0
    required_kept: int = 0

    @property
    def attempted(self) -> int:
        return len(self.call_ms)

    def record(self, workload, item, output, error, wall_ms: float, factor: float) -> None:
        deadline = workload.expected_error is not None and isinstance(error, workload.expected_error)
        self.wall_ms.append(wall_ms)
        # The limit is wall-clock time, so a deadline is not rescaled.
        self.call_ms.append(wall_ms if deadline else wall_ms * factor)
        if deadline:
            self.deadlines += 1
            return
        if error is not None:
            self.failures.append(f"{type(error).__name__}: {error}")
            return
        self.completed += 1
        problems = workload.judge(item, output)
        if problems:
            self.failures.append("; ".join(problems))
            return
        self.ok += 1
        if workload.decomposes and output.consistency.consistent:
            self.reports += 1
            self.relations += len(item[0].relations)
            self.fragments += len(output.result.fragments)
            self.lost_fds += len(output.result.lost_dependencies)
            self.required += len(output.required_verified)
            self.required_kept += sum(ok for _, ok in output.required_verified)


def run_loop(workload, seconds: float, tally: Tally, speed: Speed, recorder=None) -> None:
    """Whole passes over the inputs until the calls have taken ``seconds``."""
    timed = 0.0
    while True:
        for item in workload.inputs:
            speed.refresh()
            if recorder is not None:
                recorder.op = tally.attempted
            output = error = None
            started = perf_counter()
            try:
                output = workload.call(item)
            except Exception as exc:  # judged below: a deadline or a failure
                error = exc
            elapsed = perf_counter() - started
            if recorder is not None:
                recorder.op = None
            timed += elapsed
            tally.record(workload, item, output, error, elapsed * 1000.0, speed.factor)
        if timed >= seconds:
            return


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def output_counts(tally: Tally) -> dict:
    """Decomposition outcomes over consistent reports; zero (share: one)
    where the workload makes no reports or has no required sets."""
    return {
        "required_kept_share": (
            tally.required_kept / tally.required if tally.required else 1.0, "share"
        ),
        "fragments_per_relation": (
            tally.fragments / tally.relations if tally.relations else 0.0, "count"
        ),
        "lost_fds_per_op": (tally.lost_fds / tally.reports if tally.reports else 0.0, "count"),
    }


def per_layer(recorder, tally: Tally, untraced: Tally) -> dict:
    # Self times are rescaled by the traced calls' time-weighted factor.
    factor = sum(tally.call_ms) / sum(tally.wall_ms)
    metrics = {}
    for key, value in recorder.per_op(tally.attempted).items():
        if key.endswith("_ms"):
            metrics[key] = (value * factor, "ms")
        else:
            metrics[key] = (value, "count")
    metrics.update(output_counts(tally))
    overhead = statistics.fmean(tally.call_ms) / statistics.fmean(untraced.call_ms)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """One benchmark run; prints the human-readable lines and returns the result."""
    speed = Speed()
    setups = []
    for _ in range(SETUPS):
        setup_s, pkg, workload = set_up(name, seed, tiny, speed)
        setups.append(setup_s)

    untraced = Tally()
    if not traced:
        run_loop(workload, seconds, untraced, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally = untraced
        metrics = {
            "call_ms.p50": (percentile(untraced.call_ms, 50), "ms"),
            "call_ms.p90": (percentile(untraced.call_ms, 90), "ms"),
            "ok_share": (untraced.ok / untraced.attempted, "share"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        op = "decompose_ms" if workload.decomposes else "check_ms"
        print(f"{name}: {op}.* below is call_ms.* in the JSON result")
        shown = {
            f"{op}.p50": metrics["call_ms.p50"],
            f"{op}.p90": metrics["call_ms.p90"],
            "ops_per_s": (untraced.completed / (sum(untraced.call_ms) / 1000.0), "1/s"),
            **{k: v for k, v in metrics.items() if not k.startswith("call_ms")},
            **(output_counts(untraced) if workload.decomposes else {}),
            "wall_ms.p50": (percentile(untraced.wall_ms, 50), "ms"),
        }
    else:
        run_loop(workload, seconds * UNTRACED_SHARE, untraced, speed)
        recorder = spans.Recorder()
        recorder.install(pkg)
        tally = Tally()
        run_loop(workload, seconds, tally, speed, recorder)
        metrics = shown = per_layer(recorder, tally, untraced)
        out = ROOT / ".perfbench" / f"trace_{name}.tsv"
        recorder.write(out)
        print(f"{name}: {len(recorder.start)} spans written to {out.relative_to(ROOT)}")

    tallies = [untraced, tally] if traced else [untraced]
    failures = [f for t in tallies for f in t.failures]
    print(f"{name}: seed {seed}, {'traced' if traced else 'untraced'}, {tally.attempted} calls "
          f"over {len(workload.inputs)} inputs, {tally.deadlines} past the deadline, "
          f"{len(failures)} failed")
    for key, (value, unit) in shown.items():
        print(f"  {key:<40} {value:14.4f} {unit}")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": sum(t.attempted for t in tallies),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
