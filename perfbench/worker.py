"""One benchmark process: set a workload up, run passes, print JSON.

Run by ``run.py``, one process per role:

* ``probe``  -- set up (imports + building the first part), then exit;
* ``plain``  -- set up, then run whole passes until ``--deadline``;
* ``traced`` -- the same with the :mod:`layers` wrappers installed,
  plus one request-traced pass for the pool queue-wait metric.

The last stdout line is a JSON object. ``first_event`` is the
``time.monotonic()`` reading just before the first simulated event;
the parent subtracts its own reading at spawn to get set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from typing import Any

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import layers  # noqa: E402
from parts import WORKLOADS, Outcome, Part, Workload  # noqa: E402


def _part_record(part: Part, out: Outcome) -> dict[str, Any]:
    return {
        "name": part.name,
        "digest": hashlib.sha256(out.digest.encode()).hexdigest(),
        "failures": out.failures,
        "ticks": out.ticks,
        "counts": out.counts,
    }


class _LayerCounters:
    """Counters read at layer boundaries of the traced run."""

    def __init__(self, recorder: layers.SpanRecorder, built: dict[str, list[Any]]) -> None:
        self.recorder = recorder
        self.built = built
        self.hooked: set[int] = set()
        recorder.after["network.send"] = self._sent
        recorder.after["cloud.submit"] = self._submitted
        self.reset()

    def reset(self) -> None:
        """Start a pass: call before building its first part."""
        self.marks = {k: len(v) for k, v in self.built.items()}
        self.delivered = 0
        self.processed = 0
        self.scans_used = 0
        self.depth_max = 0
        self.util_sum = 0.0
        self.util_n = 0

    def _sent(self, _inst: Any, latency: Any) -> None:
        self.delivered += latency is not None

    def _submitted(self, pool: Any, _result: Any) -> None:
        self.depth_max = max(self.depth_max, pool.queue_depth())
        self.util_sum += pool.utilization()
        self.util_n += 1

    def _on_processed(self, node: Any, trigger: str, _cycles: float, _proc: float) -> None:
        self.processed += 1
        if trigger == "scan" and node.name in ("slam", "localization"):
            self.scans_used += 1

    def hook_graphs(self) -> None:
        """Count processed callbacks on graphs built since the last call."""
        for graph in self.built["graphs"]:
            if id(graph) not in self.hooked:
                self.hooked.add(id(graph))
                graph.on_processed(self._on_processed)

    def new(self, key: str) -> list[Any]:
        return self.built[key][self.marks[key]:]

    def table(self, wall_s: float) -> dict[str, float]:
        """The pass's layer table (times in host seconds)."""
        rec = self.recorder
        t: dict[str, float] = {}
        for prefix in layers.SPANS:
            t[f"{prefix}.calls"] = rec.calls.get(prefix, 0)
            t[f"{prefix}.self_s"] = rec.self_s.get(prefix, 0.0)
        t["sim.events"] = sum(s.events_processed for s in self.new("sims"))
        t["sim.residual_s"] = wall_s - math.fsum(rec.self_s.values())
        t["middleware.processed"] = self.processed
        lidar = rec.calls.get("world.lidar", 0)
        t["perception.scan_use_ratio"] = self.scans_used / lidar if lidar else 0.0
        sent = rec.calls.get("network.send", 0)
        t["network.delivery_ratio"] = self.delivered / sent if sent else 0.0
        t["cloud.queue_depth_max"] = self.depth_max
        t["cloud.utilization"] = self.util_sum / self.util_n if self.util_n else 0.0
        t["cloud.duplicate_completions"] = sum(
            p.duplicate_completions for p in self.new("pools")
        )
        t["trace.wall_s"] = wall_s
        return t


def run_pass(
    wl: Workload, parts: list[Part], first: Any, counters: _LayerCounters | None = None
) -> dict[str, Any]:
    """Run every part once; ``first`` is the already-built first part.

    Host time runs from the first part's first event to the last
    part's end, so building parts 2..n counts as workload time.
    """
    outcomes = []
    if counters is not None:
        counters.recorder.reset()
    t0 = time.perf_counter()
    for i, part in enumerate(parts):
        run = first if i == 0 else part.build(None)
        if counters is not None:
            counters.hook_graphs()
        outcomes.append(run())
    wall = time.perf_counter() - t0
    if wl.cross_checks is not None:
        wl.cross_checks(parts, outcomes)
    return {"wall_s": wall, "parts": [_part_record(p, o) for p, o in zip(parts, outcomes)]}


def _queue_wait_p99_ms(parts: list[Part]) -> tuple[float, list[dict[str, Any]]]:
    """Pool queue-wait p99 (ms, simulated) from repro.obs request traces.

    Re-runs the parts whose ticks open request traces with tracing on;
    their records join the determinism check.
    """
    from repro.telemetry import Telemetry

    waits: list[float] = []
    records = []
    for part in parts:
        if not part.traces_requests:
            continue
        tel = Telemetry()
        requests = tel.enable_obs(seed=0, max_traces=10**7)
        records.append(_part_record(part, part.build(tel)()))
        for tree in requests.trees("tick"):
            waits.extend(s.duration for s in tree.segments if s.name == "queue_wait")
    if not waits:
        return 0.0, records
    waits.sort()
    return 1000.0 * waits[max(0, math.ceil(0.99 * len(waits)) - 1)], records


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "plain", "traced"))
    ap.add_argument(
        "--deadline", type=float, default=0.0,
        help="time.monotonic() after which no new pass starts (one always runs)",
    )
    args = ap.parse_args(argv)

    import numpy

    wl = WORKLOADS[args.workload]
    parts = wl.parts(args.seed)
    counters = None
    if args.mode == "traced":
        recorder = layers.SpanRecorder()
        counters = _LayerCounters(recorder, layers.install(recorder))

    first = parts[0].build(None)
    first_event = time.monotonic()
    result: dict[str, Any] = {
        "first_event": first_event,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "passes": [],
    }
    while args.mode != "probe":
        rec = run_pass(wl, parts, first, counters)
        if counters is not None:
            rec["layers"] = counters.table(rec["wall_s"])
        result["passes"].append(rec)
        if time.monotonic() + rec["wall_s"] > args.deadline:
            break
        if counters is not None:
            counters.reset()
        first = parts[0].build(None)
    if args.mode == "traced":
        result["queue_wait_p99_ms"], result["request_traced_parts"] = _queue_wait_p99_ms(parts)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
