"""Repo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Run from the repository root. Every measurement happens in a fresh
child process (``worker.py``):

* ``--trace 0`` runs three set-up probes and two untraced measuring
  processes (one pass, then passes until ``--seconds`` are spent) and
  reports the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1`` runs one untraced and one traced process (half the
  time each) and reports the per-layer metrics.

Every repetition of the seed must reproduce the first one's simulated
results bit for bit; a part that disagrees, or fails a check, counts
as a failed operation. The last stdout line is the result object; the
line before it records the interpreter, numpy and core count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("explore", "navigate", "fleet", "geo")
#: Wall-clock ceiling for the whole run, children included (s).
RUN_LIMIT_S = 170.0
SETUP_PROBES = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float, t_start: float) -> tuple[float, dict]:
    """Run one worker; returns (monotonic time at spawn, its JSON)."""
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--deadline", repr(deadline),
    ]
    timeout = t_start + RUN_LIMIT_S - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the last worker")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


class Verdict:
    """Counts operations and checks every repetition against the first."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}
        self.problems: list[str] = []

    def add(self, parts: list[dict[str, Any]]) -> None:
        for p in parts:
            self.attempted += 1
            ref = self.reference.setdefault(p["name"], p["digest"])
            bad = list(p["failures"])
            if p["digest"] != ref:
                bad.append(f"{p['name']}: simulated results differ from the first run")
            if bad:
                self.failed += 1
                self.problems.extend(bad)


def tick_metrics(parts: list[dict[str, Any]]) -> dict[str, float]:
    """Mean and worst-robot p95 control-tick latency (ms) of one pass."""
    ticks = [t for p in parts for t in p["ticks"]]
    served = sum(t[1] for t in ticks)
    return {
        "tick_mean_ms": 1000.0 * math.fsum(t[1] * t[2] for t in ticks) / served,
        "tick_p95_ms": 1000.0 * max(t[3] for t in ticks),
    }


def outcome_metrics(parts: list[dict[str, Any]]) -> dict[str, float]:
    """Modelled outcomes of one pass; 0 where the workload has none."""
    def total(key: str, only_ticked: bool = False) -> float:
        return math.fsum(
            p["counts"].get(key, 0.0) for p in parts if p["ticks"] or not only_ticked
        )

    ticks = total("ticks", only_ticked=True)
    pause = total("handoff_pause_max_s")
    return {
        "outcome.mission_time_s": total("mission_time_s"),
        "outcome.mission_energy_j": total("mission_energy_j"),
        "outcome.miss_rate": total("ticks_missed", only_ticked=True) / ticks,
        "outcome.service_gap_max_s": total("service_gap_max_s"),
        "outcome.handoff_pause_max_ms": 0.0 if math.isnan(pause) else 1000.0 * pause,
    }


def layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer table: traced passes averaged, plus model counters."""
    tables = [p["layers"] for p in traced["passes"]]
    out = {k: math.fsum(t[k] for t in tables) / len(tables) for k in tables[0]}
    first = untraced["passes"][0]["parts"]
    counts = {
        k: math.fsum(p["counts"].get(k, 0.0) for p in first)
        for k in ("migrations", "handoffs", "evacuations", "degradations", "commits", "aborts")
    }
    out["core.migrations"] = counts["migrations"]
    out["sites.handoffs"] = counts["handoffs"]
    out["sites.evacuations"] = counts["evacuations"]
    out["sites.degradations"] = counts["degradations"]
    decided = counts["commits"] + counts["aborts"]
    out["recovery.commit_ratio"] = counts["commits"] / decided if decided else 0.0
    out["cloud.queue_wait_p99_ms"] = traced["queue_wait_p99_ms"]
    untraced_wall = statistics.median(p["wall_s"] for p in untraced["passes"])
    traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out.update(outcome_metrics(first))
    return out


def measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[dict[str, float], Verdict, dict[str, Any]]:
    """Run the workers; returns (metric values, verdict, run details)."""
    t0 = time.monotonic()
    verdict = Verdict()
    setups: list[float] = []
    if trace:
        _, plain = spawn(workload, seed, "plain", t0 + seconds / 2.0, t0)
        # the traced process ends with one request-traced pass (fleet),
        # so its timed passes stop a quarter early
        _, traced = spawn(workload, seed, "traced", t0 + 0.75 * seconds, t0)
        runs = [plain, traced]
        for r in runs:
            for p in r["passes"]:
                verdict.add(p["parts"])
        verdict.add(traced["request_traced_parts"])
        # only the traced run can see the pools the entry points build
        for p in traced["passes"]:
            if p["layers"]["cloud.duplicate_completions"]:
                verdict.failed += 1
                verdict.problems.append("a pool completed a request twice")
        values = layer_metrics(plain, traced)
    else:
        # three set-up probes, one single-pass process (so every run
        # checks determinism across processes), then passes until the end
        spawned = []
        for mode, deadline in [("probe", 0.0)] * SETUP_PROBES + [
            ("plain", 0.0), ("plain", t0 + seconds)
        ]:
            t_spawn, r = spawn(workload, seed, mode, deadline, t0)
            setups.append(r["first_event"] - t_spawn)
            spawned.append(r)
        runs = spawned[SETUP_PROBES:]
        passes = [p for r in runs for p in r["passes"]]
        for p in passes:
            verdict.add(p["parts"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            # the single-pass process: memory does not depend on how
            # many passes fit in the time
            "peak_rss_mb": runs[0]["peak_rss_mb"],
        }
        values.update(tick_metrics(passes[0]["parts"]))
    details = {
        "env": {k: runs[0][k] for k in ("python", "numpy", "nproc")},
        "workload": workload,
        "seed": seed,
        "setup_samples_s": setups,
        "pass_wall_s": [[p["wall_s"] for p in r["passes"]] for r in runs],
        "elapsed_s": time.monotonic() - t0,
        "problems": verdict.problems,
    }
    return values, verdict, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isfile(spec_path):
        print("perfbench: run from a repository checkout (src/repro is missing)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        values, verdict, details = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
