"""Pool dispatch benchmark: keyed ready heap vs the old list queue.

Drives one EDF pool worker through the fleet's over-the-knee shape
(perfbench ``fleet:phase_b``: 14 robots at 5 Hz, 1.4 Gcycle ticks at
8 threads, one 24-thread worker, admit-all) until about 400 jobs wait,
then stops the arrivals and drains the backlog. Every arrival reads
``load()`` first, as the least-loaded balancer does. The current
:class:`~repro.cloud.pool.PoolWorker` runs against the frozen
list-queue worker (``benchmarks/_legacy_pool.py``) in the same
process, interleaved best-of-N (a current-side sample is the mean of
enough runs to last as long as one legacy run), so the headline number
is a machine-independent speedup ratio.
Both sides must start and complete every request at the same times,
or the run fails.

The result is committed as ``BENCH_pool_dispatch.json``. Under
``KERNEL_BENCH_GUARD=1`` (the CI ``kernel-bench`` job) the fresh ratio
is compared against the committed one instead of rewriting the file,
and the test fails below ``0.85 x`` of it.

Run:  pytest benchmarks/test_pool_dispatch.py -s
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

from benchmarks._legacy_pool import LegacyEdfScheduler, LegacyPoolWorker
from repro.cloud.pool import PoolWorker
from repro.cloud.request import TickRequest
from repro.cloud.scheduler import EdfScheduler
from repro.compute.host import Host
from repro.compute.platform import CLOUD_SERVER
from repro.sim.kernel import Simulator

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pool_dispatch.json"
#: The speedup may drop to this fraction of its committed value before
#: the CI guard fails the build (the kernel bench's tolerance).
GUARD_TOLERANCE = 0.85

REPS = 3
#: Runs of the current worker timed as one sample. A single run is ~40x
#: shorter than a legacy run, so a burst of machine noise that a legacy
#: run averages out would swamp it; a sample of this many runs lasts
#: about as long as one legacy run and sees the same noise.
NEW_PER_SAMPLE = 40
ROBOTS = 14
TICK_HZ = 5.0
CYCLES = 1.4e9
THREADS = 8
#: Arrivals stop here, with about 400 jobs queued.
FILL_S = 28.0


def _backlog(worker_cls, scheduler):
    """Fill and drain one worker; returns (completions, peak queue, s)."""
    sim = Simulator()
    worker = worker_cls(sim, Host("cloud-vm0", CLOUD_SERVER), scheduler)
    log = []
    peak = [0]
    period = 1.0 / TICK_HZ

    def done(req, t):
        log.append((req.tenant, req.seq, t))

    def robot(i):
        seq = [0]
        name = f"robot{i:02d}"

        def tick():
            now = sim.now()
            worker.load()
            worker.submit(TickRequest(name, seq[0], CYCLES, THREADS, period, now), done)
            seq[0] += 1
            peak[0] = max(peak[0], worker.queue_depth())

        return tick

    procs = [
        sim.every(period, robot(i), start_delay=(i / ROBOTS) * period)
        for i in range(ROBOTS)
    ]

    def stop():
        for p in procs:
            p.stop()

    sim.schedule_at(FILL_S, stop)
    t0 = time.perf_counter()
    sim.run()
    return log, peak[0], time.perf_counter() - t0


def _compare(reps=REPS):
    def legacy():
        return _backlog(LegacyPoolWorker, LegacyEdfScheduler())

    def new():
        return _backlog(PoolWorker, EdfScheduler())

    legacy_log, peak, _ = legacy()
    new_log, _, _ = new()
    assert new_log == legacy_log, "heap dispatch diverged from the list queue"
    best_legacy = best_new = float("inf")
    for _ in range(reps):
        best_legacy = min(best_legacy, legacy()[2])
        sample = sum(new()[2] for _ in range(NEW_PER_SAMPLE))
        best_new = min(best_new, sample / NEW_PER_SAMPLE)
    return {
        "requests": len(new_log),
        "peak_queue_depth": peak,
        "legacy_s": round(best_legacy, 4),
        "new_s": round(best_new, 4),
        "speedup": round(best_legacy / best_new, 3),
    }


def test_pool_dispatch():
    w = _compare()
    print(
        f"edf_backlog: {w['requests']} requests, peak queue {w['peak_queue_depth']}"
        f"   legacy {w['legacy_s']:.4f} s   new {w['new_s']:.4f} s"
        f"   speedup {w['speedup']:.2f}x"
    )
    assert w["peak_queue_depth"] >= 350, "the backlog never reached phase B's depth"

    if os.environ.get("KERNEL_BENCH_GUARD"):
        committed = json.loads(RESULT_PATH.read_text())["workloads"]["edf_backlog"]
        floor = committed["speedup"] * GUARD_TOLERANCE
        assert w["speedup"] >= floor, (
            f"dispatch regression: speedup {w['speedup']:.2f}x fell below "
            f"{floor:.2f}x (committed {committed['speedup']:.2f}x, "
            f"tolerance {GUARD_TOLERANCE})"
        )
        print(f"guard: within {GUARD_TOLERANCE}x of the committed speedup")
        return

    result = {
        "benchmark": "pool_dispatch",
        "baseline": (
            "list-queue PoolWorker with linear EDF pick, frozen verbatim in "
            "benchmarks/_legacy_pool.py"
        ),
        "reps_best_of": REPS,
        "new_runs_per_sample": NEW_PER_SAMPLE,
        "workloads": {"edf_backlog": w},
        "guard_tolerance": GUARD_TOLERANCE,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"-> {RESULT_PATH.name}")
    assert w["speedup"] > 1.0, f"heap dispatch is slower than the list queue ({w['speedup']:.2f}x)"
