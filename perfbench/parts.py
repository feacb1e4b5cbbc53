"""The benchmark's four workloads, each an ordered list of parts.

A part is one operation the benchmark counts: a mission (explore,
navigate), a serving phase (fleet) or the geo cell. ``Part.build``
makes the part's inputs from the workload seed and returns a zero-arg
``run`` callable; the caller times only ``run``, so building the first
part is set-up and everything after it is the workload's wall time.

``run`` returns an :class:`Outcome`: the part's simulated numbers
(``digest`` is compared bit-for-bit across repetitions of one seed),
its control-tick latencies, its layer counters and the checks it
failed. Nothing here reads the host clock.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.compute.platform import TURTLEBOT3_PI
from repro.experiments._missions import (
    DEPLOYMENTS,
    Deployment,
    launch_exploration,
    launch_navigation,
)
from repro.experiments.fleet_scale import serve_fleet_point
from repro.experiments.geo import run_geo
from repro.world.geometry import Pose2D
from repro.world.maps import box_world

#: Control-tick deadline: one period of the 5 Hz tick rate (s).
DEADLINE_S = 0.2

# explore: the fig13 exploration cell (box_world(8), gateway +8T), cut
# at a fixed simulated horizon. Run to completion its length varies
# from 72 to 96 simulated s across seeds, which no run-to-run bound
# could absorb; a fixed horizon keeps the work per run constant.
EXPLORE_WORLD_M = 8.0
EXPLORE_HORIZON_S = 15.0

# navigate: the five fig13 deployments on a smaller box world (the
# fig13 row on box_world(10) takes ~20 s host, too long to repeat).
NAV_WORLD_M = 6.0
NAV_START = Pose2D(1.0, 1.0, 0.7)
NAV_GOAL = Pose2D(5.0, 5.0, 0.0)
NAV_TIMEOUT_S = 400.0

# fleet: the open-loop serving point, EDF + least-loaded behind the
# per-tenant radio. Phase A is the protected operating point (admission
# on); phase B runs admit-all past the knee, where the backlog grows.
FLEET_CYCLES = 1.4e9
FLEET_THREADS = 8
FLEET_TICK_HZ = 5.0
FLEET_WIRED_S = 0.02
FLEET_A = {"n_robots": 48, "workers": 4, "admission": True, "sim_time_s": 150.0}
FLEET_B = {"n_robots": 14, "workers": 1, "admission": False, "sim_time_s": 30.0}

# geo: run_geo's site_outage cell, scaled up (siteB dark for the
# middle third of the run).
GEO = {"robots": 24, "sim_time_s": 200.0, "workers_per_site": 2, "background": 2000}


@dataclass
class Outcome:
    """What one part reports after it ran."""

    #: Canonical JSON of every simulated number the part produced.
    digest: str
    #: Checks the part failed (empty when it is correct).
    failures: list[str] = field(default_factory=list)
    #: Control ticks: (robot, served ticks, mean latency s, p95 latency s).
    ticks: list[tuple[str, int, float, float]] = field(default_factory=list)
    #: Modelled outcome and layer counters (see README.md).
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Part:
    """One operation of a workload."""

    name: str
    #: ``build(telemetry)`` -> ``run``; telemetry is ``None`` in timed runs.
    build: Callable[[Any], Callable[[], Outcome]]
    #: True when the part's ticks open repro.obs request traces, which
    #: the traced run reads for the pool queue-wait metric.
    traces_requests: bool = False


def canonical(obj: Any) -> str:
    """Bit-exact JSON of a result (floats by repr, NaN kept)."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, default=repr)


def _p95(values: list[float]) -> float:
    """Empirical p95 (same estimator as the serving layer's stats)."""
    s = sorted(values)
    return s[max(0, math.ceil(0.95 * len(s)) - 1)]


# ----------------------------------------------------------------------
# Missions (explore, navigate)
# ----------------------------------------------------------------------
def _mission_part(kind: str, dep: Deployment, seed: int) -> Part:
    def build(telemetry: Any) -> Callable[[], Outcome]:
        if kind == "explore":
            w, fw, runner = launch_exploration(
                dep,
                world=box_world(EXPLORE_WORLD_M),
                seed=seed,
                timeout_s=EXPLORE_HORIZON_S,
                telemetry=telemetry,
            )
        else:
            w, fw, runner = launch_navigation(
                dep,
                world=box_world(NAV_WORLD_M),
                start=NAV_START,
                goal=NAV_GOAL,
                seed=seed,
                timeout_s=NAV_TIMEOUT_S,
                telemetry=telemetry,
            )

        def run() -> Outcome:
            m = runner.run()
            vdp = [s.cloud_s for s in fw.profiler.vdp_history]
            energy = m.energy.as_dict()
            out = Outcome(
                digest=canonical(
                    {
                        "reason": m.reason,
                        "time_s": m.completion_time_s,
                        "energy": energy,
                        "distance_m": m.distance_m,
                        "collisions": m.collisions,
                        "events": w.sim.events_processed,
                        "vdp_s": vdp,
                        "placement": m.final_placement,
                        "migrations": len(fw.switcher.records),
                    }
                ),
                counts={
                    "mission_time_s": m.completion_time_s,
                    "mission_energy_j": m.total_energy_j,
                    "ticks": len(vdp),
                    "ticks_missed": sum(1 for v in vdp if v > DEADLINE_S),
                    "migrations": len(fw.switcher.records),
                },
            )
            if not dep.is_local:
                # latency metrics cover offloaded control ticks only
                out.ticks = [(dep.label, len(vdp), sum(vdp) / len(vdp), _p95(vdp))]
            # explore stops at its horizon ("timeout") unless the arena
            # is mapped first; navigate must reach its goal
            ok = ("timeout", "explored") if kind == "explore" else ("goal_reached",)
            if m.reason not in ok or m.collisions or m.distance_m <= 0.0:
                out.failures.append(
                    f"{dep.label}: mission failed ({m.reason}, "
                    f"{m.collisions} collisions, {m.distance_m:.2f} m)"
                )
            parts_sum = math.fsum(energy.values())
            if abs(parts_sum - m.total_energy_j) > 1e-9 * max(1.0, m.total_energy_j):
                out.failures.append(
                    f"{dep.label}: energy components sum to {parts_sum!r}, "
                    f"total is {m.total_energy_j!r}"
                )
            return out

        return run

    return Part(f"{kind}:{dep.label}", build)


def _fig13_shape(parts: list[Part], outcomes: list[Outcome]) -> None:
    """Every offloaded navigation beats local on energy and on time."""
    local = next(
        o for p, o in zip(parts, outcomes) if p.name.endswith(DEPLOYMENTS[0].label)
    )
    for p, o in zip(parts, outcomes):
        if o is local:
            continue
        for key in ("mission_energy_j", "mission_time_s"):
            if not o.counts[key] < local.counts[key]:
                o.failures.append(
                    f"{p.name}: {key} {o.counts[key]!r} does not beat "
                    f"local {local.counts[key]!r}"
                )


# ----------------------------------------------------------------------
# Serving (fleet, geo)
# ----------------------------------------------------------------------
def _fleet_part(name: str, cfg: dict, seed: int) -> Part:
    local_vdp_s = FLEET_CYCLES / TURTLEBOT3_PI.effective_hz

    def build(telemetry: Any) -> Callable[[], Outcome]:
        def run() -> Outcome:
            o = serve_fleet_point(
                cfg["n_robots"],
                cfg["workers"],
                "edf",
                "least-loaded",
                cfg["admission"],
                cfg["sim_time_s"],
                FLEET_TICK_HZ,
                FLEET_CYCLES,
                FLEET_THREADS,
                local_vdp_s,
                FLEET_WIRED_S,
                seed,
                True,
                telemetry,
            )
            late = round(o.admitted_miss_rate * o.served)
            out = Outcome(
                digest=canonical(o),
                counts={
                    "ticks": o.ticks,
                    "ticks_missed": o.ticks - o.served + late,
                },
            )
            if cfg["admission"]:
                # the protected point: latency metrics come from here
                out.ticks = [
                    (t.tenant, t.served, t.mean_latency_s, t.p95_latency_s)
                    for t in o.tenants
                    if t.threads > 0
                ]
                if not o.deadline_ok:
                    out.failures.append(
                        f"{name}: an admitted tenant's p95 "
                        f"{o.worst_admitted_p95_s!r} s exceeds the deadline"
                    )
            elif o.deadline_ok:
                out.failures.append(f"{name}: admit-all stayed below the knee")
            return out

        return run

    return Part(name, build, traces_requests=cfg["admission"])


def _geo_part(seed: int) -> Part:
    def build(telemetry: Any) -> Callable[[], Outcome]:
        def run() -> Outcome:
            c = run_geo(
                robots=GEO["robots"],
                sim_time_s=GEO["sim_time_s"],
                seed=seed,
                workers_per_site=GEO["workers_per_site"],
                background=GEO["background"],
                cells=("site_outage",),
                telemetry=telemetry,
            ).cells[0]
            ticks = sum(t.ticks for t in c.tenants)
            done = sum(t.served + t.local_served for t in c.tenants)
            late = sum(
                round(t.deadline_miss_rate * (t.served + t.local_served))
                for t in c.tenants
            )
            out = Outcome(
                digest=canonical(c),
                ticks=[
                    (t.tenant, t.served + t.local_served, t.mean_latency_s, t.p95_latency_s)
                    for t in c.tenants
                ],
                counts={
                    "ticks": ticks,
                    "ticks_missed": ticks - done + late,
                    "service_gap_max_s": c.max_service_gap_s,
                    "handoff_pause_max_s": c.max_handoff_pause_s,
                    "handoffs": c.handoffs,
                    "evacuations": c.evacuations,
                    "degradations": c.degradations,
                    "commits": c.commits,
                    "aborts": c.aborts,
                },
            )
            if not c.no_stranded:
                out.failures.append(
                    f"geo: a tenant was stranded (worst gap {c.max_service_gap_s!r} s)"
                )
            if c.duplicate_completions:
                out.failures.append(
                    f"geo: {c.duplicate_completions} duplicate completions"
                )
            if c.handoffs != c.commits:
                out.failures.append(
                    f"geo: {c.handoffs} handoffs but {c.commits} commits"
                )
            return out

        return run

    return Part("geo:site_outage", build)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A list of parts plus the checks that span parts."""

    parts: Callable[[int], list[Part]]
    cross_checks: Callable[[list[Part], list[Outcome]], None] | None = None


WORKLOADS: dict[str, Workload] = {
    "explore": Workload(lambda seed: [_mission_part("explore", DEPLOYMENTS[2], seed)]),
    "navigate": Workload(
        lambda seed: [_mission_part("navigate", d, seed) for d in DEPLOYMENTS],
        _fig13_shape,
    ),
    "fleet": Workload(
        lambda seed: [
            _fleet_part("fleet:phase_a", FLEET_A, seed),
            _fleet_part("fleet:phase_b", FLEET_B, seed),
        ],
    ),
    "geo": Workload(lambda seed: [_geo_part(seed)]),
}
