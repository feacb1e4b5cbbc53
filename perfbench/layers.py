"""Per-layer host-time tracing, installed from outside the program.

:func:`install` replaces each listed public method of the ``repro``
layers with a wrapper that records a span around the call. A span's
self time is its duration minus the durations of the spans opened
inside it, so nested calls are never counted twice; ``calls`` counts
entries into a metric's functions from outside that metric (a
``NetworkFabric.send`` that calls ``UdpChannel.send`` is one network
call). Whatever no span covers -- kernel, middleware dispatch, glue --
is the residual, ``traced wall - sum(self times)``.

Only the traced worker process calls :func:`install`; untraced runs
never see a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

#: metric prefix -> (module, class, method) of the public calls it times.
SPANS: dict[str, list[tuple[str, str, str]]] = {
    "world.lidar": [("repro.world.lidar", "Lidar", "scan")],
    "perception.gmapping": [("repro.perception.gmapping", "GMapping", "process")],
    "perception.costmap": [
        ("repro.perception.costmap", "LayeredCostmap", "update_from_scan")
    ],
    "perception.amcl": [
        ("repro.perception.amcl", "Amcl", m) for m in ("predict", "update", "resample")
    ],
    "planning.global": [("repro.planning.global_planner", "GlobalPlanner", "plan")],
    "planning.frontier": [("repro.planning.frontier", "FrontierExplorer", "next_goal")],
    "control.dwa": [("repro.control.dwa", "DwaPlanner", "compute")],
    "vehicle.step": [("repro.vehicle.robot", "LGV", "step")],
    "middleware.publish": [
        ("repro.middleware.graph", "Graph", m) for m in ("publish", "inject")
    ],
    "network.send": [
        ("repro.network.fabric", "NetworkFabric", "send"),
        ("repro.network.udp", "UdpChannel", "send"),
        ("repro.network.fabric", "FleetRadioNetwork", "uplink_latency"),
        ("repro.network.fabric", "FleetRadioNetwork", "downlink_latency"),
    ],
    "core.adjust": [("repro.core.framework", "OffloadingFramework", "adjust")],
    "cloud.submit": [("repro.cloud.pool", "WorkerPool", "submit")],
    "cloud.pick": [
        ("repro.cloud.scheduler", c, "pick")
        for c in ("FifoScheduler", "EdfScheduler", "ProcessorSharingScheduler")
    ],
    "sites.select": [("repro.sites.selector", "SiteSelector", "select")],
    "recovery.request": [("repro.recovery.protocol", "TwoPhaseMigrator", "request")],
    "recovery.lease_tick": [("repro.recovery.supervisor", "LeaseSupervisor", "tick")],
    # FluidBackground.rebalance() has no caller in the program; the
    # layer's run-time work is attaching and the periodic re-fit that
    # re-splits the fluid demand across the live pools
    "hybrid.recalibrate": [
        ("repro.hybrid.background", "FluidBackground", m)
        for m in ("attach", "rebalance", "_recalibrate")
    ],
}


class SpanRecorder:
    """Self time and call counts per metric prefix.

    ``after`` hooks run once per outermost call of their prefix, after
    its span closed, with ``(instance, result)``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.after: dict[str, Callable[[Any, Any], None]] = {}
        # open spans, innermost last: [prefix, child seconds]
        self._stack: list[list[Any]] = []

    def wrap(self, prefix: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span recorded around every call."""
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outermost = not stack or stack[-1][0] != prefix
            frame = [prefix, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self.self_s[prefix] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if outermost:
                self.calls[prefix] += 1
                hook = self.after.get(prefix)
                if hook is not None:
                    hook(args[0] if args else None, result)
            return result

        return traced

    def reset(self) -> None:
        """Forget every span (between passes)."""
        self.self_s.clear()
        self.calls.clear()


def install(recorder: SpanRecorder) -> dict[str, list[Any]]:
    """Wrap every method in :data:`SPANS`; capture new kernel objects.

    Returns lists that fill with each ``Simulator``, ``Graph`` and
    ``WorkerPool`` built afterwards (their constructors are wrapped to
    record the instance, untimed), so per-pass counters can be read
    from objects the experiment entry points create internally.
    """
    for prefix, targets in SPANS.items():
        for module, cls_name, method in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, method, recorder.wrap(prefix, cls.__dict__[method]))

    built: dict[str, list[Any]] = {"sims": [], "graphs": [], "pools": []}
    for key, module, cls_name in (
        ("sims", "repro.sim.kernel", "Simulator"),
        ("graphs", "repro.middleware.graph", "Graph"),
        ("pools", "repro.cloud.pool", "WorkerPool"),
    ):
        cls = getattr(importlib.import_module(module), cls_name)
        cls.__init__ = _capturing(cls.__init__, built[key])
    return built


def _capturing(init: Callable[..., None], into: list[Any]) -> Callable[..., None]:
    @functools.wraps(init)
    def capture(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        into.append(self)

    return capture
