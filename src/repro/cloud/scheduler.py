"""Per-worker scheduling disciplines.

A :class:`~repro.cloud.pool.PoolWorker` serves requests under one of
two mechanics, selected by its scheduler:

* **Queueing** (:class:`FifoScheduler`, :class:`EdfScheduler`) — each
  request holds ``min(threads, capacity)`` cores for its full modeled
  execution time; requests that do not fit wait in a queue ordered by
  the policy's sort key, :meth:`Scheduler.key` (``0.0`` for FIFO, the
  absolute deadline for EDF), with ties kept in arrival order. No
  backfill: the policy's head blocks until it fits, which keeps both
  disciplines starvation-free and easy to reason about.
* **Processor sharing** (:class:`ProcessorSharingScheduler`) — every
  admitted request runs immediately; whenever the summed thread
  demand exceeds the worker's hardware threads, all in-flight
  requests slow down by the common factor ``capacity / demand``. This
  is the event-driven realization of the analytical contention model
  in :mod:`repro.extensions.fleet` (stretch = max(1, utilization)),
  and the two are cross-validated in ``tests/test_cloud.py``.

When worker-side batching (:mod:`repro.cloud.batching`) is enabled,
the unit the worker queues and runs is a *batch job*, and the request
a policy sees through :meth:`Scheduler.key` is the job's
representative — its earliest-absolute-deadline member — so EDF
treats a batch as exactly as urgent as its most urgent rider. With
batching disabled (the default) every job carries one request and
nothing changes.

A worker computes a job's key once, when the job is queued, and keeps
its queue as a heap ordered by ``(key, arrival)``. :meth:`Scheduler.pick`
picks from a plain list by the same order (the argmin of
``(key(queue[i]), i)``), for callers that hold one.
"""

from __future__ import annotations

from repro.cloud.request import TickRequest

#: CLI / experiment spelling -> scheduler class (see :func:`make_scheduler`).
SCHEDULER_NAMES = ("fifo", "edf", "ps")


class Scheduler:
    """Base scheduling policy for one worker's request queue."""

    name = "scheduler"

    #: True for disciplines where all admitted requests run
    #: concurrently at a shared rate (no queue).
    sharing = False

    def key(self, req: TickRequest) -> float:
        """Sort key of ``req``: lower starts first, ties in arrival order."""
        raise NotImplementedError

    def pick(self, queue: list[TickRequest], now: float) -> int:
        """Index into ``queue`` of the next request to start."""
        raise NotImplementedError

    def _argmin(self, queue: list[TickRequest]) -> int:
        """The index :meth:`key` order starts first: argmin of ``(key, i)``."""
        return min(range(len(queue)), key=lambda i: (self.key(queue[i]), i))


class FifoScheduler(Scheduler):
    """Serve strictly in arrival order."""

    name = "fifo"

    def key(self, req: TickRequest) -> float:
        return 0.0

    def pick(self, queue: list[TickRequest], now: float) -> int:
        return self._argmin(queue)


class EdfScheduler(Scheduler):
    """Earliest absolute deadline first (``issued_at + 1/tick_rate``).

    Ties break on arrival order (stable), so two tenants with the same
    tick rate interleave deterministically.
    """

    name = "edf"

    def key(self, req: TickRequest) -> float:
        return req.absolute_deadline

    def pick(self, queue: list[TickRequest], now: float) -> int:
        return self._argmin(queue)


class ProcessorSharingScheduler(Scheduler):
    """All requests share the cores; overload stretches everyone."""

    name = "ps"
    sharing = True

    def key(self, req: TickRequest) -> float:
        raise RuntimeError("processor sharing has no queue to order")

    def pick(self, queue: list[TickRequest], now: float) -> int:
        raise RuntimeError("processor sharing has no queue to pick from")


def make_scheduler(name: str) -> Scheduler:
    """Scheduler from its CLI spelling (``fifo`` / ``edf`` / ``ps``)."""
    if name == "fifo":
        return FifoScheduler()
    if name == "edf":
        return EdfScheduler()
    if name == "ps":
        return ProcessorSharingScheduler()
    raise ValueError(f"unknown scheduler {name!r}; have {list(SCHEDULER_NAMES)}")
