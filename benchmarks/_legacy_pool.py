"""Frozen list-queue pool worker, kept verbatim for reference.

``LegacyPoolWorker`` is :class:`repro.cloud.pool.PoolWorker` exactly as
it shipped before the keyed ready heap: the queue is a plain list in
enqueue order, and every ``_dispatch`` rebuilds the list of each job's
``policy_req`` (itself a ``min`` over the job's members) and asks the
scheduler's linear ``pick`` for an index; ``load()``, ``queue_depth()``,
``inflight()``, ``_free_threads()``, ``_stretch`` inputs and
``_ps_rate`` re-sum the queue and active lists on every call. The
``Legacy*Scheduler`` classes are the schedulers' ``pick`` methods of
the same version (EDF scans the whole list). They exist for two
reasons:

* ``tests/test_properties.py`` drives random submit / finish /
  evict / flush / background sequences through both workers and
  requires the same start order, completion times and eviction
  order, for every discipline, batched and unbatched;
* ``test_pool_dispatch.py`` measures the current worker against this
  one on an EDF backlog in the same process, so
  ``BENCH_pool_dispatch.json``'s speedup is a machine-independent
  ratio the CI guard can check.

Do not "fix" or modernize anything here — its value is that it stays
exactly what shipped before the rewrite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cloud.batching import BatchKey, BatchPolicy, batch_key
from repro.cloud.pool import CompletionFn
from repro.cloud.request import TickRequest
from repro.cloud.scheduler import Scheduler
from repro.compute.host import Host
from repro.sim.events import Event
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


class LegacyFifoScheduler(Scheduler):
    """Serve strictly in arrival order."""

    name = "fifo"

    def pick(self, queue: list[TickRequest], now: float) -> int:
        return 0


class LegacyEdfScheduler(Scheduler):
    """Earliest absolute deadline first (``issued_at + 1/tick_rate``).

    Ties break on arrival order (stable), so two tenants with the same
    tick rate interleave deterministically.
    """

    name = "edf"

    def pick(self, queue: list[TickRequest], now: float) -> int:
        best = 0
        for i in range(1, len(queue)):
            if queue[i].absolute_deadline < queue[best].absolute_deadline:
                best = i
        return best


class LegacyProcessorSharingScheduler(Scheduler):
    """All requests share the cores; overload stretches everyone."""

    name = "ps"
    sharing = True

    def pick(self, queue: list[TickRequest], now: float) -> int:
        raise RuntimeError("processor sharing has no queue to pick from")


#: Remaining-work epsilon (s) below which a shared job counts as done.
_PS_EPS = 1e-9


class _Member:
    """One request riding in a (possibly batched) job."""

    __slots__ = ("req", "on_complete", "enqueued_at")

    def __init__(
        self, req: TickRequest, on_complete: CompletionFn, enqueued_at: float
    ) -> None:
        self.req = req
        self.on_complete = on_complete
        self.enqueued_at = enqueued_at


class _Job:
    """One unit of execution on a worker: a single request or a batch.

    Every member of a batch shares the job's fate — they start
    together, finish together, and are evicted together. ``iso_s`` is
    the contention-free duration of the job (amortized across the
    batch, including any host derate) — the observed-service signal
    the hybrid layer re-calibrates its fluid model from.
    """

    __slots__ = (
        "members", "width", "started_at", "event", "remaining_s",
        "iso_s",
    )

    def __init__(self, members: list[_Member], width: int) -> None:
        self.members = members
        self.width = width
        self.started_at = 0.0
        self.event: Event | None = None  # queueing-mode completion event
        self.remaining_s = 0.0  # PS-mode contention-free work left
        self.iso_s = 0.0  # contention-free duration (calibration signal)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def policy_req(self) -> TickRequest:
        """The request the scheduler judges this job by.

        The earliest-absolute-deadline member, so EDF treats a batch
        as urgent as its most urgent rider; for a single-request job
        this is simply the request (ties keep arrival order — ``min``
        is stable).
        """
        return min(self.members, key=lambda m: m.req.absolute_deadline).req


class _Stage:
    """A per-shape staging buffer collecting one batch."""

    __slots__ = ("members", "timer", "t_first", "min_deadline")

    def __init__(self) -> None:
        self.members: list[_Member] = []
        self.timer: Event | None = None
        self.t_first = 0.0
        self.min_deadline = float("inf")


class LegacyPoolWorker:
    """``PoolWorker`` as it shipped with a list queue (see module doc)."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        scheduler: Scheduler,
        telemetry: "Telemetry | None" = None,
        batching: BatchPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.scheduler = scheduler
        self.telemetry = telemetry
        self.batching = batching
        self.capacity = host.platform.hardware_threads
        #: Autoscaler drain flag: a retiring worker takes no new work.
        self.accepting = True
        self._queue: list[_Job] = []
        self._active: list[_Job] = []
        #: Batching staging buffers, one per compatible request shape.
        self._stages: dict[BatchKey, _Stage] = {}
        # processor-sharing bookkeeping
        self._ps_last_t = sim.now()
        self._ps_event: Event | None = None
        #: Requests completed by this worker (capacity accounting).
        self.served = 0
        #: Batches executed and requests they carried (occupancy stats).
        self.batches = 0
        self.batched_requests = 0
        #: Fluid background demand (repro.hybrid), in continuously
        #: claimed hardware threads. Stretches service but never
        #: occupies queue slots — the fluid analog of N-K tenants'
        #: duty-cycled core usage.
        self.background_load = 0.0
        #: Observed contention-free service seconds and the model's
        #: prediction for the same completions (single-request, no
        #: derate, no batching) — the hybrid calibration signal: their
        #: ratio captures derates and batching amortization.
        self.obs_iso_s = 0.0
        self.obs_pred_s = 0.0
        self.obs_requests = 0

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """Mirrors the host's fault state."""
        return self.host.up

    def queue_depth(self) -> int:
        """Requests waiting, staged batches included (0 under PS)."""
        return sum(j.size for j in self._queue) + sum(
            len(s.members) for s in self._stages.values()
        )

    def inflight(self) -> int:
        """Requests currently executing."""
        return sum(j.size for j in self._active)

    def load(self) -> float:
        """Thread demand (running + queued + fluid) over capacity.

        Exceeds 1.0 when overcommitted — under processor sharing that
        is exactly the analytical model's utilization > 1 regime. The
        fluid background's continuous demand counts here so balancers
        and the autoscaler see the hybrid population.
        """
        demand = (
            sum(j.width for j in self._active)
            + sum(j.width for j in self._queue)
            + self.background_load
        )
        return demand / self.capacity

    # ------------------------------------------------------------------
    # Fluid background (repro.hybrid)
    # ------------------------------------------------------------------
    def set_background(self, cores: float) -> None:
        """Impose ``cores`` of continuous fluid demand on this worker.

        Under processor sharing the in-flight jobs' progress is
        credited at the old rate first, then the share timer re-plans
        at the new one. Under queueing, already-running jobs keep the
        duration they started with; the new demand stretches jobs
        started from now on. A no-op when the demand is unchanged, so
        zero-background runs stay byte-identical.
        """
        if cores < 0:
            raise ValueError(f"background cores must be non-negative, got {cores}")
        if cores == self.background_load:
            return
        now = self.sim.now()
        if self.scheduler.sharing:
            self._ps_advance(now)
            self.background_load = cores
            if self._active:
                self._ps_reschedule(now)
        else:
            self.background_load = cores

    def _stretch(self, width_demand: float) -> float:
        """Fluid contention factor for ``width_demand`` running threads."""
        demand = width_demand + self.background_load
        if demand <= self.capacity:
            return 1.0
        return demand / self.capacity

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, req: TickRequest, on_complete: CompletionFn) -> None:
        """Accept one request under this worker's discipline."""
        now = self.sim.now()
        if self.batching is not None:
            self._stage_submit(req, on_complete, now)
            return
        width = min(req.threads, self.capacity)
        self._admit(_Job([_Member(req, on_complete, now)], width))

    def _admit(self, job: _Job) -> None:
        """Hand one (possibly batched) job to the discipline."""
        if self.scheduler.sharing:
            self._ps_admit(job)
        else:
            self._queue.append(job)
            self._dispatch()

    # -- batching (staging window) -------------------------------------
    def _stage_submit(
        self, req: TickRequest, on_complete: CompletionFn, now: float
    ) -> None:
        """Park one request in its shape's staging buffer.

        The buffer flushes on whichever bound trips first: size
        (``max_size`` riders), wait (``max_wait_s`` after the first
        rider), or deadline (waiting out the window would leave a
        rider less than ``deadline_guard_s`` of slack).
        """
        pol = self.batching
        assert pol is not None
        key = batch_key(req)
        stage = self._stages.get(key)
        if stage is None:
            stage = _Stage()
            self._stages[key] = stage
        member = _Member(req, on_complete, now)
        stage.members.append(member)
        if req.absolute_deadline < stage.min_deadline:
            stage.min_deadline = req.absolute_deadline
        size = len(stage.members)
        if size >= pol.max_size:
            self._flush_stage(key)
            return
        t_first = stage.t_first if size > 1 else now
        iso = self.host.exec_time(req.cycles, req.threads, req.profile)
        est_done = t_first + pol.max_wait_s + pol.duration(iso, size)
        if est_done + pol.deadline_guard_s > stage.min_deadline:
            self._flush_stage(key)
            return
        if size == 1:
            stage.t_first = now
            stage.timer = self.sim.schedule_after(
                pol.max_wait_s,
                lambda: self._flush_stage(key),
                label=f"pool:{self.host.name}:batchwait",
            )

    def _flush_stage(self, key: BatchKey) -> None:
        """Turn one staging buffer into a job and admit it."""
        stage = self._stages.pop(key, None)
        if stage is None or not stage.members:  # raced with eviction
            return
        if stage.timer is not None:
            self.sim.cancel(stage.timer)
            stage.timer = None
        head = stage.members[0].req
        width = min(head.threads, self.capacity)
        job = _Job(stage.members, width)
        self.batches += 1
        self.batched_requests += job.size
        if self.telemetry is not None:
            self.telemetry.metrics.histogram(
                "cloud_batch_occupancy",
                "requests coalesced per executed batch, per worker",
            ).observe(job.size, worker=self.host.name)
        self._admit(job)

    def _trace_segment(
        self, req: TickRequest, name: str, t_start: float, t_end: float,
        **attrs: object,
    ) -> None:
        """Record one causal segment against the request's trace.

        Segments telescope: ``queue_wait`` spans enqueue -> start and
        ``service`` spans start -> finish, so a request's segment sum
        equals its pool sojourn even across crash rebalances (each
        placement contributes its own pair; eviction closes the partial
        ones at crash time).
        """
        tel = self.telemetry
        if tel is None or tel.requests is None or req.ctx is None:
            return
        tel.requests.segment(
            req.ctx, name, t_start, t_end, worker=self.host.name, **attrs
        )

    def evict_all(self) -> list[tuple[TickRequest, CompletionFn]]:
        """Cancel everything (crash/retire); returns requests to re-place.

        Active requests lose their progress — the replacement worker
        starts them from scratch, which is what a stateless tick
        recompute costs in the real system. A batch dies as a whole:
        each member is returned exactly once (active, then queued,
        then staged) and the batch's completion event is cancelled, so
        a crash that splits a batch can never double-complete — and
        hence never double-count — any of its riders.
        """
        now = self.sim.now()
        victims: list[tuple[TickRequest, CompletionFn]] = []
        for j in self._active:
            if j.event is not None:
                self.sim.cancel(j.event)
                j.event = None
            self.host.vacate(j.width, now)
            for m in j.members:
                victims.append((m.req, m.on_complete))
                # Close the partial service segment at crash time so the
                # request's timeline stays gap-free across the rebalance.
                self._trace_segment(m.req, "service", j.started_at, now, evicted=True)
        for j in self._queue:
            for m in j.members:
                victims.append((m.req, m.on_complete))
                self._trace_segment(
                    m.req, "queue_wait", m.enqueued_at, now, evicted=True
                )
        for stage in self._stages.values():
            if stage.timer is not None:
                self.sim.cancel(stage.timer)
                stage.timer = None
            for m in stage.members:
                victims.append((m.req, m.on_complete))
                self._trace_segment(
                    m.req, "queue_wait", m.enqueued_at, now, evicted=True
                )
            stage.members = []
        if self._ps_event is not None:
            self.sim.cancel(self._ps_event)
            self._ps_event = None
        self._active.clear()
        self._queue.clear()
        self._stages.clear()
        self._ps_last_t = now
        return victims

    # -- queueing (FIFO / EDF) -----------------------------------------
    def _free_threads(self) -> int:
        return self.capacity - sum(j.width for j in self._active)

    def _dispatch(self) -> None:
        now = self.sim.now()
        while self._queue:
            i = self.scheduler.pick([j.policy_req for j in self._queue], now)
            if self._queue[i].width > self._free_threads():
                break  # policy head blocks until it fits (no backfill)
            job = self._queue.pop(i)
            self._start(job, now)

    def _iso_duration(self, job: _Job) -> float:
        """Contention-free duration of one job (batch-amortized)."""
        head = job.members[0].req
        iso = self.host.exec_time(head.cycles, head.threads, head.profile)
        if self.batching is None:
            return iso
        return self.batching.duration(iso, job.size)

    def _start(self, job: _Job, now: float) -> None:
        job.started_at = now
        size = job.size
        batch_attrs = {"batch": size} if size > 1 else {}
        for m in job.members:
            self._trace_segment(
                m.req, "queue_wait", m.enqueued_at, now, **batch_attrs
            )
        job.iso_s = self._iso_duration(job)
        # Fluid background contention: running width (this job included)
        # plus the background's continuous demand, over capacity. With
        # no background this is <= 1 by the dispatch guard, so the
        # duration is exactly the isolated one.
        stretch = self._stretch(
            sum(j.width for j in self._active) + job.width
        )
        duration = job.iso_s * stretch if stretch > 1.0 else job.iso_s
        self.host.occupy(job.width, now)
        self._active.append(job)
        head = job.members[0].req
        label_key = head.tenant if size == 1 else f"batch{size}"
        job.event = self.sim.schedule_after(
            duration,
            lambda: self._finish(job),
            label=f"pool:{self.host.name}:{label_key}",
        )

    def _finish(self, job: _Job) -> None:
        now = self.sim.now()
        job.event = None
        self._active.remove(job)
        self.host.vacate(job.width, now)
        self._complete_members(job, now, shared=False)
        self._dispatch()

    def _complete_members(self, job: _Job, now: float, shared: bool) -> None:
        """Account, trace and call back every member of a finished job.

        A member whose request already completed elsewhere (a stale
        duplicate after a crash-split rebalance) is skipped entirely:
        it contributes neither to ``served`` nor to the energy or
        calibration accounting, so pool throughput metrics count each
        request exactly once.
        """
        size = job.size
        elapsed = now - job.started_at
        batch_attrs: dict[str, object] = {"batch": size} if size > 1 else {}
        if shared:
            batch_attrs["shared"] = True
        head = job.members[0].req
        self.obs_iso_s += job.iso_s
        self.obs_pred_s += size * self.host.exec_model.exec_time(
            head.cycles, head.threads, head.profile
        )
        self.obs_requests += size
        live = [m for m in job.members if not m.req.completed]
        for m in live:
            self.host.account(m.req.tenant, m.req.cycles, elapsed / size)
            self._trace_segment(
                m.req, "service", job.started_at, now,
                width=job.width, **batch_attrs,
            )
        self.served += len(live)
        for m in live:
            m.on_complete(m.req, now)

    # -- processor sharing ---------------------------------------------
    def _ps_rate(self) -> float:
        demand = sum(j.width for j in self._active) + self.background_load
        if demand <= self.capacity:
            return 1.0
        return self.capacity / demand

    def _ps_advance(self, now: float) -> None:
        """Credit progress to every shared job since the last event."""
        elapsed = now - self._ps_last_t
        if elapsed > 0 and self._active:
            rate = self._ps_rate()
            for j in self._active:
                j.remaining_s -= elapsed * rate
        self._ps_last_t = now

    def _ps_admit(self, job: _Job) -> None:
        now = self.sim.now()
        self._ps_advance(now)
        job.started_at = now
        size = job.size
        batch_attrs = {"batch": size} if size > 1 else {}
        # Processor sharing admits immediately: queue_wait spans only
        # any batching stage wait (zero-width when unbatched).
        for m in job.members:
            self._trace_segment(
                m.req, "queue_wait", m.enqueued_at, now, **batch_attrs
            )
        job.iso_s = self._iso_duration(job)
        job.remaining_s = job.iso_s
        self.host.occupy(job.width, now)
        self._active.append(job)
        self._ps_reschedule(now)

    def _ps_reschedule(self, now: float, spent: Event | None = None) -> None:
        if self._ps_event is not None:
            self.sim.cancel(self._ps_event)
            self._ps_event = None
        if not self._active:
            return
        rate = self._ps_rate()
        soonest = min(j.remaining_s for j in self._active)
        delay = max(0.0, soonest / rate)
        if spent is not None:
            # Share-tick fast path: recycle the timer that just fired
            # instead of allocating a fresh event per PS re-plan.
            self._ps_event = self.sim.reschedule_after(spent, delay)
        else:
            self._ps_event = self.sim.schedule_after(
                delay, self._ps_complete, label=f"pool:{self.host.name}:share"
            )

    def _ps_complete(self) -> None:
        now = self.sim.now()
        spent = self._ps_event  # the share timer firing right now
        self._ps_event = None
        self._ps_advance(now)
        done = [j for j in self._active if j.remaining_s <= _PS_EPS]
        for job in done:
            self._active.remove(job)
            self.host.vacate(job.width, now)
            self._complete_members(job, now, shared=True)
        self._ps_reschedule(now, spent=spent)
