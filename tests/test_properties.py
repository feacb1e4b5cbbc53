"""Property-based tests: cross-module invariants under hypothesis.

These complement the per-module suites with the algebraic guarantees
the system's correctness rests on: conservation (packets, energy),
monotonicity (costs, velocities), determinism, and equivalence of the
serial and parallel implementations on arbitrary inputs.
"""


import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.compute.executor import ExecutionModel, SLAM_PROFILE
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY, TURTLEBOT3_PI
from repro.control.velocity_law import max_velocity_oa
from repro.core.bottleneck import classify_nodes, NodeClass
from repro.core.model import energy_compute, energy_motor, energy_transmission
from repro.network.link import WirelessLink
from repro.network.signal import PathLossModel, WapSite, link_quality, phy_rate
from repro.network.udp import UdpChannel
from repro.sim import Simulator
from repro.sim.rng import seeded_rng
from repro.vehicle.kinematics import DiffDriveState, step_diff_drive
from repro.world.geometry import Pose2D, angle_diff


class TestConservation:
    @given(st.lists(st.floats(0.2, 30.0), min_size=1, max_size=80), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_udp_packet_conservation(self, distances, seed):
        """sent == delivered + dropped_air + dropped_buffer + still-held."""
        pos = [distances[0], 0.0]
        link = WirelessLink(WapSite(0, 0), lambda: (pos[0], pos[1]), seeded_rng(seed))
        udp = UdpChannel(link)
        for i, d in enumerate(distances):
            pos[0] = d
            udp.send(500, i * 0.2)
        s = udp.stats
        assert s.sent == s.delivered + s.dropped_air + s.dropped_buffer + udp.held_packets

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_battery_never_negative(self, draws):
        from repro.vehicle import Battery

        b = Battery(0.01)
        for d in draws:
            b.draw(d * 10)
        assert 0.0 <= b.remaining_j <= b.capacity_j
        assert 0.0 <= b.state_of_charge <= 1.0


class TestMonotonicity:
    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=50)
    def test_velocity_law_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert max_velocity_oa(hi) <= max_velocity_oa(lo) + 1e-12

    @given(st.floats(0.1, 100.0), st.floats(0.1, 100.0))
    @settings(max_examples=50)
    def test_rssi_monotone_in_distance(self, a, b):
        lo, hi = sorted((a, b))
        m = PathLossModel()
        assert m.rssi(hi) <= m.rssi(lo)

    @given(st.floats(-110, -30), st.floats(-110, -30))
    @settings(max_examples=50)
    def test_quality_and_rate_monotone_in_rssi(self, a, b):
        lo, hi = sorted((a, b))
        assert link_quality(lo) <= link_quality(hi)
        assert phy_rate(lo) <= phy_rate(hi)

    @given(st.floats(1e6, 1e11), st.floats(1e6, 1e11), st.integers(1, 24))
    @settings(max_examples=50)
    def test_exec_time_monotone_in_cycles(self, c1, c2, threads):
        lo, hi = sorted((c1, c2))
        m = ExecutionModel(CLOUD_SERVER)
        assert m.exec_time(lo, threads, SLAM_PROFILE) <= m.exec_time(hi, threads, SLAM_PROFILE)

    @given(st.floats(1e6, 1e12))
    @settings(max_examples=30)
    def test_faster_platform_never_slower(self, cycles):
        t_pi = TURTLEBOT3_PI.serial_time(cycles)
        t_gw = EDGE_GATEWAY.serial_time(cycles)
        assert t_gw < t_pi


class TestEnergyAlgebra:
    @given(st.floats(0, 1e12), st.floats(0, 1e12))
    @settings(max_examples=40)
    def test_compute_energy_additive(self, c1, c2):
        k, f = 2e-27, 1.4e9
        total = energy_compute(k, c1 + c2, f)
        parts = energy_compute(k, c1, f) + energy_compute(k, c2, f)
        assert total == pytest.approx(parts, rel=1e-12)

    @given(st.floats(0, 1e7), st.floats(0, 1e7), st.floats(1e6, 1e8))
    @settings(max_examples=40)
    def test_transmission_energy_additive(self, d1, d2, rate):
        total = energy_transmission(1.2, d1 + d2, rate)
        parts = energy_transmission(1.2, d1, rate) + energy_transmission(1.2, d2, rate)
        assert total == pytest.approx(parts, rel=1e-12)

    @given(st.floats(0, 1), st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=40)
    def test_motor_energy_additive_in_time(self, v, t1, t2):
        e = energy_motor(0.5, 1.0, v, 0.0, 0.6, t1 + t2)
        parts = energy_motor(0.5, 1.0, v, 0.0, 0.6, t1) + energy_motor(0.5, 1.0, v, 0.0, 0.6, t2)
        assert e == pytest.approx(parts, rel=1e-9, abs=1e-9)


class TestKinematicsProperties:
    @given(
        st.floats(-1, 1), st.floats(-2.8, 2.8),
        st.floats(-1, 1), st.floats(-2.8, 2.8),
        st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_substepping_consistency(self, v0, w0, cmd_v, cmd_w, n):
        """Integrating one dt or n sub-dts lands within numerical slop.

        (Exact when velocities have converged to the command; bounded
        drift during the slew phase.)"""
        s = DiffDriveState(Pose2D(), v=cmd_v, w=cmd_w)  # already at command
        dt = 0.2
        one = step_diff_drive(s, cmd_v, cmd_w, dt)
        many = s
        for _ in range(n):
            many = step_diff_drive(many, cmd_v, cmd_w, dt / n)
        assert one.pose.distance_to(many.pose) < 1e-9
        assert abs(angle_diff(one.pose.theta, many.pose.theta)) < 1e-9

    @given(st.floats(-0.5, 0.5), st.floats(-2, 2), st.floats(0.01, 0.5))
    @settings(max_examples=40)
    def test_speed_never_exceeds_command_envelope(self, cmd_v, cmd_w, dt):
        s = DiffDriveState(Pose2D())
        for _ in range(10):
            s = step_diff_drive(s, cmd_v, cmd_w, dt)
        assert abs(s.v) <= abs(cmd_v) + 1e-9
        assert abs(s.w) <= abs(cmd_w) + 1e-9


class TestSimulatorProperties:
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_event_execution_time_ordered(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda t=t: fired.append(sim.now()))
        sim.run()
        assert fired == sorted(fired)
        assert sim.now() == max(times)

    @given(
        st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(0, 20)), min_size=1, max_size=8)
    )
    @settings(max_examples=30, deadline=None)
    def test_periodic_fire_counts(self, procs):
        sim = Simulator()
        counters = []
        horizon = 10.0
        for period, _ in procs:
            c = [0]
            counters.append(c)
            sim.every(period, lambda c=c: c.__setitem__(0, c[0] + 1))
        sim.run(until=horizon)
        for (period, _), c in zip(procs, counters):
            # fp accumulation may push the last firing just past the
            # horizon (or just inside it): exact count +/- 1
            assert abs(c[0] - horizon / period) <= 1.0


class TestClassificationProperties:
    @given(
        st.dictionaries(
            st.sampled_from(
                ["localization", "slam", "costmap_gen", "path_planning",
                 "exploration", "path_tracking", "velocity_mux"]
            ),
            st.floats(0, 1e12),
            min_size=1,
        )
    )
    @settings(max_examples=50)
    def test_every_node_gets_exactly_one_class(self, cycles):
        cls = classify_nodes(cycles)
        assert set(cls.classes) == set(cycles)
        # the four sets partition the node set
        all_nodes = sum((list(cls.nodes_in(c)) for c in NodeClass), [])
        assert sorted(all_nodes) == sorted(cycles)

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.floats(0, 1e12), min_size=1))
    @settings(max_examples=50)
    def test_offload_sets_disjoint_from_pinned(self, cycles):
        cls = classify_nodes(cycles)
        assert "velocity_mux" not in cls.offload_for_energy
        assert set(cls.offload_for_time) <= set(cls.offload_for_energy)


class TestParallelEquivalence:
    @given(st.integers(1, 9), st.integers(5, 60), st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_dwa_parallel_any_thread_count(self, threads, samples, seed):
        """Parallel scoring equals serial for arbitrary (threads, N)."""
        from repro.control.dwa import DwaConfig, DwaPlanner, TrajectoryScorer
        from repro.control.dwa_parallel import ParallelScorer
        from repro.perception.costmap import LayeredCostmap
        from repro.world.maps import box_world

        assume(samples >= 4)
        cm = LayeredCostmap(static_map=box_world(8.0))
        dwa = DwaPlanner(cm, DwaConfig(n_samples=samples))
        rng = seeded_rng(seed)
        path = rng.uniform(1.5, 6.5, size=(4, 2))
        dwa.set_path(path)
        pose = Pose2D(*rng.uniform(2.0, 6.0, size=2), float(rng.uniform(-3, 3)))
        dwa._target = dwa._lookahead(pose)
        v, w = dwa.rollout.sample_window(0.2, 0.0, 0.8, 2.8, samples)
        traj = dwa.rollout.rollout(pose.x, pose.y, pose.theta, v, w)
        serial = TrajectoryScorer().score(traj, dwa)
        with ParallelScorer(threads) as ps:
            parallel = ps.score(traj, dwa)
        assert np.array_equal(serial, parallel)


@st.composite
def grids(draw):
    """A small grid at a random offset with OCCUPIED/UNKNOWN/FREE rectangles."""
    from repro.world.grid import CellState, OccupancyGrid

    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    res = draw(st.sampled_from([0.05, 0.07, 0.1]))
    origin = Pose2D(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    fill = draw(st.sampled_from([CellState.FREE, CellState.UNKNOWN]))
    grid = OccupancyGrid.empty(rows, cols, res, origin, fill=fill)
    for _ in range(draw(st.integers(0, 5))):
        r0, c0 = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        r1, c1 = draw(st.integers(r0, rows - 1)), draw(st.integers(c0, cols - 1))
        state = draw(st.sampled_from(list(CellState)))
        grid.data[r0 : r1 + 1, c0 : c1 + 1] = int(state)
    return grid


def points_around(grid, margin=1.0):
    """World coordinates on and up to ``margin`` m beyond the grid.

    Half the draws sit on the half-cell lattice, where axis-aligned and
    diagonal rays graze cell boundaries and any change in how sample
    points round shows up as a different cell.
    """
    half = 0.5 * grid.resolution
    n_margin = int(margin / half)

    def axis(lo, cells):
        return st.one_of(
            st.floats(lo - margin, lo + cells * grid.resolution + margin),
            st.integers(-n_margin, 2 * cells + n_margin).map(lambda k: lo + k * half),
        )

    return st.tuples(axis(grid.origin.x, grid.cols), axis(grid.origin.y, grid.rows))


headings = st.one_of(
    st.floats(-10.0, 10.0), st.integers(-16, 16).map(lambda k: k * np.pi / 4)
)


class TestPerceptionKernelEquivalence:
    """The all-beam kernels equal the frozen per-beam reference exactly."""

    @given(grids(), st.data(), st.lists(headings, min_size=1, max_size=90), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_cast_rays_matches_legacy(self, grid, data, angles, hit_unknown):
        from benchmarks._legacy_perception import cast_rays as legacy_cast_rays
        from repro.world.raycast import cast_rays

        x, y = data.draw(points_around(grid))
        max_range = data.draw(st.floats(0.01, 4.0))
        angles = np.array(angles)
        new = cast_rays(grid, x, y, angles, max_range, hit_unknown=hit_unknown)
        old = legacy_cast_rays(grid, x, y, angles, max_range, hit_unknown=hit_unknown)
        assert new.tobytes() == old.tobytes()

    def test_cast_rays_matches_legacy_on_grazing_rays(self):
        """Axis-aligned and diagonal rays from half-cell lattice points.

        Every sample point of these rays lies on a cell boundary, so
        the looked-up cell depends on the last bit of each coordinate:
        sample points must be accumulated exactly as the marching loop
        accumulated them, not computed as ``origin + i * step``.
        """
        from benchmarks._legacy_perception import cast_rays as legacy_cast_rays
        from repro.world.maps import box_world
        from repro.world.raycast import cast_rays

        grid = box_world(3.0)
        half = 0.5 * grid.resolution
        angles = np.arange(-8, 8) * np.pi / 4
        for i in range(2, 2 * grid.rows - 2, 11):
            for j in range(2, 2 * grid.cols - 2, 11):
                x, y = j * half, i * half
                new = cast_rays(grid, x, y, angles, 3.5)
                old = legacy_cast_rays(grid, x, y, angles, 3.5)
                assert new.tobytes() == old.tobytes(), (x, y)

    @given(grids(), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_costmap_clearing_matches_legacy(self, grid, data, seed):
        import copy

        from benchmarks._legacy_perception import update_from_scan as legacy_update
        from repro.perception.costmap import LayeredCostmap
        from repro.world.lidar import LidarScan

        rng = seeded_rng(seed)
        new = LayeredCostmap(static_map=grid)
        new._obstacle_lethal = rng.random(new._obstacle_lethal.shape) < 0.5
        old = copy.deepcopy(new)

        n = data.draw(st.integers(1, 360))
        range_min, range_max = 0.12, data.draw(st.floats(0.5, 3.5))
        ranges = rng.uniform(range_min, range_max, size=n)
        ranges[rng.random(n) < data.draw(st.floats(0.0, 1.0))] = range_max
        angles = np.linspace(-np.pi, np.pi, n, endpoint=False)
        x, y = data.draw(points_around(grid))
        pose = Pose2D(x, y, data.draw(st.floats(-10.0, 10.0)))
        scan = LidarScan(ranges, angles, range_min, range_max, pose)

        new.update_from_scan(scan, pose)
        legacy_update(old, scan, pose)
        assert np.array_equal(new._obstacle_lethal, old._obstacle_lethal)
        assert np.array_equal(new.cost, old.cost)


@st.composite
def gmapping_cases(draw):
    """A filter over a small random map, with particles on, near and far
    past the grid, and one scan to match or integrate.

    Log-odds are uniform in [-L_CLAMP, L_CLAMP] float32, with some cells
    pinned at either clamp and some at zero. Beams are shorter than a
    third of the grid, plus a few 3 m ones in half the scans. Half the
    particles sit near the middle of the grid, where the short beams
    stay on it; three in ten land within half a grid of its edges, so
    some candidates have a few endpoints off the grid; a fifth sit well
    beyond it, so all their endpoints miss it.
    """
    from repro.perception.gmapping import L_CLAMP, GMapping, GMappingConfig

    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    cfg = GMappingConfig(
        n_particles=draw(st.integers(1, 30)),
        rows=rows,
        cols=cols,
        resolution=draw(st.sampled_from([0.05, 0.07, 0.1])),
        origin=Pose2D(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))),
        search_rounds=draw(st.sampled_from([0, 1, 3])),
    )
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    slam = GMapping(cfg, rng=rng)
    extent = np.array([cols, rows]) * cfg.resolution
    origin = np.array([cfg.origin.x, cfg.origin.y])
    for p in slam.particles:
        lo = rng.uniform(-L_CLAMP, L_CLAMP, size=(rows, cols)).astype(np.float32)
        pick = rng.random((rows, cols))
        lo[pick < 0.1] = -L_CLAMP
        lo[pick > 0.9] = L_CLAMP
        lo[(pick > 0.45) & (pick < 0.55)] = 0.0
        p.log_odds = lo
        where = rng.random()
        if where < 0.5:
            u = rng.uniform(0.4, 0.6, size=2)
        elif where < 0.8:
            u = rng.uniform(-0.5, 1.5, size=2)
        else:
            u = np.array([-5.0, 1.0])
        p.pose = np.array([*(origin + u * extent), rng.uniform(-4.0, 4.0)])
    n_beams = draw(st.integers(1, 90))
    angles = np.sort(rng.uniform(-np.pi, np.pi, size=n_beams))
    ranges = rng.uniform(0.01, extent.min() / 3 + 0.01, size=n_beams)
    if rng.random() < 0.5:
        ranges[rng.random(n_beams) < 0.1] = 3.0
    return slam, ranges, angles


class TestGMappingKernelEquivalence:
    """Lockstep scanMatch and the ``np.unique``-free map integration
    equal the frozen per-particle reference exactly."""

    @given(gmapping_cases(), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_lockstep_scan_match_matches_legacy(self, case, scans_processed):
        import copy

        from benchmarks._legacy_perception import scan_match

        slam, ranges, angles = case
        slam.scans_processed = scans_processed  # 0: the first scan skips matching
        old = copy.deepcopy(slam)
        slam._scan_match_all(ranges, angles, range(len(slam.particles)))
        for p in old.particles:
            scan_match(old, p, ranges, angles)
        for new_p, old_p in zip(slam.particles, old.particles):
            assert new_p.pose.tobytes() == old_p.pose.tobytes()
            assert repr(new_p.match_score) == repr(old_p.match_score)

    @given(gmapping_cases(), st.floats(0.5, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_map_update_matches_legacy(self, case, range_max):
        import copy

        from benchmarks._legacy_perception import map_update

        slam, ranges, angles = case
        # three beams per direction: endpoints and free cells repeat
        ranges, angles = np.repeat(ranges, 3), np.repeat(angles, 3)
        old = copy.deepcopy(slam)
        slam._map_update_all(ranges, angles, range_max, range(len(slam.particles)))
        for p in old.particles:
            map_update(old, p, ranges, angles, range_max)
        for new_p, old_p in zip(slam.particles, old.particles):
            assert new_p.log_odds.tobytes() == old_p.log_odds.tobytes()


def _pool_req(op, seq, now):
    """The request a ``submit`` op describes, issued ``lag`` before now."""
    from repro.cloud.request import TickRequest

    _, tenant, cycles, threads, lag, deadline = op
    return TickRequest(f"r{tenant}", seq, cycles, threads, deadline, now - lag)


#: One pool op: submit(tenant, cycles, threads, issue lag, relative
#: deadline), fire the next event, evict everything (victims are
#: resubmitted), flush the oldest staging buffer, set fluid background.
#: Lags and deadlines repeat, so equal absolute deadlines are common.
pool_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 3),
            st.sampled_from([4e8, 1.4e9]),
            st.integers(1, 10),
            st.sampled_from([0.0, 0.5, 1.0]),
            st.sampled_from([0.25, 1.0, 2.0]),
        ),
        st.tuples(st.just("step")),
        st.tuples(st.just("evict")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("background"), st.sampled_from([0.0, 1.5, 4.0, 12.0])),
    ),
    max_size=60,
)


class _PoolRun:
    """One pool worker on its own simulator, logging starts and
    completions as ``(kind, time, tenant, seq)``."""

    def __init__(self, worker_cls, scheduler, batching):
        from repro.compute.host import Host

        self.sim = Simulator()
        self.worker = worker_cls(
            self.sim, Host("w", EDGE_GATEWAY), scheduler, batching=batching
        )
        self.log = []
        for name in ("_start", "_ps_admit"):
            setattr(self.worker, name, self._logged(getattr(self.worker, name)))

    def _logged(self, start):
        def logged(job, *args):
            for m in job.members:
                self.log.append(("start", self.sim.now(), m.req.tenant, m.req.seq))
            start(job, *args)

        return logged

    def done(self, req, t):
        self.log.append(("done", t, req.tenant, req.seq))

    def apply(self, op, seq):
        """Run one op; returns the eviction order for ``evict``."""
        w = self.worker
        if op[0] == "submit":
            w.submit(_pool_req(op, seq, self.sim.now()), self.done)
        elif op[0] == "step":
            self.sim.step()
        elif op[0] == "evict":
            victims = w.evict_all()
            for req, cb in victims:
                w.submit(req, cb)
            return [(req.tenant, req.seq) for req, _ in victims]
        elif op[0] == "flush":
            if w._stages:
                w._flush_stage(next(iter(w._stages)))
        else:
            w.set_background(op[1])
        return None


class TestPoolDispatchEquivalence:
    """The keyed ready heap starts, completes and evicts exactly what
    the frozen list-queue worker does, and its running totals equal
    the sums they replace after every op."""

    @pytest.mark.parametrize("batch", [None, 4], ids=["unbatched", "batch4"])
    @pytest.mark.parametrize("name", ["fifo", "edf", "ps"])
    @given(ops=pool_ops)
    @example(
        # two requests queue behind a third, all due at the same time
        ops=[("submit", t, 1.4e9, 8, 0.0, 1.0) for t in range(3)]
        + [("flush",), ("flush",), ("flush",), ("evict",), ("step",), ("step",)],
    ).via("equal absolute deadlines")
    @example(
        # a batch whose first rider is the least urgent: EDF must judge
        # it by its second rider and start it before the later arrival
        ops=[("submit", 0, 4e8, 8, 0.0, 2.0), ("flush",),
             ("submit", 1, 1.4e9, 8, 0.0, 2.0), ("submit", 2, 1.4e9, 8, 0.5, 1.0),
             ("flush",), ("submit", 3, 4e8, 8, 0.0, 1.0), ("flush",),
             ("step",), ("step",), ("step",), ("evict",)],
    ).via("batch judged by its earliest-deadline member")
    @example(
        # the later, more urgent arrival tops the heap: eviction still
        # hands the queued victims back in enqueue order
        ops=[("submit", 0, 1.4e9, 8, 0.0, 2.0), ("flush",),
             ("submit", 1, 1.4e9, 8, 0.0, 2.0), ("flush",),
             ("submit", 2, 1.4e9, 8, 0.0, 0.25), ("flush",), ("evict",)],
    ).via("eviction in enqueue order")
    @settings(max_examples=100, deadline=None)
    def test_matches_the_frozen_list_queue(self, name, batch, ops):
        from benchmarks import _legacy_pool as legacy
        from repro.cloud.batching import BatchPolicy
        from repro.cloud.pool import PoolWorker
        from repro.cloud.scheduler import make_scheduler

        old_sched = {
            "fifo": legacy.LegacyFifoScheduler,
            "edf": legacy.LegacyEdfScheduler,
            "ps": legacy.LegacyProcessorSharingScheduler,
        }[name]()
        policy = BatchPolicy(max_size=batch) if batch else None
        new = _PoolRun(PoolWorker, make_scheduler(name), policy)
        old = _PoolRun(legacy.LegacyPoolWorker, old_sched, policy)
        for seq, op in enumerate(ops):
            assert new.apply(op, seq) == old.apply(op, seq)
            w = new.worker
            queued = [j for _, _, j in w._ready]
            assert w.queue_depth() == sum(j.size for j in queued) + sum(
                len(s.members) for s in w._stages.values()
            )
            assert w.inflight() == sum(j.size for j in w._active)
            assert w.load() == (
                sum(j.width for j in w._active) + sum(j.width for j in queued)
                + w.background_load
            ) / w.capacity
            assert (w.load(), w.queue_depth(), w.inflight()) == (
                old.worker.load(), old.worker.queue_depth(), old.worker.inflight()
            )
            assert new.log == old.log
        new.sim.run()
        old.sim.run()
        assert new.log == old.log
        assert new.worker.host.inflight_threads == old.worker.host.inflight_threads == 0
        assert new.worker.host.busy_thread_seconds == old.worker.host.busy_thread_seconds


class TestSchedulerContract:
    """``pick`` is the argmin of ``(key, index)``, the order the worker's
    ready heap pops in, and matches the frozen linear ``pick``."""

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 10.0)),
                st.sampled_from([0.25, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(["fifo", "edf"]),
    )
    @settings(max_examples=100)
    def test_pick_is_the_key_order(self, specs, name):
        from benchmarks import _legacy_pool as legacy
        from repro.cloud.request import TickRequest
        from repro.cloud.scheduler import make_scheduler

        s = make_scheduler(name)
        q = [TickRequest("r", i, 1e9, 1, d, t) for i, (t, d) in enumerate(specs)]
        best = min(range(len(q)), key=lambda i: (s.key(q[i]), i))
        assert s.pick(q, 0.0) == best
        frozen = {"fifo": legacy.LegacyFifoScheduler, "edf": legacy.LegacyEdfScheduler}
        assert frozen[name]().pick(q, 0.0) == best

    def test_ps_has_no_order(self):
        from repro.cloud.request import TickRequest
        from repro.cloud.scheduler import make_scheduler

        ps = make_scheduler("ps")
        req = TickRequest("r", 0, 1e9, 1, 0.2, 0.0)
        with pytest.raises(RuntimeError):
            ps.key(req)
        with pytest.raises(RuntimeError):
            ps.pick([req], 0.0)
