"""Tests for costmap, likelihood field, AMCL and GMapping."""

import numpy as np
import pytest

from repro.perception import (
    Amcl,
    AmclConfig,
    CostValues,
    GMapping,
    GMappingConfig,
    LayeredCostmap,
    LikelihoodField,
    ParallelGMapping,
    costmap_update_cycles,
)
from repro.perception.amcl import amcl_update_cycles
from repro.perception.costmap import CostmapSnapshot
from repro.perception.gmapping import gmapping_scan_cycles
from repro.sim.rng import seeded_rng
from repro.vehicle import LGV
from repro.world import CellState, Lidar, OccupancyGrid, Pose2D, box_world, open_world


def drive_and_scan(world, start, n=10, v=0.2, w=0.3, seed=1):
    """Produce (scans, odom deltas, truth poses) by driving an LGV."""
    bot = LGV(world, start=start, rng=seeded_rng(seed))
    scans, deltas, truths = [], [], []
    last = bot.odom_pose
    for _ in range(n):
        bot.set_command(v, w)
        for _ in range(10):
            bot.step(0.05)
        scans.append(bot.scan())
        deltas.append(bot.odom_pose.relative_to(last))
        truths.append(bot.pose)
        last = bot.odom_pose
    return scans, deltas, truths


class TestLayeredCostmap:
    def test_static_layer_from_map(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        assert cm.cost_at_world(5.0, 5.0) == CostValues.LETHAL

    def test_inflation_ring_around_lethal(self):
        cm = LayeredCostmap(static_map=box_world(10.0))
        # just outside the box face at x=4: inscribed or inflated
        assert cm.cost_at_world(3.93, 5.0) >= 100
        # well away from anything: free
        assert cm.cost_at_world(2.0, 7.5) < 50

    def test_obstacle_marking_from_scan(self):
        world = open_world(8.0)
        cm = LayeredCostmap(static_map=open_world(8.0))
        # place a phantom obstacle in the真 world and scan it
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.OCCUPIED)
        scan = Lidar(world).scan(Pose2D(3.0, 4.0, 0.0))
        before = cm.cost_at_world(4.8, 4.0)
        cm.update_from_scan(scan, Pose2D(3.0, 4.0, 0.0))
        after = cm.cost_at_world(4.8, 4.0)
        assert before < CostValues.LETHAL
        assert after == CostValues.LETHAL

    def test_clearing_removes_stale_obstacle(self):
        world = open_world(8.0)
        cm = LayeredCostmap(static_map=open_world(8.0))
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.OCCUPIED)
        scan = Lidar(world).scan(Pose2D(3.0, 4.0, 0.0))
        cm.update_from_scan(scan, Pose2D(3.0, 4.0, 0.0))
        # the visible face is lethal; cells behind it are inscribed
        assert cm.cost_at_world(4.9, 4.0) >= CostValues.INSCRIBED
        # obstacle disappears; new scan ray-traces through
        world.fill_rect_world(4.8, 3.9, 5.2, 4.1, CellState.FREE)
        scan2 = Lidar(world).scan(Pose2D(3.0, 4.0, 0.0))
        cm.update_from_scan(scan2, Pose2D(3.0, 4.0, 0.0))
        assert cm.cost_at_world(4.9, 4.0) < CostValues.LETHAL

    def test_beam_below_range_min_keeps_obstacle(self):
        # A noiseless scan 8 cm from a pillar: the forward beam returns
        # 0.075 m < range_min. It carries no information, so it must not
        # clear the pillar face an earlier scan marked lethal.
        from benchmarks._legacy_perception import update_from_scan as legacy_update

        world = open_world(5.0)
        world.fill_rect_world(2.9, 2.4, 3.1, 2.6, CellState.OCCUPIED)
        lidar = Lidar(world, rng=None)
        far, near = Pose2D(2.0, 2.5, 0.0), Pose2D(2.8, 2.5, 0.0)
        near_scan = lidar.scan(near)
        forward = int(np.argmin(np.abs(near_scan.angles)))
        assert near_scan.ranges[forward] < near_scan.range_min

        new = LayeredCostmap(static_map=open_world(5.0))
        old = LayeredCostmap(static_map=open_world(5.0))
        for cm in (new, old):
            cm.update_from_scan(lidar.scan(far), far)
            assert cm.cost_at_world(2.9, 2.5) == CostValues.LETHAL

        new.update_from_scan(near_scan, near)
        legacy_update(old, near_scan, near)
        assert new.cost_at_world(2.9, 2.5) == CostValues.LETHAL
        assert old.cost_at_world(2.9, 2.5) < CostValues.LETHAL  # the old bug

    def test_out_of_bounds_is_lethal(self):
        cm = LayeredCostmap(static_map=open_world(5.0))
        assert cm.cost_at_world(-10.0, 0.0) == CostValues.LETHAL

    def test_costs_at_world_vectorized_matches_scalar(self):
        cm = LayeredCostmap(static_map=box_world(8.0))
        pts = seeded_rng(2).uniform(0, 8, size=(40, 2))
        vec = cm.costs_at_world(pts)
        for (x, y), c in zip(pts, vec):
            assert c == cm.cost_at_world(x, y)

    def test_snapshot_equivalent_to_live(self):
        cm = LayeredCostmap(static_map=box_world(8.0))
        snap = CostmapSnapshot(cm.cost, cm.resolution, cm.origin)
        pts = seeded_rng(3).uniform(0, 8, size=(30, 2))
        assert (snap.costs_at_world(pts) == cm.costs_at_world(pts)).all()

    def test_static_shape_mismatch_rejected(self):
        cm = LayeredCostmap(static_map=open_world(5.0))
        with pytest.raises(ValueError):
            cm.set_static_from(OccupancyGrid.empty(3, 3))

    def test_update_cycles_model(self):
        assert costmap_update_cycles(360, 40000) > costmap_update_cycles(90, 40000)
        with pytest.raises(ValueError):
            costmap_update_cycles(-1, 0)


class TestLikelihoodField:
    def test_distance_zero_on_obstacle(self):
        g = box_world(8.0)
        f = LikelihoodField(g)
        r, c = g.world_to_cell(4.0, 4.0)  # inside the box
        assert f.dist[r, c] == 0.0

    def test_likelihood_higher_near_obstacles(self):
        g = box_world(8.0)
        f = LikelihoodField(g)
        on = f.likelihoods(np.array([[3.2, 4.0]]))[0]  # box face
        off = f.likelihoods(np.array([[1.6, 1.6]]))[0]  # open space
        assert on > off

    def test_log_likelihood_prefers_true_pose(self):
        g = box_world(8.0)
        f = LikelihoodField(g)
        scan = Lidar(g).scan(Pose2D(2.0, 2.0, 0.3))
        from repro.world.geometry import transform_points

        good = f.log_likelihood(transform_points(scan.points(), Pose2D(2.0, 2.0, 0.3)))
        bad = f.log_likelihood(transform_points(scan.points(), Pose2D(2.6, 2.6, 0.3)))
        assert good > bad

    def test_empty_points(self):
        f = LikelihoodField(box_world(5.0))
        assert f.log_likelihood(np.empty((0, 2))) == 0.0

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            LikelihoodField(box_world(5.0), sigma_m=0.0)


class TestAmcl:
    def test_tracks_driving_robot(self):
        world = box_world(8.0)
        scans, deltas, truths = drive_and_scan(world, Pose2D(2, 2, 0))
        amcl = Amcl(world, AmclConfig(n_particles=250), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
        assert amcl.estimate().distance_to(truths[-1]) < 0.15

    def test_covariance_shrinks_with_updates(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0))
        amcl = Amcl(
            world, AmclConfig(n_particles=250), seeded_rng(4),
            initial_pose=Pose2D(2, 2, 0), initial_std=(0.5, 0.5, 0.3),
        )
        before = amcl.covariance_trace()
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
        assert amcl.covariance_trace() < before

    def test_global_init_without_pose(self):
        world = box_world(8.0)
        amcl = Amcl(world, AmclConfig(n_particles=100), seeded_rng(0))
        # all particles start in free space
        for x, y in amcl.particles[:, :2]:
            assert world.is_free_world(x, y)

    def test_kld_adapts_particle_count(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=8)
        amcl = Amcl(world, AmclConfig(n_particles=500), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
        n0 = amcl.n_particles
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
        # converged cloud needs fewer particles
        assert amcl.n_particles <= n0
        assert amcl.n_particles >= amcl.config.min_particles

    def test_weights_stay_normalized(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=5)
        amcl = Amcl(world, AmclConfig(n_particles=150), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
        for scan, delta in zip(scans, deltas):
            amcl.predict(delta)
            amcl.update(scan)
            assert np.sum(amcl.weights) == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=5)

        def run():
            a = Amcl(world, AmclConfig(n_particles=150), seeded_rng(4), initial_pose=Pose2D(2, 2, 0))
            for scan, delta in zip(scans, deltas):
                a.predict(delta)
                a.update(scan)
            return a.estimate()

        assert run() == run()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AmclConfig(n_particles=10, min_particles=50)
        with pytest.raises(ValueError):
            AmclConfig(beams_used=0)

    def test_cycle_model(self):
        assert amcl_update_cycles(600, 40) > amcl_update_cycles(300, 40)
        with pytest.raises(ValueError):
            amcl_update_cycles(-1, 40)


class TestGMapping:
    def make(self, cls=GMapping, n_particles=8, **kw):
        cfg = GMappingConfig(n_particles=n_particles, rows=170, cols=170)
        return cls(cfg, rng=seeded_rng(3), initial_pose=Pose2D(2, 2, 0), **kw)

    def test_builds_map_and_tracks(self):
        world = box_world(8.0)
        scans, deltas, truths = drive_and_scan(world, Pose2D(2, 2, 0), n=12)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            est = slam.process(scan, delta)
        assert est.distance_to(truths[-1]) < 0.25
        m = slam.map_estimate()
        assert m.known_fraction() > 0.1
        assert m.occupied_mask().sum() > 50

    def test_map_marks_true_walls(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=12)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            slam.process(scan, delta)
        m = slam.map_estimate()
        # the box face toward the robot should be mapped occupied
        r, c = m.world_to_cell(3.2, 3.2)
        window = m.data[r - 8 : r + 8, c - 8 : c + 8]
        assert (window == int(CellState.OCCUPIED)).any()

    def test_weights_normalized_after_update(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=6)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            slam.process(scan, delta)
            total = sum(p.weight for p in slam.particles)
            assert total == pytest.approx(1.0)

    def test_neff_recorded(self):
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=5)
        slam = self.make()
        for scan, delta in zip(scans, deltas):
            slam.process(scan, delta)
        assert len(slam.neff_history) == 5
        assert all(1.0 <= n <= 8.0 + 1e-9 for n in slam.neff_history)

    @pytest.mark.parametrize("n_particles", [1, 5, 12])
    def test_parallel_identical_to_serial(self, n_particles):
        # four threads: 1 particle leaves three threads idle, 5 and 12
        # split into unequal chunks
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=8)

        def run(cls, **kw):
            slam = self.make(cls, n_particles=n_particles, **kw)
            for scan, delta in zip(scans, deltas):
                est = slam.process(scan, delta)
            maps = [p.log_odds.copy() for p in slam.particles]
            if hasattr(slam, "close"):
                slam.close()
            return est, maps

        e1, m1 = run(GMapping)
        e2, m2 = run(ParallelGMapping, n_threads=4)
        assert e1 == e2
        for a, b in zip(m1, m2):
            assert np.array_equal(a, b)

    def test_process_leaves_python_float_scores_and_fresh_poses(self):
        # repr(match_score) feeds run digests: an np.float64 score has
        # the same value but a different repr
        world = box_world(8.0)
        scans, deltas, _ = drive_and_scan(world, Pose2D(2, 2, 0), n=3)
        slam = self.make(n_particles=4)
        for scan, delta in zip(scans, deltas):
            slam.process(scan, delta)
            for p in slam.particles:
                assert type(p.match_score) is float
                assert p.pose.dtype == np.float64 and p.pose.shape == (3,)
                assert p.pose.base is None
        assert len({id(p.pose) for p in slam.particles}) == len(slam.particles)
        assert any(p.match_score != 0.0 for p in slam.particles)

    def test_state_bytes_scales_with_particles(self):
        s8 = self.make(n_particles=8)
        s4 = self.make(n_particles=4)
        assert s8.state_bytes() == 2 * s4.state_bytes()

    def test_cycle_model_linear_in_particles(self):
        c10 = gmapping_scan_cycles(10)
        c100 = gmapping_scan_cycles(100)
        assert c100 > 9 * c10 * 0.9
        with pytest.raises(ValueError):
            gmapping_scan_cycles(-1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GMappingConfig(n_particles=0)
        with pytest.raises(ValueError):
            GMappingConfig(rows=0)
        with pytest.raises(ValueError):
            GMappingConfig(cols=0)
        with pytest.raises(ValueError):
            GMappingConfig(resolution=0.0)
        with pytest.raises(ValueError):
            GMappingConfig(resolution=-0.05)
        with pytest.raises(ValueError):
            GMappingConfig(search_rounds=-1)
        GMappingConfig(search_rounds=0)
        with pytest.raises(ValueError):
            ParallelGMapping(GMappingConfig(n_particles=2), n_threads=0)
