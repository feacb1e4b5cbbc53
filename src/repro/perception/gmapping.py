"""Rao-Blackwellized particle-filter SLAM (reimplementation of GMapping).

Each particle carries a pose hypothesis and its own occupancy map
(log-odds). Per scan the filter runs, exactly as the original:

1. motion update from odometry (sampled noise, per-particle RNG);
2. ``scanMatch`` — hill-climbing pose refinement of every particle
   against its own map (the paper measures 98% of SLAM time here),
   run as one lockstep climb over all particles: each step scores the
   next candidate of every still-climbing particle in one batch, and
   each particle visits exactly the candidates it would visit alone;
3. ``updateTreeWeights`` — weight normalization + Neff;
4. selective ``resample`` when Neff drops;
5. map integration of the scan into every particle's map.

Map integration is vectorized over beams; particles own
independent RNG streams so the thread-parallel subclass
(:class:`~repro.perception.gmapping_parallel.ParallelGMapping`)
produces bit-identical maps to the serial filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import seeded_rng, split_rng
from repro.world.geometry import Pose2D, normalize_angle
from repro.world.grid import CellState, OccupancyGrid
from repro.world.lidar import LidarScan

#: Log-odds increments per observation.
L_OCC = 0.9
L_FREE = -0.4
L_CLAMP = 10.0


@dataclass(frozen=True)
class GMappingConfig:
    """GMapping tuning parameters."""

    n_particles: int = 30
    rows: int = 240
    cols: int = 240
    resolution: float = 0.05
    origin: Pose2D = Pose2D()
    match_beams: int = 60  # beams used by scanMatch
    map_beams: int = 180  # beams used for map integration
    search_step_m: float = 0.05
    search_step_rad: float = 0.04
    search_rounds: int = 3
    alpha_trans: float = 0.06
    alpha_rot: float = 0.06
    resample_neff_frac: float = 0.5
    weight_scale: float = 3.0

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.match_beams < 1 or self.map_beams < 1:
            raise ValueError("beam counts must be >= 1")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.search_rounds < 0:
            raise ValueError("search_rounds must be >= 0")


@dataclass
class Particle:
    """One SLAM hypothesis: pose, private map, weight, RNG stream."""

    pose: np.ndarray  # [x, y, theta]
    log_odds: np.ndarray  # (rows, cols) float32
    weight: float
    rng: np.random.Generator
    match_score: float = 0.0


class GMapping:
    """Serial RBPF SLAM front end."""

    def __init__(
        self,
        config: GMappingConfig = GMappingConfig(),
        rng: np.random.Generator | None = None,
        initial_pose: Pose2D = Pose2D(),
    ) -> None:
        self.config = config
        master = rng if rng is not None else seeded_rng(0)
        streams = split_rng(master, config.n_particles)
        pose0 = initial_pose.as_array()
        self.particles = [
            Particle(
                pose=pose0.copy(),
                log_odds=np.zeros((config.rows, config.cols), dtype=np.float32),
                weight=1.0 / config.n_particles,
                rng=streams[i],
            )
            for i in range(config.n_particles)
        ]
        self.scans_processed = 0
        self.resamples = 0
        self.neff_history: list[float] = []

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------
    def process(self, scan: LidarScan, odom_delta: Pose2D) -> Pose2D:
        """Process one (scan, odometry-increment) pair; returns the
        current best pose estimate."""
        match_pts, match_r = self._subsample(scan, self.config.match_beams)
        map_pts_a, map_r = self._subsample(scan, self.config.map_beams)

        for p in self.particles:
            self._motion_update(p, odom_delta)

        self._scan_match_all(match_r, match_pts, range(len(self.particles)))

        self._update_tree_weights()
        if self._neff() < self.config.resample_neff_frac * len(self.particles):
            self._resample()

        self._map_update_all(map_r, map_pts_a, scan.range_max, range(len(self.particles)))

        self.scans_processed += 1
        return self.estimate()

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def _subsample(self, scan: LidarScan, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Pick ~n valid beams; returns (angles, ranges)."""
        m = scan.valid_mask()
        idx = np.nonzero(m)[0]
        if len(idx) == 0:
            return np.empty(0), np.empty(0)
        take = idx[:: max(1, len(idx) // n)][:n]
        return scan.angles[take], scan.ranges[take]

    def _motion_update(self, p: Particle, delta: Pose2D) -> None:
        cfg = self.config
        trans = np.hypot(delta.x, delta.y)
        rot = abs(delta.theta)
        dx = delta.x + p.rng.normal(0, cfg.alpha_trans * trans + 1e-4)
        dy = delta.y + p.rng.normal(0, cfg.alpha_trans * trans + 1e-4)
        dth = delta.theta + p.rng.normal(0, cfg.alpha_rot * rot + cfg.alpha_trans * trans + 1e-4)
        th = p.pose[2]
        c, s = np.cos(th), np.sin(th)
        p.pose[0] += c * dx - s * dy
        p.pose[1] += s * dx + c * dy
        p.pose[2] = normalize_angle(th + dth)

    # -- scanMatch ------------------------------------------------------
    def _scan_match_all(self, ranges, angles, indices) -> None:
        """Run scanMatch for the given particle indices (hook point for
        the thread-parallel subclass)."""
        self._match_lockstep([self.particles[i] for i in indices], ranges, angles)

    def _match_lockstep(self, particles: list[Particle], ranges, angles) -> None:
        """Hill-climbing pose refinement of each particle against its own
        map, all particles climbing in lockstep.

        This is the paper's 98%-of-SLAM-time hot spot. Each particle
        climbs exactly as it would alone: from its pose, try the six
        moves of ``_moves`` in order, taking each one that raises the
        score; repeat the pass until a whole pass improves nothing, then
        move on to the next, halved step size. Climbs differ in length,
        so every step advances each unfinished particle by one candidate
        and scores all of those candidates in one batch.
        """
        if len(ranges) == 0 or self.scans_processed == 0:
            for p in particles:
                p.match_score = 0.0
            return
        cfg = self.config
        n = len(particles)
        # scanMatch only reads the maps: one (n, rows*cols) snapshot a scan
        maps = np.stack([p.log_odds.ravel() for p in particles])
        pose = np.stack([p.pose for p in particles])
        best = self._score_batch(maps, np.arange(n), pose, ranges, angles)
        moves = _moves(cfg.search_step_m, cfg.search_step_rad, cfg.search_rounds)
        step_round = np.zeros(n, dtype=np.int64)
        move = np.zeros(n, dtype=np.int64)
        improved = np.zeros(n, dtype=bool)
        live = np.arange(n if cfg.search_rounds > 0 else 0)
        while live.size:
            cand = pose[live] + moves[step_round[live], move[live]]
            s = self._score_batch(maps, live, cand, ranges, angles)
            up = s > best[live]
            won = live[up]
            pose[won] = cand[up]
            best[won] = s[up]
            improved[won] = True
            move[live] += 1
            passed = live[move[live] == moves.shape[1]]
            move[passed] = 0
            step_round[passed[~improved[passed]]] += 1
            improved[passed] = False
            live = live[step_round[live] < cfg.search_rounds]
        for k, p in enumerate(particles):
            p.pose = pose[k].copy()
            p.pose[2] = normalize_angle(p.pose[2])
            p.match_score = float(best[k]) / len(ranges)

    def _score_batch(self, maps, which, poses, ranges, angles) -> np.ndarray:
        """Endpoint-occupancy score of pose candidate ``poses[k]``
        against the map ``maps[which[k]]``, for every k.

        Each candidate's score is bit-identical to scoring it alone: the
        elementwise math is the same; a candidate with every endpoint on
        the grid sums its float32 probabilities in the same pairwise
        order; one with some endpoints off the grid sums only its
        on-grid ones, then takes 0.5 per off-grid endpoint; one with
        none on the grid scores -1e9.
        """
        cfg = self.config
        th = poses[:, 2:3] + angles
        ex = poses[:, 0:1] + ranges * np.cos(th)
        ey = poses[:, 1:2] + ranges * np.sin(th)
        r = np.floor((ey - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
        c = np.floor((ex - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
        ok = (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
        flat = np.where(ok, r * cfg.cols + c, 0) + (which * maps.shape[1])[:, None]
        lo = maps.take(flat)
        # occupancy probability of each endpoint cell
        probs = 1.0 / (1.0 + np.exp(-lo))
        scores = np.add.reduce(probs, axis=1).astype(np.float64)
        n_off = ok.shape[1] - np.count_nonzero(ok, axis=1)
        for k in np.flatnonzero(n_off):
            if n_off[k] == ok.shape[1]:
                scores[k] = -1e9
            else:
                on_grid = np.add.reduce(probs[k][ok[k]])
                scores[k] = float(on_grid) - 0.5 * int(n_off[k])
        return scores

    # -- weights / resampling --------------------------------------------
    def _update_tree_weights(self) -> None:
        """Normalize weights from match scores (gmapping's
        updateTreeWeights analog)."""
        cfg = self.config
        scores = np.array([p.match_score for p in self.particles])
        w = np.array([p.weight for p in self.particles])
        w = w * np.exp(cfg.weight_scale * (scores - scores.max()))
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            w = np.full(len(w), 1.0 / len(w))
        else:
            w /= total
        for p, wi in zip(self.particles, w):
            p.weight = float(wi)
        self.neff_history.append(self._neff())

    def _neff(self) -> float:
        w = np.array([p.weight for p in self.particles])
        return float(1.0 / np.sum(w**2))

    def _resample(self) -> None:
        """Selective low-variance resampling; maps are deep-copied."""
        n = len(self.particles)
        w = np.array([p.weight for p in self.particles])
        # The resample draw uses particle 0's stream (deterministic).
        positions = (self.particles[0].rng.random() + np.arange(n)) / n
        cumsum = np.cumsum(w)
        cumsum[-1] = 1.0
        idx = np.searchsorted(cumsum, positions)
        snapshot = [
            (self.particles[i].pose.copy(), self.particles[i].log_odds.copy(), self.particles[i].match_score)
            for i in idx
        ]
        for p, (pose, lo, ms) in zip(self.particles, snapshot):
            p.pose, p.log_odds, p.match_score = pose, lo, ms
            p.weight = 1.0 / n
        self.resamples += 1

    # -- map integration ---------------------------------------------------
    def _map_update_all(self, ranges, angles, range_max, indices) -> None:
        """Integrate the scan into each particle's map (hook point)."""
        for i in indices:
            self._map_update(self.particles[i], ranges, angles, range_max)

    def _map_update(self, p: Particle, ranges, angles, range_max: float) -> None:
        """Vectorized beam integration into one particle's log-odds map.

        All beams are sampled simultaneously at half-cell steps; free
        cells get one batched decrement, endpoint cells one batched
        increment. A cell that several samples hit is written several
        times, always with the same value computed from its old one.
        """
        if len(ranges) == 0:
            return
        cfg = self.config
        pose = p.pose
        th = pose[2] + angles
        cth, sth = np.cos(th), np.sin(th)

        step = cfg.resolution
        n_steps = int(np.ceil(ranges.max() / step))
        if n_steps >= 1:
            # distances (S,) x beams (B,) -> (S, B) sample points
            ts = (np.arange(n_steps) + 0.5) * step
            live = ts[:, None] < (ranges[None, :] - 0.5 * step)
            px = pose[0] + ts[:, None] * cth[None, :]
            py = pose[1] + ts[:, None] * sth[None, :]
            r = np.floor((py - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
            c = np.floor((px - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
            ok = live & (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
            flat = r[ok] * cfg.cols + c[ok]
            p.log_odds.ravel()[flat] = np.maximum(
                p.log_odds.ravel()[flat] + np.float32(L_FREE), -L_CLAMP
            )

        ex = pose[0] + ranges * cth
        ey = pose[1] + ranges * sth
        r = np.floor((ey - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
        c = np.floor((ex - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
        ok = (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
        flat = r[ok] * cfg.cols + c[ok]
        p.log_odds.ravel()[flat] = np.minimum(
            p.log_odds.ravel()[flat] + np.float32(L_OCC), L_CLAMP
        )

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def best_particle(self) -> Particle:
        """The highest-weight particle."""
        return max(self.particles, key=lambda p: p.weight)

    def estimate(self) -> Pose2D:
        """Pose of the best particle."""
        return Pose2D.from_array(self.best_particle().pose)

    def map_estimate(self) -> OccupancyGrid:
        """Best particle's map thresholded into an OccupancyGrid."""
        cfg = self.config
        lo = self.best_particle().log_odds
        data = np.full(lo.shape, int(CellState.UNKNOWN), dtype=np.int8)
        data[lo < -0.2] = int(CellState.FREE)
        data[lo > 0.2] = int(CellState.OCCUPIED)
        return OccupancyGrid(data, cfg.resolution, cfg.origin)

    def state_bytes(self) -> int:
        """Serialized size of the full particle set (migration cost)."""
        per = self.particles[0].log_odds.nbytes + 3 * 8 + 8
        return len(self.particles) * per


def _moves(step_t: float, step_r: float, rounds: int) -> np.ndarray:
    """The hill climb's moves, ``(rounds, 6, 3)``: +-x, +-y, +-theta,
    halving both step sizes each round."""
    table = []
    for _ in range(rounds):
        table.append(
            [
                (step_t, 0.0, 0.0),
                (-step_t, 0.0, 0.0),
                (0.0, step_t, 0.0),
                (0.0, -step_t, 0.0),
                (0.0, 0.0, step_r),
                (0.0, 0.0, -step_r),
            ]
        )
        step_t *= 0.5
        step_r *= 0.5
    return np.array(table, dtype=np.float64).reshape(rounds, 6, 3)


#: Pose candidates scanMatch evaluates per particle (hill-climb budget).
SCANMATCH_EVALS = 120
#: Reference cycles per beam per score evaluation (trig, gather, exp).
CYCLES_PER_BEAM_EVAL = 8.8e3
#: Reference cycles of map integration per particle.
CYCLES_MAP_UPDATE_PER_PARTICLE = 1.0e6
#: Fixed per-scan overhead (weights, resampling checks).
CYCLES_SCAN_BASE = 5.0e5


def gmapping_scan_cycles(n_particles: int, match_beams: int = 60) -> float:
    """Modeled reference-cycle cost of one GMapping scan.

    Per particle: ~120 hill-climb score evaluations x beams x per-beam
    math, plus map integration. 30 particles x 60 beams -> ~1.9 G
    cycles (~1.4 s on the Pi), linear in particles — the Fig. 9
    workload knob. scanMatch is ~98% of the total, matching the
    paper's measurement; SLAM then dominates the without-map cycle
    breakdown as in Table II.
    """
    if n_particles < 0 or match_beams < 0:
        raise ValueError("counts must be non-negative")
    scanmatch = SCANMATCH_EVALS * CYCLES_PER_BEAM_EVAL * match_beams
    return CYCLES_SCAN_BASE + n_particles * (scanmatch + CYCLES_MAP_UPDATE_PER_PARTICLE)
