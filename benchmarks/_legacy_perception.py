"""Frozen perception kernels, kept verbatim for reference.

The first group is lidar ray casting and costmap clearing exactly as
they shipped before the all-beam rewrite: ``cast_rays`` marching every
ray through a masked Python loop of small numpy calls, the scalar
pure-Python ``bresenham_cells``, and ``LayeredCostmap.update_from_scan``
walking one Bresenham line per beam — including the bug the rewrite
fixed, where a beam shorter than ``range_min`` is treated as a
max-range miss and clears real obstacles along the full range. They
exist for two reasons:

* ``tests/test_properties.py`` pits the vectorized kernels against
  these on randomized grids, poses and scans, and requires
  byte-identical ranges and identical costmap layers;
* ``tests/test_perception.py`` shows that the below-``range_min``
  regression erases an obstacle here and keeps it in the new code.

The second group is GMapping's per-particle ``scanMatch`` and map
integration exactly as they shipped before the lockstep rewrite:
``scan_match`` hill-climbing one particle at a time, calling ``score``
once per pose candidate (~445 small calls per scan at 30 particles),
and ``map_update`` deduplicating cell indices with ``np.unique``
before each write. They take the filter as ``self`` so they read its
config. ``tests/test_properties.py`` requires the lockstep climb to
reproduce every particle's pose bytes and ``repr(match_score)``, and
the ``np.unique``-free integration every map byte, on random maps,
poses and scans.

Do not "fix" or modernize anything here — its value is that it stays
exactly what shipped before each rewrite.
"""

from __future__ import annotations

import numpy as np

from repro.perception.costmap import LayeredCostmap
from repro.perception.gmapping import L_CLAMP, L_FREE, L_OCC, GMapping, Particle
from repro.world.geometry import Pose2D, normalize_angle
from repro.world.grid import CellState, OccupancyGrid
from repro.world.lidar import LidarScan


def cast_rays(
    grid: OccupancyGrid,
    x: float,
    y: float,
    angles: np.ndarray,
    max_range: float,
    hit_unknown: bool = False,
) -> np.ndarray:
    """Cast rays from (x, y) at world ``angles`` and return hit ranges.

    Parameters
    ----------
    grid:
        The map to cast against.
    x, y:
        Ray origin in world meters.
    angles:
        (N,) array of world-frame ray directions in radians.
    max_range:
        Rays that hit nothing within this distance return ``max_range``.
    hit_unknown:
        When True, UNKNOWN cells stop rays too (used by SLAM map
        building); when False rays pass through unknown space (used by
        the ground-truth sensor where the true map has no unknowns).

    Returns
    -------
    (N,) float64 array of ranges in meters, clipped to ``max_range``.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    n = angles.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if max_range <= 0:
        raise ValueError(f"max_range must be positive, got {max_range}")

    step = 0.5 * grid.resolution
    n_steps = int(np.ceil(max_range / step)) + 1

    dx = np.cos(angles) * step
    dy = np.sin(angles) * step

    px = np.full(n, x, dtype=np.float64)
    py = np.full(n, y, dtype=np.float64)
    ranges = np.full(n, max_range, dtype=np.float64)
    alive = np.ones(n, dtype=bool)

    occupied = int(CellState.OCCUPIED)
    unknown = int(CellState.UNKNOWN)
    res = grid.resolution
    ox, oy = grid.origin.x, grid.origin.y
    rows, cols = grid.rows, grid.cols
    data = grid.data

    for i in range(1, n_steps + 1):
        if not alive.any():
            break
        px[alive] += dx[alive]
        py[alive] += dy[alive]

        idx = np.nonzero(alive)[0]
        r = np.floor((py[idx] - oy) / res + 0.5).astype(np.int64)
        c = np.floor((px[idx] - ox) / res + 0.5).astype(np.int64)

        oob = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
        vals = np.empty(idx.shape[0], dtype=np.int8)
        vals[oob] = occupied  # world border is solid
        inb = ~oob
        vals[inb] = data[r[inb], c[inb]]

        hit = vals == occupied
        if hit_unknown:
            hit |= vals == unknown

        if hit.any():
            hit_idx = idx[hit]
            ranges[hit_idx] = np.minimum(i * step, max_range)
            alive[hit_idx] = False

    return ranges


def bresenham_cells(r0: int, c0: int, r1: int, c1: int) -> np.ndarray:
    """All grid cells on the segment (r0,c0)->(r1,c1), endpoints included.

    Classic integer Bresenham; used by SLAM to mark free space along a
    beam. Returns an (K, 2) int64 array of [row, col].
    """
    cells = []
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        cells.append((r, c))
        if r == r1 and c == c1:
            break
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr
    return np.asarray(cells, dtype=np.int64)


def update_from_scan(self: LayeredCostmap, scan: LidarScan, pose: Pose2D) -> None:
    """``LayeredCostmap.update_from_scan`` as it shipped, on ``self``.

    Obstacle-layer update: mark returns, clear along beams.

    ``pose`` is the sensor pose the scan was taken from (the
    localization estimate, not ground truth).
    """
    res = self.resolution
    r0 = int(np.floor((pose.y - self.origin.y) / res + 0.5))
    c0 = int(np.floor((pose.x - self.origin.x) / res + 0.5))

    m = scan.valid_mask()
    world_angles = scan.angles[m] + pose.theta
    ranges = scan.ranges[m]
    ex = pose.x + ranges * np.cos(world_angles)
    ey = pose.y + ranges * np.sin(world_angles)
    rows_hit = np.floor((ey - self.origin.y) / res + 0.5).astype(np.int64)
    cols_hit = np.floor((ex - self.origin.x) / res + 0.5).astype(np.int64)

    # Clear along each beam (Python loop over beams, numpy inside):
    for rh, ch in zip(rows_hit, cols_hit):
        cells = bresenham_cells(r0, c0, int(rh), int(ch))
        if len(cells) > 1:
            rr, cc = cells[:-1, 0], cells[:-1, 1]
            ok = (rr >= 0) & (rr < self.rows) & (cc >= 0) & (cc < self.cols)
            self._obstacle_lethal[rr[ok], cc[ok]] = False

    # Also clear along max-range beams (free space, no obstacle).
    miss = ~m
    if miss.any():
        miss_angles = scan.angles[miss] + pose.theta
        mr = scan.range_max * 0.999
        mex = pose.x + mr * np.cos(miss_angles)
        mey = pose.y + mr * np.sin(miss_angles)
        mrows = np.floor((mey - self.origin.y) / res + 0.5).astype(np.int64)
        mcols = np.floor((mex - self.origin.x) / res + 0.5).astype(np.int64)
        for rh, ch in zip(mrows, mcols):
            cells = bresenham_cells(r0, c0, int(rh), int(ch))
            rr, cc = cells[:, 0], cells[:, 1]
            ok = (rr >= 0) & (rr < self.rows) & (cc >= 0) & (cc < self.cols)
            self._obstacle_lethal[rr[ok], cc[ok]] = False

    # Mark hits lethal (vectorized).
    ok = (
        (rows_hit >= 0)
        & (rows_hit < self.rows)
        & (cols_hit >= 0)
        & (cols_hit < self.cols)
    )
    self._obstacle_lethal[rows_hit[ok], cols_hit[ok]] = True

    self.updates += 1
    self._recompute()


def scan_match(self: GMapping, p: Particle, ranges: np.ndarray, angles: np.ndarray) -> None:
    """``GMapping._scan_match`` as it shipped, on ``self``.

    Hill-climbing pose refinement against the particle's own map.

    This is the paper's 98%-of-SLAM-time hot spot.
    """
    if len(ranges) == 0 or self.scans_processed == 0:
        p.match_score = 0.0
        return
    cfg = self.config
    step_t, step_r = cfg.search_step_m, cfg.search_step_rad
    pose = p.pose.copy()
    best = score(self, p.log_odds, pose, ranges, angles)
    for _ in range(cfg.search_rounds):
        improved = True
        while improved:
            improved = False
            for d in (
                (step_t, 0.0, 0.0),
                (-step_t, 0.0, 0.0),
                (0.0, step_t, 0.0),
                (0.0, -step_t, 0.0),
                (0.0, 0.0, step_r),
                (0.0, 0.0, -step_r),
            ):
                cand = pose + np.asarray(d)
                s = score(self, p.log_odds, cand, ranges, angles)
                if s > best:
                    best, pose = s, cand
                    improved = True
        step_t *= 0.5
        step_r *= 0.5
    pose[2] = normalize_angle(pose[2])
    p.pose = pose
    p.match_score = best / max(len(ranges), 1)


def score(self: GMapping, log_odds, pose, ranges, angles) -> float:
    """``GMapping._score`` as it shipped, on ``self``.

    Endpoint-occupancy score of a pose candidate (vectorized).
    """
    cfg = self.config
    th = pose[2] + angles
    ex = pose[0] + ranges * np.cos(th)
    ey = pose[1] + ranges * np.sin(th)
    r = np.floor((ey - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
    c = np.floor((ex - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
    ok = (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
    if not ok.any():
        return -1e9
    lo = log_odds[r[ok], c[ok]]
    # occupancy probability of each endpoint cell
    probs = 1.0 / (1.0 + np.exp(-lo))
    return float(np.sum(probs) - 0.5 * np.sum(~ok))


def map_update(self: GMapping, p: Particle, ranges, angles, range_max: float) -> None:
    """``GMapping._map_update`` as it shipped, on ``self``.

    Vectorized beam integration into one particle's log-odds map.

    All beams are sampled simultaneously at half-cell steps; free
    cells get one batched decrement, endpoint cells one batched
    increment.
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
        flat = np.unique(r[ok] * cfg.cols + c[ok])
        p.log_odds.ravel()[flat] = np.maximum(
            p.log_odds.ravel()[flat] + np.float32(L_FREE), -L_CLAMP
        )

    ex = pose[0] + ranges * cth
    ey = pose[1] + ranges * sth
    r = np.floor((ey - cfg.origin.y) / cfg.resolution + 0.5).astype(np.int64)
    c = np.floor((ex - cfg.origin.x) / cfg.resolution + 0.5).astype(np.int64)
    ok = (r >= 0) & (r < cfg.rows) & (c >= 0) & (c < cfg.cols)
    flat = np.unique(r[ok] * cfg.cols + c[ok])
    p.log_odds.ravel()[flat] = np.minimum(
        p.log_odds.ravel()[flat] + np.float32(L_OCC), L_CLAMP
    )
