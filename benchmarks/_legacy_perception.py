"""Frozen per-beam perception kernels, kept verbatim for reference.

These are lidar ray casting and costmap clearing exactly as they
shipped before the all-beam rewrite: ``cast_rays`` marching every ray
through a masked Python loop of small numpy calls, the scalar
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

Do not "fix" or modernize anything here — its value is that it stays
exactly what shipped before the rewrite.
"""

from __future__ import annotations

import numpy as np

from repro.perception.costmap import LayeredCostmap
from repro.world.geometry import Pose2D
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
