"""Vectorized ray casting and line tracing on occupancy grids.

Both kernels work on every beam at once, with no Python loop over
beams:

* :func:`cast_rays` samples all rays in one pass. Sample points lie
  every half cell along each ray; a running sum down the steps builds
  the whole (steps × beams) block of points, one fancy-indexed lookup
  classifies every point, and ``argmax`` finds each ray's first hit.
* :func:`bresenham_fan` traces integer Bresenham lines from one cell
  to many endpoints, stepping every line's error accumulator in
  lockstep, so the loop runs once per cell of the longest line
  instead of once per cell of every line.
"""

from __future__ import annotations

import numpy as np

from repro.world.grid import CellState, OccupancyGrid


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
        The map to cast against. Cells off the grid count as occupied.
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

    # pts[0] holds x, pts[1] y; along axis 1, step 0 is the origin and
    # steps 1.. the per-step increment. The running sum adds strictly
    # in step order, so step i is the origin plus i successive
    # increments, rounded exactly as a marching loop would round them.
    pts = np.empty((2, n_steps + 1, n))
    pts[0, 0] = x
    pts[1, 0] = y
    pts[0, 1:] = np.cos(angles) * step
    pts[1, 1:] = np.sin(angles) * step
    np.add.accumulate(pts, axis=1, out=pts)

    # World -> cell for every sample point at once (steps 1..n_steps).
    pts = pts[:, 1:]
    pts -= np.array([grid.origin.x, grid.origin.y])[:, None, None]
    pts /= grid.resolution
    pts += 0.5
    np.floor(pts, out=pts)
    c, r = pts.astype(np.int64)

    oob = (r < 0) | (r >= grid.rows) | (c < 0) | (c >= grid.cols)
    flat = r * grid.cols + c
    flat[oob] = 0
    vals = np.take(grid.data, flat)

    hit = oob | (vals == int(CellState.OCCUPIED))  # world border is solid
    if hit_unknown:
        hit |= vals == int(CellState.UNKNOWN)

    first = hit.argmax(axis=0)
    ranges = np.full(n, max_range, dtype=np.float64)
    stopped = hit[first, np.arange(n)]
    ranges[stopped] = np.minimum((first[stopped] + 1) * step, max_range)
    return ranges


def bresenham_fan(
    r0: int, c0: int, r1: np.ndarray, c1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer Bresenham lines from cell (r0, c0) to every (r1[j], c1[j]).

    Used by the costmap to clear free space along every beam of a scan.
    Each line is the classic all-octant Bresenham walk, endpoints
    included; all lines advance one cell per iteration.

    Returns
    -------
    ``(rows, cols, n_cells)``: line ``j`` visits ``(rows[k, j],
    cols[k, j])`` for ``k < n_cells[j]``, which is
    ``max(|r1 - r0|, |c1 - c0|) + 1``. ``rows`` and ``cols`` are
    (K, N) int64 arrays, K the longest line's cell count; entries past
    a line's end are meaningless.
    """
    r1 = np.asarray(r1, dtype=np.int64)
    c1 = np.asarray(c1, dtype=np.int64)
    dr = np.abs(r1 - r0)
    dc = np.abs(c1 - c0)
    sr = np.where(r1 >= r0, 1, -1)
    sc = np.where(c1 >= c0, 1, -1)
    n_cells = np.maximum(dr, dc) + 1

    k = int(n_cells.max(initial=1))
    rows = np.empty((k, r1.shape[0]), dtype=np.int64)
    cols = np.empty((k, r1.shape[0]), dtype=np.int64)
    rows[0] = r0
    cols[0] = c0
    err = dc - dr
    neg_dr = -dr
    for i in range(1, k):
        e2 = err + err
        step_c = e2 > neg_dr
        step_r = e2 < dc
        err -= dr * step_c
        err += dc * step_r
        np.add(cols[i - 1], sc * step_c, out=cols[i])
        np.add(rows[i - 1], sr * step_r, out=rows[i])
    return rows, cols, n_cells
