"""Thread-parallel GMapping (paper §V, Fig. 6).

The paper's acceleration: a pool of N threads, each responsible for
M/N particles' ``scanMatch`` (and here also their map integration —
both are particle-independent). Each thread runs the serial filter's
lockstep hill climb over its own chunk of particles, so there is one
scanMatch kernel, not a second parallel one. Because every particle
owns a private RNG stream, the parallel filter produces
*bit-identical* state to the serial one; only wall-clock time
changes. That property is asserted by the test suite and is what lets
the modeled speedups of :class:`~repro.compute.executor.ExecutionModel`
stand in for real hardware in the cross-platform figures.
"""

from __future__ import annotations

import numpy as np

from repro.compute.threadpool import WorkerPool
from repro.perception.gmapping import GMapping, GMappingConfig
from repro.world.geometry import Pose2D


class ParallelGMapping(GMapping):
    """GMapping with thread-pooled scanMatch / map integration."""

    def __init__(
        self,
        config: GMappingConfig = GMappingConfig(),
        rng: np.random.Generator | None = None,
        initial_pose: Pose2D = Pose2D(),
        n_threads: int = 4,
    ) -> None:
        super().__init__(config, rng, initial_pose)
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self._pool = WorkerPool(n_threads)

    def _scan_match_all(self, ranges, angles, indices) -> None:
        particles = [self.particles[j] for j in indices]

        def run_chunk(_i: int, a: int, b: int) -> None:
            self._match_lockstep(particles[a:b], ranges, angles)

        self._pool.map_chunks(run_chunk, len(particles))

    def _map_update_all(self, ranges, angles, range_max, indices) -> None:
        idx = list(indices)

        def run_chunk(_i: int, a: int, b: int) -> None:
            for j in idx[a:b]:
                self._map_update(self.particles[j], ranges, angles, range_max)

        self._pool.map_chunks(run_chunk, len(idx))

    def close(self) -> None:
        """Release pool threads."""
        self._pool.shutdown()

    def __enter__(self) -> ParallelGMapping:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
