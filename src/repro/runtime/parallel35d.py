"""Thread-parallel 3.5D executor (paper Sections V-D and V-E).

This is the paper's chosen parallelization — option (2) of Section V-D:

* every XY sub-plane (at every time instance) is divided row-wise across
  *all* threads, so each thread performs the same amount of external memory
  traffic and stencil computation (the load-balance property the tests
  assert);
* the ``2R+2``-plane (concurrent) ring layout makes the ``dim_T + 1`` steps
  of one z-iteration mutually independent, so threads sweep through an
  entire iteration without intermediate synchronization;
* one barrier separates consecutive z-iterations ("There is a barrier after
  each thread has finished its computation before moving to the next z"):
  each z-iteration is one :meth:`WorkerPool.run_spmd` launch, and the
  launch's join is that barrier.

Every thread reads from memory for ``t' = 0``, works in the cached buffers
for the intermediate instances, and writes to memory for ``t' = dim_T`` —
unlike wavefront schemes where dedicated threads own time instances and
bandwidth use is imbalanced (the Section II critique of Habich/Wellein).
"""

from __future__ import annotations

from ..core.blocking35d import Blocking35D
from ..core.traffic import TrafficStats
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D
from .partition import partition_span
from .threadpool import WorkerPool

__all__ = ["ParallelBlocking35D", "run_parallel_3_5d"]


class ParallelBlocking35D(Blocking35D):
    """Row-partitioned threaded 3.5D executor.

    Runs the rounds, tiles and shell loading of :class:`Blocking35D`; only
    each tile's schedule is split across the pool.  Numerically identical
    to the serial executor (and hence the naive reference); the schedule
    requires the concurrent (2R+2 slot) ring configuration.
    """

    parallel = True

    def __init__(
        self,
        kernel: PlaneKernel,
        dim_t: int,
        tile_y: int,
        tile_x: int,
        n_threads: int,
        pool: WorkerPool | None = None,
        validate: bool = False,
        spmd_deadline: float | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        super().__init__(
            kernel, dim_t, tile_y, tile_x, concurrent=True, validate=validate
        )
        self.n_threads = n_threads
        self._pool = pool
        self._owns_pool = pool is None
        #: watchdog bound (seconds) on each SPMD launch — i.e. on each
        #: z-iteration barrier interval; ``None`` waits forever (the launch
        #: still fails fast if a worker thread dies).
        self.spmd_deadline = spmd_deadline
        #: (pool, per-thread stats) of the run in progress
        self._spmd: tuple[WorkerPool, list[TrafficStats]] | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        field: Field3D,
        steps: int,
        traffic: TrafficStats | None = None,
        per_thread_traffic: list[TrafficStats] | None = None,
    ) -> Field3D:
        """Advance ``field`` by ``steps``; optionally collect per-thread stats."""
        if steps <= 0:  # nothing to launch; the serial run validates steps
            return super().run(field, steps, traffic)
        pool = self._pool or WorkerPool(self.n_threads)
        thread_stats = [TrafficStats() for _ in range(self.n_threads)]
        if traffic is not None:
            traffic.notes.setdefault("threads", self.n_threads)
        self._spmd = (pool, thread_stats)
        try:
            out = super().run(field, steps, traffic)
        finally:
            self._spmd = None
            if self._owns_pool:
                pool.shutdown()
        if traffic is not None:
            for ts in thread_stats:
                traffic.merge(ts)
        if METRICS.armed:
            METRICS.merge_per_thread_traffic(thread_stats)
        if per_thread_traffic is not None:
            per_thread_traffic.extend(thread_stats)
        return out

    def _run_schedule(self, src, dst, ctx, schedule, round_t, traffic) -> None:
        """One tile's schedule with every plane's rows split across the pool.

        Each z-iteration is one ``run_spmd`` launch whose join is the
        barrier before the next z; workers count into their own stats.
        """
        pool, stats = self._spmd
        rows = partition_span(ctx.ey[0], ctx.ey[1], self.n_threads)
        keys, fused, work = self._z_iterations(src, dst, ctx, schedule, round_t)
        for k in keys:

            def launch(tid: int, k=k) -> None:
                if rows[tid][0] < rows[tid][1]:
                    work(k, rows[tid], stats[tid])

            with TRACE.span("z_iter", k=k, fused=fused):
                pool.run_spmd(launch, deadline=self.spmd_deadline)


def run_parallel_3_5d(
    kernel: PlaneKernel,
    field: Field3D,
    steps: int,
    dim_t: int,
    tile_y: int,
    tile_x: int,
    n_threads: int = 4,
    *,
    traffic: TrafficStats | None = None,
    validate: bool = False,
) -> Field3D:
    """Convenience wrapper for :class:`ParallelBlocking35D`."""
    return ParallelBlocking35D(
        kernel, dim_t, tile_y, tile_x, n_threads, validate=validate
    ).run(field, steps, traffic)
