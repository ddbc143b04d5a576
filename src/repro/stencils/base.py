"""Kernel protocol shared by all blocking executors.

A *plane kernel* computes one output XY sub-plane from the ``2R+1`` source
sub-planes it depends on.  Expressing kernels at plane granularity is what
lets a single set of executors implement every scheme in the paper — naive
sweeps, 3D/2.5D spatial blocking and 3.5D space-time blocking — for both PDE
stencils (Section IV-A) and D3Q19 LBM (Section IV-B).

Coordinate conventions
----------------------
Planes are arrays of shape ``(ncomp, ny, nx)``.  ``compute_plane`` receives
the target region as half-open ranges ``yr=(y0, y1)``, ``xr=(x0, x1)`` in
*plane-local* coordinates, plus the global offset ``(gz, gy0, gx0)`` of the
plane so kernels with auxiliary per-cell state (the LBM obstacle flags) can
address it.  Executors guarantee the full stencil footprint
``[y0-R, y1+R) x [x0-R, x1+R)`` lies inside the passed planes.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Sequence

import numpy as np

__all__ = ["PlaneKernel", "ScratchArena", "validate_footprint"]


class ScratchArena:
    """Preallocated, reusable scratch buffers keyed by ``(tag, shape, dtype)``.

    The allocation-free kernel paths (:meth:`PlaneKernel.compute_plane_inplace`)
    draw every temporary they need from an arena instead of allocating fresh
    NumPy arrays.  Buffers are cached per *thread*: the row-partitioned 3.5D
    executor calls kernels from several workers concurrently, often with
    identical region shapes, so sharing buffers across threads would race.

    The arena only ever grows — one buffer per distinct (tag, shape, dtype)
    per thread — which is bounded in practice by the handful of region shapes
    a blocking schedule produces.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: per-thread buffer dicts, kept for aggregate accounting
        self._pools: list[dict] = []
        #: number of buffers ever allocated (across all threads)
        self.allocations = 0
        #: number of ``get`` calls served from an existing buffer
        self.hits = 0

    def _pool(self) -> dict:
        pool = getattr(self._tls, "pool", None)
        if pool is None:
            pool = self._tls.pool = {}
            with self._lock:
                self._pools.append(pool)
        return pool

    def get(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The scratch buffer for ``tag`` at this shape/dtype (contents stale)."""
        pool = self._pool()
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        key = (tag, tuple(shape), dtype)
        buf = pool.get(key)
        if buf is None:
            # Zero-filled so the flat kernel paths' seam lanes start finite
            # (see PlaneRing); np.empty would hand back arbitrary bits.
            buf = np.zeros(key[1], dtype=dtype)
            pool[key] = buf
            self.allocations += 1
        else:
            self.hits += 1
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all threads' pools."""
        with self._lock:
            return sum(b.nbytes for pool in self._pools for b in pool.values())

    def clear(self) -> None:
        """Drop every cached buffer (they are re-created on demand)."""
        with self._lock:
            for pool in self._pools:
                pool.clear()


class PlaneKernel(abc.ABC):
    """Abstract base class for plane-granularity stencil kernels."""

    #: stencil radius R (Manhattan radius for k-point stencils,
    #: L-infinity for LBM) — both are 1 for the paper's kernels.
    radius: int = 1
    #: values stored per grid point (1 for PDE stencils, 19 for D3Q19).
    ncomp: int = 1
    #: operations per grid-point update, per the Section IV accounting.
    ops_per_update: int = 0

    @abc.abstractmethod
    def compute_plane(
        self,
        out: np.ndarray,
        src: Sequence[np.ndarray],
        yr: tuple[int, int],
        xr: tuple[int, int],
        gz: int = 0,
        gy0: int = 0,
        gx0: int = 0,
    ) -> None:
        """Compute ``out[:, y0:y1, x0:x1]`` from source planes.

        Parameters
        ----------
        out:
            Destination plane ``(ncomp, ny, nx)``; only the target region is
            written.
        src:
            The ``2R+1`` source planes ordered ``z-R .. z+R``, each with the
            same ``(ncomp, ny, nx)`` extent as ``out``.
        yr, xr:
            Half-open target region in plane-local coordinates.
        gz, gy0, gx0:
            Global coordinates of ``out``'s plane index and of local
            ``(y=0, x=0)``; used for auxiliary state lookup.
        """

    def compute_plane_inplace(
        self,
        out: np.ndarray,
        src: Sequence[np.ndarray],
        yr: tuple[int, int],
        xr: tuple[int, int],
        gz: int = 0,
        gy0: int = 0,
        gx0: int = 0,
        *,
        arena: "ScratchArena",
        seam_writable: bool = False,
    ) -> None:
        """Allocation-free variant of :meth:`compute_plane`.

        Must produce results *bit-identical* to :meth:`compute_plane` — same
        operand pairing, same reduction order — while drawing every temporary
        from ``arena`` (``np.add/np.multiply(..., out=...)`` style).  The base
        implementation falls back to the allocating path, so kernels without
        a hand-written in-place path stay correct under
        :class:`~repro.perf.backends.InplaceKernel` (and so the
        ``fused-numpy`` rung), just not allocation-free.

        ``seam_writable=True`` is a caller promise that positions of ``out``
        in rows ``[y0, y1)`` but *outside* columns ``[x0, x1)`` are dead: the
        caller either overwrites them after this call or never reads them
        (true for the blocking executors' intermediate ring planes, whose
        boundary strips are refreshed after every compute step).  The flat
        contiguous fast paths then accumulate straight into ``out``'s
        underlying buffer — clobbering those seam positions with junk —
        instead of going through a scratch buffer plus a strided copy-out.
        The promise also implies ``out`` aliases none of the ``src`` planes.
        Target-region values are bit-identical either way.
        """
        self.compute_plane(out, src, yr, xr, gz, gy0, gx0)

    def element_size(self, dtype) -> int:
        """Bytes per grid point (the paper's E) for a given precision."""
        return self.ncomp * np.dtype(dtype).itemsize

    def padded_for(
        self, halo: int, shape: tuple[int, int, int]
    ) -> "PlaneKernel":
        """The kernel to use on a periodically ``halo``-padded grid.

        Pure stencils are translation invariant, so the default returns
        ``self``.  Kernels with auxiliary per-cell state (LBM flags)
        override this to wrap that state alongside the grid.
        """
        return self

    def restricted_to(self, zlo: int, zhi: int) -> "PlaneKernel":
        """The kernel to use on the Z sub-range ``[zlo, zhi)`` of the grid.

        Used by the distributed runner, whose ranks address planes in
        slab-local coordinates.  Translation-invariant kernels return
        ``self``; kernels with per-cell state slice it.
        """
        return self

    def bytes_per_update_ideal(self, dtype) -> int:
        """Compulsory bytes per update after perfect blocking: 1 read + 1 write."""
        return 2 * self.element_size(dtype)

    def gamma(self, dtype) -> float:
        """Kernel bandwidth-to-compute ratio (bytes/op) after spatial blocking."""
        return self.bytes_per_update_ideal(dtype) / self.ops_per_update


def validate_footprint(
    shape: tuple[int, int],
    yr: tuple[int, int],
    xr: tuple[int, int],
    radius: int,
) -> None:
    """Assert the stencil footprint of the target region fits in the plane."""
    ny, nx = shape
    y0, y1 = yr
    x0, x1 = xr
    if y0 - radius < 0 or y1 + radius > ny or x0 - radius < 0 or x1 + radius > nx:
        raise ValueError(
            f"stencil footprint out of bounds: region y={yr} x={xr}, "
            f"radius {radius}, plane {shape}"
        )
    if y0 >= y1 or x0 >= x1:
        raise ValueError(f"empty target region y={yr} x={xr}")
