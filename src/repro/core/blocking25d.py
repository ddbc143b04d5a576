"""2.5D spatial blocking (paper Section V-A3, Figure 2b).

Block in the XY plane and *stream* through Z: only ``2R+1`` XY sub-planes
need be resident on chip at once, so the blocked dimensions ``dim_X, dim_Y``
can be much larger than a 3D block's side — the ghost-layer overestimation
drops from :math:`((1-2R/d)^3)^{-1}` to :math:`((1-2R/d_x)(1-2R/d_y))^{-1}`
with a much larger ``d``.  There is *no* ghost traffic in Z at all.

The paper's two-phase flow, per XY sub-plane — (1) a prolog that loads the
sub-planes ``z = 0 .. 2R`` into the ring, then (2) for each ``z`` load plane
``z + R`` and compute plane ``z`` straight to external memory — is exactly
the 3.5D schedule at ``dim_T = 1`` with the sequential (2R+1 slot) ring, so
this executor *is* :class:`~repro.core.blocking35d.Blocking35D` with those
parameters and shares its tile loop, caches and fused-sweep path.
"""

from __future__ import annotations

from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D
from .blocking35d import Blocking35D
from .traffic import TrafficStats

__all__ = ["Blocking25D", "run_2_5d"]


class Blocking25D(Blocking35D):
    """2.5D spatial blocking executor (one time step per grid sweep)."""

    def __init__(self, kernel: PlaneKernel, tile_y: int, tile_x: int) -> None:
        super().__init__(kernel, 1, tile_y, tile_x, concurrent=False)


def run_2_5d(
    kernel: PlaneKernel,
    field: Field3D,
    steps: int,
    tile_y: int,
    tile_x: int,
    *,
    traffic: TrafficStats | None = None,
) -> Field3D:
    """Convenience wrapper for :class:`Blocking25D`."""
    return Blocking25D(kernel, tile_y, tile_x).run(field, steps, traffic)
