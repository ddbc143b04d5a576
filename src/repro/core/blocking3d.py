"""3D spatial blocking (paper Section V-A2, Figure 2a).

The grid is divided into overlapping axis-aligned 3D blocks; each block is
loaded on chip (ghost layer of width R included) and the stencil is applied
to its interior.  One time step per sweep.  The ghost layers are re-loaded by
every neighboring block, which is the 3D overestimation
:math:`\\kappa^{3D} = ((1-2R/d_x)(1-2R/d_y)(1-2R/d_z))^{-1}` the paper uses
to motivate 2.5D blocking.

That is 4D blocking at ``dim_T = 1``, so this executor *is*
:class:`~repro.core.blocking4d.Blocking4D` with one step per round.
"""

from __future__ import annotations

from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D
from .blocking4d import Blocking4D
from .traffic import TrafficStats

__all__ = ["Blocking3D", "run_3d"]


class Blocking3D(Blocking4D):
    """3D spatial blocking executor (one time step per grid sweep)."""

    def __init__(
        self, kernel: PlaneKernel, tile_z: int, tile_y: int, tile_x: int
    ) -> None:
        super().__init__(kernel, 1, tile_z, tile_y, tile_x)


def run_3d(
    kernel: PlaneKernel,
    field: Field3D,
    steps: int,
    tile_z: int,
    tile_y: int,
    tile_x: int,
    *,
    traffic: TrafficStats | None = None,
) -> Field3D:
    """Convenience wrapper for :class:`Blocking3D`."""
    return Blocking3D(kernel, tile_z, tile_y, tile_x).run(field, steps, traffic)
