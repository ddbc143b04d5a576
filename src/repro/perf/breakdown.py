"""Optimization-breakdown series (regenerates Figure 5).

Figure 5 shows the cumulative effect of applying each optimization in
sequence.  Each stage entry pairs the model's prediction with the paper's
reported bar so benches and EXPERIMENTS.md can show both.  The *measured*
counterpart is ``repro trace`` (:func:`repro.obs.export.summarize_trace`):
per-span self-times of a real traced run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.spec import CORE_I7, GTX_285, MachineSpec
from .calibration import CPU_CAL, GPU_CAL, CpuCalibration, GpuCalibration
from .kernels import LBM_D3Q19, SEVEN_POINT
from .model import (
    predict_7pt_gpu,
    predict_lbm_cpu,
)

__all__ = [
    "Stage",
    "breakdown_lbm_cpu",
    "breakdown_7pt_gpu",
]


@dataclass(frozen=True)
class Stage:
    """One bar of a breakdown figure."""

    name: str
    modeled_mups: float
    paper_mups: float
    mechanism: str

    @property
    def ratio(self) -> float:
        return self.modeled_mups / self.paper_mups if self.paper_mups else float("nan")


def breakdown_lbm_cpu(
    machine: MachineSpec = CORE_I7, cal: CpuCalibration = CPU_CAL
) -> list[Stage]:
    """Figure 5(a): LBM SP on the Core i7, cumulative optimizations."""
    kernel = LBM_D3Q19
    scalar_rate = machine.cores * machine.frequency_ghz * 1e9 * cal.scalar_ops_per_cycle
    stages = [
        Stage(
            "parallel scalar (no SSE)",
            scalar_rate / kernel.ops_per_update / 1e6,
            52,
            "compute bound on 4 scalar cores",
        ),
        Stage(
            "+ 4-wide SSE",
            predict_lbm_cpu("none", "sp", ilp=False).mupdates_per_s,
            87,
            "compute limit x4 but now bandwidth bound at ~21 GB/s",
        ),
        Stage(
            "+ spatial blocking",
            predict_lbm_cpu("spatial", "sp", ilp=False).mupdates_per_s,
            87,
            "no spatial reuse in LBM: no change",
        ),
        Stage(
            "4D blocking",
            predict_lbm_cpu("4d", "sp", ilp=False).mupdates_per_s,
            94,
            "temporal reuse but ~2X ghost recompute in 3 dimensions",
        ),
        Stage(
            "3.5D blocking",
            predict_lbm_cpu("35d", "sp", ilp=False).mupdates_per_s,
            157,
            "dim_T=3 traffic cut at kappa~1.21: compute bound",
        ),
        Stage(
            "+ ILP (unroll, prefetch)",
            predict_lbm_cpu("35d", "sp", ilp=True).mupdates_per_s,
            171,
            "software pipelining and loop unrolling",
        ),
    ]
    return stages


def breakdown_7pt_gpu(
    machine: MachineSpec = GTX_285, cal: GpuCalibration = GPU_CAL
) -> list[Stage]:
    """Figure 5(b): 7-point stencil SP on the GTX 285."""
    base_35d = predict_7pt_gpu("35d", "sp", ilp=False).mupdates_per_s
    return [
        Stage(
            "naive (no blocking)",
            predict_7pt_gpu("none", "sp").mupdates_per_s,
            3300,
            "no caches: every neighbor is a separate global load",
        ),
        Stage(
            "spatial blocking",
            predict_7pt_gpu("spatial", "sp").mupdates_per_s,
            9234,
            "shared-memory tiles, ~1 read/element (13% overestimation)",
        ),
        Stage(
            "4D blocking",
            predict_7pt_gpu("4d", "sp").mupdates_per_s,
            9700,
            "small 3D blocks -> high overestimation: only ~5% gain",
        ),
        Stage(
            "3.5D blocking",
            base_35d,
            13252,
            "register/shared 2.5D+T blocking, compute bound",
        ),
        Stage(
            "+ loop unrolling",
            base_35d * cal.unroll_boost,
            14345,
            "ILP within each thread",
        ),
        Stage(
            "+ amortize thread overheads",
            base_35d * cal.unroll_boost * cal.amortize_boost,
            17115,
            "multiple updates per thread: fewer index/branch instructions",
        ),
    ]
