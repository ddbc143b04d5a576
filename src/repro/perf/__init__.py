"""Performance analysis reproducing the paper's tables and figures."""

from .backends import (
    Backend,
    BackendUnavailableError,
    InplaceKernel,
    available_backends,
    backend_availability,
    backend_names,
    bound_rung,
    default_backend_name,
    get_backend,
    wrap_kernel,
)
from .codegen import (
    CODEGEN_STATS,
    CodegenCache,
    CodegenSweepKernel,
    codegen_available,
    codegen_cache_dir,
    codegen_mode,
    generate_sweep_source,
    plan_hash,
)
from .breakdown import Stage, breakdown_7pt_gpu, breakdown_lbm_cpu
from .calibration import CPU_CAL, GPU_CAL, CpuCalibration, GpuCalibration
from .comparisons import Comparison, section_viid_comparisons
from .kernels import KERNELS, LBM_D3Q19, SEVEN_POINT, TWENTY_SEVEN_POINT, KernelModel
from .model import (
    SCHEMES,
    PerfEstimate,
    predict_7pt_cpu,
    predict_7pt_gpu,
    predict_lbm_cpu,
    predict_lbm_gpu,
)
from .report import format_comparisons, format_stages, format_table

__all__ = [
    "KernelModel",
    "SEVEN_POINT",
    "TWENTY_SEVEN_POINT",
    "LBM_D3Q19",
    "KERNELS",
    "CpuCalibration",
    "GpuCalibration",
    "CPU_CAL",
    "GPU_CAL",
    "PerfEstimate",
    "SCHEMES",
    "predict_7pt_cpu",
    "predict_lbm_cpu",
    "predict_7pt_gpu",
    "predict_lbm_gpu",
    "Stage",
    "breakdown_lbm_cpu",
    "breakdown_7pt_gpu",
    "Comparison",
    "section_viid_comparisons",
    "format_table",
    "format_stages",
    "format_comparisons",
    "Backend",
    "BackendUnavailableError",
    "InplaceKernel",
    "available_backends",
    "backend_availability",
    "backend_names",
    "bound_rung",
    "default_backend_name",
    "get_backend",
    "wrap_kernel",
    "CODEGEN_STATS",
    "CodegenCache",
    "CodegenSweepKernel",
    "codegen_available",
    "codegen_cache_dir",
    "codegen_mode",
    "generate_sweep_source",
    "plan_hash",
]
