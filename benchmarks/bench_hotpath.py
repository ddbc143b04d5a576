#!/usr/bin/env python
"""Hot-path benchmark: per-backend GUPS and allocation counts.

Runs the 3.5D executor over the 7-point, 27-point and LBM kernels under each
available kernel backend (see :mod:`repro.perf.backends`), plus the
allocation-free :class:`~repro.perf.backends.InplaceKernel` path under the
local label ``inplace``, and reports

* sustained update throughput (GUPS — giga lattice-site updates per second),
* the number and volume of plane-sized allocations in the steady state,
  measured with :mod:`tracemalloc` after a warm-up sweep,
* the scratch-arena hit statistics for the in-place backends.

The acceptance bar for this layer is that ``InplaceKernel`` reaches at least
1.5x the single-thread GUPS of the reference ``numpy`` backend on the 7-point
kernel at 128^3 (run without ``--quick``), while every backend stays
bit-identical to the naive reference.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py          # full (128^3)
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

import numpy as np

from repro.core import Blocking35D, run_naive
from repro.perf.backends import (
    InplaceKernel,
    available_backends,
    bound_rung,
    wrap_kernel,
)
from repro.stencils import Field3D, SevenPointStencil, TwentySevenPointStencil

#: allocations at least this large count as "plane-sized" in the steady state
PLANE_BYTES_THRESHOLD = 16 * 1024

#: label of the InplaceKernel path, which is not a registry backend
INPLACE = "inplace"


def _bind(kernel, bname: str):
    return InplaceKernel(kernel) if bname == INPLACE else wrap_kernel(kernel, bname)


def _make_case(name: str, grid: int, steps: int, dim_t: int, tile: int):
    if name == "7pt":
        kernel = SevenPointStencil()
        field = Field3D.random((grid, grid, grid), dtype=np.float32, seed=11)
    elif name == "27pt":
        kernel = TwentySevenPointStencil()
        field = Field3D.random((grid, grid, grid), dtype=np.float32, seed=12)
    elif name == "lbm":
        from repro.lbm import LBMKernel, Lattice

        shape = (grid, grid, grid)
        rng = np.random.default_rng(13)
        lat = Lattice.from_moments(
            (1.0 + 0.02 * rng.random(shape)).astype(np.float32),
            (0.01 * (rng.random((3,) + shape) - 0.5)).astype(np.float32),
        )
        kernel = LBMKernel(lat.flags, omega=1.2)
        field = lat.f
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(name)
    return kernel, field, steps, dim_t, tile


def _steady_state_allocs(executor, field, steps: int) -> tuple[int, int]:
    """Allocation behavior of a post-warm-up run.

    Returns ``(net_count, peak_transient_bytes)``: the number of surviving
    plane-sized allocations (should be 0 once every cache is warm, for every
    backend) and the peak of transient allocations above the resting level
    during the run — the churn of per-call temporaries that the in-place
    backends eliminate.
    """
    from repro.stencils.grid import copy_shell

    # Benchmark sweep_round on preallocated src/dst so the (inherent,
    # API-level) field copies of run() don't drown the per-kernel churn.
    src = field.copy()
    dst = field.like()
    copy_shell(src, dst, executor.kernel.radius)
    round_t = min(executor.dim_t, steps)
    executor.sweep_round(src, dst, round_t)  # warm-up: caches, arenas, rings
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    executor.sweep_round(src, dst, round_t)
    _, peak = tracemalloc.get_traced_memory()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    net_count = 0
    for stat in after.compare_to(before, "lineno"):
        if stat.size_diff > PLANE_BYTES_THRESHOLD and stat.count_diff > 0:
            net_count += stat.count_diff
    return net_count, max(0, peak - baseline)


def bench_case(
    name: str,
    grid: int,
    steps: int,
    dim_t: int,
    tile: int,
    backends: list[str],
    repeats: int,
    check: bool,
    rungs: dict[str, str] | None = None,
) -> dict[str, float]:
    kernel, field, steps, dim_t, tile = _make_case(name, grid, steps, dim_t, tile)
    n_updates = grid**3 * steps
    ref = run_naive(kernel, field, steps) if check else None

    print(f"\n== {name}  grid={grid}^3  steps={steps}  dim_T={dim_t}  tile={tile} ==")
    print(f"{'backend':<16} {'GUPS':>8} {'vs numpy':>9} {'net':>7} "
          f"{'peak KB':>9} {'arena':>12}")
    executors: dict[str, Blocking35D] = {}
    for bname in backends:
        ex = Blocking35D(_bind(kernel, bname), dim_t, tile, tile)
        if rungs is not None and bname != INPLACE:
            # the ladder rung actually bound — codegen/fused requests serve
            # the fused numpy plan for kernels outside their supported set
            rungs[bname] = bound_rung(ex.kernel)
        out = ex.run(field, steps)  # warm-up + correctness
        if ref is not None and not np.array_equal(out.data, ref.data):
            print(f"{bname:<16} BIT-EXACTNESS FAILURE vs naive reference")
            raise SystemExit(1)
        executors[bname] = ex
    # Interleave the timed repeats across backends so drift in machine speed
    # (noisy neighbors, turbo states) hits every backend alike instead of
    # whichever one happened to own the slow measurement window.
    best = {bname: float("inf") for bname in backends}
    for _ in range(repeats):
        for bname, ex in executors.items():
            best[bname] = min(best[bname], _timed(ex.run, field, steps))
    gups = {bname: n_updates / t / 1e9 for bname, t in best.items()}
    for bname, ex in executors.items():
        net, peak = _steady_state_allocs(ex, field, steps)
        arena = getattr(ex.kernel, "arena", None)
        arena_info = (
            f"{arena.allocations}a/{arena.hits}h" if arena is not None else "-"
        )
        ratio = gups[bname] / gups[backends[0]]
        print(f"{bname:<16} {gups[bname]:>8.4f} {ratio:>8.2f}x {net:>7d} "
              f"{peak / 1024:>9.1f} {arena_info:>12}")
    return gups


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small grids / fewer repeats (CI smoke mode)")
    ap.add_argument("--grid", type=int, default=None,
                    help="override the 7pt/27pt grid side (default 128; 32 quick)")
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--kernels", nargs="+", default=["7pt", "27pt", "lbm"],
                    choices=["7pt", "27pt", "lbm"])
    ap.add_argument("--backends", nargs="+", default=None,
                    help=f"backend names or {INPLACE!r} (default: all "
                    "available, plus the in-place path)")
    ap.add_argument("--no-check", action="store_true",
                    help="skip the naive bit-exactness cross-check")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write machine-readable results to this file")
    args = ap.parse_args(argv)

    grid = args.grid or (32 if args.quick else 128)
    lbm_grid = min(grid, 24 if args.quick else 64)
    repeats = args.repeats or (1 if args.quick else 4)
    backends = args.backends or [INPLACE] + available_backends()
    if backends[0] != "numpy":
        backends = ["numpy"] + [b for b in backends if b != "numpy"]
    try:
        for bname in backends:
            _bind(SevenPointStencil(), bname)  # fail fast on bad names
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = {}
    bound_rungs: dict[str, dict[str, str]] = {}
    for name in args.kernels:
        if name == "lbm":
            g, steps, dim_t, tile = lbm_grid, 2 if args.quick else 4, 2, lbm_grid
        else:
            g, steps, dim_t, tile = grid, 2 if args.quick else 4, 4, min(grid, 128)
        results[name] = bench_case(
            name, g, steps, dim_t, tile, backends, repeats, not args.no_check,
            rungs=bound_rungs.setdefault(name, {}),
        )

    rc = 0
    verdict = None
    speedup = None
    if "7pt" in results and INPLACE in results["7pt"]:
        speedup = results["7pt"][INPLACE] / results["7pt"]["numpy"]
        bar = 1.5
        verdict = "PASS" if speedup >= bar else ("n/a (quick)" if args.quick else "FAIL")
        print(f"\n7pt InplaceKernel vs numpy: {speedup:.2f}x "
              f"(acceptance >= {bar}x at 128^3: {verdict})")
        if not args.quick and speedup < bar:
            rc = 1
    if args.json:
        # One extra metered sweep (outside the timed repeats) joins measured
        # traffic against the Eq. 2 model so CI can watch kappa drift.
        from repro.obs.validate import metered_sweep_metrics

        mbackend = INPLACE if INPLACE in backends else backends[0]
        mkernel, mfield, msteps, mdim_t, mtile = _make_case(
            "7pt", grid, 2 if args.quick else 4, 4, min(grid, 128))
        metrics_block = metered_sweep_metrics(
            _bind(mkernel, mbackend), mfield, msteps,
            dim_t=mdim_t, tile=mtile,
        )
        metrics_block["kernel"] = "7pt"
        metrics_block["backend"] = mbackend
        metrics_block["bound_rung"] = bound_rungs.get("7pt", {}).get(
            mbackend, mbackend)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "benchmark": "hotpath",
                    "grid": grid,
                    "quick": args.quick,
                    "repeats": repeats,
                    "backends": backends,
                    "bound_rungs": bound_rungs,
                    "gups": results,
                    "metrics": metrics_block,
                    "acceptance": {"speedup": speedup, "verdict": verdict},
                },
                fh, indent=2,
            )
            fh.write("\n")
        print(f"wrote {args.json}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
