"""The two ``repro run`` workloads: ``sweep-7pt`` and ``lbm-guarded``.

Each invocation calls ``repro.cli.main`` in this process with the plan
fields (scheme, dim_T, tile, backend, steps) left at the parser's
defaults, exactly as a user typing the command gets them.  The naive
reference runs the same command with ``--scheme naive``, interleaved with
the workload's own invocations so that both see the same machine state.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

from common import (
    Result,
    cli_value,
    log,
    median,
    peak_rss_mb,
    percentile,
    run_cli,
)
from spans import Account, Recorder

#: fresh set-up processes per run, half before and half after the timed
#: invocations, so that the median spans the run's changes of host speed
SETUP_REPEATS = 8

WORKLOADS = {
    # the paper's Fig. 4b case: kernel arithmetic and dispatch only
    "sweep-7pt": {"kernel": "7pt", "grid": 256, "threads": 1, "guards": []},
    # the paper's Fig. 4a kernel under threads, CRC seals and checkpoints
    "lbm-guarded": {"kernel": "lbm", "grid": 64, "threads": 2,
                    "guards": ["--verify", "seal", "--checkpoint", "{ck}"]},
}


def default_plan() -> dict:
    """The plan fields ``repro run`` uses when none is given."""
    from repro.cli import build_parser
    from repro.perf.backends import default_backend_name

    ns = build_parser().parse_args(["run"])
    return {
        "scheme": ns.scheme, "dim_t": ns.dim_t, "tile": ns.tile,
        "steps": ns.steps, "precision": ns.precision,
        "backend": ns.backend or default_backend_name(),
    }


def _argv(spec: dict, ctx, ck: str, threads: int) -> list:
    argv = ["run", "--kernel", spec["kernel"], "--grid", str(spec["grid"]),
            "--threads", str(threads), "--seed", str(ctx.seed)]
    return argv + [g.format(ck=ck) for g in spec["guards"]]


def _setup_times(argv: list, ctx, res: Result, n: int) -> list[float]:
    """Fresh ``repro run --steps 0``: import, grid, plan bind, guard set-up."""
    cmd = [sys.executable, "-m", "repro.cli", *argv, "--steps", "0",
           "--no-check"]
    times = []
    for _ in range(n):
        res.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env,
                              capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            res.failed += 1
            log(f"setup run failed ({proc.returncode}): {proc.stderr[-500:]}")
            continue
        times.append(dt)
    return times


class _Budget:
    """Rounds of invocations that fit in ``seconds`` (at least one): a round
    starts only if one more round as long as the last still fits."""

    def __init__(self, seconds: float) -> None:
        self.t_end = time.perf_counter() + seconds
        self.t_last = None
        self.round_s = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.t_last is not None:
            self.round_s = now - self.t_last
            if now + self.round_s > self.t_end:
                return False
        self.t_last = now
        return True


def _invoke(argv: list, res: Result, rec: Recorder | None = None):
    """One timed invocation: (seconds, stdout, exit code) or None on error."""
    res.attempted += 1
    t0 = time.perf_counter()
    try:
        if rec is not None:
            rec.on = True
            code, out = rec.wrap(run_cli, "cli")(argv)
        else:
            code, out = run_cli(argv)
    except Exception as exc:  # a raising run is a failed operation
        res.failed += 1
        log(f"invocation raised {type(exc).__name__}: {exc}")
        return None
    finally:
        if rec is not None:
            rec.on = False
    dt = time.perf_counter() - t0
    if code not in (0, 3):
        res.failed += 1
        log(f"invocation exited {code}: {' '.join(argv)}")
        return None
    return dt, out, code


def _checked_run(argv: list, res: Result) -> None:
    """The correctness run: exit 0 and bit-identical to the naive sweep."""
    res.attempted += 1
    code, out = run_cli(argv)
    if code != 0 or "bit-identical to the naive reference" not in out:
        res.failed += 1
        res.mismatch(f"checked run exited {code}: "
                     f"{cli_value(out, 'check') or 'no check line'}")


def reuse_check(plan: dict, ctx, res: Result) -> None:
    """Run one guarded LBM sweep twice on the same GuardedSweep.

    A second ``run`` with an active SDC tier must give the naive result
    again.  Known defect: the seals of the first run are never dropped, so
    the second run's input fails seal verification and raises
    ``SdcUnhealableError``.  That is one hit of the
    ``resilience.reuse_failures`` probe; a wrong result is a mismatch.
    """
    import numpy as np

    from repro.core import run_naive
    from repro.lbm import LBMKernel, Lattice
    from repro.perf.backends import wrap_kernel
    from repro.resilience import GuardedSweep, ResilienceError
    from repro.runtime import ParallelBlocking35D

    shape = (16, 16, 16)
    rng = np.random.default_rng(ctx.seed)
    lat = Lattice.from_moments(
        (1.0 + 0.02 * rng.random(shape)).astype(np.float32),
        (0.01 * (rng.random((3,) + shape) - 0.5)).astype(np.float32),
    )
    ref = LBMKernel(lat.flags, omega=1.2)
    ex = ParallelBlocking35D(wrap_kernel(ref, plan["backend"]), plan["dim_t"],
                             plan["tile"], plan["tile"], 2)
    guard = GuardedSweep(ex, sdc="seal", kernel=ref)
    want = run_naive(ref, lat.f, plan["steps"]).data
    if not np.array_equal(guard.run(lat.f, plan["steps"]).data, want):
        res.mismatch("reuse check: first guarded run differs from naive")
        return
    try:
        again = guard.run(lat.f, plan["steps"]).data
    except ResilienceError as exc:
        res.probe("resilience.reuse_failures", True)
        log(f"reuse check: second run raised {type(exc).__name__}")
        return
    res.probe("resilience.reuse_failures", False)
    if not np.array_equal(again, want):
        res.mismatch("reuse check: second guarded run differs from naive")


def run(name: str, ctx) -> Result:
    spec = WORKLOADS[name]
    res = Result()
    plan = default_plan()
    ck = str(ctx.tmp / "checkpoint.npz")
    argv = _argv(spec, ctx, ck, spec["threads"])
    work = argv + ["--no-check"]
    naive = work + ["--scheme", "naive"]
    _record_env(spec, plan, res)

    if ctx.trace:
        _checked_run(argv, res)  # also warms the process up
        if name == "lbm-guarded":
            reuse_check(plan, ctx, res)
        serial = _argv(spec, ctx, ck, 1) + ["--no-check"]
        _traced(spec, plan, ctx, res, work, naive, serial, ck)
        return res
    setup = _setup_times(argv, ctx, res, SETUP_REPEATS // 2)
    _checked_run(argv, res)
    if name == "lbm-guarded":
        reuse_check(plan, ctx, res)

    walls, ratios, degraded, done = [], [], 0, 0
    budget = _Budget(ctx.seconds)
    i = 0
    while budget.another():
        order = (work, naive) if i % 2 == 0 else (naive, work)
        got = {}
        for a in order:
            r = _invoke(a, res)
            if r is not None:
                got[a is work] = r
        if True in got:
            walls.append(got[True][0])
            done += 1
            degraded += got[True][2] == 3
        if True in got and False in got:
            ratios.append(got[False][0] / got[True][0])
        i += 1
    setup += _setup_times(argv, ctx, res, SETUP_REPEATS - SETUP_REPEATS // 2)
    if not walls or not ratios or not setup:
        res.mismatch("no successful timed invocation")
        return res
    updates = spec["grid"] ** 3 * plan["steps"]
    gups = [updates / w / 1e9 for w in walls]
    ms = [1e3 * w for w in walls]
    res.put("setup_s", median(setup), "s", setup)
    res.put("sweep_gups", median(gups), "GUPS", gups)
    res.put("sweep_vs_naive", median(ratios), "ratio", ratios)
    res.put("serve_p50_ms", median(ms), "ms", ms)
    res.put("serve_p99_ms", percentile(ms, 0.99), "ms", ms)
    res.put("serve_jobs_per_s", 1 / median(walls), "1/s")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.put("serve_degraded_frac", degraded / done, "frac")
    return res


def _record_env(spec, plan, res: Result) -> None:
    from repro.perf.backends import bound_rung, wrap_kernel

    res.note("plan (CLI defaults)", ", ".join(
        f"{k}={v}" for k, v in plan.items()))
    res.note("workload", f"{spec['kernel']} {spec['grid']}^3, "
                         f"{spec['threads']} thread(s), guards "
                         f"{' '.join(spec['guards']) or 'none'}")
    kernel = _ref_kernel(spec["kernel"])
    res.note("bound rung", bound_rung(wrap_kernel(kernel, plan["backend"])))


def _ref_kernel(name: str):
    import numpy as np

    from repro.lbm import LBMKernel
    from repro.stencils import SevenPointStencil

    if name == "lbm":
        return LBMKernel(np.zeros((4, 4, 4), dtype=np.uint8), omega=1.2)
    return SevenPointStencil()


def _traced(spec, plan, ctx, res, work, naive, serial, ck):
    """Per-layer split: traced invocations beside untraced ones; ``serial``
    is the workload on one thread, for the parallel speedup."""
    import numpy as np

    from hostref import copy_bandwidth
    from repro.core.regions import plan_tiles_2d

    rec = Recorder()
    rec.install(["core", "stencils", "perf", "runtime", "resilience"])
    plain, traced, naive_t, single_t = [], [], [], []
    degraded = 0
    accounts, naive_acc, bpu = [], [], []
    parts: list = []  # the first traced workload and naive invocations
    budget = _Budget(ctx.seconds)
    try:
        while budget.another():
            r = _invoke(work, res)
            if r is not None:
                plain.append(r[0])
                bpu.append(float(cli_value(r[1], "bytes/update") or "nan"))
            r = _invoke(work, res, rec)
            spans = rec.take()
            if r is not None:
                traced.append(r[0])
                degraded += r[2] == 3
                accounts.append(Account(spans))
                if len(accounts) == 1:
                    parts.append((spans, accounts[0], 1))
            r = _invoke(naive, res, rec)
            spans = rec.take()
            if r is not None:
                naive_t.append(r[0])
                naive_acc.append(Account(spans))
                if len(naive_acc) == 1:
                    parts.append((spans, naive_acc[0], 1))
            if spec["threads"] > 1:
                r = _invoke(serial, res, rec)
                rec.take()
                if r is not None:
                    single_t.append(r[0])
    finally:
        rec.uninstall()
    if not accounts or not plain or not naive_acc:
        res.mismatch("no successful traced invocation")
        return

    steps = plan["steps"] * len(accounts)
    rounds = math.ceil(plan["steps"] / plan["dim_t"]) * len(accounts)
    wall_ms = 1e3 * sum(traced)
    layers = {}
    for acc in accounts:
        for layer, ns in acc.by_layer().items():
            layers[layer] = layers.get(layer, 0.0) + ns / 1e6
    # ``cli`` is the catch-all root: time no wrapped entry point covers
    accounted = sum(ms for layer, ms in layers.items() if layer != "cli")
    kernel_ms = sum(a.layer_self_ms("perf", "kernel") for a in accounts)
    calls = sum(a.count_top("kernel", "perf") for a in accounts)
    binds = [d for a in accounts for d in a.durations_ms("perf.bind")]
    rounds_ms = [d for a in accounts for d in a.durations_ms("core.round")]
    par_ms = [d for a in accounts for d in a.durations_ms("runtime.round")]
    sdc_ms = sum(sum(a.durations_ms("resilience.sdc")) for a in accounts)
    ckpt = [d for a in accounts for d in a.durations_ms("resilience.checkpoint")]
    naive_ms = sum(sum(a.durations_ms("stencils.naive")) for a in naive_acc)
    gups = spec["grid"] ** 3 * plan["steps"] / median(plain) / 1e9
    host = copy_bandwidth()
    kernel = _ref_kernel(spec["kernel"])
    dtype = np.float32 if plan["precision"] == "sp" else np.float64
    bytes_per_update = kernel.bytes_per_update_ideal(dtype)
    roof_gups = host["copy_gbs"] / bytes_per_update

    res.put("perf.bind_ms", median(binds) if binds else 0.0, "ms", binds)
    res.put("perf.kernel_ms_per_step", kernel_ms / steps, "ms")
    res.put("perf.kernel_calls_per_step", calls / steps, "count")
    rms = rounds_ms or par_ms
    res.put("core.round_ms.p50", median(rms), "ms", rms)
    res.put("core.round_ms.p90", percentile(rms, 0.9), "ms", rms)
    res.put("core.dispatch_ms_per_step", layers["core"] / steps, "ms")
    res.put("core.tiles_per_round", len(plan_tiles_2d(
        spec["grid"], spec["grid"], kernel.radius, plan["dim_t"],
        plan["tile"], plan["tile"])), "count")
    res.put("core.bytes_per_update_counted", median(bpu), "B")
    res.put("stencils.naive_ms_per_step",
            naive_ms / (plan["steps"] * len(naive_acc)), "ms")
    res.put("runtime.round_ms", median(par_ms) if par_ms else 0.0, "ms",
            par_ms)
    res.put("runtime.parallel_speedup",
            median(single_t) / median(traced) if single_t else 0.0, "ratio")
    res.put("resilience.guard_overhead_frac", layers["resilience"] / wall_ms,
            "frac")
    res.put("resilience.sdc_ms_per_round", sdc_ms / rounds, "ms")
    res.put("resilience.checkpoint_ms", median(ckpt) if ckpt else 0.0, "ms",
            ckpt)
    res.put("resilience.checkpoint_mb",
            os.path.getsize(ck) / 1e6 if os.path.exists(ck) else 0.0, "MB")
    res.put("machine.copy_gbs", host["copy_gbs"], "GB/s")
    res.put("machine.pct_roofline", 100 * gups / roof_gups, "%")
    ms = [1e3 * w for w in plain]
    res.put("serve_p50_ms", median(ms), "ms", ms)
    res.put("serve_p99_ms", percentile(ms, 0.99), "ms", ms)
    res.put("trace.overhead_frac", median(traced) / median(plain) - 1, "frac")
    res.put("trace.accounted_frac", accounted / wall_ms, "frac")
    res.put("serve_degraded_frac", degraded / len(traced), "frac")
    for layer, ms in layers.items():
        res.put(f"layer.{layer}_frac", ms / wall_ms, "frac")
    res.note("host copy", f"{host['copy_gbs']:.2f} GB/s over "
             f"{host['array_mb']:.0f} MB arrays; LLC "
             f"{host['llc_mb']} MB"
             + (" (arrays capped below 4x LLC by available memory)"
                if host["capped"] else ""))
    res.note("roofline", f"{roof_gups:.3f} GUPS = copy GB/s / "
             f"{bytes_per_update} B per update (computed compulsory bytes)")
    res.note("traced invocations", f"{len(accounts)} workload, "
             f"{len(naive_acc)} naive, {len(single_t)} one-thread")
    res.trace_parts = parts
