"""Fused z-iteration sweep kernels (the 3.5D hot-path layer).

The blocking executors express one z-iteration of the paper's Figure 3(a)
as ``dim_T + 1`` separate schedule steps, each a Python-level kernel call.
That is the right granularity for *correctness* (every step is independently
testable against the naive reference) but the wrong one for *speed*: on the
NumPy substrate the interpreter dispatch around each step — region lookups,
ring-liveness checks, footprint validation, slice construction — costs as
much as the arithmetic itself.  AN5D and the wavefront-diamond line of work
(PAPERS.md) both fuse the whole temporal chain into one compiled sweep; this
module provides that layering on top of the backend registry.

``FusedSweepKernel`` (the ``fused-numpy`` rung) lowers to a *prebound
instruction plan*: at tile-bind time every schedule step of every
z-iteration is lowered to a short list of ``(ufunc, a, b, out)``
instructions whose operands are pre-sliced views of the ring buffers, shell
planes and source/destination grids.  Executing one z-iteration is then a
single ``run_iteration`` call that replays ~5 steps' worth of prebound
ufuncs — the per-time-instance loop is fused and all per-step interpreter
work (slicing, validation, dict lookups) is hoisted out of the sweep
entirely.  The compiled whole-round rung, ``codegen``
(:mod:`repro.perf.codegen`), extends this adapter.

The plan preserves the executors' contracts exactly: identical operand
pairing and reduction order (bit-exact against the naive reference),
identical boundary-strip refresh semantics, identical traffic accounting,
and row-span restriction so :class:`~repro.runtime.parallel35d.ParallelBlocking35D`
workers can invoke the fused kernel on their span while keeping the paper's
one-barrier-per-z property.
"""

from __future__ import annotations

import numpy as np

from ..core.schedule import Schedule, StepKind
from ..resilience.faultinject import FAULTS
from ..stencils.generic import GenericStencil
from ..stencils.seven_point import SevenPointStencil
from ..stencils.twentyseven_point import TwentySevenPointStencil
from ..stencils.variable import VariableCoefficientStencil
from .backends import InplaceKernel

__all__ = ["FusedSweepKernel"]

# 27-point neighbor groups, in the exact order the reference kernel sums them.
from ..stencils.twentyseven_point import _CORNERS, _EDGES, _FACES  # noqa: E402


def _copy(a, b, out=None):
    np.copyto(a, b)


def _zero(a, b=None, out=None):
    a.fill(0)


def _invoke(a, b=None, out=None):
    a()


class FusedSweepKernel(InplaceKernel):
    """Backend adapter adding a fused z-iteration sweep to any kernel.

    Outside the 3.5D executors this behaves exactly like
    :class:`InplaceKernel` (so ``--backend fused-numpy`` works with every
    executor); inside them, :meth:`tile_runner` supplies a per-tile runner
    that executes whole z-iterations in one call.
    """

    engine = "numpy"

    def tile_runner(self, executor, src, dst, ctx, schedule: Schedule, round_t: int):
        """The (cached) fused runner for one tile context and buffer pair.

        Runners are cached on the tile context and matched by *identity* of
        the source/destination arrays and schedule (the double-buffer swap
        between rounds alternates between two runners).
        """
        FAULTS.fire("backend.compute", detail=f"fused-{self.engine}")
        cache = ctx.fused
        if cache is None:
            cache = ctx.fused = []
        for runner in cache:
            if (
                runner.src_data is src.data
                and runner.dst_data is dst.data
                and runner.schedule is schedule
                and runner.round_t == round_t
            ):
                return runner
        runner = _NumpyFusedRunner(self, executor, src, dst, ctx, schedule, round_t)
        cache.append(runner)
        # ping/pong plus one spare pair; older (stale-buffer) runners are
        # dropped so repeated run() calls cannot accumulate state
        del cache[:-4]
        return runner


# ======================================================================
# numpy engine: prebound instruction plans
# ======================================================================


class _NumpyFusedRunner:
    """Executes z-iterations by replaying prebound ufunc instructions.

    A *plan* (one per row span, built lazily on the thread that will run it
    so scratch comes from that thread's arena pool) maps each iteration key
    to a flat list of ``(fn, a, b, out)`` instructions plus an aggregate
    traffic record.  ``run_iteration`` replays the list — all slicing,
    region arithmetic, shell lookups and liveness reasoning happened once,
    at bind time.
    """

    def __init__(self, kernel, executor, src, dst, ctx, schedule, round_t):
        self.inner = kernel.inner
        self.src_data = src.data
        self.dst_data = dst.data
        self.schedule = schedule
        self.round_t = round_t
        self.radius = r = kernel.radius
        self.nz, self.ny, self.nx = src.shape
        (self.ey0, self.ey1), (self.ex0, self.ex1) = ctx.ey, ctx.ex
        self.eny = self.ey1 - self.ey0
        self.enx = self.ex1 - self.ex0
        self.esize = ctx.esize
        self.ops_per_update = kernel.ops_per_update
        self.shell = ctx.shell_planes
        self.rings = [ctx.rings.ring(t).data for t in range(round_t)]
        self.slots = ctx.rings.slots
        self.regions = executor.instance_regions(ctx, src.shape, round_t)
        iters = schedule.iterations()
        self.iteration_keys = sorted(iters)
        self._steps = {
            k: tuple((s.kind, s.t, s.z) for s in steps) for k, steps in iters.items()
        }
        # boundary-strip geometry (mirrors Blocking35D._fill_xy_strips)
        self.sy_lo = r - self.ey0 if self.ey0 < r else 0
        self.sy_hi = (self.ny - r) - self.ey0 if self.ey1 > self.ny - r else self.eny
        self.sx_lo = r - self.ex0 if self.ex0 < r else 0
        self.sx_hi = self.ex1 - (self.nx - r) if self.ex1 > self.nx - r else 0
        self.full_plane = (
            self.ey0 == 0
            and self.ey1 == self.ny
            and self.ex0 == 0
            and self.ex1 == self.nx
        )
        self.arena = kernel.arena
        self._plans: dict = {}
        inner = self.inner
        # Non-contractive kernels can amplify throwaway seam lanes past the
        # FP range round over round (see SevenPointStencil); suppress the
        # spurious warnings then.  np.errstate is not re-enterable, so a
        # fresh context is created per iteration when needed.
        self._suppress_fp = not getattr(inner, "_seam_contractive", False)
        self._impl = None
        if self.src_data.shape[0] == 1 and (
            self.src_data.flags.c_contiguous and self.dst_data.flags.c_contiguous
        ):
            if type(inner) is SevenPointStencil:
                self._impl = "7pt"
            elif type(inner) is TwentySevenPointStencil:
                self._impl = "27pt"
            elif type(inner) is GenericStencil:
                self._impl = "generic"
            elif type(inner) is VariableCoefficientStencil:
                self._impl = "varco"
            self._src2 = self.src_data[0]
            self._dst2 = self.dst_data[0]
            self._dstflat = self._dst2.reshape(self.nz, self.ny * self.nx)

    # -- plane views ----------------------------------------------------
    def _plane3(self, t: int, z: int) -> np.ndarray:
        """Plane ``z`` as read by instance ``t+1`` — ``(ncomp, eny, enx)``."""
        p = self.shell.get(z)
        if p is not None:
            return p
        return self.rings[t][z % self.slots]

    def _is_shell(self, z: int) -> bool:
        return z in self.shell

    def _rows_local(self, rows) -> tuple[int, int]:
        if rows is None:
            return 0, self.eny
        return (
            max(0, rows[0] - self.ey0),
            min(self.eny, rows[1] - self.ey0),
        )

    # ------------------------------------------------------------------
    def run_iteration(self, k: int, rows=None, traffic=None) -> None:
        plan = self._plans.get(rows)
        if plan is None:
            plan = self._plans[rows] = self._build_plan(rows)
        instrs, stats = plan
        ops = instrs.get(k)
        if ops:
            if self._suppress_fp:
                with np.errstate(all="ignore"):
                    for fn, a, b, out in ops:
                        fn(a, b, out)
            else:
                for fn, a, b, out in ops:
                    fn(a, b, out)
        if traffic is not None:
            rec = stats.get(k)
            if rec is not None:
                rb, rp, wb, wp, pts = rec
                if rb or rp:
                    traffic.read(rb, planes=rp)
                if wb or wp:
                    traffic.write(wb, planes=wp)
                if pts:
                    traffic.update(pts, self.ops_per_update)

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------
    def _build_plan(self, rows):
        instrs: dict[int, list] = {}
        stats: dict[int, tuple] = {}
        for k in self.iteration_keys:
            ops: list = []
            rb = rp = wb = wp = pts = 0
            for kind, t, z in self._steps[k]:
                if kind is StepKind.LOAD:
                    got = self._emit_load(ops, z, rows)
                    if got:
                        rb += got
                        rp += 1 if rows is None else 0
                elif kind is StepKind.STORE:
                    got = self._emit_store(ops, t, z, rows)
                    if got:
                        wb += got * self.esize
                        wp += 1
                        pts += got
                else:
                    pts += self._emit_compute(ops, t, z, rows)
            if ops:
                instrs[k] = ops
            if rb or wb or pts:
                stats[k] = (rb, rp, wb, wp, pts)
        return instrs, stats

    def _emit_load(self, ops, z, rows) -> int:
        if self._is_shell(z):
            return 0  # resident since _load_shell_planes
        ly0, ly1 = self._rows_local(rows)
        if ly0 >= ly1:
            return 0
        dst = self._plane3(0, z)[:, ly0:ly1, :]
        gy0, gy1 = self.ey0 + ly0, self.ey0 + ly1
        src = self.src_data[:, z, gy0:gy1, self.ex0 : self.ex1]
        ops.append((_copy, dst, src, None))
        return (ly1 - ly0) * self.enx * self.esize

    def _clip_region(self, t, rows):
        (gy0, gy1), (gx0, gx1) = self.regions[t]
        if rows is not None:
            gy0, gy1 = max(gy0, rows[0]), min(gy1, rows[1])
        return gy0, gy1, gx0, gx1

    def _emit_compute(self, ops, t, z, rows) -> int:
        """Ring-target stencil step plus its boundary-strip refresh."""
        gy0, gy1, gx0, gx1 = self._clip_region(t, rows)
        out3 = self.rings[t][z % self.slots]
        prev3 = self._plane3(t - 1, z)
        points = 0
        if gy0 < gy1:
            a0, a1 = gy0 - self.ey0, gy1 - self.ey0
            x0, x1 = gx0 - self.ex0, gx1 - self.ex0
            srcs = [
                self._plane3(t - 1, z + dz)
                for dz in range(-self.radius, self.radius + 1)
            ]
            self._emit_stencil(
                ops, out3, srcs, a0, a1, x0, x1, z, direct_seam=True
            )
            points = (gy1 - gy0) * (gx1 - gx0)
        self._emit_strips(ops, out3, prev3, rows)
        return points

    def _emit_store(self, ops, t, z, rows) -> int:
        gy0, gy1, gx0, gx1 = self._clip_region(t, rows)
        if gy0 >= gy1:
            return 0
        a0, a1 = gy0 - self.ey0, gy1 - self.ey0
        x0, x1 = gx0 - self.ex0, gx1 - self.ex0
        srcs = [
            self._plane3(t - 1, z + dz)
            for dz in range(-self.radius, self.radius + 1)
        ]
        if self.full_plane and self._impl is not None:
            # direct flat store: compute into the destination plane's own
            # rows, then restore the constant x-boundary columns the flat
            # seam lanes clobbered (the y-boundary rows are never written).
            self._emit_stencil(
                ops, None, srcs, a0, a1, x0, x1, z, direct_seam=False,
                dst_plane=z,
            )
            r = self.radius
            if r:
                ops.append((
                    _copy,
                    self._dst2[z, a0:a1, :r],
                    self._src2[z, a0:a1, :r],
                    None,
                ))
                ops.append((
                    _copy,
                    self._dst2[z, a0:a1, self.nx - r :],
                    self._src2[z, a0:a1, self.nx - r :],
                    None,
                ))
        else:
            out3 = self.dst_data[:, z, self.ey0 : self.ey1, self.ex0 : self.ex1]
            self._emit_region_stencil(ops, out3, srcs, a0, a1, x0, x1, z)
        return (gy1 - gy0) * (gx1 - gx0)

    def _emit_strips(self, ops, out3, prev3, rows) -> None:
        ly0, ly1 = self._rows_local(rows)
        if ly0 >= ly1:
            return
        if self.sy_lo:
            hi = min(self.sy_lo, ly1)
            if hi > ly0:
                ops.append((_copy, out3[:, ly0:hi, :], prev3[:, ly0:hi, :], None))
        if self.sy_hi < self.eny:
            lo = max(self.sy_hi, ly0)
            if ly1 > lo:
                ops.append((_copy, out3[:, lo:ly1, :], prev3[:, lo:ly1, :], None))
        if self.sx_lo:
            ops.append((
                _copy,
                out3[:, ly0:ly1, : self.sx_lo],
                prev3[:, ly0:ly1, : self.sx_lo],
                None,
            ))
        if self.sx_hi:
            ops.append((
                _copy,
                out3[:, ly0:ly1, -self.sx_hi :],
                prev3[:, ly0:ly1, -self.sx_hi :],
                None,
            ))

    # ------------------------------------------------------------------
    # stencil lowering (each mirrors the kernel's compute_plane(_inplace)
    # operand pairing exactly, so results stay bit-identical)
    # ------------------------------------------------------------------
    def _emit_stencil(self, ops, out3, srcs, a0, a1, x0, x1, z, *,
                      direct_seam, dst_plane=None):
        """Seam-tolerant target (ring plane, or the flat dst row span)."""
        impl = self._impl
        if impl is None:
            self._emit_fallback(
                ops, out3, srcs, a0, a1, x0, x1, z, seam=direct_seam
            )
            return
        if dst_plane is not None:
            oflat = self._dstflat[dst_plane]
        else:
            oflat = out3[0].reshape(-1)
        flats = [p[0].reshape(-1) for p in srcs]
        if impl == "7pt":
            self._lower_7pt(ops, oflat, flats, a0, a1)
        elif impl == "27pt":
            self._lower_27pt(ops, oflat, flats, a0, a1, x0, x1)
        elif impl == "generic":
            self._lower_generic(ops, oflat, flats, a0, a1, x0, x1)
        else:  # varco has no flat seam path; write the exact region
            target = (
                self.dst_data[:, dst_plane, self.ey0 : self.ey1, self.ex0 : self.ex1]
                if dst_plane is not None
                else out3
            )
            self._lower_varco(ops, target, srcs, a0, a1, x0, x1, z)

    def _emit_region_stencil(self, ops, out3, srcs, a0, a1, x0, x1, z):
        """Exact-region target (strided store view): 2-D lowering."""
        impl = self._impl
        if impl == "7pt":
            self._lower_7pt_2d(ops, out3, srcs, a0, a1, x0, x1)
        elif impl == "27pt":
            self._lower_27pt_2d(ops, out3, srcs, a0, a1, x0, x1)
        elif impl == "generic":
            self._lower_generic_2d(ops, out3, srcs, a0, a1, x0, x1)
        elif impl == "varco":
            self._lower_varco(ops, out3, srcs, a0, a1, x0, x1, z)
        else:
            self._emit_fallback(ops, out3, srcs, a0, a1, x0, x1, z, seam=False)

    def _emit_fallback(self, ops, out3, srcs, a0, a1, x0, x1, z, *, seam):
        """Any kernel: one prebound in-place call per step (t-loop fused)."""
        kernel, arena = self.inner, self.arena
        gy0, gx0 = self.ey0, self.ex0

        def step(out3=out3, srcs=srcs, yr=(a0, a1), xr=(x0, x1), z=z, seam=seam):
            kernel.compute_plane_inplace(
                out3, srcs, yr, xr, z, gy0, gx0, arena=arena, seam_writable=seam
            )

        ops.append((_invoke, step, None, None))

    # -- 7-point -------------------------------------------------------
    def _scratch(self, tag, n):
        return self.arena.get(tag, (n,), self.src_data.dtype)

    def _lower_7pt(self, ops, oflat, flats, a0, a1):
        nx = self.enx
        s, e = a0 * nx, a1 * nx
        fb, fm, fa = flats
        acc = oflat[s:e]
        tmp = self._scratch("fused.tmp", e - s)
        dtype = self.src_data.dtype.type
        alpha, beta = dtype(self.inner.alpha), dtype(self.inner.beta)
        ops += [
            (np.add, fb[s:e], fa[s:e], acc),
            (np.add, fm[s - nx : e - nx], fm[s + nx : e + nx], tmp),
            (np.add, acc, tmp, acc),
            (np.add, fm[s - 1 : e - 1], fm[s + 1 : e + 1], tmp),
            (np.add, acc, tmp, acc),
            (np.multiply, fm[s:e], alpha, tmp),
            (np.multiply, acc, beta, acc),
            (np.add, tmp, acc, acc),
        ]

    def _lower_7pt_2d(self, ops, out3, srcs, a0, a1, x0, x1):
        below, mid, above = (p[0] for p in srcs)
        ys, xs = slice(a0, a1), slice(x0, x1)
        shape = (a1 - a0, x1 - x0)
        acc = self.arena.get("fused.acc2d", shape, self.src_data.dtype)
        tmp = self.arena.get("fused.tmp2d", shape, self.src_data.dtype)
        dtype = self.src_data.dtype.type
        alpha, beta = dtype(self.inner.alpha), dtype(self.inner.beta)
        ops += [
            (np.add, below[ys, xs], above[ys, xs], acc),
            (np.add, mid[a0 - 1 : a1 - 1, xs], mid[a0 + 1 : a1 + 1, xs], tmp),
            (np.add, acc, tmp, acc),
            (np.add, mid[ys, x0 - 1 : x1 - 1], mid[ys, x0 + 1 : x1 + 1], tmp),
            (np.add, acc, tmp, acc),
            (np.multiply, mid[ys, xs], alpha, tmp),
            (np.multiply, acc, beta, acc),
            (np.add, tmp, acc, out3[0, ys, xs]),
        ]

    # -- 27-point ------------------------------------------------------
    def _lower_27pt(self, ops, oflat, flats, a0, a1, x0, x1):
        nx = self.enx
        s0 = a0 * nx + x0
        e0 = (a1 - 1) * nx + x1
        result = oflat[s0:e0]
        group = self._scratch("fused27.grp", e0 - s0)
        dtype = self.src_data.dtype.type
        inner = self.inner

        def window(dz, dy, dx):
            off = dy * nx + dx
            return flats[dz + 1][s0 + off : e0 + off]

        ops.append((np.multiply, window(0, 0, 0), dtype(inner.center), result))
        for offsets, w in (
            (_FACES, dtype(inner.face)),
            (_EDGES, dtype(inner.edge)),
            (_CORNERS, dtype(inner.corner)),
        ):
            ops.append((_copy, group, window(*offsets[0]), None))
            for off in offsets[1:]:
                ops.append((np.add, group, window(*off), group))
            ops.append((np.multiply, group, w, group))
            ops.append((np.add, result, group, result))

    def _lower_27pt_2d(self, ops, out3, srcs, a0, a1, x0, x1):
        dtype = self.src_data.dtype.type
        inner = self.inner
        shape = (a1 - a0, x1 - x0)
        group = self.arena.get("fused27.grp2d", shape, self.src_data.dtype)
        result = out3[0, a0:a1, x0:x1]

        def window(dz, dy, dx):
            return srcs[dz + 1][0][a0 + dy : a1 + dy, x0 + dx : x1 + dx]

        ops.append((np.multiply, window(0, 0, 0), dtype(inner.center), result))
        for offsets, w in (
            (_FACES, dtype(inner.face)),
            (_EDGES, dtype(inner.edge)),
            (_CORNERS, dtype(inner.corner)),
        ):
            ops.append((_copy, group, window(*offsets[0]), None))
            for off in offsets[1:]:
                ops.append((np.add, group, window(*off), group))
            ops.append((np.multiply, group, w, group))
            ops.append((np.add, result, group, result))

    # -- generic taps --------------------------------------------------
    def _lower_generic(self, ops, oflat, flats, a0, a1, x0, x1):
        nx = self.enx
        r = self.radius
        s0 = a0 * nx + x0
        e0 = (a1 - 1) * nx + x1
        acc = oflat[s0:e0]
        tmp = self._scratch("fusedg.tmp", e0 - s0)
        dtype = self.src_data.dtype.type
        inner = self.inner
        ops.append((_zero, acc, None, None))
        for dz, dy, dx in inner._order:
            w = dtype(inner.taps[(dz, dy, dx)])
            off = dy * nx + dx
            ops.append((np.multiply, flats[dz + r][s0 + off : e0 + off], w, tmp))
            ops.append((np.add, acc, tmp, acc))

    def _lower_generic_2d(self, ops, out3, srcs, a0, a1, x0, x1):
        r = self.radius
        dtype = self.src_data.dtype.type
        inner = self.inner
        tmp = self.arena.get(
            "fusedg.tmp2d", (a1 - a0, x1 - x0), self.src_data.dtype
        )
        acc = out3[0, a0:a1, x0:x1]
        ops.append((_zero, acc, None, None))
        for dz, dy, dx in inner._order:
            w = dtype(inner.taps[(dz, dy, dx)])
            window = srcs[dz + r][0][a0 + dy : a1 + dy, x0 + dx : x1 + dx]
            ops.append((np.multiply, window, w, tmp))
            ops.append((np.add, acc, tmp, acc))

    # -- variable coefficients ------------------------------------------
    def _lower_varco(self, ops, out3, srcs, a0, a1, x0, x1, z):
        inner = self.inner
        gy0, gy1 = self.ey0 + a0, self.ey0 + a1
        gx0, gx1 = self.ex0 + x0, self.ex0 + x1
        a_view = inner.alpha[z, gy0:gy1, gx0:gx1]
        b_view = inner.beta[z, gy0:gy1, gx0:gx1]
        below, mid, above = (p[0] for p in srcs)
        ys, xs = slice(a0, a1), slice(x0, x1)
        shape = (a1 - a0, x1 - x0)
        acc = self.arena.get("fusedv.acc", shape, self.src_data.dtype)
        tmp = self.arena.get("fusedv.tmp", shape, self.src_data.dtype)
        ops += [
            (np.add, below[ys, xs], above[ys, xs], acc),
            (np.add, acc, mid[a0 - 1 : a1 - 1, xs], acc),
            (np.add, acc, mid[a0 + 1 : a1 + 1, xs], acc),
            (np.add, acc, mid[ys, x0 - 1 : x1 - 1], acc),
            (np.add, acc, mid[ys, x0 + 1 : x1 + 1], acc),
            (np.multiply, a_view, mid[ys, xs], tmp),
            (np.multiply, b_view, acc, acc),
            (np.add, tmp, acc, out3[0, ys, xs]),
        ]
