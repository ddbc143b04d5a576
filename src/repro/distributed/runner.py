"""Distributed Jacobi driver: slab-decomposed 3.5D blocking over SimComm.

Per blocked round of ``round_t`` time steps:

1. **halo exchange** — every rank sends its ``h = R * round_t`` boundary
   planes to each neighbor and receives the matching ghost planes (one
   ``sendrecv`` pair per internal boundary per round);
2. **local compute** — each rank runs one 3.5D round (or ``round_t`` naive
   sweeps) on its ghost-augmented slab.  By the depth induction of
   :mod:`repro.core.periodic`, every owned plane sits at depth ``>= h``
   from the slab cuts and is therefore exact; stale values nearer the cut
   are discarded;
3. the owned slab is replaced by the augmented result's core.

The naive scheme exchanges width-R halos every time step; temporal blocking
sends the *same total volume* in ``1/dim_T`` as many messages — the
latency-term reduction that distributed temporal blocking exists for
(Wittmann et al., Section II), which `transfer_time` makes quantitative.

Every round runs through the nonblocking handles: every rank posts its
halo sends and receives up front (``isend``/``irecv``), and each rank
then waits on its ghost planes and computes.  **Comm/compute overlap**
(``overlap=True``, the default) takes the rest of the win: the round
becomes *post → interior → wait → boundary*.  Each rank first runs the
blocked round on the *interior* of its slab —
the part :func:`repro.core.regions.split_slab` proves computable from
owned planes alone (pulled in by ``h`` per cut side; physical boundaries
don't shrink).  Only then does it ``wait`` on the ghost planes and finish
the two boundary strips.  The interior sweep's wall time is reported to
the communicator's simulated clock, so the transfer time it covers is
counted as *hidden* (``CommStats.overlapped_ns``) and only the remainder
as an exposed stall — measured, not assumed.  Results are bit-identical
to the post → wait → compute schedule (and hence to the naive oracle): the
interior planes satisfy the same depth induction, and each strip's extent
lands entirely inside owned ∪ ghost planes.  ``overlap=False``, and a
slab too thin to leave an interior, take that post → wait → compute
schedule for the whole slab.

The driver is also **rank-failure tolerant** (``recover=True``).  Each
round starts with a buddy checkpoint — every rank replicates its
round-start slab in-memory to the next live rank — and a heartbeat probe
per rank (the ``rank.crash`` fault site).  A rank that dies is detected at
the next halo exchange (:class:`RankDeadError` from ``SimComm.recv``, not
a hang), and the run recovers instead of aborting:

    detect -> re-decompose -> buddy-restore -> replay

The surviving ranks rebuild the slab map over themselves
(:func:`decompose_z` with explicit rank ids), restore every round-start
slab from the :class:`~repro.resilience.rankrecovery.BuddyStore` (the dead
rank's from its buddy replica), purge the half-exchanged mail, and replay
the interrupted round — at most one blocked round of work is lost, and the
final field is bit-identical to a fault-free run because each round reads
only the full grid state of the previous one.  Every recovery is recorded
in :attr:`DistributedJacobi.recovery`, the ``resilience.*`` counters, and
a ``rank_recovery`` trace span.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.blocking35d import Blocking35D
from ..core.naive import run_naive
from ..core.regions import split_slab
from ..core.traffic import TrafficStats
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..resilience.rankrecovery import (
    BuddySnapshot,
    BuddyStore,
    RankDeadError,
    RecoveryReport,
    UnrecoverableRankFailureError,
    buddy_of,
)
from ..resilience.sdc import (
    SdcError,
    SdcGuard,
    SdcReport,
    SdcUnhealableError,
    inject_flips,
    plane_crcs,
)
from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D
from .comm import SimComm
from .decompose import Slab, decompose_z

__all__ = ["DistributedJacobi"]

_TAG_UP = 1  # planes travelling toward higher z
_TAG_DOWN = 2


class DistributedJacobi:
    """Slab-parallel Jacobi with per-round halo exchange.

    Parameters
    ----------
    kernel:
        Any :class:`PlaneKernel`; kernels with per-cell state must
        implement ``restricted_to``.
    n_ranks:
        Number of simulated ranks (Z slabs).
    dim_t:
        Temporal blocking factor; 1 reproduces the classic
        exchange-every-step scheme.
    scheme:
        ``"35d"`` runs a 3.5D round per exchange; ``"naive"`` runs plain
        sweeps (still ``dim_t`` per exchange — set ``dim_t=1`` for the
        classic baseline).
    recover:
        When True (default), rank failures are survived via buddy
        checkpoints and elastic re-decomposition; when False, the first
        dead rank surfaces as :class:`RankDeadError`.
    overlap:
        When True (default), each round runs post → interior → wait →
        boundary, hiding in-flight transfer time behind the interior
        sweep; when False, post → wait → compute.  Both produce
        bit-identical results.
    latency_s / bandwidth_bytes_s:
        The communicator's in-flight cost model (see :class:`SimComm`);
        with the default ``latency_s=0`` transfers are instantaneous and
        the hidden/exposed accounting stays zero.
    integrity:
        Silent-data-corruption tier (``off``/``spot``/``seal``/``full``,
        see :mod:`repro.resilience.sdc`).  Any active tier seals the
        gathered grid through an :class:`SdcGuard` (:attr:`sdc`) at the
        end of each round and verifies it at the top of the next —
        *before* the buddy checkpoint, so the snapshots stay clean — and
        the guard heals detected planes by replaying their propagation
        cone from the previous round's buddy snapshots (the in-memory
        "last sealed state").  ``seal`` and ``full`` additionally run the
        cross-rank halo handshake: each received ghost plane is
        checksummed against the guard's *seal-time* CRC, catching
        compute-side corruption of the
        boundary planes — distinct from the transport CRC inside
        :class:`SimComm`, which only covers the wire.  The
        ``memory.flip`` fault site fires per rank per round (detail
        ``"rank:round"``) after sealing.  Healing needs the buddy
        snapshots, i.e. ``recover=True`` and at least two live ranks.
    """

    def __init__(
        self,
        kernel: PlaneKernel,
        n_ranks: int,
        dim_t: int = 1,
        tile_y: int | None = None,
        tile_x: int | None = None,
        scheme: str = "35d",
        loss: float = 0.0,
        corruption: float = 0.0,
        comm_seed: int = 0,
        max_retries: int = 3,
        recover: bool = True,
        overlap: bool = True,
        latency_s: float = 0.0,
        bandwidth_bytes_s: float | None = None,
        integrity: str = "off",
        sdc_seed: int = 0,
        sdc_max_heals: int = 3,
    ) -> None:
        if scheme not in ("35d", "naive"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if dim_t < 1:
            raise ValueError("dim_t must be >= 1")
        #: the run's seal/verify/heal guard (validates the tier)
        self.sdc = SdcGuard(
            kernel, tier=integrity, seed=sdc_seed, max_heals=sdc_max_heals
        )
        self.kernel = kernel
        self.n_ranks = n_ranks
        self.dim_t = dim_t
        self.tile_y = tile_y
        self.tile_x = tile_x
        self.scheme = scheme
        # transport imperfection model, forwarded to SimComm: halo exchanges
        # survive injected/random drops via its ack/retry protocol
        self.loss = loss
        self.corruption = corruption
        self.comm_seed = comm_seed
        self.max_retries = max_retries
        self.recover = recover
        self.overlap = overlap
        self.latency_s = latency_s
        self.bandwidth_bytes_s = bandwidth_bytes_s
        self.integrity = integrity
        self.sdc_seed = sdc_seed
        self.sdc_report = self.sdc.report
        self.recovery = RecoveryReport(initial_ranks=n_ranks,
                                       final_ranks=n_ranks)

    # ------------------------------------------------------------------
    def run(
        self,
        field: Field3D,
        steps: int,
        traffic: TrafficStats | None = None,
    ) -> tuple[Field3D, SimComm]:
        """Advance ``field`` by ``steps``; returns (result, communicator).

        The communicator carries the per-rank message/byte statistics;
        :attr:`recovery` carries the rank-failure record of this run.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        r = self.kernel.radius
        halo = r * self.dim_t
        live = list(range(self.n_ranks))
        slabs = decompose_z(field.nz, len(live), halo, ranks=live)
        comm = SimComm(
            self.n_ranks,
            loss=self.loss,
            corruption=self.corruption,
            seed=self.comm_seed,
            max_retries=self.max_retries,
            latency_s=self.latency_s,
            bandwidth_bytes_s=self.bandwidth_bytes_s,
        )
        local = {s.rank: field.data[:, s.z0 : s.z1].copy() for s in slabs}
        buddies = BuddyStore()
        report = RecoveryReport(initial_ranks=self.n_ranks,
                                final_ranks=self.n_ranks)
        self.recovery = report
        guard = self.sdc
        guard.report = self.sdc_report = SdcReport(tier=self.integrity)
        guard.invalidate()
        # cone height of a seal-to-verify window = steps of the round that
        # produced the sealed state (the final round may be shorter)
        last_round_t = self.dim_t

        with TRACE.span("sweep", executor="distributed", steps=steps,
                        ranks=self.n_ranks, scheme=self.scheme):
            remaining = steps
            round_index = 0
            while remaining > 0:
                round_t = min(self.dim_t, remaining)
                # verify BEFORE the buddy checkpoint refreshes: the
                # snapshots are the trusted base the heal replays from, and
                # must stay the previous round's clean start state
                self._verify_seals(
                    slabs, local, comm, buddies, steps - remaining,
                    last_round_t,
                )
                if self.recover and len(live) > 1:
                    self._buddy_checkpoint(
                        live, slabs, local, buddies, round_index
                    )
                for rank in live:
                    comm.heartbeat(rank)
                if all(not comm.alive(rank) for rank in live):
                    raise UnrecoverableRankFailureError(
                        f"all {len(live)} remaining rank(s) crashed at round "
                        f"{round_index}"
                    )
                try:
                    with TRACE.span("round", index=round_index,
                                    round_t=round_t, ranks=len(live)):
                        self._run_round(
                            slabs, local, comm, round_t, traffic, field.nz
                        )
                except RankDeadError:
                    if not self.recover:
                        raise
                    live, slabs, local = self._recover(
                        field, live, slabs, comm, buddies, report,
                        round_index, halo,
                    )
                    # the replayed round rebinds every slab; the old seals
                    # describe state that no longer exists
                    guard.invalidate()
                    continue  # replay the interrupted round
                if guard.active:
                    guard.seal(_gather(slabs, local))
                    last_round_t = round_t
                    for s in slabs:
                        # the memory.flip probe fires per rank per round,
                        # AFTER sealing — an injected flip is in-window
                        inject_flips(
                            local[s.rank], rank=s.rank,
                            round_index=round_index, seed=self.sdc_seed,
                        )
                remaining -= round_t
                round_index += 1
            # flips landing after the final seal stay in-window
            self._verify_seals(
                slabs, local, comm, buddies, steps, last_round_t
            )

        report.buddy_bytes = buddies.bytes_replicated
        report.buddy_snapshots = buddies.snapshots
        report.final_ranks = len(live)
        gathered = _gather(slabs, local)
        assert comm.pending() == 0
        if METRICS.armed:
            METRICS.merge_comm(comm)
            METRICS.merge_recovery(report)
        return gathered, comm

    # ------------------------------------------------------------------
    def _buddy_checkpoint(
        self,
        live: list[int],
        slabs: list[Slab],
        local: dict[int, np.ndarray],
        buddies: BuddyStore,
        round_index: int,
    ) -> None:
        """Replicate every rank's round-start slab to its buddy (in memory).

        The slab arrays are never mutated in place by the round (each round
        rebinds ``local[rank]`` to a fresh array), so the owner's own copy
        can alias the live slab; only the buddy replica costs a copy —
        that copy is the modeled inter-rank transfer, counted in
        ``buddy_bytes`` rather than in the halo-exchange comm stats.
        """
        for s in slabs:
            buddies.checkpoint(
                BuddySnapshot(
                    owner=s.rank,
                    round_index=round_index,
                    z0=s.z0,
                    z1=s.z1,
                    data=local[s.rank],
                    meta={"scheme": self.scheme, "dim_t": self.dim_t},
                ),
                holder=buddy_of(s.rank, live),
            )

    def _recover(
        self,
        field: Field3D,
        live: list[int],
        slabs: list[Slab],
        comm: SimComm,
        buddies: BuddyStore,
        report: RecoveryReport,
        round_index: int,
        halo: int,
    ) -> tuple[list[int], list[Slab], dict[int, np.ndarray]]:
        """The recovery path: re-decompose, buddy-restore, ready to replay.

        Reconstructs the *round-start* global state from the buddy
        snapshots (survivors serve their own copies; each dead rank's slab
        comes from its buddy replica), rebuilds the slab map over the
        surviving rank ids, and purges the half-exchanged mail of the
        aborted round.  The caller then replays the round — at most one
        blocked round of compute is lost per failure.
        """
        dead_now = [rank for rank in live if not comm.alive(rank)]
        survivors = [rank for rank in live if comm.alive(rank)]
        with TRACE.span("rank_recovery", round=round_index,
                        dead=",".join(map(str, dead_now)),
                        survivors=len(survivors)):
            if not survivors:
                raise UnrecoverableRankFailureError(
                    f"no rank survived round {round_index}"
                )
            # round-start global state, slab by slab from the buddy store
            restored = np.empty_like(field.data)
            for s in slabs:
                snap = buddies.restore(s.rank, comm.alive)
                restored[:, s.z0 : s.z1] = snap.data
            try:
                new_slabs = decompose_z(
                    field.nz, len(survivors), halo, ranks=survivors
                )
            except ValueError as exc:
                raise UnrecoverableRankFailureError(
                    f"cannot re-decompose over {len(survivors)} surviving "
                    f"rank(s): {exc}"
                ) from exc
            new_local = {
                s.rank: restored[:, s.z0 : s.z1].copy() for s in new_slabs
            }
            purged = comm.purge()
            report.failed_ranks.extend((round_index, r) for r in dead_now)
            report.recoveries += 1
            report.replayed_rounds += 1
            report.purged_messages += purged
            report.final_ranks = len(survivors)
        return survivors, new_slabs, new_local

    # ------------------------------------------------------------------
    def _verify_seals(
        self,
        slabs: list[Slab],
        local: dict[int, np.ndarray],
        comm: SimComm,
        buddies: BuddyStore,
        done: int,
        round_t: int,
    ) -> None:
        """Verify the gathered grid against the guard's seals; heal through it.

        Mismatching planes are resting corruption of the previous round's
        output.  The guard replays their propagation cone from the trusted
        base: the round-start global state still held by the buddy
        snapshots (the caller runs this *before* :meth:`_buddy_checkpoint`
        refreshes them), restored only when a heal needs it.  Healed
        planes are scattered back into the slabs.
        """
        guard = self.sdc
        if guard.seals is None:
            return

        def base() -> Field3D:
            if not (self.recover and len(slabs) > 1 and buddies.snapshots):
                guard.report.unhealable += 1
                raise SdcUnhealableError(
                    f"corruption detected at step {done} but there is no "
                    "trusted base to heal from — buddy snapshots need "
                    "recover=True and at least two live ranks"
                )
            # digest-verified at restore
            return _gather(slabs, {
                s.rank: buddies.restore(s.rank, comm.alive).data
                for s in slabs
            })

        state = _gather(slabs, local)
        heals = guard.report.heals
        guard.verify_seals(state, done, base, done - round_t)
        if guard.report.heals > heals:
            for s in slabs:
                local[s.rank] = state.data[:, s.z0 : s.z1].copy()

    def _sdc_handshake(self, ghost: np.ndarray, sender: int,
                       z0: int) -> None:
        """Cross-rank halo handshake (``seal``/``full`` tiers).

        The received ghost planes are global planes ``z0 ..`` of the
        sender's slab and must reproduce the guard's *seal-time* CRCs of
        them — compute-side corruption of the boundary planes is caught at
        the receiver, which the transport CRC inside :class:`SimComm`
        (wire coverage only) cannot see.
        """
        seals = self.sdc.seals
        if self.integrity not in ("seal", "full") or seals is None:
            return
        report = self.sdc_report
        report.checks += 1
        if METRICS.armed:
            METRICS.inc("sdc.checks", 1)
        expect = seals[z0 : z0 + ghost.shape[1]]
        got = plane_crcs(ghost)
        bad = [i for i, (a, b) in enumerate(zip(got, expect)) if a != b]
        if not bad:
            return
        report.detections += 1
        report.detected_planes += len(bad)
        if METRICS.armed:
            METRICS.inc("sdc.detected", 1)
        with TRACE.span("sdc_detected", channel="handshake",
                        sender=sender, planes=len(bad)):
            pass
        raise SdcError(
            f"halo handshake failed: {len(bad)} ghost plane(s) received "
            f"from rank {sender} do not match its seal-time CRCs — "
            "compute-side corruption of the boundary planes"
        )

    # ------------------------------------------------------------------
    def _run_round(
        self,
        slabs: list[Slab],
        local: dict[int, np.ndarray],
        comm: SimComm,
        round_t: int,
        traffic: TrafficStats | None,
        nz: int,
    ) -> None:
        """One round: post → interior → wait → boundary (overlap on).

        Every live rank posts its halo sends *and* receives before anyone
        computes.  With ``overlap`` each rank then runs the blocked round
        on its slab interior (owned planes only, so no ghost needed),
        reports that sweep's wall time to the communicator's clock, waits
        on the ghost planes (``halo_wait`` — the failure-detection point),
        and finishes the two boundary strips.  Without ``overlap``, and
        for a slab too thin to leave an interior, the rank waits first and
        computes its whole ghost-augmented slab.
        """
        r = self.kernel.radius
        h = r * round_t
        comm.sync_clocks()  # round barrier: in-flight time starts here
        with TRACE.span("halo_exchange", phase="post", halo=h):
            for s in slabs:
                if not comm.alive(s.rank):
                    continue
                if s.hi_neighbor is not None:
                    comm.isend(s.rank, s.hi_neighbor, _TAG_UP,
                               local[s.rank][:, -h:])
                if s.lo_neighbor is not None:
                    comm.isend(s.rank, s.lo_neighbor, _TAG_DOWN,
                               local[s.rank][:, :h])
            recvs: dict[int, tuple] = {}
            for s in slabs:
                if not comm.alive(s.rank):
                    continue
                lo_req = (comm.irecv(s.lo_neighbor, s.rank, _TAG_UP)
                          if s.lo_neighbor is not None else None)
                hi_req = (comm.irecv(s.hi_neighbor, s.rank, _TAG_DOWN)
                          if s.hi_neighbor is not None else None)
                recvs[s.rank] = (lo_req, hi_req)
        for s in slabs:
            if not comm.alive(s.rank):
                continue
            lo_req, hi_req = recvs[s.rank]
            split = split_slab(s.z0, s.z1, nz, h, s.lo_cut, s.hi_cut)
            if (not self.overlap or split.interior is None
                    or s.owned < 2 * r + 1):
                self._compute_fused_from_handles(
                    s, local, comm, lo_req, hi_req, h, round_t, traffic
                )
                continue
            out = np.empty_like(local[s.rank])
            with TRACE.span("rank_compute", rank=s.rank, phase="interior"):
                t0 = time.perf_counter_ns()
                res = self._advance_local(
                    Field3D(local[s.rank]), s.z0, s.z1, round_t, traffic
                )
                comm.advance(s.rank, time.perf_counter_ns() - t0)
            ilo, ihi = split.interior.core
            out[:, ilo - s.z0 : ihi - s.z0] = \
                res.data[:, ilo - s.z0 : ihi - s.z0]
            with TRACE.span("halo_wait", rank=s.rank):
                lo_ghost = comm.wait(lo_req) if lo_req is not None else None
                hi_ghost = comm.wait(hi_req) if hi_req is not None else None
            if lo_ghost is not None:
                self._sdc_handshake(lo_ghost, s.lo_neighbor,
                                    s.z0 - lo_ghost.shape[1])
            if hi_ghost is not None:
                self._sdc_handshake(hi_ghost, s.hi_neighbor, s.z1)
            with TRACE.span("rank_compute", rank=s.rank, phase="boundary"):
                if split.lo_strip is not None:
                    self._compute_strip(out, split.lo_strip, s, local,
                                        lo_ghost, None, round_t, traffic)
                if split.hi_strip is not None:
                    self._compute_strip(out, split.hi_strip, s, local,
                                        None, hi_ghost, round_t, traffic)
            local[s.rank] = out

    def _compute_strip(
        self,
        out: np.ndarray,
        strip,
        s: Slab,
        local: dict[int, np.ndarray],
        lo_ghost: np.ndarray | None,
        hi_ghost: np.ndarray | None,
        round_t: int,
        traffic: TrafficStats | None,
    ) -> None:
        """Run one boundary strip and write its core planes into ``out``.

        The strip extent lies entirely inside owned ∪ ghost planes (see
        :func:`split_slab`), so the augmented strip field is a ghost +
        owned-slice concatenation and its blocked round is exact on the
        core by the usual depth induction.
        """
        (c0, c1), (e0, e1) = strip.core, strip.extent
        if lo_ghost is not None:  # low strip: ghost below + owned planes
            parts = [lo_ghost, local[s.rank][:, : e1 - s.z0]]
        else:  # high strip: owned planes + ghost above
            parts = [local[s.rank][:, e0 - s.z0 :], hi_ghost]
        aug = Field3D(np.concatenate(parts, axis=1))
        res = self._advance_local(aug, e0, e1, round_t, traffic)
        out[:, c0 - s.z0 : c1 - s.z0] = res.data[:, c0 - e0 : c1 - e0]

    def _compute_fused_from_handles(
        self,
        s: Slab,
        local: dict[int, np.ndarray],
        comm: SimComm,
        lo_req,
        hi_req,
        h: int,
        round_t: int,
        traffic: TrafficStats | None,
    ) -> None:
        """Wait, then compute the whole ghost-augmented slab.

        The no-overlap schedule, and the fallback for slabs with no
        interior.  No compute ran between post and wait, so the transfer
        time of these ghosts is fully exposed — correctly so, nothing was
        hidden.
        """
        parts = []
        zlo = s.z0
        with TRACE.span("halo_wait", rank=s.rank,
                        fallback="thin-slab" if self.overlap else "no-overlap"):
            if lo_req is not None:
                ghost = comm.wait(lo_req)
                self._sdc_handshake(ghost, s.lo_neighbor, s.z0 - h)
                parts.append(ghost)
                zlo = s.z0 - h
            parts.append(local[s.rank])
            zhi = s.z1
            if hi_req is not None:
                ghost = comm.wait(hi_req)
                self._sdc_handshake(ghost, s.hi_neighbor, s.z1)
                parts.append(ghost)
                zhi = s.z1 + h
        with TRACE.span("rank_compute", rank=s.rank, phase="fused"):
            aug = Field3D(np.concatenate(parts, axis=1))
            res = self._advance_local(aug, zlo, zhi, round_t, traffic)
            lo_off = s.z0 - zlo
            local[s.rank] = res.data[:, lo_off : lo_off + s.owned].copy()

    def _advance_local(
        self,
        aug: Field3D,
        zlo: int,
        zhi: int,
        round_t: int,
        traffic: TrafficStats | None,
    ) -> Field3D:
        kernel = self.kernel.restricted_to(zlo, zhi)
        if self.scheme == "35d":
            ty = self.tile_y or aug.ny
            tx = self.tile_x or aug.nx
            ex = Blocking35D(kernel, dim_t=round_t, tile_y=ty, tile_x=tx)
            return ex.run(aug, round_t, traffic)
        return run_naive(kernel, aug, round_t, traffic)

    # ------------------------------------------------------------------
    def expected_messages(self, nz: int, steps: int) -> int:
        """Messages a full run generates: 2 per internal boundary per round."""
        rounds = -(-steps // self.dim_t)
        return 2 * (self.n_ranks - 1) * rounds

    def expected_bytes(self, field: Field3D, steps: int) -> int:
        """Total exchanged payload: volume is dim_T-independent."""
        r = self.kernel.radius
        per_round_planes = r * self.dim_t
        rounds, rem = divmod(steps, self.dim_t)
        plane = field.ny * field.nx * field.element_size()
        total = 2 * (self.n_ranks - 1) * per_round_planes * plane * rounds
        if rem:
            total += 2 * (self.n_ranks - 1) * r * rem * plane
        return total


def _gather(slabs: list[Slab], parts: dict[int, np.ndarray]) -> Field3D:
    """The global grid: the ranks' slab arrays concatenated along Z."""
    return Field3D(np.concatenate([parts[s.rank] for s in slabs], axis=1))
