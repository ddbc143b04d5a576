"""Silent-data-corruption defense: cone-bounded detection + surgical healing.

Crashes, NaN/Inf and torn files are *loud*.  A bit flip that lands on a
mantissa bit is not: the value stays finite and plausible, every existing
guard passes, and in an iterative stencil the corruption spreads by the
stencil radius R per time step until it owns the grid.  This module makes
such flips (a) injectable, (b) detectable, and (c) *surgically* healable —
recomputing only the propagation cone around the corrupted planes instead
of restarting the run.

The detection and repair math is the paper's own Eq. 2 overestimation
region: after ``s`` time steps, a value can have influenced (or been
influenced by) cells at most ``h = R * s`` planes away, and a cut face of
a Z sub-extent leaves every plane at depth ``>= h`` bit-exact (physical
boundaries are exact at any depth — the constant shell never shrinks, see
:func:`repro.core.regions.compute_range`).  Two consequences:

* a plane corrupted at applied-step ``t`` and detected at ``t' >= t`` is
  reproducible from any trusted base at ``t0 <= t`` by replaying the
  plane's cone: the detected planes grown by ``R * (t' - t0)`` per cut
  side, clipped to the grid — :func:`repro.core.regions.loaded_extent` —
  and widened to the ``2R + 1`` planes the smallest sweep needs;
* the replay may use *any* rung of the bit-exact fallback ladder; this
  module uses the naive reference sweep (the ladder's bottom rung and the
  strongest oracle), so a healed grid is bit-identical to fault-free.

Integrity tiers (``JobSpec.integrity`` / ``repro run --verify``):

``off``
    nothing — the guard is a no-op and costs a branch per round.
``spot``
    per-plane CRC32 *seals* of the grid after every round, verified at
    the next round boundary (catches resting flips at exact plane
    granularity), plus a deterministic pseudo-random sample of Z bands
    re-executed from the last trusted state through the naive rung and
    compared bit-for-bit (catches compute-side SDC probabilistically).
``seal``
    ``spot`` plus the durable surfaces: checkpoint/buddy payload digests
    (always stamped; this tier *requires* them on load) and the
    cross-rank halo-plane checksum handshake in the distributed driver.
``full``
    ``seal`` with the sampled re-execution widened to the whole grid —
    every plane re-derived from the trusted base each round.  Detection
    is exhaustive; the cost is about one extra reference sweep per round
    (benchmarked in ``benchmarks/bench_sdc.py``).

The ``memory.flip`` fault site injects flips (``site=rank:round`` detail
grammar, budget = bit count); ``disk.bitrot`` rots a checkpoint payload
after it is fsynced.  ``repro chaos --target sdc``
(:mod:`repro.resilience.chaos`) drives seeded flip/bitrot schedules
through a guarded run and judges *no silent corruption*: every in-window
flip detected, every healed run bit-identical to the fault-free oracle.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.naive import run_naive
from ..core.regions import loaded_extent
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..stencils.grid import Field3D
from .faultinject import FAULTS, ResilienceError

__all__ = [
    "INTEGRITY_TIERS",
    "MAX_FLIPS_PER_PROBE",
    "SdcError",
    "SdcGuard",
    "SdcReport",
    "SdcUnhealableError",
    "data_digest",
    "flip_bits",
    "inject_flips",
    "plane_crcs",
    "rot_file",
]

#: the integrity ladder, weakest to strongest
INTEGRITY_TIERS = ("off", "spot", "seal", "full")

#: cap on bits flipped per probe point, so ``memory.flip:*`` (unlimited
#: budget) means "flip at every probe", not an unbounded drain loop
MAX_FLIPS_PER_PROBE = 64


class SdcError(ResilienceError):
    """Silent data corruption was detected (and could not be ignored)."""


class SdcUnhealableError(SdcError):
    """Corruption was detected but could not be surgically repaired:
    the heal budget is exhausted, no trusted base exists, or a healed
    plane still fails verification."""


# ----------------------------------------------------------------------
# primitives: seals, digests, flips, bitrot
# ----------------------------------------------------------------------

def plane_crcs(data: np.ndarray) -> list[int]:
    """CRC32 per Z plane of a ``(ncomp, nz, ny, nx)`` grid array."""
    return [
        zlib.crc32(np.ascontiguousarray(data[:, z]))
        for z in range(data.shape[1])
    ]


def data_digest(data: np.ndarray) -> str:
    """sha256 hex digest of an array's raw bytes (C order)."""
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(data)).hexdigest()


def flip_bits(data: np.ndarray, count: int, entropy) -> list[tuple]:
    """Flip ``count`` distinct low-order (mantissa) bits at deterministic
    pseudo-random positions; returns the ``(index, bit)`` list.

    Mantissa bits keep floats finite and *plausible* — exactly the flips
    no NaN/Inf health check can see.  Integer grids flip any bit below
    the sign bit.
    """
    rng = np.random.default_rng(entropy)
    if data.dtype == np.float64:
        view, bits = data.view(np.uint64), 52
    elif data.dtype == np.float32:
        view, bits = data.view(np.uint32), 23
    elif np.issubdtype(data.dtype, np.integer):
        view, bits = data, max(1, data.dtype.itemsize * 8 - 1)
    else:
        raise TypeError(f"cannot flip bits of dtype {data.dtype}")
    chosen: set[tuple] = set()
    flipped: list[tuple] = []
    for _ in range(count):
        while True:
            idx = tuple(int(rng.integers(0, s)) for s in data.shape)
            bit = int(rng.integers(0, bits))
            if (idx, bit) not in chosen:
                break
        chosen.add((idx, bit))
        view[idx] = view[idx] ^ view.dtype.type(1 << bit)
        flipped.append((idx, bit))
    return flipped


def inject_flips(
    data: np.ndarray,
    *,
    rank: int,
    round_index: int,
    seed: int = 0,
    detail: str | None = None,
    faults=FAULTS,
) -> int:
    """The ``memory.flip`` probe: one ``should`` drain per bit to flip.

    The probe detail is ``"rank:round"`` (single-process callers are rank
    0), so ``memory.flip=0:2:3`` means "three bits in rank 0's grid at
    the end of round 2" — the spec's ``:times`` budget *is* the bit
    count.  ``memory.flip:*`` (no arg) flips at every probe, capped at
    :data:`MAX_FLIPS_PER_PROBE` bits each.  Returns the bits flipped.
    """
    detail = f"{rank}:{round_index}" if detail is None else detail
    fired = 0
    for _ in range(MAX_FLIPS_PER_PROBE):
        if not faults.should("memory.flip", detail):
            break
        fired += 1
    if fired:
        flip_bits(data, fired, entropy=[abs(seed), rank, round_index])
    return fired


def rot_file(path, *, xor: int = 0x40) -> bool:
    """Corrupt one byte in the middle of ``path`` in place (disk bitrot).

    Deterministic (fixed offset, fixed XOR mask) so a rotted artifact is
    reproducible from the fault spec alone.  Returns False for an empty
    or unwritable file.
    """
    p = Path(path)
    try:
        size = p.stat().st_size
        if size == 0:
            return False
        offset = size // 2
        with open(p, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            if not byte:
                return False
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ xor]))
            fh.flush()
        return True
    except OSError:
        return False


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------

@dataclass
class SdcReport:
    """Machine-checkable record of one run's integrity activity."""

    tier: str = "off"
    #: verification events (seal verifies + re-execution checks)
    checks: int = 0
    #: planes CRC-sealed over the run
    sealed_planes: int = 0
    #: detection events / total planes found corrupt
    detections: int = 0
    detected_planes: int = 0
    #: surgical heals performed / cells recomputed for them (cone cells)
    heals: int = 0
    replayed_cells: int = 0
    #: cells recomputed purely for verification (band/full re-execution)
    verified_cells: int = 0
    #: applied-step counts at which detections occurred
    detected_at: list = field(default_factory=list)
    unhealable: int = 0

    @property
    def degraded(self) -> bool:
        """True when corruption was seen — the run finished, but not clean."""
        return self.detections > 0

    def lines(self) -> list[str]:
        """Human-readable summary lines (empty when nothing was detected)."""
        if not self.detections:
            return []
        return [
            f"sdc detected : {self.detections} event(s), "
            f"{self.detected_planes} plane(s), at step(s) "
            f"{', '.join(map(str, self.detected_at))}",
            f"sdc healed   : {self.heals} surgical repair(s), "
            f"{self.replayed_cells} cell(s) replayed "
            f"(tier {self.tier}, {self.checks} check(s))",
        ]


# ----------------------------------------------------------------------
# the guard
# ----------------------------------------------------------------------

class SdcGuard:
    """Per-run SDC detector/healer driven by GuardedSweep and the
    distributed driver (serve's ``verify`` is one more ``check_round``).

    The caller owns the trusted base (its last verified
    ``(good_state, good_done)`` pair — which by construction is refreshed
    *before* any corruption window opens) and drives three hooks per
    round.  ``good`` may also be a zero-argument callable returning the
    base: it is called only when a heal needs the base, so a caller whose
    base is costly to assemble (the distributed driver restores it from
    the buddy snapshots) pays nothing on clean rounds.

    ``verify_seals(state, done, good, good_done)``
        compare the grid against the CRC seals taken after the previous
        round; mismatching planes are resting corruption, healed by cone
        replay from the trusted base.  Call once more after the last
        round so flips landing after the final seal stay in-window.
    ``check_round(state, done, good, good_done, round_index)``
        re-execute Z bands from the trusted base through the naive
        reference rung and compare bit-for-bit (a pseudo-random sample
        at ``spot``/``seal``, every plane at ``full``); mismatches are
        compute-side corruption, healed from the same replay.
    ``seal(state)``
        CRC-seal the (now verified) grid for the next round's
        ``verify_seals``.

    Healing is *surgical*: only the detected planes grown by the
    ``R * (done - good_done)`` propagation cone are recomputed
    (:attr:`SdcReport.replayed_cells` counts them), and every heal is
    re-verified — a plane that still mismatches its seal, or a heal past
    ``max_heals``, raises :class:`SdcUnhealableError`.
    """

    def __init__(
        self,
        kernel,
        *,
        tier: str = "spot",
        seed: int = 0,
        sample_bands: int = 2,
        band_planes: int | None = None,
        max_heals: int = 3,
        report: SdcReport | None = None,
    ) -> None:
        if tier not in INTEGRITY_TIERS:
            raise ValueError(
                f"unknown integrity tier {tier!r}; known: "
                f"{', '.join(INTEGRITY_TIERS)}"
            )
        if sample_bands < 1:
            raise ValueError("sample_bands must be >= 1")
        if max_heals < 0:
            raise ValueError("max_heals must be >= 0")
        self.kernel = kernel
        self.tier = tier
        self.seed = seed
        self.sample_bands = sample_bands
        self.band_planes = band_planes
        self.max_heals = max_heals
        self.report = report if report is not None else SdcReport(tier=tier)
        self.report.tier = tier
        self._seals: list[int] | None = None

    @property
    def active(self) -> bool:
        return self.tier != "off"

    @property
    def seals(self) -> list[int] | None:
        """Per-plane CRCs of the last :meth:`seal` (None before it)."""
        return self._seals

    def invalidate(self) -> None:
        """Drop the seals (after a rollback/recovery rebinds the state)."""
        self._seals = None

    # -- sealing -------------------------------------------------------
    def seal(self, state: Field3D) -> None:
        """CRC-seal every plane of ``state`` for the next verify."""
        if not self.active:
            return
        self._seals = plane_crcs(state.data)
        self.report.sealed_planes += len(self._seals)

    def verify_seals(
        self, state: Field3D, done: int, good: Field3D, good_done: int
    ) -> Field3D:
        """Verify ``state`` against the last seals; heal any mismatch."""
        if not self.active or self._seals is None:
            return state
        self.report.checks += 1
        self._inc("sdc.checks", 1)
        crcs = plane_crcs(state.data)
        planes = [
            z for z, (a, b) in enumerate(zip(crcs, self._seals)) if a != b
        ]
        if not planes:
            return state
        self._detected(planes, done, channel="seal")
        self._heal(state, done, good, good_done, planes, reverify=True)
        return state

    # -- re-execution --------------------------------------------------
    def check_round(
        self,
        state: Field3D,
        done: int,
        good: Field3D,
        good_done: int,
        round_index: int,
    ) -> Field3D:
        """Re-execute bands from the trusted base and compare exactly."""
        if not self.active:
            return state
        s = done - good_done
        if s <= 0:
            return state
        self.report.checks += 1
        self._inc("sdc.checks", 1)
        nz = state.nz
        dirty = False
        if self.tier == "full":
            dirty = True  # exhaustive: always compare the full replay
        else:
            for core in self._bands(nz, round_index):
                replay, e0 = self._replay(good, core, s, nz)
                c0, c1 = core
                if not np.array_equal(
                    replay.data[:, c0 - e0 : c1 - e0], state.data[:, c0:c1]
                ):
                    dirty = True
                    break
        if not dirty:
            return state
        # derive (or at full tier, simply perform) the complete corrupted
        # set from one whole-grid replay, then patch surgically
        full, _ = self._replay(good, (0, nz), s, nz)
        planes = [
            z
            for z in range(nz)
            if not np.array_equal(full.data[:, z], state.data[:, z])
        ]
        if not planes:
            return state  # full tier, clean round
        self._detected(planes, done, channel="reexec")
        self._heal(
            state, done, good, good_done, planes, reverify=False,
            replay=full,
        )
        return state

    # -- internals -----------------------------------------------------
    def _bands(self, nz: int, round_index: int) -> list[tuple[int, int]]:
        """The deterministic pseudo-random Z-band sample for this round."""
        width = self.band_planes or max(1, nz // 8)
        starts = list(range(0, nz, width))
        bands = [(s0, min(s0 + width, nz)) for s0 in starts]
        rng = np.random.default_rng([abs(self.seed), round_index])
        take = min(self.sample_bands, len(bands))
        picked = rng.choice(len(bands), size=take, replace=False)
        return [bands[i] for i in sorted(int(i) for i in picked)]

    def _extent(self, core: tuple[int, int], nz: int, s: int):
        """The planes a replay of ``core`` over ``s`` steps loads: its
        propagation cone (:func:`loaded_extent`), widened inside the grid
        to the ``2R + 1`` planes the smallest sweep needs — a one-plane
        edge band replayed for one step would otherwise be too thin."""
        r = self.kernel.radius
        e0, e1 = loaded_extent(core, nz, r * s)
        e1 = min(nz, max(e1, e0 + 2 * r + 1))
        e0 = max(0, min(e0, e1 - (2 * r + 1)))
        return e0, e1

    def _replay(
        self, good: Field3D, core: tuple[int, int], s: int, nz: int
    ) -> tuple[Field3D, int]:
        """Re-derive ``core``'s planes from the trusted base via the naive
        rung; returns (replayed sub-field, its global z offset)."""
        e0, e1 = self._extent(core, nz, s)
        sub = Field3D(np.ascontiguousarray(good.data[:, e0:e1]))
        out = run_naive(self.kernel.restricted_to(e0, e1), sub, s)
        self.report.verified_cells += (
            (e1 - e0) * good.ny * good.nx * s
        )
        return out, e0

    def _detected(self, planes: list[int], done: int, channel: str) -> None:
        self.report.detections += 1
        self.report.detected_planes += len(planes)
        self.report.detected_at.append(done)
        self._inc("sdc.detected", 1)
        with TRACE.span(
            "sdc_detected", channel=channel, step=done, planes=len(planes)
        ):
            pass

    def _heal(
        self,
        state: Field3D,
        done: int,
        good: Field3D,
        good_done: int,
        planes: list[int],
        *,
        reverify: bool,
        replay: Field3D | None = None,
    ) -> None:
        """Cone-replay the detected planes from the trusted base and patch.

        ``replay`` short-circuits the recompute when the caller already
        holds a whole-grid replay (the re-execution channel) — the cone
        cells are still what :attr:`SdcReport.replayed_cells` charges,
        since that is what a standalone surgical heal costs.
        """
        if self.report.heals >= self.max_heals:
            self.report.unhealable += 1
            raise SdcUnhealableError(
                f"corruption detected at step {done} but the heal budget "
                f"({self.max_heals}) is exhausted — persistent corruption, "
                "restart from a checkpoint on trusted hardware"
            )
        s = done - good_done
        if s < 0:
            self.report.unhealable += 1
            raise SdcUnhealableError(
                f"corruption detected at step {done} with no trusted base "
                f"at or before it (base is at step {good_done})"
            )
        if callable(good):
            good = good()
        nz, ny, nx = state.shape
        z0, z1 = min(planes), max(planes) + 1
        e0, e1 = self._extent((z0, z1), nz, s) if s else (z0, z1)
        with TRACE.span(
            "sdc_heal", step=done, planes=len(planes), z0=z0, z1=z1,
            extent=e1 - e0, replay_steps=s,
        ):
            if s == 0:
                # resting corruption right at the base step: the base holds
                # the exact planes, no replay needed
                state.data[:, z0:z1] = good.data[:, z0:z1]
                cells = (z1 - z0) * ny * nx
            else:
                off = 0  # a caller-supplied replay covers the whole grid
                if replay is None:
                    replay, off = self._replay(good, (z0, z1), s, nz)
                    # _replay charged these cells to verification; they are
                    # heal work, move them over
                    self.report.verified_cells -= (e1 - e0) * ny * nx * s
                state.data[:, z0:z1] = replay.data[:, z0 - off : z1 - off]
                cells = (e1 - e0) * ny * nx * s
        self.report.heals += 1
        self.report.replayed_cells += cells
        self._inc("sdc.healed", 1)
        self._inc("sdc.replayed_cells", cells)
        if reverify and self._seals is not None:
            crcs = plane_crcs(state.data[:, z0:z1])
            bad = [
                z0 + i
                for i, crc in enumerate(crcs)
                if crc != self._seals[z0 + i]
            ]
            if bad:
                self.report.unhealable += 1
                raise SdcUnhealableError(
                    f"plane(s) {bad} still fail seal verification after a "
                    "surgical heal — the sealed state itself was corrupt"
                )

    @staticmethod
    def _inc(counter: str, amount: int) -> None:
        if METRICS.armed and amount:
            METRICS.inc(counter, amount)
