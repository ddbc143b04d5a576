"""Chaos soak harness: randomized seeded fault schedules, bit-exact or bust.

The rank-recovery path (buddy checkpoints + elastic re-decomposition, see
:mod:`repro.resilience.rankrecovery`) claims that *any* survivable fault
schedule yields a final field bit-identical to the fault-free run.  A
handful of hand-written tests cannot earn that claim; a soak can: this
module derives a random-but-reproducible fault schedule from a seed —
rank crashes, message loss, payload corruption, delayed acks — runs the
distributed driver under it, and compares the result bit-for-bit against
a fault-free naive reference.  Every seed is a complete repro recipe: the
same seed always produces the same schedule, the same recovery sequence,
and the same (correct) bits.

Entry points: :func:`make_case` (seed -> schedule) and :func:`run_case`
(one soak iteration); ``repro chaos`` loops them over seeds, for this
target and the serve and SDC ones.  A failing case of any soak can be
dumped as a **repro bundle** (fault specs + trace JSON + case metadata)
via :func:`write_bundle` — the artifact CI uploads so a red soak is
debuggable offline.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .faultinject import FAULTS, ResilienceError

__all__ = [
    "SCHEDULES",
    "ChaosCase",
    "ChaosResult",
    "make_case",
    "run_case",
    "write_bundle",
]

#: every fault family the schedule generator knows how to draw
SCHEDULES = ("crash", "loss", "corruption", "delay")


@dataclass
class ChaosCase:
    """One seeded soak iteration: the run shape plus its fault schedule."""

    seed: int
    ranks: int
    grid: int
    steps: int
    dim_t: int
    specs: list[str] = field(default_factory=list)
    loss: float = 0.0
    corruption: float = 0.0
    #: run the overlapped (post -> interior -> wait -> boundary) schedule,
    #: so crashes land mid-``wait`` and soak the pending-handle purge path
    overlap: bool = True
    latency_s: float = 0.0

    def describe(self) -> str:
        faults = ", ".join(self.specs) if self.specs else "no injected faults"
        return (
            f"seed {self.seed}: {self.ranks} ranks, {self.grid}^3 x "
            f"{self.steps} steps (dim_T={self.dim_t}); {faults}; "
            f"loss={self.loss} corruption={self.corruption}; "
            f"{'overlap' if self.overlap else 'no overlap'}"
            f" latency={self.latency_s}"
        )


@dataclass
class ChaosResult:
    """Outcome of one soak iteration, everything needed to judge and debug."""

    case: ChaosCase
    ok: bool
    bit_exact: bool
    error: str | None
    recoveries: int
    replayed_rounds: int
    failed_ranks: list
    comm_retries: int
    comm_dropped: int
    comm_corrupted: int
    comm_delayed: int
    elapsed_s: float

    def to_dict(self) -> dict:
        return asdict(self)  # recurses into the case


def make_case(
    seed: int,
    *,
    ranks: int = 4,
    grid: int = 24,
    steps: int = 6,
    dim_t: int = 2,
    schedules: tuple[str, ...] = SCHEDULES,
) -> ChaosCase:
    """Derive a deterministic fault schedule from ``seed``.

    ``crash`` kills one uniformly-chosen rank at a uniformly-chosen round
    (via the ``rank.crash`` heartbeat site — always a *survivable* single
    failure, the buddy scheme's design point); ``loss``/``corruption``
    draw per-message probabilities for the transport; ``delay`` arms a
    burst of delayed acks.  Unknown schedule names raise ``ValueError``.
    """
    unknown = set(schedules) - set(SCHEDULES)
    if unknown:
        raise ValueError(
            f"unknown chaos schedule(s) {sorted(unknown)}; "
            f"known: {', '.join(SCHEDULES)}"
        )
    rng = np.random.default_rng(seed)
    rounds = -(-steps // dim_t)
    specs: list[str] = []
    loss = corruption = 0.0
    if "crash" in schedules and ranks >= 2:
        victim = int(rng.integers(0, ranks))
        when = int(rng.integers(0, rounds))
        specs.append(f"rank.crash={victim}" + (f"@{when}" if when else ""))
    if "loss" in schedules:
        loss = round(float(rng.uniform(0.02, 0.15)), 3)
    if "corruption" in schedules:
        corruption = round(float(rng.uniform(0.02, 0.10)), 3)
    if "delay" in schedules:
        times = int(rng.integers(1, 4))
        after = int(rng.integers(0, 6))
        specs.append(f"comm.delay:{times}" + (f"@{after}" if after else ""))
    # mostly soak the overlapped schedule (crashes detected mid-wait, with
    # handles pending); 1-in-5 cases keep the fused path covered too
    overlap = bool(rng.random() < 0.8)
    latency_s = round(float(rng.uniform(1e-6, 1e-4)), 9)
    return ChaosCase(
        seed=seed, ranks=ranks, grid=grid, steps=steps, dim_t=dim_t,
        specs=specs, loss=loss, corruption=corruption,
        overlap=overlap, latency_s=latency_s,
    )


def run_case(case: ChaosCase, *, trace: bool = False) -> ChaosResult:
    """One soak iteration: run under the schedule, verify bit-exactness.

    The reference is a fault-free serial naive run of the same field and
    step count — the strongest possible oracle.  ``trace=True`` arms the
    span tracer around the faulty run so a failure's recovery timeline can
    be exported into the repro bundle.
    """
    from ..core.naive import run_naive
    from ..distributed.runner import DistributedJacobi
    from ..obs.trace import TRACE
    from ..stencils.grid import Field3D
    from ..stencils.seven_point import SevenPointStencil

    kernel = SevenPointStencil()
    shape = (case.grid,) * 3
    fld = Field3D.random(shape, dtype=np.float32, seed=case.seed)
    ref = run_naive(kernel, fld, case.steps)

    runner = DistributedJacobi(
        kernel,
        case.ranks,
        dim_t=case.dim_t,
        loss=case.loss,
        corruption=case.corruption,
        comm_seed=case.seed,
        max_retries=64,  # lossy links must exhaust probabilistically never
        overlap=case.overlap,
        latency_s=case.latency_s,
    )
    error = None
    out = comm = None
    if trace:
        TRACE.arm()
    t0 = time.perf_counter()
    try:
        with FAULTS.injected(*case.specs):
            out, comm = runner.run(fld, case.steps)
    except ResilienceError as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0

    bit_exact = out is not None and bool(np.array_equal(out.data, ref.data))
    total = comm.total_stats() if comm is not None else None
    rep = runner.recovery
    return ChaosResult(
        case=case,
        ok=error is None and bit_exact,
        bit_exact=bit_exact,
        error=error,
        recoveries=rep.recoveries,
        replayed_rounds=rep.replayed_rounds,
        failed_ranks=list(rep.failed_ranks),
        comm_retries=total.retries if total else 0,
        comm_dropped=total.dropped if total else 0,
        comm_corrupted=total.corrupted if total else 0,
        comm_delayed=total.delayed if total else 0,
        elapsed_s=elapsed,
    )


def write_bundle(result, directory, prefix: str = "seed") -> Path:
    """Dump a failing seed's repro bundle; returns the bundle directory.

    Serves every soak (distributed, serve, SDC): ``result`` is any soak
    result with ``to_dict()`` and a ``case`` carrying ``seed`` and
    ``specs``; the bundle is ``<directory>/<prefix>-<seed>``.  Contents:
    ``case.json`` (the full result, including the fault specs that
    reproduce the failure), ``faults.txt`` (the ``$REPRO_FAULTS`` value
    to re-arm the schedule by hand), and — when the tracer was armed
    during the run — ``trace.json`` with the recovery spans.
    """
    from ..obs.export import write_chrome_trace
    from ..obs.trace import TRACE

    bundle = Path(directory) / f"{prefix}-{result.case.seed}"
    bundle.mkdir(parents=True, exist_ok=True)
    with open(bundle / "case.json", "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(bundle / "faults.txt", "w", encoding="utf-8") as fh:
        fh.write(",".join(result.case.specs) + "\n")
    if TRACE.armed or TRACE.events():
        write_chrome_trace(str(bundle / "trace.json"))
    return bundle
