"""Chaos soak harness: seeded fault schedules, judged against a fault-free oracle.

The resilience layers each claim that any survivable fault schedule ends
in a correct result: rank recovery (buddy checkpoints + elastic
re-decomposition, see :mod:`repro.resilience.rankrecovery`), the SDC
defense (:mod:`repro.resilience.sdc`) and the serve daemon's crash-safe
job lifecycle.  A handful of hand-written tests cannot earn those claims;
a soak can.  Each seed derives a random-but-reproducible fault schedule,
runs the target under it, and compares the result bit-for-bit against a
fault-free serial naive run (the strongest possible oracle).  Every seed
is a complete repro recipe: the same seed always produces the same
schedule, the same recovery sequence, and the same (correct) bits.

One :class:`ChaosCase`/:class:`ChaosResult` pair serves every target; the
:data:`TARGETS` table holds, per target, its schedules and default grid,
its draw and run functions, and how ``repro chaos`` reports it:

``distributed``
    rank crashes, message loss, payload corruption and delayed acks
    against :class:`~repro.distributed.runner.DistributedJacobi`;
``sdc``
    seeded ``memory.flip``/``disk.bitrot`` schedules through a guarded
    3.5D run, judged on *no silent corruption*;
``serve``
    accept drops, worker stalls, journal tears, deadline storms and a
    hard kill against a :class:`~repro.serve.server.ServeCore` (draw and
    run live in :mod:`repro.serve.chaos`).

Entry points: :func:`make_case` (seed -> schedule) and :func:`run_case`
(one soak iteration); ``repro chaos`` loops them over seeds.  A failing
case can be dumped as a **repro bundle** (fault specs + trace JSON + case
metadata) via :func:`write_bundle` — the artifact CI uploads so a red soak
is debuggable offline.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .faultinject import FAULTS, ResilienceError

__all__ = [
    "TARGETS",
    "ChaosCase",
    "ChaosResult",
    "Target",
    "check_schedules",
    "make_case",
    "run_case",
    "write_bundle",
]


@dataclass
class ChaosCase:
    """One seeded soak iteration: the target, run shape and fault schedule."""

    target: str
    seed: int
    grid: int
    steps: int
    dim_t: int
    specs: list[str] = field(default_factory=list)
    #: the target's knobs and drawn schedule values (ranks, loss, tier, ...)
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        faults = ", ".join(self.specs) if self.specs else "no injected faults"
        return TARGETS[self.target].describe(self, faults)


@dataclass
class ChaosResult:
    """Outcome of one soak iteration, everything needed to judge and debug."""

    case: ChaosCase
    ok: bool
    bit_exact: bool
    error: str | None
    #: why the seed failed, one line each (empty when ``ok``)
    problems: list[str]
    #: the target's tallies (recoveries, flips detected, jobs done, ...)
    counts: dict
    elapsed_s: float

    def to_dict(self) -> dict:
        return asdict(self)  # recurses into the case


@dataclass(frozen=True)
class Target:
    """One ``repro chaos`` target: how to draw, run and report its cases."""

    #: every fault family the target's draw knows
    schedules: tuple[str, ...]
    #: default cubic grid side
    grid: int
    #: target knobs and their defaults (the CLI passes those it has flags for)
    knobs: dict
    #: ``(case, rng, schedules)``: appends ``case.specs``, fills ``case.params``
    draw: Callable
    #: ``(case, oracle) -> (error, bit_exact, counts, problems)``; ``oracle``
    #: maps a field seed to the fault-free naive result
    run: Callable
    #: ``(case, faults) ->`` the case's one-line description
    describe: Callable
    #: ``counts ->`` the tally shown on the seed's line
    detail: Callable
    #: CLI header, formatted with the parsed arguments
    header: str
    #: CLI flags besides ``--seeds`` that must be >= 1
    positive: tuple[str, ...]
    #: repro-bundle directory prefix
    bundle: str
    #: verdict when every seed passes
    clean: str


def check_schedules(target: str, names) -> tuple[str, ...]:
    """The non-empty ``names``, stripped; ValueError on a name ``target``
    does not know."""
    known = TARGETS[target].schedules
    names = tuple(n.strip() for n in names if n.strip())
    unknown = set(names) - set(known)
    if unknown:
        raise ValueError(
            f"unknown schedule(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(known)}"
        )
    return names


def make_case(
    seed: int,
    target: str = "distributed",
    *,
    grid: int | None = None,
    steps: int = 6,
    dim_t: int = 2,
    schedules=None,
    **knobs,
) -> ChaosCase:
    """Derive a deterministic fault schedule for ``target`` from ``seed``.

    ``schedules`` defaults to all of the target's families; ``knobs``
    override the target's defaults (``ranks`` for distributed; ``jobs``,
    ``workers``, ``queue_cap`` for serve; ``tier`` for sdc).
    """
    row = TARGETS[target]
    extra = set(knobs) - set(row.knobs)
    if extra:
        raise TypeError(
            f"{target} chaos has no knob(s) {', '.join(sorted(extra))}; "
            f"known: {', '.join(row.knobs)}"
        )
    schedules = check_schedules(
        target, row.schedules if schedules is None else schedules
    )
    case = ChaosCase(
        target=target, seed=seed, grid=grid or row.grid, steps=steps,
        dim_t=dim_t, params={**row.knobs, **knobs},
    )
    row.draw(case, np.random.default_rng(seed), schedules)
    return case


def run_case(case: ChaosCase, *, trace: bool = False) -> ChaosResult:
    """One soak iteration: run under the schedule, judge against the oracle.

    The oracle is the fault-free serial naive 7pt run of the case's seeded
    float32 field, computed here once per field seed (a serve case's jobs
    draw several).  ``trace=True`` arms the span tracer around the faulty
    run so a failure's recovery timeline can be exported into the repro
    bundle.
    """
    from ..core.naive import run_naive
    from ..obs.trace import TRACE
    from ..stencils.seven_point import SevenPointStencil

    refs: dict = {}

    def oracle(seed: int):
        if seed not in refs:
            refs[seed] = run_naive(
                SevenPointStencil(), _field(case.grid, seed), case.steps
            )
        return refs[seed]

    if trace:
        TRACE.arm()
    t0 = time.perf_counter()
    error, bit_exact, counts, problems = TARGETS[case.target].run(
        case, oracle
    )
    elapsed = time.perf_counter() - t0
    lines = [error] if error else []
    if not (error or bit_exact):
        lines.append("result differs from the fault-free reference")
    lines += problems
    return ChaosResult(
        case=case, ok=not lines, bit_exact=bit_exact, error=error,
        problems=lines, counts=counts, elapsed_s=elapsed,
    )


def write_bundle(result: ChaosResult, directory) -> Path:
    """Dump a failing seed's repro bundle; returns the bundle directory.

    The bundle is ``<directory>/<prefix>-<seed>`` with the target's
    prefix.  Contents: ``case.json`` (the full result, including the fault
    specs that reproduce the failure), ``faults.txt`` (the
    ``$REPRO_FAULTS`` value to re-arm the schedule by hand), and — when
    the tracer was armed during the run — ``trace.json`` with the
    recovery spans.
    """
    from ..obs.export import write_chrome_trace
    from ..obs.trace import TRACE

    prefix = TARGETS[result.case.target].bundle
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


def _field(grid: int, seed: int):
    """The seeded float32 cube every case (and every serve job) starts from."""
    from ..stencils.grid import Field3D

    return Field3D.random((grid,) * 3, dtype=np.float32, seed=seed)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# distributed: rank crash / message loss / corruption / delayed acks
# ----------------------------------------------------------------------

def _draw_distributed(case: ChaosCase, rng, schedules) -> None:
    """``crash`` kills one uniformly-chosen rank at a uniformly-chosen
    round (via the ``rank.crash`` heartbeat site — always a *survivable*
    single failure, the buddy scheme's design point); ``loss``/
    ``corruption`` draw per-message probabilities for the transport;
    ``delay`` arms a burst of delayed acks."""
    ranks = case.params["ranks"]
    rounds = -(-case.steps // case.dim_t)
    loss = corruption = 0.0
    if "crash" in schedules and ranks >= 2:
        victim = int(rng.integers(0, ranks))
        when = int(rng.integers(0, rounds))
        case.specs.append(
            f"rank.crash={victim}" + (f"@{when}" if when else "")
        )
    if "loss" in schedules:
        loss = round(float(rng.uniform(0.02, 0.15)), 3)
    if "corruption" in schedules:
        corruption = round(float(rng.uniform(0.02, 0.10)), 3)
    if "delay" in schedules:
        times = int(rng.integers(1, 4))
        after = int(rng.integers(0, 6))
        case.specs.append(
            f"comm.delay:{times}" + (f"@{after}" if after else "")
        )
    # mostly soak the overlapped schedule (crashes detected mid-wait, with
    # handles pending); 1-in-5 cases keep the no-overlap path covered too
    overlap = bool(rng.random() < 0.8)
    latency_s = round(float(rng.uniform(1e-6, 1e-4)), 9)
    case.params.update(loss=loss, corruption=corruption, overlap=overlap,
                       latency_s=latency_s)


def _run_distributed(case: ChaosCase, oracle):
    from ..distributed.runner import DistributedJacobi
    from ..stencils.seven_point import SevenPointStencil

    p = case.params
    runner = DistributedJacobi(
        SevenPointStencil(),
        p["ranks"],
        dim_t=case.dim_t,
        loss=p["loss"],
        corruption=p["corruption"],
        comm_seed=case.seed,
        max_retries=64,  # lossy links must exhaust probabilistically never
        overlap=p["overlap"],
        latency_s=p["latency_s"],
    )
    error = out = comm = None
    try:
        with FAULTS.injected(*case.specs):
            out, comm = runner.run(_field(case.grid, case.seed), case.steps)
    except ResilienceError as exc:
        error = _error(exc)
    total = comm.total_stats() if comm is not None else None
    rep = runner.recovery
    counts = {
        "recoveries": rep.recoveries,
        "replayed_rounds": rep.replayed_rounds,
        "failed_ranks": list(rep.failed_ranks),
        "comm_retries": total.retries if total else 0,
        "comm_dropped": total.dropped if total else 0,
        "comm_corrupted": total.corrupted if total else 0,
        "comm_delayed": total.delayed if total else 0,
    }
    bit_exact = out is not None and bool(
        np.array_equal(out.data, oracle(case.seed).data)
    )
    return error, bit_exact, counts, []


# ----------------------------------------------------------------------
# sdc: memory.flip / disk.bitrot, no silent corruption
# ----------------------------------------------------------------------

def _draw_sdc(case: ChaosCase, rng, schedules) -> None:
    """``flip`` draws 1-2 probe rounds (each with 1-3 bits) over the run's
    rounds; ``bitrot`` rots the *last* checkpoint written, so the post-run
    restore attempt must refuse it."""
    from .sdc import INTEGRITY_TIERS

    tier = case.params["tier"]
    if tier not in INTEGRITY_TIERS or tier == "off":
        raise ValueError(f"sdc chaos needs an active tier, not {tier!r}")
    rounds = -(-case.steps // case.dim_t)
    # rounds at which flip probes fire (every one is in-window: the
    # guard's final seal verify covers flips after the last round)
    flip_rounds: list[int] = []
    if "flip" in schedules:
        n_probes = int(rng.integers(1, 3))
        chosen = sorted(
            int(r)
            for r in rng.choice(rounds, size=min(n_probes, rounds),
                                replace=False)
        )
        for rnd in chosen:
            bits = int(rng.integers(1, 4))
            case.specs.append(f"memory.flip=0:{rnd}:{bits}")
            flip_rounds.append(rnd)
    bitrot = False
    saves = rounds - 1  # checkpoint_every=1 skips the final round
    if "bitrot" in schedules and saves >= 1:
        bitrot = True
        at = saves - 1
        case.specs.append("disk.bitrot" + (f"@{at}" if at else ""))
    case.params.update(flip_rounds=flip_rounds, bitrot=bitrot)


def _run_sdc(case: ChaosCase, oracle):
    """A guarded 3.5D run under the schedule.  Beyond finishing bit-exact
    (healed corruption is fine, that is the point): at tier ``full`` every
    flip probe-round must be detected (lower tiers report their rate), and
    a rotted checkpoint must be refused at restore, never silently
    trusted."""
    import shutil
    import tempfile

    from ..core.blocking35d import Blocking35D
    from ..stencils.seven_point import SevenPointStencil
    from .checkpoint import CheckpointError, CheckpointStore
    from .report import RunReport
    from .sdc import SdcReport
    from .watchdog import GuardedSweep

    tier = case.params["tier"]
    state_dir = tempfile.mkdtemp(prefix="repro-sdc-chaos-")
    store = CheckpointStore(Path(state_dir) / "sdc-chaos.npz")
    error = out = None
    report = RunReport()
    fired_before = len(FAULTS.fired)
    try:
        ex = Blocking35D(
            SevenPointStencil(), dim_t=case.dim_t, tile_y=case.grid,
            tile_x=case.grid,
        )
        guard = GuardedSweep(
            ex,
            round_steps=case.dim_t,
            sdc=tier,
            sdc_seed=case.seed,
            checkpoint=store,
            checkpoint_every=1,
            report=report,
        )
        try:
            with FAULTS.injected(*case.specs):
                out = guard.run(_field(case.grid, case.seed), case.steps)
        except ResilienceError as exc:
            error = _error(exc)
        flips = [
            detail
            for site, detail in FAULTS.fired[fired_before:]
            if site == "memory.flip"
        ]
        bitrot_detected: bool | None = None
        if case.params["bitrot"]:
            # the last snapshot written was rotted on disk; restoring it
            # must fail loudly (digest/quarantine), never silently succeed
            try:
                bitrot_detected = store.load() is None  # quarantined
            except CheckpointError:
                bitrot_detected = True
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    sdc = report.sdc if report.sdc is not None else SdcReport(tier=tier)
    rounds_fired = len(set(flips))
    problems = []
    if tier == "full" and sdc.detections < rounds_fired:
        problems.append(
            f"{rounds_fired - sdc.detections} flip round(s) went undetected"
        )
    if bitrot_detected is False:
        problems.append("a rotted checkpoint was restored as trusted")
    counts = {
        "flips_fired": len(flips),
        "flip_rounds_fired": rounds_fired,
        "detections": sdc.detections,
        "heals": sdc.heals,
        "replayed_cells": sdc.replayed_cells,
        "checks": sdc.checks,
        # None when the schedule drew no bitrot; else "did the store
        # refuse the rotted snapshot instead of silently restoring it"
        "bitrot_detected": bitrot_detected,
    }
    bit_exact = out is not None and bool(
        np.array_equal(out.data, oracle(case.seed).data)
    )
    return error, bit_exact, counts, problems


def _serve(name: str) -> Callable:
    """``repro.serve.chaos.<name>``, imported at first call so loading
    this module never pulls in the serve stack."""

    def call(*args):
        from ..serve import chaos

        return getattr(chaos, name)(*args)

    return call


_BITROT = {None: "", True: ", bitrot refused", False: ", BITROT TRUSTED"}

#: every ``repro chaos`` target, by ``--target`` name
TARGETS: dict[str, Target] = {
    "distributed": Target(
        schedules=("crash", "loss", "corruption", "delay"),
        grid=24,
        knobs={"ranks": 4},
        draw=_draw_distributed,
        run=_run_distributed,
        describe=lambda c, faults: (
            f"seed {c.seed}: {c.params['ranks']} ranks, {c.grid}^3 x "
            f"{c.steps} steps (dim_T={c.dim_t}); {faults}; "
            f"loss={c.params['loss']} corruption={c.params['corruption']}; "
            f"{'overlap' if c.params['overlap'] else 'no overlap'}"
            f" latency={c.params['latency_s']}"
        ),
        detail=lambda n: (
            f"{n['recoveries']} recoveries, {n['comm_retries']} retries, "
            f"{n['comm_dropped']} dropped, {n['comm_corrupted']} corrupted, "
            f"{n['comm_delayed']} delayed"
        ),
        header="chaos soak   : {seeds} seed(s), {ranks} ranks, ",
        positive=("ranks",),
        bundle="seed",
        clean="bit-exact",
    ),
    "serve": Target(
        schedules=("accept", "stall", "journal", "deadline", "kill"),
        grid=12,
        knobs={"jobs": 12, "workers": 2, "queue_cap": 6},
        draw=_serve("draw"),
        run=_serve("run"),
        describe=lambda c, faults: (
            f"seed {c.seed}: {c.params['jobs']} jobs of {c.grid}^3 x "
            f"{c.steps} steps (dim_T={c.dim_t}), {c.params['workers']} "
            f"workers, queue {c.params['queue_cap']}; {faults}"
            + (f"; kill after {c.params['kill_after']} submits"
               if c.params["kill_after"] else "")
        ),
        detail=lambda n: (
            f"{n['accepted']} accepted, {n['refused']} refused, "
            f"{n['completed']} done, {n['degraded']} degraded, "
            f"{n['failed']} failed, {n['recovered']} recovered, "
            f"{n['quarantined_records']} quarantined"
        ),
        header="serve soak   : {seeds} seed(s), {jobs} jobs of ",
        positive=(),
        bundle="serve-seed",
        clean="clean (no silent loss, completed jobs bit-exact)",
    ),
    "sdc": Target(
        schedules=("flip", "bitrot"),
        grid=20,
        knobs={"tier": "full"},
        draw=_draw_sdc,
        run=_run_sdc,
        describe=lambda c, faults: (
            f"seed {c.seed}: {c.grid}^3 x {c.steps} steps "
            f"(dim_T={c.dim_t}), tier {c.params['tier']}; {faults}"
        ),
        detail=lambda n: (
            f"{n['flips_fired']} flip(s), {n['detections']} detected, "
            f"{n['heals']} healed, {n['replayed_cells']} cells replayed, "
            f"{n['checks']} checks{_BITROT[n['bitrot_detected']]}"
        ),
        header="sdc soak     : {seeds} seed(s), tier {tier}, ",
        positive=(),
        bundle="sdc-seed",
        clean="clean (every flip detected, healed runs bit-exact)",
    ),
}
