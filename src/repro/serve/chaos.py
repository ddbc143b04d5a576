"""Chaos soak for the serve daemon: seeded fault schedules, zero silent loss.

The daemon's contract is stronger than "doesn't crash": every accepted job
must reach a terminal status with an honest verdict, every *completed* job
must be bit-exact against the fault-free naive reference, and every
refused job must carry an explicit reason.  This soak earns that contract
the same way the distributed one earns the rank-recovery contract —
derive a random-but-reproducible fault schedule from a seed (accept drops,
worker stalls, journal tears, deadline storms, a mid-run hard kill with
restart-and-recover), run a batch of jobs through a real
:class:`~repro.serve.server.ServeCore` under it, and judge the wreckage.

This module holds the serve target's :func:`draw` and :func:`run`; the
case/result types, the oracle and the ``repro chaos`` loop are
:mod:`repro.resilience.chaos`'s.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from ..resilience.faultinject import FAULTS
from .protocol import JobSpec
from .server import ServeCore, grid_sha256

__all__ = ["draw", "run"]


def draw(case, rng, schedules) -> None:
    """Derive the serve fault schedule for ``case`` from its seeded ``rng``."""
    jobs = case.params["jobs"]
    kill_after = 0
    deadline_s: float | None = None
    if "accept" in schedules:
        after = int(rng.integers(0, jobs))
        case.specs.append("serve.accept" + (f"@{after}" if after else ""))
    if "stall" in schedules:
        times = int(rng.integers(1, 4))
        case.specs.append(f"serve.stall:{times}")
    if "journal" in schedules:
        # tear a non-commit record: "accepted" is exempt by design (the
        # fsync-before-reply commit point), so aim at progress/terminal
        # events — a torn "done" means the job re-runs on restart, which
        # recovery must absorb bit-exactly
        event = ("done", "requeued", "started")[int(rng.integers(0, 3))]
        case.specs.append(f"serve.journal={event}")
    if "deadline" in schedules:
        case.specs.append("serve.deadline")
        deadline_s = 30.0
    if "kill" in schedules:
        kill_after = int(rng.integers(2, max(3, jobs - 1)))
    # hard-kill the daemon after ``kill_after`` submissions, then restart
    # on the same state dir and recover (0 = no kill)
    case.params.update(kill_after=kill_after, deadline_s=deadline_s)


def run(case, oracle, timeout: float = 60.0):
    """One soak iteration: drive a job mix through a core under the schedule.

    Judgement: (a) every accepted job reaches a terminal status — across a
    hard kill + restart when the schedule includes one; (b) every completed
    (done/degraded) job's result hash equals the fault-free naive
    reference from ``oracle``; (c) every refused/shed/failed job carries a
    non-empty reason.  Deadline misses and injected accept-drops are
    *correct* outcomes, not failures — the soak fails only on silent loss,
    hangs, or wrong bits.
    """
    p = case.params
    rng = np.random.default_rng(case.seed)
    state_dir = tempfile.mkdtemp(prefix="repro-serve-chaos-")
    refused = 0
    error = None
    try:
        with FAULTS.injected(*case.specs):
            core = _new_core(case, state_dir)
            for i in range(p["jobs"]):
                spec = JobSpec(
                    kernel="7pt",
                    grid=case.grid,
                    steps=case.steps,
                    dim_t=case.dim_t,
                    tile=8,
                    seed=int(rng.integers(0, 3)),
                    priority=int(rng.integers(0, 3)),
                    tenant=f"t{int(rng.integers(0, 2))}",
                    deadline_s=p["deadline_s"],
                    verify=False,  # bit-exactness is judged against the oracle
                )
                reply = core.submit(spec.to_dict())
                if not reply.get("ok"):
                    refused += 1
                    if not reply.get("reason"):
                        error = f"refusal without a reason: {reply!r}"
                if p["kill_after"] and i + 1 == p["kill_after"]:
                    time.sleep(0.05)  # let some work start
                    core.kill()
                    core = _new_core(case, state_dir)
            if not _wait_all(core, timeout):
                error = error or "timeout: accepted jobs never drained"
            core.drain(timeout=timeout)
        records = core.jobs()
        completed = [r for r in records if r.status in ("done", "degraded")]
        hash_mismatches = sum(
            1 for r in completed
            if r.sha256 != grid_sha256(oracle(r.spec.seed).data)
        )
        missing_reasons = sum(
            1
            for r in records
            if r.status in ("failed", "shed", "cancelled") and not r.reason
        )
        non_terminal = sum(1 for r in records if not r.terminal)
        ledger_bad = core.ledger_reconciliation()
        if ledger_bad and error is None:
            error = "ledger/counter mismatch: " + "; ".join(ledger_bad)
        counts = {
            "submitted": p["jobs"],
            "accepted": len(records),
            "refused": refused,
            "completed": sum(1 for r in records if r.status == "done"),
            "degraded": sum(1 for r in records if r.status == "degraded"),
            "failed": sum(1 for r in records if r.status == "failed"),
            "shed": sum(1 for r in records if r.status == "shed"),
            "non_terminal": non_terminal,
            "hash_mismatches": hash_mismatches,
            "missing_reasons": missing_reasons,
            # billing-vs-metering disagreements on the surviving core (the
            # ledger and the counters are both per-core, so after a
            # kill+restart the reconciliation covers everything the
            # recovered core executed)
            "ledger_mismatches": len(ledger_bad),
            "recovered": core.counters["recovered"],
            "resumes": core.counters["resumes"],
            "quarantined_records": core.replay_info.get(
                "quarantined_records", 0
            ),
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    problems = [line for line in (
        non_terminal and f"{non_terminal} accepted job(s) never reached a "
        "terminal status",
        missing_reasons and f"{missing_reasons} refused/shed/failed job(s) "
        "carry no reason",
    ) if line]
    return error, hash_mismatches == 0, counts, problems


def _new_core(case, state_dir: str) -> ServeCore:
    core = ServeCore(
        state_dir,
        workers=case.params["workers"],
        queue_cap=case.params["queue_cap"],
        rate=1000.0,
        burst=1000.0,
        tenant_quota=case.params["jobs"] + 1,
        fsync=False,  # soak I/O; durability is exercised by the unit tests
    )
    core.start()
    return core


def _wait_all(core: ServeCore, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(r.terminal for r in core.jobs()):
            return True
        time.sleep(0.02)
    return False
