"""Guarded sweep execution: health checks, retry, repair, checkpoints.

:class:`GuardedSweep` wraps any executor with a ``run(field, steps[,
traffic])`` method (the blocking executors, the threaded 3.5D executor, or
a plain function adapter) and drives it **round by round** — chunks of
``round_steps`` time steps, the executor's natural ``dim_T`` granularity.
Driving rounds externally is bit-exact (each round reads only the full
grid state of the previous one) and is what makes the guards possible:

* after every round the grid is health-checked for NaN/Inf; the ``health``
  policy decides whether a poisoned grid raises
  (:class:`HealthCheckError`), warns and continues, or **repairs** — rolls
  back to the last good state and re-executes the rounds since;
* a round that *raises* a transient error (an injected fault, a flaky
  backend) is retried up to ``max_retries`` times with exponential
  backoff before :class:`SweepRetriesExhaustedError` surfaces the original
  exception;
* every ``checkpoint_every`` rounds the state is snapshotted atomically to
  a :class:`~repro.resilience.checkpoint.CheckpointStore`, and ``run``
  resumes from a matching snapshot — the crash/restart path of long sweeps;
* a round boundary verifies the integrity seals *before* it asks the
  ``stop`` hook, so an interrupt only ever checkpoints a verified grid.

It is the one round driver of single-process sweeps: ``repro run``, the
SDC soak and the serve daemon's workers (through ``stop`` and ``meter``).

The ``grid.nan`` fault site fires here (poisoning one plane after a round)
so every policy is testable without a genuinely unstable kernel.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from ..core.traffic import TrafficStats
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from .checkpoint import CheckpointError, CheckpointStore
from .faultinject import FAULTS, ResilienceError
from .report import RunReport
from .sdc import SdcGuard, inject_flips

__all__ = [
    "ABANDON_STOPS",
    "GuardedSweep",
    "HealthCheckError",
    "HealthWarning",
    "SweepInterruptedError",
    "SweepRetriesExhaustedError",
    "grid_is_finite",
    "metered",
]

#: stop reasons that abandon the run: no final checkpoint is written
ABANDON_STOPS = ("cancel", "deadline", "kill")


class HealthCheckError(ResilienceError):
    """A round produced non-finite values and the policy is ``raise`` (or
    repair was impossible/exhausted)."""


class HealthWarning(UserWarning):
    """A round produced non-finite values and the policy is ``warn``."""


class SweepRetriesExhaustedError(ResilienceError):
    """A round kept failing after every allowed retry."""


class SweepInterruptedError(ResilienceError):
    """The sweep stopped cooperatively at a round boundary (``stop`` hook).

    Raised only between rounds, so the carried ``state`` is a complete,
    consistent grid at ``step`` applied time steps — resuming the remaining
    ``steps - step`` rounds from it is bit-identical to the uninterrupted
    run.  ``reason`` is what the ``stop`` hook returned.  With a checkpoint
    store, unless the reason is in :data:`ABANDON_STOPS`, a final snapshot
    of that state is written before this is raised.
    """

    def __init__(self, step: int, state=None, checkpointed: bool = False,
                 reason: str = "interrupt"):
        self.step = step
        self.state = state
        self.checkpointed = checkpointed
        self.reason = reason
        suffix = "; final checkpoint written" if checkpointed else ""
        super().__init__(
            f"sweep interrupted at a round boundary after {step} step(s)"
            f"{suffix}"
        )


def grid_is_finite(data: np.ndarray) -> bool:
    """True when the grid holds no NaN/Inf (trivially true for int grids)."""
    if not np.issubdtype(data.dtype, np.floating):
        return True
    return bool(np.isfinite(data).all())


def metered(meter, phase: str, info: dict, fn, *args):
    """``fn(*args)``, then (also when it raises: the work was done)
    ``meter(phase, wall_t0_ns, elapsed_ns, **info)`` if a meter is set."""
    if meter is None:
        return fn(*args)
    w0 = time.time_ns()
    t0 = time.perf_counter_ns()
    try:
        return fn(*args)
    finally:
        meter(phase, w0, time.perf_counter_ns() - t0, **info)


class GuardedSweep:
    """Watchdog wrapper around an executor's ``run`` method.

    Parameters
    ----------
    executor:
        Anything with ``run(field, steps, traffic=None) -> Field3D``.
    round_steps:
        Steps advanced per guarded round; defaults to ``executor.dim_t``
        (falling back to 1), the granularity at which chunked execution is
        bit-identical to a single call.
    health:
        ``"off"``, ``"raise"``, ``"warn"``, ``"repair"`` or ``"sdc"``
        (NaN/Inf raise plus silent-data-corruption guarding at the
        ``spot`` tier unless ``sdc`` names a stronger one).
    sdc / sdc_seed / sdc_sample / sdc_max_heals:
        Integrity tier (``off``/``spot``/``seal``/``full``, see
        :mod:`repro.resilience.sdc`) plus the spot-check sampling seed,
        bands sampled per round, and the surgical-heal budget.  An
        active tier CRC-seals the grid after every round, verifies the
        seals at the next round boundary, re-executes Z bands from the
        last trusted state (refreshed after every verified round but the
        last, whatever the checkpoint period) through the naive reference
        rung, and heals
        detected corruption by replaying only its propagation cone.
        The ``memory.flip`` fault site fires here (after sealing, so
        flips are *resting* corruption the next verify must catch).
    kernel:
        The stencil kernel, required by an active ``sdc`` tier for the
        re-execution/heal replays; defaults to ``executor.kernel``.
    max_retries:
        Retries per round for rounds that raise; 0 disables catching.
    backoff / backoff_factor:
        First retry delay in seconds and its growth per retry.
    checkpoint / checkpoint_every:
        Optional :class:`CheckpointStore` and snapshot period in rounds.
    meta:
        Run identity stored in checkpoints; a resume refuses a snapshot
        whose metadata differs.
    report:
        A :class:`RunReport` accumulating degradations/retries/repairs.
    stop:
        Optional round-boundary hook: a ``threading.Event``-like object
        (a set event reads as reason ``"interrupt"``) or a callable
        returning a stop reason or a falsy value.  Asked after the seals
        are verified; on a reason the sweep writes a final checkpoint
        (with a store, unless the reason is in :data:`ABANDON_STOPS`) and
        raises :class:`SweepInterruptedError` — graceful SIGINT/SIGTERM in
        ``repro run``; cancel, deadline, preemption and kill in serve.
    meter:
        Optional ``meter(phase, wall_t0_ns, elapsed_ns, **info)`` (see
        :func:`metered`), after every ``"round"`` (info: ``steps``,
        ``done``, and the round's own ``traffic``) and ``"sdc_check"``
        (info: ``sdc``, the guard's report) phase.
    sleep:
        Injection point for the backoff clock (tests pass a no-op).
    """

    def __init__(
        self,
        executor,
        *,
        round_steps: int | None = None,
        health: str = "raise",
        max_retries: int = 0,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        checkpoint: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        meta: dict | None = None,
        report: RunReport | None = None,
        stop=None,
        meter=None,
        sleep=time.sleep,
        sdc: str = "off",
        sdc_seed: int = 0,
        sdc_sample: int = 2,
        sdc_max_heals: int = 3,
        kernel=None,
    ) -> None:
        if health not in ("off", "raise", "warn", "repair", "sdc"):
            raise ValueError(f"unknown health policy {health!r}")
        if health == "sdc":
            # SDC guarding beside the NaN/Inf check: strictest NaN policy,
            # integrity at least at the spot tier
            health = "raise"
            if sdc == "off":
                sdc = "spot"
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.executor = executor
        self.round_steps = round_steps or getattr(executor, "dim_t", 1)
        self.health = health
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.meta = dict(meta or {})
        self.report = report if report is not None else RunReport()
        self._stop = getattr(stop, "is_set", stop)
        self.meter = meter
        self._sleep = sleep
        self.sdc_seed = sdc_seed
        self.kernel = kernel if kernel is not None else getattr(
            executor, "kernel", None
        )
        if sdc != "off" and self.kernel is None:
            raise ValueError(
                "an active sdc tier needs the stencil kernel for its "
                "re-execution replays; pass kernel= or use an executor "
                "with a .kernel attribute"
            )
        self.sdc = SdcGuard(
            self.kernel,
            tier=sdc,
            seed=sdc_seed,
            sample_bands=sdc_sample,
            max_heals=sdc_max_heals,
        ) if sdc != "off" else None
        if self.sdc is not None:
            self.report.sdc = self.sdc.report

    # ------------------------------------------------------------------
    def run(self, field, steps: int, traffic=None, resume: bool = False):
        """Advance ``field`` by ``steps`` under the configured guards."""
        if steps < 0:
            raise ValueError("steps must be >= 0")
        if self.sdc is not None:
            self.sdc.invalidate()  # an earlier run's seals describe another grid
        state, done = field, 0
        if resume:
            state, done = self._try_resume(field, steps)
        if steps == 0 or done >= steps:
            return state.copy()

        # last verified-good (state, step) pair: the SDC trusted base and
        # the repair rollback target.  Refreshed (in memory even when no
        # on-disk store is configured) after every verified round but the
        # last with an active tier, else at every checkpoint boundary.
        good_state, good_done = state.copy(), done
        repairs_left = max(1, self.max_retries) if self.health == "repair" else 0
        rounds_since_snapshot = 0
        retries_before = self.report.retries
        repairs_before = self.report.repairs
        round_index = 0
        sdc_info = {"sdc": self.sdc.report} if self.sdc is not None else {}
        with TRACE.span("guarded_run", steps=steps, health=self.health):
            while done < steps:
                if self.sdc is not None:
                    # resting corruption since the last seal (the window the
                    # memory.flip probe below opens) heals here, *before*
                    # this round consumes it or an interrupt checkpoints it
                    state = metered(
                        self.meter, "sdc_check", sdc_info,
                        self.sdc.verify_seals, state, done, good_state,
                        good_done,
                    )
                reason = self._stop() if self._stop is not None else None
                if reason:
                    self._interrupt(
                        state, done, "interrupt" if reason is True else reason
                    )
                round_t = min(self.round_steps, steps - done)
                round_traffic = traffic
                if self.meter is not None:
                    round_traffic = TrafficStats()
                with TRACE.span("guard_round", done=done, round_t=round_t):
                    state = metered(
                        self.meter, "round",
                        {"steps": round_t, "done": done + round_t,
                         "traffic": round_traffic},
                        self._round_with_retry, state, round_t, round_traffic,
                    )
                if traffic is not None and round_traffic is not traffic:
                    traffic.merge(round_traffic)
                done += round_t
                self.report.rounds += 1
                round_index += 1
                if FAULTS.should("grid.nan"):
                    state.data[:, state.nz // 2] = np.nan
                if self.health != "off" and not grid_is_finite(state.data):
                    state, done, rounds_since_snapshot, repairs_left = (
                        self._unhealthy(
                            state, done, good_state, good_done,
                            rounds_since_snapshot, repairs_left,
                        )
                    )
                    if self.sdc is not None:
                        self.sdc.invalidate()  # rollback voided the seals
                    continue
                if self.sdc is not None:
                    # compute-side SDC: re-execute bands from the trusted
                    # base through the naive rung, then seal the verified
                    # grid for the next round's resting-corruption check
                    state = metered(
                        self.meter, "sdc_check", sdc_info,
                        self._check_and_seal, state, done, good_state,
                        good_done, round_index - 1,
                    )
                rounds_since_snapshot += 1
                snapshot = rounds_since_snapshot >= self.checkpoint_every
                if done < steps and (snapshot or self.sdc is not None):
                    good_state, good_done = state.copy(), done
                if done < steps and snapshot:
                    rounds_since_snapshot = 0
                    if self.checkpoint is not None:
                        self.checkpoint.save(state.data, done, self.meta)
                        self.report.checkpoints_written += 1
                        METRICS.inc("resilience.checkpoint_bytes",
                                    state.data.nbytes)
                if self.sdc is not None:
                    # the memory.flip probe: resting bit flips land *after*
                    # sealing and after the trusted base and checkpoint were
                    # taken, so they are in-window for the next verify_seals
                    inject_flips(
                        state.data, rank=0, round_index=round_index - 1,
                        seed=self.sdc_seed,
                    )
            if self.sdc is not None:
                # final verify: flips injected after the last round's seal
                # stay in-window
                state = metered(
                    self.meter, "sdc_check", sdc_info,
                    self.sdc.verify_seals, state, done, good_state, good_done,
                )
        if METRICS.armed:
            METRICS.inc("resilience.retries",
                        self.report.retries - retries_before)
            METRICS.inc("resilience.repairs",
                        self.report.repairs - repairs_before)
            METRICS.set_gauge("resilience.degradations",
                              len(self.report.degradations))
        return state.copy()

    # ------------------------------------------------------------------
    def _check_and_seal(self, state, done, good_state, good_done,
                        round_index):
        state = self.sdc.check_round(
            state, done, good_state, good_done, round_index
        )
        self.sdc.seal(state)
        return state

    def _interrupt(self, state, done: int, reason: str) -> None:
        """Cooperative stop at a round boundary: final checkpoint, then raise."""
        checkpointed = False
        if self.checkpoint is not None and reason not in ABANDON_STOPS:
            self.checkpoint.save(state.data, done, self.meta)
            self.report.checkpoints_written += 1
            checkpointed = True
        raise SweepInterruptedError(
            done, state=state.copy(), checkpointed=checkpointed, reason=reason
        )

    # ------------------------------------------------------------------
    def _try_resume(self, field, steps: int):
        """State/step to restart from, validated against this run's identity."""
        if self.checkpoint is None:
            return field, 0
        try:
            snap = self.checkpoint.load(
                expected_shape=field.data.shape,
                expected_dtype=field.data.dtype,
            )
        except CheckpointError as exc:
            # a versioned/geometry refusal is actionable but not fatal to a
            # guarded run: say why and start from scratch
            warnings.warn(HealthWarning(str(exc)), stacklevel=3)
            self.report.warnings.append(str(exc))
            return field, 0
        if snap is None:
            return field, 0
        if (
            snap.data.shape != field.data.shape
            or snap.data.dtype != field.data.dtype
            or snap.meta != self.meta
            or snap.step > steps
        ):
            warnings.warn(
                HealthWarning(
                    f"checkpoint {self.checkpoint.path} does not match this "
                    "run (shape/dtype/meta/steps); starting from scratch"
                ),
                stacklevel=3,
            )
            return field, 0
        resumed = field.like()
        np.copyto(resumed.data, snap.data)
        self.report.resumed_from = snap.step
        return resumed, snap.step

    def _round_with_retry(self, state, round_t: int, traffic):
        """One executor round, retried with exponential backoff."""
        if self.max_retries == 0:
            return self.executor.run(state, round_t, traffic)
        delay = self.backoff
        attempt = 0
        while True:
            # per-attempt traffic: merged only on success so retried rounds
            # are not double counted
            attempt_traffic = None
            if traffic is not None:
                attempt_traffic = type(traffic)()
            try:
                out = self.executor.run(state, round_t, attempt_traffic)
            except Exception as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise SweepRetriesExhaustedError(
                        f"round failed {attempt} time(s), retries exhausted: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                self.report.retries += 1
                self._sleep(delay)
                delay *= self.backoff_factor
                continue
            if traffic is not None:
                traffic.merge(attempt_traffic)
            return out

    def _unhealthy(
        self, state, done, good_state, good_done, rounds_since_snapshot,
        repairs_left,
    ):
        """Apply the health policy to a non-finite grid."""
        msg = f"non-finite values in the grid after step {done}"
        if self.health == "warn":
            warnings.warn(HealthWarning(msg), stacklevel=3)
            self.report.warnings.append(msg)
            return state, done, rounds_since_snapshot + 1, repairs_left
        if self.health == "repair" and repairs_left > 0:
            self.report.repairs += 1
            return good_state.copy(), good_done, 0, repairs_left - 1
        raise HealthCheckError(
            msg
            + (
                " (repair attempts exhausted)"
                if self.health == "repair"
                else ""
            )
        )
