"""Shared pieces: the run context, order statistics and the result record."""

from __future__ import annotations

import io
import math
import resource
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Context:
    """What every workload gets: its seed, budget and isolated paths."""

    seed: int
    seconds: float
    trace: bool
    root: Path  # the checkout the benchmark runs from
    tmp: Path  # fresh per run, relative to ``root``; removed at exit
    out: Path  # trace documents; kept
    env: dict  # environment for child processes


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile (0..1) of ``values``.

    A Beta-weighted average of all order statistics: unlike picking one or
    two of them, it does not jump when the quantile falls in a gap of a
    mixed population (short and long jobs), which keeps medians of small
    samples steady from run to run.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def median(values) -> float:
    return percentile(values, 0.5)


def supported_quantile(n: int) -> float | None:
    """The highest quantile with at least ten samples beyond it."""
    if n < 11:
        return None
    return math.floor(1000 * (1 - 10 / n)) / 1000


@dataclass
class Result:
    """Metrics, their samples, and the operation/correctness tally."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # name -> list of floats
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # (key, value) lines
    trace_parts: list = field(default_factory=list)  # (spans, Account, pid)
    #: probes of known defects, kept apart from the workload's operations
    probes: dict = field(default_factory=dict)  # name -> (probes, hits)

    def put(self, name: str, value: float, unit: str, samples=None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = [float(v) for v in samples]

    def note(self, key: str, value) -> None:
        self.notes.append((key, value))

    def mismatch(self, what: str) -> None:
        """A wrong output: the run is not correct."""
        self.correct = False
        self.problems.append(what)

    def probe(self, name: str, hit: bool) -> None:
        """One probe of the known defect ``name``; ``hit`` if it showed.

        A probe is not one of the workload's operations: the result line's
        ``attempted`` and ``failed`` leave it out, ``ops_failed_frac``
        counts it, and ``name`` reports the hits.
        """
        n, hits = self.probes.get(name, (0, 0))
        self.probes[name] = (n + 1, hits + bool(hit))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``repro.cli.main(argv)`` in this process; returns (code, stdout)."""
    from repro.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def cli_value(out: str, key: str) -> str | None:
    """The value of a ``key : value`` line of ``repro run`` output."""
    for line in out.splitlines():
        name, sep, value = line.partition(":")
        if sep and name.strip() == key:
            return value.strip()
    return None


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def meminfo_bytes(key: str) -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None
