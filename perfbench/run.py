"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-7pt --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the separate traced pass that gives the per-layer split and writes its
spans to ``.perfbench/trace-<workload>-<seed>.json`` (a ``repro.trace/v1``
document that ``repro trace`` summarizes).  The metric names, units and
directions come from ``BENCHMARK.json``; ``perfbench/README.md`` says what
each one measures and which end-to-end metric each layer metric moves.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong output exits 1; a
checkout without the program's sources exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("sweep-7pt", "lbm-guarded", "serve-mixed")
#: how far the layers' summed self time may be from the traced wall
ACCOUNTING_TOLERANCE = 0.10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _isolate(root: Path, tmp: Path) -> dict:
    """Fresh caches, no backend or fault overrides, sources on the path."""
    os.environ.pop("REPRO_BACKEND", None)
    os.environ.pop("REPRO_FAULTS", None)
    os.environ["REPRO_TUNE_CACHE"] = str(tmp / "tune-cache")
    os.environ["REPRO_CODEGEN_CACHE"] = str(tmp / "codegen-cache")
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    sys.path.insert(0, src)
    return dict(os.environ)


def _spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _summary_line(name, value, unit, samples):
    from common import median, percentile, supported_quantile

    text = f"  {name:<34} {value:>14.6g} {unit:<6}"
    if samples:
        n = len(samples)
        q = supported_quantile(n)
        tail = (f"p{100 * q:g}={percentile(samples, q):.6g}" if q is not None
                else "p-: <11 samples")
        text += f"  median={median(samples):.6g} {tail} n={n}"
    return text


def _write_trace(res, ctx, workload) -> Path | None:
    from spans import trace_events

    parts = [p for p in res.trace_parts if p[0]]
    if not parts:
        return None
    t0 = min(s[4] for spans, _, _ in parts for s in spans)
    events = []
    for spans, account, pid in parts:
        events += trace_events(spans, account, pid, t0)
    doc = {
        "schema": "repro.trace/v1",
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": {"generator": "perfbench", "workload": workload,
                      "seed": ctx.seed, "dropped_spans": 0},
    }
    path = ctx.out / f"trace-{workload}-{ctx.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    out = Path(".perfbench")
    tmp = out / f"tmp-{os.getpid()}-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    try:
        env = _isolate(root, tmp.resolve())
        from common import Context, Result, log

        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), root=root, tmp=tmp, out=out,
                      env=env)
        import numpy

        if args.workload == "serve-mixed":
            import serving

            res: Result = serving.run(ctx)
        else:
            import sweeps

            res = sweeps.run(args.workload, ctx)
        from repro.perf.backends import backend_availability, backend_names

        probes = sum(n for n, _ in res.probes.values())
        hits = sum(h for _, h in res.probes.values())
        res.put("ops_failed_frac", (res.failed + hits)
                / max(1, res.attempted + probes), "frac")
        for name, (_, h) in res.probes.items():
            res.put(name, h, "count")
        spec = _spec()
        kind = "per_layer" if args.trace else "end_to_end"
        wanted = [(m["name"], m["unit"]) for m in spec[kind]]
        missing = [n for n, _ in wanted if n not in res.metrics]
        if kind == "per_layer":
            # layers a workload does not exercise report 0
            for name, unit in wanted:
                res.metrics.setdefault(name, (0.0, unit))
            missing = []
        if res.correct and missing:
            res.mismatch(f"metrics not produced: {', '.join(missing)}")
        if args.trace:
            accounted = res.metrics["trace.accounted_frac"][0]
            if abs(accounted - 1) > ACCOUNTING_TOLERANCE:
                res.mismatch(f"layer self-times account for {accounted:.3f} "
                             "of the traced wall, outside the "
                             f"{ACCOUNTING_TOLERANCE:.0%} tolerance")

        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        avail = ", ".join(
            f"{n}={'yes' if backend_availability(n)[0] else 'no'}"
            for n in backend_names())
        for key, value in [
            ("python", platform.python_version()),
            ("numpy", numpy.__version__),
            ("nproc", os.cpu_count()),
            ("cpus usable", len(os.sched_getaffinity(0))),
            ("backends available", avail),
        ] + res.notes:
            print(f"  {key:<20} {value}")
        print(f"  operations: {res.attempted} attempted, {res.failed} failed")
        for name, (n, h) in res.probes.items():
            print(f"  known defect {name}: shown by {h} of {n} probe(s)")
        for problem in res.problems:
            print(f"  MISMATCH: {problem}")
        print("metrics:")
        for name, unit in wanted:
            if name in res.metrics:
                value, unit = res.metrics[name]
                print(_summary_line(name, value, unit, res.samples.get(name)))
        extra = sorted(set(res.metrics) - {n for n, _ in wanted})
        for name in extra:  # reported here, not in the result line
            value, unit = res.metrics[name]
            print(_summary_line(name, value, unit, res.samples.get(name)))
        if args.trace:
            path = _write_trace(res, ctx, args.workload)
            if path is not None:
                from repro.obs.export import summarize_trace

                with open(path, encoding="utf-8") as fh:
                    lines = summarize_trace(json.load(fh))
                print(f"trace: wrote {path}; `repro trace` summary:")
                for line in lines:
                    print(f"  {line}")
        result = {
            "correct": res.correct,
            "attempted": max(1, res.attempted),
            "failed": res.failed,
            "metrics": {
                name: {"value": res.metrics[name][0],
                       "unit": res.metrics[name][1]}
                for name, _ in wanted if name in res.metrics
            },
        }
        print(json.dumps(result))
        if not res.correct:
            log("perfbench: correctness check failed")
            return 1
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
