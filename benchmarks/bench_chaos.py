"""Chaos soak: the rank-recovery claim under randomized fault schedules.

Not a paper artifact — the paper assumes perfect hardware — but the
robustness pledge of the distributed extension: any survivable schedule of
rank crashes, message loss, payload corruption and delayed acks yields a
final field bit-identical to the fault-free serial reference, replaying at
most one blocked round per failure.  The soak draws one schedule per seed
(see :mod:`repro.resilience.chaos`), so every red row is a one-line repro:
re-run the same seed.
"""

from repro.perf import format_table
from repro.resilience.chaos import make_case, run_case

from .conftest import banner, record

SEEDS = range(6)


def test_chaos_soak_bit_exact(benchmark):
    cases = [make_case(seed, ranks=4, grid=20, steps=6, dim_t=2)
             for seed in SEEDS]

    def soak():
        return [run_case(case) for case in cases]

    results = benchmark.pedantic(soak, rounds=1, iterations=1)
    print(banner("Chaos soak: 4 ranks, 20^3 x 6 steps, randomized faults"))
    print(format_table(
        ["seed", "ok", "recoveries", "replayed", "retries", "dropped",
         "corrupted", "delayed", "schedule"],
        [
            (
                r.case.seed,
                "yes" if r.ok else "NO",
                *(r.counts[k] for k in (
                    "recoveries", "replayed_rounds", "comm_retries",
                    "comm_dropped", "comm_corrupted", "comm_delayed",
                )),
                ", ".join(r.case.specs) or "-",
            )
            for r in results
        ],
    ))
    assert [c.seed for c in cases] == [r.case.seed for r in results]
    for r in results:
        assert r.ok, f"seed {r.case.seed} failed: {r.error or 'bit mismatch'}"
        assert r.counts["replayed_rounds"] <= len(r.counts["failed_ranks"])

    crashes = sum(r.counts["recoveries"] for r in results)
    retries = sum(r.counts["comm_retries"] for r in results)
    assert crashes > 0  # the seed range must actually exercise recovery
    record(benchmark, seeds=len(results), recoveries=crashes,
           comm_retries=retries)
