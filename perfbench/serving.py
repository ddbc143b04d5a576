"""The ``serve-mixed`` workload: a ``repro serve`` daemon fed over its socket.

The daemon runs with its CLI defaults (2 workers, fsync on, queue 16, 8 jobs
per tenant) in a fresh state directory.  One client thread drives it in
three phases:

1. open loop: seeded Poisson arrivals at the fixed rate :data:`RATE`, for
   the whole decks that fill :data:`OPEN_SHARE` of the run.  The rate is a
   constant of the benchmark, never derived from a measured capacity, so a
   faster or slower commit gets the same offered load.  Each job is timed
   from when it was due to be sent.
2. closed loop: :data:`WINDOW` jobs kept in flight (within the queue cap and
   the tenant quotas), refilled after every poll of the daemon's live job
   count (one ``stats`` request every :data:`POLL_S` seconds), sent in
   whole decks while one more fits in the time the other phases leave.
3. paired: one job at a time, each followed by its naive reference timed
   by the client while the daemon is idle, for :data:`PAIRED_SHARE` of the
   run.  This gives ``sweep_vs_naive`` from two times taken moments apart,
   with the client taking no CPU from a measured job.

Jobs come from :func:`decks`.  Plan fields are left unset, so the daemon's
defaults apply.  Every completed job's result hash is checked against a
naive oracle computed in this process, and every terminal job against the
exit-code contract.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import time

from common import Result, log, median, percentile
from spans import LAYERS, Account

RATE = 2.4  # open-loop arrivals per second
OPEN_SHARE = 0.35  # of the run's seconds
PAIRED_SHARE = 0.15  # of the run's seconds; the closed loop gets the rest
WINDOW = 8
POLL_S = 0.02
LIMIT_MS = 1000.0  # latency limit of the fixed-rate phase
SETUP_REPEATS = 5
NAIVE_REPEATS = 3  # naive runs timed per paired job
FIELD_SEEDS = 4  # distinct initial grids per run
DECK = [(k, g, s) for k in ("7pt", "27pt") for g in (12, 16, 24)
        for s in range(4, 9)]
TENANTS = ("t0", "t1", "t2")
CLASS_SIZE = 6  # deck entries per cost class (5 classes of 6)
#: the 0/2/3/4 exit-code contract, restated independently of the program
CONTRACT = {"done": 0, "rejected": 2, "shed": 2, "degraded": 3,
            "failed": 4, "cancelled": 4}
COMPLETED = ("done", "degraded")
TRACE_SPANS = 20000
#: a ``seal`` job that hits the band-replay defect (see :func:`band_defect`)
PROBE = {"kernel": "7pt", "grid": 12, "steps": 5, "seed": 3,
         "tenant": "probe", "integrity": "seal"}
HERE = os.path.dirname(os.path.abspath(__file__))


def _cost(combo) -> int:
    """Rough relative cost of a deck entry, for spreading heavy jobs out."""
    kernel, grid, steps = combo
    return grid**3 * steps * (27 if kernel == "27pt" else 7)


def band_defect(combo) -> bool:
    """Whether a ``seal`` job of ``combo`` can hit the known band-replay
    defect: on a 12³ grid the SDC bands are one plane wide, and with an odd
    step count the last round is one step, whose replay of an edge band is
    clipped to two planes and raises ``ValueError``.  Whether it does
    depends on the field seed; :data:`PROBE` is a job that does."""
    _, grid, steps = combo
    return grid == 12 and steps % 2 == 1


def decks(seed: int, stream: int):
    """Endless job dicts, one deck of :data:`DECK` at a time.

    Every deck holds each kernel x grid x steps combination once, with
    verification on exactly half, the ``seal`` tier on 7 or 8 of 30
    (alternating; never where :func:`band_defect` holds, which
    :data:`PROBE` covers), tenants and initial grids spread evenly and
    priorities 0-2 spread evenly inside each cost class; the seed shuffles
    which job gets what.  The order interleaves cost classes (the seed
    shuffles within each), so the heaviest jobs are
    spread through the deck rather than bunched by chance.
    """
    rng = random.Random(f"{seed}:{stream}")
    k = len(DECK)
    ranked = sorted(DECK, key=_cost)
    classes = [ranked[i:i + CLASS_SIZE] for i in range(0, k, CLASS_SIZE)]
    n = 0
    while True:
        for cls in classes:
            rng.shuffle(cls)
        combos = []
        for r in range(CLASS_SIZE):
            group = [cls[r] for cls in classes]
            rng.shuffle(group)
            combos += group
        columns = {
            "verify": [i < k // 2 for i in range(k)],
            "tenant": [TENANTS[i % len(TENANTS)] for i in range(k)],
            "seed": [seed * FIELD_SEEDS + i % FIELD_SEEDS for i in range(k)],
        }
        for col in columns.values():
            rng.shuffle(col)
        eligible = [i for i, c in enumerate(combos) if not band_defect(c)]
        sealed = set(rng.sample(eligible, k // 4 + n % 2))
        columns["seal"] = [i in sealed for i in range(k)]
        # priorities 0-2 spread evenly inside every cost class, so how
        # often heavy jobs are preempted does not depend on the seed
        prio = {}
        for cls in classes:
            levels = [i % 3 for i in range(len(cls))]
            rng.shuffle(levels)
            prio.update(zip(cls, levels))
        columns["priority"] = [prio[c] for c in combos]
        for i, (kernel, grid, steps) in enumerate(combos):
            yield {
                "kernel": kernel, "grid": grid, "steps": steps,
                "seed": columns["seed"][i], "tenant": columns["tenant"][i],
                "priority": columns["priority"][i],
                "verify": columns["verify"][i],
                "integrity": "seal" if columns["seal"][i] else "off",
            }
        n += 1


class Daemon:
    """One ``repro serve`` child with its own socket and state directory."""

    def __init__(self, ctx, name: str, spans_out: str | None = None):
        from repro.serve import ServeClient

        self.dir = ctx.tmp / name
        self.dir.mkdir()
        sock = str(self.dir / "s.sock")  # relative: unix paths are short
        serve = ["serve", "--socket", sock, "--state-dir",
                 str(self.dir / "state")]
        if spans_out:
            cmd = [sys.executable, os.path.join(HERE, "daemon.py"), spans_out,
                   *serve]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        self.log = open(self.dir / "daemon.log", "w", encoding="utf-8")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env,
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.client = ServeClient(sock)

    def first_submit(self, job: dict) -> tuple[float, dict]:
        """Submit ``job`` as soon as the daemon listens: (seconds, reply)."""
        from repro.serve import ServeUnavailable

        deadline = time.monotonic() + 60
        while True:
            try:
                reply = self.client.submit(job)
                return time.perf_counter() - self.t0, reply
            except ServeUnavailable:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> int:
        """SIGTERM: the daemon drains accepted work and exits (0 = clean)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            return self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9
        finally:
            self.log.close()


def _wait_terminal(client, ids, timeout=120.0) -> dict:
    """Poll until every job in ``ids`` is terminal; returns id -> record."""
    done: dict = {}
    deadline = time.monotonic() + timeout
    pending = list(ids)
    while pending and time.monotonic() < deadline:
        still = []
        for jid in pending:
            job = client.status(jid).get("job") or {}
            if job.get("code") is not None:
                done[jid] = job
            else:
                still.append(jid)
        pending = still
        if pending:
            time.sleep(POLL_S)
    return done


def _open_loop(d: Daemon, jobs, seconds: float, seed: int, res: Result):
    """Poisson arrivals at :data:`RATE` of the whole decks that fill
    ``seconds`` at that rate (at least one deck); the client does nothing
    but send between arrivals."""
    rng = random.Random(f"{seed}:arrivals")
    n = len(DECK) * max(1, round(seconds * RATE / len(DECK)))
    due = [time.monotonic() + 0.05]
    for _ in range(n):
        due.append(due[-1] + rng.expovariate(RATE))
    sent = []
    for i in range(1, n + 1):
        now = time.monotonic()
        if due[i] > now:
            time.sleep(due[i] - now)
        job = next(jobs)
        t_send = time.monotonic()
        reply = d.client.submit(job)
        rtt = time.monotonic() - t_send
        res.attempted += 1
        sent.append({"job": job, "due": due[i], "late": t_send - due[i],
                     "rtt": rtt, "reply": reply})
    return sent


def _closed_loop(d: Daemon, jobs, seconds: float, res: Result):
    """:data:`WINDOW` jobs in flight, sent in whole decks while a further
    deck still fits in ``seconds`` (at least one deck).

    Every :data:`POLL_S` the daemon's live (non-terminal) job count comes
    back in one ``stats`` request and the window is refilled at once.  The
    daemon can only run dry if more than ``WINDOW - workers`` jobs finish
    within one poll, which puts the ceiling this loop can measure near
    ``(WINDOW - 2) / POLL_S`` jobs per second with the default 2 workers.
    """
    t_end = time.monotonic() + seconds
    sent, inflight = [], 0
    deck_t0, boundary = time.monotonic(), 0
    while True:
        if inflight < WINDOW:
            if sent and len(sent) % len(DECK) == 0 and len(sent) != boundary:
                # about to start a deck: only if it fits at the last pace
                boundary, now = len(sent), time.monotonic()
                deck_s, deck_t0 = now - deck_t0, now
                if now + deck_s > t_end:
                    break
            job = next(jobs)
            reply = d.client.submit(job)
            res.attempted += 1
            sent.append({"job": job, "reply": reply})
            inflight += bool(reply.get("ok"))
            continue
        time.sleep(POLL_S)
        inflight = d.client.stats()["stats"]["live_jobs"]
    return sent


def _records(d: Daemon, sent: list) -> list:
    """Attach each accepted job's final record (``record`` key)."""
    ids = [e["reply"]["id"] for e in sent if e["reply"].get("ok")]
    final = _wait_terminal(d.client, ids)
    for e in sent:
        jid = e["reply"].get("id")
        e["record"] = final.get(jid) if e["reply"].get("ok") else None
    return sent


def _band_probe(d: Daemon, oracle, res: Result) -> None:
    """Submit :data:`PROBE` with the daemon idle: the known defect shows as
    a failed job (exit 4).  A completed probe must still match the oracle;
    a terminal status that breaks the exit-code contract is a mismatch."""
    entry = {"job": PROBE, "reply": d.client.submit(PROBE)}
    if not entry["reply"].get("ok"):
        res.mismatch(f"probe job refused: {entry['reply']}")
        return
    rec = _records(d, [entry])[0]["record"]
    status = (rec or {}).get("status")
    if status not in COMPLETED:
        if rec is None or rec.get("code") != CONTRACT.get(status):
            res.mismatch(f"probe job ended {status!r} with code "
                         f"{(rec or {}).get('code')!r}")
        res.probe("resilience.band_replay_failures", status == "failed")
        return
    res.probe("resilience.band_replay_failures", False)
    if rec.get("sha256") != oracle.sha(PROBE):
        res.mismatch("probe job: result hash differs from the naive oracle")


def _paired(d: Daemon, jobs, seconds: float, oracle, res: Result):
    """One job at a time, each followed by its naive reference timed by the
    client while the daemon is idle (the median of :data:`NAIVE_REPEATS`
    runs, in ``naive_s``): whole decks while a further deck still fits in
    ``seconds`` (at least one deck)."""
    t_end = time.monotonic() + seconds
    sent = []
    deck_t0 = time.monotonic()
    while True:
        if sent and len(sent) % len(DECK) == 0:
            now = time.monotonic()
            if now + (now - deck_t0) > t_end:
                break
            deck_t0 = now
        job = next(jobs)
        reply = d.client.submit(job)
        res.attempted += 1
        entry = {"job": job, "reply": reply}
        sent.append(entry)
        if reply.get("ok"):
            _records(d, [entry])
            if entry["record"] and entry["record"]["status"] in COMPLETED:
                entry["naive_s"] = median(
                    [oracle.timed(job) for _ in range(NAIVE_REPEATS)])
    return sent


def _check(entries: list, oracle, res: Result) -> None:
    """Exit-code contract for every job, naive-oracle hash for completed."""
    for e in entries:
        rec = e["record"]
        if rec is None:
            if e["reply"].get("ok"):
                res.mismatch(f"job {e['reply'].get('id')} never finished")
            else:  # refused at admission: exit 2 by the contract
                res.failed += 1
            continue
        status = rec.get("status")
        if status not in CONTRACT or rec.get("code") != CONTRACT[status]:
            res.mismatch(f"job {rec.get('id')}: status {status!r} with "
                         f"code {rec.get('code')!r} breaks the 0/2/3/4 contract")
            continue
        if status not in COMPLETED:
            res.failed += 1
            continue
        spec = e["job"]
        if rec.get("done_steps") != spec["steps"]:
            res.mismatch(f"job {rec['id']}: {rec.get('done_steps')} of "
                         f"{spec['steps']} steps")
        elif rec.get("sha256") != oracle.sha(spec):
            res.mismatch(f"job {rec['id']}: result hash differs from the "
                         "naive oracle")


class Oracle:
    """Naive results per job, from the program's own ``make_field`` /
    ``make_kernel`` and ``run_naive``; :meth:`timed` also times the run."""

    def __init__(self) -> None:
        self._hash: dict = {}

    def timed(self, spec: dict) -> float:
        """Compute (and keep) the job's naive result; returns its seconds."""
        from repro.core import run_naive
        from repro.serve import JobSpec
        from repro.serve.server import grid_sha256, make_field, make_kernel

        js = JobSpec.from_dict(spec)
        kernel, field = make_kernel(js), make_field(js)
        t0 = time.perf_counter()
        out = run_naive(kernel, field, js.steps)
        secs = time.perf_counter() - t0
        self._hash[(spec["kernel"], spec["grid"], spec["seed"],
                    spec["steps"])] = grid_sha256(out.data)
        return secs

    def sha(self, spec: dict) -> str:
        key = (spec["kernel"], spec["grid"], spec["seed"], spec["steps"])
        if key not in self._hash:
            self.timed(spec)
        return self._hash[key]


def _setup(ctx, res: Result, n: int, spans_out=None):
    """``n`` fresh daemons timed to their first accepted submit; the last
    stays up.  Returns (setup seconds, running daemon, setup entries)."""
    times, entries = [], []
    job = {"kernel": "7pt", "grid": 12, "steps": 4, "seed": ctx.seed,
           "tenant": "setup"}
    for i in range(n):
        last = i == n - 1
        d = Daemon(ctx, f"d{i}" if not spans_out or not last else "traced",
                   spans_out if last else None)
        res.attempted += 1
        try:
            dt, reply = d.first_submit(job)
        except Exception:
            d.stop()
            raise
        if reply.get("ok"):
            times.append(dt)
        entries.append({"job": job, "reply": reply})
        if not last:
            _records(d, entries[-1:])
            _stopped(d, res)
    return times, d, entries


def run(ctx) -> Result:
    res = Result()
    oracle = Oracle()
    res.note("serve", f"CLI defaults; open loop {RATE:g} jobs/s Poisson for "
             f"{OPEN_SHARE:.0%} of the run, then {WINDOW} in flight "
             f"(poll {POLL_S:g} s), then one at a time paired with naive "
             f"for {PAIRED_SHARE:.0%}")
    if ctx.trace:
        return _traced(ctx, res, oracle)
    setup, d, setup_entries = _setup(ctx, res, SETUP_REPEATS)
    try:
        open_s = OPEN_SHARE * ctx.seconds
        opened = _open_loop(d, decks(ctx.seed, 0), open_s, ctx.seed, res)
        _records(d, opened)
        closed = _closed_loop(d, decks(ctx.seed, 1),
                              (1 - OPEN_SHARE - PAIRED_SHARE) * ctx.seconds,
                              res)
        _records(d, closed)
        paired = _paired(d, decks(ctx.seed, 2), PAIRED_SHARE * ctx.seconds,
                         oracle, res)
        _records(d, setup_entries[-1:])
        rss = d.peak_rss_mb()
        _band_probe(d, oracle, res)
    finally:
        _stopped(d, res)
    everything = setup_entries + opened + closed + paired
    _check(everything, oracle, res)
    _end_to_end(res, setup, opened, closed, paired, rss)
    _degraded(res, everything)
    return res


def _latencies_ms(opened: list) -> list:
    """Due-to-finish latency of the completed jobs of the fixed-rate phase.

    Refused and failed jobs miss the latency limit; they are counted in
    :func:`_slo_misses` and as failed operations, not given a stand-in
    latency (any stand-in would set the tail percentile by itself).
    """
    return [1e3 * (e["record"]["finished_s"] - e["due"])
            for e in _completed(opened)]


def _slo_misses(opened: list) -> int:
    """Jobs that did not complete within :data:`LIMIT_MS` of being due."""
    ok = sum(1 for v in _latencies_ms(opened) if v <= LIMIT_MS)
    return len(opened) - ok


def _completed(entries):
    return [e for e in entries
            if e["record"] and e["record"]["status"] in COMPLETED]


def _service_s(e) -> float:
    return e["record"]["finished_s"] - e["record"]["started_s"]


def _end_to_end(res, setup, opened, closed, paired, rss) -> None:
    """Throughput metrics from the closed loop, where the daemon is kept
    busy: its completed jobs over the daemon-stamped span from the first
    start to the last finish.  ``sweep_vs_naive`` from the paired phase:
    the naive times of its completed jobs over their daemon-stamped
    service times, both summed."""
    done = _completed(closed)
    pairs = [e for e in paired if "naive_s" in e]
    if not setup or not done or not pairs:
        res.mismatch("serve phases produced no completed jobs")
        return
    span = (max(e["record"]["finished_s"] for e in done)
            - min(e["record"]["started_s"] for e in done))
    updates = sum(e["job"]["grid"] ** 3 * e["job"]["steps"] for e in done)
    res.put("setup_s", median(setup), "s", setup)
    res.put("sweep_gups", updates / span / 1e9, "GUPS")
    res.put("sweep_vs_naive", sum(e["naive_s"] for e in pairs)
            / sum(_service_s(e) for e in pairs), "ratio")
    res.put("serve_jobs_per_s", len(done) / span, "1/s")
    res.put("peak_rss_mb", rss, "MB")
    _latency(res, opened)
    res.note("jobs", f"open loop {len(opened)} sent "
             f"({len(_completed(opened))} completed), closed loop "
             f"{len(closed)} sent ({len(done)} completed), paired "
             f"{len(paired)} sent ({len(pairs)} completed)")


def _latency(res, opened) -> None:
    lat = _latencies_ms(opened)
    if lat:
        res.put("serve_p50_ms", median(lat), "ms", lat)
        res.put("serve_p99_ms", percentile(lat, 0.99), "ms", lat)
    res.put("serve.slo_miss_frac", _slo_misses(opened) / len(opened), "frac")


def _traced(ctx, res: Result, oracle) -> Result:
    """Per-layer split from a traced daemon; the tracing overhead from an
    untraced daemon running the same closed loop."""
    from hostref import copy_bandwidth
    from repro.core.regions import plan_tiles_2d
    from repro.serve import JobSpec

    spans_path = (ctx.tmp / "daemon-spans.json").resolve()
    open_s = OPEN_SHARE * ctx.seconds
    closed_s = (ctx.seconds - open_s) / 2
    _, d, setup_entries = _setup(ctx, res, 1, str(spans_path))
    try:
        opened = _open_loop(d, decks(ctx.seed, 0), open_s, ctx.seed, res)
        _records(d, opened)
        closed = _closed_loop(d, decks(ctx.seed, 1), closed_s, res)
        _records(d, closed + setup_entries)
        stats = d.client.stats().get("stats", {})
    finally:
        _stopped(d, res)
    _, u, plain_setup = _setup(ctx, res, 1)
    try:
        plain = _closed_loop(u, decks(ctx.seed, 1), closed_s, res)
        _records(u, plain + plain_setup)
        _band_probe(u, oracle, res)
    finally:
        _stopped(u, res)
    everything = setup_entries + opened + closed + plain_setup + plain
    _check(everything, oracle, res)
    with open(spans_path, encoding="utf-8") as fh:
        spans = [tuple(s) for s in json.load(fh)]
    acc = Account(spans)
    job_of = acc.roots_of("serve.job")
    by_id = {s[0]: s for s in spans}
    id_of = {root: (by_id[root][6] or {}).get("id")
             for root in set(job_of.values())}
    if not id_of:
        res.mismatch("the traced daemon recorded no job")
        return res
    jobs_ms = sum((by_id[r][5] - by_id[r][4]) / 1e6 for r in id_of)
    # ``serve.job`` is the catch-all root of a job's spans: its self time is
    # worker time that no wrapped entry point covers
    unattributed_ms = sum(acc.self_ns[r] for r in id_of) / 1e6
    layers = {}
    for sid, root in job_of.items():
        layers[acc.layer[sid]] = (layers.get(acc.layer[sid], 0.0)
                                  + acc.self_ns[sid] / 1e6)

    traced_done = _completed(setup_entries + opened + closed)
    steps = sum(e["job"]["steps"] for e in traced_done)
    defaults = JobSpec()
    seal_rounds = sum(math.ceil(e["job"]["steps"] / defaults.dim_t)
                      for e in traced_done
                      if e["job"].get("integrity", "off") != "off")

    def in_jobs(name):
        return [(s[5] - s[4]) / 1e6 for s in spans
                if s[3] == name and s[0] in job_of]

    done_open = _completed(opened)
    rtt = [1e3 * e["rtt"] for e in opened]
    wait = [1e3 * (e["record"]["started_s"] - e["record"]["submitted_s"])
            for e in done_open]
    service = [1e3 * _service_s(e) for e in _completed(closed)]
    service_plain = [1e3 * _service_s(e) for e in _completed(plain)]
    late = [1e3 * max(0.0, e["late"]) for e in opened]
    busy = sum(_service_s(e) for e in done_open)
    open_wall = (max(e["record"]["finished_s"] for e in done_open)
                 - opened[0]["due"])
    workers = _serve_defaults().workers
    counters = stats.get("counters", {})
    metric_counters = stats.get("metrics", {}).get("counters", {})
    bytes_moved = (metric_counters.get("traffic.bytes_read", 0)
                   + metric_counters.get("traffic.bytes_written", 0))
    updates = metric_counters.get("serve.site_updates", 0)
    tiles = [len(plan_tiles_2d(e["job"]["grid"], e["job"]["grid"], 1,
                               defaults.dim_t, defaults.tile, defaults.tile))
             for e in traced_done]
    naive = [(s[5] - s[4]) / 1e6 for s in spans
             if s[3] == "stencils.naive" and acc.layer[s[0]] == "stencils"]
    rounds = in_jobs("core.round")
    binds = [(s[5] - s[4]) / 1e6 for s in spans if s[3] == "perf.bind"]
    ckpt = in_jobs("resilience.checkpoint")
    host = copy_bandwidth()
    plain_done = _completed(plain)
    gups = (sum(e["job"]["grid"] ** 3 * e["job"]["steps"] for e in plain_done)
            / (max(e["record"]["finished_s"] for e in plain_done)
               - min(e["record"]["started_s"] for e in plain_done)) / 1e9)
    roof_gups = host["copy_gbs"] / 8  # 7pt and 27pt SP: 4 B in, 4 B out

    res.put("perf.bind_ms", median(binds) if binds else 0.0, "ms", binds)
    res.put("perf.kernel_ms_per_step",
            acc.layer_self_ms("perf", "kernel") / steps, "ms")
    res.put("perf.kernel_calls_per_step",
            acc.count_top("kernel", "perf") / steps, "count")
    res.put("core.round_ms.p50", median(rounds), "ms", rounds)
    res.put("core.round_ms.p90", percentile(rounds, 0.9), "ms", rounds)
    res.put("core.dispatch_ms_per_step", layers.get("core", 0.0) / steps, "ms")
    res.put("core.tiles_per_round", sum(tiles) / len(tiles), "count")
    res.put("core.bytes_per_update_counted", bytes_moved / updates, "B")
    res.put("stencils.naive_ms_per_step", median(naive) if naive else 0.0,
            "ms", naive)
    res.put("resilience.guard_overhead_frac",
            layers.get("resilience", 0.0) / jobs_ms, "frac")
    res.put("resilience.sdc_ms_per_round",
            sum(in_jobs("resilience.sdc")) / max(1, seal_rounds), "ms")
    res.put("resilience.checkpoint_ms", median(ckpt) if ckpt else 0.0, "ms",
            ckpt)
    res.put("serve.submit_rtt_ms.p50", median(rtt), "ms", rtt)
    res.put("serve.submit_rtt_ms.p99", percentile(rtt, 0.99), "ms", rtt)
    res.put("serve.queue_wait_ms.p50", median(wait), "ms", wait)
    res.put("serve.queue_wait_ms.p99", percentile(wait, 0.99), "ms", wait)
    res.put("serve.service_ms.p50", median(service), "ms", service)
    res.put("serve.service_ms.p99", percentile(service, 0.99), "ms", service)
    res.put("serve.worker_busy_frac", busy / (workers * open_wall), "frac")
    res.put("serve.plan_hit_rate",
            stats.get("plan_cache", {}).get("hit_rate", 0.0), "frac")
    res.put("serve.verify_shed", counters.get("verification_shed", 0), "count")
    res.put("serve.sdc_shed", counters.get("sdc_shed", 0), "count")
    res.put("serve.gen_late_ms", percentile(late, 0.99), "ms", late)
    _latency(res, opened)
    res.put("machine.copy_gbs", host["copy_gbs"], "GB/s")
    res.put("machine.pct_roofline", 100 * gups / roof_gups, "%")
    res.put("trace.overhead_frac",
            median(service) / median(service_plain) - 1, "frac")
    res.put("trace.accounted_frac", 1 - unattributed_ms / jobs_ms, "frac")
    for layer in LAYERS:
        res.put(f"layer.{layer}_frac", layers.get(layer, 0.0) / jobs_ms,
                "frac")
    _degraded(res, everything)
    res.note("host copy", f"{host['copy_gbs']:.2f} GB/s over "
             f"{host['array_mb']:.0f} MB arrays; LLC {host['llc_mb']} MB")
    res.note("traced jobs", f"{len(traced_done)} completed; untraced "
             f"closed loop {len(_completed(plain))} completed")
    # the trace document keeps the first spans only: a whole run holds
    # hundreds of thousands
    res.trace_parts = [(sorted(spans, key=lambda s: s[4])[:TRACE_SPANS],
                        acc, 2)]
    return res


def _stopped(d: Daemon, res: Result) -> None:
    code = d.stop()
    if code != 0:
        res.failed += 1
        log(f"daemon drain exited {code}")


def _serve_defaults():
    from repro.cli import build_parser

    return build_parser().parse_args(["serve"])


def _degraded(res: Result, entries: list) -> None:
    done = _completed(entries)
    degraded = sum(e["record"]["status"] == "degraded" for e in done)
    res.put("serve_degraded_frac", degraded / max(1, len(done)), "frac")
