"""In-memory spans around the public entry points of each layer.

The benchmark times every layer from outside: :func:`install` wraps the
entry points listed in :data:`PATCHES` (and the rung kernels found at run
time) with a recorder that appends one span per call to an in-memory list.
Nothing inside the program is edited; :meth:`Recorder.uninstall` puts the
original functions back.

Layer attribution (:class:`Account`) turns the spans of one traced call into
per-layer *self* times that add up to the call's wall time:

* a span's self time is its duration minus its children on the same thread;
* a ``kernel`` span belongs to the layer of the naive sweep or SDC check
  that directly encloses it, and otherwise to ``perf`` (the bound rung);
* a ``stencils.naive`` span belongs to ``resilience`` when an SDC check
  encloses it (re-execution is guard work), else to ``stencils``;
* worker-thread spans are attributed to the ``runtime.spmd`` launch that
  was open on the calling thread when they ran; the launch's wall ``D`` on
  ``n`` workers is split by thread-time share, so each worker span counts
  ``1/n`` of its self time and the idle worker time ``n*D - busy`` counts
  to ``runtime``.  The parts still sum to ``D``.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

#: (module, class or None, attribute, span name) of each wrapped entry point
PATCHES = {
    "core": [
        ("repro.core.blocking35d", "Blocking35D", "run", "core.run"),
        ("repro.core.blocking35d", "Blocking35D", "sweep_round", "core.round"),
    ],
    "stencils": [
        ("repro.core.naive", None, "naive_sweep", "stencils.naive"),
    ],
    "perf": [
        ("repro.resilience.fallback", None, "bind_with_fallback", "perf.bind"),
    ],
    "runtime": [
        ("repro.runtime.parallel35d", "ParallelBlocking35D", "run",
         "runtime.round"),
        ("repro.runtime.threadpool", "WorkerPool", "run_spmd", "runtime.spmd"),
        # a core entry, recorded on pool worker threads only (worker_only),
        # where it is the root that attributes worker time to core
        ("repro.core.blocking35d", "Blocking35D", "execute_step", "core.step"),
    ],
    "resilience": [
        ("repro.resilience.watchdog", "GuardedSweep", "run", "resilience.guard"),
        ("repro.resilience.sdc", "SdcGuard", "verify_seals", "resilience.sdc"),
        ("repro.resilience.sdc", "SdcGuard", "check_round", "resilience.sdc"),
        ("repro.resilience.sdc", "SdcGuard", "seal", "resilience.sdc"),
        ("repro.resilience.checkpoint", "CheckpointStore", "save",
         "resilience.checkpoint"),
    ],
    "serve": [
        ("repro.serve.server", "JobServer", "dispatch", "serve.socket"),
        ("repro.serve.server", "ServeCore", "submit", "serve.submit"),
        ("repro.serve.admission", "AdmissionController", "admit",
         "serve.admission"),
        ("repro.serve.admission", "BoundedPriorityQueue", "push", "serve.queue"),
        ("repro.serve.journal", "JobJournal", "append", "serve.journal"),
        ("repro.serve.server", "PlanCache", "get", "serve.plan"),
        ("repro.serve.server", None, "make_field", "serve.field"),
        # the worker's per-job entry; there is no public one
        ("repro.serve.server", "ServeCore", "_run_job", "serve.job"),
    ],
}

#: span attributes taken from the call's arguments
_ATTRS = {
    "runtime.spmd": lambda args, kwargs: {"threads": args[0].n_threads},
    "serve.job": lambda args, kwargs: {"id": args[1].record.id},
}

LAYERS = ("cli", "stencils", "perf", "core", "runtime", "resilience", "serve")


class Recorder:
    """Collects spans from wrapped entry points while :attr:`on` is set."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, *, worker_only: bool = False):
        """``fn`` recording one span named ``name`` per call.

        ``worker_only`` records only off the main thread: there the span is
        the root that attributes worker time, while on the main thread an
        enclosing span of the same layer already covers it.
        """
        rec = self
        attrs_of = _ATTRS.get(name)
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        main_ident = threading.main_thread().ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on or (worker_only and get_ident() == main_ident):
                return fn(*args, **kwargs)
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                attrs = attrs_of(args, kwargs) if attrs_of else None
                rec.spans.append(
                    (sid, parent, get_ident(), name, t0, t1, attrs))

        return wrapper

    def take(self) -> list[tuple]:
        """The spans recorded so far; the recorder starts a new list."""
        spans, self.spans = self.spans, []
        return spans

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, name: str, **kw) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        wrapped = self.wrap(orig, name, **kw)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))
        if not isinstance(owner, type):
            # module-level functions are also bound by ``from m import f``
            # in other modules: rebind those names too
            for mod in list(sys.modules.values()):
                if (mod is not owner and getattr(mod, "__name__", "")
                        .startswith("repro")
                        and getattr(mod, attr, None) is orig):
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    def install(self, groups) -> None:
        """Wrap the entry points of ``groups`` (keys of :data:`PATCHES`) and
        every rung kernel entry: ``compute_plane`` / ``compute_plane_inplace``
        of each plane-kernel class, the fused runners' ``run_iteration`` and
        the codegen runner's ``run``.
        """
        import repro.cli  # noqa: F401  (loads every layer's modules)
        import repro.serve  # noqa: F401

        for group in groups:
            for module, cls, attr, name in PATCHES[group]:
                mod = importlib.import_module(module)
                owner = getattr(mod, cls) if cls else mod
                self._patch(owner, attr, name,
                            worker_only=(name == "core.step"))
        for owner, attr in _kernel_entries():
            self._patch(owner, attr, "kernel")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def _kernel_entries():
    import repro.lbm  # noqa: F401
    import repro.perf.codegen as codegen
    import repro.perf.fused as fused
    from repro.stencils.base import PlaneKernel

    seen, todo = [], [PlaneKernel]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            for attr in ("compute_plane", "compute_plane_inplace"):
                if attr in sub.__dict__:
                    seen.append((sub, attr))
    for obj in vars(fused).values():
        if isinstance(obj, type) and "run_iteration" in obj.__dict__:
            seen.append((obj, "run_iteration"))
    for obj in vars(codegen).values():
        if (isinstance(obj, type) and obj.__name__.endswith("Runner")
                and "run" in obj.__dict__):
            seen.append((obj, "run"))
    return seen


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def _base_layer(name: str) -> str:
    return name.split(".", 1)[0]


class Account:
    """Per-layer self times of a set of spans (see the module docstring)."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        by_id = {s[0]: s for s in spans}
        children: dict[int, list[tuple]] = defaultdict(list)
        for s in spans:
            if s[1]:
                children[s[1]].append(s)
        # worker roots hang off the calling thread's open spmd launch
        launches = sorted(
            (s for s in spans if s[3] == "runtime.spmd"), key=lambda s: s[4])
        starts = [s[4] for s in launches]
        parallel: dict[int, list[tuple]] = defaultdict(list)
        logical_parent: dict[int, int] = {}
        for s in spans:
            if s[1] or s[3] == "cli" or not launches:
                continue
            i = bisect.bisect_right(starts, s[4]) - 1
            if i >= 0 and launches[i][2] != s[2] and s[4] <= launches[i][5]:
                parallel[launches[i][0]].append(s)
                logical_parent[s[0]] = launches[i][0]

        self.layer: dict[int, str] = {}
        self.self_ns: dict[int, float] = {}
        scale: dict[int, float] = {}

        def parent_of(s):
            return by_id.get(s[1] or logical_parent.get(s[0], 0))

        def layer_of(s) -> str:
            sid = s[0]
            if sid not in self.layer:
                self.layer[sid] = _resolve(s)
            return self.layer[sid]

        def _resolve(s) -> str:
            name = s[3]
            if name == "stencils.naive":
                p = parent_of(s)
                while p is not None:
                    if p[3] == "resilience.sdc":
                        return "resilience"
                    p = parent_of(p)
                return "stencils"
            if name == "kernel":
                p = parent_of(s)
                while p is not None and p[3] == "kernel":
                    p = parent_of(p)
                if p is not None and p[3] == "stencils.naive":
                    return layer_of(p)
                if p is not None and p[3] == "resilience.sdc":
                    return "resilience"
                return "perf"
            return _base_layer(name)

        # scale: 1 on the calling thread, 1/n inside an n-worker launch
        ordered = sorted(spans, key=lambda s: (s[4], -s[5]))
        for s in ordered:
            p = parent_of(s)
            if s[0] in logical_parent:
                n = (by_id[logical_parent[s[0]]][6] or {}).get("threads", 1)
                scale[s[0]] = scale.get(logical_parent[s[0]], 1.0) / max(1, n)
            else:
                scale[s[0]] = scale.get(p[0], 1.0) if p is not None else 1.0
        for s in spans:
            dur = s[5] - s[4]
            own = dur - sum(c[5] - c[4] for c in children.get(s[0], ()))
            if s[0] in parallel:
                n = max(1, (s[6] or {}).get("threads", 1))
                own -= sum(c[5] - c[4] for c in parallel[s[0]]) / n
            self.self_ns[s[0]] = own * scale[s[0]]
            layer_of(s)

    def by_layer(self) -> dict[str, float]:
        """Self ns per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for sid, ns in self.self_ns.items():
            out[self.layer[sid]] = out.get(self.layer[sid], 0.0) + ns
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(s[5] - s[4]) / 1e6 for s in self.spans if s[3] == name]

    def count_top(self, name: str, layer: str) -> int:
        """Spans named ``name`` in ``layer`` not nested in another of them."""
        by_id = {s[0]: s for s in self.spans}
        n = 0
        for s in self.spans:
            if s[3] == name and self.layer[s[0]] == layer:
                p = by_id.get(s[1])
                n += p is None or p[3] != name
        return n

    def roots_of(self, name: str) -> dict[int, int]:
        """span id -> id of the enclosing span named ``name`` (same thread)."""
        out: dict[int, int] = {}
        for s in sorted(self.spans, key=lambda s: (s[4], -s[5])):
            if s[3] == name:
                out[s[0]] = s[0]
            elif s[1] in out:
                out[s[0]] = out[s[1]]
        return out

    def layer_self_ms(self, layer: str, name: str) -> float:
        """Self ms of the spans named ``name`` attributed to ``layer``."""
        return sum(self.self_ns[s[0]] for s in self.spans
                   if s[3] == name and self.layer[s[0]] == layer) / 1e6


def trace_events(spans: list[tuple], account: Account, pid: int,
                 t0_ns: int) -> list[dict]:
    """``repro.trace/v1`` complete events for ``spans`` (times in µs)."""
    tids: dict[int, int] = {}
    events = []
    for s in sorted(spans, key=lambda s: s[4]):
        args = {"layer": account.layer[s[0]],
                "self_us": account.self_ns[s[0]] / 1e3}
        if s[6]:
            args.update(s[6])
        events.append({
            "name": s[3], "cat": "perfbench", "ph": "X",
            "ts": (s[4] - t0_ns) / 1e3, "dur": (s[5] - s[4]) / 1e3,
            "pid": pid, "tid": tids.setdefault(s[2], len(tids)),
            "args": args,
        })
    return events
