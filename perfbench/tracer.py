"""Host-time spans around the simulator's layer entry points.

The tracer is installed from outside: it replaces a fixed list of entry
points (methods and module functions of the simulator) with wrappers that
open a span, and it wraps every process generator so that each generator
*resume* is a span of the layer whose module defined the generator. Event
and bare callbacks that the kernel dispatches are timed the same way, by
the module of the callback's code. Nothing in the simulator is edited and
no simulated behaviour changes: wrappers only read the host clock.

A span holds its name, layer, start, end, parent span and op id. A
layer's self time is its spans' durations minus the part their child
spans cover, so the self times of all layers add up to the traced host
time. Op ids follow the simulated op: a ``pread``/``pwrite`` call, or a
``FlowEngine.transfer`` issued by workload code, opens a new op, and every
process created while that op is current inherits it. Op 0 is work no
single op owns (rate solves, timers, background sweeps).

All spans are aggregated; the first ``max_spans`` are also kept whole and
written at the end as Chrome trace-event JSON.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from types import CodeType
from typing import Callable, Dict, List, Optional, Tuple

perf_ns = time.perf_counter_ns

#: Module path prefix (under ``repro/``) -> layer; the longest match wins.
#: Code in no listed module is layer ``other``: the benchmark's workload
#: drivers, cluster plumbing, messages, auth handshakes.
_MODULE_LAYERS = (
    ("sim/", "kernel"),
    ("net/flow.py", "flow"),
    ("net/fairshare.py", "fairshare"),
    ("core/client.py", "client"),
    ("core/pagepool.py", "client"),
    ("core/nsd.py", "nsd"),
    ("core/tokens.py", "tokens"),
    ("core/replication.py", "replication"),
    ("cache/", "gateway"),
    ("storage/", "storage"),
    ("faults/", "faults"),
)

#: Qualified-name prefixes that belong to another layer than their module:
#: the SAN leg lives in ``core/nsd.py`` but is storage work.
_QUALNAME_LAYERS = (
    ("core/nsd.py", "NsdServer.", "storage"),
)


def _classify(code) -> Tuple[str, str]:
    """(layer, span name) for a code object."""
    path = code.co_filename.replace("\\", "/")
    name = code.co_qualname
    at = path.rfind("/repro/")
    if at < 0:
        return "other", name
    rel = path[at + len("/repro/"):]
    for prefix, qual, layer in _QUALNAME_LAYERS:
        if rel.startswith(prefix) and name.startswith(qual):
            return layer, name
    best = ""
    layer = "other"
    for prefix, owner in _MODULE_LAYERS:
        if rel.startswith(prefix) and len(prefix) > len(best):
            best, layer = prefix, owner
    return layer, name


def _code_of(fn) -> Optional[CodeType]:
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__code__", None)


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.on = False
        self.max_spans = max_spans
        self._stack: List[list] = []  # open spans: [span id, child ns]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.dropped = 0
        self._next_id = 1
        self.op = 0
        self._next_op = 1
        self.gen_layer = "other"
        self.peaks: Dict[str, int] = defaultdict(int)
        self._classes: Dict[object, Tuple[str, str]] = {}
        self.epoch = perf_ns()

    def reset_totals(self) -> None:
        """Start a new aggregation window (kept spans stay)."""
        self.self_ns.clear()
        self.total_ns.clear()
        self.calls.clear()
        self.peaks.clear()

    def classify(self, fn) -> Tuple[str, str]:
        """(layer, span name) for a callable or a code object."""
        code = fn if isinstance(fn, CodeType) else _code_of(fn)
        if code is None:
            return "kernel", type(fn).__name__
        hit = self._classes.get(code)
        if hit is None:
            hit = self._classes[code] = _classify(code)
        return hit

    def new_op(self) -> int:
        op = self._next_op
        self._next_op = op + 1
        self.op = op
        return op

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span."""
        sid = self._next_id
        self._next_id = sid + 1
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        frame = [sid, 0]
        stack.append(frame)
        op = self.op
        t0 = perf_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_ns()
            stack.pop()
            dur = t1 - t0
            self.self_ns[layer] += dur - frame[1]
            self.total_ns[name] += dur
            self.calls[name] += 1
            if stack:
                stack[-1][1] += dur
            if len(self.spans) < self.max_spans:
                self.spans.append((name, layer, t0, t1, parent, op, sid))
            else:
                self.dropped += 1

    # -- output ------------------------------------------------------------------

    def write_chrome(self, path: str) -> None:
        """Kept spans as Chrome trace-event JSON; one row (tid) per op."""
        events = [
            {
                "name": name, "cat": layer, "ph": "X",
                "ts": (t0 - self.epoch) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": 1, "tid": op,
                "args": {"id": sid, "parent": parent, "op": op},
            }
            for name, layer, t0, t1, parent, op, sid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"dropped_spans": self.dropped}},
                fh,
            )


class _TimedGen:
    """Generator proxy: every resume (send/throw) is one span."""

    __slots__ = ("gen", "tracer", "name", "layer", "op")

    def __init__(self, gen, tracer: Tracer, layer: str, name: str) -> None:
        self.gen = gen
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.op = tracer.op

    def _resume(self, fn, arg):
        tr = self.tracer
        prev_op, prev_layer = tr.op, tr.gen_layer
        tr.op = self.op
        tr.gen_layer = self.layer
        try:
            return tr.call(self.name, self.layer, fn, arg)
        finally:
            self.op = tr.op  # a new op opened during this resume sticks
            tr.op, tr.gen_layer = prev_op, prev_layer

    def send(self, value):
        return self._resume(self.gen.send, value)

    def throw(self, exc):
        return self._resume(self.gen.throw, exc)

    def close(self):
        return self.gen.close()


class Instrumentation:
    """Installs the span wrappers and collects layer instances.

    ``install()`` patches the simulator's classes in place and
    ``uninstall()`` restores them. Instances of the layer classes created
    while installed are collected, so counters can be read from every
    simulation a workload builds. An entry point that no longer exists
    is reported on stderr and left untraced.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []
        self.instances: Dict[str, list] = defaultdict(list)
        self.missing: List[str] = []

    # -- patching helpers ------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr)
        else:
            orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _span(self, owner, attr: str, layer: str, hook=None,
              opens_op: Optional[Callable[[], bool]] = None) -> None:
        """Wrap ``owner.attr`` in a span of ``layer``.

        ``hook(args, kwargs, result)`` runs after a traced call; ``opens_op()``
        decides whether the call starts a new simulated op.
        """
        tr = self.tracer

        def make(orig):
            name = orig.__qualname__

            def wrapper(*args, **kwargs):
                if not tr.on:
                    return orig(*args, **kwargs)
                if opens_op is not None and opens_op():
                    tr.new_op()
                out = tr.call(name, layer, orig, *args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, out)
                return out

            wrapper.__perfbench_span__ = True
            return wrapper

        self._patch(owner, attr, make)

    def _collect(self, cls, key: str) -> None:
        bucket = self.instances[key]

        def make(orig):
            def __init__(self, *args, **kwargs):
                orig(self, *args, **kwargs)
                bucket.append(self)
            return __init__

        self._patch(cls, "__init__", make)

    # -- install -----------------------------------------------------------------

    def install(self) -> None:
        from repro.cache.gateway import CacheGateway
        from repro.core.client import MountedFs
        from repro.core.pagepool import PagePool
        from repro.core.nsd import NsdServer, NsdService
        from repro.core.replication import ReplicaManager
        from repro.core.tokens import TokenClient, TokenManager
        from repro.net import fairshare as fs_mod
        from repro.net.flow import FlowEngine
        from repro.sim import kernel as k
        from repro.storage.pipes import Pipe

        tr = self.tracer

        # Kernel: the run loop is the root span; every process generator
        # resume and every dispatched callback is a span of its own layer.
        self._span(k.Simulation, "run", "kernel")

        def make_process(orig):
            def process(sim, gen, name=""):
                code = getattr(gen, "gi_code", None)
                if tr.on and code is not None:
                    layer, qual = tr.classify(code)
                    name = name or gen.__name__
                    gen = _TimedGen(gen, tr, layer, qual)
                return orig(sim, gen, name)
            return process

        self._patch(k.Simulation, "process", make_process)

        def timed(fn) -> Optional[Tuple[str, str]]:
            """(layer, name) to time ``fn`` under, or None to call it bare."""
            if getattr(getattr(fn, "__func__", fn), "__perfbench_span__", False):
                return None  # a wrapper above: it opens its own span
            hit = tr.classify(fn)
            return None if hit[0] == "kernel" else hit

        def timed_cb(cb):
            hit = timed(cb)
            if hit is None:
                return cb
            return lambda evt: tr.call(hit[1], hit[0], cb, evt)

        resume = k.Process._resume

        def make_event_process(orig):
            def _process(evt):
                cbs = evt.callbacks
                # Fast path: one waiting process, resumed by the kernel.
                if tr.on and cbs and (
                    len(cbs) > 1 or getattr(cbs[0], "__func__", None) is not resume
                ):
                    evt.callbacks = [timed_cb(cb) for cb in cbs]
                return orig(evt)
            return _process

        self._patch(k.Event, "_process", make_event_process)

        def make_callback_process(orig):
            def _process(entry):
                hit = timed(entry.fn) if tr.on else None
                if hit is None:
                    return orig(entry)
                return tr.call(hit[1], hit[0], orig, entry)
            return _process

        self._patch(k._Callback, "_process", make_callback_process)

        # Network: the flow engine's entry and its rate recompute; the
        # fair-share solve, its water-fill and the exact drain. A transfer
        # issued by workload code is one op (the fleet workload's op).
        self._span(FlowEngine, "transfer", "flow",
                   opens_op=lambda: tr.gen_layer == "other")

        def on_recompute(args, kwargs, out):
            engine = args[0]
            tr.peak("flows", len(engine.flows))
            tr.peak("classes", engine.class_count())

        self._span(FlowEngine, "_recompute", "flow", hook=on_recompute)
        def on_solve(args, kwargs, out):
            tr.peak("cols", args[0].class_stats()[0])

        self._span(fs_mod.FairshareState, "solve", "fairshare", hook=on_solve)
        self._span(fs_mod, "_water_fill", "fairshare")
        self._span(fs_mod, "_exact_drain", "fairshare")

        # Client, NSD protocol, tokens, gateway, storage: their public
        # entry points (their process bodies are timed per resume above).
        for attr in ("open", "fsync", "close"):
            self._span(MountedFs, attr, "client")

        def on_pread(args, kwargs, out):
            mount, _handle, offset, length = args[:4]
            if length > 0:
                bs = mount.fs.block_size
                tr.calls["client.blocks_demanded"] += (
                    (offset + length - 1) // bs - offset // bs + 1
                )

        self._span(MountedFs, "pread", "client", hook=on_pread,
                   opens_op=lambda: True)
        self._span(MountedFs, "pwrite", "client", opens_op=lambda: True)
        self._span(PagePool, "put_clean", "client")
        for attr in ("read_block", "write_block", "read_blocks"):
            self._span(NsdService, attr, "nsd")

        def on_write_blocks(args, kwargs, out):
            items = args[3] if len(args) > 3 else kwargs["items"]
            if len(items) == 1:  # delegated to write_block
                tr.calls["nsd.delegated"] += 1

        self._span(NsdService, "write_blocks", "nsd", hook=on_write_blocks)
        self._span(TokenClient, "ensure", "tokens")
        self._span(TokenManager, "acquire", "tokens")
        for attr in ("read_block", "write_block", "flush_barrier"):
            self._span(CacheGateway, attr, "gateway")
        self._span(Pipe, "transfer", "storage")

        def on_fast(args, kwargs, out):
            if out:
                tr.calls["storage.fast_ios"] += 1

        self._span(Pipe, "fast_transfer", "storage", hook=on_fast)
        self._span(NsdServer, "disk_io", "storage")

        for cls, key in (
            (k.Simulation, "sims"), (FlowEngine, "engines"),
            (fs_mod.FairshareState, "states"),
            (NsdService, "services"), (TokenManager, "token_managers"),
            (CacheGateway, "gateways"), (ReplicaManager, "replica_managers"),
        ):
            self._collect(cls, key)
        if self.missing:
            print(
                "perfbench: entry points not found, not traced: "
                + ", ".join(self.missing),
                file=sys.stderr,
            )

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def clear_instances(self) -> None:
        for bucket in self.instances.values():
            bucket.clear()
