"""Per-layer metrics from a traced run.

Counts come from the layers' own counters (summed over every instance a
traced episode created, as deltas over the timed region) and from the
span wrappers' call counts; host times come from the spans. Every value
is per episode, the median over the traced episodes.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Tuple

from tracer import Instrumentation, Tracer

#: name -> unit, in report order.
PER_LAYER_UNITS = {
    "kernel.events": "count",
    "kernel.events_per_op": "count",
    "kernel.self_s": "s",
    "flow.transfers": "count",
    "flow.recomputes": "count",
    "flow.recompute_s": "s",
    "flow.self_s": "s",
    "flow.flows_peak": "count",
    "fairshare.solves": "count",
    "fairshare.solved_rows": "count",
    "fairshare.solve_s": "s",
    "fairshare.water_fill_s": "s",
    "fairshare.drain_s": "s",
    "fairshare.self_s": "s",
    "fairshare.cols_peak": "count",
    "fairshare.agg_ratio": "ratio",
    "client.ops": "count",
    "client.self_s": "s",
    "client.pagepool_hit_ratio": "ratio",
    "nsd.rpcs": "count",
    "nsd.blocks": "count",
    "nsd.blocks_per_rpc": "ratio",
    "nsd.retries": "count",
    "nsd.self_s": "s",
    "tokens.grants": "count",
    "tokens.revokes": "count",
    "tokens.self_s": "s",
    "gateway.hits": "count",
    "gateway.misses": "count",
    "gateway.hit_ratio": "ratio",
    "gateway.origin_MB": "MB",
    "gateway.writes_flushed": "count",
    "gateway.self_s": "s",
    "storage.ios": "count",
    "storage.self_s": "s",
    "replication.read_repairs": "count",
    "replication.self_s": "s",
    "faults.actions": "count",
    "faults.self_s": "s",
    "auth.keygen_s": "s",
    "other.self_s": "s",
    "trace.overhead": "ratio",
}

#: counter name -> (instance bucket, reader)
_COUNTERS = {
    "events": ("sims", lambda s: s._seq),
    "recomputes": ("engines", lambda e: e.recomputes),
    "solves": ("states", lambda s: s.solves),
    "solved_rows": ("states", lambda s: s.solved_rows),
    "nsd_blocks": ("services", lambda s: s.blocks_read + s.blocks_written),
    "nsd_retries": ("services", lambda s: s.retries),
    "grants": ("token_managers", lambda t: t.grants),
    "revokes": ("token_managers", lambda t: t.revokes),
    "gw_hits": ("gateways", lambda g: g.cache.hits),
    "gw_misses": ("gateways", lambda g: g.cache.misses),
    "gw_origin": ("gateways", lambda g: g.origin_bytes),
    "gw_flushed": ("gateways", lambda g: g.writes_flushed),
    "read_repairs": ("replica_managers", lambda r: r.read_repairs),
}


def _counters(instances) -> Dict[str, float]:
    return {
        name: float(sum(read(x) for x in instances.get(bucket, ())))
        for name, (bucket, read) in _COUNTERS.items()
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _episode_metrics(tr: Tracer, d: Dict[str, float], ep, keygen_s: float) -> Dict[str, float]:
    s = {layer: ns / 1e9 for layer, ns in tr.self_ns.items()}
    total = {name: ns / 1e9 for name, ns in tr.total_ns.items()}
    calls = tr.calls
    flows, classes = tr.peaks.get("flows", 0), tr.peaks.get("classes", 0)
    demanded = calls["client.blocks_demanded"]
    rpcs = (calls["NsdService.read_block"] + calls["NsdService.write_block"]
            + calls["NsdService.read_blocks"] + calls["NsdService.write_blocks"]
            - calls["nsd.delegated"])
    gw_lookups = d["gw_hits"] + d["gw_misses"]
    return {
        "kernel.events": d["events"],
        "kernel.events_per_op": _ratio(d["events"], ep.ops),
        "kernel.self_s": s.get("kernel", 0.0),
        "flow.transfers": float(calls["FlowEngine.transfer"]),
        "flow.recomputes": d["recomputes"],
        "flow.recompute_s": total.get("FlowEngine._recompute", 0.0),
        "flow.self_s": s.get("flow", 0.0),
        "flow.flows_peak": float(flows),
        "fairshare.solves": d["solves"],
        "fairshare.solved_rows": d["solved_rows"],
        "fairshare.solve_s": total.get("FairshareState.solve", 0.0),
        "fairshare.water_fill_s": total.get("_water_fill", 0.0),
        "fairshare.drain_s": total.get("_exact_drain", 0.0),
        "fairshare.self_s": s.get("fairshare", 0.0),
        "fairshare.cols_peak": float(tr.peaks.get("cols", 0)),
        "fairshare.agg_ratio": _ratio(flows, classes),
        "client.ops": float(sum(calls[f"MountedFs.{a}"] for a in
                                ("open", "pread", "pwrite", "fsync", "close"))),
        "client.self_s": s.get("client", 0.0),
        "client.pagepool_hit_ratio": max(
            0.0, 1.0 - _ratio(calls["PagePool.put_clean"], demanded)
        ) if demanded else 0.0,
        "nsd.rpcs": float(rpcs),
        "nsd.blocks": d["nsd_blocks"],
        "nsd.blocks_per_rpc": _ratio(d["nsd_blocks"], rpcs),
        "nsd.retries": d["nsd_retries"],
        "nsd.self_s": s.get("nsd", 0.0),
        "tokens.grants": d["grants"],
        "tokens.revokes": d["revokes"],
        "tokens.self_s": s.get("tokens", 0.0),
        "gateway.hits": d["gw_hits"],
        "gateway.misses": d["gw_misses"],
        "gateway.hit_ratio": _ratio(d["gw_hits"], gw_lookups),
        "gateway.origin_MB": d["gw_origin"] / 1e6,
        "gateway.writes_flushed": d["gw_flushed"],
        "gateway.self_s": s.get("gateway", 0.0),
        "storage.ios": float(calls["Pipe.transfer"] + calls["storage.fast_ios"]
                             + calls["NsdServer.disk_io"]),
        "storage.self_s": s.get("storage", 0.0),
        "replication.read_repairs": d["read_repairs"],
        "replication.self_s": s.get("replication", 0.0),
        "faults.actions": ep.counts.get("actions", 0.0),
        "faults.self_s": s.get("faults", 0.0),
        "auth.keygen_s": keygen_s,
        "other.self_s": s.get("other", 0.0),
    }


def _coverage(workload: str, m: Dict[str, float]) -> List[str]:
    """Each workload must keep loading the layer it was chosen for."""
    need: List[Tuple[bool, str]] = []
    if workload == "fleet":
        need = [
            (m["client.ops"] == 0, "fleet called the client"),
            (m["nsd.rpcs"] == 0, "fleet called the NSD protocol"),
            (m["gateway.hits"] + m["gateway.misses"] == 0, "fleet called a gateway"),
            (m["fairshare.agg_ratio"] >= 10, "fleet aggregation ratio below 10"),
        ]
    elif workload == "sc04_rw":
        need = [(m["tokens.revokes"] > 0, "sc04_rw saw no token revokes")]
    elif workload == "edge_cache":
        need = [
            (m["gateway.hits"] > 0, "edge_cache saw no gateway hits"),
            (m["gateway.misses"] > 0, "edge_cache saw no gateway misses"),
            (m["gateway.writes_flushed"] > 0, "edge_cache flushed no writes"),
        ]
    elif workload == "integrity":
        need = [
            (m["faults.actions"] > 0, "integrity injected no faults"),
            (m["replication.read_repairs"] > 0, "integrity repaired no replica"),
        ]
    return [what for ok, what in need if not ok]


def trace_layers(run_episodes, wl, plan, budget_s, keygen, plain_ops_per_s,
                 workload, seed, out_dir):
    """Run traced episodes; return ({metric: value}, traced samples).

    Also writes the kept spans (Chrome trace JSON) and the per-layer
    table to ``out_dir``.
    """
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    per_episode: List[Dict[str, float]] = []
    start: Dict[str, Dict[str, float]] = {}

    def on_episode(phase, payload):
        if phase == "start":
            tracer.reset_totals()
            start["c"] = _counters(inst.instances)
            return
        ep, keygen_s = payload
        end = _counters(inst.instances)
        delta = {k: end[k] - start["c"][k] for k in end}
        per_episode.append(_episode_metrics(tracer, delta, ep, keygen_s))
        inst.clear_instances()

    try:
        runs = run_episodes(wl, plan, budget_s, keygen, tracer, on_episode)
    finally:
        inst.uninstall()
    values = {
        name: statistics.median(m[name] for m in per_episode)
        for name in per_episode[0]
    }
    traced = statistics.median(r.ep.ops / r.timed_s for r in runs)
    values["trace.overhead"] = 1.0 - traced / plain_ops_per_s
    runs[0].problems.extend(_coverage(workload, values))

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    tracer.write_chrome(stem + ".trace.json")
    traced_s = statistics.median(r.timed_s for r in runs)
    with open(stem + ".layers.txt", "w") as fh:
        fh.write(f"{workload} seed={seed}: per episode, median of "
                 f"{len(runs)} traced episodes ({traced_s:.3f} s traced each)\n")
        for name, unit in PER_LAYER_UNITS.items():
            v = values[name]
            share = (f"  {100 * v / traced_s:5.1f}% of traced time"
                     if name.endswith("self_s") else "")
            fh.write(f"{name:28s} {v:14.6g} {unit}{share}\n")
    return {k: values[k] for k in PER_LAYER_UNITS}, runs
