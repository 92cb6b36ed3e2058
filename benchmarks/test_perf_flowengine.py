"""Flow-engine churn microbenches (perf-regression harness).

Unlike the figure benches (which assert the *shape* of a paper result),
these measure the raw cost of the engine's hot path: flows arriving and
departing on a TeraGrid-like topology, each arrival/departure triggering a
rate re-solve. The scenario is built so the link-sharing graph has four
disjoint components (SDSC→NCSA, ANL→PSC, Caltech→SDSC, NCSA→ANL meshes) —
an arrival in one mesh must not trigger a full re-solve of the others.

``churn_small`` covers the other end: a few hosts behind one gateway and
at most eight concurrent flows, so every re-solve is a component of a
handful of columns — the size most solves in the file-system scenarios
have, where per-solve overhead rather than arithmetic is the cost.

Each bench appends its ops/s (flow completions per wall-clock second) to
``BENCH_flowengine.json`` in the repo root so successive PRs accumulate a
perf trajectory. Run with::

    pytest benchmarks/test_perf_flowengine.py --benchmark-only
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.net import FlowEngine, Network, TcpModel
from repro.sim.profile import PROFILE
from repro.topology.teragrid import add_teragrid_backbone
from repro.util.units import Gbps, MB

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_flowengine.json"

#: Ordered site pairs whose routed paths share no directed link — four
#: independent components in the link-sharing graph.
GROUPS = (("sdsc", "ncsa"), ("anl", "psc"), ("caltech", "sdsc"), ("ncsa", "anl"))


def churn_topology(hosts_per_group: int = 8) -> Network:
    """TeraGrid backbone plus per-group host meshes."""
    net = Network()
    add_teragrid_backbone(net)
    for gi, (a, b) in enumerate(GROUPS):
        for h in range(hosts_per_group):
            net.add_host(f"{a}-g{gi}src{h}", f"{a}-sw", Gbps(10), site=a)
            net.add_host(f"{b}-g{gi}dst{h}", f"{b}-sw", Gbps(10), site=b)
    return net


def run_churn(
    nflows: int,
    hosts_per_group: int = 8,
    stagger: float = 0.004,
    window: float = MB(4),
) -> dict:
    """Drive ``nflows`` staggered transfers to completion; return stats.

    Flow ``i`` belongs to group ``i % 4`` and starts at a staggered offset,
    so arrivals and departures interleave: the engine re-solves rates on
    every one of ~2*nflows membership changes while hundreds of flows are
    concurrently active.
    """
    sim_t0 = time.perf_counter()
    from repro.sim import Simulation

    sim = Simulation()
    net = churn_topology(hosts_per_group)
    engine = FlowEngine(sim, net, default_tcp=TcpModel(window=window))

    total_bytes = 0.0
    peak = 0

    def starter(sim, gi, k, nbytes):
        yield sim.timeout(k * stagger)
        a, b = GROUPS[gi]
        src = f"{a}-g{gi}src{k % hosts_per_group}"
        dst = f"{b}-g{gi}dst{(k // hosts_per_group) % hosts_per_group}"
        yield engine.transfer(src, dst, nbytes, tags=(f"g{gi}",))

    for i in range(nflows):
        gi = i % len(GROUPS)
        k = i // len(GROUPS)
        nbytes = MB(8) * (1 + (i % 4))
        total_bytes += nbytes
        sim.process(starter(sim, gi, k, nbytes))

    t0 = time.perf_counter()
    while sim.peek() != float("inf"):
        sim.step()
        peak = max(peak, engine.active_count)
    elapsed = time.perf_counter() - t0

    assert engine.active_count == 0
    assert engine.completed_flows == nflows
    assert engine.bytes_moved == pytest.approx(total_bytes)
    return {
        "nflows": nflows,
        "elapsed_s": elapsed,
        "setup_s": t0 - sim_t0,
        "ops_per_s": nflows / elapsed,
        "peak_concurrent": peak,
        "sim_seconds": sim.now,
        "kernel_events": sim._seq,
    }


def small_topology(hosts: int = 6) -> Network:
    """``hosts`` 1 GbE hosts behind one gateway with a WAN uplink to an origin."""
    net = Network()
    net.add_node("gw", kind="switch")
    net.add_node("origin-sw", kind="switch")
    net.add_link("gw", "origin-sw", Gbps(2), delay=0.005)
    net.add_host("origin", "origin-sw", Gbps(10))
    for h in range(hosts):
        net.add_host(f"h{h}", "gw", Gbps(1))
    return net


def run_small_churn(nflows: int, hosts: int = 6, streams: int = 8) -> dict:
    """``streams`` back-to-back transfer loops through one gateway.

    Each stream starts its next transfer when the last one completes, so
    at most ``streams`` flows are ever active and every arrival and
    departure re-solves a component of at most ``streams`` columns.
    Transfers alternate direction (reads from and writes to the origin)
    and mix window-capped with link-limited flows.
    """
    sim_t0 = time.perf_counter()
    from repro.sim import Simulation

    sim = Simulation()
    net = small_topology(hosts)
    engine = FlowEngine(sim, net, default_tcp=TcpModel(window=MB(1)))
    wide = TcpModel(window=MB(16))

    def stream(sim, s):
        for k in range(s, nflows, streams):
            host = f"h{k % hosts}"
            src, dst = ("origin", host) if k % 3 else (host, "origin")
            tcp = wide if k % 4 == 0 else None
            yield engine.transfer(src, dst, MB(1) * (1 + k % 5), tcp=tcp)

    total_bytes = sum(MB(1) * (1 + k % 5) for k in range(nflows))
    for s in range(streams):
        sim.process(stream(sim, s))

    peak = 0
    t0 = time.perf_counter()
    while sim.peek() != float("inf"):
        sim.step()
        peak = max(peak, engine.active_count)
    elapsed = time.perf_counter() - t0

    assert peak <= streams
    assert engine.completed_flows == nflows
    assert engine.bytes_moved == pytest.approx(total_bytes)
    return {
        "nflows": nflows,
        "elapsed_s": elapsed,
        "setup_s": t0 - sim_t0,
        "ops_per_s": nflows / elapsed,
        "peak_concurrent": peak,
        "sim_seconds": sim.now,
        "kernel_events": sim._seq,
    }


def _record(name: str, stats: dict) -> None:
    data = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data[name] = {
        "ops_per_s": round(stats["ops_per_s"], 2),
        "elapsed_s": round(stats["elapsed_s"], 3),
        "nflows": stats["nflows"],
        "peak_concurrent": stats["peak_concurrent"],
        "kernel_events": stats["kernel_events"],
    }
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _bench(benchmark, capsys, nflows: int, name: str, run=run_churn) -> dict:
    PROFILE.reset()
    PROFILE.enable()
    try:
        stats = benchmark.pedantic(
            run, args=(nflows,), rounds=1, iterations=1, warmup_rounds=0
        )
    finally:
        PROFILE.disable()
    stats["profile"] = PROFILE.snapshot()["counters"]
    _record(name, stats)
    with capsys.disabled():
        print()
        print(
            f"{name}: {stats['ops_per_s']:.0f} flows/s wall "
            f"({stats['elapsed_s']:.2f}s for {nflows}, "
            f"peak {stats['peak_concurrent']} concurrent, "
            f"{stats['kernel_events']} kernel events)"
        )
    return stats


def test_churn_1k(benchmark, capsys):
    _bench(benchmark, capsys, 1000, "churn_1k")


def test_churn_5k(benchmark, capsys):
    stats = _bench(benchmark, capsys, 5000, "churn_5k")
    prof = stats["profile"]
    # Component partitioning must hold: the scenario has four disjoint
    # meshes, so an incremental solve should touch far fewer flow rows than
    # a full re-solve of every active flow at every event would.
    solved = prof.get("fairshare.solved_rows")
    full = prof.get("flowengine.active_rows")
    if solved is not None and full:
        assert solved < full / 2, (
            f"incremental solver touched {solved} rows vs {full} for a "
            "full per-event re-solve — component partitioning regressed"
        )


def test_churn_small(benchmark, capsys):
    stats = _bench(benchmark, capsys, 5000, "churn_small", run=run_small_churn)
    prof = stats["profile"]
    # Every arrival and departure re-solves its (small) component.
    assert prof.get("fairshare.solves", 0) + prof.get(
        "fairshare.single_flow_solves", 0
    ) > 5000
