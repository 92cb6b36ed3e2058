"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics, measured with no
instrumentation; host times are scaled to a nominal host speed by probes
of a fixed yardstick (hostspeed.py). With ``--trace 1`` half the time
runs untraced and half traced, and the metrics are the per-layer metrics
plus ``trace.overhead``; the kept spans and a per-layer table are
written to ``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 0

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ok_ratio": "ratio",
    "sim_goodput_MBps": "MB/s",
    "sim_op_mean_ms": "ms",
    "sim_op_p99_ms": "ms",
}


#: Untraced host figures printed beside the per-layer metrics.
HOST_UNITS = {"host.raw_ops_per_s": "ops/s", "host.probe_steps_per_s": "steps/s"}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Keygen:
    """Times ``Cluster.mmauth_genkey`` (the set-up's auth key generation)."""

    def __init__(self) -> None:
        from repro.core.cluster import Cluster

        self.seconds = 0.0
        orig = Cluster.mmauth_genkey
        keygen = self

        def mmauth_genkey(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                keygen.seconds += time.perf_counter() - t0

        Cluster.mmauth_genkey = mmauth_genkey


@dataclass
class Sample:
    """One episode as measured: its simulated results and host costs."""

    ep: object  # workloads.Episode
    timed_s: float  # host seconds of the timed episode
    scaled_s: float  # ... scaled to nominal host speed (0 if not probed)
    probes: list  # host speeds probed around its set-up, then in the episode
    setup_s: float  # host seconds of its set-up, scaled if probed
    problems: list  # failed output checks
    rss_kb: int  # peak resident memory so far


def run_episodes(wl, plan, budget_s: float, keygen: Keygen, tracer=None,
                 on_episode=None, probing: bool = True) -> list:
    """Set up and run episodes until ``budget_s`` of timed host time.

    Set-ups and episodes probe the host's speed as they run
    (``hostspeed``), unless ``probing`` is off or they are traced. With a
    ``tracer``, tracing is on for the timed episodes only, and
    ``on_episode("start", state)`` / ``on_episode("end", (episode, keygen
    seconds))`` bracket each of them.
    """
    import hostspeed  # here, not at the top: it loads numpy, which setup_s times

    probing = probing and tracer is None
    out = []
    spent = 0.0
    while not out or spent < budget_s:
        keygen.seconds = 0.0
        timer = hostspeed.ScaledTimer(probing)
        state = wl.setup(plan)
        timer.stop()
        setup_s = timer.scaled_s if probing else timer.raw_s
        setup_probes = timer.speeds
        keygen_s = keygen.seconds
        gc.collect()
        if tracer is not None:
            on_episode("start", state)
            tracer.on = True
        timer = hostspeed.ScaledTimer(probing)
        try:
            ep = wl.run(state, timer.tick)
        finally:
            timer.stop()
            if tracer is not None:
                tracer.on = False
        problems = wl.check(state, ep)
        if tracer is not None:
            on_episode("end", (ep, keygen_s))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.append(Sample(ep, timer.raw_s, timer.scaled_s,
                          setup_probes + timer.speeds, setup_s, problems, rss_kb))
        spent += timer.raw_s
        del state
    return out


def raw_ops_per_s(runs: list) -> float:
    """Median over episodes of ops per host second, as timed."""
    return statistics.median(r.ep.ops / r.timed_s for r in runs)


def ops_per_s(runs: list) -> float:
    """Median over episodes of ops per host second at nominal host speed.

    Each episode's host time is scaled by the host speed probed while it
    ran, which takes out the shared host's drift (see hostspeed.py).
    """
    return statistics.median(r.ep.ops / r.scaled_s for r in runs)


def end_to_end(warm: Sample, runs: list, import_s: float, ok_ratio: float) -> dict:
    from hostspeed import NOMINAL

    lat_ms = [x * 1e3 for x in warm.ep.latencies]
    first = warm.ep
    # The import ran before any probe (the warm-up is not probed, so that
    # peak_rss_mb leaves out the probe's working set): scale it by the
    # probes around the first timed set-up, the nearest ones.
    speed = statistics.fmean(runs[0].probes[:2])
    return {
        "ops_per_s": ops_per_s(runs),
        "setup_s": import_s * speed / NOMINAL
        + statistics.median(r.setup_s for r in runs),
        # Set-up plus one episode, before the first probe: independent of
        # how many episodes fit.
        "peak_rss_mb": warm.rss_kb / 1024.0,
        "op_ok_ratio": ok_ratio,
        "sim_goodput_MBps": first.bytes / first.sim_s / 1e6,
        "sim_op_mean_ms": statistics.fmean(lat_ms),
        "sim_op_p99_ms": percentile(lat_ms, 99),
    }


def output_problems(name: str, seed: int, runs: list) -> list:
    """Every episode's checks, plus: episodes repeat exactly, and the
    default seed matches its pinned fingerprint."""
    problems = [p for r in runs for p in r.problems]
    prints = [r.ep.fingerprint() for r in runs]
    if any(fp != prints[0] for fp in prints[1:]):
        problems.append("episodes of one seed differ in their simulated results")
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "fingerprints.json")) as fh:
            pinned = json.load(fh).get(name)
        if pinned != prints[0]:
            problems.append(
                f"fingerprint {json.dumps(prints[0], sort_keys=True)} "
                f"!= pinned {json.dumps(pinned, sort_keys=True)}"
            )
    return sorted(set(problems))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    t0 = time.perf_counter()
    import workloads  # imports the simulator

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    keygen = Keygen()
    wl = workloads.WORKLOADS[args.workload]()
    plan = wl.plan(args.seed)

    # Warm-up: one episode, untimed, that fills lazy caches and gives the
    # peak memory of set-up plus one episode.
    warm = run_episodes(wl, plan, 0.0, keygen, probing=False)[0]
    if args.trace:
        from layers import PER_LAYER_UNITS, trace_layers

        runs = run_episodes(wl, plan, args.seconds / 2, keygen)
        values, traced = trace_layers(
            run_episodes, wl, plan, args.seconds / 2, keygen, raw_ops_per_s(runs),
            args.workload, args.seed, OUT_DIR,
        )
        values["host.raw_ops_per_s"] = raw_ops_per_s(runs)
        values["host.probe_steps_per_s"] = statistics.median(
            p for r in runs for p in r.probes)
        runs += traced
        units = {**PER_LAYER_UNITS, **HOST_UNITS}
    else:
        runs = run_episodes(wl, plan, args.seconds, keygen)
        units = END_TO_END_UNITS

    # A failed check fails every op of the run. An op that raises stops
    # the simulation, and with it the run.
    problems = output_problems(args.workload, args.seed, [warm] + runs)
    attempted = sum(r.ep.ops for r in [warm] + runs)
    failed = attempted if problems else 0
    if not args.trace:
        values = end_to_end(warm, runs, import_s, (attempted - failed) / attempted)
    print(f"perfbench {args.workload} seed={args.seed}: warm-up + {len(runs)} "
          f"episodes of {warm.ep.ops} ops; "
          f"fingerprint {json.dumps(warm.ep.fingerprint())}")
    print("  episode ops/s: " + " ".join(f"{r.ep.ops / r.timed_s:.1f}" for r in runs))
    print("  scaled ops/s:  " + " ".join(
        f"{r.ep.ops / r.scaled_s:.1f}" for r in runs if r.scaled_s))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
