"""The benchmark's four workloads, each driving the simulator's public API.

Every workload is closed-loop: each simulated client issues its next op
only when its previous op has completed. All load runs in one host
process and one thread. A workload splits into

* ``plan(seed)`` — the seeded inputs (stagger, sizes, skew, mix, rot);
* ``setup(plan)`` — build the topology, mount, pre-stage and pre-warm;
  host time here is ``setup_s``;
* ``run(state, tick)`` — the timed episode, calling ``tick()`` after
  every op; returns an :class:`Episode`;
* ``check(state, episode)`` — output checks and coverage assertions on
  the simulated results, returning the problems found.

One episode is the same fixed amount of simulated work for a given seed,
so its simulated results repeat exactly; the runner repeats episodes to
fill the measuring time.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cache import CacheGateway, GatewayBlockCache
from repro.core.client import MountedFs
from repro.core.cluster import Gfs, NsdSpec
from repro.core.replication import ReplicationPolicy
from repro.experiments.e17_fleet import build_fleet_network
from repro.faults import FaultSchedule, attach_faults
from repro.net.flow import FlowEngine
from repro.net.tcp import TcpModel
from repro.sim.kernel import Simulation
from repro.topology.sc04 import build_sc04
from repro.util.units import Gbps, KiB, MiB


@dataclass
class Episode:
    """What one timed episode did, in simulated terms."""

    ops: int = 0
    bytes: float = 0.0  # simulated bytes the ops moved
    sim_s: float = 0.0  # simulated seconds the ops spanned
    latencies: List[float] = field(default_factory=list)  # per op, sim s
    counts: Dict[str, float] = field(default_factory=dict)

    def fingerprint(self) -> Dict[str, object]:
        """Simulated observables that a host-speed change must not move."""
        digest = hashlib.sha256(
            ",".join(x.hex() for x in self.latencies).encode()
        ).hexdigest()[:16]
        return {
            "ops": self.ops,
            "sim_s": self.sim_s.hex(),
            "bytes": float(self.bytes).hex(),
            "latency_digest": digest,
        }


def _shuffled(items: list, rng: random.Random) -> list:
    rng.shuffle(items)
    return items


def _spread(n: int, value, rng: random.Random) -> list:
    """``value(u)`` at ``n`` evenly spaced quantiles ``u`` in (0, 1), shuffled.

    The seed decides which client gets which value, not the values: every
    seed draws the same distribution exactly, so aggregate figures stay
    put from seed to seed while each client's inputs change.
    """
    return _shuffled([value((i + 0.5) / n) for i in range(n)], rng)


def _require(problems: List[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# fleet: E17 shape, the rate solver's workload


class Fleet:
    """Logical clients behind shared I/O hosts reading from SDSC servers.

    One op is one ``FlowEngine.transfer``. 256 clients x 6 lanes keep
    1536 flows in flight over at most 8 x 16 = 128 route classes, so
    member flows outnumber solver columns by more than 10x.
    """

    clients = 256
    hosts = 16
    servers = 8
    lanes = 6
    rounds = 2

    def plan(self, seed: int) -> dict:
        rng = random.Random(f"fleet:{seed}")
        n = self.clients * self.lanes * self.rounds
        sizes = _spread(n, lambda u: int(MiB(8) * (1.0 + u)), rng)
        return {
            "stagger": _spread(self.clients, lambda u: u, rng),
            "first": _shuffled([k % self.servers for k in range(self.clients)], rng),
            "sizes": [sizes[i:i + self.rounds] for i in range(0, n, self.rounds)],
        }

    def setup(self, plan: dict) -> dict:
        sim = Simulation()
        net = build_fleet_network(self.servers, self.hosts)
        engine = FlowEngine(
            sim, net, default_tcp=TcpModel(window=MiB(16)), aggregate=True
        )
        return {"plan": plan, "sim": sim, "engine": engine}

    def run(self, state: dict, tick) -> Episode:
        plan, sim, engine = state["plan"], state["sim"], state["engine"]
        ep = Episode()
        lat = ep.latencies
        done = [0] * self.clients
        peak = {"flows": 0, "cols": 0}
        servers = [f"nsd{i:02d}" for i in range(self.servers)]

        def lane(k: int, j: int):
            host = f"ion{k % self.hosts:02d}"
            sizes = plan["sizes"][k * self.lanes + j]
            yield sim.timeout(plan["stagger"][k])
            for r in range(self.rounds):
                src = servers[(plan["first"][k] + j + r * self.lanes) % self.servers]
                t0 = sim.now
                evt = engine.transfer(src, host, sizes[r], tags=("fleet",))
                if engine.active_count > peak["flows"]:
                    peak["flows"] = engine.active_count
                    peak["cols"] = max(peak["cols"], engine.class_count())
                yield evt
                lat.append(sim.now - t0)
                tick()
                done[k] += 1

        bytes0 = engine.bytes_moved
        procs = [
            sim.process(lane(k, j), name=f"cl{k:03d}.{j}")
            for k in range(self.clients)
            for j in range(self.lanes)
        ]
        sim.run(until=sim.all_of(procs))
        ep.ops = len(lat)
        ep.bytes = engine.bytes_moved - bytes0
        ep.sim_s = sim.now
        ep.counts = {
            "requested": float(sum(sum(s) for s in plan["sizes"])),
            "clients_done": float(sum(d == self.lanes * self.rounds for d in done)),
            "agg_ratio": peak["flows"] / peak["cols"] if peak["cols"] else 0.0,
        }
        return ep

    def check(self, state: dict, ep: Episode) -> List[str]:
        p: List[str] = []
        c = ep.counts
        _require(p, ep.bytes == c["requested"],
                 f"bytes moved {ep.bytes} != bytes requested {c['requested']}")
        _require(p, c["clients_done"] == self.clients,
                 f"{self.clients - c['clients_done']:.0f} clients did not finish every round")
        _require(p, c["agg_ratio"] >= 10.0,
                 f"aggregation ratio {c['agg_ratio']:.1f} < 10")
        return p


# ---------------------------------------------------------------------------
# sc04_rw: E3 shape, the paper's headline data path


class Sc04ReadWrite:
    """SDSC and NCSA WAN clients alternate whole-file read/write phases.

    One op is one 2 MiB ``pread`` or ``pwrite`` through ``MountedFs`` with
    per-block NSD RPCs (``max_coalesce=1``) on a size-only filesystem.
    Files are pre-staged by a show-floor node, so the first write phase
    revokes its write tokens.
    """

    per_site = 24
    servers = 40
    chunk = MiB(2)
    phases = ("read", "write", "read", "write")

    def plan(self, seed: int) -> dict:
        rng = random.Random(f"sc04_rw:{seed}")
        n = 2 * self.per_site
        return {
            "seed": seed,
            "chunks": _shuffled([5 + i % 4 for i in range(n)], rng),
            "stagger": [_spread(n, lambda u: 0.05 * u, rng) for _ in self.phases],
        }

    def setup(self, plan: dict) -> dict:
        sc = build_sc04(
            nsd_servers=self.servers, sdsc_clients=self.per_site,
            ncsa_clients=self.per_site, with_disks=False, store_data=False,
            seed=plan["seed"],
        )
        g = sc.gfs
        mounts = sc.sdsc_mounts + sc.ncsa_mounts
        staging = g.run(until=sc.floor.mmmount("gpfs-sc04", "flr-nsd00"))

        def stage():
            for i, n in enumerate(plan["chunks"]):
                h = yield staging.open(f"/enzo{i:03d}", "w", create=True)
                yield staging.write(h, n * self.chunk)
                yield staging.close(h)

        g.run(until=g.sim.process(stage(), name="stage"))
        return {"plan": plan, "g": g, "fs": sc.fs, "mounts": mounts}

    def run(self, state: dict, tick) -> Episode:
        plan, g, mounts = state["plan"], state["g"], state["mounts"]
        sim = g.sim
        ep = Episode()
        lat = ep.latencies
        ops = {"read": 0, "write": 0}
        tokens = state["fs"].token_manager
        revokes0 = tokens.revokes
        read0 = sum(m.bytes_read for m in mounts)
        written0 = sum(m.bytes_written for m in mounts)
        t_start = sim.now

        def client(i: int, mount: MountedFs, kind: str, delay: float):
            yield sim.timeout(delay)
            h = yield mount.open(f"/enzo{i:03d}", "r" if kind == "read" else "r+")
            for c in range(plan["chunks"][i]):
                t0 = sim.now
                if kind == "read":
                    yield mount.pread(h, c * self.chunk, self.chunk)
                else:
                    yield mount.pwrite(h, c * self.chunk, self.chunk)
                lat.append(sim.now - t0)
                tick()
                ops[kind] += 1
            yield mount.close(h)
            mount.pool.invalidate(h.inode.ino)

        for p, kind in enumerate(self.phases):
            procs = [
                sim.process(client(i, m, kind, plan["stagger"][p][i]),
                            name=f"ph{p}.c{i}")
                for i, m in enumerate(mounts)
            ]
            g.run(until=sim.all_of(procs))
        ep.ops = len(lat)
        read = sum(m.bytes_read for m in mounts) - read0
        written = sum(m.bytes_written for m in mounts) - written0
        ep.bytes = float(read + written)
        ep.sim_s = sim.now - t_start
        per_pass = sum(plan["chunks"]) * self.chunk
        ep.counts = {
            "read_bytes": float(read),
            "written_bytes": float(written),
            "planned_read": float(per_pass * self.phases.count("read")),
            "planned_written": float(per_pass * self.phases.count("write")),
            "read_ops": float(ops["read"]),
            "write_ops": float(ops["write"]),
            "revokes": float(tokens.revokes - revokes0),
        }
        return ep

    def check(self, state: dict, ep: Episode) -> List[str]:
        p: List[str] = []
        c = ep.counts
        _require(p, c["read_bytes"] == c["planned_read"],
                 f"read {c['read_bytes']} bytes, plan says {c['planned_read']}")
        _require(p, c["written_bytes"] == c["planned_written"],
                 f"wrote {c['written_bytes']} bytes, plan says {c['planned_written']}")
        _require(p, c["read_ops"] > 0 and c["write_ops"] > 0,
                 "read and write phases did not both run")
        _require(p, c["revokes"] > 0, "no token revokes in the write phases")
        return p


# ---------------------------------------------------------------------------
# edge_cache: E15 shape, the caching gateway's workload


class EdgeCache:
    """Edge clients read a skewed working set through a writeback gateway.

    One op is one 1 MiB ``pread`` or ``pwrite``. The working set is twice
    the gateway cache, so the timed region sees both hits and misses
    after the set-up pass has filled the cache. Client page pools are
    small, so re-reads reach the gateway. Writes go to each client's own
    file and drain home through the gateway's coalesced write RPCs; the
    closing fsync barrier must flush every acknowledged write.
    """

    clients = ("c0", "c1", "c2", "c3")
    gw_nodes = ("gw0", "gw1")
    servers = 4
    file_blocks = 256
    cache_blocks = 128
    write_blocks = 32
    ops_per_client = 1200
    write_share = 0.2
    zipf_s = 0.9
    wan_delay = 0.005  # one way: 10 ms RTT

    def plan(self, seed: int) -> dict:
        rng = random.Random(f"edge_cache:{seed}")
        hot = _shuffled(list(range(self.file_blocks)), rng)  # rank -> block
        weights = [1.0 / (r + 1) ** self.zipf_s for r in range(self.file_blocks)]
        total = sum(weights)
        cdf = list(itertools.accumulate(w / total for w in weights))
        writes = round(self.ops_per_client * self.write_share)
        reads = self.ops_per_client - writes
        scripts = {}
        for node in self.clients:
            ranks = _spread(
                reads,
                lambda u: min(bisect.bisect_left(cdf, u), self.file_blocks - 1),
                rng,
            )
            kinds = _shuffled(["read"] * reads + ["write"] * writes, rng)
            reads_left = iter(ranks)
            script = []
            for kind in kinds:
                if kind == "read":
                    script.append(("read", hot[next(reads_left)]))
                else:  # log-style: each client appends around its own file
                    script.append(("write", sum(k == "write" for k, _ in script)
                                   % self.write_blocks))
            scripts[node] = script
        return {"seed": seed, "scripts": scripts}

    def setup(self, plan: dict) -> dict:
        bs = MiB(1)
        g = Gfs(seed=plan["seed"])
        net = g.network
        net.add_node("home-sw", kind="switch")
        net.add_node("edge-sw", kind="switch")
        net.add_link("home-sw", "edge-sw", Gbps(10), delay=self.wan_delay)
        servers = [f"h{i}" for i in range(self.servers)]
        for name in servers + ["hc0"]:
            net.add_host(name, "home-sw", Gbps(1), site="home")
        edge_nodes = list(self.clients) + list(self.gw_nodes) + ["w0"]
        for name in edge_nodes:
            net.add_host(name, "edge-sw", Gbps(1), site="edge")
        home = g.add_cluster("home", site="home")
        home.add_nodes(servers + ["hc0"])
        edge = g.add_cluster("edge", site="edge")
        edge.add_nodes(edge_nodes)
        fs = home.mmcrfs(
            "gfs-home", [NsdSpec(server=s, blocks=4096) for s in servers],
            block_size=bs, store_data=False,
        )
        home.mmauth_update("AUTHONLY")
        edge.mmauth_update("AUTHONLY")
        home_pub = home.mmauth_genkey()
        edge_pub = edge.mmauth_genkey()
        home.mmauth_add("edge", edge_pub)
        edge.mmremotecluster_add("home", home_pub, contact_nodes=[servers[0]])
        home.mmauth_grant("edge", "gfs-home", "rw")
        edge.mmremotefs_add("remote", "home", "gfs-home")
        gw = CacheGateway(
            fs, list(self.gw_nodes),
            GatewayBlockCache(self.cache_blocks * bs, bs, policy="2q", store_data=False),
            name="gw", mode="writeback", lease_duration=600.0, max_coalesce=8,
        )
        writer = g.run(until=home.mmmount("gfs-home", "hc0"))
        mounts = {
            n: g.run(until=edge.mmmount("remote", n, gateway=gw, readahead=0,
                                        pagepool_bytes=8 * bs))
            for n in list(self.clients) + ["w0"]
        }
        handles: Dict[str, tuple] = {}

        def prepare():
            h = yield writer.open("/data", "w", create=True)
            yield writer.write(h, self.file_blocks * bs)
            yield writer.close(h)
            # Fill the gateway cache once: one pass over the working set.
            w = mounts["w0"]
            h = yield w.open("/data", "r")
            for b in range(self.file_blocks):
                yield w.pread(h, b * bs, bs)
            yield w.close(h)
            for n in self.clients:
                hr = yield mounts[n].open("/data", "r")
                hw = yield mounts[n].open(f"/out-{n}", "w", create=True)
                handles[n] = (hr, hw)

        g.run(until=g.sim.process(prepare(), name="prepare"))
        return {"plan": plan, "g": g, "gw": gw, "mounts": mounts, "handles": handles}

    def run(self, state: dict, tick) -> Episode:
        plan, g, gw = state["plan"], state["g"], state["gw"]
        mounts, handles = state["mounts"], state["handles"]
        sim = g.sim
        bs = MiB(1)
        ep = Episode()
        lat = ep.latencies
        cache = gw.cache
        hits0, misses0, flushed0 = cache.hits, cache.misses, gw.writes_flushed
        acks0 = gw.write_acks
        written0 = sum(mounts[n].bytes_written for n in self.clients)
        t_start = sim.now
        moved = [0]

        def client(n: str):
            m = mounts[n]
            hr, hw = handles[n]
            for kind, block in plan["scripts"][n]:
                t0 = sim.now
                if kind == "read":
                    yield m.pread(hr, block * bs, bs)
                else:
                    yield m.pwrite(hw, block * bs, bs)
                lat.append(sim.now - t0)
                tick()
                moved[0] += bs
            yield m.close(hw)  # fsync barrier: every acked write goes home
            yield m.close(hr)

        procs = [sim.process(client(n), name=f"edge:{n}") for n in self.clients]
        g.run(until=sim.all_of(procs))
        ep.ops = len(lat)
        ep.bytes = float(moved[0])
        ep.sim_s = sim.now - t_start
        writes = sum(k == "write" for s in plan["scripts"].values() for k, _ in s)
        ep.counts = {
            "written_bytes": float(sum(mounts[n].bytes_written for n in self.clients) - written0),
            "hits": float(cache.hits - hits0),
            "misses": float(cache.misses - misses0),
            "writes_flushed": float(gw.writes_flushed - flushed0),
            "write_acks": float(gw.write_acks - acks0),
            "planned_written": float(writes * bs),
            "dirty_left": float(gw.dirty_queue_depth),
        }
        return ep

    def check(self, state: dict, ep: Episode) -> List[str]:
        p: List[str] = []
        c = ep.counts
        planned_ops = len(self.clients) * self.ops_per_client
        _require(p, ep.ops == planned_ops, f"{ep.ops} ops completed, plan has {planned_ops}")
        _require(p, c["write_acks"] == c["writes_flushed"],
                 f"{c['write_acks']:.0f} writes acked but {c['writes_flushed']:.0f} flushed")
        _require(p, c["written_bytes"] == c["planned_written"],
                 f"wrote {c['written_bytes']:.0f} bytes, plan says {c['planned_written']:.0f}")
        _require(p, c["dirty_left"] == 0, "writeback queue not empty after the barrier")
        _require(p, c["hits"] > 0, "no gateway cache hits")
        _require(p, c["misses"] > 0, "no gateway cache misses")
        _require(p, c["writes_flushed"] > 0, "no writes flushed home")
        return p


# ---------------------------------------------------------------------------
# integrity: E14 shape, replicated real-byte mounts under silent bit-rot


class Integrity:
    """Clients read back replicated real-byte files while blocks rot.

    One op is one verified ``pread`` of a block, or one ``pwrite`` of a
    block followed by its ``fsync``. The filesystem keeps two copies of
    every block and checks each read against its stored checksum; a fault
    schedule silently corrupts stored blocks of one NSD during the
    episode, so reads of a rotten copy fail over to the good one and
    repair it. Only one NSD rots, so every block keeps a good copy and no
    op fails. Every byte read is compared with what was written.
    """

    clients = ("c0", "c1", "c2")
    servers = 4
    block = KiB(64)
    file_blocks = 32
    ops_per_client = 1600
    write_share = 0.2
    rot_events = 16
    rot_every = 0.01  # sim s between corruptions

    def plan(self, seed: int) -> dict:
        rng = random.Random(f"integrity:{seed}")
        writes = round(self.ops_per_client * self.write_share)
        reads = self.ops_per_client - writes
        scripts = {}
        for node in self.clients:
            blocks = _spread(reads, lambda u: int(u * self.file_blocks), rng)
            kinds = _shuffled(["read"] * reads + ["write"] * writes, rng)
            script, reads_left, appended = [], iter(blocks), 0
            for kind in kinds:
                if kind == "read":
                    script.append(("read", next(reads_left), b""))
                else:
                    script.append(("write", appended % self.file_blocks,
                                   rng.randbytes(self.block)))
                    appended += 1
            scripts[node] = script
        return {
            "seed": seed,
            "initial": {n: rng.randbytes(self.file_blocks * self.block)
                        for n in self.clients},
            "scripts": scripts,
            "rot": [rng.randrange(1 << 16) for _ in range(self.rot_events)],
        }

    def setup(self, plan: dict) -> dict:
        g = Gfs(seed=plan["seed"])
        g.network.add_node("sw", kind="switch")
        servers = [f"nsd{i}" for i in range(self.servers)]
        for name in servers + list(self.clients):
            g.network.add_host(name, "sw", Gbps(1), site="lab")
        cluster = g.add_cluster("lab")
        cluster.add_nodes(servers + list(self.clients))
        fs = cluster.mmcrfs(
            "integ", [NsdSpec(server=s, blocks=1024) for s in servers],
            block_size=self.block, store_data=True,
            replication=ReplicationPolicy(copies=2, verify_reads=True),
        )
        # A small page pool and no read-ahead: reads go to the NSDs.
        mounts = {
            n: g.run(until=cluster.mmmount("integ", n, readahead=0,
                                           pagepool_bytes=4 * self.block))
            for n in self.clients
        }
        handles = {}
        models = {n: bytearray(plan["initial"][n]) for n in self.clients}

        def prepare(n):
            h = yield mounts[n].open(f"/own-{n}", "w+", create=True)
            yield mounts[n].pwrite(h, 0, plan["initial"][n])
            yield mounts[n].fsync(h)
            handles[n] = h

        for n in self.clients:
            g.run(until=g.sim.process(prepare(n), name=f"prepare:{n}"))
        return {"plan": plan, "g": g, "fs": fs, "mounts": mounts,
                "handles": handles, "models": models}

    def run(self, state: dict, tick) -> Episode:
        plan, g, fs = state["plan"], state["g"], state["fs"]
        mounts, handles, models = state["mounts"], state["handles"], state["models"]
        sim = g.sim
        ep = Episode()
        lat = ep.latencies
        bs = self.block
        repl = fs.integrity
        repairs0, detected0 = repl.read_repairs, repl.corrupt_reads_detected
        t_start = sim.now
        rot_target = fs.service.nsds[0].name
        schedule = FaultSchedule()
        for k, index in enumerate(plan["rot"]):
            schedule.corrupt_block(t_start + (k + 1) * self.rot_every,
                                   rot_target, index=index)
        harness = attach_faults(sim, fs.service, fs.manager_node,
                                schedule=schedule, engine=g.engine,
                                network=g.network)
        wrong = [0]
        moved = [0]

        def client(n: str):
            m, h, model = mounts[n], handles[n], models[n]
            for kind, block, payload in plan["scripts"][n]:
                t0 = sim.now
                lo = block * bs
                if kind == "read":
                    data = yield m.pread(h, lo, bs)
                    if bytes(data) != model[lo:lo + bs]:
                        wrong[0] += 1
                else:
                    yield m.pwrite(h, lo, payload)
                    yield m.fsync(h)
                    model[lo:lo + bs] = payload
                lat.append(sim.now - t0)
                tick()
                moved[0] += bs

        procs = [sim.process(client(n), name=f"integ:{n}") for n in self.clients]
        g.run(until=sim.all_of(procs))
        harness.stop()
        ep.ops = len(lat)
        ep.bytes = float(moved[0])
        ep.sim_s = sim.now - t_start
        ep.counts = {
            "wrong_reads": float(wrong[0]),
            "actions": float(len(harness.injector.log)),
            "planned_actions": float(len(schedule)),
            "read_repairs": float(repl.read_repairs - repairs0),
            "corrupt_reads": float(repl.corrupt_reads_detected - detected0),
        }
        return ep

    def check(self, state: dict, ep: Episode) -> List[str]:
        p: List[str] = []
        c = ep.counts
        planned_ops = len(self.clients) * self.ops_per_client
        _require(p, ep.ops == planned_ops, f"{ep.ops} ops completed, plan has {planned_ops}")
        _require(p, c["wrong_reads"] == 0, f"{c['wrong_reads']:.0f} reads returned wrong bytes")
        _require(p, c["actions"] == c["planned_actions"],
                 f"{c['actions']:.0f} of {c['planned_actions']:.0f} rot actions applied")
        _require(p, c["corrupt_reads"] > 0, "no corrupt read was detected")
        _require(p, c["read_repairs"] > 0, "no replica was repaired")
        return p


WORKLOADS = {
    "fleet": Fleet,
    "sc04_rw": Sc04ReadWrite,
    "edge_cache": EdgeCache,
    "integrity": Integrity,
}
