"""Max-min fair bandwidth allocation with per-flow rate caps.

Progressive filling ("water-filling"). Each iteration either

* fixes every flow whose cap is at or below its current fair share on every
  link of its path (such a flow is cap-limited in the final allocation,
  because fair shares only grow as other flows get fixed below them), or
* saturates the current bottleneck link(s), fixing their flows at the
  bottleneck share.

Each iteration fixes at least one flow, so the loop runs at most once per
column. Per-link active counts are computed once per solve and decremented
as columns are fixed.

Two cores run these rounds, and return the same bits:

* :func:`_water_fill` (numpy) works on a sparse (CSC) incidence: for each
  column, the local indices of the links it crosses. Each round is a
  handful of numpy calls, so its cost is per-call overhead, not
  arithmetic, and it pays off only on large components.
* :func:`_water_fill_scalar` (plain Python) keeps per-link ``remaining``
  and ``counts`` in dicts and visits only the links and columns in play.
  It does the numpy core's double operations on the same operands, one at
  a time (see "Exactness" below), so its rates are bit-identical.

A component of at most :data:`SCALAR_MAX_COLS` registered columns goes to
the scalar core, a larger one to numpy. The constant sits at the measured
crossover: on every solve recorded from one episode of each file-system
benchmark workload, the scalar core is 4-8x faster up to four live
columns (where nearly all solves are), still ahead at 25-32, even at
33-48 and behind beyond (docs/ARCHITECTURE.md §6 has the figures).

Two entry points share the cores:

* :func:`max_min_rates` — stateless, builds the incidence per call. Fine
  for one-shot questions and property tests.
* :class:`FairshareState` — persistent per-column paths for the flow
  engine's event loop: columns are added/removed as flows come and go
  (amortized growth, freed columns reused), the link-sharing graph is
  partitioned into connected components with a union-find, and
  :meth:`FairshareState.solve` re-runs water-filling only for components
  marked dirty by a membership or capacity change. Adding a flow between
  SDSC and NCSA must not re-solve an untouched DEISA mesh.

The allocation is the unique max-min fair solution, so solving components
independently yields the same rates as one global solve (components share
no links by construction).

Route-class aggregation (weights)
---------------------------------

Columns carry an integer *weight*: a weight-``w`` column stands for ``w``
flows with the same link-incidence column and the same per-flow cap (a
"route class"). Water-filling treats it as ``w`` demanders on every link
it crosses, and the column's solved rate is the *per-member* rate — by
symmetry, max-min fairness gives identical members identical rates, so no
division back is ever needed.

Exactness argument (why weighted class-space solving is bit-identical to
solving one column per member flow):

* per-link active counts are sums (and differences) of integer weights —
  exact in IEEE doubles under any evaluation order, so class space and
  flow space compute the same ``counts``;
* fair shares (``remaining / counts``), per-flow share minima, and every
  cap comparison are single operations on identical inputs;
* the only genuine float *accumulation* is draining fixed flows from
  ``remaining``. Per link it is the **exactly rounded** value of
  ``remaining - sum(K_r * r)``, where ``r`` runs over the round's distinct
  fixed rates and ``K_r`` is the integer member weight at rate ``r`` on
  that link. For integer ``K < 2**26``, Dekker's product (``r`` split by
  Veltkamp into two 26-bit halves, ``K`` its own high half) gives
  ``K * r == p + e`` exactly with ``p = fl(K * r)``. So a link drained at
  one rate takes ``remaining - p`` when ``e == 0`` (one correctly rounded
  subtraction) and ``math.fsum((remaining, -p, -e))`` otherwise; a link
  drained at several rates takes one ``fsum`` over all their ``(p, e)``
  terms. Flow space (``K`` members of rate ``r``, one term each) sums the
  same real, and exactly rounded sums of equal reals are bit-equal. The
  ``K < 2**26`` bound holds because a component's total weight is kept
  below :data:`WEIGHT_LIMIT` (``add_flow``/``set_weight`` raise
  ``ValueError`` otherwise).

The scalar core is bit-identical to the numpy one by the same argument:
per-link shares are the same single divisions, per-column minima and the
two ``* slack`` comparisons are exact or single operations, counts are
integer sums, and its drain takes the same exactly rounded per-link value
(same ``_two_product`` split, ``remaining - p`` or ``fsum`` under the same
conditions, the same clamp at zero). It skips links no fixed column
crosses, where the numpy core subtracts ``0.0``. This assumes finite
link capacities, as every :class:`~repro.net.topology.Link` has: an
infinite link carrying an infinite-cap flow would make the numpy core
subtract ``0 * inf`` (NaN) from every link, which the scalar core never
computes.

The same argument makes the result independent of how the union-find
happens to have coarsened components: per-link quantities only ever see
that link's own flows, so gluing unrelated groups into one solve cannot
move a bit.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sim.profile import PROFILE

#: Relative tolerance when comparing rates.
_REL_EPS = 1e-9

#: A component's total member weight stays below this, so every per-link
#: integer weight ``K`` has at most 26 significant bits and Dekker's
#: product ``K * r`` is exact (module docstring).
WEIGHT_LIMIT = 1 << 26

#: Components of at most this many registered columns are water-filled by
#: the scalar core (:func:`_water_fill_scalar`), larger ones by the numpy
#: core (:func:`_water_fill`). Both give the same bits; this only picks the
#: cheaper one. Set at the measured crossover (module docstring).
SCALAR_MAX_COLS = 32

#: Veltkamp's splitter for doubles: ``2**27 + 1``.
_SPLIT = 134217729.0


def _two_product(k, r):
    """``(p, e)`` with ``p + e == k * r`` exactly, for integers ``0 <= k < 2**26``.

    Dekker's product with ``k`` as its own high half (it has at most 26
    significant bits) and ``r`` split by Veltkamp. Works elementwise on
    floats and arrays alike.
    """
    c = r * _SPLIT
    hi = c - (c - r)
    p = k * r
    return p, (k * hi - p) + k * (r - hi)


def _exact_drain(
    remaining: np.ndarray,
    counts: np.ndarray,
    fixed: np.ndarray,
    rates: np.ndarray,
    weights: np.ndarray,
    flows_cat: np.ndarray,
    links_cat: np.ndarray,
) -> None:
    """Drain the columns in mask ``fixed`` from ``remaining`` and ``counts``.

    Per link the new ``remaining`` is the exactly rounded value of
    ``remaining[l] - sum(K_r * r)`` over the distinct rates ``r`` of the
    fixed columns, ``K_r`` being their integer member weight on ``l``
    (module docstring), clamped at zero. ``counts`` loses the fixed
    weight, exactly. ``flows_cat`` and ``links_cat`` are the CSC
    incidence: entry ``i`` says column ``flows_cat[i]`` crosses local link
    ``links_cat[i]``. Links no fixed column crosses see ``K = 0``, so
    ``p = e = 0`` and keep their value.
    """
    nlinks = remaining.shape[0]
    wf = np.where(fixed, weights, 0.0)[flows_cat]
    fixed_rates = rates[fixed]
    r = fixed_rates[0]
    if (fixed_rates == r).all():
        K = np.bincount(links_cat, wf, nlinks)
        p, e = _two_product(K, float(r))
        P = None  # one (p, e) pair per link
        slow = e.nonzero()[0]
    else:
        # Rare: one row of per-link weights per distinct rate.
        vals, inv = np.unique(fixed_rates, return_inverse=True)
        row = np.zeros(rates.shape[0], dtype=np.intp)
        row[fixed] = inv
        Ks = np.bincount(row[flows_cat] * nlinks + links_cat, wf, vals.size * nlinks)
        Ks = Ks.reshape(vals.size, nlinks)
        K = Ks.sum(axis=0)
        P, E = _two_product(Ks, vals[:, None])
        p, e = P.sum(axis=0), E.sum(axis=0)  # exact where one rate hits
        slow = np.flatnonzero((e != 0.0) | (np.count_nonzero(Ks, axis=0) > 1))
    counts -= K
    new = remaining - p
    if slow.size and P is None:
        new[slow] = [
            math.fsum((a, -pl, -el))
            for a, pl, el in zip(remaining[slow].tolist(), p[slow].tolist(),
                                 e[slow].tolist())
        ]
    elif slow.size:
        new[slow] = [
            math.fsum((a, *ps, *es))
            for a, ps, es in zip(
                remaining[slow].tolist(),
                (-P[:, slow]).T.tolist(),
                (-E[:, slow]).T.tolist(),
            )
        ]
    np.maximum(new, 0.0, out=remaining)


def _water_fill(
    remaining: np.ndarray,
    fcaps: np.ndarray,
    weights: np.ndarray,
    links_cat: np.ndarray,
    lens: np.ndarray,
) -> np.ndarray:
    """Progressive filling over a CSC incidence; returns per-column rates.

    ``links_cat`` lists, column after column, the local link index of each
    link a column crosses — ``lens[c] >= 1`` entries for column ``c``.
    ``remaining`` holds those local links' capacities and is drained in
    place. ``weights`` holds the integer member multiplicity per column;
    the solved rate of a weight-``w`` column is the per-member rate.

    Bit-identity: share minima and integer-weight counts are exact in any
    evaluation order; the ``remaining`` drain, the one genuine float
    accumulation, is exactly rounded per link (:func:`_exact_drain`).
    """
    ncols = fcaps.shape[0]
    flows_cat = np.repeat(np.arange(ncols), lens)
    starts = np.cumsum(lens) - lens
    # Row j holds each column's j-th link, repeating its last link on
    # short paths (a repeat cannot move a min): one gather and one
    # contiguous min per round give every column's fair share.
    pad = links_cat[starts + np.minimum(np.arange(lens.max())[:, None], lens - 1)]
    counts = np.bincount(links_cat, weights[flows_cat], remaining.shape[0])
    rates = np.zeros(ncols)
    unfixed = np.ones(ncols, dtype=bool)
    slack = 1 + _REL_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        # Every round fixes at least one column: the capped set, or the
        # columns at the minimum share.
        for _ in range(ncols):
            # Links whose columns are all fixed see x/0; only columns still
            # unfixed (whose links all have counts > 0) are read below.
            shares = (remaining / counts)[pad].min(axis=0)
            fixed = unfixed & (fcaps <= shares * slack)
            if fixed.any():
                rates[fixed] = fcaps[fixed]
            else:
                # No column is capped, so every fcap exceeds its share.
                m = shares[unfixed].min()
                fixed = unfixed & (shares <= m * slack)
                rates[fixed] = shares[fixed]
            unfixed ^= fixed
            # Skip the drain when this round fixed the last columns:
            # remaining is local and never read again.
            if not unfixed.any():
                return rates
            _exact_drain(remaining, counts, fixed, rates, weights,
                         flows_cat, links_cat)
    raise RuntimeError("progressive filling failed to converge")  # pragma: no cover


def _exact_drain_scalar(
    remaining: Dict[int, float],
    counts: Dict[int, float],
    fixed: List[int],
    rates: List[float],
    weights: List[float],
    paths: List[Tuple[int, ...]],
) -> None:
    """Scalar twin of :func:`_exact_drain` over per-link dicts.

    Same per-link value: the integer weight ``K_r`` at each distinct rate
    ``r``, :func:`_two_product` for ``K_r * r = p + e``, ``remaining - p``
    where one rate hits the link and ``e == 0``, one :func:`math.fsum`
    over every term otherwise, and the clamp at zero. Links no fixed
    column crosses are left alone (the numpy core subtracts ``0.0``).
    """
    per_link: Dict[int, Dict[float, float]] = {}
    for c in fixed:
        r, w = rates[c], weights[c]
        for l in paths[c]:
            ks = per_link.get(l)
            if ks is None:
                per_link[l] = {r: w}
            else:
                ks[r] = ks.get(r, 0.0) + w
    for l, ks in per_link.items():
        a = remaining[l]
        if len(ks) == 1:
            ((r, k),) = ks.items()
            counts[l] -= k
            p, e = _two_product(k, r)
            new = a - p if e == 0.0 else math.fsum((a, -p, -e))
        else:
            terms = [a]
            for r, k in ks.items():
                counts[l] -= k
                p, e = _two_product(k, r)
                terms += (-p, -e)
            new = math.fsum(terms)
        # np.maximum(new, 0.0): -0.0 becomes 0.0.
        remaining[l] = 0.0 if new <= 0.0 else new


def _water_fill_scalar(
    caps: Sequence[float],
    paths: List[Tuple[int, ...]],
    fcaps: List[float],
    weights: List[float],
) -> List[float]:
    """Scalar twin of :func:`_water_fill` for small components.

    ``paths`` holds each column's global link ids and ``caps`` the finite
    capacities by global link id (Python floats). Each round performs the
    numpy core's double operations on the same operands — per-link
    ``remaining / counts``, the per-column min share, the cap test against
    ``share * slack``, the bottleneck test against ``min * slack`` — and
    drains through :func:`_exact_drain_scalar`, so rates are bit-identical
    (module docstring). Only the links and columns still in play are
    visited, so a round costs a few microseconds rather than a few dozen
    numpy calls.
    """
    remaining: Dict[int, float] = {}
    counts: Dict[int, float] = {}
    for path, w in zip(paths, weights):
        for l in path:
            if l in counts:
                counts[l] += w
            else:
                counts[l] = w
                remaining[l] = caps[l]
    ncols = len(paths)
    rates = [0.0] * ncols
    unfixed = range(ncols)
    slack = 1 + _REL_EPS
    for _ in range(ncols):
        shares = {
            c: min([remaining[l] / counts[l] for l in paths[c]]) for c in unfixed
        }
        fixed = [c for c in unfixed if fcaps[c] <= shares[c] * slack]
        if fixed:
            for c in fixed:
                rates[c] = fcaps[c]
        else:
            lim = min(shares.values()) * slack
            fixed = [c for c in unfixed if shares[c] <= lim]
            for c in fixed:
                rates[c] = shares[c]
        if len(fixed) == len(shares):
            return rates
        done = set(fixed)
        unfixed = [c for c in unfixed if c not in done]
        _exact_drain_scalar(remaining, counts, fixed, rates, weights, paths)
    raise RuntimeError("progressive filling failed to converge")  # pragma: no cover


def _solve_paths(
    caps: np.ndarray,
    paths: List[Tuple[int, ...]],
    fcaps: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Water-fill columns with non-empty link-id ``paths`` over ``caps``."""
    lens = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    cat = np.fromiter(chain.from_iterable(paths), dtype=np.intp,
                      count=int(lens.sum()))
    # Local link ids in ascending global order, by a prefix sum over a
    # bitmap of the links used: O(links + entries), no sort.
    used = np.zeros(caps.shape[0], dtype=np.intp)
    used[cat] = 1
    local = np.cumsum(used) - 1
    return _water_fill(caps[used.nonzero()[0]], fcaps, weights, local[cat], lens)


def max_min_rates(
    link_caps: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    flow_caps: Sequence[float],
    flow_weights: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Allocate rates to flows.

    Parameters
    ----------
    link_caps:
        Usable capacity of each link (bytes/s), indexed by link id.
    flow_links:
        For each flow, the link ids on its path (may be empty for loopback
        flows, which then get exactly their cap).
    flow_caps:
        Per-flow rate cap (``inf`` allowed only for flows with a non-empty
        path; a pathless flow must have a finite cap).
    flow_weights:
        Optional member multiplicity per entry (route-class aggregation):
        a weight-``w`` entry stands for ``w`` identical flows and its
        returned rate is the per-member rate. Default all ones; the total
        must stay below :data:`WEIGHT_LIMIT`.

    Returns
    -------
    numpy array of allocated rates, same order as ``flow_links``.

    Properties (tested): no link oversubscribed; every flow gets a positive
    rate; a flow is either at its cap or has a bottleneck link that is fully
    used; allocation is max-min fair; a weight-``w`` entry gets the same
    rate as ``w`` separate weight-1 entries would, bit for bit.
    """
    nflows = len(flow_links)
    caps = np.asarray(link_caps, dtype=float)
    fcaps = np.asarray(flow_caps, dtype=float)
    if fcaps.shape[0] != nflows:
        raise ValueError("flow_caps length must match flow_links")
    if np.any(fcaps <= 0):
        raise ValueError("flow caps must be positive")
    if np.any(caps <= 0):
        raise ValueError("link capacities must be positive")
    if flow_weights is None:
        weights = np.ones(nflows)
    else:
        weights = np.asarray(flow_weights, dtype=float)
        if weights.shape[0] != nflows:
            raise ValueError("flow_weights length must match flow_links")
        if np.any(weights < 1) or np.any(weights != np.floor(weights)):
            raise ValueError("flow weights must be positive integers")
    if weights.sum() >= WEIGHT_LIMIT:
        raise ValueError(f"total flow weight must stay below {WEIGHT_LIMIT}")

    rates = np.zeros(nflows)
    if nflows == 0:
        return rates
    # A link listed twice on one path is crossed once.
    paths = [tuple(dict.fromkeys(p)) for p in flow_links]
    pathless = np.fromiter(map(len, paths), dtype=np.intp, count=nflows) == 0
    if np.any(pathless & ~np.isfinite(fcaps)):
        raise ValueError("a flow with an empty path must have a finite cap")
    rates[pathless] = fcaps[pathless]
    on = np.flatnonzero(~pathless)
    on_paths = [paths[f] for f in on.tolist()]
    if on.size > SCALAR_MAX_COLS:
        rates[on] = _solve_paths(caps, on_paths, fcaps[on], weights[on])
    elif on.size:
        rates[on] = _water_fill_scalar(caps.tolist(), on_paths,
                                       fcaps[on].tolist(), weights[on].tolist())
    return rates


def link_utilization(
    link_caps: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    rates: Sequence[float],
) -> np.ndarray:
    """Per-link used fraction under allocation ``rates`` (diagnostics).

    The single implementation of this accumulation — the flow engine's
    :meth:`~repro.net.flow.FlowEngine.link_utilization` delegates here.
    """
    caps = np.asarray(link_caps, dtype=float)
    used = np.zeros_like(caps)
    lengths = np.fromiter(
        (len(p) for p in flow_links), dtype=np.intp, count=len(flow_links)
    )
    total = int(lengths.sum())
    if total:
        idx = np.fromiter(
            (l for path in flow_links for l in path), dtype=np.intp, count=total
        )
        np.add.at(used, idx, np.repeat(np.asarray(rates, dtype=float), lengths))
    return used / caps


class FairshareState:
    """Persistent per-column paths/caps + component-partitioned re-solve.

    Each column holds its flow's path as an ``intp`` array of link ids,
    beside per-column cap/rate/weight arrays whose *capacity* doubles on
    demand. A flow occupies one column from :meth:`add_flow` until
    :meth:`remove_flow`; freed columns go on a free list and are reused
    LIFO. A solve builds its component's sparse incidence from the path
    arrays of the component's columns.

    Links are partitioned by a union-find into connected components of the
    link-sharing graph (two links are connected when some active flow
    crosses both). A membership or capacity change dirties only the
    touched component; :meth:`solve` water-fills dirty components in
    isolation and returns the columns whose rate changed. Flow departures
    never split components eagerly (the partition only coarsens); after
    :attr:`_REBUILD_REMOVALS` removals the partition is rebuilt from the
    active flows, which re-tightens it at amortized O(path) per removal.
    """

    #: Removals tolerated before the (only-coarsening) partition is rebuilt.
    _REBUILD_REMOVALS = 512

    def __init__(self, link_caps: Sequence[float] = (), capacity: int = 64) -> None:
        self._caps = np.zeros(0)
        #: ``_caps`` as Python floats, for the scalar core.
        self._caps_list: List[float] = []
        #: The read-only array ``_caps`` was last adopted from.
        self._caps_src: Optional[np.ndarray] = None
        self._nlinks = 0
        cap = max(int(capacity), 1)
        self._fcaps = np.zeros(cap)
        self._rates = np.zeros(cap)
        self._weights = np.zeros(cap)
        self._active = np.zeros(cap, dtype=bool)
        self._paths: List[Optional[Tuple[int, ...]]] = [None] * cap
        # Popped back-first so fresh columns are handed out in index order.
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self.nactive = 0
        # Union-find over link ids; a component's id is its root link.
        self._parent: List[int] = []
        self._size: List[int] = []
        #: root link id -> set of active columns in that component.
        self._comp_cols: Dict[int, Set[int]] = {}
        #: root link id -> total member weight of its columns.
        self._comp_weight: Dict[int, int] = {}
        self._dirty: Set[int] = set()
        #: columns rated outside solve() (pathless flows), reported once.
        self._fresh: List[int] = []
        self._removals = 0
        #: Always-on solve counters (scraped by repro.obs; PROFILE keeps
        #: the opt-in fine-grained versions).
        self.solves = 0
        self.solved_rows = 0
        self.single_flow_solves = 0
        self.weight_changes = 0
        self.set_link_caps(link_caps)

    # -- union-find -----------------------------------------------------------

    def _find(self, l: int) -> int:
        parent = self._parent
        root = l
        while parent[root] != root:
            root = parent[root]
        while parent[l] != root:  # path compression
            parent[l], l = root, parent[l]
        return root

    def _union(self, a: int, b: int) -> int:
        """Merge the components of roots ``a`` and ``b``; return the root."""
        if a == b:
            return a
        # Union by size; smaller root id wins ties for determinism.
        if (self._size[a], -a) < (self._size[b], -b):
            a, b = b, a
        self._parent[b] = a
        self._size[a] += self._size[b]
        cols = self._comp_cols.pop(b, None)
        if cols:
            self._comp_cols.setdefault(a, set()).update(cols)
        w = self._comp_weight.pop(b, 0)
        if w:
            self._comp_weight[a] = self._comp_weight.get(a, 0) + w
        if b in self._dirty:
            self._dirty.discard(b)
            self._dirty.add(a)
        return a

    def _join(self, path: List[int], col: int, weight: int) -> int:
        """Union ``path``'s links, in path order, and file ``col`` there."""
        root = self._find(path[0])
        for l in path[1:]:
            root = self._union(root, self._find(l))
        self._comp_cols.setdefault(root, set()).add(col)
        self._comp_weight[root] = self._comp_weight.get(root, 0) + weight
        return root

    # -- capacity maintenance -------------------------------------------------

    def _grow_cols(self) -> None:
        old = self._fcaps.shape[0]
        new = max(2 * old, 1)
        PROFILE.count("fairshare.matrix_growths")
        for name in ("_fcaps", "_rates", "_weights", "_active"):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self._paths.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _grow_links(self, nlinks: int) -> None:
        self._parent.extend(range(self._nlinks, nlinks))
        self._size.extend([1] * (nlinks - self._nlinks))
        self._nlinks = nlinks

    def set_link_caps(self, link_caps: Sequence[float]) -> None:
        """Adopt the current capacity vector; dirty components that changed.

        Called by the engine before every solve, so ``Link.set_rate``
        changes are picked up at the next event with no further plumbing —
        but only the components containing a changed link re-solve.

        A read-only ndarray is trusted never to change: passing the same
        object again returns at once. ``Network.link_capacities`` hands
        out one such array until a link's rate changes, so the engine's
        per-event call costs an identity test. Any other input is
        compared element by element with the adopted copy.
        """
        if link_caps is self._caps_src:
            return
        caps = np.asarray(link_caps, dtype=float)
        if caps.shape[0] < self._nlinks:
            raise ValueError("links cannot be removed from a FairshareState")
        old = self._caps
        if old.shape[0] != caps.shape[0] or not np.array_equal(caps, old):
            if np.any(caps <= 0):
                raise ValueError("link capacities must be positive")
            if caps.shape[0] > self._nlinks:
                self._grow_links(caps.shape[0])
            changed = np.flatnonzero(caps[: old.shape[0]] != old).tolist()
            changed.extend(range(old.shape[0], caps.shape[0]))
            for l in changed:
                root = self._find(l)
                if self._comp_cols.get(root):
                    self._dirty.add(root)
            self._caps = caps.copy()
            self._caps_list = self._caps.tolist()
        readonly = isinstance(link_caps, np.ndarray) and not link_caps.flags.writeable
        self._caps_src = link_caps if readonly else None

    # -- flow membership --------------------------------------------------------

    def add_flow(self, path: Sequence[int], fcap: float, weight: int = 1) -> int:
        """Insert a flow crossing link ids ``path``; returns its column.

        ``weight`` is the route-class member multiplicity: a weight-``w``
        column is solved as ``w`` identical flows, and its rate is the
        per-member rate. Use :meth:`set_weight` for join/leave updates.
        The component's total weight must stay below :data:`WEIGHT_LIMIT`.
        """
        if fcap <= 0:
            raise ValueError("flow caps must be positive")
        if weight < 1 or weight != int(weight):
            raise ValueError("flow weight must be a positive integer")
        weight = int(weight)
        path = tuple(dict.fromkeys(path))  # a link listed twice is crossed once
        if not path and not np.isfinite(fcap):
            raise ValueError("a flow with an empty path must have a finite cap")
        if path:
            # The network may have grown links since the last solve; links
            # grow here, capacities arrive via set_link_caps.
            need = max(path) + 1
            if need > self._nlinks:
                self._grow_links(need)
        roots = {self._find(l) for l in path}
        if weight + sum(self._comp_weight.get(r, 0) for r in roots) >= WEIGHT_LIMIT:
            raise ValueError(f"component weight must stay below {WEIGHT_LIMIT}")
        if not self._free:
            self._grow_cols()
        col = self._free.pop()
        self._fcaps[col] = fcap
        self._rates[col] = 0.0
        self._weights[col] = float(weight)
        self._active[col] = True
        self.nactive += 1
        self._paths[col] = path
        if path:
            self._dirty.add(self._join(path, col, weight))
        else:
            # Pathless flows are their own trivial component: the rate is
            # the cap, now and forever — rated at the next solve(), no
            # water-filling needed.
            self._fresh.append(col)
        return col

    def remove_flow(self, col: int) -> None:
        """Release ``col``; its component re-solves on the next ``solve()``."""
        if not self._active[col]:
            raise ValueError(f"column {col} is not active")
        path = self._paths[col]
        weight = int(self._weights[col])
        self._active[col] = False
        self._paths[col] = None
        self._rates[col] = 0.0
        self._fcaps[col] = 0.0
        self._weights[col] = 0.0
        self.nactive -= 1
        if path:
            root = self._find(path[0])
            cols = self._comp_cols.get(root)
            if cols is not None:
                cols.discard(col)
                self._comp_weight[root] -= weight
                if cols:
                    self._dirty.add(root)
                else:
                    del self._comp_cols[root]
                    del self._comp_weight[root]
                    self._dirty.discard(root)
            self._removals += 1
        self._free.append(col)

    def set_weight(self, col: int, weight: int) -> None:
        """Adjust a column's member multiplicity (route-class join/leave).

        The column's component re-solves at the next :meth:`solve`. Weight
        0 parks the column: it stays registered (its links stay unioned,
        so a later re-join is a pure weight bump with no path or
        union-find churn) but is skipped by the solver entirely — a parked
        column costs nothing per solve. A parked column's links staying
        glued cannot move a bit: per-link arithmetic only ever sees a
        link's own member flows (see the module docstring). The
        component's total weight must stay below :data:`WEIGHT_LIMIT`.
        """
        if not self._active[col]:
            raise ValueError(f"column {col} is not active")
        if weight < 0 or weight != int(weight):
            raise ValueError("flow weight must be a non-negative integer")
        weight = int(weight)
        old = int(self._weights[col])
        if weight == old:
            return
        path = self._paths[col]
        root = self._find(path[0]) if path else None
        total = self._comp_weight[root] if path else old
        if total - old + weight >= WEIGHT_LIMIT:
            raise ValueError(f"component weight must stay below {WEIGHT_LIMIT}")
        self._weights[col] = float(weight)
        self.weight_changes += 1
        if root is not None:
            self._comp_weight[root] = total - old + weight
            self._dirty.add(root)
        # Pathless classes keep rate == fcap at any weight; nothing to do.

    def weight_of(self, col: int) -> int:
        return int(self._weights[col])

    def rate_of(self, col: int) -> float:
        return float(self._rates[col])

    @property
    def rates(self) -> np.ndarray:
        """Current per-column rates (authoritative; do not mutate)."""
        return self._rates

    @property
    def capacity(self) -> int:
        """Current column capacity (callers keeping parallel arrays)."""
        return self._fcaps.shape[0]

    # -- solving ---------------------------------------------------------------

    def _rebuild_partition(self) -> None:
        """Recompute components from the active flows (undoes coarsening)."""
        PROFILE.count("fairshare.partition_rebuilds")
        dirty_cols = [c for r in self._dirty for c in self._comp_cols.get(r, ())]
        self._parent = list(range(self._nlinks))
        self._size = [1] * self._nlinks
        self._comp_cols = {}
        self._comp_weight = {}
        self._dirty = set()
        for col in np.flatnonzero(self._active).tolist():
            path = self._paths[col]
            if path:
                self._join(path, col, int(self._weights[col]))
        for col in dirty_cols:
            self._dirty.add(self._find(self._paths[col][0]))
        self._removals = 0

    def _count_solve(self, ncols: int) -> None:
        """Count a solve of a component with ``ncols`` live columns."""
        if ncols == 1:
            self.single_flow_solves += 1
            PROFILE.count("fairshare.single_flow_solves")
        else:
            self.solves += 1
            self.solved_rows += ncols
            PROFILE.count("fairshare.solves")
            PROFILE.count("fairshare.solved_rows", ncols)

    def solve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Re-solve dirty components.

        Returns ``(cols, old_rates)``: the columns whose rate changed and
        the rates they had before this solve (the new rates are readable
        via :attr:`rates` / :meth:`rate_of`). Untouched components keep
        their rates and do not appear.
        """
        moved_cols: List[int] = []
        moved_old: List[float] = []
        if self._fresh:
            moved_cols += self._fresh
            moved_old += self._rates[self._fresh].tolist()
            self._rates[self._fresh] = self._fcaps[self._fresh]
            self._fresh = []
        if self._removals >= self._REBUILD_REMOVALS:
            self._rebuild_partition()
        weights, fcaps, rates, paths = (self._weights, self._fcaps,
                                        self._rates, self._paths)
        for root in sorted(self._dirty):
            cols_set = self._comp_cols.get(root)
            if not cols_set:
                continue
            # Weight-0 (parked) class columns keep the component glued but
            # take no bandwidth; the solver never sees them.
            if len(cols_set) <= SCALAR_MAX_COLS:
                cols = [c for c in sorted(cols_set) if weights[c]]
                if not cols:
                    continue
                self._count_solve(len(cols))
                new = _water_fill_scalar(
                    self._caps_list, [paths[c] for c in cols],
                    [float(fcaps[c]) for c in cols],
                    [float(weights[c]) for c in cols])
                for c, r in zip(cols, new):
                    if r != rates[c]:
                        moved_cols.append(c)
                        moved_old.append(float(rates[c]))
                        rates[c] = r
            else:
                live = np.fromiter(cols_set, dtype=np.intp, count=len(cols_set))
                live = np.sort(live[weights[live] > 0.0])
                if not live.size:
                    continue
                self._count_solve(live.size)
                new = _solve_paths(self._caps, [paths[c] for c in live.tolist()],
                                   fcaps[live], weights[live])
                diff = new != rates[live]
                moved = live[diff]
                moved_cols += moved.tolist()
                moved_old += rates[moved].tolist()
                rates[moved] = new[diff]
        self._dirty.clear()
        return (np.array(moved_cols, dtype=np.intp),
                np.array(moved_old, dtype=float))

    # -- diagnostics ------------------------------------------------------------

    def link_usage(self) -> np.ndarray:
        """Per-link allocated bytes/s under the current rates.

        Per link, the exactly rounded sum of ``weight * rate`` over the
        columns crossing it (each product split exactly by
        :func:`_two_product`), so the result does not depend on column
        numbering or order. The bottleneck-attribution layer
        (``repro.sim.trace``) divides this by the capacity vector to find
        which links are saturated at each rate change. Only called when
        tracing is enabled.
        """
        terms: Dict[int, List[float]] = {}
        for col in np.flatnonzero(self._weights).tolist():
            pe = _two_product(float(self._weights[col]), float(self._rates[col]))
            for l in self._paths[col]:
                terms.setdefault(l, []).extend(pe)
        usage = np.zeros(self._nlinks)
        for l, t in terms.items():
            usage[l] = math.fsum(t)
        return usage

    def class_stats(self) -> Tuple[int, int]:
        """(active solver columns, total member weight across them).

        The aggregation ratio ``members / columns`` is the solver-dimension
        reduction route-class aggregation bought (1.0 when unaggregated).
        """
        act = self._active
        return int(np.count_nonzero(act)), int(self._weights[act].sum())

    def component_sizes(self) -> List[int]:
        """Active-flow count per link-sharing component (for tests/benches)."""
        return sorted(len(cols) for cols in self._comp_cols.values() if cols)
