"""Frozen copy of the dense fair-share solver, kept as a test oracle.

This is ``repro.net.fairshare`` as it stood before the solver core moved to
per-column path arrays, incremental per-link counts and a drain keyed by
distinct fixed rate: the dense L×C incidence matrix, the per-weight-bit
``_exact_drain`` and the matrix-slicing ``FairshareState.solve``. It is not
imported by the package. ``test_fairshare_reference.py`` drives it and the
live solver through the same churn and requires bit-identical rates.

Do not edit the solver code below; it is the oracle.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sim.profile import PROFILE

#: Relative tolerance when comparing rates.
_REL_EPS = 1e-9


def _pow2_terms(w: int) -> Tuple[float, ...]:
    """Power-of-two decomposition of integer ``w`` as exact float factors."""
    out = []
    while w:
        low = w & -w
        out.append(float(low))
        w -= low
    return tuple(out)


def _exact_drain(
    remaining: np.ndarray,
    fixed_cols: np.ndarray,
    rates: np.ndarray,
    weights: np.ndarray,
    flows_cat: np.ndarray,
    links_cat: np.ndarray,
) -> None:
    """Subtract the newly fixed columns' demand from ``remaining``.

    Per link the update is the exactly rounded (``math.fsum``) value of
    ``remaining[l] - sum(w_c * r_c)`` over the round's fixed columns
    crossing ``l``, with each ``w_c * r_c`` expanded into exact
    power-of-two terms — see the module docstring's exactness argument.
    Clamped at zero like the allocation loop always has.

    Vectorized by weight bit: set bit ``b`` of column ``c`` contributes
    one ``(link, r_c * 2^b)`` entry per link it crosses. A link receiving
    a single entry is updated with plain IEEE subtraction — exactly
    rounded by definition, so bit-equal to the fsum of the same two
    terms (and to flow space, where ``2^b`` equal members sum exactly).
    Only links receiving multiple entries pay for ``math.fsum``.
    """
    if not fixed_cols.size:
        return
    w_fixed = weights[fixed_cols].astype(np.int64)
    maxw = int(w_fixed.max())
    mask = np.zeros(weights.shape[0], dtype=bool)
    links_parts: List[np.ndarray] = []
    vals_parts: List[np.ndarray] = []
    bit = 1
    while bit <= maxw:
        cols_b = fixed_cols if maxw == 1 else fixed_cols[(w_fixed & bit) != 0]
        if cols_b.size:
            mask[:] = False
            mask[cols_b] = True
            sel = mask[flows_cat]
            links_parts.append(links_cat[sel])
            vals_parts.append(rates[flows_cat[sel]] * float(bit))
        bit <<= 1
    if len(links_parts) == 1:
        links_e, vals_e = links_parts[0], vals_parts[0]
    else:
        links_e = np.concatenate(links_parts)
        vals_e = np.concatenate(vals_parts)
    if not links_e.size:
        return
    counts = np.bincount(links_e, minlength=remaining.shape[0])
    is_multi = counts[links_e] > 1
    if is_multi.any():
        order = np.argsort(links_e[is_multi], kind="stable")
        ml = links_e[is_multi][order]
        mv = (-vals_e[is_multi][order]).tolist()
        seg = np.flatnonzero(np.diff(ml)) + 1
        seg_starts = np.concatenate(([0], seg))
        seg_ends = np.concatenate((seg, [ml.shape[0]]))
        for link, a, b in zip(ml[seg_starts].tolist(),
                              seg_starts.tolist(), seg_ends.tolist()):
            acc = math.fsum([remaining[link], *mv[a:b]])
            remaining[link] = acc if acc > 0.0 else 0.0
        single = ~is_multi
        if not single.any():
            return
        links_e, vals_e = links_e[single], vals_e[single]
    rem = remaining[links_e] - vals_e
    remaining[links_e] = np.where(rem > 0.0, rem, 0.0)


def _water_fill(
    M: np.ndarray,
    Mf: np.ndarray,
    caps: np.ndarray,
    fcaps: np.ndarray,
    rates: np.ndarray,
    unfixed: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> None:
    """Progressive filling over incidence ``M``; writes ``rates`` in place.

    ``M`` is the L×F bool incidence matrix, ``Mf`` its float view (bool @
    bool would be a logical OR, not a count). Only flows in ``unfixed``
    participate; columns outside it must already hold their final rate 0
    contribution (pathless flows never enter here). ``weights`` holds the
    integer member multiplicity per column (``None`` = all ones); the
    solved rate of a weight-``w`` column is the per-member rate.

    Bit-identity note: the per-flow fair share is a *min* over the links
    of a path and the per-link active count is a sum of integer weights —
    both are exact in IEEE floats under any evaluation order, so the
    sparse gather/``reduceat``/``bincount`` formulation below produces
    the same bits as the dense formulation, and class space the same bits
    as flow space. The ``remaining`` drain is the one genuine float
    accumulation; it goes through :func:`_exact_drain` (exactly rounded
    per link), which the module docstring argues is multiplicity- and
    association-independent.
    """
    nlinks, nflows = M.shape
    remaining = caps.copy()
    if weights is None:
        weights = np.ones(nflows)

    # CSC view: for each flow (in column order), the link rows it crosses.
    flows_cat, links_cat = np.nonzero(M.T)
    per_flow = np.bincount(flows_cat, minlength=nflows)
    starts = np.zeros(nflows, dtype=np.intp)
    if nflows:
        np.cumsum(per_flow[:-1], out=starts[1:])
    sparse = bool(nflows) and bool(per_flow.all())  # reduceat needs >=1 link/flow

    # Bound: every round fixes at least one flow (either the capped set, or
    # the flows of a newly saturated bottleneck link), so nflows + nlinks
    # rounds always suffice; the +2 covers the empty-set early exits.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(nflows + nlinks + 2):
            if not unfixed.any():
                break
            if sparse:
                live_entries = unfixed[flows_cat]
                counts = np.bincount(
                    links_cat[live_entries],
                    weights=weights[flows_cat[live_entries]],
                    minlength=nlinks,
                )
            else:
                counts = Mf @ (unfixed * weights)  # active members per link
            share = np.where(counts > 0, remaining / np.maximum(counts, 1), np.inf)
            # Per-flow fair share: min share over the links of its path.
            if sparse:
                shares_per_flow = np.minimum.reduceat(share[links_cat], starts)
            else:
                shares_per_flow = np.where(M, share[:, None], np.inf).min(axis=0)

            capped = unfixed & (fcaps <= shares_per_flow * (1 + _REL_EPS))
            if capped.any():
                rates[capped] = fcaps[capped]
                unfixed &= ~capped
                # Skip the drain when this round fixed the last columns:
                # remaining is local and never read again, so the skip
                # cannot move a bit of any rate.
                if unfixed.any():
                    _exact_drain(remaining, np.nonzero(capped)[0], rates,
                                 weights, flows_cat, links_cat)
                continue

            live = shares_per_flow[unfixed]
            m = live.min()
            newly = unfixed & (shares_per_flow <= m * (1 + _REL_EPS))
            rates[newly] = np.minimum(shares_per_flow[newly], fcaps[newly])
            unfixed &= ~newly
            if unfixed.any():
                _exact_drain(remaining, np.nonzero(newly)[0], rates,
                             weights, flows_cat, links_cat)
        else:  # pragma: no cover - loop bound is a proof, not a code path
            raise RuntimeError("progressive filling failed to converge")


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
        returned rate is the per-member rate. Default all ones.

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
    nlinks = caps.shape[0]
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

    rates = np.zeros(nflows)
    if nflows == 0:
        return rates

    # Incidence matrix M[l, f] = flow f crosses link l.
    M = np.zeros((nlinks, nflows), dtype=bool)
    for f, path in enumerate(flow_links):
        for l in path:
            M[l, f] = True

    pathless = ~M.any(axis=0)
    if np.any(pathless & ~np.isfinite(fcaps)):
        raise ValueError("a flow with an empty path must have a finite cap")
    rates[pathless] = fcaps[pathless]

    _water_fill(M, M.astype(np.float64), caps, fcaps, rates, ~pathless, weights)
    return rates


class FairshareState:
    """Persistent incidence/cap arrays + component-partitioned re-solve.

    Owns the L×C incidence matrix the solver runs over, where C is a
    column *capacity* (doubled on demand). A flow occupies one column from
    :meth:`add_flow` until :meth:`remove_flow`; freed columns go on a free
    list and are reused LIFO, so the matrix is built once and patched per
    event instead of rebuilt per solve.

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
        caps = np.array(link_caps, dtype=float)
        if np.any(caps <= 0):
            raise ValueError("link capacities must be positive")
        self._caps = caps
        self._nlinks = caps.shape[0]
        cap = max(int(capacity), 1)
        self._M = np.zeros((self._nlinks, cap), dtype=bool)
        self._fcaps = np.zeros(cap)
        self._rates = np.zeros(cap)
        self._weights = np.zeros(cap)
        self._active = np.zeros(cap, dtype=bool)
        self._paths: List[Optional[List[int]]] = [None] * cap
        # Popped back-first so fresh columns are handed out in index order.
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self.nactive = 0
        # Union-find over link ids; a component's id is its root link.
        self._parent: List[int] = list(range(self._nlinks))
        self._size: List[int] = [1] * self._nlinks
        #: root link id -> set of active columns in that component.
        self._comp_cols: Dict[int, Set[int]] = {}
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
        if b in self._dirty:
            self._dirty.discard(b)
            self._dirty.add(a)
        return a

    # -- capacity maintenance -------------------------------------------------

    def _grow_cols(self) -> None:
        old = self._M.shape[1]
        new = max(2 * old, 1)
        PROFILE.count("fairshare.matrix_growths")
        M = np.zeros((self._nlinks, new), dtype=bool)
        M[:, :old] = self._M
        self._M = M
        for name in ("_fcaps", "_rates", "_weights"):
            arr = np.zeros(new)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        active = np.zeros(new, dtype=bool)
        active[:old] = self._active
        self._active = active
        self._paths.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _grow_links(self, nlinks: int) -> None:
        M = np.zeros((nlinks, self._M.shape[1]), dtype=bool)
        M[: self._nlinks] = self._M
        self._M = M
        self._parent.extend(range(self._nlinks, nlinks))
        self._size.extend([1] * (nlinks - self._nlinks))
        self._nlinks = nlinks

    def set_link_caps(self, link_caps: Sequence[float]) -> None:
        """Adopt the current capacity vector; dirty components that changed.

        Called by the engine before every solve, so ``Link.set_rate``
        changes are picked up at the next event with no further plumbing —
        but only the components containing a changed link re-solve.
        """
        caps = np.asarray(link_caps, dtype=float)
        if caps.shape[0] > self._nlinks:
            self._grow_links(caps.shape[0])
        elif caps.shape[0] < self._nlinks:
            raise ValueError("links cannot be removed from a FairshareState")
        if self._caps.shape[0] == caps.shape[0] and np.array_equal(caps, self._caps):
            return
        if np.any(caps <= 0):
            raise ValueError("link capacities must be positive")
        old = self._caps
        for l in range(caps.shape[0]):
            if l >= old.shape[0] or caps[l] != old[l]:
                root = self._find(l)
                if self._comp_cols.get(root):
                    self._dirty.add(root)
        self._caps = caps.copy()

    # -- flow membership --------------------------------------------------------

    def add_flow(self, path: Sequence[int], fcap: float, weight: int = 1) -> int:
        """Insert a flow crossing link ids ``path``; returns its column.

        ``weight`` is the route-class member multiplicity: a weight-``w``
        column is solved as ``w`` identical flows, and its rate is the
        per-member rate. Use :meth:`set_weight` for join/leave updates.
        """
        if fcap <= 0:
            raise ValueError("flow caps must be positive")
        if weight < 1 or weight != int(weight):
            raise ValueError("flow weight must be a positive integer")
        if not self._free:
            self._grow_cols()
        col = self._free.pop()
        self._fcaps[col] = fcap
        self._rates[col] = 0.0
        self._weights[col] = float(weight)
        self._active[col] = True
        self.nactive += 1
        path = list(path)
        self._paths[col] = path
        if path:
            # The network may have grown links since the last solve; row
            # growth happens here, capacities arrive via set_link_caps.
            need = max(path) + 1
            if need > self._nlinks:
                self._grow_links(need)
            self._M[path, col] = True
            root = self._find(path[0])
            for l in path[1:]:
                root = self._union(root, self._find(l))
            self._comp_cols.setdefault(root, set()).add(col)
            self._dirty.add(root)
        else:
            if not np.isfinite(fcap):
                raise ValueError("a flow with an empty path must have a finite cap")
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
        self._active[col] = False
        self._paths[col] = None
        self._rates[col] = 0.0
        self._fcaps[col] = 0.0
        self._weights[col] = 0.0
        self.nactive -= 1
        if path:
            self._M[path, col] = False
            root = self._find(path[0])
            cols = self._comp_cols.get(root)
            if cols is not None:
                cols.discard(col)
                if cols:
                    self._dirty.add(root)
                else:
                    del self._comp_cols[root]
                    self._dirty.discard(root)
            self._removals += 1
        self._free.append(col)

    def set_weight(self, col: int, weight: int) -> None:
        """Adjust a column's member multiplicity (route-class join/leave).

        The column's component re-solves at the next :meth:`solve`. Weight
        0 parks the column: it stays registered (its links stay unioned,
        so a later re-join is a pure weight bump with no matrix or
        union-find churn) but is skipped by the solver entirely — a parked
        column costs nothing per solve. A parked column's links staying
        glued cannot move a bit: per-link arithmetic only ever sees a
        link's own member flows (see the module docstring).
        """
        if not self._active[col]:
            raise ValueError(f"column {col} is not active")
        if weight < 0 or weight != int(weight):
            raise ValueError("flow weight must be a non-negative integer")
        old = self._weights[col]
        w = float(weight)
        if w == old:
            return
        self._weights[col] = w
        self.weight_changes += 1
        path = self._paths[col]
        if path:
            self._dirty.add(self._find(path[0]))
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
        return self._M.shape[1]

    # -- solving ---------------------------------------------------------------

    def _rebuild_partition(self) -> None:
        """Recompute components from the active flows (undoes coarsening)."""
        PROFILE.count("fairshare.partition_rebuilds")
        dirty_cols = [c for r in self._dirty for c in self._comp_cols.get(r, ())]
        self._parent = list(range(self._nlinks))
        self._size = [1] * self._nlinks
        self._comp_cols = {}
        self._dirty = set()
        for col in np.nonzero(self._active)[0]:
            path = self._paths[int(col)]
            if not path:
                continue
            root = self._find(path[0])
            for l in path[1:]:
                root = self._union(root, self._find(l))
            self._comp_cols.setdefault(root, set()).add(int(col))
        for col in dirty_cols:
            path = self._paths[col]
            if path:
                self._dirty.add(self._find(path[0]))
        self._removals = 0

    def solve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Re-solve dirty components.

        Returns ``(cols, old_rates)``: the columns whose rate changed and
        the rates they had before this solve (the new rates are readable
        via :attr:`rates` / :meth:`rate_of`). Untouched components keep
        their rates and do not appear.
        """
        moved_cols: List[np.ndarray] = []
        moved_old: List[np.ndarray] = []
        if self._fresh:
            fresh = np.asarray(self._fresh, dtype=np.intp)
            self._fresh = []
            moved_cols.append(fresh)
            moved_old.append(self._rates[fresh].copy())
            self._rates[fresh] = self._fcaps[fresh]
        if self._removals >= self._REBUILD_REMOVALS:
            self._rebuild_partition()
        for root in sorted(self._dirty):
            cols_set = self._comp_cols.get(root)
            if not cols_set:
                continue
            # Weight-0 (parked) class columns keep the component glued but
            # take no bandwidth; the solver never sees them.
            comp_cols = np.fromiter(cols_set, dtype=np.intp,
                                    count=len(cols_set))
            live_cols = comp_cols[self._weights[comp_cols] > 0.0]
            if not live_cols.size:
                continue
            if live_cols.size == 1:
                # Single-column component: water-filling reduces to one
                # round. counts are ``w`` on every link of the path, so the
                # column's share is min(caps over path) / w — division by a
                # constant is weakly monotone, so the min commutes with it
                # and this produces the same bits as the general solver.
                c = int(live_cols[0])
                path = self._paths[c]
                m = self._caps[path[0]]
                for l in path[1:]:
                    cl = self._caps[l]
                    if cl < m:
                        m = cl
                w = self._weights[c]
                if w != 1.0:
                    m = m / w
                fcap = self._fcaps[c]
                rate = fcap if fcap <= m * (1 + _REL_EPS) else min(m, fcap)
                self.single_flow_solves += 1
                PROFILE.count("fairshare.single_flow_solves")
                if rate != self._rates[c]:
                    moved = np.asarray([c], dtype=np.intp)
                    moved_cols.append(moved)
                    moved_old.append(self._rates[moved].copy())
                    self._rates[c] = rate
                continue
            cols = np.sort(live_cols)
            sub = self._M[:, cols]
            links = np.nonzero(sub.any(axis=1))[0]
            subM = sub[links]
            fcaps = self._fcaps[cols]
            rates = np.zeros(cols.shape[0])
            self.solves += 1
            self.solved_rows += int(cols.shape[0])
            PROFILE.count("fairshare.solves")
            PROFILE.count("fairshare.solved_rows", cols.shape[0])
            _water_fill(
                subM,
                subM.astype(np.float64),
                self._caps[links],
                fcaps,
                rates,
                np.ones(cols.shape[0], dtype=bool),
                self._weights[cols],
            )
            diff = rates != self._rates[cols]
            if diff.any():
                moved = cols[diff]
                moved_cols.append(moved)
                moved_old.append(self._rates[moved].copy())
                self._rates[moved] = rates[diff]
        self._dirty.clear()
        if not moved_cols:
            empty = np.empty(0)
            return empty.astype(np.intp), empty
        return np.concatenate(moved_cols), np.concatenate(moved_old)

    # -- diagnostics ------------------------------------------------------------

    def link_usage(self) -> np.ndarray:
        """Per-link allocated bytes/s under the current rates.

        One dense matvec over the incidence state — the bottleneck-
        attribution layer (``repro.sim.trace``) divides this by the
        capacity vector to find which links are saturated at each rate
        change. Only called when tracing is enabled.
        """
        return self._M @ (self._rates * self._active * self._weights)

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
