"""The rate-keyed drain is the exactly rounded per-link value.

``fairshare._exact_drain`` subtracts the columns fixed in one round from
each link's ``remaining`` capacity. The claim (fairshare module
docstring): per link the result is the exactly rounded value of
``remaining - sum over members of their rate``, clamped at zero, for any
member weight ``K < 2**26`` on a link and any number of distinct rates.
The oracle sums expanded per-member terms with ``math.fsum``; a weight too
large to expand one term per member is expanded one exact ``r * 2**b``
term per set bit, which is the same real. The scalar core's drain,
``fairshare._exact_drain_scalar``, is held to the same oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.fairshare import (
    WEIGHT_LIMIT,
    FairshareState,
    _exact_drain,
    _exact_drain_scalar,
    _two_product,
    max_min_rates,
)


def _member_terms(weight: int, rate: float):
    """Exact terms summing to ``weight * rate``: one per member if few."""
    if weight <= 64:
        return [rate] * weight
    return [rate * float(1 << b) for b in range(weight.bit_length())
            if weight >> b & 1]


def _oracle(remaining, columns, fixed):
    out = []
    for l, rem in enumerate(remaining):
        terms = [rem]
        for (path, weight, rate), f in zip(columns, fixed):
            if f and l in path:
                terms.extend(-t for t in _member_terms(weight, rate))
        acc = math.fsum(terms)
        out.append(acc if acc > 0.0 else 0.0)
    return np.array(out)


def _csc(columns):
    flows_cat, links_cat = [], []
    for c, (path, _w, _r) in enumerate(columns):
        flows_cat.extend([c] * len(path))
        links_cat.extend(path)
    return np.array(flows_cat, dtype=np.intp), np.array(links_cat, dtype=np.intp)


def _scalar_drain(remaining, columns, fixed):
    """Run ``_exact_drain_scalar``; return (remaining, counts) by link."""
    paths = [tuple(p) for p, _, _ in columns]
    weights = [float(w) for _, w, _ in columns]
    rates = [r for _, _, r in columns]
    rem = {l: float(x) for l, x in enumerate(remaining)}
    counts = {l: 0.0 for l in rem}
    for path, w in zip(paths, weights):
        for l in path:
            counts[l] += w
    _exact_drain_scalar(rem, counts, [c for c, f in enumerate(fixed) if f],
                        rates, weights, paths)
    return (np.array([rem[l] for l in sorted(rem)]),
            np.array([counts[l] for l in sorted(counts)]))


NLINKS = 5
rate_st = st.floats(1e3, 1e10, allow_nan=False, allow_infinity=False)
weight_st = st.one_of(st.integers(1, 12), st.integers(1, WEIGHT_LIMIT - 1))


@st.composite
def drain_case(draw):
    nrates = draw(st.integers(1, 3))
    rates = draw(st.lists(rate_st, min_size=nrates, max_size=nrates))
    ncols = draw(st.integers(1, 8))
    columns = []
    for _ in range(ncols):
        path = draw(st.lists(st.integers(0, NLINKS - 1), unique=True,
                             min_size=1, max_size=NLINKS))
        columns.append((path, draw(weight_st), draw(st.sampled_from(rates))))
    fixed = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
    if not any(fixed):
        fixed[0] = True
    # Scale weights down so every link's total stays below 2**26.
    load = [sum(w for p, w, _ in columns if l in p) for l in range(NLINKS)]
    scale = max(1, -(-max(load) // (WEIGHT_LIMIT - 1)))
    columns = [(p, max(1, w // scale), r) for p, w, r in columns]
    demand = [sum(w * r for (p, w, r), f in zip(columns, fixed) if f and l in p)
              for l in range(NLINKS)]
    # Remaining capacity around the fixed demand: some links clamp to 0.
    remaining = [d * draw(st.floats(0.5, 2.0)) + draw(st.floats(0.0, 1e6))
                 for d in demand]
    return remaining, columns, fixed


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=drain_case())
def test_drain_is_exactly_rounded(case):
    remaining, columns, fixed = case
    flows_cat, links_cat = _csc(columns)
    weights = np.array([float(w) for _, w, _ in columns])
    rates = np.array([r for _, _, r in columns])
    mask = np.array(fixed)
    counts = np.bincount(links_cat, weights[flows_cat], NLINKS)
    want_counts = counts - np.bincount(
        links_cat, np.where(mask, weights, 0.0)[flows_cat], NLINKS)
    got = np.array(remaining, dtype=float)
    _exact_drain(got, counts, mask, rates, weights, flows_cat, links_cat)
    assert got.tobytes() == _oracle(remaining, columns, fixed).tobytes()
    assert counts.tobytes() == want_counts.tobytes()
    scalar, scalar_counts = _scalar_drain(remaining, columns, fixed)
    assert scalar.tobytes() == got.tobytes()
    assert scalar_counts.tobytes() == want_counts.tobytes()


def test_drain_cases_cover_the_hard_paths():
    """Inexact products, large K, multi-rate links and the clamp all occur."""
    r = 0.1 + 1e8  # no short binary expansion: 3 * r is inexact
    k = WEIGHT_LIMIT - 1
    p, e = _two_product(float(k), r)
    assert e != 0.0
    assert math.fsum([p, e] + [-r * float(1 << b) for b in range(26)]) == 0.0
    columns = [([0, 1], 3, r), ([1], k - 3, 2.5e3), ([2], 1, 7e8), ([0], 2, 2.5e3)]
    remaining = [3 * r + 5e3 + 0.7, (k - 3) * 2.5e3 + 3 * r + 1.0, 1e8]
    flows_cat, links_cat = _csc(columns)
    weights = np.array([float(w) for _, w, _ in columns])
    rates = np.array([c[2] for c in columns])
    fixed = [True] * 4
    counts = np.bincount(links_cat, weights[flows_cat], 3)
    got = np.array(remaining)
    _exact_drain(got, counts, np.array(fixed), rates, weights, flows_cat,
                 links_cat)
    want = _oracle(remaining, columns, fixed)
    assert got.tobytes() == want.tobytes()
    assert got[2] == 0.0  # clamped: 7e8 drained from 1e8
    assert counts.tolist() == [0.0, 0.0, 0.0]
    scalar, scalar_counts = _scalar_drain(remaining, columns, fixed)
    assert scalar.tobytes() == want.tobytes()
    assert scalar_counts.tolist() == [0.0, 0.0, 0.0]


def test_component_weight_limit():
    st_ = FairshareState([1e9, 1e9, 1e9])
    with pytest.raises(ValueError):
        st_.add_flow([0], 1e8, weight=WEIGHT_LIMIT)
    a = st_.add_flow([0, 1], 1e8, weight=WEIGHT_LIMIT // 2)
    with pytest.raises(ValueError):
        st_.add_flow([1], 1e8, weight=WEIGHT_LIMIT // 2)
    # A flow that would glue another component onto a's is refused too.
    b = st_.add_flow([2], 1e8, weight=WEIGHT_LIMIT // 2)
    with pytest.raises(ValueError):
        st_.add_flow([1, 2], 1e8)
    with pytest.raises(ValueError):
        st_.set_weight(a, WEIGHT_LIMIT)
    assert st_.weight_of(a) == WEIGHT_LIMIT // 2
    st_.set_weight(b, 0)
    st_.add_flow([1, 2], 1e8, weight=WEIGHT_LIMIT // 2 - 1)
    st_.solve()
    with pytest.raises(ValueError):
        max_min_rates([1e9], [[0]], [1e8], [WEIGHT_LIMIT])
