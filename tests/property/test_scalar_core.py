"""The scalar fair-share core gives the numpy core's bits.

``fairshare._water_fill_scalar`` replays ``fairshare._water_fill`` round
by round in plain Python (module docstring of ``repro.net.fairshare``).
Both cores run on the same instance here and must return byte-identical
rates: mixed per-flow caps including ``inf``, member weights up to 5000,
and enough columns per link that capped rounds fix columns at several
distinct rates at once (the drain's multi-rate path). Some caps sit
within a few ``1e-9`` of a link's even share, on either side of the
``1 + 1e-9`` slack both cores test caps and bottlenecks against.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import fairshare
from repro.net.fairshare import _solve_paths, _water_fill_scalar, max_min_rates
from tests.property._drain_count import count_drains

FCAPS = [1e5, 2.5e6, 3.7e7, 1e8, 2.5e8, 6e8, 1e9, float("inf")]
LINK_CAPS = [1e8, 3e8, 7.5e8, 1e9, 2.2e9, 4e9]
#: Relative offsets around the solver's ``1 + 1e-9`` slack.
NEAR = [-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]


@st.composite
def instances(draw):
    nlinks = draw(st.integers(1, 8))
    near_cap = st.builds(lambda cap, d: cap * (1.0 + d),
                         st.sampled_from(LINK_CAPS), st.sampled_from(NEAR))
    caps = draw(st.lists(st.one_of(st.sampled_from(LINK_CAPS),
                                   st.floats(1e6, 4e9), near_cap),
                         min_size=nlinks, max_size=nlinks))
    ncols = draw(st.integers(1, 40))
    path_st = st.lists(st.integers(0, nlinks - 1), unique=True, min_size=1,
                       max_size=min(nlinks, 5)).map(tuple)
    paths = draw(st.lists(path_st, min_size=ncols, max_size=ncols))
    near_share = st.builds(
        lambda cap, n, d: cap / n * (1.0 + d),
        st.sampled_from(caps), st.integers(1, ncols), st.sampled_from(NEAR))
    fcaps = draw(st.lists(st.one_of(st.sampled_from(FCAPS), st.floats(1e4, 5e9),
                                    near_share),
                          min_size=ncols, max_size=ncols))
    weights = draw(st.lists(st.one_of(st.integers(1, 9), st.integers(1, 5000)),
                            min_size=ncols, max_size=ncols))
    return caps, paths, fcaps, [float(w) for w in weights]


def _both(caps, paths, fcaps, weights):
    scalar = np.array(_water_fill_scalar(list(caps), paths, list(fcaps),
                                         list(weights)))
    vector = _solve_paths(np.array(caps), paths, np.array(fcaps),
                          np.array(weights))
    return scalar, vector


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(inst=instances())
def test_scalar_core_matches_numpy_core(inst):
    scalar, vector = _both(*inst)
    assert scalar.tobytes() == vector.tobytes()


def test_instances_take_multi_rate_drains(monkeypatch):
    """Seeded instances of the same shape do reach multi-rate rounds."""
    seen = count_drains(monkeypatch, "_exact_drain_scalar")
    rng = random.Random(2005)
    for _ in range(200):
        nlinks = rng.randint(1, 8)
        caps = [rng.choice(LINK_CAPS) for _ in range(nlinks)]
        ncols = rng.randint(1, 40)
        paths = [tuple(rng.sample(range(nlinks), rng.randint(1, min(nlinks, 5))))
                 for _ in range(ncols)]
        fcaps = [rng.choice(FCAPS) for _ in range(ncols)]
        weights = [float(rng.choice((1, rng.randint(1, 5000))))
                   for _ in range(ncols)]
        scalar, vector = _both(caps, paths, fcaps, weights)
        assert scalar.tobytes() == vector.tobytes()
    assert seen["drains"] > 100
    assert seen["multi"] > 10


def test_caps_inside_the_slack_are_capped_rounds():
    """A cap within 1e-9 above the even share is fixed at the cap."""
    caps = [1e9]
    paths = [(0,), (0,)]
    fcaps = [5e8 * (1 + 5e-10), float("inf")]
    scalar, vector = _both(caps, paths, fcaps, [1.0, 1.0])
    assert scalar.tobytes() == vector.tobytes()
    assert scalar[0] == fcaps[0]


def test_shares_inside_the_slack_fix_together():
    """Columns whose shares are within 1e-9 of the minimum share one round."""
    caps = [1e9, 1e9 * (1 + 5e-10)]
    paths = [(0,), (1,), (0, 1)]
    inf = float("inf")
    scalar, vector = _both(caps, paths, [inf, inf, inf], [1.0, 1.0, 1.0])
    assert scalar.tobytes() == vector.tobytes()
    # Fixed at its own share in round one, not at what link 1 has left
    # after round one drains 5e8 from it.
    assert scalar[1] == caps[1] / 2


def test_max_min_rates_same_on_either_core(monkeypatch):
    rng = random.Random(7)
    caps = [rng.choice(LINK_CAPS) for _ in range(6)]
    links = [rng.sample(range(6), rng.randint(0, 4)) for _ in range(30)]
    fcaps = [rng.choice(FCAPS[:-1]) if not p else rng.choice(FCAPS)
             for p in links]
    weights = [rng.randint(1, 50) for _ in links]
    got = {}
    for max_cols in (0, 1 << 30):
        monkeypatch.setattr(fairshare, "SCALAR_MAX_COLS", max_cols)
        got[max_cols] = max_min_rates(caps, links, fcaps, weights).tobytes()
    assert got[0] == got[1 << 30]
