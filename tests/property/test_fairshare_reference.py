"""The sparse fair-share solver is bit-identical to the frozen dense one.

``_reference_fairshare.py`` is a frozen copy of the dense solver (L×C
incidence matrix, per-weight-bit drain). Both solvers replay the same
churn — adds, removes, weight changes including parking at 0, and link
capacity changes — and after every ``solve()`` the per-column rates and
the reported ``(cols, old_rates)`` must match byte for byte.

Mixed per-flow caps make capped rounds fix columns at several distinct
rates at once, which exercises the drain's multi-rate path;
:func:`test_churn_exercises_multi_rate_drains` checks that it does.

Components of at most ``fairshare.SCALAR_MAX_COLS`` registered columns are
solved by the scalar core, larger ones by the numpy core. The churn runs
with the constant as shipped and with it moved to pin either core, and
one case grows a component across the constant mid-run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import fairshare
from repro.net.fairshare import FairshareState
from tests.property import _reference_fairshare as ref
from tests.property._drain_count import count_drains

NLINKS = 6
FCAPS = [1e5, 2.5e6, 3.7e7, 1e8, 2.5e8, 6e8, 1e9, float("inf")]
LINK_CAPS = [1e8, 3e8, 7.5e8, 1e9, 2.2e9, 4e9]

path_st = st.lists(st.integers(0, NLINKS - 1), unique=True, min_size=0,
                   max_size=4)
weight_st = st.one_of(st.integers(1, 9), st.integers(1, 5000))

op_st = st.one_of(
    st.tuples(st.just("add"), path_st, st.sampled_from(FCAPS), weight_st),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("weight"), st.integers(0, 63),
              st.one_of(st.just(0), weight_st)),
    st.tuples(st.just("cap"), st.integers(0, NLINKS - 1),
              st.floats(1e7, 4e9)),
    st.tuples(st.just("solve")),
)

caps_st = st.lists(st.one_of(st.sampled_from(LINK_CAPS), st.floats(1e7, 4e9)),
                   min_size=NLINKS, max_size=NLINKS)
ops_st = st.lists(op_st, min_size=1, max_size=60)


@contextmanager
def _core(max_cols: int):
    """Move the core constant: 0 pins numpy, a huge value pins scalar."""
    saved = fairshare.SCALAR_MAX_COLS
    fairshare.SCALAR_MAX_COLS = max_cols
    try:
        yield
    finally:
        fairshare.SCALAR_MAX_COLS = saved


NUMPY_ONLY, SCALAR_ONLY = 0, 1 << 30


def _replay(ops, caps):
    """Drive both solvers through ``ops``; assert identity at every solve."""
    live = FairshareState(caps)
    frozen = ref.FairshareState(caps)
    cols = []
    caps = list(caps)

    def check():
        got_cols, got_old = live.solve()
        want_cols, want_old = frozen.solve()
        assert got_cols.tobytes() == want_cols.tobytes()
        assert got_old.tobytes() == want_old.tobytes()
        assert live.rates.tobytes() == frozen.rates.tobytes()

    for op in ops:
        kind = op[0]
        if kind == "add":
            _, path, fcap, weight = op
            if not path and fcap == float("inf"):
                fcap = 1e6
            col = live.add_flow(path, fcap, weight)
            assert frozen.add_flow(path, fcap, weight) == col
            cols.append(col)
        elif kind == "remove" and cols:
            col = cols.pop(op[1] % len(cols))
            live.remove_flow(col)
            frozen.remove_flow(col)
        elif kind == "weight" and cols:
            col = cols[op[1] % len(cols)]
            live.set_weight(col, op[2])
            frozen.set_weight(col, op[2])
        elif kind == "cap":
            caps[op[1]] = op[2]
            live.set_link_caps(caps)
            frozen.set_link_caps(caps)
        elif kind == "solve":
            check()
    check()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(caps=caps_st, ops=ops_st,
       core=st.sampled_from((fairshare.SCALAR_MAX_COLS, NUMPY_ONLY, SCALAR_ONLY)))
def test_churn_matches_frozen_dense_solver(caps, ops, core):
    with _core(core):
        _replay(ops, caps)


def test_churn_crosses_core_constant_mid_run(monkeypatch):
    """One component grows past SCALAR_MAX_COLS, then shrinks below it."""
    used = {"numpy": 0, "scalar": 0}
    for name, key in (("_water_fill", "numpy"), ("_water_fill_scalar", "scalar")):
        def counting(*args, _fn=getattr(fairshare, name), _key=key):
            used[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(fairshare, name, counting)
    rng = random.Random(13)
    peak = 2 * fairshare.SCALAR_MAX_COLS + 8
    ops = []
    # Every path crosses link 0, so all columns share one component.
    for _ in range(peak):
        path = [0] + rng.sample(range(1, NLINKS), rng.randint(0, 3))
        ops += [("add", path, rng.choice(FCAPS), rng.randint(1, 40)), ("solve",)]
        if rng.random() < 0.2:
            ops.append(("weight", rng.randrange(64), rng.randint(0, 40)))
    for _ in range(peak):
        ops += [("remove", rng.randrange(64)), ("solve",)]
    _replay(ops, [rng.choice(LINK_CAPS) for _ in range(NLINKS)])
    assert used["numpy"] > 10
    assert used["scalar"] > 10


def _random_ops(rng: random.Random, n: int):
    ops = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45:
            path = rng.sample(range(NLINKS), rng.randint(1, 4))
            ops.append(("add", path, rng.choice(FCAPS), rng.randint(1, 40)))
        elif roll < 0.6:
            ops.append(("remove", rng.randrange(64)))
        elif roll < 0.8:
            ops.append(("weight", rng.randrange(64), rng.randint(0, 40)))
        elif roll < 0.85:
            ops.append(("cap", rng.randrange(NLINKS), rng.uniform(1e7, 4e9)))
        else:
            ops.append(("solve",))
    return ops


def _churn_drains(monkeypatch, max_cols: int, drain: str) -> dict:
    """Seeded churn on one core, counting that core's drains."""
    monkeypatch.setattr(fairshare, "SCALAR_MAX_COLS", max_cols)
    seen = count_drains(monkeypatch, drain)
    rng = random.Random(20051112)
    for _ in range(40):
        _replay(_random_ops(rng, 80), [rng.choice(LINK_CAPS)
                                       for _ in range(NLINKS)])
    return seen


def test_churn_exercises_multi_rate_drains(monkeypatch):
    """The churn mix really fixes columns at two or more rates per round."""
    seen = _churn_drains(monkeypatch, NUMPY_ONLY, "_exact_drain")
    assert seen["drains"] > 100
    assert seen["multi"] > 10


def test_churn_exercises_multi_rate_drains_scalar_core(monkeypatch):
    """The scalar core's drain sees the multi-rate rounds too."""
    seen = _churn_drains(monkeypatch, SCALAR_ONLY, "_exact_drain_scalar")
    assert seen["drains"] > 100
    assert seen["multi"] > 10
