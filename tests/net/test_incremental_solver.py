"""Unit tests for the persistent incremental solver (FairshareState).

The contract under test: a sequence of add/remove/cap mutations followed by
``solve()`` must yield the same allocation as a from-scratch
:func:`max_min_rates` over the currently-active flows (within float
round-off), while only re-solving components that actually changed.
"""

import numpy as np
import pytest

from repro.net.fairshare import FairshareState, max_min_rates

INF = float("inf")


def active_rates(state, cols):
    return np.array([state.rate_of(c) for c in cols])


def reference(caps, flows):
    """Stateless allocation for [(path, fcap), ...]."""
    return max_min_rates(caps, [p for p, _ in flows], [c for _, c in flows])


class TestLifecycle:
    def test_add_solve_remove(self):
        st = FairshareState([100.0])
        c0 = st.add_flow([0], INF)
        c1 = st.add_flow([0], INF)
        cols, old = st.solve()
        assert sorted(cols) == [c0, c1]
        assert list(old) == [0.0, 0.0]
        assert st.rate_of(c0) == pytest.approx(50.0)
        st.remove_flow(c1)
        st.solve()
        assert st.rate_of(c0) == pytest.approx(100.0)
        assert st.rate_of(c1) == 0.0

    def test_freed_columns_are_reused(self):
        st = FairshareState([100.0], capacity=4)
        c0 = st.add_flow([0], INF)
        st.solve()
        st.remove_flow(c0)
        assert st.add_flow([0], INF) == c0  # LIFO free list

    def test_capacity_doubles_on_demand(self):
        st = FairshareState([1000.0], capacity=2)
        cols = [st.add_flow([0], INF) for _ in range(10)]
        assert st.capacity >= 10
        st.solve()
        assert active_rates(st, cols) == pytest.approx([100.0] * 10)

    def test_remove_inactive_column_rejected(self):
        st = FairshareState([100.0])
        with pytest.raises(ValueError):
            st.remove_flow(0)

    def test_link_rows_grow_on_demand(self):
        # Engine construction can precede topology growth: a path may name
        # links the state has never seen. Capacities follow via set_link_caps.
        st = FairshareState([])
        c0 = st.add_flow([0, 2], INF)
        st.set_link_caps([100.0, 50.0, 30.0])
        st.solve()
        assert st.rate_of(c0) == pytest.approx(30.0)

    def test_link_removal_rejected(self):
        st = FairshareState([100.0, 100.0])
        with pytest.raises(ValueError):
            st.set_link_caps([100.0])

    def test_invalid_caps_rejected(self):
        st = FairshareState([100.0])
        with pytest.raises(ValueError):
            st.add_flow([0], 0.0)
        with pytest.raises(ValueError):
            st.add_flow([], INF)  # pathless needs a finite cap
        with pytest.raises(ValueError):
            st.set_link_caps([0.0])
        with pytest.raises(ValueError):
            FairshareState([-1.0])

    def test_rejected_caps_leave_state_unchanged(self):
        st = FairshareState([100.0])
        with pytest.raises(ValueError):
            st.set_link_caps([100.0, -1.0])
        st.set_link_caps([100.0])  # the rejected vector added no link
        col = st.add_flow([0], INF)
        st.solve()
        assert st.rate_of(col) == 100.0

    def test_read_only_caps_adopted_by_identity(self):
        caps = np.array([100.0, 60.0])
        caps.flags.writeable = False
        st = FairshareState(caps)
        col = st.add_flow([0, 1], INF)
        st.solve()
        st.set_link_caps(caps)  # same object: nothing to compare or dirty
        assert st.solve()[0].size == 0
        writable = np.array([100.0, 30.0])
        st.set_link_caps(writable)
        writable[1] = 20.0  # a writable input is compared on every call
        st.set_link_caps(writable)
        st.solve()
        assert st.rate_of(col) == 20.0


class TestPathless:
    def test_rated_at_cap_on_next_solve(self):
        st = FairshareState([100.0])
        c0 = st.add_flow([], 7.5)
        cols, old = st.solve()
        assert list(cols) == [c0]
        assert list(old) == [0.0]
        assert st.rate_of(c0) == 7.5

    def test_does_not_dirty_any_link_component(self):
        st = FairshareState([100.0])
        c0 = st.add_flow([0], INF)
        st.solve()
        st.add_flow([], 5.0)
        cols, _ = st.solve()
        assert c0 not in cols  # linked component untouched


class TestComponentPartitioning:
    def test_disjoint_components_solve_independently(self):
        # Links 0,1 form one component (shared by a two-hop flow); link 2
        # is its own. Arrivals on link 2 must not re-solve links 0/1.
        st = FairshareState([100.0, 30.0, 60.0])
        a0 = st.add_flow([0, 1], INF)
        a1 = st.add_flow([0], INF)
        st.solve()
        assert st.rate_of(a0) == pytest.approx(30.0)
        assert st.rate_of(a1) == pytest.approx(70.0)
        b0 = st.add_flow([2], INF)
        cols, _ = st.solve()
        assert list(cols) == [b0]
        assert st.component_sizes() == [1, 2]

    def test_cap_change_dirties_only_its_component(self):
        st = FairshareState([100.0, 60.0])
        a = st.add_flow([0], INF)
        b = st.add_flow([1], INF)
        st.solve()
        st.set_link_caps([80.0, 60.0])
        cols, old = st.solve()
        assert list(cols) == [a]
        assert list(old) == [100.0]
        assert st.rate_of(a) == pytest.approx(80.0)
        assert st.rate_of(b) == pytest.approx(60.0)

    def test_unchanged_caps_are_a_noop(self):
        st = FairshareState([100.0])
        st.add_flow([0], INF)
        st.solve()
        st.set_link_caps([100.0])
        cols, _ = st.solve()
        assert cols.size == 0

    def test_arrival_merges_components(self):
        st = FairshareState([100.0, 100.0])
        a = st.add_flow([0], INF)
        b = st.add_flow([1], INF)
        st.solve()
        assert st.component_sizes() == [1, 1]
        bridge = st.add_flow([0, 1], INF)
        cols, _ = st.solve()
        assert st.component_sizes() == [3]
        # The merged component re-solves as one; a and b keep their rates
        # only if the numbers happen to agree — here they change.
        assert sorted(cols) == sorted([a, b, bridge])

    def test_partition_rebuild_splits_coarsened_components(self):
        st = FairshareState([100.0, 100.0])
        st._REBUILD_REMOVALS = 1  # force a rebuild on the next solve
        a = st.add_flow([0], INF)
        b = st.add_flow([1], INF)
        bridge = st.add_flow([0, 1], INF)
        st.solve()
        assert st.component_sizes() == [3]
        st.remove_flow(bridge)
        st.solve()
        # Removal only coarsens lazily; the forced rebuild re-splits.
        assert st.component_sizes() == [1, 1]
        assert st.rate_of(a) == pytest.approx(100.0)
        assert st.rate_of(b) == pytest.approx(100.0)


class TestAgreementWithStateless:
    def test_matches_max_min_rates_under_churn(self):
        # Deterministic churn over a small mesh; after every mutation the
        # incremental rates must match a from-scratch solve (1e-9 rel).
        caps = [100.0, 40.0, 250.0, 80.0, 10.0]
        paths = [[0], [0, 1], [2], [2, 3], [3], [4], [0, 4], [1, 3], []]
        st = FairshareState(caps)
        live = {}  # col -> (path, fcap)
        for step in range(120):
            pick = step % len(paths)
            path = paths[pick]
            fcap = 5.0 + 3.0 * pick if (pick % 3 == 0 or not path) else INF
            col = st.add_flow(path, fcap)
            live[col] = (path, fcap)
            if step % 4 == 3:  # drop the oldest
                victim = next(iter(live))
                st.remove_flow(victim)
                del live[victim]
            st.solve()
            got = active_rates(st, list(live))
            want = reference(caps, list(live.values()))
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_cap_churn_matches_stateless(self):
        caps = [100.0, 60.0]
        st = FairshareState(caps)
        cols = [st.add_flow([0], INF), st.add_flow([0, 1], INF), st.add_flow([1], 20.0)]
        flows = [([0], INF), ([0, 1], INF), ([1], 20.0)]
        st.solve()
        for new_caps in ([80.0, 60.0], [80.0, 15.0], [200.0, 15.0], [100.0, 60.0]):
            st.set_link_caps(new_caps)
            st.solve()
            np.testing.assert_allclose(
                active_rates(st, cols), reference(new_caps, flows), rtol=1e-9
            )

    def test_solve_reports_old_rates(self):
        st = FairshareState([100.0])
        c0 = st.add_flow([0], INF)
        st.solve()
        c1 = st.add_flow([0], INF)
        cols, old = st.solve()
        by_col = dict(zip(cols.tolist(), old.tolist()))
        assert by_col[c0] == pytest.approx(100.0)  # rate before this solve
        assert by_col[c1] == pytest.approx(0.0)
