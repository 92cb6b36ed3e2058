"""Count the drains a fair-share test provokes, and how many are multi-rate.

Both cores' drains take ``(remaining, counts, fixed, rates, ...)``: the
numpy one with a boolean mask over a rate array, the scalar one with a
list of column indices over a rate list. ``np.asarray(rates)[fixed]``
reads the fixed columns' rates from either.
"""

from __future__ import annotations

import numpy as np

from repro.net import fairshare


def count_drains(monkeypatch, name: str) -> dict:
    """Wrap ``fairshare.<name>``; the returned dict fills in as it runs."""
    seen = {"drains": 0, "multi": 0}
    drain = getattr(fairshare, name)

    def counting(remaining, counts, fixed, rates, *rest):
        seen["drains"] += 1
        seen["multi"] += np.unique(np.asarray(rates)[fixed]).size > 1
        return drain(remaining, counts, fixed, rates, *rest)

    monkeypatch.setattr(fairshare, name, counting)
    return seen
