"""What stays of the compatibility surface.

The ``simulate_*`` functions take only the canonical ``bandwidth_bps`` /
``delta`` keywords; the historical spellings (``bandwidth=``,
``rate_bps=``, ``reconf_delay=``, ``reconfiguration_delay=``) are gone.
The retired plan cache keeps an importable, always-missing
``PlanCache`` name that warns on construction.
"""

import warnings

import pytest

from repro.sim import simulate_intra_sunflow
from repro.units import GBPS, MS

BANDWIDTH = 1 * GBPS
DELTA = 10 * MS


def test_canonical_spelling_warns_nothing(figure1_coflow):
    from repro.core.coflow import CoflowTrace

    trace = CoflowTrace(7, [figure1_coflow])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        simulate_intra_sunflow(trace, bandwidth_bps=BANDWIDTH, delta=DELTA)


def test_retired_plan_cache_warns_and_never_hits():
    from repro.core.plan_cache import PlanCache

    with pytest.warns(DeprecationWarning, match="plan cache was removed"):
        cache = PlanCache()
    cache.store(object(), [], 0.0)
    assert cache.fetch(None, (), 7, {(0, 1): 1.0}, 0.0) == (None, None)
