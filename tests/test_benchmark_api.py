"""The library API that the benchmark in ``chshbench/`` calls.

The benchmark builds settings distributions by the name
``bounds.BiasedDistribution`` from flat arrays of four, and hands their
``probs`` to closed forms that unpack four scalars.  These tests run its
per-layer measurement once, so a change to that API fails here rather than
only in a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from chshcert import bounds, core

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chshbench"))

import layers  # noqa: E402


def test_biased_distribution_is_the_settings_type():
    assert bounds.BiasedDistribution is core.SettingsDistribution


def test_probs_is_a_read_only_flat_view_in_jk_order():
    dist = bounds.BiasedDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
    assert dist.probs.shape == (4,)
    np.testing.assert_array_equal(dist.probs, dist.q.ravel())
    assert dist.q[0, 1] == 0.2 and dist.q[1, 0] == 0.3
    with pytest.raises(ValueError):
        dist.probs[0] = 0.5


def test_layer_measurement_finds_no_problems():
    metrics, ops, problems = layers.measure(3)
    assert problems == []
    assert ops > 0
    assert all(np.isfinite(v) for v in metrics.values())
