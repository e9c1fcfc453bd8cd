"""The roll-up's level order: a radix-sortable depth key, one cut pass."""

import pytest

pytest.importorskip("numpy")

import numpy as np  # noqa: E402

from repro.kernels.rollup import _depth_key, _levels  # noqa: E402


def test_depth_key_narrows_to_int16_when_the_maximum_fits():
    depth = np.array([3, 1, 2, 3, 32_767, 2], dtype=np.int64)
    key = _depth_key(depth)
    assert key.dtype == np.int16
    assert key.tolist() == depth.tolist()


def test_depth_key_keeps_int64_beyond_int16():
    depth = np.array([3, 1, 32_768, 2], dtype=np.int64)
    key = _depth_key(depth)
    assert key.dtype == np.int64
    assert key is depth


def test_level_order_is_the_same_on_either_dtype():
    rng = np.random.default_rng(7)
    shallow = rng.integers(1, 40, size=5_000).astype(np.int64)
    # The same relative depths pushed past int16: the key stays int64.
    deep = shallow + 40_000
    assert _depth_key(shallow).dtype == np.int16
    assert _depth_key(deep).dtype == np.int64
    by_shallow, shallow_bounds = _levels(shallow)
    by_deep, deep_bounds = _levels(deep)
    assert by_shallow.tolist() == by_deep.tolist()
    assert shallow_bounds == deep_bounds
    # Stable within a level, levels shallowest first, bounds cut them.
    assert by_shallow.tolist() == np.argsort(shallow, kind="stable").tolist()
    for low, high in zip(shallow_bounds, shallow_bounds[1:]):
        assert len(set(shallow[by_shallow[low:high]].tolist())) == 1
    assert shallow_bounds[0] == 0 and shallow_bounds[-1] == len(shallow)


def test_levels_of_nothing():
    by_depth, bounds = _levels(np.empty(0, dtype=np.int64))
    assert by_depth.tolist() == [] and bounds == [0, 0]
