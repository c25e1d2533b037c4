"""Tests for the n-ary min/max search tree (Section VI-B-c)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MinMaxTree, segment_minmax


class TestMinMaxTree:
    def test_single_element(self):
        tree = MinMaxTree([7.0], arity=4)
        assert tree.query(0, 1) == (7.0, 7.0)

    def test_full_range(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        tree = MinMaxTree(values, arity=3)
        assert tree.query(0, len(values)) == (1.0, 9.0)

    def test_subranges(self):
        values = list(range(100))
        tree = MinMaxTree(values, arity=10)
        assert tree.query(13, 57) == (13.0, 56.0)
        assert tree.query(99, 100) == (99.0, 99.0)

    def test_invalid_ranges_rejected(self):
        tree = MinMaxTree([1.0, 2.0], arity=2)
        with pytest.raises(ValueError):
            tree.query(1, 1)
        with pytest.raises(ValueError):
            tree.query(-1, 2)
        with pytest.raises(ValueError):
            tree.query(0, 3)

    def test_arity_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            MinMaxTree([1.0], arity=1)

    def test_default_arity_overhead_below_five_percent(self):
        """The paper: arity 100 limits the tree overhead to 5 % of the
        counter data."""
        tree = MinMaxTree(np.random.default_rng(0).normal(size=50_000))
        assert tree.arity == 100
        assert tree.overhead_fraction() <= 0.05

    def test_small_arity_higher_overhead(self):
        values = np.arange(10_000, dtype=np.float64)
        binary = MinMaxTree(values, arity=2)
        wide = MinMaxTree(values, arity=100)
        assert binary.overhead_fraction() > wide.overhead_fraction()

    @given(values=st.lists(st.floats(min_value=-1e9, max_value=1e9,
                                     allow_nan=False), min_size=1,
                           max_size=300),
           arity=st.integers(min_value=2, max_value=7),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_min_max(self, values, arity, data):
        tree = MinMaxTree(values, arity=arity)
        lo = data.draw(st.integers(min_value=0,
                                   max_value=len(values) - 1))
        hi = data.draw(st.integers(min_value=lo + 1,
                                   max_value=len(values)))
        expected = (min(values[lo:hi]), max(values[lo:hi]))
        assert tree.query(lo, hi) == pytest.approx(expected)


class TestQuerySegments:
    """The batched kernel must equal per-segment scalar queries on
    both of its internal paths (flat leaf pass and tree-level walk)."""

    def reference(self, values, boundaries):
        mins, maxs = [], []
        for index in range(len(boundaries) - 1):
            window = values[boundaries[index]:boundaries[index + 1]]
            mins.append(window.min() if len(window) else np.nan)
            maxs.append(window.max() if len(window) else np.nan)
        return np.asarray(mins), np.asarray(maxs)

    def test_matches_scalar_queries_randomized(self):
        rng = np.random.default_rng(7)
        for __ in range(40):
            count = int(rng.integers(1, 2000))
            arity = int(rng.integers(2, 10))
            values = rng.normal(size=count) * 1e6
            tree = MinMaxTree(values, arity=arity)
            boundaries = np.sort(rng.integers(0, count + 1,
                                              size=int(rng.integers(2,
                                                                    40))))
            mins, maxs = tree.query_segments(boundaries)
            want_min, want_max = self.reference(values, boundaries)
            assert np.array_equal(mins, want_min, equal_nan=True)
            assert np.array_equal(maxs, want_max, equal_nan=True)

    def test_wide_spans_take_the_tree_walk(self):
        """A span far wider than 2 * segments * arity exercises the
        hierarchical branch; results must still equal the leaf scan."""
        rng = np.random.default_rng(8)
        values = rng.normal(size=200_000)
        tree = MinMaxTree(values, arity=4)
        boundaries = np.linspace(0, len(values), 17).astype(np.int64)
        assert len(values) > 2 * 16 * tree.arity
        mins, maxs = tree.query_segments(boundaries)
        flat_min, flat_max = segment_minmax(values, boundaries)
        assert np.array_equal(mins, flat_min)
        assert np.array_equal(maxs, flat_max)

    def test_empty_segments_are_nan(self):
        tree = MinMaxTree(np.asarray([1.0, 5.0, 3.0]), arity=2)
        mins, maxs = tree.query_segments(np.asarray([0, 0, 2, 2, 3]))
        assert np.isnan(mins[0]) and np.isnan(mins[2])
        assert (mins[1], maxs[1]) == (1.0, 5.0)
        assert (mins[3], maxs[3]) == (3.0, 3.0)

    def test_empty_tree(self):
        tree = MinMaxTree(np.empty(0), arity=3)
        mins, maxs = tree.query_segments(np.asarray([0, 0, 0]))
        assert np.isnan(mins).all() and np.isnan(maxs).all()
        assert tree.bounds() is None
