"""View schema and batch-shuffle tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhar.errors import ConfigError, InvalidInputError
from flowhar.views import (
    ChannelLayout,
    ViewSchema,
    build_schema,
    gen_shuffle_matrix,
    shuffle_batch,
)


class TestChannelLayout:
    def test_concat_layout(self):
        layout = ChannelLayout(num_sensors=2)
        assert layout.per_sensor == 22
        assert layout.num_channels == 44
        assert layout.local_channels(1) == list(range(22, 31))
        assert layout.global_channels(1) == list(range(31, 44))

    def test_global_only_layout(self):
        layout = ChannelLayout(num_sensors=1, has_local=False)
        assert layout.num_channels == 13
        assert layout.global_channels(0) == list(range(13))
        with pytest.raises(ConfigError, match="layout has no local channels"):
            layout.local_channels(0)


class TestBuildSchema:
    def test_medium_three_sensors(self):
        schema = build_schema("medium", ChannelLayout(num_sensors=3))
        assert schema.n == 6

    def test_small_one_sensor(self):
        schema = build_schema("small", ChannelLayout(num_sensors=1))
        assert schema.n == 7
        # order: a, m, g, a', m', g', quaternion
        assert schema.views[0] == (0, 1, 2)
        assert schema.views[2] == (6, 7, 8)
        assert schema.views[3] == (9, 10, 11)
        assert schema.views[6] == (18, 19, 20, 21)

    def test_large_five_sensors(self):
        schema = build_schema("large", ChannelLayout(num_sensors=5))
        assert schema.n == 2

    def test_just_local(self):
        schema = build_schema("just_local", ChannelLayout(num_sensors=2))
        assert schema.n == 2
        assert schema.views[0] == tuple(range(9))

    def test_views_disjoint_and_ordered(self):
        for granularity in ("just_local", "small", "medium", "large"):
            schema = build_schema(granularity, ChannelLayout(num_sensors=2))
            flat = [c for view in schema.views for c in view]
            assert len(flat) == len(set(flat))

    def test_unknown_granularity(self):
        with pytest.raises(ConfigError, match="unknown granularity 'huge'"):
            build_schema("huge", ChannelLayout(num_sensors=1))

    def test_global_granularity_on_local_only_layout(self):
        with pytest.raises(ConfigError, match="layout has no global channels"):
            build_schema("medium", ChannelLayout(num_sensors=1, has_global=False))


class TestGenShuffleMatrix:
    def test_single_sample(self):
        r = gen_shuffle_matrix(1, 3, np.random.default_rng(0))
        assert np.array_equal(r, np.zeros((1, 3), dtype=int))

    def test_determinism(self):
        a = gen_shuffle_matrix(8, 4, np.random.default_rng(7))
        b = gen_shuffle_matrix(8, 4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInputError):
            gen_shuffle_matrix(0, 3, np.random.default_rng(0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_columns_are_permutations(self, b, n, seed):
        r = gen_shuffle_matrix(b, n, np.random.default_rng(seed))
        assert r.shape == (b, n)
        for j in range(n):
            assert np.array_equal(np.sort(r[:, j]), np.arange(b))


def _batch(b, t, channels_per_view, n):
    """Batch whose value encodes (sample, channel) so provenance is checkable."""
    c = channels_per_view * n
    data = np.zeros((b, t, c))
    for i in range(b):
        for ch in range(c):
            data[i, :, ch] = 100 * i + ch
    labels = np.arange(b) % 4
    schema = ViewSchema(
        views=tuple(
            tuple(range(v * channels_per_view, (v + 1) * channels_per_view))
            for v in range(n)
        ),
    )
    return data, labels, schema


class TestShuffleBatch:
    def test_worked_example_batch_of_four(self):
        # Three views, batch of four; each output sample i takes view j from
        # the input sample r[i, j], and inherits that sample's label for the
        # view.  (Indices are 0-based.)
        data, labels, schema = _batch(b=4, t=2, channels_per_view=1, n=3)
        r = np.array([[2, 3, 0], [0, 2, 1], [1, 0, 2], [3, 1, 3]])
        shuffled, view_labels = shuffle_batch(data, labels, schema, r)
        for i in range(4):
            for j in range(3):
                assert np.array_equal(shuffled[i, :, j], data[r[i, j], :, j])
                assert view_labels[i, j] == labels[r[i, j]]
        # spot-check the first shuffled sample explicitly
        assert np.array_equal(shuffled[0, 0, :], [200, 301, 2])
        assert np.array_equal(view_labels[0], [2, 3, 0])

    def test_identity_round_trip(self):
        data, labels, schema = _batch(b=5, t=3, channels_per_view=2, n=2)
        r = np.tile(np.arange(5)[:, None], (1, 2))
        shuffled, view_labels = shuffle_batch(data, labels, schema, r)
        assert np.array_equal(shuffled, data)
        assert np.array_equal(view_labels, np.tile(labels[:, None], (1, 2)))

    def test_conservation_per_view(self):
        data, labels, schema = _batch(b=6, t=2, channels_per_view=2, n=3)
        rng = np.random.default_rng(13)
        r = gen_shuffle_matrix(6, 3, rng)
        shuffled, _ = shuffle_batch(data, labels, schema, r)
        for j, view in enumerate(schema.views):
            ch = list(view)
            before = {arr.tobytes() for arr in data[:, :, ch]}
            after = {arr.tobytes() for arr in shuffled[:, :, ch]}
            assert before == after

    def test_input_not_mutated(self):
        data, labels, schema = _batch(b=4, t=2, channels_per_view=1, n=2)
        original = data.copy()
        r = gen_shuffle_matrix(4, 2, np.random.default_rng(3))
        shuffle_batch(data, labels, schema, r)
        assert np.array_equal(data, original)

    def test_bad_shape(self):
        data, labels, schema = _batch(b=4, t=2, channels_per_view=1, n=2)
        with pytest.raises(InvalidInputError):
            shuffle_batch(data, labels, schema, np.zeros((3, 2), dtype=int))

    def test_non_permutation_column(self):
        data, labels, schema = _batch(b=4, t=2, channels_per_view=1, n=2)
        r = np.zeros((4, 2), dtype=int)  # repeated indices
        with pytest.raises(InvalidInputError):
            shuffle_batch(data, labels, schema, r)

    @pytest.mark.parametrize("column, bad", [
        ([0, 0, 1, 2], 1),  # a repeat
        ([0, 1, 2, 4], 1),  # out of range
        ([3, 2, 1, -1], 2),  # negative
    ])
    def test_first_bad_column_is_named(self, column, bad):
        data, labels, schema = _batch(b=4, t=2, channels_per_view=1, n=4)
        r = np.tile(np.arange(4)[:, None], (1, 4))
        r[:, bad] = column
        r[:, 3] = [1, 1, 1, 1]  # a later bad column is not the one reported
        with pytest.raises(InvalidInputError,
                           match=rf"^column {bad} of the shuffle matrix is not a permutation$"):
            shuffle_batch(data, labels, schema, r)

    @pytest.mark.parametrize("granularity", ["just_local", "small", "medium", "large"])
    def test_equals_per_sample_per_channel_loop(self, granularity):
        # just_local on a concat layout leaves every global channel outside
        # the views.  The views, and the channels within each, are shuffled
        # so that nothing relies on them being sorted.
        rng = np.random.default_rng(5)
        layout = ChannelLayout(num_sensors=2)
        views = [tuple(rng.permutation(view).tolist())
                 for view in build_schema(granularity, layout).views]
        schema = ViewSchema(tuple(views[k] for k in rng.permutation(len(views))))
        b, t = 7, 3
        data = rng.normal(size=(b, t, layout.num_channels)).astype(np.float32)
        labels = rng.integers(0, 5, size=b)
        r = gen_shuffle_matrix(b, schema.n, rng)
        expected = data.copy()
        expected_labels = np.empty((b, schema.n), dtype=labels.dtype)
        for i in range(b):
            for j, view in enumerate(schema.views):
                for c in view:
                    expected[i, :, c] = data[r[i, j], :, c]
                expected_labels[i, j] = labels[r[i, j]]
        shuffled, view_labels = shuffle_batch(data, labels, schema, r)
        assert shuffled.dtype == data.dtype and view_labels.dtype == labels.dtype
        assert np.array_equal(shuffled, expected)
        assert np.array_equal(view_labels, expected_labels)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_label_alignment_property(self, b, n, seed):
        data, labels, schema = _batch(b=b, t=2, channels_per_view=1, n=n)
        r = gen_shuffle_matrix(b, n, np.random.default_rng(seed))
        shuffled, view_labels = shuffle_batch(data, labels, schema, r)
        for i in range(b):
            for j in range(n):
                assert np.array_equal(shuffled[i, :, j], data[r[i, j], :, j])
                assert view_labels[i, j] == labels[r[i, j]]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 3),
        st.integers(1, 7),
        st.integers(0, 2**32 - 1),
    )
    def test_views_conserved_and_labels_follow_donor(self, b, t, c, seed):
        # Random data, a random partition of a random subset of channels into
        # views, and the donor of each output view block found by its content
        # rather than read from r.
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(b, t, c))
        labels = rng.integers(0, 5, size=b)
        owner = rng.integers(-1, 3, size=c)  # -1: channel in no view
        views = tuple(tuple(np.flatnonzero(owner == v).tolist()) for v in range(3))
        schema = ViewSchema(views=tuple(v for v in views if v))
        if schema.n == 0:
            return
        r = gen_shuffle_matrix(b, schema.n, rng)
        shuffled, view_labels = shuffle_batch(data, labels, schema, r)
        unviewed = np.flatnonzero(owner == -1)
        assert np.array_equal(shuffled[:, :, unviewed], data[:, :, unviewed])
        for j, view in enumerate(schema.views):
            ch = list(view)
            before = sorted(block.tobytes() for block in data[:, :, ch])
            after = sorted(block.tobytes() for block in shuffled[:, :, ch])
            assert before == after
            for i in range(b):
                donors = [d for d in range(b) if np.array_equal(data[d][:, ch], shuffled[i][:, ch])]
                assert len(donors) == 1 and view_labels[i, j] == labels[donors[0]]
