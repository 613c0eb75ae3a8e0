"""View schemas over the channel layout and the view-based batch shuffle.

A "view" is a semantically complete subset of a window's channels: one
sensor's local block, its NED block, a single measurement triplet, and so on.
Shuffling reassembles a batch so that each view slot of each output sample is
drawn from an independently permuted input sample, with per-view labels kept
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError
from .globalview import GLOBAL_CHANNELS, LOCAL_CHANNELS

GRANULARITIES = ("just_local", "small", "medium", "large")


@dataclass(frozen=True)
class ChannelLayout:
    """How a window's channel axis is organized: sensor-major, local block
    first, then the global block (when present)."""

    num_sensors: int
    has_local: bool = True
    has_global: bool = True

    @property
    def per_sensor(self):
        return self.has_local * LOCAL_CHANNELS + self.has_global * GLOBAL_CHANNELS

    @property
    def num_channels(self):
        return self.num_sensors * self.per_sensor

    def local_channels(self, sensor):
        if not self.has_local:
            raise ConfigError("layout has no local channels")
        base = sensor * self.per_sensor
        return list(range(base, base + LOCAL_CHANNELS))

    def global_channels(self, sensor):
        if not self.has_global:
            raise ConfigError("layout has no global channels")
        base = sensor * self.per_sensor + (LOCAL_CHANNELS if self.has_local else 0)
        return list(range(base, base + GLOBAL_CHANNELS))


@dataclass(frozen=True)
class ViewSchema:
    views: tuple  # ordered tuple of channel-index tuples

    @property
    def n(self):
        return len(self.views)


def build_schema(granularity, layout):
    """Partition the channels of `layout` into views.

    just_local: each sensor's 9 local channels is a view (n = m).
    small: each measurement triplet and the quaternion separately, ordered
        a, m, g, a', m', g', q per sensor (n = 7m).
    medium: each sensor's local block and global block (n = 2m).
    large: all local blocks together and all global blocks together (n = 2).
    """
    if granularity not in GRANULARITIES:
        raise ConfigError(f"unknown granularity {granularity!r}")
    m = layout.num_sensors
    views = []
    if granularity == "just_local":
        for s in range(m):
            views.append(tuple(layout.local_channels(s)))
    elif granularity == "small":
        for s in range(m):
            loc = layout.local_channels(s)
            glo = layout.global_channels(s)
            views.extend(
                [
                    tuple(loc[0:3]),  # a
                    tuple(loc[3:6]),  # m
                    tuple(loc[6:9]),  # g
                    tuple(glo[0:3]),  # a'
                    tuple(glo[3:6]),  # m'
                    tuple(glo[6:9]),  # g'
                    tuple(glo[9:13]),  # quaternion
                ]
            )
    elif granularity == "medium":
        for s in range(m):
            views.append(tuple(layout.local_channels(s)))
            views.append(tuple(layout.global_channels(s)))
    else:  # large
        local_all = []
        global_all = []
        for s in range(m):
            local_all.extend(layout.local_channels(s))
            global_all.extend(layout.global_channels(s))
        views = [tuple(local_all), tuple(global_all)]
    return ViewSchema(views=tuple(views))


def gen_shuffle_matrix(b, n, rng):
    """(b, n) matrix whose every column is an independent uniform permutation
    of 0..b-1."""
    if b < 1 or n < 1:
        raise InvalidInputError("batch size and view count must be >= 1")
    return np.column_stack([rng.permutation(b) for _ in range(n)])


def shuffle_batch(data, labels, schema, r):
    """Reassemble a batch view-by-view according to permutation matrix r.

    data: (b, t, c), labels: (b,) class indices.
    Output sample i takes view j's channels from data[r[i, j]]; the matching
    view label matrix satisfies view_labels[i, j] = labels[r[i, j]].
    """
    data = np.asarray(data)
    labels = np.asarray(labels)
    r = np.asarray(r)
    b = data.shape[0]
    if r.shape != (b, schema.n):
        raise InvalidInputError(f"shuffle matrix shape {r.shape} != ({b}, {schema.n})")
    bad = np.flatnonzero((np.sort(r, axis=0) != np.arange(b)[:, None]).any(axis=0))
    if bad.size:
        raise InvalidInputError(f"column {bad[0]} of the shuffle matrix is not a permutation")
    shuffled = data.copy()
    for j, channels in enumerate(schema.views):
        ch = list(channels)
        shuffled[:, :, ch] = data[:, :, ch][r[:, j]]
    return shuffled, labels[r]
