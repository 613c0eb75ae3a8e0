"""Seeded inputs for the benchmark workloads.

Every array here is a pure function of the seed.  The library sees only
what these functions return: recordings in memory, OPPORTUNITY-shaped text
files, or stacked windows.  The generator also keeps what it knows about
its own inputs (true attitude, where the gaps and unmapped labels are) so
the workloads can check the library's outputs against it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import flowhar
from flowhar import SynthSpec, synth_generate, synth_population
from flowhar.attitude import G0
from flowhar.dataset import Recording, parse_spec_file
from flowhar.synth import random_unit_quaternion

RATE_HZ = 30.0
WARMUP_S = 1.0  # MahonyParams default and `--warmup` default
TRIM = math.ceil(WARMUP_S * RATE_HZ)
MAX_GAP = 10  # `--max-gap` default of the CLI
WIN_LEN = 64
STRIDE = 32
OPP_COLUMNS = 250
# A raw gesture code the shipped spec does not map: windows whose majority
# label is this code are dropped by the library.
UNMAPPED_CODE = 999
# NaN runs are placed one per slot of this many samples, so no two runs
# touch and the over-long ones are known exactly.
GAP_SLOT = 90
LONG_GAP = (MAX_GAP + 5, 40)
LONG_GAP_SHARE = 0.25


def opportunity_spec():
    """The spec shipped with the library."""
    return parse_spec_file(Path(flowhar.__file__).parent / "specs" / "opportunity.spec")


def criterion7_population(seed):
    """Acceptance criterion 7's corpus: 3 users x 4 activities x 5 sessions
    of 12 s at 30 Hz, each session starting at a uniformly random attitude."""
    base = dict(duration_s=12.0, rate_hz=RATE_HZ,
                accel_noise_std=0.05, gyro_noise_std=0.01, mag_noise_std=0.01)
    acts = [
        SynthSpec(label=0, **base),
        SynthSpec(label=1, lin_acc_amp_ned=(0.0, 0.0, 3.0), lin_acc_freq_hz=2.0, **base),
        SynthSpec(label=2, lin_acc_amp_ned=(3.0, 0.0, 0.0), lin_acc_freq_hz=2.0, **base),
        SynthSpec(label=3, lin_acc_amp_ned=(0.0, 3.0, 0.0), lin_acc_freq_hz=2.0, **base),
    ]
    return synth_population(3, acts, rng_seed=seed, min_separation_deg=30.0,
                            sessions=5, random_heading="full")


def imu_streams(rng, rows, sensor_names):
    """One synthetic (rows, 9) SI-unit stream per sensor plus its true
    attitude.  Each sensor has its own mounting, start attitude, piecewise
    rotation and linear acceleration, as body-worn IMUs on different limbs."""
    streams, truth = {}, {}
    duration = rows / RATE_HZ
    for name in sensor_names:
        segments = tuple(
            (duration / 4, tuple(rng.uniform(-0.6, 0.6, 3))) for _ in range(4)
        )
        spec = SynthSpec(
            duration_s=duration, rate_hz=RATE_HZ, segments=segments,
            lin_acc_amp_ned=tuple(rng.uniform(-1.0, 1.0, 3)), lin_acc_freq_hz=1.0,
            mounting=tuple(random_unit_quaternion(rng)),
            initial_orientation=tuple(random_unit_quaternion(rng)),
            accel_noise_std=0.05, gyro_noise_std=0.01, mag_noise_std=0.01,
        )
        rec, q = synth_generate(spec, rng)
        streams[name] = rec.sensors["imu0"]
        truth[name] = q
    return streams, truth


def gesture_labels(rng, rows, label_map):
    """Raw gesture codes in runs of 40-159 samples, drawn from the mapped
    codes plus one unmapped code."""
    codes = sorted(label_map) + [UNMAPPED_CODE]
    labels = np.empty(rows, dtype=np.int64)
    i = 0
    while i < rows:
        n = int(rng.integers(40, 160))
        labels[i:i + n] = codes[int(rng.integers(len(codes)))]
        i += n
    return labels


def gap_plan(rng, rows, num_sensors):
    """Disjoint NaN runs as (sensor, group, start, length); group 0/1/2 is
    the accel/mag/gyro triplet.  A quarter are longer than MAX_GAP."""
    gaps = []
    for slot in range(2 * GAP_SLOT // 3, rows - GAP_SLOT, GAP_SLOT):
        if rng.random() < LONG_GAP_SHARE:
            length = int(rng.integers(LONG_GAP[0], LONG_GAP[1] + 1))
        else:
            length = int(rng.integers(1, MAX_GAP + 1))
        start = slot + int(rng.integers(0, GAP_SLOT - length))
        gaps.append((int(rng.integers(num_sensors)), int(rng.integers(3)), start, length))
    return gaps


def majority_class(codes, label_map):
    """Class of the most frequent raw code, lowest mapped class on a tie;
    None when no most-frequent code is mapped."""
    counts = Counter(codes.tolist())
    top = max(counts.values())
    mapped = [label_map[c] for c, k in counts.items() if k == top and c in label_map]
    return min(mapped) if mapped else None


def expected_windows(labels, invalid, label_map):
    """(start, class) of every window the pipeline must keep, with starts
    counted after the warm-up trim."""
    kept = []
    for start in range(0, len(labels) - TRIM - WIN_LEN + 1, STRIDE):
        seg = slice(TRIM + start, TRIM + start + WIN_LEN)
        if invalid[seg].any():
            continue
        cls = majority_class(labels[seg], label_map)
        if cls is not None:
            kept.append((start, cls))
    return kept


@dataclass
class OppFile:
    path: Path
    rows: int
    truth: dict  # sensor name -> (rows, 4) true attitude
    expected: list  # (start, class) of each window build_windows must keep


def write_opportunity_file(path, rng, rows, spec):
    """Write one 250-column OPPORTUNITY-shaped recording.

    Column 0 is the timestamp in ms, the five IMUs sit at the spec's
    columns (accel in milli-g, gyro in deg/s, as the real files), the label
    column holds raw gesture codes, and every other column is integer
    filler.  Short and over-long NaN runs are cut into sensor triplets.
    """
    names = list(spec.sensors)
    streams, truth = imu_streams(rng, rows, names)
    labels = gesture_labels(rng, rows, spec.label_map)
    matrix = rng.integers(-2000, 2000, size=(rows, OPP_COLUMNS)).astype(float)
    matrix[:, 0] = np.round(np.arange(rows) * (1000.0 / RATE_HZ))
    for name, cols in spec.sensors.items():
        data = streams[name]
        matrix[:, list(cols.accel)] = data[:, 0:3] * (1000.0 / G0)
        matrix[:, list(cols.mag)] = data[:, 3:6]
        matrix[:, list(cols.gyro)] = np.degrees(data[:, 6:9])
    matrix[:, spec.label_col] = labels
    invalid = np.zeros(rows, dtype=bool)
    for sensor, group, start, length in gap_plan(rng, rows, len(names)):
        cols = spec.sensors[names[sensor]]
        matrix[start:start + length, list((cols.accel, cols.mag, cols.gyro)[group])] = np.nan
        if length > MAX_GAP:
            invalid[start:start + length] = True
    with open(path, "w") as fh:
        np.savetxt(fh, matrix, fmt="%.9g")
    return OppFile(path=Path(path), rows=rows, truth=truth,
                   expected=expected_windows(labels, invalid, spec.label_map))


def opportunity_files(directory, seed, spec, count, rows):
    """`count` files S<k>-ADL1.dat, one subject each."""
    rng = np.random.default_rng(seed)
    return [
        write_opportunity_file(Path(directory) / f"S{k + 1}-ADL1.dat", rng, rows, spec)
        for k in range(count)
    ]


def opportunity_recording(seed, spec, rows):
    """One gap-free recording in memory with the spec's sensors, SI units
    and raw gesture codes."""
    rng = np.random.default_rng(seed)
    streams, _truth = imu_streams(rng, rows, list(spec.sensors))
    labels = gesture_labels(rng, rows, spec.label_map)
    return Recording(subject_id="1", sensors=streams, labels=labels,
                     valid=np.ones(rows, dtype=bool), sample_rate_hz=RATE_HZ)
