"""Show that the global view cancels the sensor's mounting orientation.

The same body motion is simulated twice: once with the sensor mounted
straight, once rotated 75 degrees about the x axis.  The raw (local) readings
differ wildly, but after the change of basis into the North-East-Down frame
the accelerometer channels agree to numerical precision.
"""

import math

import numpy as np

from flowhar.attitude import G0, MahonyParams
from flowhar.globalview import mc_transform
from flowhar.synth import SynthSpec, synth_generate


def main():
    base = dict(
        duration_s=10.0,
        rate_hz=30.0,
        segments=((3.0, (0.2, 0.0, 0.4)), (3.0, (-0.1, 0.3, 0.0))),
        lin_acc_amp_ned=(1.5, 0.0, 0.8),
        lin_acc_freq_hz=1.0,
    )
    half = math.radians(75.0) / 2
    tilted = (math.cos(half), math.sin(half), 0.0, 0.0)

    rec_straight, _ = synth_generate(SynthSpec(**base))
    rec_tilted, _ = synth_generate(SynthSpec(mounting=tilted, **base))

    params = MahonyParams(sample_rate_hz=base["rate_hz"])
    series_a, series_b = rec_straight.sensors["imu0"], rec_tilted.sensors["imu0"]
    g_a = mc_transform(series_a, params)
    g_b = mc_transform(series_b, params)
    # mc_transform drops the filter's warm-up; compare the local rows it kept.
    local_a, local_b = series_a[len(series_a) - len(g_a):], series_b[len(series_b) - len(g_b):]

    local_rmse = np.sqrt(np.mean((local_a[:, 0:3] - local_b[:, 0:3]) ** 2, axis=0))
    global_rmse = np.sqrt(np.mean((g_a[:, 0:3] - g_b[:, 0:3]) ** 2, axis=0))

    print("accelerometer RMSE between the two mountings, per axis (units of g0):")
    print("  local  (sensor frame):", " ".join(f"{v / G0:9.2e}" for v in local_rmse))
    print("  global (NED frame):   ", " ".join(f"{v / G0:9.2e}" for v in global_rmse))
    print()
    print("A classifier fed the local view sees two different-looking signals;")
    print("fed the global view it sees the same motion regardless of mounting.")


if __name__ == "__main__":
    main()
