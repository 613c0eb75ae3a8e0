"""Cross-user IMU activity recognition with NED global views and shuffled
multi-view fusion."""

from .attitude import (
    G0,
    MahonyParams,
    mahony_run,
    quat_from_accel_mag,
    quat_multiply,
)
from .dataset import (
    DatasetSpec,
    Recording,
    Window,
    build_windows,
    decimate,
    interpolate_nans,
    load_recording,
    parse_spec_file,
    segment_windows,
)
from .globalview import mc_transform, rotation_from_quaternion
from .harness import ExperimentConfig, emit_report, run_louo
from .metrics import accuracy, confusion, weighted_f1
from .model import Adam, ModelConfig, init_params, load_checkpoint, save_checkpoint
from .synth import SynthSpec, synth_generate, synth_population
from .trainer import TrainConfig, fit, train_phase1, train_phase2
from .views import ChannelLayout, ViewSchema, build_schema, gen_shuffle_matrix, shuffle_batch

__version__ = "0.1.0"
