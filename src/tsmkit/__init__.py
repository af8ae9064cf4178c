"""Temporal-shift video inference engine and benchmark harness.

Small-tensor engine around one idea: shifting a slice of channels along
the time axis gives spatial convolutions a temporal receptive field for
free. Offline inference shifts bidirectionally across a whole clip;
online inference caches one frame's worth of shifted channels per layer
and streams. Everything runs on plain numpy arrays.
"""

from .bench import BenchRow, CostReport, bench_network, bench_shift, rows_to_csv, write_csv
from .errors import (
    CacheMismatch,
    FormatError,
    InvalidShape,
    InvalidSpec,
    TrainingDiverged,
    TsmError,
)
from .net import (
    BlockSpec,
    NetworkCost,
    NetworkSpec,
    check_weights,
    consensus_average,
    count_network,
    forward_offline,
    init_weights,
    load_spec,
    load_weights,
    parse_spec,
    save_spec,
    save_weights,
    spec_to_json,
    weight_shapes,
    with_placements_none,
    with_zero_shifts,
)
from .ops import ConvSpec, LinearSpec, count_macs, macs_of, params_of
from .shift import (
    ShiftSpec,
    bytes_moved,
    fraction_to_count,
    shift_adjoint,
    shift_inplace,
    shift_offline,
    shift_offline_naive,
    shift_online_step,
    spec_from_total_fraction,
)
from .stream import (
    ShiftCache,
    StreamState,
    cache_footprint_bytes,
    state_nbytes,
    stream_init,
    stream_reset,
    stream_step,
    uni_network_spec,
)
from .synthdata import SyntheticClip, gen_dataset, make_clip, stack_dataset
from .tensor import (
    ACTIVATION_AXES,
    FRAME_AXES,
    Tensor,
    activation,
    load_tensor,
    reverse_time,
    save_tensor,
)
from .train import (
    EpochStats,
    TrainConfig,
    evaluate,
    metrics_to_csv,
    toy_network_spec,
    train,
)

__version__ = "0.1.0"
