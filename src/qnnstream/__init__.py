"""Cycle-accurate streaming simulator for binarized quantized networks.

The package splits into layers that mirror the hardware it models:

    quant      bit-packed weights, popcount dot products, exact
               per-layer batchnorm folding into integer thresholds
    kernels    streaming stages with minimal line buffers
    engine     the FIFO graph, its sweep driver, cycle model
    netdesc    the network description language and parameter blobs
    resources  memory accounting and device partitioning
    oracle     dense reference implementation for verification
    cli        qnnstream command line tool
"""

from .engine import (
    CycleReport,
    ModelConfig,
    Partition,
    RunResult,
    build_graph,
    estimate_cycles,
    run,
    simulate_partition,
)
from .errors import (
    AccumOverflowError,
    BufferEvictionError,
    DeadlockError,
    NetdescError,
    ParamsError,
    PartitionError,
    QnnError,
    QuantizationError,
    ShapeError,
)
from .netdesc import (
    BUILTIN_BUILDERS,
    NetworkSpec,
    build_alexnet,
    build_resnet18,
    build_vgg_like,
    emit_netdesc,
    load_params,
    parse_netdesc,
    random_params,
    save_params,
)
from .oracle import dense_infer
from .quant import (
    BnParams,
    BnQuantizer,
    ThresholdSet,
    WeightBlock,
    fold_batchnorm,
)
from .resources import (
    DeviceBudget,
    STRATIX_V_5SGSD8,
    estimate_resources,
    partition_network,
)

__version__ = "0.1.0"

__all__ = [
    "AccumOverflowError",
    "BUILTIN_BUILDERS",
    "BnParams",
    "BnQuantizer",
    "BufferEvictionError",
    "CycleReport",
    "DeadlockError",
    "DeviceBudget",
    "ModelConfig",
    "NetdescError",
    "NetworkSpec",
    "ParamsError",
    "Partition",
    "PartitionError",
    "QnnError",
    "QuantizationError",
    "RunResult",
    "STRATIX_V_5SGSD8",
    "ShapeError",
    "ThresholdSet",
    "WeightBlock",
    "build_alexnet",
    "build_graph",
    "build_resnet18",
    "build_vgg_like",
    "dense_infer",
    "emit_netdesc",
    "estimate_cycles",
    "estimate_resources",
    "fold_batchnorm",
    "load_params",
    "parse_netdesc",
    "partition_network",
    "random_params",
    "run",
    "save_params",
    "simulate_partition",
    "__version__",
]
