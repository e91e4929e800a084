"""Grid discretization substrate: equi-depth ranges and cube counting."""

from .backends import BackendConformanceError, resolve_kernel, verify_kernel
from .cells import CellAssignment, MISSING_CELL
from .counter import CubeCounter, PackedCubeCounter, batch_counts
from .discretizer import EquiDepthDiscretizer, EquiWidthDiscretizer, GridDiscretizer
from .kernels import pack_codes_block
from .native import kernel_info, native_batch_counts
from .sharded import (
    DEFAULT_SHARD_ROWS,
    ShardCheckpointer,
    ShardedCounter,
    ShardedMaskStore,
)

__all__ = [
    "BackendConformanceError",
    "CellAssignment",
    "MISSING_CELL",
    "GridDiscretizer",
    "EquiDepthDiscretizer",
    "EquiWidthDiscretizer",
    "CubeCounter",
    "DEFAULT_SHARD_ROWS",
    "PackedCubeCounter",
    "ShardCheckpointer",
    "ShardedCounter",
    "ShardedMaskStore",
    "pack_codes_block",
    "batch_counts",
    "kernel_info",
    "native_batch_counts",
    "resolve_kernel",
    "verify_kernel",
]
