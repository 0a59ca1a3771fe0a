"""The hottest inner loops, as NumPy kernels.

``repro.kernels`` holds the functional simulator's ofmap block product
(one BLAS GEMM), the mapping-candidate scorer, and their Winograd
F(2x2,3x3) counterparts (``winograd_group_conv``, 16 batched GEMMs;
``score_mappings_winograd``) in :mod:`repro.kernels.numpy_backend`.  On the
fixed-point operands the simulator enforces, both convolution kernels are
exact: equal to the scalar per-window walk and to the im2col golden bit for
bit, in any block partition.  Consumers fetch the kernels through
:func:`get_backend` (see :mod:`repro.kernels.registry`).
"""

from repro.kernels.numpy_backend import MAPPING_RESULT_COLUMNS, MappingCostParams
from repro.kernels.registry import KernelBackend, get_backend, resolve_backend_name

__all__ = [
    "KernelBackend",
    "MAPPING_RESULT_COLUMNS",
    "MappingCostParams",
    "get_backend",
    "resolve_backend_name",
]
