"""The hottest inner loops, as NumPy kernels.

``repro.kernels`` holds the functional simulator's ofmap block product,
the mapping-candidate scorer, and their Winograd F(2x2,3x3) counterparts
(``winograd_group_conv``, ``score_mappings_winograd``) in
:mod:`repro.kernels.numpy_backend`.  The direct ofmap kernel is
bit-identical to the scalar per-window walk; the Winograd kernel is
bit-identical across ofmap block partitions and tolerance-checked against
the im2col golden (the transforms reassociate the reduction).  Consumers
fetch the kernels through :func:`get_backend` (see
:mod:`repro.kernels.registry`).
"""

from repro.kernels.numpy_backend import MappingCostParams
from repro.kernels.registry import KernelBackend, get_backend, resolve_backend_name

__all__ = [
    "KernelBackend",
    "MappingCostParams",
    "get_backend",
    "resolve_backend_name",
]
