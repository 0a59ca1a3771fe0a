"""The kernel seam: one constant record of the hot NumPy kernels.

The functional simulator's ofmap block product
(:mod:`repro.sim.functional_vectorized`), its Winograd F(2x2,3x3)
counterpart (:mod:`repro.sim.winograd`) and the mapping-candidate scorers
(:class:`repro.analysis.batch.MappingBatchEvaluator`) fetch their kernels
through :func:`get_backend` on every call rather than importing them
directly.  There is exactly one implementation,
:mod:`repro.kernels.numpy_backend`; the indirection only lets a profiler
hand out wrapped kernels (``dataclasses.replace`` over the record) by
patching each consumer module's ``get_backend`` name — which is how the
``perfbench`` span tracer attributes time to the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import numpy_backend


@dataclass(frozen=True)
class KernelBackend:
    """The hot kernels, as one record.

    ``ofmap_block_product(plane_windows, kernels, out_block)`` accumulates
    one ifmap channel's contribution to a block of ofmap channels;
    ``score_mappings(params, primitives, stripe_height, chunk, image_major)``
    scores mapping-candidate columns.  The Winograd pair mirrors them for
    the transform-domain execution mode:
    ``winograd_group_conv(ext, u, out_block)`` computes one group's
    F(2x2,3x3) ofmap block from tile-aligned inputs and transformed
    filters, and ``score_mappings_winograd(params, primitives, chunk,
    image_major)`` scores Winograd-algorithm candidates (the stripe-height
    axis is pinned by the tile grid).
    """

    name: str
    ofmap_block_product: Callable[..., None]
    score_mappings: Callable[..., Dict[str, np.ndarray]]
    winograd_group_conv: Callable[..., None]
    score_mappings_winograd: Callable[..., Dict[str, np.ndarray]]


_NUMPY = KernelBackend(
    name="numpy",
    ofmap_block_product=numpy_backend.ofmap_block_product,
    score_mappings=numpy_backend.score_mappings,
    winograd_group_conv=numpy_backend.winograd_group_conv,
    score_mappings_winograd=numpy_backend.score_mappings_winograd,
)


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The kernel record; ``name`` may be ``None`` or ``"numpy"``."""
    if name not in (None, "numpy"):
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; the only backend is 'numpy'")
    return _NUMPY


def resolve_backend_name() -> str:
    """The name of the kernel record :func:`get_backend` returns."""
    return _NUMPY.name
