"""The kernel seam: ``repro.kernels.get_backend`` and its three consumers.

There is one set of NumPy kernels.  The functional simulator, the Winograd
path and the mapping scorer fetch them through a module-level
``get_backend`` name looked up at call time, so a profiler can patch that
name to hand out wrapped kernels (``perfbench --trace 1`` does exactly
this).  No other test covers that contract.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.analysis import batch
from repro.analysis.batch import MappingBatchEvaluator
from repro.cnn.layer import ConvLayer
from repro.errors import ConfigurationError
from repro.kernels import get_backend, resolve_backend_name
from repro.sim import functional_vectorized, winograd
from repro.sim.functional import FunctionalChainSimulator

KERNEL_FIELDS = ("ofmap_block_product", "score_mappings",
                 "winograd_group_conv", "score_mappings_winograd")


class TestKernelSeam:
    def test_consumers_call_kernels_through_the_patched_seam(self, monkeypatch,
                                                             generator):
        # (a) one record, reachable by no name or by "numpy" only
        backend = get_backend()
        assert get_backend(None) is backend and get_backend("numpy") is backend
        assert resolve_backend_name() == backend.name == "numpy"
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("fortran")

        # (b) the record is rebuilt with wrapped kernels by dataclasses.replace
        calls: Counter = Counter()

        def counting(field, kernel):
            def wrapper(*args, **kwargs):
                calls[field] += 1
                return kernel(*args, **kwargs)
            return wrapper

        def traced(original):
            return lambda name=None: dataclasses.replace(original(name), **{
                field: counting(field, getattr(backend, field))
                for field in KERNEL_FIELDS})

        # (c) each consumer looks its module-level get_backend up per call
        for module in (functional_vectorized, winograd, batch):
            monkeypatch.setattr(module, "get_backend", traced(module.get_backend))

        layer = ConvLayer("seam", in_channels=2, out_channels=3, in_height=8,
                          in_width=8, kernel_size=3, padding=1)
        ifmaps, weights = generator.layer_pair(layer)
        simulator = FunctionalChainSimulator(backend="vectorized")
        simulator.run_layer(layer, ifmaps, weights)
        simulator.run_layer(layer, ifmaps, weights, algorithm="winograd")
        MappingBatchEvaluator(layer).evaluate(
            np.array([1, 2]), np.array([3, 3]), np.array([1, 1]),
            np.array([True, False]), winograd=np.array([False, True]))
        assert sorted(calls) == sorted(KERNEL_FIELDS)
