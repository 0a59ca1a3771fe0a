"""Synthetic tensor generators.

The paper draws its test vectors from pre-trained MatConvNet models.  Trained
weights are not available offline, and the accelerator's behaviour does not
depend on their values, so this module synthesises weight and feature-map
tensors with realistic statistics:

* Gaussian weights with a fan-in-scaled standard deviation (Glorot-style),
  which keeps the fixed-point dynamic range representative of real networks.
* Post-ReLU activations: half-normal with a configurable sparsity (fraction
  of exact zeros), matching the zero-heavy ifmaps real CNN layers see.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.errors import WorkloadError


def stable_seed(*parts) -> int:
    """Platform-stable derived seed from arbitrary labelled parts.

    Hashes the string forms of ``parts`` (SHA-256, first 8 bytes), so
    ``stable_seed(2017, "verify", "conv3")`` is the same integer on every
    platform and Python version — unlike ``hash()``, whose salting would make
    generated tensors irreproducible across CI runs.  Used to fan one
    user-facing seed out into independent, reproducible RNG streams (per
    layer, per worker).
    """
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class TensorStats:
    """Summary statistics of a generated tensor (used in tests and reports)."""

    mean: float
    std: float
    min: float
    max: float
    zero_fraction: float

    @classmethod
    def of(cls, array: np.ndarray) -> "TensorStats":
        """Compute the statistics of ``array``."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.size == 0:
            raise WorkloadError("cannot summarise an empty tensor")
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std()),
            min=float(arr.min()),
            max=float(arr.max()),
            zero_fraction=float(np.mean(arr == 0.0)),
        )


class WorkloadGenerator:
    """Deterministic (seeded) generator of synthetic CNN tensors."""

    def __init__(self, seed: int = 2017) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # weights
    # ------------------------------------------------------------------ #
    def weights(self, layer: ConvLayer, scale: Optional[float] = None) -> np.ndarray:
        """Gaussian kernels of shape ``(M, C/groups, K, K)``.

        ``scale`` defaults to ``sqrt(2 / fan_in)`` (He initialisation), which
        keeps activations in a realistic numeric range through the network.
        """
        fan_in = layer.in_channels_per_group * layer.kernel_size * layer.kernel_size
        std = scale if scale is not None else float(np.sqrt(2.0 / fan_in))
        shape = (
            layer.out_channels,
            layer.in_channels_per_group,
            layer.kernel_size,
            layer.kernel_size,
        )
        return self._rng.normal(0.0, std, size=shape)

    def bias(self, layer: ConvLayer, scale: float = 0.01) -> np.ndarray:
        """Small Gaussian bias vector of shape ``(M,)``."""
        return self._rng.normal(0.0, scale, size=(layer.out_channels,))

    # ------------------------------------------------------------------ #
    # feature maps
    # ------------------------------------------------------------------ #
    def ifmaps(self, layer: ConvLayer, sparsity: float = 0.0,
               amplitude: float = 1.0) -> np.ndarray:
        """Post-ReLU-like ifmaps of shape ``(C, H, W)``.

        ``sparsity`` is the fraction of elements forced to exactly zero
        (ReLU zeros); the non-zero values are half-normal with the given
        amplitude.
        """
        if not (0.0 <= sparsity <= 1.0):
            raise WorkloadError(f"sparsity must be in [0, 1], got {sparsity}")
        shape = (layer.in_channels, layer.in_height, layer.in_width)
        values = np.abs(self._rng.normal(0.0, amplitude, size=shape))
        if sparsity > 0.0:
            mask = self._rng.random(shape) < sparsity
            values = np.where(mask, 0.0, values)
        return values

    def image(self, channels: int = 3, height: int = 227, width: int = 227) -> np.ndarray:
        """A synthetic natural-image-like input in [0, 1] (smooth random field)."""
        base = self._rng.random((channels, height // 8 + 1, width // 8 + 1))
        # bilinear-ish upsampling by repetition then box blur keeps it smooth
        upsampled = np.repeat(np.repeat(base, 8, axis=1), 8, axis=2)[:, :height, :width]
        kernel = np.ones((3, 3)) / 9.0
        smoothed = np.empty_like(upsampled)
        padded = np.pad(upsampled, ((0, 0), (1, 1), (1, 1)), mode="edge")
        for channel in range(channels):
            for row in range(height):
                smoothed[channel, row] = np.array([
                    float(np.sum(padded[channel, row:row + 3, col:col + 3] * kernel))
                    for col in range(width)
                ])
        return smoothed

    def layer_pair(self, layer: ConvLayer, sparsity: float = 0.0
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Convenience: (ifmaps, weights) for a layer."""
        return self.ifmaps(layer, sparsity=sparsity), self.weights(layer)

    def reseed(self, seed: int) -> None:
        """Reset the underlying RNG (makes long test campaigns reproducible)."""
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def spawn(self, *parts) -> "WorkloadGenerator":
        """An independent generator whose seed derives from this one.

        ``generator.spawn(layer.name)`` gives every layer (or worker) its own
        reproducible stream regardless of how many tensors were drawn from
        the parent — the per-layer verification of searched mappings relies
        on this to generate identical tensors in any order.
        """
        return WorkloadGenerator(seed=stable_seed(self.seed, *parts))
