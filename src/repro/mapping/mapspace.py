"""Mapspace enumeration: the legal mappings of one layer onto the chain.

A mapping candidate fixes the four scheduling choices the chain architecture
leaves open for a convolutional layer:

* ``primitives`` — how many of the chain's ``floor(P / K^2)`` primitive
  slots execute the layer (fewer primitives mean more passes but fewer
  active PEs);
* ``stripe_height`` — ofmap rows computed per stripe (the paper uses the
  full ``K``; any ``1..K`` is legal, trading stripe count against the
  iMemory band height);
* ``chunk`` — kMemory-resident passes per kernel refill (``1..capacity``
  words per PE; ``ceil(passes / chunk)`` refills);
* ``interleave`` — ``"batch"`` (the paper's chunk-major-over-batch order:
  kernels load once per batch, partial ofmaps spill across chunk
  boundaries) or ``"image"`` (image-major: no partial-sum spills, kernels
  reload per image whenever they do not fit);
* ``algorithm`` — ``"direct"`` (the paper's sliding-window dataflow) or
  ``"winograd"`` (the F(2x2,3x3) transform-domain mode of
  :mod:`repro.analysis.winograd`, legal only for 3x3 stride-1 layers).
  Winograd candidates pin ``stripe_height`` to the kernel size — the 4x4
  tile grid fixes the stripe plan, so the height axis is degenerate — and
  draw their chunk axis from the *reduced* kMemory capacity left by the
  16/9-wider transformed filter planes.  The axis is **opt-in** per space
  (``algorithm="direct"`` keeps the space exactly as before; ``"auto"``
  enumerates both algorithms on eligible layers; ``"winograd"`` forces the
  transform domain on eligible layers), so direct-only searches and their
  caches are untouched.

Legality checks reuse :class:`~repro.errors.MappingError` via
:meth:`repro.core.mapper.LayerMapper.map_layer_with`.  Enumeration applies
*analytic pruning bounds* so zoo-scale spaces stay tractable:

* the cost model depends on ``primitives`` only through ``passes =
  ceil(Q / p)`` and the active-PE count ``p * K^2``, and every cost column
  is weakly *increasing* in ``p`` at fixed ``passes`` (more active PEs burn
  more chain energy for the same latency) — so only the **minimal** ``p``
  per distinct ``passes`` value (plus the Table II baseline ``p``) needs
  evaluating;
* the cost model depends on ``chunk`` only through ``refills =
  ceil(passes / chunk)`` — so only the **maximal** chunk per distinct
  refill count needs evaluating;
* the two interleave policies coincide when ``refills == 1``, so the
  image-major variant is only emitted when the weights do not fit.

Both bounds follow the ``ceil``-plateau structure (there are at most
``O(sqrt(Q))`` distinct values of ``ceil(Q / p)``), which is what keeps the
pruned space around 10^3–10^5 candidates per layer even for VGG-scale
``Q = 262144`` channel-pair layers.  :meth:`LayerMapSpace.enumerate` builds
that space directly as :class:`CandidateColumns` — one NumPy array per axis,
with intermediate arrays no larger than the output — so no per-candidate
object exists until a search picks its shortlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.winograd import (
    winograd_eligible,
    winograd_kmemory_capacity,
)
from repro.cnn.layer import ConvLayer
from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.errors import MappingError
from repro.obs import metrics as obs_metrics

# enumeration counters: "pruned" counts the candidates the analytic bounds
# removed relative to the unpruned cross-product (full_size - pruned_size)
_M_ENUMERATED = obs_metrics.counter("mapping.candidates_enumerated")
_M_PRUNED = obs_metrics.counter("mapping.candidates_pruned")

#: batch-interleave policies a candidate can select
INTERLEAVES = ("batch", "image")

#: execution algorithms a candidate can select
ALGORITHMS = ("direct", "winograd")

#: algorithm-axis modes a mapspace (and the optimizer/CLI) accepts
ALGORITHM_MODES = ("direct", "winograd", "auto")


@dataclass(frozen=True)
class MappingCandidate:
    """One point of a layer's mapspace."""

    primitives: int
    stripe_height: int
    chunk: int
    interleave: str = "batch"
    algorithm: str = "direct"

    def __post_init__(self) -> None:
        if self.interleave not in INTERLEAVES:
            raise MappingError(
                f"interleave must be one of {INTERLEAVES}, got {self.interleave!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise MappingError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )

    @property
    def image_major(self) -> bool:
        """True for the image-major (latency-oriented) schedule."""
        return self.interleave == "image"

    @property
    def is_winograd(self) -> bool:
        """True when the candidate runs in the transform domain."""
        return self.algorithm == "winograd"

    def describe(self) -> str:
        """Compact human-readable form (the ``repro map`` table cells)."""
        suffix = " wino" if self.is_winograd else ""
        return (f"p={self.primitives} h={self.stripe_height} "
                f"c={self.chunk} {self.interleave}{suffix}")

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form suitable for ``json.dump`` and cache payloads."""
        return {
            "primitives": self.primitives,
            "stripe_height": self.stripe_height,
            "chunk": self.chunk,
            "interleave": self.interleave,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "MappingCandidate":
        """Rebuild a candidate from :meth:`to_json_dict` output."""
        return cls(
            primitives=int(data["primitives"]),
            stripe_height=int(data["stripe_height"]),
            chunk=int(data["chunk"]),
            interleave=str(data.get("interleave", "batch")),
            algorithm=str(data.get("algorithm", "direct")),
        )


def candidate_arrays(candidates: List[MappingCandidate]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
    """Struct-of-arrays columns of a candidate list.

    Returns ``(primitives, stripe_height, chunk, interleave_image,
    winograd)`` in the argument order
    :meth:`repro.analysis.batch.MappingBatchEvaluator.evaluate` expects.
    """
    return (
        np.array([c.primitives for c in candidates], dtype=np.int64),
        np.array([c.stripe_height for c in candidates], dtype=np.int64),
        np.array([c.chunk for c in candidates], dtype=np.int64),
        np.array([c.image_major for c in candidates], dtype=bool),
        np.array([c.is_winograd for c in candidates], dtype=bool),
    )


@dataclass(frozen=True)
class CandidateColumns:
    """A layer's candidates as columns; ``len()`` is the row count."""

    primitives: np.ndarray
    stripe_height: np.ndarray
    chunk: np.ndarray
    image_major: np.ndarray
    winograd: np.ndarray

    def __len__(self) -> int:
        return len(self.primitives)

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The columns in :meth:`MappingBatchEvaluator.evaluate` order."""
        return (self.primitives, self.stripe_height, self.chunk,
                self.image_major, self.winograd)

    def candidate(self, row: int) -> MappingCandidate:
        """Row ``row`` as a :class:`MappingCandidate`."""
        return MappingCandidate(
            primitives=int(self.primitives[row]),
            stripe_height=int(self.stripe_height[row]),
            chunk=int(self.chunk[row]),
            interleave=INTERLEAVES[int(self.image_major[row])],
            algorithm=ALGORITHMS[int(self.winograd[row])],
        )


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` of every element when group ``i`` holds ``counts[i]``.

    Groups are laid out contiguously in order; ``offset`` is the position
    of an element within its group.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


def _isqrt(values: np.ndarray) -> np.ndarray:
    """Exact elementwise ``floor(sqrt(values))`` of non-negative int64s."""
    root = np.sqrt(values).astype(np.int64)
    root -= root * root > values
    root += (root + 1) * (root + 1) <= values
    return root


def _chunk_plateaus(passes: np.ndarray,
                    capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """The maximal chunk of every refill plateau, for each pass count.

    The legal chunks at ``n`` passes are ``1..min(capacity, n)``.  Returns
    ``(owner, chunk)``: one row per distinct ``ceil(n / chunk)``, holding
    the largest chunk with that refill count, chunks descending within each
    owner (an index into ``passes``).

    With ``t = isqrt(n)``, every chunk above ``t`` has a refill count of at
    most ``ceil(n / (t + 1))`` and neighbouring chunks there differ by at
    most one refill, so that range yields every count in it once: the
    largest chunk with ``r`` refills is ``(n - 1) // (r - 1)``.  Chunks up
    to ``t`` are tested one by one.  Both parts are ``O(sqrt(n))`` rows,
    which is the size of the result, so no array spans the capacity.
    """
    top = np.minimum(capacity, passes)
    root = _isqrt(passes)
    low = np.minimum(root, top)
    first = -(-passes // top)
    high = np.where(top > root, -(-passes // (root + 1)) - first + 1, 0)
    owner, offset = _ragged(high + low)
    n, top, high = passes[owner], top[owner], high[owner]
    in_high = offset < high
    refills = first[owner] + offset
    chunk = np.where(
        in_high,
        np.where(offset == 0, top, (n - 1) // np.maximum(refills - 1, 1)),
        low[owner] - (offset - high),
    )
    keep = in_high | (chunk == top) | (-(-n // chunk) != -(-n // (chunk + 1)))
    return owner[keep], chunk[keep]


class LayerMapSpace:
    """The legal mapping candidates of one layer on one chain configuration."""

    def __init__(self, layer: ConvLayer, config: Optional[ChainConfig] = None,
                 algorithm: str = "direct") -> None:
        self.layer = layer
        self.config = config or ChainConfig()
        self._mapper = LayerMapper(self.config)
        kernel_area = layer.kernel_size * layer.kernel_size
        if kernel_area > self.config.num_pes:
            raise MappingError(
                f"{layer.name}: kernel {layer.kernel_size}x{layer.kernel_size} needs "
                f"{kernel_area} PEs but the chain has only {self.config.num_pes}"
            )
        if algorithm not in ALGORITHM_MODES:
            raise MappingError(
                f"algorithm must be one of {ALGORITHM_MODES}, got {algorithm!r}"
            )
        self.max_primitives = self.config.num_pes // kernel_area
        self.kmemory_capacity = self.config.kmemory_words_per_pe
        #: chunk capacity (in passes) for Winograd candidates — transformed
        #: 4x4 planes take 16/9 of the direct footprint per PE
        self.winograd_capacity = winograd_kmemory_capacity(self.kmemory_capacity)
        self.channel_pairs = layer.channel_pairs()
        self._pair_columns: Dict[str, Tuple[np.ndarray, np.ndarray,
                                            np.ndarray]] = {}
        #: the algorithm values this space enumerates; ineligible layers
        #: degrade every mode to direct-only
        if winograd_eligible(layer):
            self.algorithms: Tuple[str, ...] = {
                "direct": ("direct",),
                "winograd": ("winograd",),
                "auto": ("direct", "winograd"),
            }[algorithm]
        else:
            self.algorithms = ("direct",)

    @property
    def winograd_axis(self) -> bool:
        """True when this space enumerates Winograd candidates at all."""
        return "winograd" in self.algorithms

    # ------------------------------------------------------------------ #
    # individual candidates
    # ------------------------------------------------------------------ #
    def baseline(self) -> MappingCandidate:
        """The paper's Table II mapping as a candidate of this space.

        In the winograd-forced mode (no direct axis) the baseline is the
        Table II mapping normalised onto the Winograd sub-space: the same
        partition, the pinned stripe height and the chunk capped by the
        transformed-plane capacity.
        """
        passes = -(-self.channel_pairs // self.max_primitives)
        if "direct" in self.algorithms:
            return MappingCandidate(
                primitives=self.max_primitives,
                stripe_height=self.layer.kernel_size,
                chunk=min(self.kmemory_capacity, passes),
            )
        return MappingCandidate(
            primitives=self.max_primitives,
            stripe_height=self.layer.kernel_size,
            chunk=min(self.winograd_capacity, passes),
            algorithm="winograd",
        )

    def validate(self, candidate: MappingCandidate) -> None:
        """Raise :class:`MappingError` unless ``candidate`` is legal here.

        Delegates to :meth:`LayerMapper.map_layer_with`, the single source of
        legality for primitive counts, stripe heights and kernel chunks;
        Winograd candidates additionally require an eligible layer, the
        pinned stripe height and the reduced transformed-plane chunk bound.
        """
        self._mapper.map_layer_with(
            self.layer,
            primitives=candidate.primitives,
            stripe_height=candidate.stripe_height,
            kernel_chunk=candidate.chunk,
        )
        if candidate.is_winograd:
            if not winograd_eligible(self.layer):
                raise MappingError(
                    f"{self.layer.name}: winograd needs a 3x3 stride-1 layer "
                    f"(K={self.layer.kernel_size}, S={self.layer.stride})"
                )
            if candidate.stripe_height != self.layer.kernel_size:
                raise MappingError(
                    f"{self.layer.name}: winograd candidates pin "
                    f"stripe_height to K={self.layer.kernel_size}, got "
                    f"{candidate.stripe_height}"
                )
            if candidate.chunk > self.winograd_capacity:
                raise MappingError(
                    f"{self.layer.name}: winograd chunk {candidate.chunk} "
                    f"exceeds the transformed-plane capacity "
                    f"{self.winograd_capacity}"
                )

    # ------------------------------------------------------------------ #
    # pruning bounds
    # ------------------------------------------------------------------ #
    def pruned_primitives(self) -> List[int]:
        """Minimal primitive count per distinct ``passes`` value (+ baseline).

        Cost is weakly *increasing* in ``p`` at fixed ``passes`` (latency
        depends on ``passes`` alone; energy additionally scales with the
        active-PE count ``p * K^2``), so the smallest ``p`` on each
        ``ceil(Q/p)`` plateau dominates the rest of it — the plateau walk
        visits O(sqrt(Q)) values instead of all ``max_primitives``.
        """
        q = self.channel_pairs
        values: List[int] = []
        p = 1
        while p <= self.max_primitives:
            passes = -(-q // p)
            values.append(p)
            if passes == 1:
                break
            # first p of the next ceil(Q/p) plateau
            p = (q - 1) // (passes - 1) + 1
        if self.max_primitives not in values:
            values.append(self.max_primitives)
        return values

    def _pairs(self, algorithm: str
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept (primitive count, chunk) pairs of one algorithm.

        Returns ``(primitives, chunk, interleaves)`` columns: primitive
        counts ascend, chunks descend within one, and ``interleaves`` is 2
        where the weights need refills (``chunk < passes``) and 1 where the
        two policies coincide.  Built once per algorithm: the size guard
        (:meth:`pruned_size`) and :meth:`enumerate` share them.
        """
        pairs = self._pair_columns.get(algorithm)
        if pairs is None:
            primitives = np.asarray(self.pruned_primitives(), dtype=np.int64)
            passes = -(-self.channel_pairs // primitives)
            capacity = (self.winograd_capacity if algorithm == "winograd"
                        else self.kmemory_capacity)
            owner, chunk = _chunk_plateaus(passes, capacity)
            pairs = self._pair_columns[algorithm] = (
                primitives[owner], chunk, 1 + (chunk < passes[owner]))
        return pairs

    def _heights(self, algorithm: str) -> int:
        """Stripe heights per (partition, chunk, interleave) of an algorithm."""
        return 1 if algorithm == "winograd" else self.layer.kernel_size

    # ------------------------------------------------------------------ #
    # enumeration
    # ------------------------------------------------------------------ #
    def full_size(self) -> int:
        """Size of the unpruned space (the analytic upper bound)."""
        total = 0
        if "direct" in self.algorithms:
            total += (self.max_primitives * self.layer.kernel_size
                      * self.kmemory_capacity * len(INTERLEAVES))
        if self.winograd_axis:
            # stripe height is pinned: one height value, reduced chunk range
            total += (self.max_primitives * self.winograd_capacity
                      * len(INTERLEAVES))
        return total

    def pruned_size(self) -> int:
        """Number of rows :meth:`enumerate` returns, without building them."""
        return sum(self._heights(algorithm)
                   * int(self._pairs(algorithm)[2].sum())
                   for algorithm in self.algorithms)

    def enumerate(self) -> CandidateColumns:
        """Every cost-distinct legal candidate (the pruned space), as columns.

        Row order is part of the contract, because searches break score
        ties by it: primitives ascending; for each primitive count the
        direct rows (chunk descending, then stripe height ascending, then
        ``batch`` before ``image``), then the Winograd rows (chunk
        descending, then ``batch`` before ``image``).
        """
        blocks = []
        for algorithm in self.algorithms:
            primitives, chunk, interleaves = self._pairs(algorithm)
            pair, offset = _ragged(self._heights(algorithm) * interleaves)
            winograd = algorithm == "winograd"
            blocks.append((
                primitives[pair],
                np.full(len(pair), self.layer.kernel_size) if winograd
                else offset // interleaves[pair] + 1,
                chunk[pair],
                offset % interleaves[pair] == 1,
                np.full(len(pair), winograd),
            ))
        merged = [np.concatenate(column) for column in zip(*blocks)]
        # stable: per primitive count the direct rows stay before the
        # Winograd rows
        order = np.argsort(merged[0], kind="stable")
        columns = CandidateColumns(*(column[order] for column in merged))
        _M_ENUMERATED.inc(len(columns))
        _M_PRUNED.inc(max(0, self.full_size() - len(columns)))
        return columns

    def describe(self) -> str:
        """One-line space summary (sizes before/after pruning)."""
        axis = "+winograd" if self.winograd_axis else ""
        return (f"{self.layer.name}: {self.pruned_size()} pruned / "
                f"{self.full_size()} full candidates "
                f"(p<=%d, K=%d, chunk<=%d%s)" % (
                    self.max_primitives, self.layer.kernel_size,
                    self.kmemory_capacity, axis))


class MapSpace:
    """Per-layer mapspaces of a whole network."""

    def __init__(self, network: Network, config: Optional[ChainConfig] = None,
                 algorithm: str = "direct") -> None:
        self.network = network
        self.config = config or ChainConfig()
        self.algorithm = algorithm
        self.layer_spaces = [LayerMapSpace(layer, self.config,
                                           algorithm=algorithm)
                             for layer in network.conv_layers]
        if not self.layer_spaces:
            raise MappingError(f"{network.name}: no convolutional layers to map")

    def __iter__(self) -> Iterator[LayerMapSpace]:
        return iter(self.layer_spaces)

    def __len__(self) -> int:
        return len(self.layer_spaces)

    def total_pruned_size(self) -> int:
        """Candidates across all layers after pruning."""
        return sum(space.pruned_size() for space in self.layer_spaces)

    def total_full_size(self) -> int:
        """Candidates across all layers before pruning."""
        return sum(space.full_size() for space in self.layer_spaces)

    def baseline_candidates(self) -> List[MappingCandidate]:
        """The Table II mapping of every layer."""
        return [space.baseline() for space in self.layer_spaces]

    def describe(self) -> str:
        """Multi-line summary of every layer's space."""
        lines = [f"{self.network.name}: {self.total_pruned_size()} pruned / "
                 f"{self.total_full_size()} full candidates"]
        lines += ["  " + space.describe() for space in self.layer_spaces]
        return "\n".join(lines)
