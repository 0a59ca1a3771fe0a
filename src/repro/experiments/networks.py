"""Extension experiment: the other networks the paper prepared test data for.

Sec. V.A states the float-to-fixed simulator generated test vectors for
MNIST, CIFAR-10, AlexNet *and VGG-16*, but the evaluation section only
reports AlexNet.  This experiment completes the picture: it runs every zoo
network through the same models and reports throughput, utilization, power
and the kMemory pressure — showing where the 576-PE chain shines (uniform
3x3-dominated networks like VGG keep 100 % of the PEs busy) and where its
limits are (tiny networks cannot amortise kernel loading).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.batch import BatchDesignEvaluator
from repro.analysis.report import render_dict_table
from repro.cnn.zoo import NETWORKS, get_network
from repro.core.config import ChainConfig
from repro.core.kernel_loader import KernelLoader
from repro.core.scheduler import BatchScheduler
from repro.core.utilization import utilization_entry


@dataclass(frozen=True)
class NetworkStudyRow:
    """Headline numbers of one network on the paper's Chain-NN instantiation."""

    network_name: str
    batch: int
    conv_layers: int
    macs_per_image: int
    fps: float
    achieved_gops: float
    efficiency_vs_peak: float
    worst_spatial_utilization: float
    kernel_load_fraction: float
    max_weights_per_pe: int

    def as_row(self) -> Dict[str, float]:
        """Row for the report table."""
        return {
            "conv layers": self.conv_layers,
            "MACs/image (M)": self.macs_per_image / 1e6,
            "fps": self.fps,
            "achieved GOPS": self.achieved_gops,
            "of peak (%)": self.efficiency_vs_peak * 100.0,
            "worst spatial util. (%)": self.worst_spatial_utilization * 100.0,
            "kernel-load share (%)": self.kernel_load_fraction * 100.0,
            "max weights/PE": self.max_weights_per_pe,
        }


@dataclass(frozen=True)
class NetworkStudyResult:
    """All zoo networks evaluated on the same chain."""

    batch: int
    rows: Dict[str, NetworkStudyRow]

    def report(self) -> str:
        """Human-readable table."""
        return render_dict_table(
            {name: row.as_row() for name, row in self.rows.items()},
            title=f"Zoo networks on the 576-PE Chain-NN (batch {self.batch})",
            row_label="network",
        )

    def vgg_sustains_higher_fraction_of_peak_than_alexnet(self) -> bool:
        """VGG-16 is all 3x3 stride-1 layers, so it uses the chain better."""
        return (self.rows["vgg16"].efficiency_vs_peak
                > self.rows["alexnet"].efficiency_vs_peak)


def run_network_study(batch: int = 16,
                      config: ChainConfig | None = None) -> NetworkStudyResult:
    """Evaluate every zoo network on the paper configuration."""
    config = config or ChainConfig.paper_default()
    scheduler = BatchScheduler(config)
    loader = KernelLoader(config)

    rows: Dict[str, NetworkStudyRow] = {}
    for name in NETWORKS:
        network = get_network(name)
        point = BatchDesignEvaluator(network, base=config).breakdown(batch)
        schedule = scheduler.schedule(network, batch)
        worst_util = min(
            utilization_entry(config.num_pes, layer.kernel_size).utilization
            for layer in network.conv_layers
        )
        rows[name] = NetworkStudyRow(
            network_name=network.name,
            batch=batch,
            conv_layers=len(network.conv_layers),
            macs_per_image=network.total_conv_macs,
            fps=point.fps,
            achieved_gops=point.achieved_gops,
            efficiency_vs_peak=point.achieved_gops / point.peak_gops,
            worst_spatial_utilization=worst_util,
            kernel_load_fraction=schedule.kernel_load_fraction,
            max_weights_per_pe=loader.network_kmemory_requirement(network),
        )
    return NetworkStudyResult(batch=batch, rows=rows)
