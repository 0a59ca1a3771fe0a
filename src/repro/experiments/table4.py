"""Experiment: Table IV — memory-communication breakdown (AlexNet, batch 4).

The traffic model's per-layer DRAM / iMemory / kMemory / oMemory volumes are
compared against the paper's table.  The oMemory column reproduces exactly;
kMemory and iMemory match the stride-1 layers closely and deviate for conv1
(strided) and conv2, whose tiling constants the paper does not disclose —
see EXPERIMENTS.md for the discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.batch import BatchDesignEvaluator
from repro.analysis.report import render_dict_table
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig

#: Table IV as printed (decimal MByte, batch = 4)
PAPER_TABLE4: Dict[str, Dict[str, float]] = {
    "conv1": {"DRAM": 9.0, "iMemory": 6.6, "kMemory": 15.4, "oMemory": 13.9},
    "conv2": {"DRAM": 5.5, "iMemory": 8.7, "kMemory": 17.8, "oMemory": 143.3},
    "conv3": {"DRAM": 4.3, "iMemory": 4.8, "kMemory": 37.2, "oMemory": 265.8},
    "conv4": {"DRAM": 3.4, "iMemory": 3.6, "kMemory": 27.9, "oMemory": 199.4},
    "conv5": {"DRAM": 2.3, "iMemory": 2.4, "kMemory": 18.6, "oMemory": 132.9},
    "Total": {"DRAM": 24.5, "iMemory": 26.2, "kMemory": 116.8, "oMemory": 755.3},
}


@dataclass(frozen=True)
class Table4Result:
    """Measured and published Table IV."""

    measured: Dict[str, Dict[str, float]]
    paper: Dict[str, Dict[str, float]]

    def ratios(self) -> Dict[str, Dict[str, float]]:
        """measured / paper per cell."""
        out: Dict[str, Dict[str, float]] = {}
        for layer, row in self.paper.items():
            out[layer] = {
                store: (self.measured[layer][store] / value) if value else 0.0
                for store, value in row.items()
            }
        return out

    def omemory_max_deviation(self) -> float:
        """Largest relative deviation of the oMemory column (expected ~0)."""
        return max(abs(r["oMemory"] - 1.0) for layer, r in self.ratios().items())

    def ordering_preserved(self) -> bool:
        """True when oMemory >> kMemory > iMemory holds in the measured totals."""
        totals = self.measured["Total"]
        return totals["oMemory"] > totals["kMemory"] > totals["iMemory"]

    def report(self) -> str:
        """Human-readable side-by-side table."""
        side = {}
        for layer in self.paper:
            side[layer] = {}
            for store in ("DRAM", "iMemory", "kMemory", "oMemory"):
                side[layer][f"{store} paper"] = self.paper[layer][store]
                side[layer][f"{store} meas."] = round(self.measured[layer][store], 1)
        return render_dict_table(
            side, title="Table IV - memory communication breakdown (MByte, batch 4)",
            row_label="layer")


def run_table4(config: ChainConfig | None = None, batch: int = 4) -> Table4Result:
    """Regenerate Table IV."""
    evaluator = BatchDesignEvaluator(alexnet(), base=config or ChainConfig())
    return Table4Result(measured=evaluator.breakdown(batch).traffic_mb(), paper=PAPER_TABLE4)
