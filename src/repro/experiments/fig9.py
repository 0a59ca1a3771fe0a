"""Experiment: Fig. 9 and Sec. V.B — AlexNet layer times, kernel-load times, fps.

The paper's Fig. 9 gives the per-layer convolution and kernel-load times for
a 128-image batch at 700 MHz; Sec. V.B quotes 326.2 fps (batch 128) and
275.6 fps (batch 4), and a peak throughput of 806.4 GOPS.  This experiment
regenerates all of those from the analytical performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.report import render_comparison
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.engine.adapters import AnalyticalEngine

#: Fig. 9 convolution times (ms, batch = 128)
PAPER_CONV_TIME_MS: Dict[str, float] = {
    "conv1": 159.30,
    "conv2": 102.10,
    "conv3": 57.20,
    "conv4": 42.90,
    "conv5": 28.60,
}

#: Fig. 9 kernel-load times (ms, once per batch)
PAPER_KERNEL_LOAD_MS: Dict[str, float] = {
    "conv1": 0.05,
    "conv2": 0.43,
    "conv3": 1.23,
    "conv4": 0.93,
    "conv5": 0.62,
}

#: Sec. V.B headline numbers
PAPER_FPS_BATCH128 = 326.2
PAPER_FPS_BATCH4 = 275.6
PAPER_PEAK_GOPS = 806.4


@dataclass(frozen=True)
class Fig9Result:
    """Measured and published AlexNet timing."""

    measured_conv_time_ms: Dict[str, float]
    measured_kernel_load_ms: Dict[str, float]
    measured_fps_batch128: float
    measured_fps_batch4: float
    measured_peak_gops: float

    def conv_time_ratio(self) -> Dict[str, float]:
        """measured / paper per layer."""
        return {
            name: self.measured_conv_time_ms[name] / PAPER_CONV_TIME_MS[name]
            for name in PAPER_CONV_TIME_MS
        }

    def worst_layer_deviation(self) -> float:
        """Largest relative deviation from the paper's per-layer times."""
        return max(abs(ratio - 1.0) for ratio in self.conv_time_ratio().values())

    def report(self) -> str:
        """Human-readable paper-vs-measured report."""
        sections = [
            render_comparison(PAPER_CONV_TIME_MS, self.measured_conv_time_ms,
                              title="Fig. 9 - AlexNet convolution time per layer (ms, batch 128)"),
            render_comparison(PAPER_KERNEL_LOAD_MS, self.measured_kernel_load_ms,
                              title="Fig. 9 - kernel-load time per layer (ms)"),
            render_comparison(
                {"fps (batch 128)": PAPER_FPS_BATCH128,
                 "fps (batch 4)": PAPER_FPS_BATCH4,
                 "peak GOPS": PAPER_PEAK_GOPS},
                {"fps (batch 128)": self.measured_fps_batch128,
                 "fps (batch 4)": self.measured_fps_batch4,
                 "peak GOPS": self.measured_peak_gops},
                title="Sec. V.B - throughput summary"),
        ]
        return "\n\n".join(sections)


def run_fig9(config: ChainConfig | None = None) -> Fig9Result:
    """Regenerate Fig. 9 and the Sec. V.B throughput numbers.

    Timing is obtained through the unified engine layer (the analytical
    engine's run records carry the per-layer time tables Fig. 9 plots).
    """
    engine = AnalyticalEngine(config=config or ChainConfig.paper_default())
    network = alexnet()
    record_128 = engine.evaluate(network, batch=128)
    record_4 = engine.evaluate(network, batch=4)
    return Fig9Result(
        measured_conv_time_ms=dict(record_128.extra["layer_times_ms"]),
        measured_kernel_load_ms=dict(record_128.extra["kernel_load_times_ms"]),
        measured_fps_batch128=record_128.metric("fps"),
        measured_fps_batch4=record_4.metric("fps"),
        measured_peak_gops=record_128.metric("peak_gops"),
    )
