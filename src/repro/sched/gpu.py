"""A simulated GPU device."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cnn.costs import GPUSpec, DEFAULT_GPU


@dataclass
class GPUDevice:
    """One GPU with a busy-time clock.

    Work is appended sequentially; ``busy_until`` tracks when the device
    frees up, and ``busy_seconds`` the total GPU time consumed --
    the paper's cost metric.
    """

    spec: GPUSpec = DEFAULT_GPU
    device_id: int = 0
    busy_until: float = 0.0
    busy_seconds: float = 0.0

    def submit(self, gpu_seconds: float, not_before: float = 0.0) -> float:
        """Schedule ``gpu_seconds`` of work; returns completion time."""
        if gpu_seconds < 0:
            raise ValueError("gpu_seconds must be non-negative")
        start = max(self.busy_until, not_before)
        self.busy_until = start + gpu_seconds
        self.busy_seconds += gpu_seconds
        return self.busy_until
