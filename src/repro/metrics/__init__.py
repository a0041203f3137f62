"""State accounting, processing cost model, and run harness."""

from .cost import (
    CONVENTIONAL_REFS_PER_BYTE,
    CONVENTIONAL_REFS_PER_PACKET,
    FASTPATH_REFS_PER_BYTE,
    FASTPATH_REFS_PER_PACKET,
    CostReport,
    HardwareModel,
    conventional_cost,
    cost_report,
    split_detect_cost,
)
from .report import (
    PROVISIONED_BUFFER_PER_FLOW,
    RunReport,
    extrapolate_state,
    provisioned_conventional_state,
    provisioned_fastpath_state,
    run_conventional,
    run_split_detect,
    state_bytes_ratio,
    state_per_flow,
    throughput_comparison,
)

__all__ = [
    "CONVENTIONAL_REFS_PER_BYTE",
    "CONVENTIONAL_REFS_PER_PACKET",
    "CostReport",
    "FASTPATH_REFS_PER_BYTE",
    "FASTPATH_REFS_PER_PACKET",
    "HardwareModel",
    "PROVISIONED_BUFFER_PER_FLOW",
    "RunReport",
    "conventional_cost",
    "cost_report",
    "extrapolate_state",
    "provisioned_conventional_state",
    "provisioned_fastpath_state",
    "run_conventional",
    "run_split_detect",
    "split_detect_cost",
    "state_bytes_ratio",
    "state_per_flow",
    "throughput_comparison",
]
