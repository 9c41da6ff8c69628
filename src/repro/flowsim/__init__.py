"""Flow-level (fluid) simulation baseline.

Section 2.1 and the related work discuss flow-level simulators as the
classic way to trade granularity for speed: they "can provide insight
into the general behavior of the system, but miss out on many important
network effects, particularly in the presence of bursty traffic."

This package implements that baseline: flows are fluid streams on
fixed (ECMP-chosen) paths; bandwidth is shared max-min fairly; the
simulation is event-driven over flow arrivals and completions only.
It is used by ablation A3 to quantify the accuracy/speed trade the
paper positions itself against.
"""

from repro.flowsim.epoch import EpochFlowSimulator
from repro.flowsim.maxmin import max_min_fair_rates
from repro.flowsim.simulator import (
    FlowResult,
    FlowSpec,
    validate_flow_spec,
    validate_flow_specs,
)

__all__ = [
    "EpochFlowSimulator",
    "FlowResult",
    "FlowSpec",
    "max_min_fair_rates",
    "validate_flow_spec",
    "validate_flow_specs",
]
