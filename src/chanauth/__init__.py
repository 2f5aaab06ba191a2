"""Physical-layer transmitter authentication: channel simulation, chi-square
spoofing detection, and Monte Carlo miss-rate experiments."""

from .channel import ChannelParams, SpatialMode, TapState
from .detect import Decision, Regime, TestConfig, TestOutcome
from .harness import ErrorRates, LinkBudget, SweepAxis, SweepResult
from .numerics import HermitianMatrix, NotPositiveDefiniteError, RngStream
from .raytrace import GridSpec, RoomScene

__all__ = [
    "ChannelParams",
    "Decision",
    "ErrorRates",
    "GridSpec",
    "HermitianMatrix",
    "LinkBudget",
    "NotPositiveDefiniteError",
    "Regime",
    "RngStream",
    "RoomScene",
    "SpatialMode",
    "SweepAxis",
    "SweepResult",
    "TapState",
    "TestConfig",
    "TestOutcome",
]
