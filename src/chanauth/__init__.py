"""Physical-layer transmitter authentication: channel simulation, chi-square
spoofing detection, and room-averaged miss-rate sweeps."""

from .channel import ChannelParams, SpatialMode, TapState
from .detect import Regime, TestConfig
from .harness import ErrorRates, LinkBudget, SweepAxis, SweepResult
from .numerics import NotPositiveDefiniteError, RngStream
from .raytrace import GridSpec, RoomScene

__all__ = [
    "ChannelParams",
    "ErrorRates",
    "GridSpec",
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
]
