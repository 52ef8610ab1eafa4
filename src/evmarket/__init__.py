"""Market-based EV to charging station scheduling.

Exact 0-1 integer-program allocation, fixed-price (Coop) and VCG pricing,
and periodic online market clearing, plus seeded scenario generation and an
experiment harness CLI.
"""

__version__ = "0.1.0"

from .model import (
    MONEY_SCALE,
    Allocation,
    EvRequest,
    EvType,
    Instance,
    PricingOutcome,
    Station,
    StationAccess,
    TimeGrid,
    imbalance_cost,
)
from .transport import RoadNetwork, build_requests
from .allocator import (
    STATUS_OPTIMAL,
    STATUS_TIME_LIMITED,
    IpModel,
    SolveResult,
    build_model,
    solve_exact,
    validate_allocation,
)
from .pricing import calibrate_incr, price, price_coop, price_vcg
from .online import ClearingSchedule, OnlineResult, run_online
from .scenario import GenParams, generate, perturb_reports

__all__ = [
    "Allocation",
    "ClearingSchedule",
    "EvRequest",
    "EvType",
    "GenParams",
    "Instance",
    "IpModel",
    "MONEY_SCALE",
    "OnlineResult",
    "PricingOutcome",
    "RoadNetwork",
    "STATUS_OPTIMAL",
    "STATUS_TIME_LIMITED",
    "SolveResult",
    "Station",
    "StationAccess",
    "TimeGrid",
    "build_model",
    "build_requests",
    "calibrate_incr",
    "generate",
    "imbalance_cost",
    "perturb_reports",
    "price",
    "price_coop",
    "price_vcg",
    "run_online",
    "solve_exact",
    "validate_allocation",
]
